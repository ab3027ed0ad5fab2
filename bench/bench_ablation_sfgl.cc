/**
 * @file
 * Ablation — the "L" in SFGL. The paper argues that modeling loops
 * explicitly (rather than generating a flat instruction sequence like
 * prior binary-level synthesizers) makes clones structurally faithful.
 * This harness synthesizes each clone twice — with and without loop
 * information — and compares branch behaviour fidelity.
 */

#include "bench_common.hh"

using namespace bsyn;

int
main()
{
    TextTable table("Ablation: SFGL loop annotation on vs off "
                    "(branch fraction / predictor accuracy fidelity)");
    table.setHeader({"workload", "ORG br%", "SYN+loops br%",
                     "SYN-flat br%", "ORG acc", "SYN+loops acc",
                     "SYN-flat acc"});

    std::vector<double> err_with, err_without;
    for (const auto &run : bench::representativeRuns()) {
        auto opts = bench::benchSynthesisOptions();
        opts.useLoopInfo = false;
        auto flat = synth::synthesize(run.profile, opts,
                                      &pipeline::measureInstructions);

        auto mixOf = [](const std::string &src) {
            ir::Module m = lang::compile(src, "m");
            return profile::profileModule(m).mix;
        };
        double org_br = run.profile.mix.branchFraction();
        double with_br = mixOf(run.synthetic.cSource).branchFraction();
        double flat_br = mixOf(flat.cSource).branchFraction();

        double org_acc = bench::branchAccuracy(run.workload.source,
                                               opt::OptLevel::O0);
        double with_acc = bench::branchAccuracy(run.synthetic.cSource,
                                                opt::OptLevel::O0);
        double flat_acc =
            bench::branchAccuracy(flat.cSource, opt::OptLevel::O0);

        err_with.push_back(std::abs(with_br - org_br) +
                           std::abs(with_acc - org_acc));
        err_without.push_back(std::abs(flat_br - org_br) +
                              std::abs(flat_acc - org_acc));

        table.addRow({run.workload.name(), TextTable::pct(org_br),
                      TextTable::pct(with_br), TextTable::pct(flat_br),
                      TextTable::pct(org_acc), TextTable::pct(with_acc),
                      TextTable::pct(flat_acc)});
    }
    table.print(std::cout);
    std::cout << "\nmean combined error: with loops "
              << TextTable::num(mean(err_with), 4) << ", without "
              << TextTable::num(mean(err_without), 4)
              << " (loop info should not be worse)\n";
    return 0;
}
