/**
 * @file
 * Figure 11 (and Table III) — normalized execution time across the five
 * modeled machines and four optimization levels, original suite vs the
 * consolidated synthetic clone. Everything is normalized to -O0 on the
 * Pentium 4 3GHz analogue, exactly like the paper. Key shapes to check:
 * Core i7 fastest, Itanium 2 slowest, and -O2/-O3 buying ~25% over -O1
 * on the EPIC machine but little on the out-of-order x86 machines.
 */

#include "bench_common.hh"

#include "synth/consolidate.hh"

using namespace bsyn;

namespace
{

/** Wall-clock time (ns) of the whole set on one machine at one level.
 *  Each program is timed on its own session worker; the per-program
 *  times land in index order and are summed sequentially, so the total
 *  is bit-identical to a serial loop. */
double
suiteTime(const std::vector<std::string> &sources,
          const sim::MachineSpec &machine, opt::OptLevel level)
{
    auto times = bench::parallelMap<double>(sources.size(), [&](size_t i) {
        auto t = pipeline::timeOnMachine(sources[i], "fig11", level,
                                         machine)
                     .stats;
        return machine.timeNs(t.cycles);
    });
    double total = 0;
    for (double t : times)
        total += t;
    std::fprintf(stderr, "[fig11] %s %s: %zu programs timed\n",
                 machine.name.c_str(), opt::optLevelName(level),
                 sources.size());
    return total;
}

} // namespace

int
main()
{
    auto machines = sim::paperMachines();

    {
        TextTable t3("Table III: machines used in this study (modeled)");
        t3.setHeader({"machine", "ISA", "core", "regs", "L1D", "L2",
                      "GHz"});
        for (const auto &m : machines) {
            t3.addRow({m.name, m.isa.name,
                       m.core.inOrder ? "in-order" : "out-of-order",
                       std::to_string(m.isa.numRegs),
                       m.core.l1d.describe(), m.core.l2.describe(),
                       TextTable::num(m.freqGHz, 2)});
        }
        t3.print(std::cout);
        std::cout << "\n";
    }

    // Original: one representative instance per benchmark. Synthetic:
    // the consolidated clone of all of them (the paper's Fig 11 setup).
    const auto &runs = bench::representativeRuns();
    std::vector<std::string> org_sources;
    std::vector<profile::StatisticalProfile> profiles;
    for (const auto &r : runs) {
        org_sources.push_back(r.workload.source);
        profiles.push_back(r.profile);
    }
    auto consolidated = synth::consolidate(profiles, "mibench");
    auto opts = bench::benchSynthesisOptions();
    opts.targetInstructions = 400000; // one clone stands in for 13
    auto syn = synth::synthesize(consolidated, opts,
                                 &pipeline::measureInstructions);
    std::vector<std::string> syn_sources{syn.cSource};

    const opt::OptLevel levels[] = {opt::OptLevel::O0, opt::OptLevel::O1,
                                    opt::OptLevel::O2, opt::OptLevel::O3};

    // Normalization base: -O0 on the Pentium 4 3GHz analogue.
    double org_base = suiteTime(org_sources, machines[0], levels[0]);
    double syn_base = suiteTime(syn_sources, machines[0], levels[0]);

    TextTable table("Figure 11: normalized execution time "
                    "(P4-3GHz at -O0 = 1.0)");
    table.setHeader({"machine", "who", "O0", "O1", "O2", "O3"});
    std::vector<double> org_norm, syn_norm;
    for (const auto &m : machines) {
        std::vector<std::string> orow{m.name, "ORG"};
        std::vector<std::string> srow{"", "SYN"};
        for (auto lvl : levels) {
            double o = suiteTime(org_sources, m, lvl) / org_base;
            double s = suiteTime(syn_sources, m, lvl) / syn_base;
            org_norm.push_back(o);
            syn_norm.push_back(s);
            orow.push_back(TextTable::num(o, 3));
            srow.push_back(TextTable::num(s, 3));
        }
        table.addRow(orow);
        table.addRow(srow);
    }
    table.print(std::cout);

    std::cout << "\npaper checks:\n"
              << "  speedup-prediction error (mean) = "
              << TextTable::pct(meanRelativeError(syn_norm, org_norm))
              << " (paper: 7.4% average, <20% worst case)\n"
              << "  correlation(ORG, SYN) = "
              << TextTable::num(pearson(org_norm, syn_norm), 3) << "\n";
    return 0;
}
