/**
 * @file
 * Proprietary-proxy scenario (the paper's flagship application): a
 * company profiles its code in-house, writes ONLY the statistical
 * profile and the synthetic clone to disk, and ships those to a
 * hardware vendor. The vendor — this program's second half — never sees
 * the original source, yet can recompile the clone at every optimization
 * level and use it to drive architecture decisions.
 *
 * Build & run:  ./build/examples/proprietary_proxy [output-dir]
 */

#include <cstdio>
#include <string>

#include "pipeline/session.hh"
#include "support/string_util.hh"

using namespace bsyn;

int
main(int argc, char **argv)
{
    std::string dir = argc > 1 ? argv[1] : ".";

    // ------------------------------------------------------------------
    // Company side: profile the proprietary workload, synthesize, ship.
    // ------------------------------------------------------------------
    const auto &secret = workloads::findWorkload("gsm/small1");
    std::printf("[company] profiling proprietary workload (%llu dynamic "
                "instructions)\n",
                static_cast<unsigned long long>(
                    pipeline::measureInstructions(secret.source)));

    pipeline::Session session;
    auto run = session.process(secret);

    std::string profile_path = dir + "/proxy_profile.json";
    std::string clone_path = dir + "/proxy_clone.c";
    run.profile.saveTo(profile_path);
    writeFile(clone_path, run.synthetic.cSource);
    std::printf("[company] shipped %s and %s (the original source stays "
                "in-house)\n\n",
                profile_path.c_str(), clone_path.c_str());

    // ------------------------------------------------------------------
    // Vendor side: everything below uses ONLY the shipped files.
    // ------------------------------------------------------------------
    std::string clone = readFile(clone_path);
    auto shipped = profile::StatisticalProfile::loadFrom(profile_path);
    std::printf("[vendor] received profile of '%s': %llu instructions, "
                "%zu blocks\n",
                shipped.workloadName.c_str(),
                static_cast<unsigned long long>(
                    shipped.dynamicInstructions),
                shipped.sfgl.blocks.size());

    std::printf("[vendor] compiler sweep on the clone:\n");
    for (auto lvl : {opt::OptLevel::O0, opt::OptLevel::O1,
                     opt::OptLevel::O2, opt::OptLevel::O3}) {
        auto stats = pipeline::runSource(clone, "clone", lvl,
                                         isa::targetX86());
        std::printf("  %-3s %10llu dynamic instructions\n",
                    opt::optLevelName(lvl),
                    static_cast<unsigned long long>(stats.instructions));
    }

    std::printf("[vendor] machine sweep on the clone (-O2):\n");
    for (const auto &machine : sim::paperMachines()) {
        auto t = pipeline::timeOnMachine(clone, "clone",
                                         opt::OptLevel::O2, machine)
                     .stats;
        std::printf("  %-18s CPI %.3f  time %.2f us\n",
                    machine.name.c_str(), t.cpi(),
                    machine.timeNs(t.cycles) / 1000.0);
    }

    std::printf("\n[vendor] decisions made without ever seeing the "
                "proprietary source.\n");
    return 0;
}
