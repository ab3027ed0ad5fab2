/**
 * @file
 * Inputs shared by the differential suites: one suite instance per
 * benchmark, lowered at a given optimization level, and the
 * (instance, level) parameter grid with its "<benchmark>_<level>" test
 * names.
 */

#ifndef BSYN_TESTS_DIFFERENTIAL_SUITE_HH
#define BSYN_TESTS_DIFFERENTIAL_SUITE_HH

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "isa/lowering.hh"
#include "lang/frontend.hh"
#include "opt/pipeline.hh"
#include "workloads/suite.hh"

namespace bsyn
{

/** One instance per benchmark: a differential does not need every
 *  input size of the same kernel. */
inline const std::vector<workloads::Workload> &
representativeSuite()
{
    static const std::vector<workloads::Workload> suite = [] {
        std::vector<workloads::Workload> out;
        std::string last;
        for (const auto &w : workloads::mibenchSuite()) {
            if (w.benchmark == last)
                continue;
            last = w.benchmark;
            out.push_back(w);
        }
        return out;
    }();
    return suite;
}

/** @p w compiled at @p level and lowered for x86. */
inline isa::MachineProgram
lowerAt(const workloads::Workload &w, opt::OptLevel level)
{
    ir::Module m = lang::compile(w.source, w.name());
    opt::optimize(m, level);
    return isa::lower(m, isa::targetX86());
}

/** One point of the grid: an index into representativeSuite() and a
 *  level. */
using SuiteLevel = std::tuple<size_t, opt::OptLevel>;

/** Every representative instance at -O0 and -O2. */
inline auto
suiteLevelGrid()
{
    return ::testing::Combine(
        ::testing::Range<size_t>(0, representativeSuite().size()),
        ::testing::Values(opt::OptLevel::O0, opt::OptLevel::O2));
}

inline std::string
suiteLevelName(const ::testing::TestParamInfo<SuiteLevel> &info)
{
    const auto &[idx, level] = info.param;
    std::string name = representativeSuite()[idx].benchmark;
    for (char &c : name)
        if (c == '/' || c == '-')
            c = '_';
    return name + "_" + opt::optLevelName(level);
}

} // namespace bsyn

#endif // BSYN_TESTS_DIFFERENTIAL_SUITE_HH
