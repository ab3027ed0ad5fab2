/**
 * @file
 * Golden digests of the results. Every byte-identity claim of a change
 * that should not alter behaviour rests on this suite: it computes, in
 * process, at 4 threads and without a cache,
 *
 *  - the suite artifact set at the default seed: each workload's clone
 *    source and profile JSON, the bytes `bsyn suite -o` writes;
 *  - the document `bsyn fidelity --family all-presets --results-only`
 *    writes (FidelityReport::resultsJson, timing on);
 *  - one replay results document (the CI smoke's mix and schedule);
 *
 * and compares their SHA-256 digests with tests/data/golden.json. A
 * mismatch names the first artifact that differs and prints its new
 * digest. The determinism checks elsewhere (1 vs N threads, cold vs
 * warm cache, sharded vs not) cannot see a deterministic change of
 * behaviour; this can.
 *
 * A change that means to alter results rewrites the file with
 *
 *     BSYN_UPDATE_GOLDEN=1 build/tests/test_golden
 *
 * and says why in CHANGES.md. The file records the compiler and build
 * type that produced it; a toolchain that gives other digests is a
 * portability finding, not a reason to loosen the check.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "gen/fidelity.hh"
#include "gen/registry.hh"
#include "pipeline/session.hh"
#include "replay/engine.hh"
#include "support/hash.hh"
#include "support/json.hh"
#include "support/string_util.hh"
#include "workloads/suite.hh"

namespace bsyn
{
namespace
{

/** (artifact name, SHA-256 hex digest) in a fixed order. */
using Digests = std::vector<std::pair<std::string, std::string>>;

constexpr unsigned kThreads = 4;

std::string
goldenPath()
{
    return std::string(BSYN_TEST_DATA_DIR) + "/golden.json";
}

std::string
toolchain()
{
#if defined(__clang__)
    return std::string("Clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("GCC ") + __VERSION__;
#else
    return "unknown";
#endif
}

bool
updating()
{
    const char *env = std::getenv("BSYN_UPDATE_GOLDEN");
    return env && std::string(env) == "1";
}

pipeline::SessionOptions
uncachedSession()
{
    pipeline::SessionOptions so;
    so.threads = kThreads;
    return so;
}

/**
 * Compare @p now with the @p section of the golden file, or write it
 * there when BSYN_UPDATE_GOLDEN=1. Sections are independent, so each
 * test updates only its own.
 */
void
checkGolden(const std::string &section, const Digests &now)
{
    Json golden = Json::object();
    if (std::filesystem::exists(goldenPath()))
        golden = Json::parse(readFile(goldenPath()));

    if (updating()) {
        Json out = Json::object();
        out.set("schema", Json("bsyn.golden.v1"));
        out.set("compiler", Json(toolchain()));
        out.set("buildType", Json(BSYN_BUILD_TYPE));
        for (const char *key : {"suite", "fidelity", "replay"}) {
            if (key == section) {
                Json digests = Json::object();
                for (const auto &[name, digest] : now)
                    digests.set(name, Json(digest));
                out.set(key, std::move(digests));
            } else if (golden.has(key)) {
                out.set(key, golden.get(key));
            }
        }
        writeFile(goldenPath(), out.dump(2) + "\n");
        std::printf("golden: rewrote section '%s' (%zu digests)\n",
                    section.c_str(), now.size());
        return;
    }

    ASSERT_TRUE(golden.has(section))
        << goldenPath() << " has no '" << section
        << "' section; generate it with BSYN_UPDATE_GOLDEN=1";
    const Json &want = golden.get(section);
    std::string made = "digests made with " +
                       golden.get("compiler").asString() + " " +
                       golden.get("buildType").asString() +
                       "; this build is " + toolchain() + " " +
                       BSYN_BUILD_TYPE;
    std::vector<std::string> names = want.keys();
    for (size_t i = 0; i < now.size(); ++i) {
        const auto &[name, digest] = now[i];
        if (i >= names.size() || names[i] != name) {
            FAIL() << section << ": artifact " << i << " is '" << name
                   << "', golden expects '"
                   << (i < names.size() ? names[i] : "<none>")
                   << "' (" << made << ")";
        }
        if (want.get(name).asString() != digest) {
            FAIL() << section << ": first differing artifact '" << name
                   << "': golden " << want.get(name).asString()
                   << ", now " << digest << " (" << made << ")";
        }
    }
    EXPECT_EQ(now.size(), names.size())
        << section << ": golden has " << names.size()
        << " artifacts, this run " << now.size();
}

TEST(Golden, SuiteArtifacts)
{
    pipeline::Session session(uncachedSession());
    std::vector<pipeline::WorkloadRun> runs = session.processSuite();
    Digests now;
    for (const auto &run : runs) {
        std::string base = run.workload.benchmark + "_" +
                           run.workload.input;
        now.emplace_back(base + ".c", sha256Hex(run.synthetic.cSource));
        now.emplace_back(base + ".profile.json",
                         sha256Hex(run.profile.serialize()));
    }
    ASSERT_EQ(now.size(), 2 * workloads::mibenchSuite().size());
    checkGolden("suite", now);
}

TEST(Golden, FidelityAllPresets)
{
    pipeline::Session session(uncachedSession());
    std::vector<workloads::Workload> batch = workloads::mibenchSuite();
    auto presets = gen::Registry::global().allPresets(
        session.options().synthesis.seed);
    batch.insert(batch.end(), presets.begin(), presets.end());

    gen::FidelityOptions fo;
    fo.synthesis = session.options().synthesis;
    gen::FidelityReport report = gen::scoreFidelity(session, batch, fo);
    for (const auto &inst : report.instances)
        EXPECT_TRUE(inst.ok) << inst.workload << ": " << inst.error;
    checkGolden("fidelity",
                {{"results.json",
                  sha256Hex(report.resultsJson().dump(2) + "\n")}});
}

TEST(Golden, ReplayResults)
{
    replay::ReplayOptions ro;
    ro.mixSpec = "fp_kernel;stream_mix";
    ro.scheduleSpec = "constant,rate=30,jitter=1";
    ro.durationS = 2.0;
    ro.population = 2;
    ro.targetInstr = 60000;
    ro.threads = kThreads;
    replay::ReplayReport rep = replay::runReplay(ro);
    EXPECT_EQ(rep.failCount, 0u);
    checkGolden("replay",
                {{"results.json",
                  sha256Hex(rep.resultsJson().dump(2) + "\n")}});
}

} // namespace
} // namespace bsyn
