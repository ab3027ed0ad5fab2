/**
 * @file
 * bsyn — command-line front end to the framework. Each command is one
 * stage of the paper's Figure 1 flow, operating on files so the stages
 * can run on different sides of an organizational wall.
 *
 * Two tables drive the parser and the usage text: kFlags declares each
 * flag once, with the commands that read it, and kCommands gives each
 * command its operands, its required flag and its entry point. A
 * command accepts only the flags it reads. A foreign flag, a wrong
 * operand count or a missing required flag is an argument error: the
 * command's usage, exit 2. `bsyn` with no arguments prints every
 * command's flags.
 */

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gen/fidelity.hh"
#include "gen/registry.hh"
#include "isa/lowering.hh"
#include "obs/log.hh"
#include "obs/trace.hh"
#include "pipeline/pipeline.hh"
#include "pipeline/run_sink.hh"
#include "pipeline/session.hh"
#include "replay/engine.hh"
#include "serve/merge.hh"
#include "serve/shard.hh"
#include "serve/spool.hh"
#include "serve/worker.hh"
#include "similarity/report.hh"
#include "support/error.hh"
#include "support/string_util.hh"
#include "support/table.hh"

using namespace bsyn;

namespace
{

/**
 * What the command line set. Library settings go straight into the
 * option structs the commands hand on, so their defaults are the
 * library's own; the remaining fields exist only in the CLI.
 */
struct Args
{
    std::vector<std::string> operands;
    std::string output;                      ///< -o
    isa::TargetInfo target = isa::targetX86(); ///< run --target
    std::optional<opt::OptLevel> level;      ///< run/time default to -O0
    bool noCache = false; ///< beats --cache-dir and BSYN_CACHE_DIR
    bool showPhases = false;
    bool onlyFamilies = false;
    bool resultsOnly = false;
    bool mergeFidelity = false;
    bool wait = false;
    bool quiet = false;
    std::optional<obs::LogLevel> logLevel;
    std::string traceFile;

    /** Each --family value, in order ("all", "all-presets" or
     *  "family[,knob=v...][,seed=S]"). */
    std::vector<std::string> families;
    uint64_t genCount = 1; ///< instances per family for "all"/seedless
    serve::ShardSpec shard;

    /** Cache directory, batch threads, synthesis and profiling. Its
     *  thread count is also serve's and replay's, where 0 likewise
     *  means one per hardware thread. */
    pipeline::SessionOptions session;
    gen::FidelityOptions fidelity;
    serve::WorkerOptions worker; ///< its spool is submit's and replay's
    serve::Job job;              ///< submit's id and timing switch
    /** Its spool timeout also bounds submit --wait. */
    replay::ReplayOptions replay;
};

/** One flag occurrence: the flag as spelled and the value it carries. */
struct Value
{
    std::string flag;
    std::string text;

    /** A plain unsigned decimal or 0x-hex number within [lo, hi]. */
    uint64_t
    u64(uint64_t lo = 0, uint64_t hi = UINT64_MAX) const
    {
        // stoull would silently wrap "-1" to 2^64-1, so a sign or
        // leading whitespace is junk; base 0 would read a leading zero
        // as octal, so only 0x means hex.
        bool hex = text.size() > 2 && text[0] == '0' &&
                   (text[1] == 'x' || text[1] == 'X');
        size_t pos = 0;
        uint64_t v = 0;
        if (!text.empty() &&
            std::isalnum(static_cast<unsigned char>(text[0]))) {
            try {
                v = std::stoull(text, &pos, hex ? 16 : 10);
            } catch (const std::exception &) {
                pos = 0;
            }
        }
        if (pos == 0 || pos != text.size())
            fatal("invalid number '%s' for %s", text.c_str(), flag.c_str());
        if (v < lo || v > hi)
            fatal("%s %llu is out of range (%llu..%llu)", flag.c_str(),
                  static_cast<unsigned long long>(v),
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi));
        return v;
    }

    /** A finite non-negative decimal number. */
    double
    f64() const
    {
        size_t pos = 0;
        double v = 0.0;
        if (!text.empty() &&
            std::isdigit(static_cast<unsigned char>(text[0]))) {
            try {
                v = std::stod(text, &pos);
            } catch (const std::exception &) {
                pos = 0;
            }
        }
        if (pos == 0 || pos != text.size() || !std::isfinite(v))
            fatal("invalid number '%s' for %s", text.c_str(), flag.c_str());
        return v;
    }
};

/** One bit per command; a flag's owners are a set of them. */
enum : unsigned
{
    Run = 1u << 0,
    Profile = 1u << 1,
    Synth = 1u << 2,
    Compare = 1u << 3,
    Time = 1u << 4,
    Suite = 1u << 5,
    List = 1u << 6,
    Gen = 1u << 7,
    Fidelity = 1u << 8,
    Merge = 1u << 9,
    Serve = 1u << 10,
    Submit = 1u << 11,
    Replay = 1u << 12,
    Every = (1u << 13) - 1,
    Cached = Profile | Synth | Suite | Fidelity | Serve | Replay,
    Batch = Suite | Fidelity,
    Synthesizing = Synth | Batch | Submit | Replay,
};

/** A flag, declared once: the commands that read it and the one
 *  function that parses, validates and stores its value. */
struct Flag
{
    const char *name;  ///< as usage prints it
    const char *value; ///< usage name of its value; nullptr = a switch
    unsigned owners;
    void (*set)(Args &, const Value &);
    const char *env = nullptr; ///< environment variable with the default
};

const Flag kFlags[] = {
    {"-O0..-O3", nullptr, Run | Time | Fidelity,
     [](Args &a, const Value &v) { a.level = opt::optLevelByName(v.flag); }},
    {"--target", "x86|x86_64|ia64", Run,
     [](Args &a, const Value &v) { a.target = isa::targetByName(v.text); }},
    {"-o", "PATH", Profile | Synth | Batch | Gen | Merge | Replay,
     [](Args &a, const Value &v) { a.output = v.text; }},
    {"--cache-dir", "DIR", Cached,
     [](Args &a, const Value &v) { a.session.cacheDir = v.text; },
     "BSYN_CACHE_DIR"},
    {"--no-cache", nullptr, Cached,
     [](Args &a, const Value &) { a.noCache = true; }},
    {"--phase-slices", "N", Profile | Fidelity,
     [](Args &a, const Value &v) {
         a.session.profiling.sliceBaseLength = v.u64();
     }},
    {"--phases", nullptr, Profile | Fidelity,
     [](Args &a, const Value &) { a.showPhases = true; }},
    {"--target-instr", "N", Synthesizing,
     [](Args &a, const Value &v) {
         a.session.synthesis.targetInstructions = v.u64();
     }},
    {"--seed", "S", Synthesizing,
     [](Args &a, const Value &v) { a.session.synthesis.seed = v.u64(); }},
    {"--no-phase-synth", nullptr, Synth | Fidelity,
     [](Args &a, const Value &) { a.session.synthesis.phaseAware = false; }},
    {"--threads", "N", Batch | Serve | Replay,
     [](Args &a, const Value &v) {
         a.session.threads = static_cast<unsigned>(v.u64(0, 4096));
     }},
    {"--family", "SPEC", Batch,
     [](Args &a, const Value &v) { a.families.push_back(v.text); }},
    {"--gen-count", "N", Batch,
     [](Args &a, const Value &v) { a.genCount = v.u64(1, 64); }},
    {"--shard", "I/N", Batch,
     [](Args &a, const Value &v) { a.shard = serve::parseShardSpec(v.text); }},
    {"--only-families", nullptr, Fidelity,
     [](Args &a, const Value &) { a.onlyFamilies = true; }},
    {"--no-timing", nullptr, Fidelity,
     [](Args &a, const Value &) { a.fidelity.timing = false; }},
    {"--results-only", nullptr, Fidelity | Replay,
     [](Args &a, const Value &) { a.resultsOnly = true; }},
    {"--fidelity", nullptr, Merge,
     [](Args &a, const Value &) { a.mergeFidelity = true; }},
    {"--spool", "DIR", Serve | Submit | Replay,
     [](Args &a, const Value &v) { a.worker.spoolDir = v.text; }},
    {"--drain", nullptr, Serve,
     [](Args &a, const Value &) { a.worker.drain = true; }},
    {"--max-jobs", "N", Serve,
     [](Args &a, const Value &v) { a.worker.maxJobs = v.u64(); }},
    {"--poll-ms", "MS", Serve,
     [](Args &a, const Value &v) {
         a.worker.pollMs = static_cast<unsigned>(v.u64(1, 60000));
     }},
    {"--poll-max-ms", "MS", Serve,
     [](Args &a, const Value &v) {
         a.worker.pollMaxMs = static_cast<unsigned>(v.u64(1, 600000));
     }},
    {"--reclaim-after", "SECS", Serve,
     [](Args &a, const Value &v) { a.worker.reclaimAfterS = v.f64(); }},
    {"--id", "ID", Submit,
     [](Args &a, const Value &v) {
         if (!serve::validJobId(v.text))
             fatal("--id '%s' is invalid (need 1..200 chars of "
                   "[A-Za-z0-9._-])",
                   v.text.c_str());
         a.job.id = v.text;
     }},
    {"--timing", nullptr, Submit,
     [](Args &a, const Value &) { a.job.timing = true; }},
    {"--wait", nullptr, Submit, [](Args &a, const Value &) { a.wait = true; }},
    {"--timeout", "SECS", Submit | Replay,
     [](Args &a, const Value &v) {
         a.replay.spoolTimeoutS = static_cast<double>(v.u64());
     }},
    // Validated once every flag is read: it depends on --population.
    {"--mix", "SPEC", Replay,
     [](Args &a, const Value &v) { a.replay.mixSpec = v.text; }},
    {"--schedule", "SPEC", Replay,
     [](Args &a, const Value &v) {
         replay::Schedule::parse(v.text);
         a.replay.scheduleSpec = v.text;
     }},
    {"--duration", "SECS", Replay,
     [](Args &a, const Value &v) {
         double secs = v.f64();
         if (!(secs > 0.0) || secs > 3600.0)
             fatal("--duration %.3f is out of range (0, 3600]", secs);
         a.replay.durationS = secs;
     }},
    {"--population", "N", Replay,
     [](Args &a, const Value &v) { a.replay.population = v.u64(1, 64); }},
    {"--workers", "N", Replay,
     [](Args &a, const Value &v) {
         a.replay.spoolWorkers = static_cast<unsigned>(v.u64(1, 64));
     }},
    {"--trace", "FILE", Every,
     [](Args &a, const Value &v) { a.traceFile = v.text; }, "BSYN_TRACE"},
    {"--log-level", "LEVEL", Every,
     [](Args &a, const Value &v) { a.logLevel = obs::parseLogLevel(v.text); },
     "BSYN_LOG"},
    {"--quiet", nullptr, Every,
     [](Args &a, const Value &) { a.quiet = true; }},
};

/**
 * Resolve the --family selection into concrete workloads: "all" is a
 * fixed-seed sample across every registered family (--gen-count
 * presets each, seeded from --seed); "all-presets" is one instance of
 * every published preset of every family (full coverage, seeded from
 * --seed — what the CI fidelity smoke scores); an explicit spec
 * without a seed yields --gen-count instances at seeds 1..N; a spec
 * carrying seed=S yields exactly that instance.
 */
std::vector<workloads::Workload>
generatedSelection(const Args &args)
{
    const uint64_t seed = args.session.synthesis.seed;
    std::vector<workloads::Workload> out;
    for (const auto &text : args.families) {
        if (text == "all") {
            auto sample =
                gen::Registry::global().sample(args.genCount, seed);
            out.insert(out.end(), sample.begin(), sample.end());
            continue;
        }
        if (text == "all-presets") {
            auto batch = gen::Registry::global().allPresets(seed);
            out.insert(out.end(), batch.begin(), batch.end());
            continue;
        }
        gen::InstanceSpec spec = gen::parseSpec(text);
        const gen::Family &family =
            gen::Registry::global().require(spec.family);
        if (spec.hasSeed) {
            out.push_back(family.make(spec.knobs, spec.seed));
        } else {
            for (uint64_t s = 1; s <= args.genCount; ++s)
                out.push_back(family.make(spec.knobs, s));
        }
    }
    return out;
}

int
cmdRun(const Args &args)
{
    const std::string &path = args.operands[0];
    auto stats = pipeline::runSource(readFile(path), path,
                                     args.level.value_or(opt::OptLevel::O0),
                                     args.target);
    std::fputs(stats.output.c_str(), stdout);
    obs::logf(obs::LogLevel::Info,
              "[bsyn] %llu instructions (%llu loads, %llu stores, "
              "%llu branches), exit code %d",
              static_cast<unsigned long long>(stats.instructions),
              static_cast<unsigned long long>(stats.memReads),
              static_cast<unsigned long long>(stats.memWrites),
              static_cast<unsigned long long>(stats.branches),
              stats.exitCode);
    return stats.exitCode;
}

int
cmdProfile(const Args &args)
{
    pipeline::Session session(args.session);
    bool cached = false;
    auto prof = session.profile(readFile(args.operands[0]),
                                args.operands[0], &cached);
    prof.saveTo(args.output);
    obs::logf(obs::LogLevel::Info,
              "[bsyn] wrote %s%s: %llu dynamic instructions, %zu "
              "blocks, %zu loops, %zu phase%s (%llu slices of "
              "%llu)",
              args.output.c_str(), cached ? " (from cache)" : "",
              static_cast<unsigned long long>(prof.dynamicInstructions),
              prof.sfgl.blocks.size(), prof.sfgl.loops.size(),
              prof.phaseCount(), prof.phaseCount() == 1 ? "" : "s",
              static_cast<unsigned long long>(prof.sliceCount),
              static_cast<unsigned long long>(prof.sliceLength));
    if (args.showPhases) {
        TextTable table("profile phases");
        table.setHeader({"phase", "instr", "slices", "load", "store",
                         "branch", "fp"});
        for (size_t i = 0; i < prof.phases.size(); ++i) {
            const auto &ph = prof.phases[i];
            table.addRow(
                {std::to_string(i),
                 std::to_string(ph.dynamicInstructions),
                 std::to_string(ph.sliceCount),
                 TextTable::pct(ph.mix.loadFraction()),
                 TextTable::pct(ph.mix.storeFraction()),
                 TextTable::pct(ph.mix.branchFraction()),
                 TextTable::pct(ph.mix.fpFraction())});
        }
        table.print(std::cout);
    }
    return 0;
}

int
cmdSynth(const Args &args)
{
    pipeline::Session session(args.session);
    auto prof = profile::StatisticalProfile::loadFrom(args.operands[0]);
    bool cached = false;
    auto syn = session.synthesize(prof, args.session.synthesis, &cached);
    writeFile(args.output, syn.cSource);
    if (cached) {
        // Skip the measurement run: a warm synth must compute nothing.
        obs::logf(obs::LogLevel::Info,
                  "[bsyn] wrote %s (from cache): R=%llu, %u "
                  "phase(s), coverage %.1f%%",
                  args.output.c_str(),
                  static_cast<unsigned long long>(syn.reductionFactor),
                  syn.phases, 100.0 * syn.patternStats.coverage());
        return 0;
    }
    obs::logf(obs::LogLevel::Info,
              "[bsyn] wrote %s: R=%llu, %u phase(s), coverage "
              "%.1f%%, clone runs %llu instructions",
              args.output.c_str(),
              static_cast<unsigned long long>(syn.reductionFactor),
              syn.phases, 100.0 * syn.patternStats.coverage(),
              static_cast<unsigned long long>(
                  pipeline::measureInstructions(syn.cSource)));
    return 0;
}

int
cmdCompare(const Args &args)
{
    auto report =
        similarity::compareSources(readFile(args.operands[0]),
                                   readFile(args.operands[1]));
    std::printf("winnowing (Moss-style): %.1f%%\n",
                100.0 * report.winnow);
    std::printf("tiling (JPlag-style):   %.1f%%\n",
                100.0 * report.tiling);
    std::printf("verdict: %s\n", report.hidesProprietaryInformation()
                                     ? "no meaningful similarity"
                                     : "similarity detected");
    return report.hidesProprietaryInformation() ? 0 : 1;
}

int
cmdTime(const Args &args)
{
    const std::string &path = args.operands[0];
    std::string src = readFile(path);
    std::printf("%-20s %12s %8s %10s\n", "machine", "cycles", "CPI",
                "time(us)");
    for (const auto &machine : sim::paperMachines()) {
        auto t = pipeline::timeOnMachine(
                     src, path, args.level.value_or(opt::OptLevel::O0),
                     machine)
                     .stats;
        std::printf("%-20s %12llu %8.3f %10.2f\n", machine.name.c_str(),
                    static_cast<unsigned long long>(t.cycles), t.cpi(),
                    machine.timeNs(t.cycles) / 1000.0);
    }
    return 0;
}

int
cmdSuite(const Args &args)
{
    // --family swaps the batch from the MiBench-analogue suite to
    // generated family instances; everything downstream (cache,
    // sinks, seeds) treats them identically.
    const std::vector<workloads::Workload> fullSuite =
        args.families.empty() ? workloads::mibenchSuite()
                              : generatedSelection(args);

    // --shard: every invocation resolves the full batch identically,
    // then keeps only the workloads hashed onto this shard; the
    // per-workload seeds derive from names, so shard outputs are the
    // exact bytes the unsharded run produces for those workloads.
    serve::ShardedBatch sharded = serve::filterShard(fullSuite, args.shard);
    const std::vector<workloads::Workload> &suite = sharded.workloads;
    if (!args.shard.isAll())
        obs::logf(obs::LogLevel::Info,
                  "[bsyn] shard %s: %zu of %zu workloads",
                  args.shard.str().c_str(), suite.size(), sharded.total);

    pipeline::SessionOptions so = args.session;
    // Cap the pool at the batch width so a wide --threads (or a wide
    // machine) never spawns workers that could only idle.
    so.threads = pipeline::resolveSuiteThreads(so.threads, suite.size());
    const unsigned threads = so.threads;
    pipeline::Session session(std::move(so));

    // Sinks: stream clones/profiles to disk as they finish (when -o is
    // given), log progress, and collect for the summary table.
    pipeline::CallbackSink progress(
        [](const pipeline::RunStatus &st, const pipeline::WorkloadRun &r) {
            if (!st.ok)
                return;
            obs::logf(obs::LogLevel::Info,
                      "[bsyn] %-22s R=%llu, coverage %.1f%%%s",
                      st.workload.c_str(),
                      static_cast<unsigned long long>(
                          r.synthetic.reductionFactor),
                      100.0 * r.synthetic.patternStats.coverage(),
                      st.profileCached && st.synthCached ? " (cached)"
                                                         : "");
        });
    pipeline::CollectSink collect;
    std::unique_ptr<pipeline::DirectorySink> disk;
    std::vector<pipeline::RunSink *> sinks{&progress, &collect};
    if (!args.output.empty()) {
        // Created before spending minutes synthesizing.
        disk = std::make_unique<pipeline::DirectorySink>(args.output);
        sinks.push_back(disk.get());
    }
    pipeline::TeeSink tee(sinks);

    auto t0 = std::chrono::steady_clock::now();
    auto statuses = session.processSuite(suite, tee);
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

    size_t failed = 0;
    for (const auto &st : statuses) {
        if (!st.ok) {
            ++failed;
            obs::logf(obs::LogLevel::Warn, "[bsyn] FAILED %-22s %s",
                      st.workload.c_str(), st.error.c_str());
        }
    }

    if (!args.output.empty()) {
        // Status artifact with shard provenance: `bsyn merge` checks
        // the suite hash and index cover before reunifying shards.
        serve::makeSuiteStatus(sharded, statuses)
            .saveTo(args.output + "/" + serve::kSuiteStatusFile);
    }

    auto runs = collect.takeRuns();
    TextTable table("suite synthesis summary");
    table.setHeader({"workload", "dyn instr", "R", "coverage"});
    for (const auto &r : runs) {
        table.addRow({r.workload.name(),
                      std::to_string(r.profile.dynamicInstructions),
                      std::to_string(r.synthetic.reductionFactor),
                      TextTable::pct(r.synthetic.patternStats.coverage())});
    }
    table.print(std::cout);

    obs::logf(obs::LogLevel::Info,
              "[bsyn] %zu/%zu workloads synthesized on %u threads "
              "in %.2fs%s%s",
              runs.size(), statuses.size(), threads, secs,
              args.output.empty() ? "" : ", clones written to ",
              args.output.c_str());
    if (session.cache().enabled()) {
        auto cs = session.cacheStats();
        obs::logf(obs::LogLevel::Info,
                  "[bsyn] cache: profiles %llu/%llu from cache, clones "
                  "%llu/%llu from cache",
                  static_cast<unsigned long long>(cs.profileHits),
                  static_cast<unsigned long long>(cs.profileHits +
                                                  cs.profileMisses),
                  static_cast<unsigned long long>(cs.synthHits),
                  static_cast<unsigned long long>(cs.synthHits +
                                                  cs.synthMisses));
    }
    return failed ? 1 : 0;
}

int
cmdList(const Args &)
{
    std::printf("suite instances (%zu):\n",
                workloads::mibenchSuite().size());
    std::string last;
    for (const auto &w : workloads::mibenchSuite()) {
        if (w.benchmark != last) {
            std::printf("%s  %s:", last.empty() ? "" : "\n",
                        w.benchmark.c_str());
            last = w.benchmark;
        }
        std::printf(" %s", w.input.c_str());
    }
    std::printf("\n\ngenerator families (instantiate as "
                "family[,knob=value...][,seed=S]):\n");
    for (const auto *family : gen::Registry::global().families()) {
        std::printf("\n  %s — %s\n", family->name().c_str(),
                    family->description().c_str());
        for (const auto &k : family->knobs())
            std::printf("    %-12s default %-8lld range [%lld, %lld]  "
                        "%s\n",
                        k.name.c_str(),
                        static_cast<long long>(k.def),
                        static_cast<long long>(k.min),
                        static_cast<long long>(k.max),
                        k.description.c_str());
        std::printf("    presets: %zu\n", family->presets().size());
    }
    return 0;
}

int
cmdGen(const Args &args)
{
    gen::InstanceSpec spec = gen::parseSpec(args.operands[0]);
    workloads::Workload w = gen::instantiateSpec(spec);
    if (args.output.empty())
        std::fputs(w.source.c_str(), stdout);
    else
        writeFile(args.output, w.source);
    obs::logf(obs::LogLevel::Info,
              "[bsyn] generated %s (%zu bytes)%s%s\n"
              "[bsyn] expected output: %s",
              w.name().c_str(), w.source.size(),
              args.output.empty() ? "" : " -> ", args.output.c_str(),
              w.expectedOutput.c_str());
    return 0;
}

int
cmdFidelity(const Args &args)
{
    // Scope: every Figure-4 instance (unless --only-families), plus
    // every generated instance the --family selection adds.
    auto t0 = std::chrono::steady_clock::now();
    std::vector<workloads::Workload> batch;
    if (!args.onlyFamilies)
        batch = workloads::mibenchSuite();
    auto generated = generatedSelection(args);
    batch.insert(batch.end(), generated.begin(), generated.end());
    double genSecs = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (batch.empty())
        fatal("fidelity: no instances to score — --only-families "
              "without any --family <spec> selects nothing");

    // --shard partitions the *resolved* batch (emptiness was judged on
    // the full batch above: a shard that happens to be empty is fine).
    serve::ShardedBatch sharded = serve::filterShard(batch, args.shard);
    batch = sharded.workloads;
    if (!args.shard.isAll())
        obs::logf(obs::LogLevel::Info,
                  "[bsyn] shard %s: %zu of %zu instances",
                  args.shard.str().c_str(), batch.size(), sharded.total);

    pipeline::SessionOptions so = args.session;
    so.threads = pipeline::resolveSuiteThreads(so.threads, batch.size());
    pipeline::Session session(std::move(so));

    gen::FidelityOptions fo = args.fidelity;
    fo.synthesis = session.options().synthesis;
    if (args.level)
        fo.timingLevel = *args.level;

    auto report = gen::scoreFidelity(session, batch, fo);
    report.generationSecs = genSecs;

    // --results-only drops the bench (wall-clock) half, leaving the
    // deterministic report a merge can reproduce byte-identically.
    Json j = serve::fidelityShardReport(report, sharded, args.resultsOnly);
    std::string text = j.dump(2) + "\n";
    if (args.output.empty())
        std::fputs(text.c_str(), stdout);
    else
        writeFile(args.output, text);

    size_t failed = 0;
    TextTable table("clone fidelity (relative error per instance)");
    table.setHeader({"workload", "mean", "max", "phases",
                     "ph.worst", "worst metric"});
    for (const auto &inst : report.instances) {
        if (!inst.ok) {
            ++failed;
            obs::logf(obs::LogLevel::Warn, "[bsyn] FAILED %-22s %s",
                      inst.workload.c_str(), inst.error.c_str());
            continue;
        }
        const gen::MetricScore *worst = nullptr;
        for (const auto &m : inst.metrics)
            if (!worst || m.error > worst->error)
                worst = &m;
        table.addRow(
            {inst.workload, strprintf("%.3f", inst.meanError),
             strprintf("%.3f", inst.maxError),
             strprintf("%llu/%llu",
                       static_cast<unsigned long long>(
                           inst.originalPhases),
                       static_cast<unsigned long long>(
                           inst.clonePhases)),
             strprintf("%.3f", inst.phaseWorstMixError),
             worst ? worst->metric : "-"});
        if (args.showPhases) {
            for (const auto &ps : inst.phaseScores)
                obs::logf(obs::LogLevel::Info,
                          "[bsyn]   %-22s phase %zu -> clone %zu: mix "
                          "%.3f, miss %.3f, taken %.3f",
                          inst.workload.c_str(), ps.original, ps.clone,
                          ps.mixError, ps.missRateError,
                          ps.takenRateError);
        }
    }
    table.print(std::cout);
    obs::logf(obs::LogLevel::Info,
              "[bsyn] scored %zu/%zu instances in %.2fs%s%s",
              report.instances.size() - failed, report.instances.size(),
              report.totalSecs,
              args.output.empty() ? "" : ", report written to ",
              args.output.c_str());
    return failed ? 1 : 0;
}

int
cmdMerge(const Args &args)
{
    if (args.mergeFidelity) {
        std::vector<Json> reports;
        for (const auto &path : args.operands)
            reports.push_back(Json::parse(readFile(path)));
        Json merged = serve::mergeFidelityReports(reports);
        writeFile(args.output, merged.dump(2) + "\n");
        obs::logf(obs::LogLevel::Info,
                  "[bsyn] merged %zu fidelity shards (%zu instances) "
                  "into %s",
                  reports.size(), merged.get("instances").size(),
                  args.output.c_str());
        return 0;
    }

    serve::MergeResult res =
        serve::mergeSuiteDirs(args.output, args.operands);
    obs::logf(obs::LogLevel::Info,
              "[bsyn] merged %zu shards into %s: %zu workloads "
              "(%zu failed), %zu artifact files",
              res.shards, args.output.c_str(), res.workloads, res.failed,
              res.files);
    return res.failed ? 1 : 0;
}

/** The worker the signal handler must reach (exactly one per serve
 *  process; requestStop is a single atomic store, so it is safe in a
 *  handler context). */
serve::Worker *gServeWorker = nullptr;

extern "C" void
serveSignalHandler(int)
{
    if (gServeWorker)
        gServeWorker->requestStop();
}

int
cmdServe(const Args &args)
{
    serve::WorkerOptions wo = args.worker;
    wo.cacheDir = args.session.cacheDir;
    wo.threads = args.session.threads;
    wo.verbose = true;
    serve::Worker worker(wo);

    // SIGINT/SIGTERM become a graceful drain request: the in-flight
    // job still finishes and publishes its status.
    gServeWorker = &worker;
    std::signal(SIGINT, serveSignalHandler);
    std::signal(SIGTERM, serveSignalHandler);

    obs::logf(obs::LogLevel::Info, "[bsyn] serving %s%s%s",
              wo.spoolDir.c_str(), wo.cacheDir.empty() ? "" : ", cache ",
              wo.cacheDir.c_str());
    serve::WorkerStats stats = worker.run();
    gServeWorker = nullptr;

    obs::logf(obs::LogLevel::Info,
              "[bsyn] served %llu jobs (%llu ok, %llu failed, "
              "%llu claims lost, %llu reclaimed)",
              static_cast<unsigned long long>(stats.processed),
              static_cast<unsigned long long>(stats.succeeded),
              static_cast<unsigned long long>(stats.failed),
              static_cast<unsigned long long>(stats.lostClaims),
              static_cast<unsigned long long>(stats.reclaimed));
    // Failed *jobs* are the submitters' problem, not the worker's: a
    // worker that survived them exits 0.
    return 0;
}

int
cmdSubmit(const Args &args)
{
    serve::Spool spool(args.worker.spoolDir);
    serve::Job job = args.job;
    job.kind = args.operands[0];
    job.workload = args.operands[1];
    job.seed = args.session.synthesis.seed;
    job.targetInstr = args.session.synthesis.targetInstructions;
    if (job.id.empty()) {
        // Derive a readable default id from kind + workload, squashing
        // everything filename-unsafe ("/", "=", ",") to '-'.
        std::string base = job.kind + "-" + job.workload;
        for (char &c : base)
            if (!std::isalnum(static_cast<unsigned char>(c)) &&
                c != '.' && c != '_' && c != '-')
                c = '-';
        job.id = spool.freeId(base);
    }
    spool.submit(job);
    // The id goes to stdout so scripts can capture it; with --wait the
    // status JSON owns stdout instead.
    std::fprintf(args.wait ? stderr : stdout, "%s\n", job.id.c_str());
    if (!args.wait)
        return 0;

    // Fail fast when the result can no longer arrive instead of
    // burning the whole timeout: exit 3 distinguishes "no worker will
    // ever take this" from a job that genuinely failed (1).
    Json status;
    const double timeoutS = args.replay.spoolTimeoutS;
    switch (serve::waitForResult(spool, job.id, status, timeoutS)) {
    case serve::WaitOutcome::Done:
        break;
    case serve::WaitOutcome::Stopped:
        obs::logf(obs::LogLevel::Error,
                  "bsyn: job '%s' will never run: the spool's stop "
                  "flag is set and the job is still unclaimed",
                  job.id.c_str());
        return 3;
    case serve::WaitOutcome::Vanished:
        obs::logf(obs::LogLevel::Error,
                  "bsyn: job '%s' vanished from the spool without "
                  "a result",
                  job.id.c_str());
        return 3;
    case serve::WaitOutcome::Timeout:
        fatal("submit: timed out after %.0fs waiting for job '%s'",
              timeoutS, job.id.c_str());
    }
    std::string text = status.dump(2) + "\n";
    std::fputs(text.c_str(), stdout);
    return status.get("ok").asBool() ? 0 : 1;
}

int
cmdReplay(const Args &args)
{
    replay::ReplayOptions ro = args.replay;
    ro.seed = args.session.synthesis.seed;
    ro.targetInstr = args.session.synthesis.targetInstructions;
    ro.threads = args.session.threads;
    ro.cacheDir = args.session.cacheDir;
    ro.spoolDir = args.worker.spoolDir;
    replay::ReplayReport report = replay::runReplay(ro);

    Json j = args.resultsOnly ? report.resultsJson() : report.toJson();
    std::string text = j.dump(2) + "\n";
    if (args.output.empty())
        std::fputs(text.c_str(), stdout);
    else
        writeFile(args.output, text);

    TextTable table("traffic replay latency");
    table.setHeader(
        {"stage", "count", "p50 ms", "p99 ms", "p99.9 ms", "max ms"});
    for (const auto &s : report.stages) {
        if (s.count == 0)
            continue;
        table.addRow({s.stage, std::to_string(s.count),
                      strprintf("%.2f", s.p50Ms),
                      strprintf("%.2f", s.p99Ms),
                      strprintf("%.2f", s.p999Ms),
                      strprintf("%.2f", s.maxMs)});
    }
    table.print(std::cout);

    obs::logf(obs::LogLevel::Info,
              "[bsyn] %zu arrivals (%llu ok, %llu failed) over %zu "
              "instances in %.2fs: offered %.1f/s, achieved %.1f/s"
              "%s%s",
              report.arrivals.size(),
              static_cast<unsigned long long>(report.okCount),
              static_cast<unsigned long long>(report.failCount),
              report.instanceNames.size(), report.elapsedS,
              report.offeredRate, report.achievedRate,
              args.output.empty() ? "" : ", report written to ",
              args.output.c_str());
    return report.failCount ? 1 : 0;
}

/** A command: its operands, the flag it cannot run without, and the
 *  function that carries it out once its arguments are checked. */
struct Command
{
    const char *name;
    unsigned bit;
    const char *operands; ///< as usage prints them
    size_t minOperands;
    size_t maxOperands;
    const char *required; ///< flag name, or nullptr
    int (*run)(const Args &);
    const char *summary;
};

constexpr size_t kAny = SIZE_MAX;

const Command kCommands[] = {
    {"run", Run, "<prog.c>", 1, 1, nullptr, cmdRun,
     "compile and execute a MiniC program; print its output and counts"},
    {"profile", Profile, "<prog.c>", 1, 1, "-o", cmdProfile,
     "profile the unoptimized program and write its statistical profile"},
    {"synth", Synth, "<profile.json>", 1, 1, "-o", cmdSynth,
     "synthesize the clone of a profile as MiniC source"},
    {"compare", Compare, "<a.c> <b.c>", 2, 2, nullptr, cmdCompare,
     "run both plagiarism detectors on a source pair"},
    {"time", Time, "<prog.c>", 1, 1, nullptr, cmdTime,
     "run the program on all five Table III machine models"},
    {"suite", Suite, "", 0, 0, nullptr, cmdSuite,
     "profile and synthesize the MiBench-analogue suite (or the --family "
     "instances) in one batch on a thread pool; -o names the clone "
     "directory"},
    {"list", List, "", 0, 0, nullptr, cmdList,
     "print every suite instance and generator family, with knobs and "
     "presets"},
    {"gen", Gen, "<family>[,knob=v...][,seed=S]", 1, 1, nullptr, cmdGen,
     "write one workload-family instance as MiniC source (stdout "
     "without -o)"},
    {"fidelity", Fidelity, "", 0, 0, nullptr, cmdFidelity,
     "score clone-vs-original agreement per metric over the Figure-4 "
     "suite plus the --family instances; JSON to -o or stdout"},
    {"merge", Merge, "<in>...", 1, kAny, "-o", cmdMerge,
     "reunify per-shard suite directories (with --fidelity, sharded "
     "fidelity reports) into the unsharded artifact, byte-identical"},
    {"serve", Serve, "", 0, 0, "--spool", cmdServe,
     "claim jobs from a spool and run them against one warm session; "
     "drains on SIGINT/SIGTERM or the spool's stop flag"},
    {"submit", Submit, "<profile|synth|fidelity> <workload>", 2, 2,
     "--spool", cmdSubmit,
     "drop a job into a spool; --wait prints its result and exits 3 "
     "when the result can no longer arrive"},
    {"replay", Replay, "", 0, 0, "--mix", cmdReplay,
     "open-loop replay of a seeded arrival stream against one warm "
     "session (with --spool, through in-process serve workers); reports "
     "per-stage latency percentiles"},
};

/** @p line followed by @p words, broken into lines of at most 78
 *  columns whose continuations are indented by @p indent. */
std::string
wrap(std::string line, const std::vector<std::string> &words,
     size_t indent)
{
    std::string out;
    for (const auto &w : words) {
        if (line.size() > indent && line.size() + 1 + w.size() > 78) {
            out += line + '\n';
            line.assign(indent, ' ');
        } else if (line.find_first_not_of(' ') != std::string::npos) {
            line += ' ';
        }
        line += w;
    }
    return out + line + '\n';
}

std::string
flagSynopsis(const Flag &f)
{
    return f.value ? strprintf("%s %s", f.name, f.value) : f.name;
}

/** The synopsis of @p c with every flag it owns (bar those every
 *  command owns), then what it does. */
std::string
commandUsage(const Command &c)
{
    auto isRequired = [&](const Flag &f) {
        return c.required && std::strcmp(f.name, c.required) == 0;
    };
    std::vector<std::string> words;
    if (*c.operands)
        words.push_back(c.operands);
    for (const Flag &f : kFlags)
        if (isRequired(f))
            words.push_back(flagSynopsis(f));
    for (const Flag &f : kFlags)
        if ((f.owners & c.bit) && f.owners != Every && !isRequired(f))
            words.push_back("[" + flagSynopsis(f) + "]");
    return wrap(strprintf("  bsyn %s", c.name), words,
                std::strlen(c.name) + 8) +
           wrap(std::string(6, ' '), split(c.summary, ' '), 6);
}

/** The flags every command owns, as one line. */
std::string
commonUsage()
{
    std::vector<std::string> words;
    for (const Flag &f : kFlags)
        if (f.owners == Every)
            words.push_back("[" + flagSynopsis(f) + "]");
    return wrap("every command also takes", words, 2);
}

void
usage()
{
    std::string text = "bsyn — benchmark synthesis for architecture and "
                       "compiler exploration\n\n";
    for (const Command &c : kCommands)
        text += commandUsage(c);
    std::vector<std::string> env;
    for (const Flag &f : kFlags)
        if (f.env)
            env.push_back(strprintf("%s for %s,", f.env, f.name));
    env.back().pop_back();
    text += "\n" + commonUsage() + wrap("defaults:", env, 2) +
        "-j N is short for --threads N, and --family=SPEC for --family "
        "SPEC.\n"
        "\n"
        "a --family SPEC is 'all', 'all-presets' (one instance of every\n"
        "published preset) or 'name[,knob=value...][,seed=S]' "
        "(repeatable);\nbsyn list prints the registered families and "
        "their knobs.\n"
        "--shard I/N (1-based) runs the part of the batch that a stable "
        "hash of\neach workload name assigns to shard I; bsyn merge "
        "reassembles the shards\nbyte-identically. --results-only "
        "writes the deterministic (mergeable)\nhalf of a report only.\n"
        "profile and fidelity slice the run every --phase-slices "
        "retired\ninstructions (0 disables) and detect program phases; "
        "--phases prints\nthe per-phase detail and --no-phase-synth "
        "clones from the aggregate\nprofile only.\n"
        "replay schedules are 'constant,rate=R', "
        "'bursty,rate=R[,on_ms=A,off_ms=B]'\nor "
        "'ramp,rate=R0,end_rate=R1' (all accept jitter=1 for Poisson "
        "arrivals);\na mix is 'spec[:weight][;spec...]' with optional "
        "'@end|' mode switches,\nwhere spec is a family "
        "('fp_kernel,seed=2') or instance ('crc32/small').\n"
        "an idle worker backs off exponentially from --poll-ms to "
        "--poll-max-ms;\n--reclaim-after moves claims older than SECS "
        "back to new/ (crash\nrecovery).\n";
    std::fputs(text.c_str(), stderr);
}

/** Parse the arguments after the command name; fatal() on any
 *  argument error. */
Args
parseArgs(const Command &cmd, int argc, char **argv)
{
    Args args;
    std::vector<const Flag *> given;
    auto wasGiven = [&](const char *name) {
        return std::any_of(given.begin(), given.end(), [&](const Flag *f) {
            return std::strcmp(f->name, name) == 0;
        });
    };
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.empty() || arg[0] != '-') {
            args.operands.push_back(arg);
            continue;
        }
        // Beyond "FLAG [VALUE]": --family=SPEC carries its value
        // inline, -O0..-O3 spell the level into the flag, and -j is
        // short for --threads.
        std::string spelled = arg;
        std::optional<std::string> inlined;
        if (startsWith(arg, "--family=")) {
            spelled = "--family";
            inlined = arg.substr(spelled.size() + 1);
        }
        std::string name = spelled;
        if (spelled.size() == 3 && startsWith(spelled, "-O"))
            name = "-O0..-O3";
        else if (spelled == "-j")
            name = "--threads";
        const Flag *flag = std::find_if(
            std::begin(kFlags), std::end(kFlags),
            [&](const Flag &f) { return name == f.name; });
        if (flag == std::end(kFlags))
            fatal("unknown option '%s'", spelled.c_str());
        if (!(flag->owners & cmd.bit))
            fatal("'bsyn %s' does not take %s", cmd.name, spelled.c_str());
        Value value{spelled, inlined.value_or("")};
        if (flag->value && !inlined) {
            if (i + 1 >= argc)
                fatal("missing value after %s", spelled.c_str());
            value.text = argv[++i];
        }
        flag->set(args, value);
        given.push_back(flag);
    }
    for (const Flag &f : kFlags) {
        const char *env = f.env ? std::getenv(f.env) : nullptr;
        if (env && (f.owners & cmd.bit) && !wasGiven(f.name))
            f.set(args, {f.env, env});
    }

    if (args.operands.size() < cmd.minOperands)
        fatal("'bsyn %s' is missing an operand", cmd.name);
    if (args.operands.size() > cmd.maxOperands)
        fatal("unexpected argument '%s'",
              args.operands[cmd.maxOperands].c_str());
    if (cmd.required && !wasGiven(cmd.required))
        fatal("'bsyn %s' needs %s", cmd.name, cmd.required);

    // A bad mix (unknown family, weights summing to zero, malformed
    // mode ends) is an argument error too.
    if (wasGiven("--mix"))
        replay::Mix::parse(args.replay.mixSpec, args.replay.population);
    if (args.noCache)
        args.session.cacheDir.clear();
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    const Command *cmd = nullptr;
    for (const Command &c : kCommands)
        if (argc >= 2 && std::strcmp(argv[1], c.name) == 0)
            cmd = &c;
    if (!cmd) {
        if (argc >= 2)
            std::fprintf(stderr, "bsyn: unknown command '%s'\n", argv[1]);
        usage();
        return 2;
    }

    // Argument errors print the command's usage and exit 2; failures
    // while carrying out a valid request exit 1.
    Args args;
    try {
        args = parseArgs(*cmd, argc, argv);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "bsyn: %s\nusage:\n%s%s", e.what(),
                     commandUsage(*cmd).c_str(), commonUsage().c_str());
        return 2;
    }

    // --quiet keeps errors; --log-level names any threshold exactly.
    if (args.quiet)
        obs::setLogLevel(obs::LogLevel::Error);
    else if (args.logLevel)
        obs::setLogLevel(*args.logLevel);
    if (!args.traceFile.empty())
        obs::Trace::begin(args.traceFile);

    int rc;
    try {
        rc = cmd->run(args);
    } catch (const std::exception &e) {
        // A FatalError is the request's fault. Anything else (a
        // PanicError on malformed input, say) is a bug, but it too
        // ends the run here so the trace below still flushes.
        obs::logf(obs::LogLevel::Error, "%s", e.what());
        rc = 1;
    }

    // The trace flushes on every exit path, error included — a failed
    // run's trace is the one worth looking at.
    try {
        std::string path = obs::Trace::end();
        if (!path.empty())
            obs::logf(obs::LogLevel::Info, "[bsyn] trace written to %s",
                      path.c_str());
    } catch (const FatalError &e) {
        obs::logf(obs::LogLevel::Error, "%s", e.what());
        if (rc == 0)
            rc = 1;
    }
    return rc;
}
