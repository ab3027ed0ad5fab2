/** @file Tests for the observability layer: the chained metrics
 *  registry (exact counts under concurrency, scoped views that also
 *  aggregate into a parent, snapshot serialization round-trip), the
 *  trace-event session (span structure, args, disabled-path no-op),
 *  the leveled logger (threshold filtering, whole lines under
 *  concurrent writers), and the hard invariant that tracing and
 *  metrics never change a results artifact byte: suite output
 *  (sharded and merged included), fidelity reports and replay reports
 *  are identical with tracing on and off at any thread count. */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "gen/fidelity.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "pipeline/run_sink.hh"
#include "pipeline/session.hh"
#include "replay/engine.hh"
#include "serve/merge.hh"
#include "serve/shard.hh"
#include "support/error.hh"
#include "support/json.hh"
#include "support/string_util.hh"
#include "workloads/suite.hh"

namespace fs = std::filesystem;

namespace bsyn
{
namespace
{

/** Fresh scratch directory under the gtest temp root, wiped on exit. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path_(std::string(::testing::TempDir()) + "bsyn_" + tag + "_" +
                std::to_string(::getpid()))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    const std::string &str() const { return path_; }
    std::string sub(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

/** Ensure a test can never leave the process-wide trace armed. */
class TraceGuard
{
  public:
    ~TraceGuard() { obs::Trace::end(); }
};

std::vector<workloads::Workload>
smallBatch()
{
    return {workloads::findWorkload("crc32/small"),
            workloads::findWorkload("bitcount/small"),
            workloads::findWorkload("stringsearch/small")};
}

/** One `bsyn suite -o`-equivalent run: DirectorySink + status file. */
void
runSuiteTo(const std::string &outDir, unsigned threads)
{
    auto batch = smallBatch();
    serve::ShardedBatch sharded = serve::filterShard(batch, {});
    pipeline::SessionOptions so;
    so.threads = threads;
    so.synthesis.targetInstructions = 30000;
    pipeline::Session session(std::move(so));
    pipeline::DirectorySink sink(outDir);
    auto statuses = session.processSuite(sharded.workloads, sink);
    serve::makeSuiteStatus(sharded, statuses)
        .saveTo(outDir + "/" + serve::kSuiteStatusFile);
}

/** Byte-compare two directories (same file set, same contents). */
void
expectIdenticalDirs(const std::string &a, const std::string &b)
{
    std::set<std::string> filesA, filesB;
    for (const auto &e : fs::directory_iterator(a))
        filesA.insert(e.path().filename().string());
    for (const auto &e : fs::directory_iterator(b))
        filesB.insert(e.path().filename().string());
    EXPECT_EQ(filesA, filesB);
    for (const auto &name : filesA) {
        SCOPED_TRACE(name);
        EXPECT_EQ(readFile(a + "/" + name), readFile(b + "/" + name));
    }
}

// ------------------------------------------------------------ registry

TEST(Metrics, CountersGaugesAndHistogramsByName)
{
    obs::Registry reg; // detached: no parent chain
    obs::Counter &c = reg.counter("test.things.done");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    // find-or-create: the same name is the same metric.
    EXPECT_EQ(&reg.counter("test.things.done"), &c);
    EXPECT_NE(&reg.counter("test.other"), &c);

    obs::Gauge &g = reg.gauge("test.depth");
    g.set(7);
    EXPECT_EQ(g.value(), 7);
    g.add(-3);
    EXPECT_EQ(g.value(), 4);

    obs::LatencyHistogram &h = reg.histogram("test.latency");
    h.record(1000);
    h.record(3000);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.max(), 3000u);
    EXPECT_DOUBLE_EQ(h.mean(), 2000.0);
}

TEST(Metrics, ChainedRegistriesAggregateIntoTheParent)
{
    obs::Registry parent;
    obs::Registry childA(&parent);
    obs::Registry childB(&parent);

    childA.counter("jobs").add(3);
    childB.counter("jobs").add(4);
    // Each scope stays exact; the parent sees the union.
    EXPECT_EQ(childA.counter("jobs").value(), 3u);
    EXPECT_EQ(childB.counter("jobs").value(), 4u);
    EXPECT_EQ(parent.counter("jobs").value(), 7u);

    childA.histogram("lat").record(500);
    childB.histogram("lat").record(900);
    EXPECT_EQ(childA.histogram("lat").count(), 1u);
    EXPECT_EQ(parent.histogram("lat").count(), 2u);
    EXPECT_EQ(parent.histogram("lat").max(), 900u);

    // Two-level chain: grandchild updates land in every ancestor.
    obs::Registry grandchild(&childA);
    grandchild.counter("jobs").add(10);
    EXPECT_EQ(grandchild.counter("jobs").value(), 10u);
    EXPECT_EQ(childA.counter("jobs").value(), 13u);
    EXPECT_EQ(parent.counter("jobs").value(), 17u);
}

TEST(Metrics, SnapshotRoundTripsThroughJson)
{
    obs::Registry reg;
    reg.counter("b.second").add(2);
    reg.counter("a.first").add(1);
    reg.gauge("depth").set(-5);
    reg.histogram("lat").record(1 << 20);

    Json snap = reg.snapshot();
    EXPECT_EQ(snap.get("schema").asString(), "bsyn.metrics.v1");
    // std::map ordering: keys are sorted regardless of creation order.
    auto names = snap.get("counters").keys();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a.first");
    EXPECT_EQ(names[1], "b.second");
    EXPECT_EQ(snap.get("counters").get("b.second").asNumber(), 2.0);
    EXPECT_EQ(snap.get("gauges").get("depth").asNumber(), -5.0);
    EXPECT_EQ(snap.get("histograms").get("lat").get("count").asNumber(),
              1.0);

    // Serialize, parse, re-serialize: byte-identical.
    std::string text = snap.dump(-1);
    EXPECT_EQ(Json::parse(text).dump(-1), text);
    // Equal state dumps to equal bytes.
    EXPECT_EQ(reg.snapshot().dump(-1), text);
}

TEST(Metrics, ResetZeroesTheScope)
{
    obs::Registry reg;
    reg.counter("c").add(5);
    reg.gauge("g").set(9);
    reg.histogram("h").record(100);
    reg.reset();
    EXPECT_EQ(reg.counter("c").value(), 0u);
    EXPECT_EQ(reg.gauge("g").value(), 0);
    EXPECT_EQ(reg.histogram("h").count(), 0u);
}

TEST(Metrics, ConcurrentHammerKeepsExactCounts)
{
    constexpr unsigned kThreads = 8;
    constexpr uint64_t kPerThread = 20000;

    obs::Registry parent;
    obs::Registry reg(&parent);
    obs::Counter &c = reg.counter("hammer.count");
    obs::LatencyHistogram &h = reg.histogram("hammer.lat");

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (uint64_t i = 0; i < kPerThread; ++i) {
                c.add();
                h.record(t * 1000 + i);
            }
        });
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(c.value(), kThreads * kPerThread);
    EXPECT_EQ(h.count(), kThreads * kPerThread);
    EXPECT_EQ(parent.counter("hammer.count").value(),
              kThreads * kPerThread);
    EXPECT_EQ(parent.histogram("hammer.lat").count(),
              kThreads * kPerThread);
}

// --------------------------------------------------------------- trace

TEST(Trace, DisabledPathIsANoOp)
{
    ASSERT_FALSE(obs::Trace::enabled());
    {
        obs::Span span("profile", "workload", "w");
        span.arg("cache", "hit");
        EXPECT_FALSE(span.active());
    }
    obs::Trace::instant("nothing");
    obs::Trace::complete("nothing", 0, 1);
    EXPECT_EQ(obs::Trace::pendingEvents(), 0u);
    EXPECT_EQ(obs::Trace::end(), "");
}

TEST(Trace, SpansSerializeAsChromeTraceEvents)
{
    ScratchDir dir("trace");
    TraceGuard guard;
    std::string path = dir.sub("trace.json");
    obs::Trace::begin(path);
    ASSERT_TRUE(obs::Trace::enabled());

    {
        obs::Span outer("workload", "workload", "crc32/small");
        obs::Span inner("profile");
        obs::Trace::instant("claim", {{"id", "j1"}});
    }
    obs::Trace::complete("queue-wait", 10'000, 5'000,
                         {{"arrival", "0"}});
    EXPECT_EQ(obs::Trace::pendingEvents(), 4u);

    EXPECT_EQ(obs::Trace::end(), path);
    EXPECT_FALSE(obs::Trace::enabled());

    Json root = Json::parse(readFile(path));
    EXPECT_EQ(root.get("displayTimeUnit").asString(), "ms");
    const Json &events = root.get("traceEvents");
    ASSERT_EQ(events.size(), 4u);

    std::set<std::string> names;
    for (size_t i = 0; i < events.size(); ++i) {
        const Json &ev = events.at(i);
        names.insert(ev.get("name").asString());
        EXPECT_EQ(ev.get("cat").asString(), "stage");
        EXPECT_EQ(ev.get("pid").asNumber(), 1.0);
        EXPECT_TRUE(ev.has("tid"));
        EXPECT_TRUE(ev.has("ts"));
        std::string ph = ev.get("ph").asString();
        EXPECT_TRUE(ph == "X" || ph == "i");
        if (ph == "X") {
            EXPECT_TRUE(ev.has("dur"));
        }
        if (ev.get("name").asString() == "workload") {
            EXPECT_EQ(ev.get("args").get("workload").asString(),
                      "crc32/small");
        }
        if (ev.get("name").asString() == "queue-wait") {
            EXPECT_EQ(ev.get("ts").asNumber(), 10.0); // µs
            EXPECT_EQ(ev.get("dur").asNumber(), 5.0);
        }
    }
    EXPECT_EQ(names, (std::set<std::string>{"workload", "profile",
                                            "claim", "queue-wait"}));
}

TEST(Trace, ConcurrentSpansAllLand)
{
    constexpr unsigned kThreads = 8;
    constexpr unsigned kPerThread = 500;

    ScratchDir dir("trace_mt");
    TraceGuard guard;
    std::string path = dir.sub("trace.json");
    obs::Trace::begin(path);

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            for (unsigned i = 0; i < kPerThread; ++i)
                obs::Span span("hammer");
        });
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(obs::Trace::pendingEvents(), kThreads * kPerThread);
    EXPECT_EQ(obs::Trace::end(), path);
    Json root = Json::parse(readFile(path));
    EXPECT_EQ(root.get("traceEvents").size(), kThreads * kPerThread);
}

// ---------------------------------------------------------------- log

TEST(Log, ParseLevelNamesAndAliases)
{
    EXPECT_EQ(obs::parseLogLevel("debug"), obs::LogLevel::Debug);
    EXPECT_EQ(obs::parseLogLevel("info"), obs::LogLevel::Info);
    EXPECT_EQ(obs::parseLogLevel("warn"), obs::LogLevel::Warn);
    EXPECT_EQ(obs::parseLogLevel("warning"), obs::LogLevel::Warn);
    EXPECT_EQ(obs::parseLogLevel("error"), obs::LogLevel::Error);
    EXPECT_EQ(obs::parseLogLevel("silent"), obs::LogLevel::Silent);
    EXPECT_EQ(obs::parseLogLevel("quiet"), obs::LogLevel::Silent);
    EXPECT_THROW(obs::parseLogLevel("loud"), FatalError);
    EXPECT_THROW(obs::parseLogLevel(""), FatalError);
}

TEST(Log, ThresholdFiltersRecords)
{
    ScratchDir dir("log");
    std::string path = dir.sub("log.txt");
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    obs::setLogSink(f);
    obs::setLogLevel(obs::LogLevel::Warn);

    EXPECT_FALSE(obs::logEnabled(obs::LogLevel::Info));
    EXPECT_TRUE(obs::logEnabled(obs::LogLevel::Warn));
    obs::logf(obs::LogLevel::Info, "dropped %d", 1);
    obs::logf(obs::LogLevel::Warn, "kept %d", 2);
    obs::logf(obs::LogLevel::Error, "kept %d", 3);

    obs::setLogLevel(obs::LogLevel::Silent);
    obs::logf(obs::LogLevel::Error, "silent drops everything");

    obs::setLogSink(nullptr);
    obs::setLogLevel(obs::LogLevel::Info);
    std::fclose(f);

    EXPECT_EQ(readFile(path), "kept 2\nkept 3\n");
}

TEST(Log, ConcurrentRecordsNeverInterleave)
{
    constexpr unsigned kThreads = 8;
    constexpr unsigned kPerThread = 400;

    ScratchDir dir("log_mt");
    std::string path = dir.sub("log.txt");
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    obs::setLogSink(f);

    // Long enough lines that torn writes would show under stdio.
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (unsigned i = 0; i < kPerThread; ++i)
                obs::logf(obs::LogLevel::Info,
                          "thread=%u line=%u "
                          "padding-padding-padding-padding-padding-"
                          "padding-padding-padding end=%u",
                          t, i, t);
        });
    for (auto &th : threads)
        th.join();
    obs::setLogSink(nullptr);
    std::fclose(f);

    // Every line must be exactly one record: starts with thread=,
    // ends with the matching end= marker, and all lines arrive.
    std::istringstream in(readFile(path));
    std::string line;
    size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        SCOPED_TRACE(line);
        ASSERT_EQ(line.rfind("thread=", 0), 0u);
        unsigned t = 0, i = 0, e = kThreads;
        ASSERT_EQ(std::sscanf(line.c_str(),
                              "thread=%u line=%u "
                              "padding-padding-padding-padding-padding-"
                              "padding-padding-padding end=%u",
                              &t, &i, &e),
                  3);
        EXPECT_EQ(t, e);
        EXPECT_LT(t, kThreads);
        EXPECT_LT(i, kPerThread);
    }
    EXPECT_EQ(lines, size_t(kThreads) * kPerThread);
}

// -------------------------------------------- results-half invariants

TEST(ObsInvariants, SuiteArtifactsAreIdenticalWithTracingOnAndOff)
{
    ScratchDir dir("obs_suite");
    TraceGuard guard;

    // Baseline: tracing off, 8 threads.
    runSuiteTo(dir.sub("off"), 8);

    // Tracing on, single thread: same bytes.
    obs::Trace::begin(dir.sub("trace.json"));
    runSuiteTo(dir.sub("on"), 1);
    EXPECT_GT(obs::Trace::pendingEvents(), 0u);
    obs::Trace::end();

    expectIdenticalDirs(dir.sub("off"), dir.sub("on"));
}

TEST(ObsInvariants, MergedShardsAreIdenticalWithTracingOn)
{
    ScratchDir dir("obs_merge");
    TraceGuard guard;

    runSuiteTo(dir.sub("unsharded"), 4);

    obs::Trace::begin(dir.sub("trace.json"));
    auto batch = smallBatch();
    for (unsigned i = 1; i <= 2; ++i) {
        serve::ShardedBatch sharded =
            serve::filterShard(batch, {i, 2});
        pipeline::SessionOptions so;
        so.threads = 2;
        so.synthesis.targetInstructions = 30000;
        pipeline::Session session(std::move(so));
        std::string out = dir.sub("shard" + std::to_string(i));
        pipeline::DirectorySink sink(out);
        auto statuses = session.processSuite(sharded.workloads, sink);
        serve::makeSuiteStatus(sharded, statuses)
            .saveTo(out + "/" + serve::kSuiteStatusFile);
    }
    serve::mergeSuiteDirs(dir.sub("merged"),
                          {dir.sub("shard1"), dir.sub("shard2")});
    obs::Trace::end();

    expectIdenticalDirs(dir.sub("unsharded"), dir.sub("merged"));
}

TEST(ObsInvariants, FidelityResultsAreIdenticalWithTracingOnAndOff)
{
    ScratchDir dir("obs_fid");
    TraceGuard guard;
    auto batch = smallBatch();

    auto score = [&](unsigned threads) {
        pipeline::SessionOptions so;
        so.threads = threads;
        pipeline::Session session(std::move(so));
        gen::FidelityOptions fo;
        fo.synthesis.targetInstructions = 30000;
        return gen::scoreFidelity(session, batch, fo)
            .resultsJson()
            .dump(-1);
    };

    std::string off = score(8);
    obs::Trace::begin(dir.sub("trace.json"));
    std::string on = score(1);
    obs::Trace::end();
    EXPECT_EQ(off, on);

    // Each timed run (original and clone per instance) holds exactly
    // one "compile" span, its front end and -O passes, so a trace can
    // split the compile from the timed execution.
    struct Event
    {
        std::string name, workload;
        double ts, dur, tid;
    };
    std::vector<Event> events;
    Json trace = Json::parse(readFile(dir.sub("trace.json")));
    const Json &list = trace.get("traceEvents");
    for (size_t i = 0; i < list.size(); ++i) {
        const Json &ev = list.at(i);
        if (ev.get("ph").asString() != "X")
            continue;
        const Json &args = ev.get("args");
        events.push_back({ev.get("name").asString(),
                          args.has("workload")
                              ? args.get("workload").asString()
                              : "",
                          ev.get("ts").asNumber(), ev.get("dur").asNumber(),
                          ev.get("tid").asNumber()});
    }
    size_t timed = 0;
    for (const Event &t : events) {
        if (t.name != "timing")
            continue;
        ++timed;
        size_t compiles = 0;
        for (const Event &c : events)
            if (c.name == "compile" && c.tid == t.tid && c.ts >= t.ts &&
                c.ts < t.ts + t.dur) {
                EXPECT_EQ(c.workload, t.workload);
                ++compiles;
            }
        EXPECT_EQ(compiles, 1u) << t.workload;
    }
    EXPECT_EQ(timed, 2 * batch.size());
}

TEST(ObsInvariants, ReplayResultsAreIdenticalWithTracingOnAndOff)
{
    ScratchDir dir("obs_replay");
    TraceGuard guard;

    auto run = [&] {
        replay::ReplayOptions ro;
        ro.scheduleSpec = "constant,rate=40";
        ro.mixSpec = "crc32/small";
        ro.durationS = 0.2;
        ro.threads = 2;
        ro.targetInstr = 20000;
        return replay::runReplay(ro).resultsJson().dump(-1);
    };

    std::string off = run();
    obs::Trace::begin(dir.sub("trace.json"));
    std::string on = run();
    obs::Trace::end();
    EXPECT_EQ(off, on);
}

/** The replay engine's run-local registry keeps per-run stage counts
 *  exact even though the process-wide registry accumulates across
 *  runs in one binary. */
TEST(ObsInvariants, ReplayStageCountsAreScopedPerRun)
{
    replay::ReplayOptions ro;
    ro.scheduleSpec = "constant,rate=40";
    ro.mixSpec = "crc32/small";
    ro.durationS = 0.2;
    ro.threads = 2;
    ro.targetInstr = 20000;

    replay::ReplayReport first = replay::runReplay(ro);
    replay::ReplayReport second = replay::runReplay(ro);
    ASSERT_EQ(first.arrivals.size(), second.arrivals.size());
    for (const auto &s : second.stages) {
        if (s.stage == "total") {
            EXPECT_EQ(s.count, second.arrivals.size());
        }
    }
}

} // namespace
} // namespace bsyn
