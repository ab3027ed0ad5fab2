/** @file Tests for the `bsyn serve` control plane: the job-spool
 *  protocol (atomic submit/claim/finish, exactly-one-winner claim
 *  races), the worker loop (round-trip correctness against a direct
 *  Session run, failing-workload isolation, graceful drain on a stop
 *  request), and warm-cache job execution (a re-submitted job
 *  recomputes nothing and reproduces identical bytes). */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <sys/wait.h>
#include <unistd.h>

#include "pipeline/pipeline.hh"
#include "pipeline/session.hh"
#include "serve/spool.hh"
#include "serve/worker.hh"
#include "support/error.hh"
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

serve::Job
synthJob(const std::string &id, const std::string &workload)
{
    serve::Job job;
    job.id = id;
    job.kind = "synth";
    job.workload = workload;
    job.targetInstr = 30000;
    return job;
}

size_t
entriesIn(const std::string &dir)
{
    size_t n = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        (void)e;
        ++n;
    }
    return n;
}

TEST(Spool, ValidatesJobsAndIds)
{
    EXPECT_TRUE(serve::validJobId("synth-crc32-small_1.2"));
    EXPECT_FALSE(serve::validJobId(""));
    EXPECT_FALSE(serve::validJobId("a/b"));
    EXPECT_FALSE(serve::validJobId("a b"));
    EXPECT_FALSE(serve::validJobId(std::string(201, 'x')));

    ScratchDir dir("spool_validate");
    serve::Spool spool(dir.sub("spool"));
    EXPECT_THROW(spool.submit(synthJob("bad id", "crc32/small")),
                 FatalError);
    serve::Job wrongKind = synthJob("ok", "crc32/small");
    wrongKind.kind = "frobnicate";
    EXPECT_THROW(spool.submit(wrongKind), FatalError);

    spool.submit(synthJob("ok", "crc32/small"));
    // Duplicate ids are rejected while the first is still anywhere in
    // the spool.
    EXPECT_THROW(spool.submit(synthJob("ok", "crc32/small")),
                 FatalError);
    EXPECT_EQ(spool.freeId("ok"), "ok-2");
    EXPECT_EQ(spool.pending(), std::vector<std::string>{"ok"});
}

TEST(Spool, JobJsonRoundTrips)
{
    serve::Job job = synthJob("rt", "pointer_chase/nodes=64,seed=3");
    job.seed = 1234;
    job.timing = true;
    serve::Job back = serve::Job::fromJson(job.toJson());
    EXPECT_EQ(back.id, job.id);
    EXPECT_EQ(back.kind, job.kind);
    EXPECT_EQ(back.workload, job.workload);
    EXPECT_EQ(back.seed, job.seed);
    EXPECT_EQ(back.targetInstr, job.targetInstr);
    EXPECT_EQ(back.timing, job.timing);
}

/** The FatalError @p fn raises ("" when it returns). */
template <typename Fn>
std::string
fatalError(Fn fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(Spool, JobSeedsAndBudgetsSurviveTheJobFile)
{
    // A job file holds numbers as doubles: seed 2^53 + 1 used to be
    // written as 2^53, and a hand-written seed of -1 or a budget of
    // 1e300 was served.
    ScratchDir dir("spool_counts");
    serve::Spool spool(dir.sub("spool"));
    serve::Job job = synthJob("big", "crc32/small");
    job.seed = (uint64_t(1) << 53) + 1;
    EXPECT_EQ(fatalError([&] { spool.submit(job); }),
              "fatal: job 'big': seed 9007199254740993 is not below 2^53");
    job.seed = 1;
    job.targetInstr = ~uint64_t(0);
    EXPECT_EQ(fatalError([&] { spool.submit(job); }),
              "fatal: job 'big': targetInstr 18446744073709551615 is not "
              "below 2^53");
    EXPECT_TRUE(spool.pending().empty());

    job.seed = job.targetInstr = (uint64_t(1) << 53) - 1;
    serve::Job back = serve::Job::fromJson(job.toJson());
    EXPECT_EQ(back.seed, job.seed);
    EXPECT_EQ(back.targetInstr, job.targetInstr);

    const std::pair<const char *, double> bad[] = {
        {"seed", -1}, {"seed", 1.5}, {"targetInstr", 1e300}};
    for (const auto &[key, value] : bad) {
        Json j = synthJob("hand", "crc32/small").toJson();
        j.set(key, Json(value));
        EXPECT_EQ(fatalError([&] { serve::Job::fromJson(j); }),
                  strprintf("fatal: %s: %g is not a count", key, value));
    }
}

TEST(Worker, JobRoundTripMatchesDirectSessionRun)
{
    ScratchDir dir("serve_roundtrip");
    serve::Spool spool(dir.sub("spool"));
    spool.submit(synthJob("crc", "crc32/small"));
    serve::Job prof = synthJob("prof", "bitcount/small");
    prof.kind = "profile";
    spool.submit(prof);

    serve::WorkerOptions wo;
    wo.spoolDir = dir.sub("spool");
    wo.drain = true;
    wo.threads = 1;
    serve::Worker worker(wo);
    auto stats = worker.run();
    EXPECT_EQ(stats.processed, 2u);
    EXPECT_EQ(stats.succeeded, 2u);
    EXPECT_EQ(stats.failed, 0u);

    // The synth job's clone must be the exact bytes a direct session
    // run produces with the suite's per-workload seed derivation.
    auto w = workloads::findWorkload("crc32/small");
    pipeline::Session session;
    synth::SynthesisOptions opts = pipeline::defaultSynthesisOptions();
    opts.targetInstructions = 30000;
    opts.seed = pipeline::deriveWorkloadSeed(opts.seed, w.name());
    auto run = session.process(w, opts);
    EXPECT_EQ(readFile(spool.outPath("crc", ".c")), run.synthetic.cSource);
    EXPECT_EQ(readFile(spool.outPath("crc", ".profile.json")),
              run.profile.serialize());

    // Terminal statuses landed and the claim queue is empty.
    Json status;
    ASSERT_TRUE(spool.result("crc", status));
    EXPECT_TRUE(status.get("ok").asBool());
    EXPECT_EQ(status.get("schema").asString(), "bsyn.result.v1");
    ASSERT_TRUE(spool.result("prof", status));
    EXPECT_TRUE(status.get("ok").asBool());
    EXPECT_EQ(entriesIn(dir.sub("spool") + "/claimed"), 0u);
    EXPECT_EQ(entriesIn(dir.sub("spool") + "/new"), 0u);
}

TEST(Worker, DuplicateClaimRaceHasOneWinnerPerJob)
{
    ScratchDir dir("serve_race");
    serve::Spool spool(dir.sub("spool"));
    const size_t kJobs = 6;
    for (size_t i = 0; i < kJobs; ++i)
        spool.submit(synthJob("job" + std::to_string(i),
                              i % 2 ? "crc32/small" : "bitcount/small"));

    // Two workers drain one spool concurrently: every job must be
    // finished exactly once, however the claim races fall.
    serve::WorkerOptions wo;
    wo.spoolDir = dir.sub("spool");
    wo.cacheDir = dir.sub("cache");
    wo.drain = true;
    wo.threads = 1;
    serve::Worker a(wo), b(wo);
    serve::WorkerStats sa, sb;
    std::thread ta([&] { sa = a.run(); });
    std::thread tb([&] { sb = b.run(); });
    ta.join();
    tb.join();

    EXPECT_EQ(sa.processed + sb.processed, kJobs);
    EXPECT_EQ(sa.succeeded + sb.succeeded, kJobs);
    EXPECT_EQ(sa.failed + sb.failed, 0u);
    EXPECT_EQ(spool.finished().size(), kJobs);
    EXPECT_EQ(entriesIn(dir.sub("spool") + "/new"), 0u);
    EXPECT_EQ(entriesIn(dir.sub("spool") + "/claimed"), 0u);
    for (size_t i = 0; i < kJobs; ++i) {
        Json status;
        ASSERT_TRUE(spool.result("job" + std::to_string(i), status));
        EXPECT_TRUE(status.get("ok").asBool());
    }
}

TEST(Worker, FailingWorkloadIsIsolated)
{
    ScratchDir dir("serve_failing");
    serve::Spool spool(dir.sub("spool"));
    spool.submit(synthJob("good1", "crc32/small"));
    spool.submit(synthJob("bad", "broken/nope"));
    spool.submit(synthJob("good2", "bitcount/small"));

    serve::WorkerOptions wo;
    wo.spoolDir = dir.sub("spool");
    wo.drain = true;
    wo.threads = 1;
    serve::Worker worker(wo);
    auto stats = worker.run();

    // The worker survived the bad job and still served the good ones.
    EXPECT_EQ(stats.processed, 3u);
    EXPECT_EQ(stats.succeeded, 2u);
    EXPECT_EQ(stats.failed, 1u);

    Json status;
    ASSERT_TRUE(spool.result("bad", status));
    EXPECT_FALSE(status.get("ok").asBool());
    EXPECT_NE(status.get("error").asString().find("broken/nope"),
              std::string::npos);
    ASSERT_TRUE(spool.result("good1", status));
    EXPECT_TRUE(status.get("ok").asBool());
    ASSERT_TRUE(spool.result("good2", status));
    EXPECT_TRUE(status.get("ok").asBool());
}

TEST(Worker, StopRequestDrainsGracefully)
{
    ScratchDir dir("serve_stop");
    serve::Spool spool(dir.sub("spool"));
    spool.submit(synthJob("one", "crc32/small"));

    // Non-drain worker: would poll forever without a stop request.
    serve::WorkerOptions wo;
    wo.spoolDir = dir.sub("spool");
    wo.pollMs = 5;
    wo.threads = 1;
    serve::Worker worker(wo);
    std::thread t([&] { worker.run(); });

    // Wait for the first job to finish, then stop via the flag file —
    // the cross-machine path a signal can't reach.
    while (spool.finished().size() < 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    spool.requestStop();
    t.join();

    EXPECT_EQ(entriesIn(dir.sub("spool") + "/claimed"), 0u);
    Json status;
    ASSERT_TRUE(spool.result("one", status));
    EXPECT_TRUE(status.get("ok").asBool());

    // A fresh worker on the same spool sees the flag and exits
    // immediately without claiming anything.
    spool.submit(synthJob("two", "crc32/small"));
    serve::Worker idle(wo);
    auto stats = idle.run();
    EXPECT_EQ(stats.processed, 0u);
    EXPECT_EQ(spool.pending(), std::vector<std::string>{"two"});

    // Clearing the flag re-arms the spool; requestStop() on the worker
    // object itself also drains (the CLI signal path).
    spool.clearStop();
    serve::Worker again(wo);
    std::thread t2([&] { again.run(); });
    while (spool.finished().size() < 2)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    again.requestStop();
    t2.join();
    Json second;
    ASSERT_TRUE(spool.result("two", second));
    EXPECT_TRUE(second.get("ok").asBool());
}

TEST(Worker, WarmResubmitRecomputesNothing)
{
    ScratchDir dir("serve_warm");
    serve::Spool spool(dir.sub("spool"));
    spool.submit(synthJob("cold", "crc32/small"));

    serve::WorkerOptions wo;
    wo.spoolDir = dir.sub("spool");
    wo.cacheDir = dir.sub("cache");
    wo.drain = true;
    wo.threads = 1;
    {
        serve::Worker worker(wo);
        worker.run();
    }
    Json status;
    ASSERT_TRUE(spool.result("cold", status));
    EXPECT_FALSE(status.get("profileCached").asBool());
    EXPECT_FALSE(status.get("synthCached").asBool());

    // Same job, fresh worker process, warm shared cache: both stages
    // must come from the cache and reproduce identical bytes.
    spool.submit(synthJob("warm", "crc32/small"));
    {
        serve::Worker worker(wo);
        auto stats = worker.run();
        EXPECT_EQ(stats.processed, 1u);
        auto cs = worker.session().cacheStats();
        EXPECT_EQ(cs.profileMisses, 0u);
        EXPECT_EQ(cs.synthMisses, 0u);
    }
    ASSERT_TRUE(spool.result("warm", status));
    EXPECT_TRUE(status.get("ok").asBool());
    EXPECT_TRUE(status.get("profileCached").asBool());
    EXPECT_TRUE(status.get("synthCached").asBool());
    EXPECT_EQ(readFile(spool.outPath("warm", ".c")),
              readFile(spool.outPath("cold", ".c")));
    EXPECT_EQ(readFile(spool.outPath("warm", ".profile.json")),
              readFile(spool.outPath("cold", ".profile.json")));
}

TEST(Spool, StaleClaimRecoveryAfterWorkerCrash)
{
    ScratchDir dir("serve_stale");
    serve::Spool spool(dir.sub("spool"));
    spool.submit(synthJob("crash", "crc32/small"));

    // Backdate the queued job file: claim() must re-stamp the mtime,
    // so time a job spent waiting in new/ never counts as claim age.
    auto backdate =
        fs::file_time_type::clock::now() - std::chrono::hours(1);
    fs::last_write_time(spool.newPath("crash"), backdate);

    // A worker in a separate process claims the job and dies before
    // finishing it — kill -9 semantics, no destructors, no cleanup.
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        serve::Spool child(dir.sub("spool"));
        ::_exit(child.claim("crash") ? 0 : 1);
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    ASSERT_EQ(WEXITSTATUS(wstatus), 0);

    // The job is stranded: not pending, not done, claimed forever.
    EXPECT_TRUE(spool.pending().empty());
    EXPECT_EQ(entriesIn(dir.sub("spool") + "/claimed"), 1u);
    Json none;
    EXPECT_FALSE(spool.result("crash", none));

    // The claim is fresh (re-stamped at claim time), so a lease scan
    // does not flag it yet...
    EXPECT_TRUE(spool.scanStale(5.0).empty());
    // ...but once the claim itself ages past the lease, it does.
    fs::last_write_time(spool.claimedPath("crash"), backdate);
    EXPECT_EQ(spool.scanStale(5.0), std::vector<std::string>{"crash"});

    // A reclaiming drain worker moves it back to new/ and serves it
    // to completion.
    serve::WorkerOptions wo;
    wo.spoolDir = dir.sub("spool");
    wo.drain = true;
    wo.threads = 1;
    wo.reclaimAfterS = 5.0;
    serve::Worker worker(wo);
    auto stats = worker.run();
    EXPECT_EQ(stats.reclaimed, 1u);
    EXPECT_EQ(stats.processed, 1u);
    EXPECT_EQ(stats.succeeded, 1u);
    Json status;
    ASSERT_TRUE(spool.result("crash", status));
    EXPECT_TRUE(status.get("ok").asBool());
    EXPECT_EQ(entriesIn(dir.sub("spool") + "/claimed"), 0u);

    // Reclaiming a claim that no longer exists is a clean no-op.
    EXPECT_FALSE(spool.reclaim("crash"));
}

TEST(Spool, WaitForResultFailsFastWhenNoResultCanArrive)
{
    ScratchDir dir("serve_wait");
    serve::Spool spool(dir.sub("spool"));
    Json status;

    auto t0 = std::chrono::steady_clock::now();

    // A job nowhere in the spool: vanished, immediately — not after
    // the full timeout.
    EXPECT_EQ(serve::waitForResult(spool, "ghost", status, 30.0, 1),
              serve::WaitOutcome::Vanished);

    // Stop flag set while the job sits unclaimed: no worker will ever
    // take it, so the wait reports that instead of burning 30s.
    spool.submit(synthJob("stuck", "crc32/small"));
    spool.requestStop();
    EXPECT_EQ(serve::waitForResult(spool, "stuck", status, 30.0, 1),
              serve::WaitOutcome::Stopped);
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count(),
              10.0);

    // Without the flag the same wait times out normally...
    spool.clearStop();
    EXPECT_EQ(serve::waitForResult(spool, "stuck", status, 0.05, 1),
              serve::WaitOutcome::Timeout);

    // ...and a *claimed* job keeps the wait alive even under a stop
    // flag: its worker always finishes the job in flight.
    ASSERT_TRUE(spool.claim("stuck"));
    spool.requestStop();
    EXPECT_EQ(serve::waitForResult(spool, "stuck", status, 0.05, 1),
              serve::WaitOutcome::Timeout);

    // Publishing the status resolves the wait with the result.
    Json terminal = Json::object();
    terminal.set("ok", Json(true));
    spool.finish("stuck", terminal);
    EXPECT_EQ(serve::waitForResult(spool, "stuck", status, 1.0, 1),
              serve::WaitOutcome::Done);
    EXPECT_TRUE(status.get("ok").asBool());

    EXPECT_STREQ(serve::waitOutcomeName(serve::WaitOutcome::Done),
                 "done");
    EXPECT_STREQ(serve::waitOutcomeName(serve::WaitOutcome::Stopped),
                 "stopped");
}

TEST(Worker, RejectsBrokenPollConfiguration)
{
    ScratchDir dir("serve_pollcfg");
    serve::WorkerOptions wo;
    wo.spoolDir = dir.sub("spool");
    wo.threads = 1;
    wo.pollMs = 0;
    EXPECT_THROW({ serve::Worker w(wo); }, FatalError);
    wo.pollMs = 50;
    wo.reclaimAfterS = -1.0;
    EXPECT_THROW({ serve::Worker w(wo); }, FatalError);
}

TEST(Worker, DrainPublishesStatusAndMetricsArtifacts)
{
    ScratchDir dir("serve_status");
    serve::Spool spool(dir.sub("spool"));
    spool.submit(synthJob("good", "crc32/small"));
    spool.submit(synthJob("bad", "broken/nope"));

    serve::WorkerOptions wo;
    wo.spoolDir = dir.sub("spool");
    wo.drain = true;
    wo.threads = 1;
    serve::Worker worker(wo);
    auto stats = worker.run();

    // Graceful drain leaves a scrapeable status artifact whose counts
    // match the stats run() returned.
    Json status =
        Json::parse(readFile(dir.sub("spool") + "/worker_status.json"));
    EXPECT_EQ(status.get("schema").asString(), "bsyn.worker.v1");
    EXPECT_EQ(uint64_t(status.get("processed").asInt()), stats.processed);
    EXPECT_EQ(uint64_t(status.get("succeeded").asInt()), stats.succeeded);
    EXPECT_EQ(uint64_t(status.get("failed").asInt()), stats.failed);
    EXPECT_EQ(stats.processed, 2u);
    EXPECT_EQ(stats.failed, 1u);

    // ...and a final metrics snapshot that reflects the same counters
    // plus the chained session cache traffic.
    Json metrics =
        Json::parse(readFile(dir.sub("spool") + "/metrics.json"));
    EXPECT_EQ(metrics.get("schema").asString(), "bsyn.metrics.v1");
    const Json &counters = metrics.get("counters");
    EXPECT_EQ(counters.get("serve.jobs.processed").asInt(), 2);
    EXPECT_EQ(counters.get("serve.jobs.succeeded").asInt(), 1);
    EXPECT_EQ(counters.get("serve.jobs.failed").asInt(), 1);
    EXPECT_TRUE(counters.has("pipeline.cache.synth.misses"));
}

TEST(Worker, BackedOffIdlerStopsPromptly)
{
    ScratchDir dir("serve_backoff");
    serve::Spool spool(dir.sub("spool"));
    serve::WorkerOptions wo;
    wo.spoolDir = dir.sub("spool");
    wo.threads = 1;
    wo.pollMs = 1;
    wo.pollMaxMs = 60000; // idle scans converge toward one per minute
    serve::Worker worker(wo);
    std::thread t([&] { worker.run(); });
    // Let the empty-scan backoff climb well past a second.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    auto t0 = std::chrono::steady_clock::now();
    worker.requestStop();
    t.join();
    // The chunked idle sleep observes the stop request long before
    // the backed-off interval would expire on its own.
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count(),
              5.0);
}

} // namespace
} // namespace bsyn
