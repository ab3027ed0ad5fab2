#include "replay/engine.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "obs/histogram.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/spool.hh"
#include "serve/worker.hh"
#include "support/error.hh"
#include "support/hash.hh"
#include "support/string_util.hh"
#include "workloads/suite.hh"

namespace bsyn::replay
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Stage histogram slots. Direct mode fills all four; the spool path
 *  cannot see inside the worker, so it fills queue and total only. The
 *  profile stage compiles the source when the cache misses. */
enum Stage { kQueue, kProfile, kSynth, kTotal, kStages };

const char *const kStageNames[kStages] = {"queue", "profile", "synth",
                                          "total"};

uint64_t
elapsedNs(Clock::time_point from, Clock::time_point to)
{
    return to <= from
               ? 0
               : std::chrono::duration_cast<std::chrono::nanoseconds>(
                     to - from)
                     .count();
}

unsigned
resolveDriverThreads(unsigned requested, size_t arrivals)
{
    unsigned n = requested;
    if (n == 0) {
        n = std::thread::hardware_concurrency();
        n = std::min(n ? n : 1u, 16u);
    }
    if (n > 256)
        fatal("replay: %u driver threads is out of range (1..256)", n);
    // More drivers than arrivals would only idle.
    return std::max<size_t>(1, std::min<size_t>(n, arrivals));
}

/** Shared state of one run's driver threads. The stage histograms are
 *  run-local registry entries ("replay.stage.<name>") that also
 *  aggregate into obs::Registry::global() through the parent chain. */
struct Drive
{
    const ReplayOptions &opts;
    const Mix &mix;
    const std::vector<uint64_t> &offsets;
    std::vector<ArrivalResult> &results;
    obs::LatencyHistogram *const *hists; // [kStages]
    Clock::time_point start;
    std::atomic<size_t> next{0};
};

/** Trace the time an arrival spent waiting past its due instant as a
 *  complete "queue-wait" span ending now. */
void
traceQueueWait(size_t i, uint64_t queueNs)
{
    if (!obs::Trace::enabled())
        return;
    uint64_t now = obs::Trace::nowNs();
    obs::Trace::complete("queue-wait", now > queueNs ? now - queueNs : 0,
                         queueNs, {{"arrival", std::to_string(i)}});
}

/** Claim arrivals and run them against @p session (direct mode). */
void
driveDirect(Drive &d, pipeline::Session &session)
{
    const auto &population = d.mix.population();
    for (;;) {
        size_t i = d.next.fetch_add(1);
        if (i >= d.offsets.size())
            break;
        ArrivalResult &res = d.results[i];
        Clock::time_point due =
            d.start + std::chrono::nanoseconds(d.offsets[i]);
        std::this_thread::sleep_until(due);

        const workloads::Workload &w = population[res.instance];
        Clock::time_point t0 = Clock::now();
        uint64_t queueNs = elapsedNs(due, t0);
        d.hists[kQueue]->record(queueNs);
        traceQueueWait(i, queueNs);
        {
            obs::Span span("arrival", "workload", w.name());
            span.arg("index", std::to_string(i));
            try {
                auto prof = session.profile(w);
                Clock::time_point t1 = Clock::now();
                d.hists[kProfile]->record(elapsedNs(t0, t1));

                synth::SynthesisOptions so = session.options().synthesis;
                so.targetInstructions = d.opts.targetInstr;
                so.seed =
                    pipeline::deriveWorkloadSeed(d.opts.seed, w.name());
                session.synthesize(prof, so);
                d.hists[kSynth]->record(elapsedNs(t1, Clock::now()));
            } catch (const std::exception &e) {
                res.ok = false;
                res.error = e.what();
            }
            span.arg("ok", res.ok ? "true" : "false");
        }
        d.hists[kTotal]->record(elapsedNs(due, Clock::now()));
    }
}

/** Claim arrivals and push them through the spool (serving mode). */
void
driveSpool(Drive &d, const serve::Spool &spool)
{
    const auto &population = d.mix.population();
    for (;;) {
        size_t i = d.next.fetch_add(1);
        if (i >= d.offsets.size())
            break;
        ArrivalResult &res = d.results[i];
        Clock::time_point due =
            d.start + std::chrono::nanoseconds(d.offsets[i]);
        std::this_thread::sleep_until(due);

        const workloads::Workload &w = population[res.instance];
        serve::Job job;
        job.id = spool.freeId("r" + std::to_string(i));
        job.kind = "synth";
        job.workload = w.name();
        job.seed = d.opts.seed;
        job.targetInstr = d.opts.targetInstr;
        Json status;
        {
            obs::Span span("arrival", "workload", w.name());
            span.arg("index", std::to_string(i));
            span.arg("job", job.id);
            try {
                spool.submit(job);
                auto outcome = serve::waitForResult(
                    spool, job.id, status, d.opts.spoolTimeoutS, 1);
                if (outcome != serve::WaitOutcome::Done)
                    fatal("replay: no result for job '%s' (%s)",
                          job.id.c_str(),
                          serve::waitOutcomeName(outcome));
                res.ok = status.get("ok").asBool();
                if (!res.ok)
                    res.error = status.get("error").asString();
            } catch (const std::exception &e) {
                res.ok = false;
                res.error = e.what();
            }
            span.arg("ok", res.ok ? "true" : "false");
        }
        Clock::time_point done = Clock::now();
        uint64_t totalNs = elapsedNs(due, done);
        d.hists[kTotal]->record(totalNs);
        // The worker reports its service time; the rest of the
        // round-trip — spool latency plus waiting for a free worker —
        // is the queue share.
        uint64_t serviceNs = 0;
        if (!status.isNull() && status.has("secs"))
            serviceNs =
                static_cast<uint64_t>(status.get("secs").asNumber() * 1e9);
        uint64_t queueNs = totalNs > serviceNs ? totalNs - serviceNs : 0;
        d.hists[kQueue]->record(queueNs);
        traceQueueWait(i, queueNs);
    }
}

StageSummary
summarize(const char *name, const obs::LatencyHistogram &h)
{
    StageSummary s;
    s.stage = name;
    s.count = h.count();
    s.p50Ms = h.quantile(0.50) / 1e6;
    s.p99Ms = h.quantile(0.99) / 1e6;
    s.p999Ms = h.quantile(0.999) / 1e6;
    s.maxMs = h.max() / 1e6;
    s.meanMs = h.mean() / 1e6;
    return s;
}

void
accumulateCacheStats(pipeline::CacheStats &into,
                     const pipeline::CacheStats &from)
{
    into.profileHits += from.profileHits;
    into.profileMisses += from.profileMisses;
    into.synthHits += from.synthHits;
    into.synthMisses += from.synthMisses;
    into.decodeHits += from.decodeHits;
    into.decodeMisses += from.decodeMisses;
}

} // namespace

ReplayReport
runReplay(const ReplayOptions &opts)
{
    Schedule schedule = Schedule::parse(opts.scheduleSpec);
    Mix mix = Mix::parse(opts.mixSpec, opts.population);
    if (!(opts.durationS > 0.0) || opts.durationS > 3600.0)
        fatal("replay: duration %.3fs is out of range (0, 3600]",
              opts.durationS);

    std::vector<uint64_t> offsets =
        schedule.arrivals(opts.durationS, opts.seed);
    const uint64_t durNs = static_cast<uint64_t>(opts.durationS * 1e9);

    ReplayReport rep;
    rep.scheduleSpec = opts.scheduleSpec;
    rep.mixSpec = opts.mixSpec;
    rep.durationS = opts.durationS;
    rep.seed = opts.seed;
    rep.population = opts.population;
    for (const auto &w : mix.population())
        rep.instanceNames.push_back(w.name());
    rep.drawCounts.assign(mix.population().size(), 0);
    rep.modeCounts.assign(mix.modes().size(), 0);

    // The whole arrival stream — who arrives when, running what — is
    // fixed before any thread starts: the run only fills in outcomes.
    rep.arrivals.resize(offsets.size());
    for (size_t i = 0; i < offsets.size(); ++i) {
        double frac = double(offsets[i]) / double(durNs);
        ArrivalResult &a = rep.arrivals[i];
        a.offsetNs = offsets[i];
        a.mode = static_cast<uint32_t>(mix.modeAt(frac));
        a.instance =
            static_cast<uint32_t>(mix.draw(opts.seed, i, frac));
        ++rep.drawCounts[a.instance];
        ++rep.modeCounts[a.mode];
    }

    unsigned threads = resolveDriverThreads(opts.threads, offsets.size());

    // Run-local stage histograms: counts stay exact per run (a test
    // binary may replay several times) while the same recordings
    // aggregate process-wide through the registry parent chain.
    obs::Registry metrics(&obs::Registry::global());
    obs::LatencyHistogram *hists[kStages];
    for (int s = 0; s < kStages; ++s)
        hists[s] = &metrics.histogram(std::string("replay.stage.") +
                                      kStageNames[s]);
    Drive drive{opts, mix, offsets, rep.arrivals, hists, {}, {}};

    Clock::time_point runStart;
    if (opts.spoolDir.empty()) {
        pipeline::SessionOptions so;
        so.cacheDir = opts.cacheDir;
        so.threads = threads;
        so.synthesis.targetInstructions = opts.targetInstr;
        so.synthesis.seed = opts.seed;
        pipeline::Session session(so);

        runStart = Clock::now();
        drive.start = runStart;
        std::vector<std::thread> drivers;
        for (unsigned t = 0; t < threads; ++t)
            drivers.emplace_back(
                [&] { driveDirect(drive, session); });
        for (auto &t : drivers)
            t.join();
        rep.elapsedS =
            std::chrono::duration<double>(Clock::now() - runStart)
                .count();
        rep.cacheStats = session.cacheStats();
    } else {
        if (opts.spoolWorkers < 1 || opts.spoolWorkers > 64)
            fatal("replay: %u spool workers is out of range (1..64)",
                  opts.spoolWorkers);
        serve::Spool spool(opts.spoolDir);
        spool.clearStop(); // a stale stop flag would starve the run

        serve::WorkerOptions wo;
        wo.spoolDir = opts.spoolDir;
        wo.cacheDir = opts.cacheDir;
        wo.threads = 1;
        wo.pollMs = 1;
        std::vector<std::unique_ptr<serve::Worker>> workers;
        std::vector<std::thread> workerThreads;
        for (unsigned t = 0; t < opts.spoolWorkers; ++t) {
            workers.push_back(std::make_unique<serve::Worker>(wo));
            workerThreads.emplace_back(
                [w = workers.back().get()] { w->run(); });
        }

        runStart = Clock::now();
        drive.start = runStart;
        std::vector<std::thread> drivers;
        for (unsigned t = 0; t < threads; ++t)
            drivers.emplace_back([&] { driveSpool(drive, spool); });
        for (auto &t : drivers)
            t.join();
        rep.elapsedS =
            std::chrono::duration<double>(Clock::now() - runStart)
                .count();

        for (auto &w : workers)
            w->requestStop();
        for (auto &t : workerThreads)
            t.join();
        for (auto &w : workers)
            accumulateCacheStats(rep.cacheStats,
                                 w->session().cacheStats());
    }

    // Outcome aggregates + the canonical stream digest.
    Sha256 digest;
    for (size_t i = 0; i < rep.arrivals.size(); ++i) {
        const ArrivalResult &a = rep.arrivals[i];
        a.ok ? ++rep.okCount : ++rep.failCount;
        digest.update(strprintf("%zu,%llu,%u,%u,%d\n", i,
                                static_cast<unsigned long long>(
                                    a.offsetNs),
                                a.mode, a.instance, a.ok ? 1 : 0));
    }
    rep.streamDigest = digest.hexDigest();

    rep.offeredRate = schedule.offeredRate(opts.durationS);
    rep.achievedRate =
        rep.elapsedS > 0.0 ? double(rep.arrivals.size()) / rep.elapsedS
                           : 0.0;
    for (int s = 0; s < kStages; ++s)
        rep.stages.push_back(summarize(kStageNames[s], *hists[s]));
    return rep;
}

Json
ReplayReport::resultsJson() const
{
    Json j = Json::object();
    j.set("schema", Json("bsyn.traffic.v1"));
    j.set("schedule", Json(scheduleSpec));
    j.set("mix", Json(mixSpec));
    j.set("durationS", Json(durationS));
    j.set("seed", Json(seed));
    j.set("population", Json(population));

    Json names = Json::array();
    for (const auto &n : instanceNames)
        names.push(Json(n));
    j.set("instances", std::move(names));

    j.set("arrivals", Json(static_cast<uint64_t>(arrivals.size())));
    Json modes = Json::array();
    for (uint64_t c : modeCounts)
        modes.push(Json(c));
    j.set("modeArrivals", std::move(modes));
    Json draws = Json::array();
    for (uint64_t c : drawCounts)
        draws.push(Json(c));
    j.set("draws", std::move(draws));

    j.set("ok", Json(okCount));
    j.set("failed", Json(failCount));
    Json failures = Json::array();
    for (size_t i = 0; i < arrivals.size(); ++i) {
        if (arrivals[i].ok)
            continue;
        Json f = Json::object();
        f.set("index", Json(static_cast<uint64_t>(i)));
        f.set("workload", Json(instanceNames[arrivals[i].instance]));
        f.set("error", Json(arrivals[i].error));
        failures.push(std::move(f));
    }
    j.set("failures", std::move(failures));
    j.set("streamDigest", Json(streamDigest));
    return j;
}

Json
ReplayReport::toJson() const
{
    Json j = resultsJson();

    Json bench = Json::object();
    bench.set("elapsedS", Json(elapsedS));
    bench.set("offeredRate", Json(offeredRate));
    bench.set("achievedRate", Json(achievedRate));
    Json st = Json::object();
    for (const auto &s : stages) {
        Json one = Json::object();
        one.set("count", Json(s.count));
        one.set("p50Ms", Json(s.p50Ms));
        one.set("p99Ms", Json(s.p99Ms));
        one.set("p999Ms", Json(s.p999Ms));
        one.set("maxMs", Json(s.maxMs));
        one.set("meanMs", Json(s.meanMs));
        st.set(s.stage, std::move(one));
    }
    bench.set("stages", std::move(st));

    Json cache = Json::object();
    cache.set("profileHits", Json(cacheStats.profileHits));
    cache.set("profileMisses", Json(cacheStats.profileMisses));
    cache.set("synthHits", Json(cacheStats.synthHits));
    cache.set("synthMisses", Json(cacheStats.synthMisses));
    cache.set("decodeHits", Json(cacheStats.decodeHits));
    cache.set("decodeMisses", Json(cacheStats.decodeMisses));
    bench.set("cache", std::move(cache));

    j.set("bench", std::move(bench));
    return j;
}

} // namespace bsyn::replay
