#include "serve/worker.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "gen/fidelity.hh"
#include "obs/log.hh"
#include "obs/trace.hh"
#include "support/error.hh"
#include "support/string_util.hh"

namespace bsyn::serve
{

namespace
{

/** How often a serving worker drops a `metrics.json` snapshot into the
 *  spool root, so anything that can read the spool can scrape it. */
constexpr double kMetricsEveryS = 5.0;

pipeline::SessionOptions
sessionOptionsFor(const WorkerOptions &opts, obs::Registry *metrics)
{
    pipeline::SessionOptions so;
    so.cacheDir = opts.cacheDir;
    so.threads = opts.threads;
    so.metricsParent = metrics;
    return so;
}

} // namespace

Worker::Worker(WorkerOptions opts)
    : opts_(std::move(opts)), spool_(opts_.spoolDir),
      metrics_(&obs::Registry::global()),
      jobsProcessed_(metrics_.counter("serve.jobs.processed")),
      jobsSucceeded_(metrics_.counter("serve.jobs.succeeded")),
      jobsFailed_(metrics_.counter("serve.jobs.failed")),
      claimsLost_(metrics_.counter("serve.claims.lost")),
      claimsReclaimed_(metrics_.counter("serve.claims.reclaimed")),
      session_(sessionOptionsFor(opts_, &metrics_))
{
    // A zero interval would turn the idle loop into a directory-scan
    // busy wait. The CLI rejects it at parse time; this guards every
    // other embedder.
    if (opts_.pollMs == 0)
        fatal("worker poll interval must be positive");
    if (opts_.pollMaxMs < opts_.pollMs)
        opts_.pollMaxMs = opts_.pollMs;
    if (opts_.reclaimAfterS < 0.0)
        fatal("worker reclaim age must not be negative");
}

bool
Worker::stopping() const
{
    return stop_.load() || spool_.stopRequested();
}

void
Worker::idleSleep(unsigned ms) const
{
    auto until = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(ms);
    while (!stopping()) {
        auto now = std::chrono::steady_clock::now();
        if (now >= until)
            break;
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            until - now);
        std::this_thread::sleep_for(
            std::min(left, std::chrono::milliseconds(20)));
    }
}

Json
Worker::processClaimed(const std::string &id)
{
    auto t0 = std::chrono::steady_clock::now();
    std::string kind, workload, error;
    bool ok = true;
    bool profileCached = false, synthCached = false;
    Json outputs = Json::array();

    try {
        Job job =
            Job::fromJson(Json::parse(readFile(spool_.claimedPath(id))));
        if (job.id != id)
            fatal("job file '%s' carries mismatched id '%s'", id.c_str(),
                  job.id.c_str());
        kind = job.kind;
        workload = job.workload;
        const workloads::Workload &w =
            workloads::findWorkload(job.workload);

        if (job.kind == "profile") {
            auto prof = session_.profile(w, &profileCached);
            prof.saveTo(spool_.outPath(id, ".profile.json"));
            outputs.push(Json("out/" + id + ".profile.json"));
        } else if (job.kind == "synth") {
            // Same per-workload seed derivation as `bsyn suite`, so a
            // job's clone is byte-identical to — and cache-shared
            // with — a suite run at the same base seed.
            synth::SynthesisOptions so = session_.options().synthesis;
            so.targetInstructions = job.targetInstr;
            so.seed = pipeline::deriveWorkloadSeed(job.seed, w.name());
            pipeline::RunStatus rst;
            auto run = session_.process(w, so, &rst);
            profileCached = rst.profileCached;
            synthCached = rst.synthCached;
            writeFile(spool_.outPath(id, ".c"), run.synthetic.cSource);
            run.profile.saveTo(spool_.outPath(id, ".profile.json"));
            outputs.push(Json("out/" + id + ".c"));
            outputs.push(Json("out/" + id + ".profile.json"));
        } else { // "fidelity" (Job::validate admits nothing else)
            gen::FidelityOptions fo;
            fo.synthesis = session_.options().synthesis;
            fo.synthesis.targetInstructions = job.targetInstr;
            fo.synthesis.seed = job.seed;
            fo.timing = job.timing;
            auto report = gen::scoreFidelity(session_, {w}, fo);
            writeFile(spool_.outPath(id, ".fidelity.json"),
                      report.resultsJson().dump(2) + "\n");
            outputs.push(Json("out/" + id + ".fidelity.json"));
            if (!report.instances.empty() && !report.instances[0].ok) {
                ok = false;
                error = report.instances[0].error;
            }
        }
    } catch (const std::exception &e) {
        ok = false;
        error = e.what();
    }

    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    Json status = Json::object();
    status.set("schema", Json("bsyn.result.v1"));
    status.set("id", Json(id));
    status.set("kind", Json(kind));
    status.set("workload", Json(workload));
    status.set("ok", Json(ok));
    if (!ok)
        status.set("error", Json(error));
    status.set("profileCached", Json(profileCached));
    status.set("synthCached", Json(synthCached));
    status.set("secs", Json(secs));
    status.set("outputs", std::move(outputs));
    return status;
}

void
Worker::publishMetrics() const
{
    spool_.publish("metrics.json", metrics_.snapshot().dump(2) + "\n");
}

void
Worker::publishStatus(const WorkerStats &stats) const
{
    Json status = Json::object();
    status.set("schema", Json("bsyn.worker.v1"));
    status.set("processed", Json(stats.processed));
    status.set("succeeded", Json(stats.succeeded));
    status.set("failed", Json(stats.failed));
    status.set("lostClaims", Json(stats.lostClaims));
    status.set("reclaimed", Json(stats.reclaimed));
    spool_.publish("worker_status.json", status.dump(2) + "\n");
}

WorkerStats
Worker::run()
{
    // run() reports its own activity even if called twice on one
    // worker: the registry counters are worker-lifetime, so take the
    // delta against their values at entry.
    const WorkerStats base{jobsProcessed_.value(), jobsSucceeded_.value(),
                           jobsFailed_.value(), claimsLost_.value(),
                           claimsReclaimed_.value()};
    auto statsNow = [&] {
        WorkerStats s;
        s.processed = jobsProcessed_.value() - base.processed;
        s.succeeded = jobsSucceeded_.value() - base.succeeded;
        s.failed = jobsFailed_.value() - base.failed;
        s.lostClaims = claimsLost_.value() - base.lostClaims;
        s.reclaimed = claimsReclaimed_.value() - base.reclaimed;
        return s;
    };
    auto finish = [&] {
        WorkerStats s = statsNow();
        publishMetrics();
        publishStatus(s);
        return s;
    };

    auto lastPublish = std::chrono::steady_clock::now();
    auto maybePublish = [&] {
        auto now = std::chrono::steady_clock::now();
        if (std::chrono::duration<double>(now - lastPublish).count() <
            kMetricsEveryS)
            return;
        lastPublish = now;
        publishMetrics();
    };

    unsigned idleMs = opts_.pollMs;
    while (!stopping()) {
        bool progressed = false;
        if (opts_.reclaimAfterS > 0.0) {
            for (const auto &id : spool_.scanStale(opts_.reclaimAfterS)) {
                if (!spool_.reclaim(id))
                    continue; // owner finished or another worker won
                claimsReclaimed_.add();
                obs::Trace::instant("reclaim", {{"id", id}});
                if (opts_.verbose)
                    obs::logf(obs::LogLevel::Info,
                              "[bsyn] job %-24s reclaimed (claim "
                              "older than %.0fs)",
                              id.c_str(), opts_.reclaimAfterS);
            }
        }
        for (const auto &id : spool_.pending()) {
            if (stopping())
                break;
            bool claimed;
            {
                obs::Span claimSpan("spool-claim", "id", id);
                claimed = spool_.claim(id);
            }
            if (!claimed) {
                // Another worker on this spool won the rename race.
                claimsLost_.add();
                continue;
            }
            Json status;
            {
                obs::Span jobSpan("job", "id", id);
                status = processClaimed(id);
                jobSpan.arg("kind", status.get("kind").asString());
                jobSpan.arg("workload", status.get("workload").asString());
                jobSpan.arg("ok",
                            status.get("ok").asBool() ? "true" : "false");
            }
            spool_.finish(id, status);
            progressed = true;
            jobsProcessed_.add();
            bool ok = status.get("ok").asBool();
            (ok ? jobsSucceeded_ : jobsFailed_).add();
            if (opts_.verbose)
                obs::logf(obs::LogLevel::Info,
                          "[bsyn] job %-24s %s (%.2fs)%s", id.c_str(),
                          ok ? "ok" : "FAILED",
                          status.get("secs").asNumber(),
                          status.get("profileCached").asBool() &&
                                  status.get("synthCached").asBool()
                              ? " (cached)"
                              : "");
            maybePublish();
            if (opts_.maxJobs && statsNow().processed >= opts_.maxJobs)
                return finish();
        }
        if (stopping())
            break;
        maybePublish();
        if (!progressed) {
            if (opts_.drain)
                break;
            idleSleep(idleMs);
            // Exponential backoff: an idle worker converges to one
            // scan per pollMaxMs instead of hammering the directory.
            idleMs = std::min(idleMs * 2, opts_.pollMaxMs);
        } else {
            idleMs = opts_.pollMs;
        }
    }
    return finish();
}

} // namespace bsyn::serve
