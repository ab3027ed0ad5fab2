#include "serve/spool.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>

#include "support/error.hh"
#include "support/string_util.hh"

namespace fs = std::filesystem;

namespace bsyn::serve
{

namespace
{

/** Sorted job ids of the "<id>.json" files directly under @p dir. */
std::vector<std::string>
listIds(const std::string &dir)
{
    std::vector<std::string> ids;
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        std::string name = it->path().filename().string();
        // In-flight ".tmp." files are not yet submitted jobs.
        if (name.size() <= 5 || name.substr(name.size() - 5) != ".json")
            continue;
        if (name.find(".tmp.") != std::string::npos)
            continue;
        ids.push_back(name.substr(0, name.size() - 5));
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

} // namespace

bool
validJobId(const std::string &id)
{
    if (id.empty() || id.size() > 200)
        return false;
    for (char c : id) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                  c == '-';
        if (!ok)
            return false;
    }
    return true;
}

Json
Job::toJson() const
{
    Json j = Json::object();
    j.set("schema", Json("bsyn.job.v1"));
    j.set("id", Json(id));
    j.set("kind", Json(kind));
    j.set("workload", Json(workload));
    j.set("seed", Json(seed));
    j.set("targetInstr", Json(targetInstr));
    j.set("timing", Json(timing));
    return j;
}

Job
Job::fromJson(const Json &j)
{
    if (j.get("schema").asString() != "bsyn.job.v1")
        fatal("job: unknown schema '%s'",
              j.get("schema").asString().c_str());
    Job job;
    job.id = j.get("id").asString();
    job.kind = j.get("kind").asString();
    job.workload = j.get("workload").asString();
    job.seed = j.getCount("seed");
    job.targetInstr = j.getCount("targetInstr");
    if (j.has("timing"))
        job.timing = j.get("timing").asBool();
    job.validate();
    return job;
}

void
Job::validate() const
{
    if (!validJobId(id))
        fatal("job id '%s' is invalid (need 1..200 chars of "
              "[A-Za-z0-9._-])",
              id.c_str());
    if (kind != "profile" && kind != "synth" && kind != "fidelity")
        fatal("job kind '%s' is invalid (profile|synth|fidelity)",
              kind.c_str());
    if (workload.empty())
        fatal("job '%s' names no workload", id.c_str());
    // A job file holds numbers as doubles, which round above 2^53.
    const std::pair<const char *, uint64_t> counts[] = {
        {"seed", seed}, {"targetInstr", targetInstr}};
    for (const auto &[name, v] : counts)
        if (!isCount(double(v)))
            fatal("job '%s': %s %llu is not below 2^53", id.c_str(), name,
                  static_cast<unsigned long long>(v));
}

Spool::Spool(std::string root) : root_(std::move(root))
{
    if (root_.empty())
        fatal("spool directory must not be empty");
    for (const char *sub : {"new", "claimed", "done", "out"}) {
        std::error_code ec;
        fs::create_directories(root_ + "/" + sub, ec);
        if (ec)
            fatal("cannot create spool directory '%s/%s': %s",
                  root_.c_str(), sub, ec.message().c_str());
    }
}

std::string
Spool::newPath(const std::string &id) const
{
    return root_ + "/new/" + id + ".json";
}

std::string
Spool::claimedPath(const std::string &id) const
{
    return root_ + "/claimed/" + id + ".json";
}

std::string
Spool::donePath(const std::string &id) const
{
    return root_ + "/done/" + id + ".json";
}

std::string
Spool::outPath(const std::string &id, const std::string &suffix) const
{
    return root_ + "/out/" + id + suffix;
}

bool
Spool::idExists(const std::string &id) const
{
    std::error_code ec;
    return fs::exists(newPath(id), ec) || fs::exists(claimedPath(id), ec) ||
           fs::exists(donePath(id), ec);
}

void
Spool::submit(const Job &job) const
{
    job.validate();
    if (idExists(job.id))
        fatal("job id '%s' already exists in spool '%s'", job.id.c_str(),
              root_.c_str());
    publishFile(newPath(job.id), job.toJson().dump(2) + "\n");
}

std::vector<std::string>
Spool::pending() const
{
    return listIds(root_ + "/new");
}

std::vector<std::string>
Spool::finished() const
{
    return listIds(root_ + "/done");
}

bool
Spool::claim(const std::string &id) const
{
    // rename(2) is atomic: of any number of workers racing for one
    // job, exactly one rename succeeds and the rest see ENOENT.
    std::error_code ec;
    fs::rename(newPath(id), claimedPath(id), ec);
    if (ec)
        return false;
    // rename preserves the submit-time mtime, which would make a
    // long-queued job look instantly stale; stamp the claim time.
    fs::last_write_time(claimedPath(id), fs::file_time_type::clock::now(),
                        ec);
    return true;
}

std::vector<std::string>
Spool::scanStale(double maxAgeS) const
{
    std::vector<std::string> stale;
    auto now = fs::file_time_type::clock::now();
    for (const auto &id : listIds(root_ + "/claimed")) {
        std::error_code ec;
        auto mtime = fs::last_write_time(claimedPath(id), ec);
        if (ec)
            continue; // finished or reclaimed while we scanned
        double age = std::chrono::duration<double>(now - mtime).count();
        if (age >= maxAgeS)
            stale.push_back(id);
    }
    return stale;
}

bool
Spool::reclaim(const std::string &id) const
{
    // Atomic like claim(): if the owner was alive after all and
    // finished first, the claim file is gone and this is a no-op.
    std::error_code ec;
    fs::rename(claimedPath(id), newPath(id), ec);
    return !ec;
}

void
Spool::finish(const std::string &id, const Json &status) const
{
    // Status first, then retire the claim: a crash between the two
    // leaves a claimed file with a status — visibly done — rather than
    // a result that vanished.
    publishFile(donePath(id), status.dump(2) + "\n");
    std::error_code ec;
    fs::remove(claimedPath(id), ec);
}

bool
Spool::result(const std::string &id, Json &out) const
{
    std::error_code ec;
    if (!fs::exists(donePath(id), ec))
        return false;
    out = Json::parse(readFile(donePath(id)));
    return true;
}

std::string
Spool::freeId(const std::string &base) const
{
    if (!idExists(base))
        return base;
    for (uint64_t n = 2;; ++n) {
        std::string candidate = base + "-" + std::to_string(n);
        if (!idExists(candidate))
            return candidate;
    }
}

void
Spool::publish(const std::string &name, const std::string &text) const
{
    if (name.empty() || name.find('/') != std::string::npos)
        fatal("spool publish name '%s' must be a plain filename",
              name.c_str());
    publishFile(root_ + "/" + name, text);
}

void
Spool::requestStop() const
{
    publishFile(root_ + "/stop", "stop\n");
}

bool
Spool::stopRequested() const
{
    std::error_code ec;
    return fs::exists(root_ + "/stop", ec);
}

void
Spool::clearStop() const
{
    std::error_code ec;
    fs::remove(root_ + "/stop", ec);
}

const char *
waitOutcomeName(WaitOutcome outcome)
{
    switch (outcome) {
    case WaitOutcome::Done:
        return "done";
    case WaitOutcome::Timeout:
        return "timeout";
    case WaitOutcome::Stopped:
        return "stopped";
    case WaitOutcome::Vanished:
        return "vanished";
    }
    return "unknown";
}

WaitOutcome
waitForResult(const Spool &spool, const std::string &id, Json &status,
              double timeoutS, unsigned pollMs)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(timeoutS));
    if (pollMs == 0)
        pollMs = 1;
    for (;;) {
        // Done first: finish() publishes the status before retiring
        // the claim, so a finish in flight can never read as lost.
        if (spool.result(id, status))
            return WaitOutcome::Done;

        std::error_code ec;
        bool inNew = fs::exists(spool.newPath(id), ec);
        bool inClaimed = fs::exists(spool.claimedPath(id), ec);
        if (!inNew && !inClaimed) {
            // The job may have hopped state between the two checks
            // (claim or reclaim renames); only a re-check that still
            // finds it nowhere means it is really gone.
            if (spool.result(id, status))
                return WaitOutcome::Done;
            if (!fs::exists(spool.newPath(id), ec) &&
                !fs::exists(spool.claimedPath(id), ec) &&
                !spool.result(id, status))
                return WaitOutcome::Vanished;
        } else if (inNew && spool.stopRequested()) {
            // Workers drain and exit on the stop flag; an unclaimed
            // job will sit in new/ forever. (A claimed job still
            // finishes — its worker completes the job in flight.)
            return WaitOutcome::Stopped;
        }

        if (std::chrono::steady_clock::now() >= deadline)
            return WaitOutcome::Timeout;
        std::this_thread::sleep_for(std::chrono::milliseconds(pollMs));
    }
}

} // namespace bsyn::serve
