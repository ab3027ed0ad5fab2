#include "pipeline/run_sink.hh"

#include <algorithm>
#include <filesystem>

#include "support/error.hh"
#include "support/string_util.hh"

namespace bsyn::pipeline
{

// ----------------------------------------------------------------- Status

Json
runStatusToJson(const RunStatus &st)
{
    Json j = Json::object();
    j.set("index", Json(static_cast<uint64_t>(st.index)));
    j.set("workload", Json(st.workload));
    j.set("ok", Json(st.ok));
    if (!st.ok)
        j.set("error", Json(st.error));
    return j;
}

RunStatus
runStatusFromJson(const Json &j)
{
    RunStatus st;
    st.index = j.getCount("index");
    st.workload = j.get("workload").asString();
    st.ok = j.get("ok").asBool();
    if (j.has("error"))
        st.error = j.get("error").asString();
    return st;
}

// ---------------------------------------------------------------- Collect

void
CollectSink::consume(const RunStatus &st, const WorkloadRun &run)
{
    std::lock_guard<std::mutex> lock(mtx_);
    statuses_.push_back(st);
    if (st.ok)
        runs_.emplace_back(st.index, run); // owning sink: copies
}

std::vector<WorkloadRun>
CollectSink::takeRuns()
{
    std::lock_guard<std::mutex> lock(mtx_);
    std::sort(runs_.begin(), runs_.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    std::vector<WorkloadRun> out;
    out.reserve(runs_.size());
    for (auto &entry : runs_)
        out.push_back(std::move(entry.second));
    runs_.clear();
    return out;
}

std::vector<RunStatus>
CollectSink::statuses() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    std::vector<RunStatus> out = statuses_;
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        return a.index < b.index;
    });
    return out;
}

// -------------------------------------------------------------- Directory

DirectorySink::DirectorySink(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        fatal("cannot create output directory '%s': %s", dir_.c_str(),
              ec.message().c_str());
}

void
DirectorySink::consume(const RunStatus &st, const WorkloadRun &run)
{
    if (!st.ok)
        return;
    // File writes race-free without the lock (distinct files per
    // workload); only the counter needs guarding.
    std::string base =
        dir_ + "/" + run.workload.benchmark + "_" + run.workload.input;
    writeFile(base + ".c", run.synthetic.cSource);
    run.profile.saveTo(base + ".profile.json");
    std::lock_guard<std::mutex> lock(mtx_);
    ++written_;
}

size_t
DirectorySink::written() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return written_;
}

// --------------------------------------------------------------- Callback

void
CallbackSink::consume(const RunStatus &st, const WorkloadRun &run)
{
    if (!fn_)
        return;
    std::lock_guard<std::mutex> lock(mtx_);
    fn_(st, run);
}

// -------------------------------------------------------------------- Tee

TeeSink::TeeSink(std::vector<RunSink *> children)
    : children_(std::move(children))
{
}

void
TeeSink::consume(const RunStatus &st, const WorkloadRun &run)
{
    for (RunSink *child : children_)
        child->consume(st, run);
}

} // namespace bsyn::pipeline
