/**
 * @file
 * perfbench: run one workload for a fixed wall-clock budget and print
 * its metrics.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--work-dir DIR]
 *
 * --trace 0 prints the end-to-end metrics of an untraced window;
 * --trace 1 repeats the window with the library's trace armed and
 * prints the per-layer metrics. Both run the correctness gate. The
 * last stdout line is one JSON object {correct, attempted, failed,
 * metrics}; the process exits 1 when any check failed, 2 on a usage
 * error.
 */

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common.hh"
#include "layers.hh"
#include "obs/log.hh"
#include "obs/trace.hh"
#include "support/string_util.hh"
#include "workloads.hh"

using namespace perfbench;
using bsyn::Json;
namespace fs = std::filesystem;

namespace
{

/** Set-ups per run: at least kSetups, and more until they took
 *  kSetupSeconds, so a set-up of milliseconds is timed hundreds of
 *  times. setup_s is their median. */
constexpr size_t kSetups = 3;
constexpr double kSetupSeconds = 1.0;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n"
                 "workloads:",
                 why);
    for (const auto &n : workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (!(o.seconds > 0 && o.seconds <= 600))
                usage("--seconds must be in (0, 600]");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            o.trace = v == "1";
        } else if (a == "--work-dir") {
            o.workDir = v;
        } else {
            usage(("unknown flag " + a).c_str());
        }
        if (end && *end)
            usage(("malformed number for " + a).c_str());
    }
    if (!haveWorkload)
        usage("--workload is required");
    for (const auto &n : workloadNames())
        if (n == o.workload)
            return o;
    usage(("unknown workload " + o.workload).c_str());
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("model name", 0) == 0)
            return bsyn::trim(line.substr(line.find(':') + 1));
    return "unknown";
}

/** Everything that identifies where and how a number was measured. */
Json
provenance(const Options &o)
{
    auto env = [](const char *name) {
        const char *v = std::getenv(name);
        return std::string(v ? v : "unknown");
    };
    Json p = Json::object();
    p.set("workload", Json(o.workload));
    p.set("seed", Json(o.seed));
    p.set("seconds", Json(o.seconds));
    p.set("trace", Json(o.trace));
    p.set("nproc", Json(uint64_t(std::thread::hardware_concurrency())));
    p.set("cpu", Json(cpuModel()));
    p.set("compiler", Json(PERFBENCH_COMPILER));
    p.set("flags", Json(bsyn::trim(PERFBENCH_FLAGS)));
    p.set("build_type", Json(PERFBENCH_BUILD_TYPE));
    p.set("commit", Json(env("PERFBENCH_COMMIT")));
    p.set("source_sha256", Json(env("PERFBENCH_SOURCE_SHA256")));
    return p;
}

/** Set @p w up repeatedly; @return the median wall time. */
double
timedSetups(Workload &w)
{
    std::vector<double> secs;
    auto start = Clock::now();
    while (secs.size() < kSetups || secondsSince(start) < kSetupSeconds) {
        auto t0 = Clock::now();
        w.setup();
        secs.push_back(secondsSince(t0));
    }
    return median(secs);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Cache and decode-memo hit ratios of a window. */
void
cacheMetrics(const Window &w, Metrics &m)
{
    const auto &c = w.cache;
    m["pipeline.cache_hit_ratio"] = {
        ratio(double(c.hits()), double(c.hits() + c.misses())), "ratio"};
    m["pipeline.decode_hit_ratio"] = {
        ratio(double(c.decodeHits), double(c.decodeHits + c.decodeMisses)),
        "ratio"};
}

/** The isolation each workload relies on, confirmed from its trace. */
void
checkIsolation(const Options &o, const Metrics &m, Gate &gate)
{
    auto at = [&](const char *name) { return m.at(name).value; };
    if (o.workload == "suite-cold" || o.workload == "replay-open")
        gate.check(at("pipeline.timing_busy_ms") == 0.0,
                   "no timing spans on " + o.workload);
    if (o.workload == "suite-warm") {
        gate.check(at("pipeline.cache_hit_ratio") == 1.0,
                   "suite-warm cache hit ratio is 1");
        gate.check(at("pipeline.profile_computed") == 0.0 &&
                       at("pipeline.synthesize_computed") == 0.0,
                   "suite-warm computes no profile or clone");
    }
}

void
printMetrics(const Metrics &m)
{
    for (const auto &[name, metric] : m)
        std::printf("  %-32s %14.6g %s\n", name.c_str(), metric.value,
                    metric.unit.c_str());
}

int
run(const Options &o)
{
    Json prov = provenance(o);
    std::printf("perfbench provenance %s\n", prov.dump(-1).c_str());

    Gate gate;
    std::unique_ptr<Workload> w = makeWorkload(o);
    const std::string dir = w->dir();
    fs::remove_all(dir);
    fs::create_directories(dir);
    double setupS = timedSetups(*w);

    Window plain = w->measure(o.seconds, gate);
    w->verify(gate);
    double cloneErr = w->cloneError(gate);

    Metrics e2e;
    e2e["setup_s"] = {setupS, "s"};
    e2e["items_per_s"] = {ratio(double(plain.items), plain.wallS), "1/s"};
    e2e["cpu_s_per_item"] = {ratio(plain.cpuS, double(plain.items)), "s"};
    e2e["p50_ms"] = {plain.p50Ms, "ms"};
    e2e["p99_ms"] = {plain.p99Ms, "ms"};
    e2e["peak_rss_mb"] = {plain.peakRssMb, "MB"};
    e2e["clone_err"] = {cloneErr, "ratio"};

    Metrics layers;
    if (o.trace) {
        std::string tracePath = dir + "/trace.json";
        bsyn::obs::Trace::begin(tracePath);
        Window traced = w->measure(o.seconds, gate);
        bsyn::obs::Trace::end();
        gate.check(traced.digest == plain.digest,
                   "traced results identical to untraced");
        traceMetrics(tracePath, layers);
        cacheMetrics(traced, layers);
        w->pathMetrics(layers);
        measureLayers(*w, gate, layers);
        layers["obs.trace_overhead"] = {
            ratio(ratio(traced.cpuS, double(traced.items)),
                  e2e["cpu_s_per_item"].value),
            "ratio"};
        checkIsolation(o, layers, gate);
    }

    const Metrics &out = o.trace ? layers : e2e;
    double failedFrac =
        ratio(double(gate.failed()), double(gate.attempted()));
    std::printf("perfbench %s seed=%llu: %llu repetitions, %llu items, "
                "%llu latency samples\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                static_cast<unsigned long long>(plain.repetitions),
                static_cast<unsigned long long>(plain.items),
                static_cast<unsigned long long>(plain.latencySamples));
    std::printf("perfbench results digest %s\n", plain.digest.c_str());
    std::printf("perfbench checks: %llu attempted, %llu failed "
                "(failed_frac %.6g)\n",
                static_cast<unsigned long long>(gate.attempted()),
                static_cast<unsigned long long>(gate.failed()), failedFrac);
    printMetrics(out);

    Json metrics = Json::object();
    for (const auto &[name, metric] : out) {
        Json one = Json::object();
        one.set("value", Json(metric.value));
        one.set("unit", Json(metric.unit));
        metrics.set(name, std::move(one));
    }
    bool correct = gate.failed() == 0;

    // The full record, provenance and digest included, next to the
    // work directory.
    Json record = Json::object();
    record.set("provenance", prov);
    record.set("digest", Json(plain.digest));
    record.set("metrics", metrics);
    std::string results = o.workDir + "/../results";
    fs::create_directories(results);
    bsyn::writeFile(bsyn::strprintf("%s/%s-seed%llu-trace%d.json",
                                    results.c_str(), o.workload.c_str(),
                                    static_cast<unsigned long long>(o.seed),
                                    int(o.trace)),
                    record.dump(2) + "\n");

    w.reset();
    fs::remove_all(dir);

    Json line = Json::object();
    line.set("correct", Json(correct));
    line.set("attempted", Json(gate.attempted()));
    line.set("failed", Json(gate.failed()));
    line.set("metrics", std::move(metrics));
    std::printf("%s\n", line.dump(-1).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    // Fixed, small allocator thresholds: glibc otherwise raises its
    // mmap and trim thresholds the first time a large block is freed,
    // and large blocks freed during set-up then stay resident. What
    // set-up left behind moved suite-warm's peak RSS between 190 and
    // 250 MB from run to run; with large blocks mapped and unmapped
    // each time it reads 60 to 70 MB, at the same throughput.
    mallopt(M_MMAP_THRESHOLD, 256 << 10);
    mallopt(M_TRIM_THRESHOLD, 1 << 20);
    bsyn::obs::setLogLevel(bsyn::obs::LogLevel::Warn);
    try {
        return run(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
