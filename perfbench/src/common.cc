#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "gen/registry.hh"
#include "isa/lowering.hh"
#include "lang/frontend.hh"
#include "sim/decoded_program.hh"

namespace perfbench
{

using namespace bsyn;

bool
Gate::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
    return ok;
}

void
Gate::count(uint64_t n, uint64_t failed, const std::string &what)
{
    attempted_ += n;
    failed_ += failed;
    if (failed)
        std::fprintf(stderr, "perfbench: CHECK FAILED: %llu of %llu %s\n",
                     static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(n), what.c_str());
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) / 1e6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

namespace
{

/** Value (ns) at 0-based rank @p r of @p h, spread evenly across the
 *  bucket holding it: the ranks [a, b] sharing that bucket split the
 *  bucket's range in equal steps. The bucket geometry mirrors
 *  obs::LatencyHistogram (16 linear sub-buckets per power of two). */
double
rankValueNs(const obs::LatencyHistogram &h, uint64_t r, uint64_t n)
{
    if (r + 1 >= n)
        return double(h.max());
    auto midAt = [&](uint64_t rank) {
        return h.quantile((double(rank) + 0.5) / double(n - 1));
    };
    uint64_t mid = midAt(r);
    uint64_t a = r, b = r;
    while (a > 0 && midAt(a - 1) == mid)
        --a;
    while (b + 2 < n && midAt(b + 1) == mid)
        ++b;
    size_t idx = obs::LatencyHistogram::bucketOf(mid);
    constexpr size_t kSubBits = obs::LatencyHistogram::kSubBits;
    if (idx < (1u << kSubBits))
        return double(mid);
    uint64_t exp = idx >> kSubBits;
    uint64_t sub = idx & ((1u << kSubBits) - 1);
    double lower = double(((1ull << kSubBits) + sub) << (exp - 1));
    double width = double(1ull << (exp - 1));
    double v = lower + width * (double(r - a) + 0.5) / double(b - a + 1);
    return std::min(v, double(h.max()));
}

} // namespace

double
histogramQuantileMs(const obs::LatencyHistogram &h, double q)
{
    uint64_t n = h.count();
    if (n == 0)
        return 0.0;
    double pos = q * double(n - 1);
    uint64_t lo = static_cast<uint64_t>(std::floor(pos));
    double vlo = rankValueNs(h, lo, n);
    double vhi = lo + 1 < n ? rankValueNs(h, lo + 1, n) : vlo;
    return (vlo + (vhi - vlo) * (pos - double(lo))) / 1e6;
}

CompletionClock::CompletionClock(const obs::Counter &executed)
    : executed_(executed), start_(Clock::now()), last_(executed.value())
{
    thread_ = std::thread([this] {
        while (!stop_.load()) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            sample(Clock::now());
        }
    });
}

CompletionClock::~CompletionClock()
{
    if (thread_.joinable()) {
        stop_ = true;
        thread_.join();
    }
}

void
CompletionClock::sample(Clock::time_point now)
{
    uint64_t v = executed_.value();
    double ms = std::chrono::duration<double, std::milli>(now - start_)
                    .count();
    for (; last_ < v; ++last_)
        completions_.push_back(ms);
}

std::vector<double>
CompletionClock::stop()
{
    stop_ = true;
    thread_.join();
    sample(Clock::now());
    return completions_;
}

RunOutcome
runSource(const std::string &source, const std::string &name)
{
    ir::Module mod = lang::compile(source, name);
    isa::MachineProgram prog = isa::lower(mod, isa::targetX86());
    sim::DecodedProgram decoded(prog);
    sim::ExecStats st = sim::execute(decoded);
    return {st.exitCode, st.output, st.instructions};
}

bool
outputMatches(const workloads::Workload &w, const std::string &out)
{
    if (gen::Registry::global().find(w.benchmark))
        return out == w.expectedOutput || out == w.expectedOutput + "\n";
    return out.find(w.expectedOutput) != std::string::npos;
}

void
checkOriginals(const std::vector<workloads::Workload> &inputs, Gate &gate,
               ThreadPool &pool)
{
    pool.parallelFor(inputs.size(), [&](size_t i) {
        const auto &w = inputs[i];
        bool ok = false;
        try {
            RunOutcome r = runSource(w.source, w.name());
            ok = outputMatches(w, r.output);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: original %s: %s\n",
                         w.name().c_str(), e.what());
        }
        gate.check(ok, "original " + w.name() + " prints its expected output");
    });
}

void
checkClones(const std::vector<std::string> &names,
            const std::vector<std::string> &sources, Gate &gate,
            ThreadPool &pool)
{
    pool.parallelFor(sources.size(), [&](size_t i) {
        bool ok = false;
        try {
            ok = runSource(sources[i], names[i] + ".clone").exitCode == 0;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: clone %s: %s\n",
                         names[i].c_str(), e.what());
        }
        gate.check(ok, "clone of " + names[i] + " compiles and exits 0");
    });
}

} // namespace perfbench
