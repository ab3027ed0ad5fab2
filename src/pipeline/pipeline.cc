#include "pipeline/pipeline.hh"

#include <algorithm>

#include "isa/lowering.hh"
#include "lang/frontend.hh"
#include "obs/trace.hh"
#include "sim/core_model.hh"
#include "sim/decoded_program.hh"
#include "support/thread_pool.hh"

namespace bsyn::pipeline
{

ir::Module
compileSource(const std::string &source, const std::string &name,
              opt::OptLevel level, bool schedule_for_in_order)
{
    ir::Module mod = lang::compile(source, name);
    opt::OptOptions oo;
    oo.scheduleForInOrder = schedule_for_in_order;
    opt::optimize(mod, level, oo);
    return mod;
}

sim::ExecStats
runSource(const std::string &source, const std::string &name,
          opt::OptLevel level, const isa::TargetInfo &target)
{
    bool in_order = target.family == isa::IsaFamily::Risc;
    ir::Module mod = compileSource(source, name, level, in_order);
    isa::MachineProgram prog = isa::lower(mod, target);
    return sim::execute(prog);
}

uint64_t
measureInstructions(const std::string &source)
{
    ir::Module mod = lang::compile(source, "measure");
    isa::MachineProgram prog = isa::lower(mod, isa::targetX86());
    return sim::execute(prog).instructions;
}

synth::SynthesisOptions
defaultSynthesisOptions()
{
    return {};
}

uint64_t
deriveWorkloadSeed(uint64_t baseSeed, const std::string &name)
{
    // FNV-1a over the name, folded into the base seed and finished with
    // a splitmix64 round. Pure arithmetic on fixed-width integers, so
    // the derivation is identical across platforms and runs.
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : name) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    uint64_t z = baseSeed ^ h;
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

unsigned
resolveSuiteThreads(unsigned requested, size_t suiteSize)
{
    unsigned threads =
        requested ? requested : ThreadPool::hardwareThreads();
    return static_cast<unsigned>(
        std::min<size_t>(threads, std::max<size_t>(suiteSize, 1)));
}

PhasedTiming
timeOnMachine(const std::string &source, const std::string &name,
              opt::OptLevel level, const sim::MachineSpec &machine,
              const std::vector<double> &cuts)
{
    obs::Span span("timing", "workload", name);
    span.arg("machine", machine.name);
    ir::Module mod;
    {
        // The front end and -O passes, as a span of their own so a
        // trace separates them from the timed execution.
        obs::Span cspan("compile", "workload", name);
        mod = compileSource(source, name, level, machine.core.inOrder);
    }
    isa::MachineProgram prog = isa::lower(mod, machine.isa);
    sim::DecodedProgram decoded(prog);

    // The cut fractions are relative to the run's retired-instruction
    // count, which the timing model only knows after the fact — one
    // fast-path run (cheap next to the timed run) resolves them to
    // absolute boundaries.
    PhasedTiming out;
    uint64_t total = cuts.empty() ? 0 : sim::execute(decoded).instructions;
    uint64_t prev = 0;
    for (double f : cuts) {
        auto b = static_cast<uint64_t>(f * static_cast<double>(total));
        // Clamp to the run's interior and keep boundaries strictly
        // increasing even when adjacent fractions round together.
        b = std::min(std::max<uint64_t>(b, prev + 1),
                     total > 1 ? total - 1 : 1);
        if (b <= prev)
            break;
        out.cutInstructions.push_back(b);
        prev = b;
    }

    auto phased = sim::simulateTimingPhased(decoded, machine.core,
                                            out.cutInstructions);
    out.stats = phased.stats;
    out.cutCycles = std::move(phased.checkpointCycles);
    // A boundary past the run's end never fires; truncate the request
    // list to the checkpoints actually taken so the two stay parallel.
    if (out.cutCycles.size() < out.cutInstructions.size())
        out.cutInstructions.resize(out.cutCycles.size());
    return out;
}

} // namespace bsyn::pipeline
