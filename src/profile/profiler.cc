#include "profile/profiler.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "ir/cfg.hh"
#include "ir/dominators.hh"
#include "ir/loops.hh"
#include "isa/lowering.hh"
#include "sim/decoded_program.hh"
#include "support/error.hh"
#include "support/string_util.hh"

namespace bsyn::profile
{

using isa::MInst;
using isa::MKind;

namespace
{

/** Phase boundary threshold: adjacent slices merge into one phase
 *  while the L1 distance between their behaviour vectors (load /
 *  store / branch / fp / other mix fractions, miss rate, taken rate)
 *  stays within this value. Within-phase slice noise is typically
 *  < 0.01 and genuine mix shifts > 0.2, so it sits an order of
 *  magnitude above the noise floor. */
constexpr double kPhaseThreshold = 0.10;

/** Minimum phase weight: a detected phase smaller than this fraction
 *  of the run merges into its nearer neighbour. Absorbs the
 *  transition slices that straddle a real boundary (their blended
 *  features otherwise surface as singleton phases). */
constexpr double kMinPhaseFraction = 0.05;

/** Static structure shared by the aggregate and every phase. */
struct StaticSfgl
{
    Sfgl sfgl; ///< blocks/code/term/funcNames/loops, no dynamic counts
    std::vector<int> pc_to_block;
    std::vector<int> block_start_pc;
};

/**
 * Reconstruct a run's mix, block counts and edges from its per-PC
 * counters plus the program's static structure — for the aggregate
 * counters of a fused run, or the summed slice deltas of one phase.
 *
 * The reconstruction leans on two invariants of the lowered code:
 * every retired execution of a block's first PC is exactly one block
 * start (so blockExec falls out of the per-PC retire counts), and
 * control enters a block start only by (a) a CondBr outcome, (b) a
 * Jmp, (c) straight-line fall-through from the previous PC (the
 * lowering elides jumps to the next block, so a block may end in a
 * plain body instruction), or (d) a Call/Ret — which never forms an
 * SFGL edge. Each of (a)-(c) is attributable to a static PC whose
 * dynamic count we have.
 */
void
reconstructFromCounters(const isa::MachineProgram &prog,
                        const StaticSfgl &st, RunMeasurements &m)
{
    const sim::InstrumentedCounters &c = m.counters;
    const std::vector<int> &pc_to_block = st.pc_to_block;
    size_t n = prog.code.size();
    auto starts = [&](size_t pc) {
        return st.block_start_pc[static_cast<size_t>(pc_to_block[pc])] ==
               static_cast<int>(pc);
    };
    for (size_t pc = 0; pc < n; ++pc)
        if (c.execCount[pc])
            m.mix.add(prog.code[pc].cls(), c.execCount[pc]);

    m.blockExec.resize(st.block_start_pc.size());
    for (size_t b = 0; b < st.block_start_pc.size(); ++b)
        m.blockExec[b] =
            c.execCount[static_cast<size_t>(st.block_start_pc[b])];

    for (size_t pc = 0; pc < n; ++pc) {
        const MInst &mi = prog.code[pc];
        int from = pc_to_block[pc];
        switch (mi.kind) {
          case MKind::CondBr: {
            const auto &b = c.branch[pc];
            size_t tgt = static_cast<size_t>(mi.target);
            if (b.taken && starts(tgt))
                m.edges[{from, pc_to_block[tgt]}] += b.taken;
            uint64_t fall = derivedBranches(mi, c.execCount[pc]) - b.taken;
            if (fall && pc + 1 < n && starts(pc + 1))
                m.edges[{from, pc_to_block[pc + 1]}] += fall;
            break;
          }
          case MKind::Jmp: {
            size_t tgt = static_cast<size_t>(mi.target);
            if (c.execCount[pc] && starts(tgt))
                m.edges[{from, pc_to_block[tgt]}] += c.execCount[pc];
            break;
          }
          case MKind::Call:
          case MKind::Ret:
            break; // inter-function transfer: never an SFGL edge
          default:
            // Straight-line fall-through into the next block.
            if (c.execCount[pc] && pc + 1 < n && starts(pc + 1) &&
                prog.code[pc + 1].funcId == mi.funcId)
                m.edges[{from, pc_to_block[pc + 1]}] += c.execCount[pc];
            break;
        }
    }
}

/**
 * What phase detection measures a slice by: its instruction mix and
 * its memory and branch totals. These are integer sums, so the sums of
 * any run of slices are exactly the sums over that run's events, and
 * every feature, distance and merge decision comes out as it would on
 * the run's dense counters.
 */
struct SliceSums
{
    InstrMix mix;
    uint64_t accesses = 0, misses = 0, branches = 0, taken = 0;
    uint64_t retired = 0;

    void
    add(const SliceSums &o)
    {
        mix.merge(o.mix);
        accesses += o.accesses;
        misses += o.misses;
        branches += o.branches;
        taken += o.taken;
        retired += o.retired;
    }
};

std::vector<SliceSums>
sliceSums(const sim::SlicedCounters &slices,
          const isa::MachineProgram &prog)
{
    std::vector<SliceSums> sums(slices.slices.size());
    uint64_t begin = 0;
    for (size_t i = 0; i < sums.size(); ++i) {
        const sim::CounterSlice &slice = slices.slices[i];
        SliceSums &s = sums[i];
        for (const sim::PcDelta &d : slice.pcs) {
            const MInst &mi = prog.code[d.pc];
            s.mix.add(mi.cls(), d.exec);
            s.accesses += derivedAccesses(mi, d.exec);
            s.misses += d.memMisses;
            s.branches += derivedBranches(mi, d.exec);
            s.taken += d.brTaken;
        }
        s.retired = slice.end - begin;
        begin = slice.end;
    }
    return sums;
}

/** Behaviour vector of one slice or phase, the space the boundary
 *  detector measures distances in. */
struct SliceFeatures
{
    double load = 0, store = 0, branch = 0, fp = 0, other = 0;
    double missRate = 0, takenRate = 0;
};

SliceFeatures
features(const SliceSums &s)
{
    SliceFeatures f;
    f.load = s.mix.loadFraction();
    f.store = s.mix.storeFraction();
    f.branch = s.mix.branchFraction();
    f.fp = s.mix.fpFraction();
    f.other = s.mix.otherFraction();
    f.missRate =
        s.accesses ? double(s.misses) / double(s.accesses) : 0.0;
    f.takenRate =
        s.branches ? double(s.taken) / double(s.branches) : 0.0;
    return f;
}

double
featureDistance(const SliceFeatures &a, const SliceFeatures &b)
{
    return std::fabs(a.load - b.load) + std::fabs(a.store - b.store) +
           std::fabs(a.branch - b.branch) + std::fabs(a.fp - b.fp) +
           std::fabs(a.other - b.other) +
           std::fabs(a.missRate - b.missRate) +
           std::fabs(a.takenRate - b.takenRate);
}

/** One detected phase: slices [first, first + count). */
struct PhaseSeg
{
    size_t first = 0;
    size_t count = 0;
};

/**
 * Greedy adjacent-slice merge: a slice extends the current phase while
 * its behaviour vector stays within the threshold of the phase's
 * running aggregate vector; otherwise it opens a new phase. A runt
 * slice (the partial tail of the run, shorter than 1/8 of the
 * interval) never opens a phase of its own — its features are noise.
 */
std::vector<PhaseSeg>
detectPhases(const std::vector<SliceSums> &sums, uint64_t slice_length)
{
    std::vector<PhaseSeg> segs;
    if (sums.empty())
        return segs;

    auto segSums = [&](const PhaseSeg &s) {
        SliceSums total;
        for (size_t i = s.first; i < s.first + s.count; ++i)
            total.add(sums[i]);
        return total;
    };

    segs.push_back({0, 1});
    SliceFeatures cur = features(sums[0]);
    for (size_t i = 1; i < sums.size(); ++i) {
        bool runt = sums[i].retired < slice_length / 8;
        if (runt || featureDistance(cur, features(sums[i])) <=
                        kPhaseThreshold) {
            ++segs.back().count;
        } else {
            segs.push_back({i, 1});
        }
        cur = features(segSums(segs.back()));
    }

    // Undersized phases are transition artifacts: a slice straddling a
    // real boundary blends both neighbours' behaviour, lands outside
    // the threshold of either, and surfaces as a singleton phase.
    // Repeatedly fold the smallest undersized phase into whichever
    // neighbour is behaviourally closer.
    uint64_t total = 0;
    for (const SliceSums &s : sums)
        total += s.retired;
    uint64_t min_retired = static_cast<uint64_t>(
        kMinPhaseFraction * static_cast<double>(total));
    while (segs.size() > 1) {
        size_t victim = segs.size();
        uint64_t victim_retired = 0;
        for (size_t i = 0; i < segs.size(); ++i) {
            uint64_t r = segSums(segs[i]).retired;
            if (r < min_retired &&
                (victim == segs.size() || r < victim_retired)) {
                victim = i;
                victim_retired = r;
            }
        }
        if (victim == segs.size())
            break;
        size_t into;
        if (victim == 0) {
            into = 1;
        } else if (victim + 1 == segs.size()) {
            into = victim - 1;
        } else {
            SliceFeatures v = features(segSums(segs[victim]));
            double dprev = featureDistance(
                features(segSums(segs[victim - 1])), v);
            double dnext = featureDistance(
                features(segSums(segs[victim + 1])), v);
            into = dprev <= dnext ? victim - 1 : victim + 1;
        }
        size_t lo = std::min(victim, into);
        segs[lo].count += segs[lo + 1].count;
        segs.erase(segs.begin() + static_cast<ptrdiff_t>(lo) + 1);
    }
    return segs;
}

StaticSfgl
buildStaticSfgl(const ir::Module &mod, const isa::MachineProgram &prog)
{
    BSYN_ASSERT(!prog.code.empty(), "profiling an empty program");
    StaticSfgl s;
    s.pc_to_block.assign(prog.code.size(), -1);
    std::map<std::pair<int, int>, int> block_index;
    for (size_t pc = 0; pc < prog.code.size(); ++pc) {
        const MInst &mi = prog.code[pc];
        bool new_block =
            pc == 0 || prog.code[pc - 1].funcId != mi.funcId ||
            prog.code[pc - 1].irBlockId != mi.irBlockId;
        if (new_block) {
            SfglBlock b;
            b.id = static_cast<int>(s.sfgl.blocks.size());
            b.funcId = mi.funcId;
            b.irBlockId = mi.irBlockId;
            block_index[{mi.funcId, mi.irBlockId}] = b.id;
            s.sfgl.blocks.push_back(std::move(b));
            s.block_start_pc.push_back(static_cast<int>(pc));
        }
        SfglBlock &b = s.sfgl.blocks.back();
        InstrDescriptor d;
        d.op = mi.op;
        d.type = mi.type;
        d.cls = mi.cls();
        d.readsMem = mi.readsMemory();
        d.writesMem = mi.writesMemory();
        d.isControl = mi.kind == MKind::CondBr || mi.kind == MKind::Jmp ||
                      mi.kind == MKind::Ret;
        b.code.push_back(d);
        if (mi.kind == MKind::CondBr)
            b.term = SfglTerm::Branch;
        else if (mi.kind == MKind::Ret)
            b.term = SfglTerm::Ret;
        s.pc_to_block[pc] = b.id;
    }
    for (const auto &f : prog.funcs)
        s.sfgl.funcNames.push_back(f.name);

    // Loop structure from the IR CFG (headers, membership, nesting —
    // the dynamic entry counts are per-profile annotations).
    for (size_t fi = 0; fi < mod.functions.size(); ++fi) {
        const ir::Function &fn = mod.functions[fi];
        ir::Cfg cfg(fn);
        ir::Dominators dom(fn, cfg);
        ir::LoopForest loops(fn, cfg, dom);
        int loop_base = static_cast<int>(s.sfgl.loops.size());
        for (const auto &l : loops.loops()) {
            SfglLoop sl;
            sl.id = loop_base + l.id;
            auto hit = block_index.find({static_cast<int>(fi), l.header});
            if (hit == block_index.end())
                continue; // header unreachable / not lowered
            sl.header = hit->second;
            for (int b : l.blocks) {
                auto bit = block_index.find({static_cast<int>(fi), b});
                if (bit != block_index.end())
                    sl.blocks.push_back(bit->second);
            }
            sl.parent = l.parent >= 0 ? loop_base + l.parent : -1;
            sl.depth = l.depth;
            s.sfgl.loops.push_back(std::move(sl));
        }
    }

    // Innermost loop per block (static: membership never changes).
    for (auto &l : s.sfgl.loops) {
        for (int b : l.blocks) {
            SfglBlock &blk = s.sfgl.blocks[static_cast<size_t>(b)];
            if (blk.loopId < 0 ||
                s.sfgl.loops[static_cast<size_t>(blk.loopId)]
                        .blocks.size() > l.blocks.size())
                blk.loopId = l.id;
        }
    }
    return s;
}

/** Apply one run's (or phase's) measurements to a copy of the static
 *  SFGL — the per-phase and aggregate assemblies share this verbatim. */
void
annotateDynamic(Sfgl &sfgl, const RunMeasurements &dyn,
                const StaticSfgl &st, const isa::MachineProgram &prog)
{
    for (size_t b = 0; b < sfgl.blocks.size(); ++b)
        sfgl.blocks[b].execCount = dyn.blockExec[b];
    for (const auto &[edge, count] : dyn.edges)
        sfgl.blocks[static_cast<size_t>(edge.first)].succs.push_back(
            {edge.second, count});

    // Branch and memory annotations: every executed CondBr of a block
    // gets its own per-descriptor rates (a block can lower to several),
    // and the block-level rates summarize the first executed one; a PC
    // without accesses keeps miss class 0.
    const sim::InstrumentedCounters &c = dyn.counters;
    for (size_t b = 0; b < sfgl.blocks.size(); ++b) {
        SfglBlock &blk = sfgl.blocks[b];
        size_t start = static_cast<size_t>(st.block_start_pc[b]);
        bool block_annotated = false;
        for (size_t i = 0; i < blk.code.size(); ++i) {
            size_t pc = start + i;
            InstrDescriptor &d = blk.code[i];
            const MInst &mi = prog.code[pc];
            if (uint64_t accesses = derivedAccesses(mi, c.execCount[pc]))
                d.missClass =
                    MemAccessStats{accesses, c.memMisses[pc]}.missClass();
            uint64_t executions = derivedBranches(mi, c.execCount[pc]);
            if (executions == 0)
                continue;
            BranchStats bs{executions, c.branch[pc].taken,
                           c.branch[pc].transitions};
            d.branchExecutions = bs.executions;
            d.takenRate = bs.takenRate();
            d.transitionRate = bs.transitionRate();
            if (!block_annotated && blk.term == SfglTerm::Branch) {
                blk.takenRate = bs.takenRate();
                blk.transitionRate = bs.transitionRate();
                blk.easyBranch = isEasyBranch(blk.transitionRate);
                block_annotated = true;
            }
        }
    }

    // Loop entry counts and average iterations.
    for (auto &l : sfgl.loops) {
        std::set<int> members(l.blocks.begin(), l.blocks.end());
        uint64_t entries = 0;
        for (const auto &b : sfgl.blocks) {
            if (members.count(b.id))
                continue;
            for (const auto &e : b.succs)
                if (e.to == l.header)
                    entries += e.count;
        }
        uint64_t header_exec =
            sfgl.blocks[static_cast<size_t>(l.header)].execCount;
        if (entries == 0)
            entries = header_exec > 0 ? 1 : 0;
        l.entries = entries;
        l.avgIterations =
            entries ? double(header_exec) / double(entries) : 0.0;
    }
}

StatisticalProfile
assemble(const StaticSfgl &st, const isa::MachineProgram &prog,
         const RunMeasurements &run)
{
    BSYN_ASSERT(run.counters.execCount.size() == prog.code.size() &&
                    run.blockExec.size() == st.block_start_pc.size(),
                "profile measurements do not match the program");
    const sim::SlicedCounters &slices = run.slices;

    StatisticalProfile profile;
    profile.workloadName = prog.name;
    profile.dynamicInstructions = run.exec.instructions;
    profile.mix = run.mix;
    profile.sfgl = st.sfgl;
    annotateDynamic(profile.sfgl, run, st, prog);

    // --- Phase detection over the slice stream. Each phase's
    // sub-profile is reconstructed from the sum of its slices' deltas,
    // so a measurement source only has to cut the same slices at the
    // same boundaries (sim::SliceRecorder) to agree on every phase.
    if (!slices.slices.empty()) {
        profile.sliceLength = slices.sliceLength;
        profile.sliceCount = slices.slices.size();

        std::vector<PhaseSeg> segs =
            detectPhases(sliceSums(slices, prog), slices.sliceLength);
        if (segs.size() > 1) {
            // One dense buffer: each phase adds its slices' deltas and
            // zeroes what it touched when it is done.
            size_t n = prog.code.size();
            RunMeasurements pd;
            sim::InstrumentedCounters &c = pd.counters;
            c.execCount.assign(n, 0);
            c.memMisses.assign(n, 0);
            c.branch.assign(n, sim::InstrumentedCounters::Branch());
            auto eachDelta = [&](const PhaseSeg &seg, auto &&fn) {
                for (size_t i = seg.first; i < seg.first + seg.count; ++i)
                    for (const sim::PcDelta &d : slices.slices[i].pcs)
                        fn(d);
            };
            for (const PhaseSeg &seg : segs) {
                eachDelta(seg, [&](const sim::PcDelta &d) {
                    c.execCount[d.pc] += d.exec;
                    c.memMisses[d.pc] += d.memMisses;
                    c.branch[d.pc].taken += d.brTaken;
                    c.branch[d.pc].transitions += d.brTransitions;
                });
                pd.mix = InstrMix();
                pd.edges.clear();
                reconstructFromCounters(prog, st, pd);

                size_t last = seg.first + seg.count - 1;
                PhaseProfile ph;
                ph.dynamicInstructions =
                    slices.slices[last].end -
                    (seg.first ? slices.slices[seg.first - 1].end : 0);
                ph.firstSlice = seg.first;
                ph.sliceCount = seg.count;
                ph.mix = pd.mix;
                ph.sfgl = st.sfgl;
                annotateDynamic(ph.sfgl, pd, st, prog);
                profile.phases.push_back(std::move(ph));

                eachDelta(seg, [&](const sim::PcDelta &d) {
                    c.execCount[d.pc] = 0;
                    c.memMisses[d.pc] = 0;
                    c.branch[d.pc] = sim::InstrumentedCounters::Branch();
                });
            }
        }
    }

    // A single phase always mirrors the aggregate exactly (matching
    // what deserializing the compact single-phase JSON materializes).
    if (profile.phases.empty()) {
        PhaseProfile only;
        only.dynamicInstructions = profile.dynamicInstructions;
        only.firstSlice = 0;
        only.sliceCount = profile.sliceCount ? profile.sliceCount : 1;
        only.mix = profile.mix;
        only.sfgl = profile.sfgl;
        profile.phases.push_back(std::move(only));
    }
    return profile;
}

} // namespace

sim::SliceOptions
ProfileOptions::sliceOptions() const
{
    sim::SliceOptions so;
    so.baseSliceLength = sliceBaseLength;
    so.maxSlices = maxSliceCheckpoints;
    return so;
}

std::string
ProfileOptions::fingerprint() const
{
    return strprintf("cache=%llu/%u/%u;slice=%llu;maxSlices=%u",
                     static_cast<unsigned long long>(profilingCache.sizeBytes),
                     profilingCache.lineBytes, profilingCache.associativity,
                     static_cast<unsigned long long>(sliceBaseLength),
                     maxSliceCheckpoints);
}

StatisticalProfile
profileWorkload(const ir::Module &mod, const isa::MachineProgram &prog,
                const ProfileOptions &opts)
{
    StaticSfgl st = buildStaticSfgl(mod, prog);
    RunMeasurements run;
    sim::DecodedProgram decoded(prog);
    run.exec = sim::executeInstrumentedSliced(
        decoded, opts.profilingCache, run.counters, run.slices,
        opts.sliceOptions());
    reconstructFromCounters(prog, st, run);
    return assemble(st, prog, run);
}

StatisticalProfile
assembleProfile(const ir::Module &mod, const isa::MachineProgram &prog,
                const RunMeasurements &run)
{
    return assemble(buildStaticSfgl(mod, prog), prog, run);
}

StatisticalProfile
profileModule(const ir::Module &mod, const ProfileOptions &opts)
{
    isa::LoweringOptions lopts;
    lopts.applyFusion = false; // clean load/op/store sequences
    isa::MachineProgram prog =
        isa::lower(mod, isa::targetX86(), lopts);
    return profileWorkload(mod, prog, opts);
}

} // namespace bsyn::profile
