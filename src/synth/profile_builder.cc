#include "synth/profile_builder.hh"

#include <cmath>

#include "support/error.hh"

namespace bsyn::synth
{

using profile::InstrDescriptor;
using profile::SfglBlock;
using profile::SfglLoop;
using profile::SfglTerm;

ProfileBuilder::ProfileBuilder(std::string name)
    : workloadName(std::move(name))
{}

int
ProfileBuilder::addLoop(double avg_iterations, uint64_t entries,
                        int parent)
{
    BSYN_ASSERT(avg_iterations >= 1.0, "loops iterate at least once");
    BSYN_ASSERT(parent < static_cast<int>(loops.size()),
                "parent loop %d not declared yet", parent);
    loops.push_back({avg_iterations, entries, parent});
    return static_cast<int>(loops.size()) - 1;
}

int
ProfileBuilder::addBlock(int loop, const BlockSpec &spec)
{
    BSYN_ASSERT(loop < static_cast<int>(loops.size()),
                "loop %d not declared", loop);
    blocks.emplace_back(loop, spec);
    return static_cast<int>(blocks.size()) - 1;
}

profile::StatisticalProfile
ProfileBuilder::build() const
{
    profile::StatisticalProfile prof;
    prof.workloadName = workloadName;
    prof.sfgl.funcNames.push_back("spec");

    // Every declared loop receives an implicit header block (executes
    // entries * iterations times, tiny integer body). This gives each
    // loop a distinct header with a well-defined execution count, which
    // the skeleton generator's probability arithmetic relies on.
    std::vector<std::pair<int, BlockSpec>> all_blocks = blocks;
    std::vector<int> header_of(loops.size(), -1);
    for (size_t li = 0; li < loops.size(); ++li) {
        BlockSpec header;
        header.execCount = static_cast<uint64_t>(
            std::llround(double(loops[li].entries) *
                         loops[li].iterations));
        header.loads = 0;
        header.stores = 0;
        header.intOps = 2;
        header.fpOps = 0;
        header_of[li] = static_cast<int>(all_blocks.size());
        all_blocks.emplace_back(static_cast<int>(li), header);
    }

    // Blocks.
    for (size_t i = 0; i < all_blocks.size(); ++i) {
        const auto &[loop, spec] = all_blocks[i];
        SfglBlock b;
        b.id = static_cast<int>(i);
        b.funcId = 0;
        b.irBlockId = b.id;
        b.execCount = spec.execCount;
        b.loopId = loop;

        auto push = [&](ir::Opcode op, isa::MClass cls, bool reads,
                        bool writes, int miss_class, bool fp) {
            InstrDescriptor d;
            d.op = op;
            d.type = fp ? ir::Type::F64 : ir::Type::U32;
            d.cls = cls;
            d.readsMem = reads;
            d.writesMem = writes;
            d.missClass = miss_class;
            b.code.push_back(d);
        };
        for (int k = 0; k < spec.loads; ++k)
            push(ir::Opcode::Load, isa::MClass::Load, true, false,
                 spec.loadMissClass, spec.fpMemory);
        for (int k = 0; k < spec.intOps; ++k)
            push(k % 3 == 2 ? ir::Opcode::Xor : ir::Opcode::Add,
                 isa::MClass::IntAlu, false, false, 0, false);
        for (int k = 0; k < spec.fpOps; ++k)
            push(k % 2 ? ir::Opcode::FMul : ir::Opcode::FAdd,
                 k % 2 ? isa::MClass::FpMul : isa::MClass::FpAlu, false,
                 false, 0, true);
        for (int k = 0; k < spec.stores; ++k)
            push(ir::Opcode::Store, isa::MClass::Store, false, true,
                 spec.storeMissClass, spec.fpMemory);

        if (spec.endsInBranch) {
            b.term = SfglTerm::Branch;
            b.takenRate = spec.takenRate;
            b.transitionRate = spec.transitionRate;
            b.easyBranch = profile::isEasyBranch(spec.transitionRate);
            InstrDescriptor br;
            br.op = ir::Opcode::Nop;
            br.cls = isa::MClass::Branch;
            br.isControl = true;
            // Measured profiles annotate every CondBr descriptor with
            // its own rates; declared ones carry them too so consumers
            // can treat both shapes uniformly.
            br.branchExecutions = spec.execCount;
            br.takenRate = spec.takenRate;
            br.transitionRate = spec.transitionRate;
            b.code.push_back(br);
        } else {
            b.term = SfglTerm::Jump;
        }
        prof.sfgl.blocks.push_back(std::move(b));
    }

    // Loops: membership = declared blocks of the loop and of its
    // descendants; header = the loop's first declared block.
    for (size_t li = 0; li < loops.size(); ++li) {
        SfglLoop l;
        l.id = static_cast<int>(li);
        l.parent = loops[li].parent;
        l.entries = loops[li].entries;
        l.avgIterations = loops[li].iterations;
        int depth = 1;
        for (int p = l.parent; p >= 0;
             p = loops[static_cast<size_t>(p)].parent)
            ++depth;
        l.depth = depth;

        auto isInside = [&](int candidate) {
            for (int cur = candidate; cur >= 0;
                 cur = loops[static_cast<size_t>(cur)].parent)
                if (cur == static_cast<int>(li))
                    return true;
            return false;
        };
        for (size_t bi = 0; bi < all_blocks.size(); ++bi)
            if (all_blocks[bi].first >= 0 &&
                isInside(all_blocks[bi].first))
                l.blocks.push_back(static_cast<int>(bi));
        l.header = header_of[li];
        prof.sfgl.loops.push_back(std::move(l));
    }

    // Edges: scale-down and skeleton generation recompute loop entry
    // counts from edges into the loop headers, so the declared entry
    // counts must be materialized as edges — from the parent loop's
    // header for nested loops, and from an implicit function-entry
    // block for top-level loops.
    {
        SfglBlock entry;
        entry.id = static_cast<int>(prof.sfgl.blocks.size());
        entry.funcId = 0;
        entry.irBlockId = entry.id;
        entry.execCount = 1;
        InstrDescriptor nop;
        nop.op = ir::Opcode::MovImm;
        nop.cls = isa::MClass::IntAlu;
        entry.code.push_back(nop);
        int entry_id = entry.id;
        prof.sfgl.blocks.push_back(std::move(entry));

        for (size_t li = 0; li < loops.size(); ++li) {
            int from = loops[li].parent >= 0
                           ? header_of[static_cast<size_t>(
                                 loops[li].parent)]
                           : entry_id;
            prof.sfgl.blocks[static_cast<size_t>(from)].succs.push_back(
                {header_of[li], loops[li].entries});
        }
    }

    // Totals.
    for (const auto &b : prof.sfgl.blocks) {
        for (const auto &d : b.code)
            prof.mix.add(d.cls, b.execCount);
    }
    prof.dynamicInstructions = prof.sfgl.dynamicInstructions();
    return prof;
}

} // namespace bsyn::synth
