#include "profile/sfgl.hh"

#include <climits>

#include "profile/instr_mix.hh"
#include "support/error.hh"
#include "support/string_util.hh"

namespace bsyn::profile
{

size_t
SfglBlock::bodySize() const
{
    size_t n = 0;
    for (const auto &d : code)
        if (!d.isControl)
            ++n;
    return n;
}

uint64_t
Sfgl::dynamicBodyInstructions() const
{
    uint64_t total = 0;
    for (const auto &b : blocks)
        total += b.execCount * b.bodySize();
    return total;
}

uint64_t
Sfgl::dynamicInstructions() const
{
    uint64_t total = 0;
    for (const auto &b : blocks)
        total += b.execCount * b.code.size();
    return total;
}

void
Sfgl::countEntries(SfglLoop &l) const
{
    std::vector<bool> member(blocks.size());
    for (int b : l.blocks)
        member[static_cast<size_t>(b)] = true;
    uint64_t entries = 0;
    for (size_t b = 0; b < blocks.size(); ++b)
        if (!member[b])
            for (const SfglEdge &e : blocks[b].succs)
                if (e.to == l.header)
                    entries += e.count;
    uint64_t header = blocks[static_cast<size_t>(l.header)].execCount;
    if (entries == 0 && header > 0)
        entries = 1;
    l.entries = entries;
    l.avgIterations = entries ? double(header) / double(entries) : 0.0;
}

namespace
{

/**
 * Fails naming the field @p path() unless @p v indexes one of @p n
 * entries named @p what ("block", "loop"); -1 passes too when
 * @p allow_none. The path is built only on failure, so a valid load
 * pays for no strings.
 */
template <typename Path>
void
checkId(int v, size_t n, const char *what, bool allow_none,
        const Path &path)
{
    if ((allow_none && v == -1) ||
        (v >= 0 && static_cast<size_t>(v) < n))
        return;
    fatal("%s: %s %d out of range (%zu %ss)", path().c_str(), what, v, n,
          what);
}

/** @p v as a value of an enumeration with @p n members. */
template <typename Path>
int
checkedEnum(int64_t v, size_t n, const char *what, const Path &path)
{
    if (v < 0 || static_cast<uint64_t>(v) >= n)
        fatal("%s: %s %lld out of range (0..%zu)", path().c_str(), what,
              static_cast<long long>(v), n - 1);
    return static_cast<int>(v);
}

/**
 * @p v, an integral field (an id, an enum, a descriptor field), as an
 * int: finite, integral and within int's range. Anything else is
 * fatal, naming the field @p path().
 */
template <typename Path>
int
integer(double v, const Path &path)
{
    if (v == std::floor(v) && v >= INT_MIN && v <= INT_MAX)
        return static_cast<int>(v);
    rejectValue(v, path(), "an integer in [-2^31, 2^31)");
}

/** The id of entry @p i of a table, at @p cur, which must be @p i. */
void
checkIndex(size_t i, JsonCursor &cur)
{
    int id = integer(cur.number(), [&cur] { return cur.path(); });
    if (static_cast<int64_t>(id) != static_cast<int64_t>(i))
        cur.fail(strprintf("%d, expected %zu", id, i));
}

/** The numbers of the array at @p cur, into @p v: fails unless there
 *  are @p n or @p alt. @return how many there were. */
size_t
readNumbers(JsonCursor &cur, double *v, size_t n, size_t alt)
{
    size_t count = 0;
    cur.enterArray();
    while (cur.nextElement()) {
        double x = cur.number();
        if (count < n)
            v[count] = x;
        ++count;
    }
    if (count != n && count != alt)
        cur.fail(alt == n ? strprintf("expected %zu numbers, not %zu", n,
                                      count)
                          : strprintf("expected %zu or %zu numbers, not %zu",
                                      alt, n, count));
    return count;
}

/** The descriptor at @p cur ("sfgl.blocks[3].code[0]"): [op, type,
 *  class, flags, missClass], then since v2 [branchExecutions,
 *  takenRate, transitionRate]. */
InstrDescriptor
readDescriptor(JsonCursor &cur)
{
    double v[8];
    size_t n = readNumbers(cur, v, 8, 5);
    auto here = [&cur] { return cur.path(); };
    auto at = [&cur](const char *field) {
        return [&cur, field] { return cur.path() + "." + field; };
    };
    InstrDescriptor d; // Nop and F64 are the last opcode and type
    d.op = static_cast<ir::Opcode>(checkedEnum(
        integer(v[0], at("op")), size_t(ir::Opcode::Nop) + 1, "opcode", here));
    d.type = static_cast<ir::Type>(checkedEnum(
        integer(v[1], at("type")), size_t(ir::Type::F64) + 1, "type", here));
    d.cls = static_cast<isa::MClass>(
        checkedEnum(integer(v[2], at("class")), InstrMix::numClasses,
                    "instruction class", here));
    int flags = checkedEnum(integer(v[3], at("flags")), 8, "flags", here);
    d.readsMem = flags & 1;
    d.writesMem = flags & 2;
    d.isControl = flags & 4;
    d.missClass = checkedEnum(integer(v[4], at("missClass")),
                              numMissClasses, "miss class", here);
    // Pre-v2 profiles lack the per-branch annotation; load them with
    // the fields at their defaults.
    if (n == 8) {
        d.branchExecutions = checkedCount(v[5], at("branchExecutions"));
        d.takenRate = checkedRate(v[6], at("takenRate"));
        d.transitionRate = checkedTransitionRate(v[7], at("transitionRate"));
    }
    return d;
}

/** The edge at @p cur ("sfgl.blocks[3].succs[1]"): [to, count]. */
SfglEdge
readEdge(JsonCursor &cur)
{
    double v[2];
    readNumbers(cur, v, 2, 2);
    auto here = [&cur] { return cur.path(); };
    SfglEdge e;
    e.to = integer(v[0], here);
    e.count = checkedCount(v[1], here);
    return e;
}

constexpr std::string_view kBlockFields[] = {
    "id",   "func",      "irBlock",        "exec", "code", "succs",
    "term", "takenRate", "transitionRate", "easy", "loop"};

/** Block @p i of the graph, at @p cur. */
SfglBlock
readBlock(JsonCursor &cur, size_t i)
{
    auto here = [&cur] { return cur.path(); };
    SfglBlock b;
    b.id = static_cast<int>(i);
    cur.readObject(kBlockFields, 0, [&](size_t field) {
        switch (field) {
          case 0: checkIndex(i, cur); break;
          case 1: b.funcId = integer(cur.number(), here); break;
          case 2:
            b.irBlockId = checkedEnum(integer(cur.number(), here), INT_MAX,
                                      "IR block", here);
            break;
          case 3: b.execCount = checkedCount(cur.number(), here); break;
          case 4:
            cur.enterArray();
            while (cur.nextElement())
                b.code.push_back(readDescriptor(cur));
            break;
          case 5:
            cur.enterArray();
            while (cur.nextElement())
                b.succs.push_back(readEdge(cur));
            break;
          case 6:
            b.term = static_cast<SfglTerm>(checkedEnum(
                integer(cur.number(), here), 3, "terminator", here));
            break;
          case 7: b.takenRate = checkedRate(cur.number(), here); break;
          case 8:
            b.transitionRate = checkedTransitionRate(cur.number(), here);
            break;
          case 9: b.easyBranch = cur.boolean(); break;
          case 10: b.loopId = integer(cur.number(), here); break;
        }
    });
    return b;
}

constexpr std::string_view kLoopFields[] = {
    "id", "header", "blocks", "parent", "depth", "entries", "avgIterations"};

/** Loop @p i of the graph, at @p cur. */
SfglLoop
readLoop(JsonCursor &cur, size_t i)
{
    auto here = [&cur] { return cur.path(); };
    SfglLoop l;
    l.id = static_cast<int>(i);
    cur.readObject(kLoopFields, 0, [&](size_t field) {
        switch (field) {
          case 0: checkIndex(i, cur); break;
          case 1: l.header = integer(cur.number(), here); break;
          case 2:
            cur.enterArray();
            while (cur.nextElement())
                l.blocks.push_back(integer(cur.number(), here));
            break;
          case 3: l.parent = integer(cur.number(), here); break;
          case 4: l.depth = integer(cur.number(), here); break;
          case 5: l.entries = checkedCount(cur.number(), here); break;
          case 6:
            l.avgIterations = cur.number();
            if (!(l.avgIterations >= 0 && l.avgIterations < 0x1p53))
                rejectValue(l.avgIterations, here(),
                            "a mean count in [0, 2^53)");
            break;
        }
    });
    return l;
}

void
writeDescriptor(std::string &out, const InstrDescriptor &d)
{
    int flags = (d.readsMem ? 1 : 0) | (d.writesMem ? 2 : 0) |
                (d.isControl ? 4 : 0);
    const double v[] = {double(d.op),
                        double(d.type),
                        double(d.cls),
                        double(flags),
                        double(d.missClass),
                        double(d.branchExecutions),
                        d.takenRate,
                        d.transitionRate};
    formatArray(out, v, [](std::string &o, double x) { formatNumber(o, x); });
}

} // namespace

void
Sfgl::writeJson(std::string &out) const
{
    // Members in a fixed order: the bytes are the profile's identity
    // (artifact-cache keys hash them).
    auto num = [&out](const char *key, double v) {
        out += key;
        formatNumber(out, v);
    };
    out += "{\"blocks\":";
    formatArray(out, blocks, [&](std::string &, const SfglBlock &b) {
        num("{\"id\":", b.id);
        num(",\"func\":", b.funcId);
        num(",\"irBlock\":", b.irBlockId);
        num(",\"exec\":", double(b.execCount));
        out += ",\"code\":";
        formatArray(out, b.code, writeDescriptor);
        out += ",\"succs\":";
        formatArray(out, b.succs, [&](std::string &, const SfglEdge &e) {
            num("[", e.to);
            num(",", double(e.count));
            out += ']';
        });
        num(",\"term\":", static_cast<int>(b.term));
        num(",\"takenRate\":", b.takenRate);
        num(",\"transitionRate\":", b.transitionRate);
        out += b.easyBranch ? ",\"easy\":true" : ",\"easy\":false";
        num(",\"loop\":", b.loopId);
        out += '}';
    });
    out += ",\"loops\":";
    formatArray(out, loops, [&](std::string &, const SfglLoop &l) {
        num("{\"id\":", l.id);
        num(",\"header\":", l.header);
        out += ",\"blocks\":";
        formatArray(out, l.blocks,
                    [](std::string &o, int b) { formatNumber(o, b); });
        num(",\"parent\":", l.parent);
        num(",\"depth\":", l.depth);
        num(",\"entries\":", double(l.entries));
        num(",\"avgIterations\":", l.avgIterations);
        out += '}';
    });
    out += ",\"funcNames\":";
    formatArray(out, funcNames, [](std::string &o, const std::string &n) {
        escapeString(o, n);
    });
    out += '}';
}

Sfgl
Sfgl::readJson(JsonCursor &cur)
{
    static constexpr std::string_view fields[] = {"blocks", "loops",
                                                  "funcNames"};
    Sfgl g;
    cur.readObject(fields, 0, [&](size_t field) {
        cur.enterArray();
        while (cur.nextElement()) {
            if (field == 0)
                g.blocks.push_back(readBlock(cur, g.blocks.size()));
            else if (field == 1)
                g.loops.push_back(readLoop(cur, g.loops.size()));
            else
                g.funcNames.push_back(cur.string());
        }
    });

    // Profiles cross organizational boundaries, so every reference is
    // checked on this one path all loads take (CLI, artifact cache,
    // phase sub-profiles); the synthesizer then indexes by them
    // unchecked. The cursor now names the graph ("phases[1].sfgl").
    const size_t nblocks = g.blocks.size();
    const size_t nloops = g.loops.size();
    auto at = [&cur](const char *table, size_t i, const char *field) {
        return [&cur, table, i, field] {
            return strprintf("%s.%s[%zu].%s", cur.path().c_str(), table, i,
                             field);
        };
    };
    for (size_t i = 0; i < nblocks; ++i) {
        const SfglBlock &b = g.blocks[i];
        for (size_t k = 0; k < b.succs.size(); ++k)
            checkId(b.succs[k].to, nblocks, "block", false, [&cur, i, k] {
                return strprintf("%s.blocks[%zu].succs[%zu]",
                                 cur.path().c_str(), i, k);
            });
        checkId(b.loopId, nloops, "loop", true, at("blocks", i, "loop"));
        checkId(b.funcId, g.funcNames.size(), "function", false,
                at("blocks", i, "func"));
    }
    for (size_t i = 0; i < nloops; ++i) {
        const SfglLoop &l = g.loops[i];
        checkId(l.header, nblocks, "block", false, at("loops", i, "header"));
        for (size_t k = 0; k < l.blocks.size(); ++k)
            checkId(l.blocks[k], nblocks, "block", false, [&cur, i, k] {
                return strprintf("%s.loops[%zu].blocks[%zu]",
                                 cur.path().c_str(), i, k);
            });
        checkId(l.parent, nloops, "loop", true, at("loops", i, "parent"));
        if (l.depth < 1 || static_cast<size_t>(l.depth) > nloops)
            fatal("%s: depth %d out of range (1..%zu)",
                  at("loops", i, "depth")().c_str(), l.depth, nloops);
    }
    // The synthesizer walks parent chains to the outermost loop, so
    // each must end: an acyclic chain visits fewer than nloops loops.
    for (size_t i = 0; i < nloops; ++i) {
        size_t steps = 0;
        for (int p = g.loops[i].parent; p >= 0;
             p = g.loops[static_cast<size_t>(p)].parent)
            if (++steps >= nloops)
                fatal("%s.loops[%zu].parent: the parent chain is a cycle",
                      cur.path().c_str(), i);
    }
    return g;
}

} // namespace bsyn::profile
