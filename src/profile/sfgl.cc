#include "profile/sfgl.hh"

#include <charconv>

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

namespace
{

Json
descriptorToJson(const InstrDescriptor &d)
{
    Json j = Json::array();
    j.push(Json(static_cast<int>(d.op)));
    j.push(Json(static_cast<int>(d.type)));
    j.push(Json(static_cast<int>(d.cls)));
    int flags = (d.readsMem ? 1 : 0) | (d.writesMem ? 2 : 0) |
                (d.isControl ? 4 : 0);
    j.push(Json(flags));
    j.push(Json(d.missClass));
    j.push(Json(d.branchExecutions));
    j.push(Json(d.takenRate));
    j.push(Json(d.transitionRate));
    return j;
}

/**
 * @p v as an index into @p n entries named @p what ("block", "loop");
 * -1 passes too when @p allow_none. Anything else is fatal, naming the
 * field @p path() — built only on failure, so a valid load pays for no
 * strings.
 */
template <typename Path>
int
checkedId(int64_t v, size_t n, const char *what, bool allow_none,
          const Path &path)
{
    if ((allow_none && v == -1) ||
        (v >= 0 && static_cast<uint64_t>(v) < n))
        return static_cast<int>(v);
    fatal("%s: %s %lld out of range (%zu %ss)", path().c_str(), what,
          static_cast<long long>(v), n, what);
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

/** The descriptor at @p path() ("sfgl.blocks[3].code[0]"). */
template <typename Path>
InstrDescriptor
descriptorFromJson(const Json &j, const Path &path)
{
    auto at = [&path](const char *field) {
        return [&path, field] { return path() + "." + field; };
    };
    InstrDescriptor d;
    d.op = static_cast<ir::Opcode>(j.at(0).asInt());
    d.type = static_cast<ir::Type>(j.at(1).asInt());
    d.cls = static_cast<isa::MClass>(checkedEnum(
        j.at(2).asInt(), InstrMix::numClasses, "instruction class", path));
    int flags = static_cast<int>(j.at(3).asInt());
    d.readsMem = flags & 1;
    d.writesMem = flags & 2;
    d.isControl = flags & 4;
    d.missClass = checkedEnum(j.at(4).asInt(), numMissClasses,
                              "miss class", path);
    // Pre-v2 profiles (5-element descriptors) lack the per-branch
    // annotation; load them with the fields at their defaults.
    if (j.size() > 7) {
        d.branchExecutions =
            checkedCount(j.at(5).asNumber(), at("branchExecutions"));
        d.takenRate = checkedRate(j.at(6).asNumber(), at("takenRate"));
        d.transitionRate =
            checkedTransitionRate(j.at(7).asNumber(), at("transitionRate"));
    }
    return d;
}

} // namespace

void
rejectProfileValue(double v, const std::string &field, const char *what)
{
    // v as the shortest text that reads back as it: -1, 1.5, 1e+300.
    char text[32];
    *std::to_chars(text, text + sizeof text - 1, v).ptr = '\0';
    fatal("%s: %s is not %s", field.c_str(), text, what);
}

Json
Sfgl::toJson() const
{
    Json root = Json::object();

    Json jblocks = Json::array();
    for (const auto &b : blocks) {
        Json jb = Json::object();
        jb.set("id", Json(b.id));
        jb.set("func", Json(b.funcId));
        jb.set("irBlock", Json(b.irBlockId));
        jb.set("exec", Json(b.execCount));
        Json code = Json::array();
        for (const auto &d : b.code)
            code.push(descriptorToJson(d));
        jb.set("code", std::move(code));
        Json succs = Json::array();
        for (const auto &e : b.succs) {
            Json je = Json::array();
            je.push(Json(e.to));
            je.push(Json(e.count));
            succs.push(std::move(je));
        }
        jb.set("succs", std::move(succs));
        jb.set("term", Json(static_cast<int>(b.term)));
        jb.set("takenRate", Json(b.takenRate));
        jb.set("transitionRate", Json(b.transitionRate));
        jb.set("easy", Json(b.easyBranch));
        jb.set("loop", Json(b.loopId));
        jblocks.push(std::move(jb));
    }
    root.set("blocks", std::move(jblocks));

    Json jloops = Json::array();
    for (const auto &l : loops) {
        Json jl = Json::object();
        jl.set("id", Json(l.id));
        jl.set("header", Json(l.header));
        Json mem = Json::array();
        for (int b : l.blocks)
            mem.push(Json(b));
        jl.set("blocks", std::move(mem));
        jl.set("parent", Json(l.parent));
        jl.set("depth", Json(l.depth));
        jl.set("entries", Json(l.entries));
        jl.set("avgIterations", Json(l.avgIterations));
        jloops.push(std::move(jl));
    }
    root.set("loops", std::move(jloops));

    Json names = Json::array();
    for (const auto &n : funcNames)
        names.push(Json(n));
    root.set("funcNames", std::move(names));
    return root;
}

Sfgl
Sfgl::fromJson(const Json &root, const std::string &path)
{
    // Profiles cross organizational boundaries, so every id is checked
    // on this one path all loads take (CLI, artifact cache, phase
    // sub-profiles); the synthesizer then indexes by them unchecked.
    Sfgl g;
    const Json &jblocks = root.get("blocks");
    const Json &jloops = root.get("loops");
    const size_t nblocks = jblocks.size();
    const size_t nloops = jloops.size();
    for (size_t i = 0; i < nblocks; ++i) {
        const Json &jb = jblocks.at(i);
        auto at = [&path, i](const char *field) {
            return [&path, i, field] {
                return strprintf("%s.blocks[%zu].%s", path.c_str(), i,
                                 field);
            };
        };
        SfglBlock b;
        int64_t id = jb.get("id").asInt();
        if (id != static_cast<int64_t>(i))
            fatal("%s.blocks[%zu].id: %lld, expected %zu", path.c_str(), i,
                  static_cast<long long>(id), i);
        b.id = static_cast<int>(i);
        b.funcId = static_cast<int>(jb.get("func").asInt());
        b.irBlockId = static_cast<int>(jb.get("irBlock").asInt());
        b.execCount = checkedCount(jb.get("exec").asNumber(), at("exec"));
        const Json &code = jb.get("code");
        for (size_t k = 0; k < code.size(); ++k)
            b.code.push_back(descriptorFromJson(code.at(k), [&path, i, k] {
                return strprintf("%s.blocks[%zu].code[%zu]", path.c_str(),
                                 i, k);
            }));
        const Json &succs = jb.get("succs");
        for (size_t k = 0; k < succs.size(); ++k) {
            auto edge = [&path, i, k] {
                return strprintf("%s.blocks[%zu].succs[%zu]", path.c_str(),
                                 i, k);
            };
            SfglEdge e;
            e.to = checkedId(succs.at(k).at(0).asInt(), nblocks, "block",
                             false, edge);
            e.count = checkedCount(succs.at(k).at(1).asNumber(), edge);
            b.succs.push_back(e);
        }
        b.term = static_cast<SfglTerm>(
            checkedEnum(jb.get("term").asInt(), 3, "terminator", at("term")));
        b.takenRate =
            checkedRate(jb.get("takenRate").asNumber(), at("takenRate"));
        b.transitionRate = checkedTransitionRate(
            jb.get("transitionRate").asNumber(), at("transitionRate"));
        b.easyBranch = jb.get("easy").asBool();
        b.loopId = checkedId(jb.get("loop").asInt(), nloops, "loop", true,
                             at("loop"));
        g.blocks.push_back(std::move(b));
    }
    for (size_t i = 0; i < nloops; ++i) {
        const Json &jl = jloops.at(i);
        auto at = [&path, i](const char *field) {
            return [&path, i, field] {
                return strprintf("%s.loops[%zu].%s", path.c_str(), i, field);
            };
        };
        SfglLoop l;
        int64_t id = jl.get("id").asInt();
        if (id != static_cast<int64_t>(i))
            fatal("%s.loops[%zu].id: %lld, expected %zu", path.c_str(), i,
                  static_cast<long long>(id), i);
        l.id = static_cast<int>(i);
        l.header = checkedId(jl.get("header").asInt(), nblocks, "block",
                             false, at("header"));
        const Json &mem = jl.get("blocks");
        for (size_t k = 0; k < mem.size(); ++k)
            l.blocks.push_back(checkedId(
                mem.at(k).asInt(), nblocks, "block", false, [&path, i, k] {
                    return strprintf("%s.loops[%zu].blocks[%zu]",
                                     path.c_str(), i, k);
                }));
        l.parent = checkedId(jl.get("parent").asInt(), nloops, "loop",
                             true, at("parent"));
        l.depth = static_cast<int>(jl.get("depth").asInt());
        l.entries = checkedCount(jl.get("entries").asNumber(), at("entries"));
        l.avgIterations = jl.get("avgIterations").asNumber();
        g.loops.push_back(std::move(l));
    }
    // The synthesizer walks parent chains to the outermost loop, so
    // each must end: an acyclic chain visits fewer than nloops loops.
    for (size_t i = 0; i < nloops; ++i) {
        size_t steps = 0;
        for (int p = g.loops[i].parent; p >= 0;
             p = g.loops[static_cast<size_t>(p)].parent)
            if (++steps >= nloops)
                fatal("%s.loops[%zu].parent: the parent chain is a cycle",
                      path.c_str(), i);
    }
    const Json &names = root.get("funcNames");
    for (size_t i = 0; i < names.size(); ++i)
        g.funcNames.push_back(names.at(i).asString());
    return g;
}

} // namespace bsyn::profile
