#include "oracle/profile_json.hh"

namespace bsyn::oracle
{

using namespace profile;

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

uint64_t
count(const Json &j)
{
    return static_cast<uint64_t>(j.asNumber());
}

InstrDescriptor
descriptorFromJson(const Json &j)
{
    InstrDescriptor d;
    d.op = static_cast<ir::Opcode>(j.at(0).asInt());
    d.type = static_cast<ir::Type>(j.at(1).asInt());
    d.cls = static_cast<isa::MClass>(j.at(2).asInt());
    int flags = static_cast<int>(j.at(3).asInt());
    d.readsMem = flags & 1;
    d.writesMem = flags & 2;
    d.isControl = flags & 4;
    d.missClass = static_cast<int>(j.at(4).asInt());
    // Pre-v2 profiles (5-element descriptors) lack the per-branch
    // annotation.
    if (j.size() > 7) {
        d.branchExecutions = count(j.at(5));
        d.takenRate = j.at(6).asNumber();
        d.transitionRate = j.at(7).asNumber();
    }
    return d;
}

InstrMix
mixFromJson(const Json &j)
{
    InstrMix mix;
    for (size_t i = 0; i < InstrMix::numClasses && i < j.size(); ++i)
        mix.add(static_cast<isa::MClass>(i), count(j.at(i)));
    return mix;
}

Sfgl
sfglFromJson(const Json &root)
{
    Sfgl g;
    const Json &jblocks = root.get("blocks");
    for (size_t i = 0; i < jblocks.size(); ++i) {
        const Json &jb = jblocks.at(i);
        SfglBlock b;
        b.id = static_cast<int>(jb.get("id").asInt());
        b.funcId = static_cast<int>(jb.get("func").asInt());
        b.irBlockId = static_cast<int>(jb.get("irBlock").asInt());
        b.execCount = count(jb.get("exec"));
        const Json &code = jb.get("code");
        for (size_t k = 0; k < code.size(); ++k)
            b.code.push_back(descriptorFromJson(code.at(k)));
        const Json &succs = jb.get("succs");
        for (size_t k = 0; k < succs.size(); ++k) {
            SfglEdge e;
            e.to = static_cast<int>(succs.at(k).at(0).asInt());
            e.count = count(succs.at(k).at(1));
            b.succs.push_back(e);
        }
        b.term = static_cast<SfglTerm>(jb.get("term").asInt());
        b.takenRate = jb.get("takenRate").asNumber();
        b.transitionRate = jb.get("transitionRate").asNumber();
        b.easyBranch = jb.get("easy").asBool();
        b.loopId = static_cast<int>(jb.get("loop").asInt());
        g.blocks.push_back(std::move(b));
    }
    const Json &jloops = root.get("loops");
    for (size_t i = 0; i < jloops.size(); ++i) {
        const Json &jl = jloops.at(i);
        SfglLoop l;
        l.id = static_cast<int>(jl.get("id").asInt());
        l.header = static_cast<int>(jl.get("header").asInt());
        const Json &mem = jl.get("blocks");
        for (size_t k = 0; k < mem.size(); ++k)
            l.blocks.push_back(static_cast<int>(mem.at(k).asInt()));
        l.parent = static_cast<int>(jl.get("parent").asInt());
        l.depth = static_cast<int>(jl.get("depth").asInt());
        l.entries = count(jl.get("entries"));
        l.avgIterations = jl.get("avgIterations").asNumber();
        g.loops.push_back(std::move(l));
    }
    const Json &names = root.get("funcNames");
    for (size_t i = 0; i < names.size(); ++i)
        g.funcNames.push_back(names.at(i).asString());
    return g;
}

Json
phaseToJson(const PhaseProfile &p)
{
    Json root = Json::object();
    root.set("dynamicInstructions", Json(p.dynamicInstructions));
    root.set("firstSlice", Json(p.firstSlice));
    root.set("sliceCount", Json(p.sliceCount));
    root.set("mix", mixToJson(p.mix));
    root.set("sfgl", sfglToJson(p.sfgl));
    return root;
}

PhaseProfile
phaseFromJson(const Json &j)
{
    PhaseProfile p;
    p.dynamicInstructions = count(j.get("dynamicInstructions"));
    p.firstSlice = count(j.get("firstSlice"));
    p.sliceCount = count(j.get("sliceCount"));
    p.mix = mixFromJson(j.get("mix"));
    p.sfgl = sfglFromJson(j.get("sfgl"));
    return p;
}

} // namespace

Json
mixToJson(const InstrMix &mix)
{
    Json arr = Json::array();
    for (size_t i = 0; i < InstrMix::numClasses; ++i)
        arr.push(Json(mix.count(static_cast<isa::MClass>(i))));
    return arr;
}

Json
sfglToJson(const Sfgl &g)
{
    Json root = Json::object();

    Json jblocks = Json::array();
    for (const auto &b : g.blocks) {
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
    for (const auto &l : g.loops) {
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
    for (const auto &n : g.funcNames)
        names.push(Json(n));
    root.set("funcNames", std::move(names));
    return root;
}

Json
profileToJson(const StatisticalProfile &p)
{
    Json root = Json::object();
    root.set("version", Json(3));
    root.set("workload", Json(p.workloadName));
    root.set("dynamicInstructions", Json(p.dynamicInstructions));
    root.set("mix", mixToJson(p.mix));
    root.set("sfgl", sfglToJson(p.sfgl));
    root.set("sliceLength", Json(p.sliceLength));
    root.set("sliceCount", Json(p.sliceCount));
    // A single phase mirrors the aggregate and is left out.
    if (p.phases.size() > 1) {
        Json jphases = Json::array();
        for (const auto &ph : p.phases)
            jphases.push(phaseToJson(ph));
        root.set("phases", std::move(jphases));
    }
    return root;
}

StatisticalProfile
profileFromJson(const Json &j)
{
    StatisticalProfile p;
    p.workloadName = j.get("workload").asString();
    p.dynamicInstructions = count(j.get("dynamicInstructions"));
    p.mix = mixFromJson(j.get("mix"));
    p.sfgl = sfglFromJson(j.get("sfgl"));
    if (j.has("sliceLength"))
        p.sliceLength = count(j.get("sliceLength"));
    if (j.has("sliceCount"))
        p.sliceCount = count(j.get("sliceCount"));
    if (j.has("phases")) {
        const Json &jphases = j.get("phases");
        for (size_t i = 0; i < jphases.size(); ++i)
            p.phases.push_back(phaseFromJson(jphases.at(i)));
    }
    if (p.phases.empty()) {
        PhaseProfile only;
        only.dynamicInstructions = p.dynamicInstructions;
        only.sliceCount = p.sliceCount ? p.sliceCount : 1;
        only.mix = p.mix;
        only.sfgl = p.sfgl;
        p.phases.push_back(std::move(only));
    }
    return p;
}

} // namespace bsyn::oracle
