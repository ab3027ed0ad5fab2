#include "profile/statistical_profile.hh"

#include "support/string_util.hh"

namespace bsyn::profile
{

namespace
{

/** The count @p field of the object @p j at @p path ("" for the
 *  profile's root). */
uint64_t
countField(const Json &j, const std::string &path, const char *field)
{
    return checkedCount(j.get(field).asNumber(), [&path, field] {
        return path.empty() ? std::string(field) : path + "." + field;
    });
}

} // namespace

Json
PhaseProfile::toJson() const
{
    Json root = Json::object();
    root.set("dynamicInstructions", Json(dynamicInstructions));
    root.set("firstSlice", Json(firstSlice));
    root.set("sliceCount", Json(sliceCount));
    root.set("mix", mix.toJson());
    root.set("sfgl", sfgl.toJson());
    return root;
}

PhaseProfile
PhaseProfile::fromJson(const Json &j, const std::string &path)
{
    PhaseProfile p;
    p.dynamicInstructions = countField(j, path, "dynamicInstructions");
    p.firstSlice = countField(j, path, "firstSlice");
    p.sliceCount = countField(j, path, "sliceCount");
    p.mix = InstrMix::fromJson(j.get("mix"), path + ".mix");
    p.sfgl = Sfgl::fromJson(j.get("sfgl"), path + ".sfgl");
    return p;
}

Json
StatisticalProfile::toJson() const
{
    Json root = Json::object();
    root.set("version", Json(3));
    root.set("workload", Json(workloadName));
    root.set("dynamicInstructions", Json(dynamicInstructions));
    root.set("mix", mix.toJson());
    root.set("sfgl", sfgl.toJson());
    root.set("sliceLength", Json(sliceLength));
    root.set("sliceCount", Json(sliceCount));
    // A single phase always mirrors the aggregate, so only genuinely
    // multi-phase profiles pay for the phase list on disk; loading
    // materializes the implicit phase back (see fromJson).
    if (phases.size() > 1) {
        Json jphases = Json::array();
        for (const auto &p : phases)
            jphases.push(p.toJson());
        root.set("phases", std::move(jphases));
    }
    return root;
}

StatisticalProfile
StatisticalProfile::fromJson(const Json &j)
{
    StatisticalProfile p;
    p.workloadName = j.get("workload").asString();
    p.dynamicInstructions = countField(j, "", "dynamicInstructions");
    p.mix = InstrMix::fromJson(j.get("mix"), "mix");
    p.sfgl = Sfgl::fromJson(j.get("sfgl"), "sfgl");
    // v1/v2 files predate the version field and the slice stream; they
    // load as single-phase v3 profiles with identical aggregates.
    if (j.has("sliceLength"))
        p.sliceLength = countField(j, "", "sliceLength");
    if (j.has("sliceCount"))
        p.sliceCount = countField(j, "", "sliceCount");
    if (j.has("phases")) {
        const Json &jphases = j.get("phases");
        for (size_t i = 0; i < jphases.size(); ++i)
            p.phases.push_back(PhaseProfile::fromJson(
                jphases.at(i), strprintf("phases[%zu]", i)));
    }
    if (p.phases.empty()) {
        PhaseProfile only;
        only.dynamicInstructions = p.dynamicInstructions;
        only.firstSlice = 0;
        only.sliceCount = p.sliceCount ? p.sliceCount : 1;
        only.mix = p.mix;
        only.sfgl = p.sfgl;
        p.phases.push_back(std::move(only));
    }
    return p;
}

std::string
StatisticalProfile::serialize() const
{
    return toJson().dump(-1);
}

StatisticalProfile
StatisticalProfile::deserialize(const std::string &text)
{
    return fromJson(Json::parse(text));
}

void
StatisticalProfile::saveTo(const std::string &path) const
{
    writeFile(path, serialize());
}

StatisticalProfile
StatisticalProfile::loadFrom(const std::string &path)
{
    return deserialize(readFile(path));
}

} // namespace bsyn::profile
