#include "profile/statistical_profile.hh"

#include "support/string_util.hh"

namespace bsyn::profile
{

namespace
{

void
writePhase(std::string &out, const PhaseProfile &p)
{
    out += "{\"dynamicInstructions\":";
    formatNumber(out, double(p.dynamicInstructions));
    out += ",\"firstSlice\":";
    formatNumber(out, double(p.firstSlice));
    out += ",\"sliceCount\":";
    formatNumber(out, double(p.sliceCount));
    out += ",\"mix\":";
    p.mix.writeJson(out);
    out += ",\"sfgl\":";
    p.sfgl.writeJson(out);
    out += '}';
}

/** The phase at @p cur ("phases[1]"). */
PhaseProfile
readPhase(JsonCursor &cur)
{
    static constexpr std::string_view fields[] = {
        "dynamicInstructions", "firstSlice", "sliceCount", "mix", "sfgl"};
    auto here = [&cur] { return cur.path(); };
    PhaseProfile p;
    cur.readObject(fields, 0, [&](size_t field) {
        switch (field) {
          case 0:
            p.dynamicInstructions = checkedCount(cur.number(), here);
            break;
          case 1: p.firstSlice = checkedCount(cur.number(), here); break;
          case 2: p.sliceCount = checkedCount(cur.number(), here); break;
          case 3: p.mix = InstrMix::readJson(cur); break;
          case 4: p.sfgl = Sfgl::readJson(cur); break;
        }
    });
    return p;
}

} // namespace

std::string
StatisticalProfile::serialize() const
{
    std::string out = "{\"version\":3,\"workload\":";
    escapeString(out, workloadName);
    out += ",\"dynamicInstructions\":";
    formatNumber(out, double(dynamicInstructions));
    out += ",\"mix\":";
    mix.writeJson(out);
    out += ",\"sfgl\":";
    sfgl.writeJson(out);
    out += ",\"sliceLength\":";
    formatNumber(out, double(sliceLength));
    out += ",\"sliceCount\":";
    formatNumber(out, double(sliceCount));
    // A single phase always mirrors the aggregate, so only genuinely
    // multi-phase profiles pay for the phase list on disk; loading
    // materializes the implicit phase back (see deserialize).
    if (phases.size() > 1) {
        out += ",\"phases\":";
        formatArray(out, phases, writePhase);
    }
    out += '}';
    return out;
}

StatisticalProfile
StatisticalProfile::deserialize(const std::string &text)
{
    static constexpr std::string_view fields[] = {
        "version",     "workload",   "dynamicInstructions", "mix", "sfgl",
        "sliceLength", "sliceCount", "phases"};
    // v1/v2 files predate the version field and the slice stream; they
    // load as single-phase v3 profiles with identical aggregates.
    constexpr uint32_t optional = 1u << 0 | 1u << 5 | 1u << 6 | 1u << 7;
    JsonCursor cur(text);
    auto here = [&cur] { return cur.path(); };
    StatisticalProfile p;
    cur.readObject(fields, optional, [&](size_t field) {
        switch (field) {
          case 0:
            if (double v = cur.number(); v != 3)
                cur.fail(strprintf("%g, expected 3", v));
            break;
          case 1: p.workloadName = cur.string(); break;
          case 2:
            p.dynamicInstructions = checkedCount(cur.number(), here);
            break;
          case 3: p.mix = InstrMix::readJson(cur); break;
          case 4: p.sfgl = Sfgl::readJson(cur); break;
          case 5: p.sliceLength = checkedCount(cur.number(), here); break;
          case 6: p.sliceCount = checkedCount(cur.number(), here); break;
          case 7:
            cur.enterArray();
            while (cur.nextElement())
                p.phases.push_back(readPhase(cur));
            break;
        }
    });
    cur.finish();
    if (p.phases.empty())
        p.phases.push_back(p.wholeRun());
    return p;
}

PhaseProfile
StatisticalProfile::wholeRun() const
{
    PhaseProfile only;
    only.dynamicInstructions = dynamicInstructions;
    only.sliceCount = sliceCount ? sliceCount : 1;
    only.mix = mix;
    only.sfgl = sfgl;
    return only;
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
