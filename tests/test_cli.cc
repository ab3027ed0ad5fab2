/**
 * @file
 * Contract tests for the bsyn command line, run against the built
 * binary: each command accepts exactly the flags it reads, its usage
 * lists exactly those, argument errors exit 2 with the command's usage,
 * and an internal error inside a command or a hostile input file still
 * ends the run with exit 1.
 * Almost every case fails at parse time, so the suite takes seconds.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "profile/statistical_profile.hh"
#include "support/json.hh"
#include "support/string_util.hh"

using namespace bsyn;

namespace
{

/** One flag, spelled with a value its own validation accepts. */
struct FlagCase
{
    std::string name;              ///< as the ownership oracle names it
    std::vector<std::string> argv; ///< how the case passes it
};

const std::vector<FlagCase> kFlags = {
    {"-O", {"-O2"}},
    {"--target", {"--target", "x86_64"}},
    {"-o", {"-o", "out"}},
    {"--cache-dir", {"--cache-dir", "cache"}},
    {"--no-cache", {"--no-cache"}},
    {"--phase-slices", {"--phase-slices", "8192"}},
    {"--phases", {"--phases"}},
    {"--target-instr", {"--target-instr", "50000"}},
    {"--seed", {"--seed", "7"}},
    {"--no-phase-synth", {"--no-phase-synth"}},
    {"--threads", {"--threads", "2"}},
    {"--family", {"--family", "fp_kernel"}},
    {"--gen-count", {"--gen-count", "2"}},
    {"--shard", {"--shard", "1/2"}},
    {"--only-families", {"--only-families"}},
    {"--no-timing", {"--no-timing"}},
    {"--results-only", {"--results-only"}},
    {"--fidelity", {"--fidelity"}},
    {"--spool", {"--spool", "spool"}},
    {"--drain", {"--drain"}},
    {"--max-jobs", {"--max-jobs", "3"}},
    {"--poll-ms", {"--poll-ms", "5"}},
    {"--poll-max-ms", {"--poll-max-ms", "20"}},
    {"--reclaim-after", {"--reclaim-after", "1.5"}},
    {"--id", {"--id", "job1"}},
    {"--timing", {"--timing"}},
    {"--wait", {"--wait"}},
    {"--timeout", {"--timeout", "30"}},
    {"--mix", {"--mix", "fp_kernel"}},
    {"--schedule", {"--schedule", "constant,rate=5"}},
    {"--duration", {"--duration", "0.5"}},
    {"--population", {"--population", "2"}},
    {"--workers", {"--workers", "2"}},
    {"--trace", {"--trace", "trace.json"}},
    {"--log-level", {"--log-level", "warn"}},
    {"--quiet", {"--quiet"}},
};

/** The oracle: the flags each command's body reads, bar the ones
 *  every command takes (kCommon). */
const std::set<std::string> kSuiteFlags = {
    "-o",       "--cache-dir", "--no-cache",  "--target-instr", "--seed",
    "--threads", "--family",   "--gen-count", "--shard"};

const std::set<std::string> kCommon = {"--trace", "--log-level",
                                       "--quiet"};

std::map<std::string, std::set<std::string>>
ownership()
{
    std::map<std::string, std::set<std::string>> owned = {
        {"run", {"-O", "--target"}},
        {"profile",
         {"-o", "--cache-dir", "--no-cache", "--phase-slices", "--phases"}},
        {"synth",
         {"-o", "--cache-dir", "--no-cache", "--target-instr", "--seed",
          "--no-phase-synth"}},
        {"compare", {}},
        {"time", {"-O"}},
        {"suite", kSuiteFlags},
        {"list", {}},
        {"gen", {"-o"}},
        {"fidelity", kSuiteFlags},
        {"merge", {"-o", "--fidelity"}},
        {"serve",
         {"--spool", "--cache-dir", "--no-cache", "--threads", "--drain",
          "--max-jobs", "--poll-ms", "--poll-max-ms", "--reclaim-after"}},
        {"submit",
         {"--spool", "--seed", "--target-instr", "--id", "--timing",
          "--wait", "--timeout"}},
        {"replay",
         {"--mix", "--schedule", "--duration", "--population", "--workers",
          "--spool", "--timeout", "--seed", "--target-instr", "--threads",
          "--cache-dir", "--no-cache", "-o", "--results-only"}},
    };
    owned["fidelity"].insert({"-O", "--only-families", "--no-timing",
                              "--results-only", "--phase-slices",
                              "--phases", "--no-phase-synth"});
    for (auto &entry : owned)
        entry.second.insert(kCommon.begin(), kCommon.end());
    return owned;
}

struct Outcome
{
    int code = -1;
    std::string out;
    std::string err;

    std::string
    firstErrLine() const
    {
        return err.substr(0, err.find('\n'));
    }
};

std::string
shellQuote(const std::string &s)
{
    std::string q = "'";
    for (char c : s)
        q += c == '\'' ? std::string("'\\''") : std::string(1, c);
    return q + "'";
}

class Cli : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        std::string tmpl = ::testing::TempDir() + "bsyn_cli_XXXXXX";
        ASSERT_NE(mkdtemp(tmpl.data()), nullptr);
        dir_ = tmpl;
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    std::string path(const std::string &name) const
    {
        return dir_ + "/" + name;
    }

    /** Run bsyn in the scratch directory with the BSYN_* variables
     *  cleared, then @p env (NAME=VALUE words) set. */
    Outcome
    run(const std::vector<std::string> &args,
        const std::string &env = "") const
    {
        std::string cmd = "cd " + shellQuote(dir_) +
                          " && env -u BSYN_CACHE_DIR -u BSYN_TRACE "
                          "-u BSYN_LOG " +
                          env + " " + shellQuote(BSYN_CLI_PATH);
        for (const auto &a : args)
            cmd += " " + shellQuote(a);
        cmd += " >" + shellQuote(path("stdout")) + " 2>" +
               shellQuote(path("stderr"));
        int status = std::system(cmd.c_str());
        Outcome o;
        o.code = WIFEXITED(status) ? WEXITSTATUS(status)
                                   : 128 + WTERMSIG(status);
        o.out = readFile(path("stdout"));
        o.err = readFile(path("stderr"));
        // An instrumented binary reports memory errors and undefined
        // behaviour on stderr; either fails the case that found it.
        EXPECT_EQ(o.err.find("Sanitizer"), std::string::npos) << o.err;
        EXPECT_EQ(o.err.find("runtime error:"), std::string::npos) << o.err;
        return o;
    }

    /** Write a tiny MiniC program and @return its name. */
    std::string
    program() const
    {
        writeFile(path("prog.c"),
                  "int main() {\n  int i; int s; s = 0;\n"
                  "  for (i = 0; i < 100; i = i + 1) { s = s + i; }\n"
                  "  printf(\"%d\\n\", s);\n  return 0;\n}\n");
        return "prog.c";
    }

    std::string dir_;
};

std::vector<std::string>
concat(std::vector<std::string> a, const std::vector<std::string> &b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

/** Every flag a usage text names: each word that starts with '-' and
 *  follows a blank or '[', with -O0..-O3 read as "-O". */
std::set<std::string>
flagsIn(const std::string &text)
{
    std::set<std::string> out;
    for (size_t i = 0; i < text.size(); ++i) {
        bool starts =
            text[i] == '-' &&
            (i == 0 || text[i - 1] == '[' ||
             std::isspace(static_cast<unsigned char>(text[i - 1])));
        if (!starts)
            continue;
        size_t end = i + 1;
        while (end < text.size() &&
               (std::isalnum(static_cast<unsigned char>(text[end])) ||
                text[end] == '-'))
            ++end;
        std::string f = text.substr(i, end - i);
        out.insert(startsWith(f, "-O") ? "-O" : f);
        i = end;
    }
    return out;
}

/** Whether @p usage holds a synopsis line for @p cmd. */
bool
hasSynopsis(const std::string &usage, const std::string &cmd)
{
    std::string head = "\n  bsyn " + cmd;
    for (size_t at = usage.find(head); at != std::string::npos;
         at = usage.find(head, at + 1)) {
        char next = usage[at + head.size()];
        if (next == ' ' || next == '\n')
            return true;
    }
    return false;
}

TEST_F(Cli, EachCommandTakesExactlyTheFlagsItReads)
{
    // A trailing unknown flag makes every case a parse failure: an
    // owned flag parses and the error names the unknown one, a foreign
    // flag is rejected first and the error names it and the command.
    size_t owned = 0, foreign = 0;
    for (const auto &[cmd, flags] : ownership()) {
        for (const auto &flag : kFlags) {
            Outcome o = run(concat(concat({cmd}, flag.argv),
                                   {"--no-such-flag"}));
            std::string line = o.firstErrLine();
            EXPECT_EQ(o.code, 2) << cmd << " " << flag.name;
            if (flags.count(flag.name)) {
                ++owned;
                EXPECT_NE(line.find("'--no-such-flag'"), std::string::npos)
                    << cmd << " " << flag.name << ": " << line;
            } else {
                ++foreign;
                EXPECT_NE(line.find(flag.argv[0]), std::string::npos)
                    << cmd << " " << flag.name << ": " << line;
                EXPECT_NE(line.find("bsyn " + cmd), std::string::npos)
                    << cmd << " " << flag.name << ": " << line;
                EXPECT_EQ(line.find("--no-such-flag"), std::string::npos)
                    << cmd << " " << flag.name << ": " << line;
            }
        }
    }
    EXPECT_EQ(owned, 111u);
    EXPECT_EQ(foreign, 357u);
}

TEST_F(Cli, ForeignFlagsNoLongerRunTheCommand)
{
    std::string prog = program();
    Outcome suite = run({"suite", "--no-phase-synth"});
    EXPECT_EQ(suite.code, 2);
    EXPECT_NE(suite.firstErrLine().find("--no-phase-synth"),
              std::string::npos);
    Outcome profile = run({"profile", prog, "-O2", "-o", "x.json"});
    EXPECT_EQ(profile.code, 2);
    EXPECT_NE(profile.firstErrLine().find("-O2"), std::string::npos);
    EXPECT_FALSE(std::filesystem::exists(path("x.json")));
}

TEST_F(Cli, UsageListsExactlyTheOwnedFlags)
{
    for (const auto &[cmd, flags] : ownership()) {
        Outcome o = run({cmd, "--no-such-flag"});
        EXPECT_EQ(o.code, 2) << cmd;
        std::string usage = o.err.substr(o.err.find('\n') + 1);
        EXPECT_NE(usage.find("bsyn " + cmd), std::string::npos) << usage;
        EXPECT_EQ(flagsIn(usage), flags) << cmd << ":\n" << usage;
    }

    // With no arguments: every command's synopsis plus the grammars.
    Outcome all = run({});
    EXPECT_EQ(all.code, 2);
    for (const auto &entry : ownership())
        EXPECT_TRUE(hasSynopsis(all.err, entry.first)) << entry.first;
    for (const char *note : {"all-presets", "--shard I/N", "constant,rate=R",
                             "spec[:weight]", "BSYN_CACHE_DIR",
                             "BSYN_TRACE", "BSYN_LOG"})
        EXPECT_NE(all.err.find(note), std::string::npos) << note;
}

TEST_F(Cli, OperandCountAndRequiredFlagAreArgumentErrors)
{
    const std::vector<std::vector<std::string>> bad = {
        // missing operand
        {"run"},
        {"profile", "-o", "p.json"},
        {"synth", "-o", "c.c"},
        {"compare", "a.c"},
        {"time"},
        {"gen"},
        {"merge", "-o", "out"},
        {"submit", "synth", "--spool", "spool"},
        // extra operand
        {"run", "a.c", "b.c"},
        {"profile", "a.c", "b.c", "-o", "p.json"},
        {"synth", "a.json", "b.json", "-o", "c.c"},
        {"time", "a.c", "b.c"},
        {"compare", "a.c", "b.c", "c.c"},
        {"gen", "fp_kernel", "stream_mix"},
        {"suite", "extra"},
        {"list", "extra"},
        {"fidelity", "extra"},
        {"serve", "extra", "--spool", "spool"},
        {"submit", "synth", "crc32/small", "extra", "--spool", "spool"},
        {"replay", "extra", "--mix", "fp_kernel"},
        // missing required flag
        {"profile", "a.c"},
        {"synth", "a.json"},
        {"merge", "in"},
        {"serve"},
        {"submit", "synth", "crc32/small"},
        {"replay"},
    };
    for (const auto &args : bad) {
        Outcome o = run(args);
        EXPECT_EQ(o.code, 2) << args[0] << " " << o.err;
        EXPECT_NE(o.err.find("usage:\n  bsyn " + args[0]),
                  std::string::npos)
            << o.err;
    }
}

TEST_F(Cli, ShortAndInlineSpellingsStillParse)
{
    for (const auto &args : std::vector<std::vector<std::string>>{
             {"suite", "-j", "2"},
             {"suite", "--family=fp_kernel"},
             {"run", "-O0"},
             {"run", "-O1"},
             {"run", "-O2"},
             {"run", "-O3"}}) {
        Outcome o = run(concat(args, {"--no-such-flag"}));
        EXPECT_EQ(o.code, 2);
        EXPECT_NE(o.firstErrLine().find("'--no-such-flag'"),
                  std::string::npos)
            << args[1] << ": " << o.err;
    }
    Outcome wide = run({"suite", "-j", "5000"});
    EXPECT_EQ(wide.code, 2);
    EXPECT_NE(wide.firstErrLine().find("-j 5000"), std::string::npos);
    EXPECT_EQ(run({"run", "a.c", "-O4"}).code, 2);
}

TEST_F(Cli, EnvironmentDefaultsApplyToOwningCommands)
{
    std::string prog = program();

    // BSYN_CACHE_DIR fills a cache; --no-cache wins over it.
    EXPECT_EQ(run({"profile", prog, "-o", "p.json"}, "BSYN_CACHE_DIR=cache")
                  .code,
              0);
    EXPECT_FALSE(std::filesystem::is_empty(path("cache")));
    EXPECT_EQ(run({"profile", prog, "-o", "p.json", "--no-cache"},
                  "BSYN_CACHE_DIR=nocache")
                  .code,
              0);
    EXPECT_FALSE(std::filesystem::exists(path("nocache")));

    // BSYN_TRACE arms the trace of any command.
    EXPECT_EQ(run({"list"}, "BSYN_TRACE=trace.json").code, 0);
    EXPECT_TRUE(std::filesystem::exists(path("trace.json")));

    // BSYN_LOG sets the threshold, and a bad one is an argument error
    // unless --log-level overrides it.
    EXPECT_NE(run({"gen", "fp_kernel", "-o", "g.c"}).err, "");
    EXPECT_EQ(run({"gen", "fp_kernel", "-o", "g.c"}, "BSYN_LOG=error").err,
              "");
    Outcome bad = run({"list"}, "BSYN_LOG=loud");
    EXPECT_EQ(bad.code, 2);
    EXPECT_NE(bad.firstErrLine().find("unknown log level"),
              std::string::npos);
    EXPECT_EQ(run({"list", "--log-level", "warn"}, "BSYN_LOG=loud").code, 0);
}

TEST_F(Cli, MalformedValuesExitExactlyTwo)
{
    const std::vector<std::vector<std::string>> bad = {
        {"frobnicate"},
        {"suite", "--seed"},
        {"suite", "--seed", "x"},
        {"suite", "--seed", "-1"},
        {"suite", "--seed", "12junk"},
        {"suite", "--threads", "4097"},
        {"suite", "--gen-count", "0"},
        {"suite", "--gen-count", "65"},
        {"serve", "--spool", "s", "--poll-ms", "0"},
        {"serve", "--spool", "s", "--poll-max-ms", "600001"},
        {"serve", "--spool", "s", "--reclaim-after", "-1"},
        {"serve", "--spool", "s", "--reclaim-after", "nan"},
        {"submit", "synth", "crc32/small", "--spool", "s", "--id", "a b"},
        {"replay", "--mix", "fp_kernel", "--duration", "0"},
        {"replay", "--mix", "fp_kernel", "--duration", "3601"},
        {"replay", "--mix", "fp_kernel", "--population", "0"},
        {"replay", "--mix", "fp_kernel", "--workers", "65"},
        {"run", "a.c", "--target", "ia32"},
        {"list", "--log-level", "loud"},
        {"list", "--quiet=yes"},
        {"suite", "--shard", "0/3"},
        {"suite", "--shard", "4/3"},
        {"suite", "--shard", "x/y"},
        {"suite", "--shard", "1/0"},
        {"fidelity", "--shard", "2/1"},
        {"replay", "--mix", "fp_kernel", "--schedule", "sawtooth,rate=5"},
        {"replay", "--mix", "fp_kernel", "--schedule", "constant,rate=0"},
        {"replay", "--mix", "no_such_family"},
        {"replay", "--mix", "fp_kernel:0"},
        {"replay", "--mix", ""},
    };
    for (const auto &args : bad) {
        Outcome o = run(args);
        EXPECT_EQ(o.code, 2) << args.back() << ": " << o.err;
    }
}

TEST_F(Cli, InternalErrorInACommandExitsOne)
{
    // A suite status field of the wrong type panics in the Json DOM's
    // kind check; main's last-resort handler turns that into exit 1,
    // not an abort.
    std::filesystem::create_directory(path("shard"));
    writeFile(path("shard/suite_status.json"),
              R"({"schema": "bsyn.suite.v1", "shard": {"index": 1, )"
              R"("count": 1}, "total": "lots", "suiteHash": "x", )"
              R"("workloads": []})");
    Outcome o = run({"merge", "shard", "-o", "merged", "--trace",
                     "trace.json"});
    EXPECT_EQ(o.code, 1) << o.err;
    EXPECT_NE(o.err.find("panic:"), std::string::npos) << o.err;
    EXPECT_NE(o.err.find("not a number"), std::string::npos) << o.err;
    EXPECT_TRUE(std::filesystem::exists(path("trace.json")));
}

TEST_F(Cli, ProfileWithAStringForANumberExitsOneNamingTheField)
{
    // The DOM's kind check used to panic here ("json: not a number",
    // exit 1 only through the last-resort handler).
    std::string prog = program();
    ASSERT_EQ(run({"profile", prog, "-o", "p.json"}).code, 0);
    Json prof = Json::parse(readFile(path("p.json")));
    prof.set("dynamicInstructions", Json("lots"));
    writeFile(path("bad.json"), prof.dump(2));
    Outcome o = run({"synth", "bad.json", "-o", "clone.c"});
    EXPECT_EQ(o.code, 1) << o.err;
    EXPECT_NE(o.err.find("fatal: dynamicInstructions: not a number"),
              std::string::npos)
        << o.err;
    EXPECT_EQ(o.err.find("panic:"), std::string::npos) << o.err;
    EXPECT_FALSE(std::filesystem::exists(path("clone.c")));
}

TEST_F(Cli, ProfileWithAnEdgeToAMissingBlockExitsOne)
{
    // The load rejects the edge and names it; the synthesizer never
    // indexes by it (which used to end in a segfault, exit 139).
    std::string prog = program();
    ASSERT_EQ(run({"profile", prog, "-o", "p.json"}).code, 0);
    auto prof = profile::StatisticalProfile::loadFrom(path("p.json"));
    prof.sfgl.blocks[0].succs.push_back({99999, 1000000000});
    prof.saveTo(path("bad.json"));
    Outcome o = run({"synth", "bad.json", "-o", "clone.c"});
    EXPECT_EQ(o.code, 1) << o.err;
    EXPECT_NE(o.err.find("sfgl.blocks[0].succs["), std::string::npos)
        << o.err;
    EXPECT_NE(o.err.find("block 99999 out of range"), std::string::npos)
        << o.err;
    EXPECT_FALSE(std::filesystem::exists(path("clone.c")));
}

TEST_F(Cli, ProfileWithANegativeCountExitsOneNamingTheField)
{
    // The count used to wrap to 2^64 - 1 and end in the synthesizer's
    // reduction-factor assertion, a panic; the load now rejects it.
    std::string prog = program();
    ASSERT_EQ(run({"profile", prog, "-o", "p.json"}).code, 0);
    Json prof = Json::parse(readFile(path("p.json")));
    prof.set("dynamicInstructions", Json(-1));
    writeFile(path("bad.json"), prof.dump(2));
    Outcome o = run({"synth", "bad.json", "-o", "clone.c"});
    EXPECT_EQ(o.code, 1) << o.err;
    EXPECT_NE(o.err.find("dynamicInstructions: -1 is not a count"),
              std::string::npos)
        << o.err;
    EXPECT_EQ(o.err.find("panic:"), std::string::npos) << o.err;
    EXPECT_FALSE(std::filesystem::exists(path("clone.c")));
}

TEST_F(Cli, SeedsAJobFileCannotHoldExitOne)
{
    // A job file holds numbers as doubles: submit used to write seed
    // 2^53 + 1 as 2^53, and 2^64 - 1 as 1.8446744073709552e+19.
    for (std::string seed : {"9007199254740993", "18446744073709551615"}) {
        Outcome o = run({"submit", "synth", "crc32/small", "--spool",
                         "spool", "--seed", seed});
        EXPECT_EQ(o.code, 1) << o.err;
        EXPECT_NE(o.err.find("seed " + seed + " is not below 2^53"),
                  std::string::npos)
            << o.err;
        EXPECT_TRUE(std::filesystem::is_empty(path("spool/new")));
    }
    // Replay's spool jobs and report carry the seed too.
    Outcome o = run({"replay", "--mix", "crc32/small", "--duration", "0.5",
                     "--seed", "9007199254740993", "-o", "report.json"});
    EXPECT_EQ(o.code, 1) << o.err;
    EXPECT_NE(o.err.find("replay: seed 9007199254740993 is not below 2^53"),
              std::string::npos)
        << o.err;
    EXPECT_FALSE(std::filesystem::exists(path("report.json")));
}

TEST_F(Cli, AJobWithCountsOutOfRangeFailsWhereItUsedToRun)
{
    // Seed -1 and a budget of 1e300 used to be cast to integers
    // (undefined behaviour) and served "ok".
    std::filesystem::create_directories(path("spool/new"));
    writeFile(path("spool/new/hand.json"),
              R"({"schema": "bsyn.job.v1", "id": "hand", "kind": "synth", )"
              R"("workload": "crc32/small", "seed": -1, )"
              R"("targetInstr": 1e300, "timing": false})");
    Outcome o = run({"serve", "--spool", "spool", "--drain"});
    EXPECT_EQ(o.code, 0) << o.err;
    Json status = Json::parse(readFile(path("spool/done/hand.json")));
    EXPECT_FALSE(status.get("ok").asBool());
    EXPECT_NE(status.get("error").asString().find("seed: -1 is not a count"),
              std::string::npos)
        << status.dump();
}

} // namespace
