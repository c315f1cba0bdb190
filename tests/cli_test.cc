/**
 * @file
 * CLI flag-documentation tests: every flag a bench/example registers
 * has a non-empty help string in the catalogue, the standard flags
 * are all documented, and the generated --help text covers the
 * accepted set.
 */

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/cli.hh"
#include "sim/types.hh"

using namespace rbv::exp;

namespace {

/** Ticks per microsecond and per second of simulated time. */
constexpr double UsTicks = rbv::sim::cyclesPerUs();
constexpr double SecondTicks = 1.0e6 * rbv::sim::cyclesPerUs();

/**
 * Union of the accepted-flag lists of every bench and example binary
 * (each binary's Cli constructor call). A new binary flag must be
 * added here AND to the catalogue in cli.cc; this test fails loudly
 * when the catalogue entry is missing.
 */
const std::vector<std::string> BinaryFlags = {
    "app",  "arrival", "bank", "checkpoint-every", "csv",
    "deadline-us", "diag-out", "diagnose", "duration",
    "faults", "hedge", "jobs", "k", "link-us", "max-outstanding",
    "ms", "no-hist", "qps",
    "quiet", "requests", "retries", "rows", "rpc-retries", "rss-log",
    "rubis", "runs", "seed", "topology", "tpch", "webwork-requests",
    "window",
};

TEST(FlagHelp, EveryBinaryFlagIsDocumented)
{
    for (const auto &name : BinaryFlags)
        EXPECT_FALSE(flagHelp(name).empty())
            << "flag --" << name << " has no help string in cli.cc";
}

TEST(FlagHelp, EveryStandardFlagIsDocumented)
{
    for (const auto &name : standardFlagNames())
        EXPECT_FALSE(flagHelp(name).empty())
            << "standard flag --" << name << " has no help string";
}

TEST(FlagHelp, EveryCatalogueEntryIsNonEmpty)
{
    const auto names = documentedFlagNames();
    EXPECT_FALSE(names.empty());
    for (const auto &name : names) {
        EXPECT_FALSE(name.empty());
        EXPECT_FALSE(flagHelp(name).empty()) << name;
    }
}

TEST(FlagHelp, CatalogueCoversExactlyTheKnownFlags)
{
    // The catalogue must not drift: it is the binary flags plus the
    // standard flags, nothing else (dead entries hide typos).
    std::vector<std::string> expected = BinaryFlags;
    for (const auto &name : standardFlagNames())
        expected.push_back(name);
    std::sort(expected.begin(), expected.end());

    std::vector<std::string> actual = documentedFlagNames();
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected);
}

TEST(FlagHelp, UnknownFlagHasNoHelp)
{
    EXPECT_TRUE(flagHelp("request").empty()); // the classic typo
    EXPECT_TRUE(flagHelp("").empty());
}

TEST(HelpText, ListsEveryAcceptedFlagWithItsHelp)
{
    const std::vector<std::string> names = {"seed", "requests",
                                            "trace-out"};
    const std::string text = helpText("bench_x", names);
    EXPECT_NE(text.find("usage: bench_x"), std::string::npos);
    for (const auto &name : names) {
        EXPECT_NE(text.find("--" + name), std::string::npos);
        EXPECT_NE(text.find(flagHelp(name)), std::string::npos);
    }
}

TEST(HelpText, FlagsUnknownToTheCatalogueAreMarked)
{
    const std::string text =
        helpText("x", {"seed", "not-a-real-flag"});
    EXPECT_NE(text.find("--not-a-real-flag"), std::string::npos);
    EXPECT_NE(text.find("(undocumented)"), std::string::npos);
}

TEST(Cli, StandardFlagsAcceptedByValidatingCtor)
{
    const char *argv[] = {"prog", "--seed", "7",
                          "--trace-out=/tmp/t.json",
                          "--metrics-out", "/tmp/m.txt", "--prof"};
    // Validating ctor with only binary-specific names: the standard
    // flags must pass validation implicitly (no exit(2)).
    const Cli cli(7, const_cast<char **>(argv), {"seed"});
    EXPECT_EQ(cli.getU64("seed", 0), 7u);
    EXPECT_EQ(cli.getStr("trace-out", ""), "/tmp/t.json");
    EXPECT_EQ(cli.getStr("metrics-out", ""), "/tmp/m.txt");
    EXPECT_TRUE(cli.getBool("prof", false));
}

TEST(CliDeath, HelpPrintsDocumentationAndExitsZero)
{
    const char *argv[] = {"prog", "--help"};
    EXPECT_EXIT(
        {
            const Cli cli(2, const_cast<char **>(argv),
                          {"seed", "requests"});
        },
        testing::ExitedWithCode(0), "");
}

TEST(CliDeath, UnknownFlagStillExitsTwo)
{
    const char *argv[] = {"prog", "--request", "5"};
    EXPECT_EXIT(
        {
            const Cli cli(3, const_cast<char **>(argv),
                          {"seed", "requests"});
        },
        testing::ExitedWithCode(2), "unknown flag --request");
}

TEST(Cli, ServeFlagsParseWithTheDocumentedShapes)
{
    const char *argv[] = {"rbv_serve",       "--qps",     "25000",
                          "--arrival=burst", "--duration", "2.5",
                          "--checkpoint-every", "5000",   "--window",
                          "256"};
    const Cli cli(10, const_cast<char **>(argv),
                  {"qps", "arrival", "duration", "checkpoint-every",
                   "window"});
    EXPECT_DOUBLE_EQ(cli.getRate("qps", 0.0, SecondTicks), 25000.0);
    EXPECT_EQ(cli.getStr("arrival", ""), "burst");
    EXPECT_DOUBLE_EQ(cli.getTime("duration", 0.0, SecondTicks), 2.5);
    EXPECT_EQ(cli.getU64("checkpoint-every", 0), 5000u);
    EXPECT_EQ(cli.getU64("window", 0), 256u);
}

TEST(CliDeath, ServeFlagTypoIsRejected)
{
    const char *argv[] = {"rbv_serve", "--qsp", "1000"};
    EXPECT_EXIT(
        {
            const Cli cli(3, const_cast<char **>(argv),
                          {"qps", "arrival", "duration"});
        },
        testing::ExitedWithCode(2), "unknown flag --qsp");
}

TEST(Cli, ClusterFlagsParseWithTheDocumentedShapes)
{
    const char *argv[] = {"rbv_cluster",
                          "--topology=lb:1:20,app:3:80",
                          "--link-us",     "120",
                          "--deadline-us", "1500",
                          "--rpc-retries", "4",
                          "--hedge",       "0.95"};
    const Cli cli(10, const_cast<char **>(argv),
                  {"topology", "link-us", "deadline-us",
                   "rpc-retries", "hedge"});
    EXPECT_EQ(cli.getStr("topology", ""), "lb:1:20,app:3:80");
    EXPECT_DOUBLE_EQ(cli.getTime("link-us", 0.0, UsTicks, true), 120.0);
    EXPECT_DOUBLE_EQ(cli.getTime("deadline-us", 0.0, UsTicks), 1500.0);
    EXPECT_EQ(cli.getU64("rpc-retries", 0), 4u);
    EXPECT_DOUBLE_EQ(cli.getDouble("hedge", 0.0), 0.95);
}

/** Exit status 2 and a "bad --name value" line for one flag value. */
void
expectBadValue(const char *flag, const char *value,
               const std::function<void(const Cli &)> &read)
{
    const char *argv[] = {"prog", flag, value};
    const std::string pattern =
        std::string("bad ") + flag + " value '" + value + "'";
    EXPECT_EXIT(
        {
            const Cli cli(3, const_cast<char **>(argv));
            read(cli);
        },
        testing::ExitedWithCode(2), pattern)
        << flag << " " << value;
}

TEST(CliDeath, NumericValuesThatDoNotParseExitTwo)
{
    const auto u64 = [](const Cli &c) { (void)c.getU64("seed", 1); };
    const auto n = [](const Cli &c) { (void)c.getU64("requests", 1); };
    const auto d = [](const Cli &c) { (void)c.getDouble("qps", 1.0); };
    expectBadValue("--seed", "abc", u64);
    expectBadValue("--seed", "-1", u64); // would wrap to 2^64 - 1
    expectBadValue("--seed", "99999999999999999999", u64);
    expectBadValue("--requests", "12x", n);
    expectBadValue("--requests", "abc", n);
    expectBadValue("--requests", "", n);
    expectBadValue("--requests", "-3", n); // every integer is a count
    expectBadValue("--qps", "2k", d);
    expectBadValue("--qps", "nan", d);
    expectBadValue("--qps", "inf", d);
}

TEST(CliDeath, TimeAndRateValuesWithoutATickCountExitTwo)
{
    const auto deadline = [](const Cli &c) {
        (void)c.getTime("deadline-us", 1.0, UsTicks);
    };
    const auto link = [](const Cli &c) {
        (void)c.getTime("link-us", 1.0, UsTicks, true);
    };
    const auto qps = [](const Cli &c) {
        (void)c.getRate("qps", 1.0, SecondTicks);
    };
    expectBadValue("--deadline-us", "-5", deadline);
    expectBadValue("--deadline-us", "0", deadline);
    expectBadValue("--deadline-us", "abc", deadline);
    expectBadValue("--link-us", "-80", link);
    expectBadValue("--link-us", "1e300", link); // overflows a tick
    expectBadValue("--qps", "0", qps);
    expectBadValue("--qps", "-1", qps);
    expectBadValue("--qps", "1e-300", qps); // the mean gap overflows
}

TEST(CliDeath, UnknownBooleanWordExitsTwo)
{
    expectBadValue("--quiet", "maybe",
                   [](const Cli &c) { (void)c.getBool("quiet", false); });
}

TEST(Cli, WellFormedNumbersStillParse)
{
    const char *argv[] = {"prog", "--link-us", "0", "--qps", "2.5e3",
                          "--seed", "18446744073709551615"};
    const Cli cli(7, const_cast<char **>(argv));
    EXPECT_EQ(cli.getTime("link-us", 1.0, UsTicks, true), 0.0);
    EXPECT_DOUBLE_EQ(cli.getRate("qps", 0.0, SecondTicks), 2500.0);
    EXPECT_EQ(cli.getU64("seed", 0), 18446744073709551615u);
}

TEST(CliDeath, ClusterFlagTypoIsRejected)
{
    const char *argv[] = {"rbv_cluster", "--topolgy", "lb:1"};
    EXPECT_EXIT(
        {
            const Cli cli(3, const_cast<char **>(argv),
                          {"topology", "link-us", "deadline-us"});
        },
        testing::ExitedWithCode(2), "unknown flag --topolgy");
}

} // namespace
