/**
 * @file
 * Seeded mutation tests for the cluster's two grammars: `--topology`
 * (dist::TopologySpec) and the cluster `--faults` plans
 * (fi::FaultPlan). Each canned spec takes 1-3 random edits from a
 * fixed seed, and
 * every mutant goes through the parser. Nothing may crash (the CI
 * sanitizer job runs this binary), an accepted topology must pass an
 * independent grammar check, and every accepted spec's summary() must
 * re-parse to the same summary().
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "dist/topology.hh"
#include "fi/plan.hh"
#include "stats/rng.hh"

using namespace rbv;

namespace {

/** Mutants per canned spec. */
constexpr int MutantsPerSpec = 3000;

/** The characters an edit writes: every grammar's delimiters, digits,
 *  signs, exponents and whitespace. */
const std::string Alphabet = "0123456789:,;()=.-+eEabnifz \t";

/** The tokens an edit may insert whole: hex, infinity and NaN
 *  spellings, exponents and signs. */
const char *const Tokens[] = {"0x", "0X1p", "inf", "nan", "1e", "e-", "+",
                              "-", " "};

/** Apply 1-3 seeded edits (insert, delete, replace or duplicate a
 *  character, or insert a token) to @p text. */
std::string
mutate(std::string text, stats::Rng &rng)
{
    const int edits = 1 + static_cast<int>(rng.uniformInt(3));
    for (int e = 0; e < edits; ++e) {
        const auto at = static_cast<std::size_t>(
            rng.uniformInt(static_cast<std::uint64_t>(text.size() + 1)));
        const char c = Alphabet[static_cast<std::size_t>(
            rng.uniformInt(static_cast<std::uint64_t>(Alphabet.size())))];
        switch (rng.uniformInt(5)) {
          case 0:
            text.insert(at, 1, c);
            break;
          case 1:
            if (at < text.size())
                text.erase(at, 1);
            break;
          case 2:
            if (at < text.size())
                text[at] = c;
            break;
          case 3:
            if (at < text.size())
                text.insert(at, 1, text[at]);
            break;
          default:
            text.insert(at, Tokens[rng.uniformInt(std::size(Tokens))]);
            break;
        }
    }
    return text;
}

/** Split on @p sep, keeping empty fields. */
std::vector<std::string>
fields(const std::string &text, char sep)
{
    std::vector<std::string> out(1);
    for (const char c : text) {
        if (c == sep)
            out.emplace_back();
        else
            out.back() += c;
    }
    return out;
}

/** Length of the run of decimal digits in @p s from @p i on. */
std::size_t
digitRun(const std::string &s, std::size_t i)
{
    std::size_t n = 0;
    while (i + n < s.size() && s[i + n] >= '0' && s[i + n] <= '9')
        ++n;
    return n;
}

/** A decimal number: `d+[.d*]` or `.d+`, then an optional `e[+-]d+`. */
bool
isDecimal(const std::string &s)
{
    std::size_t i = digitRun(s, 0);
    std::size_t mantissa = i;
    if (i < s.size() && s[i] == '.') {
        const std::size_t frac = digitRun(s, i + 1);
        mantissa += frac;
        i += 1 + frac;
    }
    if (mantissa == 0)
        return false;
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
        ++i;
        if (i < s.size() && (s[i] == '+' || s[i] == '-'))
            ++i;
        const std::size_t exp = digitRun(s, i);
        if (exp == 0)
            return false;
        i += exp;
    }
    return i == s.size();
}

/**
 * The `--topology` grammar, written independently of the parser:
 * tiers `<name>:<replicas>[:<kilo-ins>]` split by commas, a non-empty
 * name of anything but ':' and ',', unique; replicas decimal digits
 * in [1, 16]; kilo-ins a decimal number (no sign, whitespace or hex)
 * in (0, 1e9]. Returns an empty string when @p text conforms, else
 * why not.
 */
std::string
topologyGrammarViolation(const std::string &text)
{
    std::set<std::string> names;
    for (const std::string &item : fields(text, ',')) {
        const std::vector<std::string> f = fields(item, ':');
        if (f.size() < 2 || f.size() > 3 || f[0].empty())
            return "tier \"" + item + "\" is not <name>:<replicas>"
                                      "[:<kilo-ins>]";
        if (!names.insert(f[0]).second)
            return "duplicate tier \"" + f[0] + "\"";
        if (digitRun(f[1], 0) != f[1].size() || f[1].empty() ||
            f[1].size() > 3 || std::stoi(f[1]) < 1 ||
            std::stoi(f[1]) > 16)
            return "replicas \"" + f[1] + "\" are not in [1, 16]";
        if (f.size() == 3) {
            const double kilo = std::strtod(f[2].c_str(), nullptr);
            if (!isDecimal(f[2]) || !(kilo > 0.0 && kilo <= 1e9))
                return "kilo-ins \"" + f[2] + "\" are not in (0, 1e9]";
        }
    }
    return {};
}

} // namespace

TEST(GrammarMutation, AcceptedTopologiesKeepTheGrammarAndRoundTrip)
{
    // Every topology a binary, example, benchmark or golden builds.
    const char *canned[] = {
        "lb:1:20,app:2:80,db:2:140", "frontend:2:150,db:1:250",
        "lb:1:20,app:1:80", "front:1:50,back:1:100", "lb:1:20,app:2:80",
    };
    stats::Rng rng(0x70b0);
    std::size_t accepted = 0;
    for (const char *spec : canned) {
        for (int i = 0; i < MutantsPerSpec; ++i) {
            const std::string text = mutate(spec, rng);
            dist::TopologySpec parsed;
            std::string error;
            if (!dist::TopologySpec::parse(text, parsed, error)) {
                EXPECT_FALSE(error.empty()) << text;
                continue;
            }
            ++accepted;
            EXPECT_EQ(topologyGrammarViolation(text), "")
                << "accepted \"" << text << "\"";
            const std::string summary = parsed.summary();
            dist::TopologySpec again;
            ASSERT_TRUE(dist::TopologySpec::parse(summary, again, error))
                << "summary \"" << summary << "\" of \"" << text
                << "\": " << error;
            EXPECT_EQ(again.summary(), summary) << text;
        }
    }
    // The edits must leave enough valid specs to test the round trip.
    EXPECT_GT(accepted, 1000u);
}

TEST(GrammarMutation, AcceptedFaultPlansRoundTrip)
{
    // Every cluster plan a binary, example, benchmark, test or golden
    // runs.
    const char *canned[] = {
        "node-crash(node=1,at-ms=20)",
        "node-crash(node=0,at-ms=3)",
        "node-degrade(node=3,from-ms=10,for-ms=100,mult=6)",
        "link-drop(node=3,p=0.05)",
        "link-drop(node=3,p=0.02)",
        "link-delay(node=-1,p=0.1,add-us=300)",
        "link-partition(a=0,b=1,from-ms=0,for-ms=4000)",
        "node-crash(node=1,at-ms=2); link-drop(node=0,p=0.1)",
    };
    stats::Rng rng(0xfa17);
    std::size_t accepted = 0;
    for (const char *spec : canned) {
        for (int i = 0; i < MutantsPerSpec; ++i) {
            const std::string text = mutate(spec, rng);
            fi::FaultPlan plan;
            std::string error;
            if (!fi::FaultPlan::parse(text, plan, error)) {
                EXPECT_FALSE(error.empty()) << text;
                continue;
            }
            ++accepted;
            const std::string summary = plan.summary();
            fi::FaultPlan again;
            ASSERT_TRUE(fi::FaultPlan::parse(summary, again, error))
                << "summary \"" << summary << "\" of \"" << text
                << "\": " << error;
            EXPECT_EQ(again.summary(), summary) << text;
        }
    }
    EXPECT_GT(accepted, 1000u);
}
