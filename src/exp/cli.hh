/**
 * @file
 * Minimal command-line flag parsing for the bench/example binaries.
 *
 * Flags are "--name value", "--name=value", or "--name" (boolean).
 * Every bench accepts at least --seed and --requests so experiments
 * are reproducible and scalable, plus the engine flags --jobs and
 * --quiet.
 *
 * Binaries construct Cli with their accepted flag names; an unknown
 * flag (e.g. the typo "--request") aborts with a clear error instead
 * of being silently ignored.
 *
 * Every validating binary also accepts the standard flags
 * (standardFlagNames()): --help prints generated documentation for
 * the accepted set, and --trace-out / --metrics-out / --trace-buf /
 * --prof drive the rbv::obs observability layer (see
 * docs/OBSERVABILITY.md). Each flag name has a registered help string
 * in flagHelp(); cli_test asserts the catalogue is complete.
 */

#ifndef RBV_EXP_CLI_HH
#define RBV_EXP_CLI_HH

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace rbv::exp {

/** Parsed command-line flags. */
class Cli
{
  public:
    /** Parse without validation (tests, fully dynamic consumers). */
    Cli(int argc, char **argv);

    /**
     * Parse and validate: any flag outside @p known prints an error
     * naming the offender and the accepted flags, then exits with
     * status 2.
     */
    Cli(int argc, char **argv,
        std::initializer_list<const char *> known);

    bool has(const std::string &name) const;

    std::string getStr(const std::string &name,
                       const std::string &def) const;

    /**
     * Numeric accessors: absent is @p def. A value that does not
     * parse completely (empty, trailing junk, out of range,
     * non-finite, or negative for getU64) prints "bad --name value"
     * and exits with status 2. Every integer flag is a count, so
     * getU64 reads them all.
     */
    double getDouble(const std::string &name, double def) const;
    std::uint64_t getU64(const std::string &name,
                         std::uint64_t def) const;

    /**
     * A simulated time span of @p unitTicks ticks per unit of the
     * value. A value that is not positive (negative, when
     * @p allowZero) or whose tick count overflows exits 2 like a bad
     * number.
     */
    double getTime(const std::string &name, double def,
                   double unitTicks, bool allowZero = false) const;

    /**
     * A rate in events per @p unitTicks ticks. A value that is not
     * positive, or whose mean gap overflows a tick count, exits 2
     * like a bad number.
     */
    double getRate(const std::string &name, double def,
                   double unitTicks) const;

    /**
     * Boolean accessor: a bare "--flag" (or =1/true/yes/on) is true,
     * =0/false/no/off is false, absent is @p def; any other word
     * exits with status 2 like a bad numeric value.
     */
    bool getBool(const std::string &name, bool def) const;

    /** Parsed flag names not present in @p known. */
    std::vector<std::string>
    unknown(const std::vector<std::string> &known) const;

  private:
    /** The raw value of a given flag; null when absent. */
    const std::string *value(const std::string &name) const;

    [[noreturn]] void badValue(const std::string &name,
                               const std::string &v) const;

    std::string prog; ///< argv[0], for error messages.
    std::map<std::string, std::string> flags;
};

/**
 * Flags every validating binary accepts implicitly: --help plus the
 * observability flags consumed by ObsScope (exp/obsio.hh).
 */
const std::vector<std::string> &standardFlagNames();

/**
 * One-line documentation for a registered flag name; empty for an
 * unregistered name (cli_test asserts no binary uses one).
 */
std::string flagHelp(const std::string &name);

/** Names with a registered (non-empty) flagHelp() entry. */
std::vector<std::string> documentedFlagNames();

/**
 * Generated --help text: usage line plus one "  --name  help" row per
 * accepted flag, sorted by name.
 */
std::string helpText(const std::string &argv0,
                     const std::vector<std::string> &names);

} // namespace rbv::exp

#endif // RBV_EXP_CLI_HH
