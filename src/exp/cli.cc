/**
 * @file
 * Command-line flag parsing implementation.
 */

#include "exp/cli.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>

#include "sim/types.hh"

namespace rbv::exp {

Cli::Cli(int argc, char **argv) : prog(argc > 0 ? argv[0] : "rbv")
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            continue;
        arg = arg.substr(2);
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            flags[arg.substr(0, eq)] = arg.substr(eq + 1);
            continue;
        }
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            flags[arg] = argv[i + 1];
            ++i;
        } else {
            flags[arg] = "";
        }
    }
}

Cli::Cli(int argc, char **argv,
         std::initializer_list<const char *> known)
    : Cli(argc, argv)
{
    std::vector<std::string> names(known.begin(), known.end());
    for (const auto &name : standardFlagNames())
        if (std::find(names.begin(), names.end(), name) == names.end())
            names.push_back(name);
    std::sort(names.begin(), names.end());

    if (has("help")) {
        // Documentation on request is the one legitimate stdout use
        // outside the result tables.
        std::cout << helpText(argv[0], names); // rbvlint: allow(R3)
        std::exit(0);
    }

    const auto bad = unknown(names);
    if (bad.empty())
        return;
    std::cerr << argv[0] << ": unknown flag --" << bad.front()
              << "\naccepted flags:";
    for (const auto &name : names)
        std::cerr << " --" << name;
    std::cerr << "\n";
    std::exit(2);
}

std::vector<std::string>
Cli::unknown(const std::vector<std::string> &known) const
{
    std::vector<std::string> bad;
    for (const auto &[name, value] : flags) {
        if (std::find(known.begin(), known.end(), name) == known.end())
            bad.push_back(name);
    }
    return bad;
}

bool
Cli::has(const std::string &name) const
{
    return flags.count(name) > 0;
}

std::string
Cli::getStr(const std::string &name, const std::string &def) const
{
    auto it = flags.find(name);
    return it != flags.end() && !it->second.empty() ? it->second : def;
}

const std::string *
Cli::value(const std::string &name) const
{
    auto it = flags.find(name);
    return it != flags.end() ? &it->second : nullptr;
}

void
Cli::badValue(const std::string &name, const std::string &v) const
{
    std::cerr << prog << ": bad --" << name << " value '" << v << "'\n";
    std::exit(2);
}

double
Cli::getDouble(const std::string &name, double def) const
{
    const std::string *v = value(name);
    if (v == nullptr)
        return def;
    char *end = nullptr;
    const double out = std::strtod(v->c_str(), &end);
    if (v->empty() || *end != '\0' || !std::isfinite(out))
        badValue(name, *v);
    return out;
}

std::uint64_t
Cli::getU64(const std::string &name, std::uint64_t def) const
{
    const std::string *v = value(name);
    if (v == nullptr)
        return def;
    char *end = nullptr;
    errno = 0;
    const std::uint64_t out = std::strtoull(v->c_str(), &end, 10);
    // strtoull accepts "-1" and wraps it to 2^64 - 1.
    if (v->empty() || *end != '\0' || errno == ERANGE ||
        v->find('-') != std::string::npos)
        badValue(name, *v);
    return out;
}

std::uint64_t
Cli::getU64(const std::string &name, std::uint64_t def, std::uint64_t lo,
            std::uint64_t hi) const
{
    const std::string *v = value(name);
    if (v == nullptr)
        return def;
    const std::uint64_t out = getU64(name, def);
    if (out < lo || out > hi)
        badValue(name, *v);
    return out;
}

int
Cli::getCount(const std::string &name, int def) const
{
    return static_cast<int>(getU64(
        name, static_cast<std::uint64_t>(def), 1,
        static_cast<std::uint64_t>(std::numeric_limits<int>::max())));
}

namespace {

/** True when @p ticks converts to a sim::Tick without overflow. */
bool
fitsTicks(double ticks)
{
    return ticks >= 0.0 &&
           ticks < static_cast<double>(
                       std::numeric_limits<sim::Tick>::max());
}

} // namespace

double
Cli::getTime(const std::string &name, double def, double unitTicks,
             bool allowZero) const
{
    const std::string *v = value(name);
    if (v == nullptr)
        return def;
    const double out = getDouble(name, def);
    if (out < 0.0 || (out == 0.0 && !allowZero) ||
        !fitsTicks(out * unitTicks))
        badValue(name, *v);
    return out;
}

double
Cli::getRate(const std::string &name, double def,
             double unitTicks) const
{
    const std::string *v = value(name);
    if (v == nullptr)
        return def;
    const double out = getDouble(name, def);
    if (out <= 0.0 || !fitsTicks(unitTicks / out))
        badValue(name, *v);
    return out;
}

bool
Cli::getBool(const std::string &name, bool def) const
{
    const std::string *v = value(name);
    if (v == nullptr)
        return def;
    if (v->empty() || *v == "1" || *v == "true" || *v == "yes" ||
        *v == "on")
        return true;
    if (*v == "0" || *v == "false" || *v == "no" || *v == "off")
        return false;
    badValue(name, *v);
}

// -------------------------------------------------- flag catalogue

namespace {

/** Every flag any bench/example accepts, with its documentation. */
const std::pair<const char *, const char *> FlagCatalogue[] = {
    {"app", "application to simulate (web|tpcc|tpch|rubis|webwork; "
            "serve binaries also accept micromix)"},
    {"arrival", "serving arrival process "
                "(poisson|burst|diurnal|flash)"},
    {"bank", "signature-bank size per application (requests)"},
    {"checkpoint-every",
     "completed requests between serve checkpoint lines"},
    {"csv", "print the per-bin tables as CSV on stdout instead of "
            "aligned text"},
    {"deadline-us", "cluster per-attempt RPC deadline in "
                    "microseconds"},
    {"diag-out", "write the diagnosis JSON report (anomaly -> ranked "
                 "causes -> evidence) to this path"},
    {"diagnose", "attribute each detected anomaly to a root cause "
                 "(rbv::diag; see docs/DIAGNOSIS.md)"},
    {"duration", "simulated serving duration in seconds "
                 "(when --requests is 0)"},
    {"faults", "fault-injection plan, e.g. "
               "\"irq-drop(p=0.2);req-stuck(p=0.05,mult=4)\" "
               "(see docs/FAULTS.md)"},
    {"hedge", "cluster hedged-request latency quantile in (0, 1]; "
              "0 disables hedging"},
    {"help", "print this flag documentation and exit"},
    {"link-us", "cluster one-way inter-tier link latency "
                "(microseconds)"},
    {"jobs", "worker threads for independent simulations and "
             "distance builds, 0..256 (0 = hardware concurrency)"},
    {"k", "number of k-medoids clusters"},
    {"metrics-out",
     "write merged obs counters/histograms (flat text) to this path"},
    {"max-outstanding",
     "serving admission cap: shed arrivals beyond this many "
     "outstanding requests"},
    {"ms", "measurement window per sampling variant (milliseconds)"},
    {"no-hist", "suppress the distribution histogram output"},
    {"qps", "serving target arrival rate (requests per simulated "
            "second)"},
    {"prof", "print the obs top-N self-profile table to stderr"},
    {"quiet", "suppress per-job progress lines on stderr"},
    {"requests", "requests to simulate per run"},
    {"rows", "rows of the per-request behavior table to print"},
    {"rpc-retries", "cluster attempts per tier hop (first try + "
                    "retries)"},
    {"rss-log", "append host RSS samples per serve checkpoint to "
                "this path (host-side; never on stdout)"},
    {"rubis", "RUBiS requests for the mixed-workload phase"},
    {"runs", "seed replicates per configuration"},
    {"seed", "base RNG seed (replicate r runs with a derived seed)"},
    {"topology", "cluster tier chain: <name>:<replicas>[:<kilo-ins>] "
                 "comma-separated, e.g. lb:1:20,app:2:80,db:2:140"},
    {"tpch", "TPC-H requests for the mixed-workload phase"},
    {"trace-buf",
     "trace ring capacity per thread in events, 0..4194304 (0 "
     "disables tracing)"},
    {"trace-out",
     "write a Chrome trace_event JSON (Perfetto-loadable) to this "
     "path"},
    {"webwork-requests", "WeBWorK requests (its reference solutions "
                         "are heavier than other apps' requests)"},
    {"window", "serving sliding-window size (series kept by the "
               "streaming cluster model)"},
};

} // namespace

const std::vector<std::string> &
standardFlagNames()
{
    static const std::vector<std::string> names = {
        "help", "metrics-out", "prof", "trace-buf", "trace-out"};
    return names;
}

std::string
flagHelp(const std::string &name)
{
    for (const auto &[flag, help] : FlagCatalogue)
        if (name == flag)
            return help;
    return "";
}

std::vector<std::string>
documentedFlagNames()
{
    std::vector<std::string> out;
    for (const auto &[flag, help] : FlagCatalogue) {
        (void)help;
        out.emplace_back(flag);
    }
    return out;
}

std::string
helpText(const std::string &argv0,
         const std::vector<std::string> &names)
{
    std::string out = "usage: " + argv0 +
                      " [--flag value | --flag=value | --flag]...\n"
                      "accepted flags:\n";
    std::size_t width = 0;
    for (const auto &name : names)
        width = std::max(width, name.size());
    for (const auto &name : names) {
        const std::string help = flagHelp(name);
        out += "  --" + name;
        out.append(width - name.size() + 2, ' ');
        out += (help.empty() ? "(undocumented)" : help) + "\n";
    }
    return out;
}

} // namespace rbv::exp
