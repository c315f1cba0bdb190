/**
 * @file
 * CLI glue for the rbv::obs observability layer: one RAII object a
 * binary constructs right after its Cli, mapping the standard flags
 * to a session and its reports.
 *
 *     const Cli cli(argc, argv, {...});
 *     const ObsScope obs(cli);   // owns the session for this run
 *
 * A session is created only when an observability flag (--trace-out,
 * --metrics-out, --prof) asks for output, so unflagged runs stay on
 * the dormant (thread-local null check) path. At destruction the
 * scope writes the requested reports: trace JSON and metrics text to
 * their files, the self-profile table to stderr. All three are
 * diagnostic side channels — stdout result tables are untouched, so
 * determinism guarantees hold with or without the flags.
 */

#ifndef RBV_EXP_OBSIO_HH
#define RBV_EXP_OBSIO_HH

#include <cstdint>
#include <memory>
#include <string>

#include "obs/obs.hh"

namespace rbv::exp {

class Cli;

/** Largest --trace-buf: 2^22 events of 120 bytes, 480 MiB a thread. */
constexpr std::uint64_t MaxTraceBuf = std::uint64_t{1} << 22;

/** RAII obs session driven by the standard CLI flags. */
class ObsScope
{
  public:
    explicit ObsScope(const Cli &cli);
    ~ObsScope();

    ObsScope(const ObsScope &) = delete;
    ObsScope &operator=(const ObsScope &) = delete;

    /** The owned session; null when no observability flag was given. */
    obs::Session *session() const { return sess.get(); }

  private:
    std::unique_ptr<obs::Session> sess;
    std::string traceOut;
    std::string metricsOut;
    bool profOut = false;
};

} // namespace rbv::exp

#endif // RBV_EXP_OBSIO_HH
