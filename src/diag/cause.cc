/**
 * @file
 * Cause taxonomy implementation.
 */

#include "diag/cause.hh"

namespace rbv::diag {

const char *
causeName(Cause c)
{
    switch (c) {
    case Cause::CacheContention:
        return "cache-contention";
    case Cause::BandwidthSaturation:
        return "bandwidth-saturation";
    case Cause::InjectedStall:
        return "injected-stall";
    case Cause::CounterArtifact:
        return "counter-artifact";
    case Cause::SchedInterference:
        return "sched-interference";
    case Cause::Unknown:
    case Cause::Count_:
        break;
    }
    return "unknown";
}

} // namespace rbv::diag
