/**
 * @file
 * The CPU placement hint of exp/handoff.hh's stage pair.
 */

#include "exp/handoff.hh"

#ifdef __linux__
#include <sched.h>
#endif

namespace rbv::exp {

int
currentCpu()
{
#ifdef __linux__
    return sched_getcpu();
#else
    return -1;
#endif
}

void
leaveCpu(int cpu)
{
#ifdef __linux__
    if (cpu < 0 || cpu >= CPU_SETSIZE || sched_getcpu() != cpu)
        return;
    cpu_set_t mine;
    if (sched_getaffinity(0, sizeof mine, &mine) != 0)
        return;
    cpu_set_t away = mine;
    CPU_CLR(cpu, &away);
    if (CPU_COUNT(&away) == 0)
        return; // One CPU: the stages take turns on it.
    // Moving is best effort: on failure the thread stays put.
    if (sched_setaffinity(0, sizeof away, &away) == 0)
        sched_setaffinity(0, sizeof mine, &mine);
#else
    (void)cpu;
#endif
}

} // namespace rbv::exp
