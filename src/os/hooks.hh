/**
 * @file
 * Kernel instrumentation hooks.
 *
 * The paper's OS management attaches at exactly these points: system
 * call entries (Sec. 3.2's in-kernel sampling) and request context
 * switches (mandatory attribution sampling, Sec. 3.1). Samplers and
 * the transition trainers implement this interface; the kernel
 * invokes every registered hook.
 */

#ifndef RBV_OS_HOOKS_HH
#define RBV_OS_HOOKS_HH

#include "os/ids.hh"
#include "os/syscall.hh"
#include "sim/types.hh"

namespace rbv::os {

/**
 * Observer interface over kernel events.
 */
class KernelHooks
{
  public:
    virtual ~KernelHooks() = default;

    /**
     * A system call entered the kernel on @p core. Invoked before the
     * kernel cost is charged, with the caller's request in context.
     */
    virtual void
    onSyscallEntry(sim::CoreId core, ThreadId thread, RequestId request,
                   Sys sys)
    {
        (void)core; (void)thread; (void)request; (void)sys;
    }

    /**
     * The request context of @p core is about to change (thread
     * context switch, or recv adopting a new request on the same
     * thread). Invoked before switch costs are charged so the
     * before-switch counters can be attributed to @p out.
     */
    virtual void
    onRequestSwitch(sim::CoreId core, RequestId out, RequestId in)
    {
        (void)core; (void)out; (void)in;
    }
};

} // namespace rbv::os

#endif // RBV_OS_HOOKS_HH
