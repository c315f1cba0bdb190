/**
 * @file
 * Server worker thread logic.
 *
 * A worker belongs to one tier. It loops: receive a (request, stage)
 * message from the tier's channel, execute the stage's segments
 * (entry syscalls followed by instruction bursts), then forward the
 * request to the next stage's tier — or to the reply channel when the
 * stage was the last — and go back to receiving.
 */

#ifndef RBV_WL_WORKER_HH
#define RBV_WL_WORKER_HH

#include <vector>

#include "os/thread.hh"
#include "wl/spec.hh"

namespace rbv::wl {

/**
 * ThreadLogic of one server worker.
 */
class WorkerLogic : public os::ThreadLogic
{
  public:
    /**
     * @param my_channel    Channel this worker receives on.
     * @param tier_channels Channel of every tier (for forwarding).
     * @param reply_channel Channel back to the client.
     */
    WorkerLogic(os::ChannelId my_channel,
                std::vector<os::ChannelId> tier_channels,
                os::ChannelId reply_channel);

    os::Action next() override;
    void onMessage(const os::Message &msg) override;

    /** @name Socket syscall cost shaping. */
    /// @{
    static os::SyscallArgs recvArgs(os::ChannelId ch);
    static os::SyscallArgs sendArgs(os::ChannelId ch, os::Message msg);
    /// @}

  private:
    os::ChannelId myChannel;
    std::vector<os::ChannelId> tierChannels;
    os::ChannelId replyChannel;

    const RequestSpec *spec = nullptr;
    std::size_t stageIdx = 0;
    std::size_t segIdx = 0;
    bool entrySyscallIssued = false;
};

} // namespace rbv::wl

#endif // RBV_WL_WORKER_HH
