/**
 * @file
 * Server worker thread logic implementation.
 */

#include "wl/worker.hh"

#include <cassert>

namespace rbv::wl {

WorkerLogic::WorkerLogic(os::ChannelId my_channel,
                         std::vector<os::ChannelId> tier_channels,
                         os::ChannelId reply_channel)
    : myChannel(my_channel), tierChannels(std::move(tier_channels)),
      replyChannel(reply_channel)
{
}

os::SyscallArgs
WorkerLogic::recvArgs(os::ChannelId ch)
{
    os::SyscallArgs args;
    args.behavior = os::SysBehavior::ChannelRecv;
    args.channel = ch;
    args.kernelInstructions = 2600.0;
    args.kernelCpi = 1.9;
    args.kernelRefsPerIns = 0.015;
    args.kernelMissRatio = 0.05;
    return args;
}

os::SyscallArgs
WorkerLogic::sendArgs(os::ChannelId ch, os::Message msg)
{
    os::SyscallArgs args;
    args.behavior = os::SysBehavior::ChannelSend;
    args.channel = ch;
    args.msg = msg;
    args.kernelInstructions = 2200.0;
    args.kernelCpi = 1.8;
    args.kernelRefsPerIns = 0.015;
    args.kernelMissRatio = 0.05;
    return args;
}

void
WorkerLogic::onMessage(const os::Message &msg)
{
    spec = static_cast<const RequestSpec *>(msg.payload);
    stageIdx = msg.tag;
    segIdx = 0;
    entrySyscallIssued = false;
    assert(spec && stageIdx < spec->stages.size());
}

os::Action
WorkerLogic::next()
{
    if (!spec) {
        // Idle: wait for the next (request, stage) message.
        return os::ActSyscall{os::Sys::recv, recvArgs(myChannel)};
    }

    const StageSpec &stage = spec->stages[stageIdx];

    if (segIdx < stage.segments.size()) {
        const SegmentSpec &seg = stage.segments[segIdx];
        if (seg.hasSyscall && !entrySyscallIssued) {
            entrySyscallIssued = true;
            return os::ActSyscall{seg.sysId, seg.sysArgs};
        }
        entrySyscallIssued = false;
        ++segIdx;
        return os::ActExec{seg.params, seg.instructions};
    }

    // Stage finished: forward to the next stage's tier, or reply.
    // The worker lets go of the spec here, so past the reply nothing
    // but the load driver holds it.
    os::Message msg;
    msg.tag = stageIdx + 1;
    msg.payload = spec;
    os::ChannelId dest = replyChannel;
    if (stageIdx + 1 < spec->stages.size()) {
        const int tier = spec->stages[stageIdx + 1].tier;
        dest = tierChannels[tier];
    }
    spec = nullptr;
    return os::ActSyscall{os::Sys::send, sendArgs(dest, msg)};
}

} // namespace rbv::wl
