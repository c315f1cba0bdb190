/**
 * @file
 * Multi-tier topology construction and fault-tolerant hop
 * orchestration.
 */

#include "dist/topology.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <sstream>

#include "fi/plan.hh"
#include "obs/obs.hh"

namespace rbv::dist {

namespace {

/** Deterministic per-attempt spread around a tier's mean service
 *  demand (+- frac). */
constexpr double ServiceSpreadFrac = 0.3;

/** Service-phase CPI of every replica. */
constexpr double ServiceCpi = 1.2;

/** Cores per replica node. */
constexpr int ReplicaCores = 1;

/** Worker threads per replica. */
constexpr int ReplicaWorkers = 2;

/** Floor for the hedge trigger delay. */
constexpr sim::Tick HedgeMinTicks = sim::usToCycles(150.0);

/** Observed-latency samples a tier needs before hedging arms. */
constexpr std::size_t HedgeWarmup = 16;

/**
 * Largest service demand a tier may ask for. One attempt's cycles
 * must fit sim::Tick; at this cap an attempt already runs for minutes
 * of simulated time.
 */
constexpr double MaxKiloIns = 1e9;

/**
 * Whether @p field spells an unsigned decimal number, as the grammar
 * asks: strtol and strtod would also skip leading whitespace and
 * accept a sign, and strtod hex. It starts with a digit (or a point,
 * when @p fraction) and holds no hex marker; the caller's full parse
 * checks the rest.
 */
bool
unsignedDecimal(const std::string &field, bool fraction)
{
    const char c = field.front();
    return (std::isdigit(static_cast<unsigned char>(c)) ||
            (fraction && c == '.')) &&
           field.find_first_of("xX") == std::string::npos;
}

/** Split on @p sep, keeping empty fields ("a," is {"a", ""}). */
std::vector<std::string>
split(const std::string &text, char sep)
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

/**
 * Replica worker: recv from the tier ingress, execute the request's
 * service demand, echo the message (tag and request context intact)
 * to the reply channel. The demand is a stateless lottery of the
 * attempt token, so a re-sent attempt re-executes a deterministic
 * amount of work.
 */
struct ReplicaLogic final : os::ThreadLogic
{
    os::ChannelId in;
    os::ChannelId out;
    double kiloIns;
    std::uint64_t seed;
    std::uint64_t salt;

    ReplicaLogic(os::ChannelId in, os::ChannelId out, double kiloIns,
                 std::uint64_t seed, std::uint64_t salt)
        : in(in), out(out), kiloIns(kiloIns), seed(seed), salt(salt)
    {
    }

    bool haveMsg = false;
    bool executed = false;
    os::Message msg;

    os::Action
    next() override
    {
        if (!haveMsg) {
            os::ActSyscall a;
            a.id = os::Sys::recv;
            a.args.behavior = os::SysBehavior::ChannelRecv;
            a.args.channel = in;
            return a;
        }
        if (!executed) {
            executed = true;
            const double u = fi::unitIntervalHash(
                seed, 0x3e41ceu + salt, tagToken(msg.tag));
            sim::WorkParams p;
            p.baseCpi = ServiceCpi;
            p.refsPerIns = 0.02;
            const double ins =
                kiloIns * 1000.0 *
                (1.0 + ServiceSpreadFrac * (2.0 * u - 1.0));
            return os::ActExec{p, std::max(ins, 1000.0)};
        }
        haveMsg = false;
        executed = false;
        os::ActSyscall a;
        a.id = os::Sys::send;
        a.args.behavior = os::SysBehavior::ChannelSend;
        a.args.channel = out;
        a.args.msg = msg; // echo: reply keeps tag + request context
        return a;
    }

    void
    onMessage(const os::Message &m) override
    {
        msg = m;
        haveMsg = true;
    }
};

} // namespace

// ------------------------------------------------------ TopologySpec

bool
TopologySpec::parse(const std::string &text, TopologySpec &out,
                    std::string &error)
{
    out.tiers.clear();
    for (const std::string &item : split(text, ',')) {
        if (item.empty()) {
            error = "empty tier in topology \"" + text + "\"";
            return false;
        }
        const std::vector<std::string> f = split(item, ':');
        if (f.size() < 2 || f.size() > 3) {
            error = "tier \"" + item +
                    "\" needs <name>:<replicas>[:<kilo-ins>]";
            return false;
        }
        if (std::find(f.begin(), f.end(), "") != f.end()) {
            error = "tier \"" + item + "\" has an empty field";
            return false;
        }
        TierSpec tier;
        tier.name = f[0];
        char *end = nullptr;
        const long replicas = std::strtol(f[1].c_str(), &end, 10);
        if (!unsignedDecimal(f[1], false) || *end != '\0' ||
            replicas < 1 || replicas > 16) {
            error = "tier \"" + item +
                    "\": replicas must be an integer in [1, 16]";
            return false;
        }
        tier.replicas = static_cast<int>(replicas);
        if (f.size() == 3) {
            tier.serviceKiloIns = std::strtod(f[2].c_str(), &end);
            // Negated so that NaN fails too.
            if (!unsignedDecimal(f[2], true) || *end != '\0' ||
                !(tier.serviceKiloIns > 0.0 &&
                  tier.serviceKiloIns <= MaxKiloIns)) {
                error = "tier \"" + item +
                        "\": kilo-ins must be a number in (0, 1e9]";
                return false;
            }
        }
        for (const auto &t : out.tiers) {
            if (t.name == tier.name) {
                error = "duplicate tier name \"" + tier.name + "\"";
                return false;
            }
        }
        out.tiers.push_back(std::move(tier));
    }
    return true;
}

std::string
TopologySpec::summary() const
{
    std::ostringstream os;
    bool first = true;
    for (const auto &t : tiers) {
        if (!first)
            os << ',';
        first = false;
        os << t.name << ':' << t.replicas << ':' << t.serviceKiloIns;
    }
    return os.str();
}

int
TopologySpec::totalNodes() const
{
    int n = 0;
    for (const auto &t : tiers)
        n += t.replicas;
    return n;
}

// ---------------------------------------------------------- Topology

Topology::Topology(const TopologySpec &spec, const RpcPolicy &policy,
                   const BreakerConfig &breaker, std::uint64_t seed)
    : spec_(spec), policy(policy), breakerCfg(breaker), seed(seed)
{
    RBV_CHECK(!spec_.tiers.empty(), "topology needs >= 1 tier");
    for (std::size_t ti = 0; ti < spec_.tiers.size(); ++ti) {
        const TierSpec &ts = spec_.tiers[ti];
        TierRt rt;
        for (int ri = 0; ri < ts.replicas; ++ri) {
            sim::MachineConfig machine;
            machine.numCores = ReplicaCores;
            machine.coresPerL2Domain = ReplicaCores;
            Node &node = nodes.emplace_back();
            node.name = ts.name + "/" + std::to_string(ri);
            node.machine = std::make_unique<sim::Machine>(machine, eq);
            node.kernel = std::make_unique<os::Kernel>(*node.machine);
            node.machine->setClient(node.kernel.get());

            Replica rep;
            rep.node = static_cast<NodeId>(nodes.size() - 1);
            rep.health = ReplicaHealth(breakerCfg);
            os::Kernel &k = *node.kernel;
            rep.ingress = k.createChannel();
            rep.reply = k.createChannel();
            const os::ProcessId proc = k.createProcess(node.name);
            for (int w = 0; w < ReplicaWorkers; ++w) {
                k.createThread(
                    proc, std::make_unique<ReplicaLogic>(
                              rep.ingress, rep.reply, ts.serviceKiloIns,
                              seed, static_cast<std::uint64_t>(ti)));
            }
            const int tier = static_cast<int>(ti);
            k.setChannelSink(
                rep.reply, [this, tier, ri](const os::Message &m) {
                    // Return-path network latency to the caller side.
                    eq.scheduleIn(spec_.linkLatencyTicks,
                                  [this, tier, ri, m] {
                                      onReply(tier, ri, m);
                                  });
                });
            rt.replicas.push_back(std::move(rep));
        }
        tiers.push_back(std::move(rt));
    }
}

Topology::~Topology() = default;

void
Topology::start()
{
    RBV_CHECK(!started, "topology started twice");
    started = true;
    for (Node &node : nodes)
        node.kernel->start();
}

GlobalRequestId
Topology::inject()
{
    RBV_CHECK(started, "inject() before start()");
    const auto gid = static_cast<GlobalRequestId>(injectedCount());
    GlobalRequestInfo &info = records.emplace_back().info;
    info.injected = eq.now();
    info.local.resize(nodes.size(), os::InvalidRequestId);
    sendAttempt(gid, 0, 0, false);
    return gid;
}

sim::CounterSnapshot
Topology::nodeTotals(GlobalRequestId gid, NodeId node) const
{
    const os::RequestId local = request(gid).local[node];
    if (local == os::InvalidRequestId)
        return {};
    const os::RequestInfo &info = nodes[node].kernel->request(local);
    return info.done ? info.totals : sim::CounterSnapshot{};
}

GlobalRequestId
Topology::globalIdOf(NodeId node, os::RequestId local) const
{
    const auto &ids = nodes[node].localToGlobal;
    const auto idx = static_cast<std::size_t>(local);
    return idx < ids.size() ? ids[idx] : InvalidGlobalRequestId;
}

os::RequestId
Topology::localIdOf(NodeId node, GlobalRequestId gid)
{
    RBV_CHECK(live(gid),
              "localIdOf of unknown or retired global request " << gid);
    RBV_CHECK(node >= 0 && node < numNodes(),
              "localIdOf on unknown node " << node);
    os::RequestId &local = record(gid).local[node];
    if (local == os::InvalidRequestId)
        local = registerLocal(node, gid);
    return local;
}

os::RequestId
Topology::registerLocal(NodeId node, GlobalRequestId gid)
{
    const os::RequestId local = kernel(node).registerRequest();
    auto &ids = nodes[node].localToGlobal;
    const auto idx = static_cast<std::size_t>(local);
    if (ids.size() <= idx)
        ids.resize(idx + 1, InvalidGlobalRequestId);
    ids[idx] = gid;
    return local;
}

core::Timeline
Topology::takeMergedTimeline(
    GlobalRequestId gid,
    const std::vector<core::Sampler *> &samplers) const
{
    core::Timeline merged;
    merged.request = gid;
    const GlobalRequestInfo &info = request(gid);
    for (NodeId n = 0; n < numNodes(); ++n) {
        const os::RequestId local = info.local[n];
        if (local == os::InvalidRequestId)
            continue;
        const auto idx = static_cast<std::size_t>(n);
        if (idx >= samplers.size() || !samplers[idx])
            continue;
        const core::Timeline tl = samplers[idx]->takeTimeline(local);
        merged.periods.insert(merged.periods.end(),
                              tl.periods.begin(), tl.periods.end());
    }
    // All nodes share one clock, so wall start order serializes the
    // cross-machine execution (a request's stages run sequentially).
    std::stable_sort(merged.periods.begin(), merged.periods.end(),
                     [](const core::Period &a, const core::Period &b) {
                         return a.wallStart < b.wallStart;
                     });
    return merged;
}

void
Topology::dropToken(GlobalRequestInfo &rs, std::uint64_t token)
{
    auto it =
        std::find(rs.liveTokens.begin(), rs.liveTokens.end(), token);
    if (it != rs.liveTokens.end())
        rs.liveTokens.erase(it);
}

void
Topology::sendAttempt(GlobalRequestId gid, int tier, int attempt,
                      bool hedge)
{
    GlobalRequestInfo &rs = record(gid);
    TierRt &T = tiers[static_cast<std::size_t>(tier)];
    const int n = static_cast<int>(T.replicas.size());
    const sim::Tick now = eq.now();

    // Deterministic replica choice: first try spreads by global id,
    // retries/hedges rotate away from the replica that just failed
    // (or is being hedged against). Breaker-ejected replicas are
    // skipped; an Open breaker past its cooldown admits the probe.
    int base;
    if (attempt == 0 && !hedge)
        base = static_cast<int>(gid % n);
    else
        base = (rs.lastReplica >= 0 ? rs.lastReplica + 1 : 0) % n;
    int pick = -1;
    for (int k = 0; k < n; ++k) {
        const int i = (base + k) % n;
        if (hedge && n > 1 && i == rs.lastReplica)
            continue;
        if (T.replicas[static_cast<std::size_t>(i)].health.admit(
                now)) {
            pick = i;
            break;
        }
    }
    if (pick < 0) {
        // Every breaker rejected the send. A hedge just fizzles; a
        // primary attempt goes through the bounded retry path so the
        // request degrades (fails) instead of hanging.
        ++stats_.noReplica;
        if (!hedge)
            scheduleRetryOrFail(gid, tier);
        return;
    }

    ++stats_.attempts;
    RBV_COUNT(DistRpcAttempts, 1);
    if (hedge) {
        ++stats_.hedges;
        RBV_COUNT(DistHedges, 1);
    } else if (attempt > 0) {
        ++stats_.retries;
        RBV_COUNT(DistRetries, 1);
        if (rs.lastReplica >= 0 && pick != rs.lastReplica) {
            ++stats_.failovers;
            RBV_COUNT(DistFailovers, 1);
        }
    }
    if (!hedge)
        rs.lastReplica = pick;

    Replica &rep = T.replicas[static_cast<std::size_t>(pick)];
    const std::uint64_t token = nextToken++;
    attempts[token] = Attempt{gid, tier, pick, now};
    rs.liveTokens.push_back(token);

    os::Message m;
    m.tag = encodeTag(rs.prevNode, token);
    m.bytes = 512.0;
    const NodeId node = rep.node;
    const os::ChannelId ingress = rep.ingress;
    eq.scheduleIn(spec_.linkLatencyTicks, [this, node, ingress, m, gid] {
        postAttempt(node, ingress, m, gid);
    });

    // Every attempt carries a deadline: a lost message can only cost
    // a timeout, never a hang.
    eq.scheduleIn(policy.deadlineTicks,
                  [this, token] { onDeadline(token); });

    if (!hedge && policy.hedgeQuantile > 0.0 && !rs.hedged &&
        n > 1 && T.hopLatencyUs.size() >= HedgeWarmup) {
        const double qUs =
            T.hopLatencyUs.quantile(policy.hedgeQuantile);
        const sim::Tick trigger = std::max(
            HedgeMinTicks, static_cast<sim::Tick>(sim::usToCycles(qUs)));
        if (trigger < policy.deadlineTicks)
            eq.scheduleIn(trigger, [this, token, attempt] {
                maybeHedge(token, attempt);
            });
    }
}

void
Topology::postAttempt(NodeId node, os::ChannelId ingress, os::Message m,
                      GlobalRequestId gid)
{
    os::Kernel &k = kernel(node);
    if (live(gid)) {
        m.request = localIdOf(node, gid);
        k.post(ingress, m);
        return;
    }
    // A hedge that arrives after its request resolved. The replica
    // still registers it and runs the same work under the same
    // registration sequence number; completed at once, the id is
    // charged nothing, and the kernel releases it once the worker
    // that takes the message has moved on.
    m.request = registerLocal(node, gid);
    k.completeRequest(m.request);
    k.post(ingress, m);
    k.deferRelease(m.request);
}

void
Topology::onDeadline(std::uint64_t token)
{
    auto it = attempts.find(token);
    if (it == attempts.end())
        return; // attempt already resolved or abandoned
    const Attempt a = it->second;
    attempts.erase(it);
    ++stats_.timeouts;
    tiers[static_cast<std::size_t>(a.tier)]
        .replicas[static_cast<std::size_t>(a.replica)]
        .health.onFailure(eq.now());

    GlobalRequestInfo &rs = record(a.gid);
    dropToken(rs, token);
    if (rs.state != RequestState::InFlight || rs.tier != a.tier)
        return;
    if (!rs.liveTokens.empty())
        return; // a hedge sibling is still in flight
    scheduleRetryOrFail(a.gid, a.tier);
}

void
Topology::maybeHedge(std::uint64_t token, int armedAttempt)
{
    auto it = attempts.find(token);
    if (it == attempts.end())
        return; // the attempt already resolved: nothing to hedge
    const Attempt a = it->second;
    GlobalRequestInfo &rs = record(a.gid);
    if (rs.state != RequestState::InFlight || rs.tier != a.tier ||
        rs.attempt != armedAttempt || rs.hedged)
        return;
    rs.hedged = true;
    sendAttempt(a.gid, a.tier, rs.attempt, true);
}

void
Topology::onReply(int tier, int replica, const os::Message &msg)
{
    const std::uint64_t token = tagToken(msg.tag);
    auto it = attempts.find(token);
    if (it == attempts.end()) {
        // Reply of an abandoned attempt (hedge loser, post-timeout
        // straggler): dropped, the hop already moved on.
        ++stats_.lateReplies;
        return;
    }
    const Attempt a = it->second;
    attempts.erase(it);
    TierRt &T = tiers[static_cast<std::size_t>(tier)];
    T.replicas[static_cast<std::size_t>(replica)].health.onSuccess(
        eq.now());

    GlobalRequestInfo &rs = record(a.gid);
    dropToken(rs, token);
    if (rs.state != RequestState::InFlight)
        return;
    RBV_DCHECK(rs.tier == a.tier, "reply for a stale hop");
    // The hedge trigger is the window's only reader.
    if (policy.hedgeQuantile > 0.0)
        T.hopLatencyUs.add(
            sim::cyclesToUs(static_cast<double>(eq.now() - a.sentAt)));

    // First reply wins the hop: abandon any sibling attempts (their
    // deadline events and replies become no-ops).
    for (const std::uint64_t t : rs.liveTokens)
        attempts.erase(t);
    rs.liveTokens.clear();

    const NodeId servedBy =
        T.replicas[static_cast<std::size_t>(replica)].node;
    if (a.tier + 1 < tierCount()) {
        rs.tier = a.tier + 1;
        rs.attempt = 0;
        rs.hedged = false;
        rs.lastReplica = -1;
        rs.prevNode = servedBy;
        sendAttempt(a.gid, rs.tier, 0, false);
    } else {
        resolve(a.gid, true);
    }
}

void
Topology::scheduleRetryOrFail(GlobalRequestId gid, int tier)
{
    GlobalRequestInfo &rs = record(gid);
    const int next = rs.attempt + 1;
    if (next >= policy.maxAttempts) {
        failRequest(gid);
        return;
    }
    rs.attempt = next;
    rs.hedged = false;
    const sim::Tick wait = policy.backoffTicks(seed, gid, next);
    eq.scheduleIn(wait, [this, gid, tier, next] {
        if (!live(gid))
            return;
        const GlobalRequestInfo &rs2 = record(gid);
        if (rs2.state != RequestState::InFlight || rs2.tier != tier ||
            rs2.attempt != next)
            return;
        sendAttempt(gid, tier, next, false);
    });
}

void
Topology::failRequest(GlobalRequestId gid)
{
    GlobalRequestInfo &rs = record(gid);
    if (rs.state != RequestState::InFlight)
        return;
    for (const std::uint64_t t : rs.liveTokens)
        attempts.erase(t);
    rs.liveTokens.clear();
    // Degraded, not lost: whatever per-node accounting the request
    // accumulated before giving up freezes with it (the
    // graceful-degradation contract).
    resolve(gid, false);
}

void
Topology::resolve(GlobalRequestId gid, bool ok)
{
    GlobalRequestInfo &rs = record(gid);
    // Completing each node-local request freezes its kernel record,
    // which is that node's share of the request from now on.
    for (NodeId n = 0; n < numNodes(); ++n)
        if (rs.local[n] != os::InvalidRequestId)
            kernel(n).completeRequest(rs.local[n]);
    rs.state = ok ? RequestState::Completed : RequestState::Failed;
    rs.resolved = eq.now();
    if (ok) {
        ++completed_;
        latenciesUs.push_back(sim::cyclesToUs(
            static_cast<double>(rs.resolved - rs.injected)));
    } else {
        ++failed_;
    }
    if (resolvedCb)
        resolvedCb(gid, ok);
    retire(gid);
}

void
Topology::retire(GlobalRequestId gid)
{
    // After the callback nothing reads the node-local records, so
    // each id goes to its kernel's deferred release.
    Record &r = records[static_cast<std::size_t>(gid - firstGid)];
    for (NodeId n = 0; n < numNodes(); ++n)
        if (r.info.local[n] != os::InvalidRequestId)
            kernel(n).deferRelease(r.info.local[n]);
    r.retired = true;
    while (!records.empty() && records.front().retired) {
        records.pop_front();
        ++firstGid;
    }
}

std::vector<Topology::BreakerEvent>
Topology::breakerHistory() const
{
    std::vector<BreakerEvent> out;
    for (std::size_t ti = 0; ti < tiers.size(); ++ti) {
        const auto &reps = tiers[ti].replicas;
        for (std::size_t ri = 0; ri < reps.size(); ++ri) {
            for (const auto &t : reps[ri].health.transitions()) {
                BreakerEvent e;
                e.tick = t.tick;
                e.tier = static_cast<int>(ti);
                e.replica = static_cast<int>(ri);
                e.from = t.from;
                e.to = t.to;
                out.push_back(e);
            }
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const BreakerEvent &a, const BreakerEvent &b) {
                         return a.tick < b.tick;
                     });
    return out;
}

} // namespace rbv::dist
