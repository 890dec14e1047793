#include "router_net.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "util/diag.hh"

namespace cryo::netsim
{

RouterNetConfig
RouterNetConfig::fromConfig(const noc::NocConfig &cfg)
{
    RouterNetConfig out;
    out.kind = cfg.topology().kind();
    out.cores = cfg.topology().cores();
    const int routers = cfg.topology().routerCount();
    fatalIf(routers <= 0, "router network needs routers");
    out.concentration = out.cores / routers;
    out.routerCycles = cfg.routerSpec().pipelineCycles;
    out.virtualChannels = cfg.routerSpec().virtualChannels;
    out.vcBufferFlits = cfg.routerSpec().bufferDepth;
    out.hopsPerCycle = cfg.hopsPerCycle();
    return out;
}

RouterNetwork::RouterNetwork(RouterNetConfig cfg) : cfg_(cfg)
{
    fatalIf(cfg_.cores < 4, "network needs at least 4 cores");
    fatalIf(cfg_.cores > std::numeric_limits<std::int16_t>::max(),
            "at most 32767 cores");
    fatalIf(cfg_.concentration < 1, "concentration must be >= 1");
    fatalIf(cfg_.cores % cfg_.concentration != 0,
            "cores must divide evenly across routers");
    fatalIf(cfg_.routerCycles < 1, "router pipeline must be >= 1 cycle");
    fatalIf(cfg_.virtualChannels < 1, "need at least one VC");
    fatalIf(cfg_.virtualChannels > std::numeric_limits<std::int8_t>::max(),
            "at most 127 VCs per link");
    fatalIf(cfg_.vcBufferFlits < 1, "VC buffers must hold >= 1 flit");
    fatalIf(cfg_.hopsPerCycle < 1, "links cover >= 1 hop per cycle");

    routers_ = cfg_.cores / cfg_.concentration;
    gridSide_ = static_cast<int>(std::lround(std::sqrt(routers_)));
    fatalIf(gridSide_ * gridSide_ != routers_,
            "router count must form a square grid");

    inQueueIds_.resize(static_cast<std::size_t>(routers_));

    // Router spacing in tile hops: concentrated networks space their
    // routers sqrt(concentration) tiles apart.
    const int spacing = static_cast<int>(
        std::lround(std::sqrt(static_cast<double>(cfg_.concentration))));

    switch (cfg_.kind) {
      case noc::TopologyKind::Mesh:
      case noc::TopologyKind::CMesh:
        buildMeshLinks(spacing);
        break;
      case noc::TopologyKind::FlattenedButterfly:
        buildButterflyLinks(spacing);
        break;
      default:
        fatal("RouterNetwork only models Mesh, CMesh and FB");
    }

    // One injection queue per node at its local router (the NI source
    // queue: unbounded, latency accrues there under overload).
    injectQueueId_.resize(static_cast<std::size_t>(cfg_.cores));
    ejectedUntil_.assign(static_cast<std::size_t>(cfg_.cores), 0);
    for (int n = 0; n < cfg_.cores; ++n) {
        const int r = routerOf(n);
        const int qid = static_cast<int>(queues_.size());
        auto &in_ids = inQueueIds_[static_cast<std::size_t>(r)];
        InQueue &q = queues_.emplace_back();
        q.capacity = 0;
        q.router = r;
        q.pos = static_cast<int>(in_ids.size());
        in_ids.push_back(qid);
        injectQueueId_[static_cast<std::size_t>(n)] = qid;
    }

    rrPointer_.assign(links_.size(), 0);
    buildRoutes();
}

int
RouterNetwork::linkCycles(int spacings) const
{
    const int hops = std::max(1, spacings);
    return std::max(1, (hops + cfg_.hopsPerCycle - 1) / cfg_.hopsPerCycle);
}

int
RouterNetwork::flowVc(int src, int dst) const
{
    // Static per-flow VC: preserves same-flow ordering and keeps the
    // dimension-ordered channel-dependency graph acyclic.
    const unsigned mix = static_cast<unsigned>(src) * 2654435761u
        + static_cast<unsigned>(dst) * 40503u;
    return static_cast<int>(mix % static_cast<unsigned>(
        cfg_.virtualChannels));
}

void
RouterNetwork::addLink(int from, int to, int cycles)
{
    Link l;
    l.from = from;
    l.to = to;
    l.cycles = cycles;
    // One buffered queue per VC at the downstream input.
    l.toQueueBase = static_cast<int>(queues_.size());
    auto &in_ids = inQueueIds_[static_cast<std::size_t>(to)];
    for (int v = 0; v < cfg_.virtualChannels; ++v) {
        InQueue &q = queues_.emplace_back();
        q.capacity = cfg_.vcBufferFlits;
        q.router = to;
        q.pos = static_cast<int>(in_ids.size());
        in_ids.push_back(l.toQueueBase + v);
    }
    links_.push_back(l);
    locks_.resize(locks_.size() +
                  static_cast<std::size_t>(cfg_.virtualChannels));
}

void
RouterNetwork::buildMeshLinks(int spacing_hops)
{
    const int c = linkCycles(spacing_hops);
    for (int r = 0; r < routers_; ++r) {
        const int x = routerX(r);
        const int y = routerY(r);
        if (x + 1 < gridSide_)
            addLink(r, routerAt(x + 1, y), c);
        if (x > 0)
            addLink(r, routerAt(x - 1, y), c);
        if (y + 1 < gridSide_)
            addLink(r, routerAt(x, y + 1), c);
        if (y > 0)
            addLink(r, routerAt(x, y - 1), c);
    }
}

void
RouterNetwork::buildButterflyLinks(int spacing_hops)
{
    // Express links to every router in the same row and column, with
    // traversal cycles proportional to the physical span.
    for (int r = 0; r < routers_; ++r) {
        const int x = routerX(r);
        const int y = routerY(r);
        for (int ox = 0; ox < gridSide_; ++ox) {
            if (ox != x) {
                addLink(r, routerAt(ox, y),
                        linkCycles(std::abs(ox - x) * spacing_hops));
            }
        }
        for (int oy = 0; oy < gridSide_; ++oy) {
            if (oy != y) {
                addLink(r, routerAt(x, oy),
                        linkCycles(std::abs(oy - y) * spacing_hops));
            }
        }
    }
}

int
RouterNetwork::nextRouter(int router, int dst_router) const
{
    const int x = routerX(router);
    const int y = routerY(router);
    const int dx = routerX(dst_router);
    const int dy = routerY(dst_router);
    switch (cfg_.kind) {
      case noc::TopologyKind::Mesh:
      case noc::TopologyKind::CMesh:
        // Dimension-ordered XY routing (deadlock-free).
        if (x != dx)
            return routerAt(x + (dx > x ? 1 : -1), y);
        return routerAt(x, y + (dy > y ? 1 : -1));
      case noc::TopologyKind::FlattenedButterfly:
        // Row express link first, then column (minimal, <= 2 hops).
        return (x != dx) ? routerAt(dx, y) : routerAt(x, dy);
      default:
        panic("unsupported topology in nextRouter()");
    }
}

void
RouterNetwork::buildRoutes()
{
    const int links = static_cast<int>(links_.size());
    fatalIf(links + routers_ > std::numeric_limits<std::int16_t>::max(),
            "too many links for 16-bit requester ids");
    const auto rr = static_cast<std::size_t>(routers_);

    std::vector<int> link_to(rr * rr, -1); // [from][to] -> link id
    for (int lid = 0; lid < links; ++lid) {
        const Link &l = links_[static_cast<std::size_t>(lid)];
        link_to[static_cast<std::size_t>(l.from) * rr +
                static_cast<std::size_t>(l.to)] = lid;
    }
    nextReq_.assign(rr * rr, 0);
    for (int r = 0; r < routers_; ++r) {
        for (int d = 0; d < routers_; ++d) {
            int req = links + r; // eject here
            if (d != r) {
                req = link_to[static_cast<std::size_t>(r) * rr +
                              static_cast<std::size_t>(
                                  nextRouter(r, d))];
                fatalIf(req < 0, "route produced a missing link");
            }
            nextReq_[static_cast<std::size_t>(r) * rr +
                     static_cast<std::size_t>(d)] =
                static_cast<std::int16_t>(req);
        }
    }

    std::size_t widest = 1;
    for (const auto &in_ids : inQueueIds_)
        widest = std::max(widest, in_ids.size());
    words_ = (widest + 63) / 64;
    reqMask_.assign(static_cast<std::size_t>(links + routers_) * words_,
                    0);
}

bool
RouterNetwork::anyRequest(int req) const
{
    const std::uint64_t *m = mask(req);
    for (std::size_t w = 0; w < words_; ++w) {
        if (m[w] != 0)
            return true;
    }
    return false;
}

void
RouterNetwork::pushFlit(InQueue &q, const FlitEntry &f)
{
    if (q.q.empty())
        mask(f.req)[q.pos >> 6] |= std::uint64_t{1} << (q.pos & 63);
    q.q.push_back(f);
}

void
RouterNetwork::popFlit(InQueue &q)
{
    const std::size_t word = static_cast<std::size_t>(q.pos >> 6);
    const std::uint64_t bit = std::uint64_t{1} << (q.pos & 63);
    mask(q.q.front().req)[word] &= ~bit;
    q.q.pop_front();
    q.reserved -= 1;
    if (!q.q.empty())
        mask(q.q.front().req)[word] |= bit;
}

namespace
{

/** First set bit at a position in [from, end) of @p m; -1 if none. */
int
nextSet(const std::uint64_t *m, int from, int end)
{
    while (from < end) {
        const int w = from >> 6;
        const std::uint64_t bits =
            m[w] & (~std::uint64_t{0} << (from & 63));
        if (bits != 0) {
            const int p = w * 64 + std::countr_zero(bits);
            return p < end ? p : -1;
        }
        from = (w + 1) * 64;
    }
    return -1;
}

} // namespace

void
RouterNetwork::inject(const Packet &p)
{
    using Flits = std::numeric_limits<std::int16_t>;
    using Tag = std::numeric_limits<std::int8_t>;
    fatalIf(p.src < 0 || p.src >= cfg_.cores, "source out of range");
    fatalIf(p.dst < 0 || p.dst >= cfg_.cores,
            "destination out of range");
    fatalIf(p.id == 0, "packet ids must be non-zero");
    fatalIf(p.flits < 1 || p.flits > Flits::max(),
            "packet flits outside [1, 32767]");
    fatalIf(p.tag < Tag::min() || p.tag > Tag::max(),
            "packet tag outside [-128, 127]");
    const LivePacket live{p.id,
                          now_,
                          static_cast<std::int16_t>(p.src),
                          static_cast<std::int16_t>(p.dst),
                          static_cast<std::int16_t>(p.flits),
                          static_cast<std::int8_t>(p.tag),
                          p.broadcast};
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<std::uint32_t>(packets_.size());
        packets_.push_back(live);
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        packets_[slot] = live;
    }
    ++live_;
    injectedFlits_ += static_cast<std::uint64_t>(p.flits);

    const int qid = injectQueueId_[static_cast<std::size_t>(p.src)];
    InQueue &q = queues_[static_cast<std::size_t>(qid)];
    const auto vc = static_cast<std::int8_t>(flowVc(p.src, p.dst));
    const std::int16_t req = requestAt(q.router, p.dst);
    for (int s = 0; s < p.flits; ++s) {
        // The NI presents flits back-to-back after the local router's
        // pipeline latency.
        FlitEntry f{now_ + static_cast<Cycle>(cfg_.routerCycles + s),
                    slot, req, vc, s == 0, s == p.flits - 1};
        pushFlit(q, f);
        q.reserved += 1;
    }
}

bool
RouterNetwork::trySend(int lid, int qid)
{
    const Link &l = links_[static_cast<std::size_t>(lid)];
    InQueue &q = queues_[static_cast<std::size_t>(qid)];
    const FlitEntry &f = q.q.front();
    if (f.readyAt > now_)
        return false;

    VcLock &lock = locks_[static_cast<std::size_t>(
        lid * cfg_.virtualChannels + f.vc)];
    if (lock.owner != 0) {
        // The VC is held by a packet in flight; only its next flit
        // (from the same input queue) may use it.
        if (lock.owner != f.slot + 1 || lock.queue != qid)
            return false;
    } else if (!f.head) {
        return false;
    }

    const int dst_qid = l.toQueueBase + f.vc;
    InQueue &dst_q = queues_[static_cast<std::size_t>(dst_qid)];
    if (dst_q.capacity > 0 && dst_q.reserved >= dst_q.capacity)
        return false; // no credit downstream on this VC

    // Move the flit: it arrives after the wire traversal and is
    // routable after the downstream router pipeline.
    FlitEntry moved = f;
    moved.readyAt = now_ + static_cast<Cycle>(l.cycles)
        + static_cast<Cycle>(cfg_.routerCycles);
    moved.req = requestAt(l.to, packets_[f.slot].dst);
    dst_q.reserved += 1;
    inFlight_.push_back(
        {now_ + static_cast<Cycle>(l.cycles), dst_qid, moved});

    if (moved.head)
        lock = {moved.slot + 1, qid};
    if (moved.tail)
        lock = {};
    popFlit(q);
    return true;
}

void
RouterNetwork::serviceLink(int lid)
{
    // One flit per cycle crosses the physical channel; round-robin
    // across this router's input queues (covering all VCs) arbitrates
    // both switch allocation and VC interleaving. Only the queues
    // whose front requests this link can win, so walk those in the
    // round-robin order: from the pointer up, then wrap.
    const Link &l = links_[static_cast<std::size_t>(lid)];
    const auto &in_ids = inQueueIds_[static_cast<std::size_t>(l.from)];
    const int n = static_cast<int>(in_ids.size());
    const std::uint64_t *m = mask(lid);
    int &ptr = rrPointer_[static_cast<std::size_t>(lid)];
    const int start = ptr;
    for (const auto &[from, end] :
         {std::pair{start, n}, std::pair{0, start}}) {
        for (int pos = nextSet(m, from, end); pos >= 0;
             pos = nextSet(m, pos + 1, end)) {
            if (trySend(lid, in_ids[static_cast<std::size_t>(pos)])) {
                ptr = (pos + 1) % n;
                return;
            }
        }
    }
}

void
RouterNetwork::serviceEjection(int r)
{
    // One ejection port per router-local node; each can sink one flit
    // per cycle. Requesters are visited in ascending queue position;
    // a pop changes only its own queue's bit, so reading each mask
    // word once visits every queue at most once, as a full scan does.
    const auto &in_ids = inQueueIds_[static_cast<std::size_t>(r)];
    const std::uint64_t *m = mask(static_cast<int>(links_.size()) + r);
    for (std::size_t w = 0; w < words_; ++w) {
        for (std::uint64_t bits = m[w]; bits != 0; bits &= bits - 1) {
            const std::size_t pos =
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            InQueue &q = queues_[static_cast<std::size_t>(in_ids[pos])];
            const FlitEntry &f = q.q.front();
            if (f.readyAt > now_)
                continue;
            LivePacket &pkt = packets_[f.slot];
            Cycle &port_busy = ejectedUntil_[static_cast<std::size_t>(
                pkt.dst)];
            if (port_busy > now_)
                continue;
            port_busy = now_ + 1;
            if (f.tail) {
                delivered_.push_back({.id = pkt.id,
                                      .src = pkt.src,
                                      .dst = pkt.dst,
                                      .broadcast = pkt.broadcast,
                                      .flits = pkt.flits,
                                      .tag = pkt.tag,
                                      .injected = pkt.injected,
                                      .delivered = now_});
                pkt.id = 0;
                freeSlots_.push_back(f.slot);
                --live_;
            }
            ++ejectedFlits_;
            popFlit(q);
        }
    }
}

void
RouterNetwork::step()
{
    // 1. Land in-flight flits that arrive this cycle. Per-VC queues
    //    are each fed by one link at one flit per cycle, so order is
    //    preserved; one stable compaction pass (order-preserving)
    //    replaces repeated O(n) mid-scan erases.
    std::size_t keep = 0;
    for (auto &arrival : inFlight_) {
        if (arrival.at <= now_) {
            pushFlit(queues_[static_cast<std::size_t>(arrival.queue)],
                     arrival.flit);
        } else {
            inFlight_[keep++] = arrival;
        }
    }
    inFlight_.resize(keep);

    // 2. Eject before switching so freshly freed slots are usable next
    //    cycle (not this one), matching a real credit round-trip.
    const int links = static_cast<int>(links_.size());
    for (int r = 0; r < routers_; ++r) {
        if (anyRequest(links + r))
            serviceEjection(r);
    }

    // 3. Switch allocation per output link.
    for (int lid = 0; lid < links; ++lid) {
        if (anyRequest(lid))
            serviceLink(lid);
    }

    ++now_;
}

void
RouterNetwork::checkInvariants() const
{
    auto fail = [](const std::string &what) {
        fatal("RouterNetwork invariant: " + what);
    };
    auto is_live = [&](std::uint32_t slot) {
        return slot < packets_.size() && packets_[slot].id != 0;
    };

    std::size_t live = 0;
    for (const LivePacket &p : packets_)
        live += p.id != 0 ? 1 : 0;
    if (live != live_)
        fail("live packet count " + std::to_string(live_) + " != " +
             std::to_string(live) + " occupied slots");

    std::vector<int> inbound(queues_.size(), 0);
    for (const Arrival &a : inFlight_) {
        if (!is_live(a.flit.slot))
            fail("in-flight flit of a free packet slot");
        inbound[static_cast<std::size_t>(a.queue)] += 1;
    }

    std::vector<std::uint64_t> expect(reqMask_.size(), 0);
    std::uint64_t queued = 0;
    for (std::size_t qid = 0; qid < queues_.size(); ++qid) {
        const InQueue &q = queues_[qid];
        const std::string where = "queue " + std::to_string(qid);
        queued += q.q.size();
        if (q.reserved < 0 || (q.capacity > 0 && q.reserved > q.capacity))
            fail(where + " reserved " + std::to_string(q.reserved) +
                 " outside [0, " + std::to_string(q.capacity) + "]");
        if (static_cast<std::size_t>(q.reserved) !=
            q.q.size() + static_cast<std::size_t>(inbound[qid]))
            fail(where + " reserved " + std::to_string(q.reserved) +
                 " != queued + inbound");
        for (const FlitEntry &f : q.q) {
            if (!is_live(f.slot))
                fail(where + " holds a flit of a free packet slot");
        }
        if (q.q.empty())
            continue;
        const FlitEntry &f = q.q.front();
        if (f.req != requestAt(q.router, packets_[f.slot].dst))
            fail(where + " front flit has a stale route");
        expect[static_cast<std::size_t>(f.req) * words_ +
               static_cast<std::size_t>(q.pos >> 6)] |=
            std::uint64_t{1} << (q.pos & 63);
    }
    if (expect != reqMask_)
        fail("requester sets differ from the queue fronts");

    if (injectedFlits_ != ejectedFlits_ + queued +
            static_cast<std::uint64_t>(inFlight_.size()))
        fail("flits injected " + std::to_string(injectedFlits_) +
             " != delivered " + std::to_string(ejectedFlits_) +
             " + queued " + std::to_string(queued) + " + in flight " +
             std::to_string(inFlight_.size()));

    for (std::size_t i = 0; i < locks_.size(); ++i) {
        const VcLock &lock = locks_[i];
        if (lock.owner != 0 && !is_live(lock.owner - 1))
            fail("VC lock " + std::to_string(i) +
                 " held by a free packet slot");
    }
}

} // namespace cryo::netsim
