/**
 * @file
 * Cycle-accurate wormhole router network covering Mesh, CMesh, and
 * Flattened Butterfly (the router-based designs of Fig. 15).
 *
 * Routers are input-queued with virtual-channel flow control (Table 4:
 * 4 VCs x 3-flit buffers per input [33]), credit-based backpressure,
 * and round-robin switch allocation; a packet holds its VC at an
 * output (wormhole) until the tail passes, while other VCs may
 * interleave on the physical channel. VCs are assigned per flow so
 * same-flow packets stay ordered, and routing is dimension-ordered so
 * the channel-dependency graph stays acyclic. The router pipeline
 * depth (1 or 3 cycles) and the per-link traversal cycles come from
 * the analytic NoC config, keeping the simulator and the zero-load
 * model consistent.
 */

#ifndef CRYOWIRE_NETSIM_ROUTER_NET_HH
#define CRYOWIRE_NETSIM_ROUTER_NET_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "netsim/network.hh"
#include "noc/noc_config.hh"

namespace cryo::netsim
{

/** Construction parameters of a router network. */
struct RouterNetConfig
{
    noc::TopologyKind kind = noc::TopologyKind::Mesh;
    int cores = 64;
    int concentration = 1;   ///< cores per router (4 for CMesh/FB)
    int routerCycles = 1;    ///< pipeline depth per hop
    int virtualChannels = 4; ///< VCs per input link
    int vcBufferFlits = 3;   ///< buffer depth per VC [33]
    int hopsPerCycle = 4;    ///< link speed from the wire-link model

    /** Derive from an analytic design point. */
    static RouterNetConfig fromConfig(const noc::NocConfig &cfg);
};

/**
 * The router-network simulator.
 *
 * Switch allocation is request-driven. A flit's next hop is computed
 * once, when it enters a queue, and each output link (and each
 * router's ejection port) keeps the set of input-queue positions
 * whose front flit requests it. A link walks only its requesters, in
 * the same round-robin order a scan of every input queue would use,
 * so it picks the same winner. A requester set changes only when a
 * queue's front does: a push into an empty queue, or any pop. A pop
 * updates the sets at once, so a front it exposes is seen by every
 * link serviced later in the same cycle, exactly as a full scan
 * would see it.
 */
class RouterNetwork : public Network
{
  public:
    explicit RouterNetwork(RouterNetConfig cfg);

    void inject(const Packet &p) override;
    void step() override;
    Cycle now() const override { return now_; }
    int nodes() const override { return cfg_.cores; }
    std::size_t inFlight() const override { return live_; }

    int routerCount() const { return routers_; }

    /** Link traversal cycles for a @p spacings-long express link. */
    int linkCycles(int spacings) const;

    /** The flow's VC on every link (deterministic, order-preserving). */
    int flowVc(int src, int dst) const;

    /**
     * Check the whole simulator state; throws cryo::FatalError naming
     * the first violated invariant:
     *  - injected flits = delivered + queued + in flight;
     *  - each queue's `reserved` lies in [0, capacity] and equals its
     *    queued plus inbound flits;
     *  - every locked VC's owner is a live packet;
     *  - every requester set equals the one recomputed from the
     *    queue fronts.
     *
     * For tests: step() never calls it.
     */
    void checkInvariants() const;

  private:
    struct FlitEntry
    {
        Cycle readyAt;
        std::uint32_t slot; ///< packet-table slot
        /** Requester set the flit joins at its queue's front: an
         * output link id, or linkCount + router to eject. */
        std::int16_t req;
        std::int8_t vc; ///< virtual channel of the flow
        bool head : 1;
        bool tail : 1;
    };

    /** A live packet's table entry; the delivered Packet is rebuilt
     * from it at ejection. */
    struct LivePacket
    {
        std::uint64_t id; ///< 0 marks a free slot
        Cycle injected;
        std::int16_t src;
        std::int16_t dst;
        std::int16_t flits;
        std::int8_t tag;
        bool broadcast;
    };
    static_assert(sizeof(LivePacket) == 24);

    struct InQueue
    {
        std::deque<FlitEntry> q;
        int reserved = 0; ///< occupied + in-flight slots
        int capacity = 0; ///< 0 = unbounded (NI source queues)
        int router = 0;   ///< router whose input this is
        int pos = 0;      ///< index in inQueueIds_[router]
    };

    struct Link
    {
        int from;
        int to;
        int toQueueBase; ///< first VC queue id at the destination
        int cycles;
    };

    /** Wormhole owner of one VC at one output link. */
    struct VcLock
    {
        std::uint32_t owner = 0; ///< packet slot + 1 (0 = free)
        int queue = -1;          ///< input queue feeding the owner
    };

    struct Arrival
    {
        Cycle at;
        int queue;
        FlitEntry flit;
    };

    int routerOf(int node) const { return node / cfg_.concentration; }
    int routerX(int r) const { return r % gridSide_; }
    int routerY(int r) const { return r / gridSide_; }
    int routerAt(int x, int y) const { return y * gridSide_ + x; }

    /** Next router on the route from @p router to @p dst_router. */
    int nextRouter(int router, int dst_router) const;

    /** Requester set of a flit for @p dst_node queued at @p router. */
    std::int16_t
    requestAt(int router, int dst_node) const
    {
        return nextReq_[static_cast<std::size_t>(router * routers_ +
                                                 routerOf(dst_node))];
    }

    void buildMeshLinks(int spacing_hops);
    void buildButterflyLinks(int spacing_hops);
    void addLink(int from, int to, int cycles);
    void buildRoutes();

    std::uint64_t *
    mask(int req)
    {
        return &reqMask_[static_cast<std::size_t>(req) * words_];
    }
    const std::uint64_t *
    mask(int req) const
    {
        return &reqMask_[static_cast<std::size_t>(req) * words_];
    }
    bool anyRequest(int req) const;

    /** Append a flit, joining its requester set if it is the front. */
    void pushFlit(InQueue &q, const FlitEntry &f);

    /** Remove the front flit and move the queue's position to the
     * requester set of the flit behind it. */
    void popFlit(InQueue &q);

    /** Try to advance one flit through output link @p lid. */
    void serviceLink(int lid);
    bool trySend(int lid, int qid);

    /** Try to eject one flit at router @p r for each local node. */
    void serviceEjection(int r);

    RouterNetConfig cfg_;
    int routers_;
    int gridSide_;
    Cycle now_ = 0;

    std::vector<Link> links_;
    std::vector<VcLock> locks_;                  ///< [link * VCs + vc]
    std::vector<std::vector<int>> inQueueIds_;   ///< per router
    std::vector<InQueue> queues_;
    std::vector<int> injectQueueId_;             ///< per node
    std::vector<int> rrPointer_;                 ///< per link, RR state
    /** Requester set per [router][destination router]. */
    std::vector<std::int16_t> nextReq_;
    /** Requester sets: one bitmask of input-queue positions per
     * output link, then one per router for ejection; words_ words
     * each. */
    std::vector<std::uint64_t> reqMask_;
    std::size_t words_ = 1;
    /** Packet table: slot-indexed, id 0 marks a free slot. A deque
     * grows without copying, and a saturated probe can hold about
     * 200k live packets. */
    std::deque<LivePacket> packets_;
    std::vector<std::uint32_t> freeSlots_;
    std::size_t live_ = 0;
    std::uint64_t injectedFlits_ = 0;
    std::uint64_t ejectedFlits_ = 0;
    std::vector<Arrival> inFlight_;
    /** Per node: its ejection port is busy until this cycle. */
    std::vector<Cycle> ejectedUntil_;
};

} // namespace cryo::netsim

#endif // CRYOWIRE_NETSIM_ROUTER_NET_HH
