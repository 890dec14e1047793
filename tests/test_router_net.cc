/**
 * @file
 * Tests for the cycle-accurate wormhole router network.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "netsim/load_latency.hh"
#include "netsim/router_net.hh"
#include "noc/noc_config.hh"
#include "util/diag.hh"
#include "util/rng.hh"

namespace
{

using namespace cryo::netsim;
using cryo::FatalError;
using cryo::tech::Technology;

RouterNetConfig
meshConfig(int router_cycles = 1, double temp = 77.0)
{
    static Technology tech = Technology::freePdk45();
    cryo::noc::NocDesigner designer{tech};
    return RouterNetConfig::fromConfig(
        designer.mesh(temp, router_cycles));
}

Packet
makePacket(std::uint64_t id, int src, int dst, int flits = 1)
{
    Packet p;
    p.id = id;
    p.src = src;
    p.dst = dst;
    p.flits = flits;
    return p;
}

TEST(RouterNet, DeliversToTheRightNode)
{
    // The delivered packet carries every field it was injected with.
    RouterNetwork net(meshConfig());
    net.step();
    net.step();
    Packet p = makePacket(7, 0, 63, 5);
    p.tag = 1;
    net.inject(p);
    for (int c = 0; c < 200 && net.delivered().empty(); ++c)
        net.step();
    ASSERT_EQ(net.delivered().size(), 1u);
    const Packet &d = net.delivered()[0];
    EXPECT_EQ(d.id, 7u);
    EXPECT_EQ(d.dst, 63);
    EXPECT_EQ(d.src, 0);
    EXPECT_EQ(d.flits, 5);
    EXPECT_EQ(d.tag, 1);
    EXPECT_FALSE(d.broadcast);
    EXPECT_EQ(d.injected, 2u);
    EXPECT_GT(d.delivered, d.injected);
}

TEST(RouterNet, CornerToCornerLatencySane)
{
    // 0 -> 63 on the 8x8 mesh: 14 hops, 15 routers. With 1-cycle
    // routers and sub-cycle links, the head needs >= 15 cycles plus
    // the NI; the tail adds flits - 1.
    RouterNetwork net(meshConfig(1));
    net.inject(makePacket(1, 0, 63, 1));
    for (int c = 0; c < 200 && net.delivered().empty(); ++c)
        net.step();
    ASSERT_EQ(net.delivered().size(), 1u);
    const auto lat = net.delivered()[0].latency();
    EXPECT_GE(lat, 15u);
    EXPECT_LE(lat, 35u);
}

TEST(RouterNet, RouterPipelineDepthAddsLatency)
{
    auto latency = [](int cycles) {
        RouterNetwork net(meshConfig(cycles));
        net.inject(makePacket(1, 0, 63, 1));
        for (int c = 0; c < 400 && net.delivered().empty(); ++c)
            net.step();
        return net.delivered()[0].latency();
    };
    const auto l1 = latency(1);
    const auto l3 = latency(3);
    // 15 routers at +2 cycles each.
    EXPECT_NEAR(static_cast<double>(l3 - l1), 30.0, 4.0);
}

TEST(RouterNet, LocalDeliveryWithinRouter)
{
    // CMesh: two cores on the same router never cross a link.
    static Technology tech = Technology::freePdk45();
    cryo::noc::NocDesigner designer{tech};
    RouterNetwork net(
        RouterNetConfig::fromConfig(designer.cmesh(77.0, 1)));
    net.inject(makePacket(1, 0, 1, 1)); // both on router 0
    for (int c = 0; c < 50 && net.delivered().empty(); ++c)
        net.step();
    ASSERT_EQ(net.delivered().size(), 1u);
    EXPECT_LE(net.delivered()[0].latency(), 4u);
}

TEST(RouterNet, WormholeKeepsPacketContiguous)
{
    // Two multi-flit packets to the same destination must not corrupt
    // each other; both arrive complete.
    RouterNetwork net(meshConfig());
    net.inject(makePacket(1, 0, 60, 5));
    net.inject(makePacket(2, 7, 60, 5));
    int done = 0;
    for (int c = 0; c < 400 && done < 2; ++c) {
        net.step();
        done += static_cast<int>(net.drainDelivered().size());
    }
    EXPECT_EQ(done, 2);
}

TEST(RouterNet, SameFlowStaysOrdered)
{
    // Deterministic XY routing: packets of one src-dst flow arrive in
    // injection order.
    RouterNetwork net(meshConfig());
    for (std::uint64_t i = 1; i <= 8; ++i)
        net.inject(makePacket(i, 3, 44, 2));
    std::vector<std::uint64_t> order;
    for (int c = 0; c < 600 && order.size() < 8; ++c) {
        net.step();
        for (const auto &p : net.drainDelivered())
            order.push_back(p.id);
    }
    ASSERT_EQ(order.size(), 8u);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i + 1);
}

TEST(RouterNet, DrainsUnderHeavyRandomLoad)
{
    // Deadlock-freedom smoke test: saturating random traffic, then
    // stop injecting - everything must eventually drain.
    RouterNetwork net(meshConfig());
    cryo::Rng rng(42);
    std::uint64_t id = 1;
    for (int c = 0; c < 500; ++c) {
        for (int n = 0; n < 64; ++n) {
            if (rng.chance(0.5)) {
                int dst = static_cast<int>(rng.below(63));
                if (dst >= n)
                    ++dst;
                net.inject(makePacket(id++, n, dst, 3));
            }
        }
        net.step();
        net.delivered().clear();
    }
    for (int c = 0; c < 20000 && net.inFlight() > 0; ++c) {
        net.step();
        net.delivered().clear();
    }
    EXPECT_EQ(net.inFlight(), 0u);
}

TEST(RouterNet, ButterflyTwoHopProperty)
{
    static Technology tech = Technology::freePdk45();
    cryo::noc::NocDesigner designer{tech};
    RouterNetwork net(RouterNetConfig::fromConfig(
        designer.flattenedButterfly(77.0, 1)));
    // Opposite corners: row express + column express only.
    net.inject(makePacket(1, 0, 63, 1));
    for (int c = 0; c < 100 && net.delivered().empty(); ++c)
        net.step();
    ASSERT_EQ(net.delivered().size(), 1u);
    // 3 routers + 2 express links (each <= 1 cycle at 77 K) + NI.
    EXPECT_LE(net.delivered()[0].latency(), 12u);
}

TEST(RouterNet, AllPacketsAccountedUnderLoad)
{
    RouterNetwork net(meshConfig());
    std::map<std::uint64_t, bool> outstanding;
    cryo::Rng rng(7);
    std::uint64_t id = 1;
    std::size_t delivered = 0;
    for (int c = 0; c < 3000; ++c) {
        for (int n = 0; n < 64; ++n) {
            if (rng.chance(0.05)) {
                int dst = static_cast<int>(rng.below(63));
                if (dst >= n)
                    ++dst;
                outstanding[id] = true;
                net.inject(makePacket(id++, n, dst, 1));
            }
        }
        net.step();
        for (const auto &p : net.drainDelivered()) {
            ASSERT_TRUE(outstanding[p.id]);
            outstanding.erase(p.id);
            ++delivered;
        }
    }
    EXPECT_GT(delivered, 8000u);
    EXPECT_EQ(outstanding.size(), net.inFlight());
}

TEST(RouterNet, SaturationOrderingAcrossTopologies)
{
    // FB's express links buy it more bandwidth than the mesh, which in
    // turn beats the concentrated mesh (fewer channels).
    static Technology tech = Technology::freePdk45();
    cryo::noc::NocDesigner designer{tech};
    TrafficSpec tr;
    MeasureOpts fast;
    fast.warmupCycles = 1000;
    fast.measureCycles = 3000;
    auto sat = [&](const cryo::noc::NocConfig &cfg) {
        return saturationRate(
            [cfg]() -> std::unique_ptr<Network> {
                return std::make_unique<RouterNetwork>(
                    RouterNetConfig::fromConfig(cfg));
            },
            tr, 0.995, 0.01, fast);
    };
    const double mesh = sat(designer.mesh(77.0, 1));
    const double cmesh = sat(designer.cmesh(77.0, 1));
    const double fb = sat(designer.flattenedButterfly(77.0, 1));
    EXPECT_GT(fb, mesh);
    EXPECT_GT(mesh, cmesh);
}

TEST(RouterNet, RejectsBadPackets)
{
    RouterNetwork net(meshConfig());
    EXPECT_THROW(net.inject(makePacket(0, 0, 5)), FatalError); // id 0
    EXPECT_THROW(net.inject(makePacket(1, -1, 5)), FatalError);
    EXPECT_THROW(net.inject(makePacket(1, 0, 64)), FatalError);
    // The packet table stores flits in 16 bits and the tag in 8.
    EXPECT_THROW(net.inject(makePacket(1, 0, 5, 0)), FatalError);
    EXPECT_THROW(net.inject(makePacket(1, 0, 5, 32768)), FatalError);
    Packet tagged = makePacket(1, 0, 5);
    tagged.tag = 128;
    EXPECT_THROW(net.inject(tagged), FatalError);
    EXPECT_EQ(net.inFlight(), 0u);
}

TEST(RouterNet, QueuesBeyondOneMaskWord)
{
    // More than 64 input queues per router spread each requester set
    // over several mask words: 256-core FB with 8 VCs has 4 + 14 * 8
    // = 116 queues per router, a 64-core mesh with 20 VCs has 81.
    RouterNetConfig fb;
    fb.kind = cryo::noc::TopologyKind::FlattenedButterfly;
    fb.cores = 256;
    fb.concentration = 4;
    fb.virtualChannels = 8;
    RouterNetConfig mesh = meshConfig();
    mesh.virtualChannels = 20;
    mesh.vcBufferFlits = 1;
    for (const RouterNetConfig &cfg : {fb, mesh}) {
        RouterNetwork net(cfg);
        cryo::Rng rng(11);
        std::uint64_t id = 1;
        std::size_t delivered = 0;
        for (int c = 0; c < 600; ++c) {
            for (int n = 0; n < cfg.cores; ++n) {
                if (rng.chance(0.05)) {
                    const int dst = static_cast<int>(
                        rng.below(static_cast<std::uint64_t>(cfg.cores)));
                    net.inject(makePacket(id++, n, dst, 3));
                }
            }
            net.step();
            ASSERT_NO_THROW(net.checkInvariants()) << "cycle " << c;
            delivered += net.drainDelivered().size();
        }
        for (int c = 0; c < 20000 && net.inFlight() > 0; ++c) {
            net.step();
            delivered += net.drainDelivered().size();
        }
        ASSERT_NO_THROW(net.checkInvariants());
        EXPECT_EQ(net.inFlight(), 0u);
        EXPECT_EQ(delivered, id - 1);
    }
}

TEST(RouterNet, RejectsTooManyVcs)
{
    RouterNetConfig cfg = meshConfig();
    cfg.virtualChannels = 128; // VC ids are 8-bit
    EXPECT_THROW(RouterNetwork{cfg}, FatalError);
}

TEST(RouterNet, RejectsTooManyCores)
{
    RouterNetConfig cfg = meshConfig();
    cfg.cores = 256 * 256; // node ids are 16-bit
    EXPECT_THROW(RouterNetwork{cfg}, FatalError);
}

TEST(RouterNet, RejectsUnsupportedTopology)
{
    RouterNetConfig cfg = meshConfig();
    cfg.kind = cryo::noc::TopologyKind::SharedBus;
    EXPECT_THROW(RouterNetwork{cfg}, FatalError);
}

} // namespace
