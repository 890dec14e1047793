/**
 * @file
 * Cycle-accurate network experiments: the bus load-latency curves
 * (Fig. 18), the 77 K NoC comparison (Fig. 21), adversarial traffic
 * (Fig. 25), and the 256-core hybrid (Fig. 26).
 */

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/netsim_support.hh"
#include "exp/registry.hh"
#include "netsim/hybrid_net.hh"
#include "sys/workload.hh"
#include "util/parallel.hh"

namespace cryo::exp
{

namespace
{

using namespace cryo::netsim;

/** Fig. 18: Shared-bus load-latency at 300 K and 77 K. */
void
runFig18(const Context &ctx, ExperimentResult &r)
{
    noc::NocDesigner designer{ctx.technology()};

    const std::vector<double> rates = {0.0005, 0.001, 0.002, 0.003,
                                       0.004, 0.006, 0.008, 0.012};
    const TrafficSpec tr = ctx.traffic();
    const auto opts = measureOpts();

    Table &t = r.table({"rate (req/node/cyc)", "300K bus latency",
                        "77K bus latency"});
    const auto c300 = sweepLoadLatency(
        busFactory(designer.sharedBus300()), tr, rates, opts);
    const auto c77 = sweepLoadLatency(
        busFactory(designer.sharedBus77()), tr, rates, opts);
    for (std::size_t i = 0; i < rates.size(); ++i) {
        auto cell = [](const LoadPoint &p) {
            return p.saturated ? std::string("saturated")
                               : Table::num(p.avgLatency, 1);
        };
        t.addRow({Table::num(rates[i], 4), cell(c300[i]),
                  cell(c77[i])});
    }

    Table &bands = r.table({"workload band", "lo", "hi",
                            "covered by 300K bus",
                            "covered by 77K bus"});
    const double sat300 = saturationRate(
        busFactory(designer.sharedBus300()), tr, 0.02, 0.0002, opts);
    const double sat77 = saturationRate(
        busFactory(designer.sharedBus77()), tr, 0.03, 0.0003, opts);
    for (const auto &b : sys::injectionBands()) {
        bands.addRow({b.suite, Table::num(b.lo, 4),
                      Table::num(b.hi, 4),
                      b.hi < sat300 ? "yes" : "NO",
                      b.hi < sat77 ? "yes" : "NO"});
    }
    bands.addRule();
    bands.addRow({"measured saturation", "", "", Table::num(sat300, 4),
                  Table::num(sat77, 4)});

    // Anchored on the reproduction's own story: the 300 K bus
    // saturates inside the PARSEC band (0.0008-0.0045) while the 77 K
    // bus clears PARSEC but not SPEC/CloudSuite (hi 0.024/0.030).
    r.anchored("saturation-300k", sat300, 0.0019, 0.25,
               "req/node/cyc");
    r.anchored("saturation-77k", sat77, 0.0054, 0.25, "req/node/cyc");
    r.verdict(
        "Guideline #2: even the 77 K bus cannot carry SPEC/CloudSuite "
        "rates - the bus must get faster still, hence CryoBus.");
}

/** Fig. 21: 77 K load-latency across NoC designs. */
void
runFig21(const Context &ctx, ExperimentResult &r)
{
    noc::NocDesigner designer{ctx.technology()};
    const auto opts = measureOpts();

    struct Design
    {
        std::string label;
        NetworkFactory factory;
        double clock;   ///< Hz, to convert cycles -> ns
        double rateRef; ///< its cycle rate per 4 GHz-cycle unit
        TrafficSpec traffic;
    };
    std::vector<Design> designs;
    auto add_router = [&](const noc::NocConfig &cfg) {
        designs.push_back({cfg.name(), routerFactory(cfg),
                           cfg.clockFreq(), cfg.clockFreq() / 4.0e9,
                           ctx.directoryTraffic()});
    };
    auto add_bus = [&](const noc::NocConfig &cfg, int ways,
                       const std::string &label) {
        designs.push_back({label, busFactory(cfg, ways),
                           cfg.clockFreq(), cfg.clockFreq() / 4.0e9,
                           ctx.traffic()});
    };
    add_router(designer.mesh(77.0, 1));
    add_router(designer.mesh(77.0, 3));
    add_router(designer.cmesh(77.0, 1));
    add_router(designer.cmesh(77.0, 3));
    add_router(designer.flattenedButterfly(77.0, 1));
    add_router(designer.flattenedButterfly(77.0, 3));
    add_bus(designer.sharedBus77(), 1, "77K Shared bus");
    add_bus(designer.cryoBus(), 1, "CryoBus");
    add_bus(designer.cryoBus(), 2, "CryoBus (2-way)");

    // Each design's measurements are independent simulations: one
    // task per design, rows and anchors filled in design order.
    struct Measured
    {
        double zl = 0.0; ///< ns
        std::vector<std::string> cells;
        double sat = 0.0;
    };
    const auto measured = parallelMap(
        designs.size(),
        [&](std::size_t i) {
            const Design &d = designs[i];
            Measured m;
            m.cells.push_back(d.label);
            m.zl = zeroLoadLatency(d.factory, d.traffic, opts) /
                   d.clock * 1e9;
            m.cells.push_back(Table::num(m.zl, 2));
            for (double rate : {0.006, 0.012, 0.02}) {
                TrafficSpec spec = d.traffic;
                spec.injectionRate = rate / d.rateRef; // per design cycle
                const auto pt = measureLoadPoint(d.factory, spec, opts);
                m.cells.push_back(
                    pt.saturated
                        ? std::string("sat")
                        : Table::num(pt.avgLatency / d.clock * 1e9, 2));
            }
            m.sat = saturationRate(d.factory, d.traffic, 0.6, 0.002,
                                   opts) *
                    d.rateRef;
            m.cells.push_back(Table::num(m.sat, 4));
            return m;
        },
        ParallelOptions{0, 1});

    Table &t = r.table({"design", "zero-load (ns)", "lat@0.006",
                        "lat@0.012", "lat@0.02",
                        "saturation (req/node/cyc)"});
    for (std::size_t i = 0; i < designs.size(); ++i) {
        const Design &d = designs[i];
        const double zl = measured[i].zl;
        const double sat = measured[i].sat;
        t.addRow(measured[i].cells);

        if (d.label == "CryoBus") {
            r.anchored("cryobus-zero-load-ns", zl, 1.25, 0.05, "ns");
            r.anchored("cryobus-saturation", sat, 0.0164, 0.1,
                       "req/node/cyc");
        } else if (d.label == "CryoBus (2-way)") {
            r.anchored("cryobus-2way-saturation", sat, 0.0316, 0.1,
                       "req/node/cyc");
        }
    }

    r.verdict(
        "CryoBus: lowest latency of every design and bandwidth in the "
        "CMesh(3c) class; 2-way interleaving doubles it (the paper's "
        "'comparable scalability' claim).");
}

/** Fig. 25: load-latency under adversarial traffic patterns. */
void
runFig25(const Context &ctx, ExperimentResult &r)
{
    noc::NocDesigner designer{ctx.technology()};
    auto opts = measureOpts();
    opts.measureCycles = 4000;

    struct Design
    {
        std::string label;
        NetworkFactory factory;
        double rateRef;
        TrafficSpec base;
    };
    std::vector<Design> designs = {
        {"Mesh (3c)", routerFactory(designer.mesh(77.0, 3)),
         designer.mesh(77.0, 3).clockFreq() / 4.0e9,
         ctx.directoryTraffic()},
        {"CMesh (3c)", routerFactory(designer.cmesh(77.0, 3)),
         designer.cmesh(77.0, 3).clockFreq() / 4.0e9,
         ctx.directoryTraffic()},
        {"FB (3c)",
         routerFactory(designer.flattenedButterfly(77.0, 3)),
         designer.flattenedButterfly(77.0, 3).clockFreq() / 4.0e9,
         ctx.directoryTraffic()},
        {"CryoBus", busFactory(designer.cryoBus(), 1), 1.0,
         ctx.traffic()},
        {"CryoBus (2-way)", busFactory(designer.cryoBus(), 2), 1.0,
         ctx.traffic()},
    };

    const std::vector<std::pair<const char *, TrafficPattern>>
        patterns = {{"uniform", TrafficPattern::UniformRandom},
                    {"transpose", TrafficPattern::Transpose},
                    {"hotspot", TrafficPattern::Hotspot},
                    {"bit-reverse", TrafficPattern::BitReverse},
                    {"burst", TrafficPattern::Burst}};

    std::vector<std::string> header{"design"};
    for (const auto &p : patterns)
        header.push_back(p.first);
    Table &t = r.table(header);

    // One independent saturation search per (design, pattern).
    const std::size_t np = patterns.size();
    const auto sats = parallelMap(
        designs.size() * np,
        [&](std::size_t k) {
            const Design &d = designs[k / np];
            TrafficSpec tr = d.base;
            tr.pattern = patterns[k % np].second;
            return saturationRate(d.factory, tr, 0.6, 0.003, opts) *
                   d.rateRef;
        },
        ParallelOptions{0, 1});

    double cb_uniform = 0.0, cb_hotspot = 0.0, cb2_hotspot = 0.0;
    double fb_hotspot = 0.0;
    for (std::size_t di = 0; di < designs.size(); ++di) {
        const Design &d = designs[di];
        std::vector<std::string> row{d.label};
        for (std::size_t pi = 0; pi < np; ++pi) {
            const auto &p = patterns[pi];
            const double sat = sats[di * np + pi];
            row.push_back(Table::num(sat, 4));
            if (d.label == "CryoBus" &&
                p.second == TrafficPattern::UniformRandom)
                cb_uniform = sat;
            if (p.second == TrafficPattern::Hotspot) {
                if (d.label == "CryoBus")
                    cb_hotspot = sat;
                else if (d.label == "CryoBus (2-way)")
                    cb2_hotspot = sat;
                else if (d.label == "FB (3c)")
                    fb_hotspot = sat;
            }
        }
        t.addRow(row);
    }

    r.anchored("cryobus-uniform-saturation", cb_uniform, 0.0164, 0.1,
               "req/node/cyc");
    // Pattern-insensitivity: hotspot within 10% of uniform.
    r.anchored("cryobus-hotspot-saturation", cb_hotspot, 0.0164, 0.1,
               "req/node/cyc");
    // At hotspot, 2-way CryoBus matches the best router NoC.
    r.anchored("cryobus-2way-over-fb-hotspot",
               cb2_hotspot / fb_hotspot, 1.0, 0.2, "x");
    r.verdict(
        "CryoBus's bandwidth is pattern-insensitive (it broadcasts "
        "regardless); the router NoCs lose bandwidth under transpose/"
        "hotspot - at hotspot the bus is competitive with all of them, "
        "the Fig. 25 claim.");
}

/** Fig. 26: scaling CryoBus to 256 cores with the hybrid design. */
void
runFig26(const Context &ctx, ExperimentResult &r)
{
    noc::NocDesigner designer256{ctx.technology(), 256};
    noc::NocDesigner designer64{ctx.technology(), 64};
    const auto opts = measureOpts();

    HybridConfig hc;
    hc.busTiming = BusTiming::fromConfig(designer64.cryoBus(), 1);
    auto hybrid1 = [hc]() -> std::unique_ptr<Network> {
        return std::make_unique<HybridNetwork>(hc);
    };
    HybridConfig hc2 = hc;
    hc2.busTiming = BusTiming::fromConfig(designer64.cryoBus(), 2);
    auto hybrid2 = [hc2]() -> std::unique_ptr<Network> {
        return std::make_unique<HybridNetwork>(hc2);
    };

    const std::vector<noc::NocConfig> routers = {
        designer256.mesh(77.0, 1), designer256.cmesh(77.0, 3),
        designer256.flattenedButterfly(77.0, 3)};
    struct Design
    {
        NetworkFactory factory;
        TrafficSpec traffic;
        double hi;  ///< saturation search bracket
        double tol; ///< and its tolerance
    };
    std::vector<Design> designs = {
        {hybrid1, ctx.traffic(), 0.05, 0.0005},
        {hybrid2, ctx.traffic(), 0.05, 0.0005}};
    for (const auto &cfg : routers)
        designs.push_back(
            {routerFactory(cfg), ctx.directoryTraffic(), 0.5, 0.002});

    // Zero-load runs and saturation searches are independent: task
    // 2i is design i's zero-load latency, 2i + 1 its saturation rate,
    // both in raw design cycles and packets/node/cycle.
    const auto raw = parallelMap(
        2 * designs.size(),
        [&](std::size_t k) {
            const Design &d = designs[k / 2];
            return k % 2 == 0
                ? zeroLoadLatency(d.factory, d.traffic, opts)
                : saturationRate(d.factory, d.traffic, d.hi, d.tol,
                                 opts);
        },
        ParallelOptions{0, 1});

    Table &t = r.table({"design (256 cores)", "zero-load (ns)",
                        "saturation (req/node/cyc)"});
    const double hybrid_zl = raw[0] / 4.0;
    const double hybrid_sat = raw[1];
    const double hybrid2_sat = raw[3];
    t.addRow({"Hybrid CryoBus", Table::num(hybrid_zl, 2),
              Table::num(hybrid_sat, 4)});
    t.addRow({"Hybrid CryoBus (2-way)", Table::num(raw[2] / 4.0, 2),
              Table::num(hybrid2_sat, 4)});

    double min_router_zl = 1e30;
    for (std::size_t i = 0; i < routers.size(); ++i) {
        const noc::NocConfig &cfg = routers[i];
        const double zl = raw[2 * (i + 2)] / cfg.clockFreq() * 1e9;
        const double sat =
            raw[2 * (i + 2) + 1] * cfg.clockFreq() / 4.0e9;
        t.addRow({cfg.name(), Table::num(zl, 2), Table::num(sat, 4)});
        min_router_zl = std::min(min_router_zl, zl);
    }

    r.anchored("hybrid-zero-load-ns", hybrid_zl, 3.50, 0.05, "ns");
    r.anchored("hybrid-saturation", hybrid_sat, 0.0074, 0.15,
               "req/node/cyc");
    r.anchored("hybrid-2way-saturation", hybrid2_sat, 0.0152, 0.15,
               "req/node/cyc");
    // The hybrid keeps the latency lead over every 256-core router NoC.
    r.anchored("hybrid-zl-over-best-router",
               hybrid_zl / min_router_zl, 0.71, 0.1, "x");
    r.verdict(
        "The hybrid keeps the lowest latency at 256 cores and scales "
        "its bandwidth with interleaving - Fig. 26's conclusion.");
}

} // namespace

void
registerNetsimExperiments(Registry &reg)
{
    reg.add({"fig18-bus-load-latency",
             "Fig. 18 - Shared-bus load-latency at 300 K and 77 K",
             "Cycle-accurate bus simulation, uniform random requests "
             "(latency in 4 GHz cycles).",
             {"figure", "netsim", "smoke"},
             runFig18});
    reg.add({"fig21-noc-load-latency",
             "Fig. 21 - 77 K load-latency across NoC designs",
             "Cycle-accurate simulation, uniform random; x in requests "
             "per node per 4 GHz cycle, y in ns.",
             {"figure", "netsim", "slow"},
             runFig21});
    reg.add({"fig25-traffic-patterns",
             "Fig. 25 - load-latency under adversarial traffic",
             "Saturation throughput (requests/node/4GHz-cycle) per "
             "pattern and design; CryoBus rows should barely move.",
             {"figure", "netsim", "slow"},
             runFig25});
    reg.add({"fig26-hybrid-256core",
             "Fig. 26 - scaling CryoBus to 256 cores",
             "Hybrid = 4 x 64-core CryoBus + 2x2 global mesh (gives up "
             "global snooping, keeps the latency).",
             {"figure", "netsim", "slow"},
             runFig26});
}

} // namespace cryo::exp
