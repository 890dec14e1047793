/**
 * @file
 * Golden-output generator for the load-latency driver: writes every
 * field of a grid of measureLoadPoint results, and the saturationRate
 * that places them, as JSON at round-trip precision.
 *
 * The grid covers the router designs (64-core Mesh 1c, CMesh 3c,
 * FB 3c, and the 256-core Mesh), the 77 K shared bus and the 2-way
 * CryoBus; all five traffic patterns; one-way traffic everywhere and
 * request-response traffic under uniform and transpose. Each case
 * probes below saturation, just under it, and deep overload (0.6).
 *
 *   loadpoint_golden OUT.json
 *
 * ctest compares OUT.json byte for byte with
 * tests/golden/loadpoints_seed1.json, so any change to what the
 * simulators compute shows up as a diff.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "netsim/bus_net.hh"
#include "netsim/load_latency.hh"
#include "netsim/router_net.hh"
#include "noc/noc_config.hh"
#include "tech/technology.hh"
#include "util/json.hh"
#include "util/parallel.hh"

namespace
{

using namespace cryo;
using namespace cryo::netsim;

struct Design
{
    std::string name;
    NetworkFactory factory;
    double hi; ///< saturation search bracket, above every rate it carries
};

struct Case
{
    const Design *design;
    TrafficPattern pattern;
    int responseFlits;
};

struct CaseResult
{
    double saturation = 0.0;
    std::vector<LoadPoint> points;
};

NetworkFactory
routerDesign(const noc::NocConfig &cfg)
{
    const RouterNetConfig rc = RouterNetConfig::fromConfig(cfg);
    return [rc]() -> std::unique_ptr<Network> {
        return std::make_unique<RouterNetwork>(rc);
    };
}

NetworkFactory
busDesign(const noc::NocConfig &cfg, int ways)
{
    const BusTiming timing = BusTiming::fromConfig(cfg, ways);
    const int nodes = cfg.topology().cores();
    return [timing, nodes]() -> std::unique_ptr<Network> {
        return std::make_unique<BusNetwork>(nodes, timing);
    };
}

CaseResult
runCase(const Case &c)
{
    MeasureOpts opts;
    opts.warmupCycles = 300;
    opts.measureCycles = 1500;

    TrafficSpec tr;
    tr.pattern = c.pattern;
    tr.responseFlits = c.responseFlits;
    tr.seed = 1;

    CaseResult out;
    const double hi = c.design->hi;
    out.saturation =
        saturationRate(c.design->factory, tr, hi, hi / 128.0, opts);
    const double floor = hi / 256.0;
    for (double rate : {std::max(0.5 * out.saturation, floor),
                        std::max(0.95 * out.saturation, floor), 0.6}) {
        TrafficSpec spec = tr;
        spec.injectionRate = rate;
        out.points.push_back(
            measureLoadPoint(c.design->factory, spec, opts));
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s OUT.json\n", argv[0]);
        return 2;
    }

    const tech::Technology technology = tech::Technology::freePdk45();
    const noc::NocDesigner d64{technology};
    const noc::NocDesigner d256{technology, 256};
    const std::vector<Design> designs = {
        {"mesh-1c", routerDesign(d64.mesh(77.0, 1)), 0.6},
        {"cmesh-3c", routerDesign(d64.cmesh(77.0, 3)), 0.6},
        {"fb-3c", routerDesign(d64.flattenedButterfly(77.0, 3)), 0.6},
        {"mesh256-1c", routerDesign(d256.mesh(77.0, 1)), 0.6},
        {"shared-bus-77k", busDesign(d64.sharedBus77(), 1), 0.03},
        {"cryobus-2way", busDesign(d64.cryoBus(), 2), 0.06},
    };
    const TrafficPattern patterns[] = {
        TrafficPattern::UniformRandom, TrafficPattern::Transpose,
        TrafficPattern::Hotspot, TrafficPattern::BitReverse,
        TrafficPattern::Burst};

    std::vector<Case> cases;
    for (const Design &d : designs) {
        for (TrafficPattern p : patterns)
            cases.push_back({&d, p, 0});
        for (TrafficPattern p :
             {TrafficPattern::UniformRandom, TrafficPattern::Transpose})
            cases.push_back({&d, p, 5});
    }

    // Every case builds its own networks from its own seed, so the
    // output is the same at any job count.
    const std::vector<CaseResult> results = parallelMap(
        cases.size(), [&](std::size_t i) { return runCase(cases[i]); });

    std::ofstream file(argv[1]);
    {
        JsonWriter w{file};
        w.beginArray();
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const Case &c = cases[i];
            const CaseResult &r = results[i];
            w.beginObject();
            w.key("design").value(c.design->name);
            w.key("pattern").value(trafficPatternName(c.pattern));
            w.key("response_flits").value(c.responseFlits);
            w.key("saturation").value(r.saturation);
            w.key("points").beginArray();
            for (const LoadPoint &p : r.points) {
                w.beginObject();
                w.key("injection_rate").value(p.injectionRate);
                w.key("avg_latency").value(p.avgLatency);
                w.key("p99_latency").value(p.p99Latency);
                w.key("throughput").value(p.throughput);
                w.key("saturated").value(p.saturated);
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
        w.endArray();
    }
    file << '\n';
    return file.good() ? 0 : 1;
}
