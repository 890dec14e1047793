/**
 * @file
 * Bitwise scalar/batch equivalence of every batched kernel.
 *
 * The batch entry points are documented as pure invariant hoists: the
 * per-element arithmetic is token-for-token the scalar expression, so
 * the results must match EXACTLY (EXPECT_EQ on the raw doubles, no
 * tolerance).  Any divergence means a batch kernel reordered or
 * refactored floating-point math and silently forked the model.
 *
 * Inputs are randomized with the repo's deterministic Rng so failures
 * reproduce byte-for-byte.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/system_builder.hh"
#include "core/voltage_optimizer.hh"
#include "pipeline/critical_path.hh"
#include "pipeline/stage_library.hh"
#include "sys/interval_sim.hh"
#include "sys/workload.hh"
#include "tech/technology.hh"
#include "tech/wire_rc.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace
{

using namespace cryo;
using units::Kelvin;
using units::Metre;
using units::Second;

const tech::Technology &
technology()
{
    static tech::Technology t = tech::Technology::freePdk45();
    return t;
}

/** Margin-safe random voltage point (vdd comfortably above vth). */
tech::VoltagePoint
randomVoltage(Rng &rng)
{
    tech::VoltagePoint v;
    v.vth = 0.10 + 0.35 * rng.uniform();
    v.vdd = v.vth + 0.20 + (1.30 - v.vth - 0.20) * rng.uniform();
    return v;
}

TEST(BatchEquivalence, DelayFactorBroadcastTemperature)
{
    Rng rng{0xb17e5u};
    const auto &mosfet = technology().mosfet();
    const Kelvin temp = constants::ln2Temp;
    std::vector<tech::VoltagePoint> vs(257);
    for (auto &v : vs)
        v = randomVoltage(rng);
    std::vector<double> out(vs.size());
    mosfet.delayFactorBatch({&temp, 1}, vs, out);
    for (std::size_t i = 0; i < vs.size(); ++i)
        EXPECT_EQ(out[i], mosfet.delayFactor(temp, vs[i])) << i;
}

TEST(BatchEquivalence, DelayFactorPerElementTemperatures)
{
    Rng rng{0xb17e6u};
    const auto &mosfet = technology().mosfet();
    std::vector<Kelvin> temps;
    std::vector<tech::VoltagePoint> vs;
    for (int i = 0; i < 200; ++i) {
        // Runs of equal temperature exercise the drive-gain reuse.
        const Kelvin t{4.0 + 296.0 * rng.uniform()};
        const int run = 1 + static_cast<int>(rng.below(4));
        for (int r = 0; r < run; ++r) {
            temps.push_back(t);
            vs.push_back(randomVoltage(rng));
        }
    }
    std::vector<double> out(vs.size());
    mosfet.delayFactorBatch(temps, vs, out);
    // voltageSpeed() is temperature-independent (alpha is calibrated
    // flat), so the batch's hoisted nominal-speed anchor matches the
    // scalar's per-call one bitwise at every temperature.
    for (std::size_t i = 0; i < vs.size(); ++i)
        EXPECT_EQ(out[i], mosfet.delayFactor(temps[i], vs[i])) << i;
}

TEST(BatchEquivalence, WireDelayOverLengths)
{
    Rng rng{0x3a1du};
    const auto &mosfet = technology().mosfet();
    tech::WireRC rc{technology().wire(tech::WireLayer::SemiGlobal),
                    mosfet, 48.0, 12.0};
    const Kelvin temp{77.0};
    const tech::VoltagePoint v{0.9, 0.25};
    std::vector<Metre> lengths(301);
    for (auto &l : lengths)
        l = Metre{1e-5 + 5e-3 * rng.uniform()};
    std::vector<Second> out(lengths.size());
    rc.delayBatch(lengths, temp, v, out);
    for (std::size_t i = 0; i < lengths.size(); ++i) {
        EXPECT_EQ(out[i].value(),
                  rc.delay(lengths[i], temp, v).value())
            << i;
    }
}

TEST(BatchEquivalence, WireDelayOverVoltages)
{
    Rng rng{0x77abcu};
    const auto &mosfet = technology().mosfet();
    tech::WireRC rc{technology().wire(tech::WireLayer::Local), mosfet};
    const Kelvin temp{77.0};
    const Metre length{300e-6};
    std::vector<tech::VoltagePoint> vs(129);
    for (auto &v : vs)
        v = randomVoltage(rng);
    std::vector<double> dfs(vs.size());
    mosfet.delayFactorBatch({&temp, 1}, vs, dfs);
    std::vector<Second> out(vs.size());
    rc.delayBatchV(length, temp, vs, dfs, out);
    for (std::size_t i = 0; i < vs.size(); ++i) {
        EXPECT_EQ(out[i].value(),
                  rc.delay(length, temp, vs[i]).value())
            << i;
    }
}

TEST(BatchEquivalence, CriticalPathMaxDelayAndFrequency)
{
    Rng rng{0x5eedu};
    pipeline::CriticalPathModel model{technology(),
                                     pipeline::Floorplan::skylakeLike()};
    const auto stages = pipeline::boomSkylakeStages();
    const Kelvin temp = constants::ln2Temp;
    std::vector<tech::VoltagePoint> vs(83);
    for (auto &v : vs)
        v = randomVoltage(rng);
    std::vector<double> md(vs.size());
    std::vector<units::Hertz> fr(vs.size());
    model.maxDelayBatch(stages, temp, vs, md);
    model.frequencyBatch(stages, temp, vs, fr);
    for (std::size_t i = 0; i < vs.size(); ++i) {
        EXPECT_EQ(md[i], model.maxDelay(stages, temp, vs[i])) << i;
        EXPECT_EQ(fr[i].value(),
                  model.frequency(stages, temp, vs[i]).value())
            << i;
    }
}

TEST(BatchEquivalence, IntervalSuiteMatchesPerWorkloadRuns)
{
    core::SystemBuilder builder{technology()};
    sys::IntervalSimulator sim;
    const auto design = builder.cryoSpCryoBus77();
    const auto suite = sys::parsec21();
    const auto results = sim.runSuite(design, suite);
    ASSERT_EQ(results.size(), suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto scalar = sim.run(design, suite[i]);
        EXPECT_EQ(results[i].timePerInstr, scalar.timePerInstr) << i;
        EXPECT_EQ(results[i].utilization, scalar.utilization) << i;
        EXPECT_EQ(results[i].saturated, scalar.saturated) << i;
        EXPECT_EQ(results[i].converged, scalar.converged) << i;
        EXPECT_EQ(results[i].stack.total(), scalar.stack.total()) << i;
    }
}

TEST(BatchEquivalence, VoltageOptimizerMatchesExplicitGridScan)
{
    // The optimizer precomputes the frequency plane with the batched
    // kernel; the winning point must be bit-identical to a plain
    // serial argmax over the public scalar evaluate().
    core::SystemBuilder builder{technology()};
    pipeline::CriticalPathModel model{technology(),
                                     pipeline::Floorplan::skylakeLike()};
    core::VoltageOptimizer opt{technology(), model};
    const auto core77 = builder.cryoSpCryoBus77().core;
    const auto base = builder.baseline300Mesh().core;

    core::VoltageConstraints c;
    c.vddStep = 0.05; // coarse grid keeps the scalar rescan fast
    c.vthStep = 0.025;
    const auto best = opt.optimize(core77, base, 77.0,
                                   core::VoltageObjective::Frequency, c);
    ASSERT_TRUE(best.feasible);

    core::VoltagePlanPoint expect;
    double best_score = -1.0;
    // Integer-indexed grid points (min + i*step), matching the
    // optimizer's own grid exactly - repeated addition would drift by
    // ulps and probe different voltages.
    for (int i = 0; c.minVdd + i * c.vddStep <= c.vddMax + 1e-12; ++i) {
        const double vdd = c.minVdd + i * c.vddStep;
        for (int j = 0; c.vthMin + j * c.vthStep <= c.vthMax + 1e-12;
             ++j) {
            const double vth = c.vthMin + j * c.vthStep;
            const auto p =
                opt.evaluate(core77, base, 77.0, {vdd, vth}, c);
            if (p.feasible && p.frequency > best_score) {
                best_score = p.frequency;
                expect = p;
            }
        }
    }
    EXPECT_EQ(best.voltage.vdd, expect.voltage.vdd);
    EXPECT_EQ(best.voltage.vth, expect.voltage.vth);
    EXPECT_EQ(best.frequency, expect.frequency);
    EXPECT_EQ(best.totalPower, expect.totalPower);
    EXPECT_EQ(best.leakageFactor, expect.leakageFactor);
}

} // namespace
