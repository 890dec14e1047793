/**
 * @file
 * Tests for the parallel sweep engine: the thread pool, the chunked
 * deterministic parallelFor/parallelMap, and the bitwise determinism
 * of the netsim load-latency sweep across job counts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "netsim/bus_net.hh"
#include "netsim/load_latency.hh"
#include "noc/noc_config.hh"
#include "tech/technology.hh"
#include "util/diag.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace cryo;
using namespace cryo::netsim;

TEST(ThreadPool, DefaultThreadsAtLeastOne)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1);
}

TEST(ThreadPool, RunsSubmittedTasks)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    for (int i = 0; i < 32; ++i)
        pool.submit([&done] { ++done; });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (done.load() < 32 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, GrowsButNeverShrinks)
{
    ThreadPool pool(1);
    pool.ensureWorkers(3);
    EXPECT_EQ(pool.threads(), 3);
    pool.ensureWorkers(2);
    EXPECT_EQ(pool.threads(), 3);
}

TEST(Parallel, CoversEveryIndexExactlyOnce)
{
    constexpr std::size_t n = 1000;
    std::vector<int> hits(n, 0);
    ParallelOptions par;
    par.jobs = 8;
    par.chunk = 7; // deliberately not dividing n
    parallelFor(n, [&hits](std::size_t i) { ++hits[i]; }, par);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(Parallel, MapIsIndexOrdered)
{
    ParallelOptions par;
    par.jobs = 8;
    const auto sq = parallelMap(
        100,
        [](std::size_t i) { return static_cast<double>(i * i); },
        par);
    ASSERT_EQ(sq.size(), 100u);
    for (std::size_t i = 0; i < sq.size(); ++i)
        EXPECT_DOUBLE_EQ(sq[i], static_cast<double>(i * i));
}

TEST(Parallel, EmptyAndSingleIndex)
{
    int calls = 0;
    parallelFor(0, [&calls](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(1, [&calls](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(Parallel, PropagatesFirstException)
{
    ParallelOptions par;
    par.jobs = 4;
    EXPECT_THROW(parallelFor(
                     64,
                     [](std::size_t i) {
                         fatalIf(i == 40, "injected failure");
                     },
                     par),
                 FatalError);
}

/**
 * A rendezvous of @p count threads: each arrival waits until all have
 * arrived, or the timeout passes. Parties running serially on one
 * thread never meet, so a met rendezvous proves they ran concurrently.
 */
class Rendezvous
{
  public:
    explicit Rendezvous(int count) : waiting_(count) {}

    /** True when every party arrived within the timeout. */
    bool
    arriveAndWait()
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (--waiting_ == 0)
            cv_.notify_all();
        return cv_.wait_for(lock, std::chrono::seconds(30),
                            [this] { return waiting_ <= 0; });
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    int waiting_;
};

/** Thread ids seen by a parallel body, safe to record concurrently. */
class ThreadSet
{
  public:
    void
    add()
    {
        std::lock_guard<std::mutex> lock(mu_);
        ids_.insert(std::this_thread::get_id());
    }
    std::set<std::thread::id>
    ids()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return ids_;
    }

  private:
    std::mutex mu_;
    std::set<std::thread::id> ids_;
};

TEST(Parallel, InnerRegionFansOutUnderWideOuterRegion)
{
    ParallelOptions outer;
    outer.jobs = 4;
    outer.chunk = 1;
    ParallelOptions inner = outer;
    std::atomic<int> met{0};
    parallelFor(
        4,
        [&](std::size_t i) {
            if (i != 0)
                return;
            Rendezvous both{2};
            parallelFor(
                2,
                [&](std::size_t) {
                    if (both.arriveAndWait())
                        ++met;
                },
                inner);
        },
        outer);
    EXPECT_EQ(met.load(), 2) << "inner indices never ran concurrently";
}

TEST(Parallel, SerialOuterRegionKeepsInnerOnCallingThread)
{
    ParallelOptions serial;
    serial.jobs = 1;
    ParallelOptions wide;
    wide.jobs = 8;
    wide.chunk = 1;
    const std::thread::id caller = std::this_thread::get_id();
    ThreadSet seen;
    std::atomic<int> calls{0};
    parallelFor(
        2,
        [&](std::size_t) {
            parallelFor(
                64,
                [&](std::size_t) {
                    seen.add();
                    ++calls;
                },
                wide);
        },
        serial);
    EXPECT_EQ(calls.load(), 128);
    EXPECT_EQ(seen.ids(), std::set<std::thread::id>{caller});
}

TEST(Parallel, InnerWidthIsCappedByOuterWidth)
{
    ParallelOptions outer;
    outer.jobs = 2;
    ParallelOptions inner;
    inner.jobs = 8;
    inner.chunk = 1;
    ThreadSet seen;
    parallelFor(
        1,
        [&](std::size_t) {
            parallelFor(
                256,
                [&](std::size_t) {
                    seen.add();
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
                },
                inner);
        },
        outer);
    EXPECT_LE(seen.ids().size(), 2u);
}

TEST(Parallel, OneIndexRegionStillLetsItsBodyFanOut)
{
    ParallelOptions wide;
    wide.jobs = 4;
    wide.chunk = 1;
    std::atomic<int> met{0};
    parallelFor(
        1,
        [&](std::size_t) {
            Rendezvous both{2};
            parallelFor(
                2,
                [&](std::size_t) {
                    if (both.arriveAndWait())
                        ++met;
                },
                wide);
        },
        wide);
    EXPECT_EQ(met.load(), 2) << "a one-index region serialized its body";
}

TEST(Parallel, ThreeLevelNestingCoversEveryIndexOnce)
{
    // 16^3 chunks of one index each, far more than the pool has
    // workers: waits at every level must not starve each other.
    constexpr std::size_t n = 16;
    std::vector<std::atomic<int>> hits(n * n * n);
    ParallelOptions par;
    par.jobs = 4;
    par.chunk = 1;
    parallelFor(
        n,
        [&](std::size_t i) {
            parallelFor(
                n,
                [&](std::size_t j) {
                    parallelFor(
                        n,
                        [&](std::size_t k) { ++hits[(i * n + j) * n + k]; },
                        par);
                },
                par);
        },
        par);
    for (std::size_t x = 0; x < hits.size(); ++x)
        ASSERT_EQ(hits[x].load(), 1) << "index " << x;
}

TEST(Parallel, NestedExceptionReachesOutermostCaller)
{
    ParallelOptions par;
    par.jobs = 4;
    par.chunk = 1;
    EXPECT_THROW(parallelFor(
                     8,
                     [&](std::size_t i) {
                         parallelFor(
                             8,
                             [i](std::size_t j) {
                                 fatalIf(i == 5 && j == 3,
                                         "injected nested failure");
                             },
                             par);
                     },
                     par),
                 FatalError);
}

TEST(Rng, DerivedSeedsAreDeterministicAndDistinct)
{
    EXPECT_EQ(Rng::deriveSeed(7, 3), Rng::deriveSeed(7, 3));
    EXPECT_NE(Rng::deriveSeed(7, 3), Rng::deriveSeed(7, 4));
    EXPECT_NE(Rng::deriveSeed(7, 3), Rng::deriveSeed(8, 3));
    // Consecutive streams must not produce consecutive raw seeds.
    EXPECT_NE(Rng::deriveSeed(7, 4) - Rng::deriveSeed(7, 3), 1u);
}

TEST(Parallel, SweepBitwiseIdenticalAcrossJobCounts)
{
    static tech::Technology technology = tech::Technology::freePdk45();
    noc::NocDesigner designer{technology};
    const BusTiming timing =
        BusTiming::fromConfig(designer.cryoBus(), 1);
    const NetworkFactory factory =
        [timing]() -> std::unique_ptr<Network> {
        return std::make_unique<BusNetwork>(64, timing);
    };

    const std::vector<double> rates = {0.002, 0.006, 0.010,
                                       0.014, 0.018, 0.022};
    TrafficSpec tr;
    MeasureOpts opts;
    opts.warmupCycles = 500;
    opts.measureCycles = 2000;

    ParallelOptions serial;
    serial.jobs = 1;
    const auto reference = sweepLoadLatency(factory, tr, rates, opts,
                                            serial);
    ASSERT_EQ(reference.size(), rates.size());

    for (int jobs : {2, 8}) {
        ParallelOptions par;
        par.jobs = jobs;
        const auto curve =
            sweepLoadLatency(factory, tr, rates, opts, par);
        ASSERT_EQ(curve.size(), reference.size());
        for (std::size_t i = 0; i < curve.size(); ++i) {
            // Bitwise identity, not a tolerance: the parallel engine
            // must not perturb any measurement.
            EXPECT_EQ(curve[i].injectionRate,
                      reference[i].injectionRate)
                << "jobs=" << jobs << " point " << i;
            EXPECT_EQ(curve[i].avgLatency, reference[i].avgLatency)
                << "jobs=" << jobs << " point " << i;
            EXPECT_EQ(curve[i].p99Latency, reference[i].p99Latency)
                << "jobs=" << jobs << " point " << i;
            EXPECT_EQ(curve[i].throughput, reference[i].throughput)
                << "jobs=" << jobs << " point " << i;
            EXPECT_EQ(curve[i].saturated, reference[i].saturated)
                << "jobs=" << jobs << " point " << i;
        }
    }
}

} // namespace
