/**
 * @file
 * Minimal timing harness for the kernel micro benchmarks.
 *
 * Replaces the external google-benchmark dependency with a
 * fixed-schema JSON emitter the perf-regression gate
 * (tools/bench_gate.py) can diff: one entry per kernel, best-of-reps
 * ns/op (the minimum is the standard noise-robust statistic - any
 * slower sample only measures interference), scalar and (where the
 * kernel has one) batch variants side by side.
 *
 * Schema ("cryowire-bench/1"):
 * @code
 *   {
 *     "schema": "cryowire-bench/1",
 *     "suite": "micro_models",
 *     "unit": "ns/op",
 *     "kernels": [
 *       {"name": "wire_rc_delay", "ops": 512,
 *        "scalar_ns_op": 41.2, "batch_ns_op": 3.9, "speedup": 10.5},
 *       {"name": "interval_sim_run", "ops": 21,
 *        "scalar_ns_op": 8123.0, "batch_ns_op": null, "speedup": null}
 *     ]
 *   }
 * @endcode
 *
 * A report may carry named integer counters after the kernels array
 * (cryowire_loadgen's request accounting); the gate ignores them.
 */

#ifndef CRYOWIRE_BENCH_MICRO_COMMON_HH
#define CRYOWIRE_BENCH_MICRO_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hh"

namespace cryo::micro
{

/** Keep @p value (and everything it points to) alive past -O2. */
template <class T>
inline void
keep(const T &value)
{
#if defined(__GNUC__) || defined(__clang__)
    asm volatile("" : : "g"(&value) : "memory");
#else
    static volatile const void *sink;
    sink = &value;
#endif
}

/** One measured kernel: scalar ns/op and the optional batch ns/op. */
struct KernelRow
{
    std::string name;
    std::uint64_t ops;
    double scalarNsOp;
    std::optional<double> batchNsOp;
};

/** A named integer written after the kernels array. */
using Counter = std::pair<std::string, std::uint64_t>;

/**
 * Write one cryowire-bench/1 report for @p suite to @p out: the
 * kernel rows, then @p counters in the given order.
 */
inline void
writeReport(std::ostream &out, const std::string &suite,
            const std::vector<KernelRow> &rows,
            const std::vector<Counter> &counters = {})
{
    JsonWriter w{out};
    w.beginObject();
    w.key("schema").value("cryowire-bench/1");
    w.key("suite").value(suite);
    w.key("unit").value("ns/op");
    w.key("kernels").beginArray();
    for (const auto &r : rows) {
        w.beginObject();
        w.key("name").value(r.name);
        w.key("ops").value(r.ops);
        w.key("scalar_ns_op").value(r.scalarNsOp);
        w.key("batch_ns_op");
        if (r.batchNsOp)
            w.value(*r.batchNsOp);
        else
            w.null();
        w.key("speedup");
        if (r.batchNsOp)
            w.value(r.scalarNsOp / *r.batchNsOp);
        else
            w.null();
        w.endObject();
    }
    w.endArray();
    for (const auto &[name, value] : counters)
        w.key(name).value(value);
    w.endObject();
    out << "\n";
}

/**
 * Suite driver: parses the common CLI, times kernel bodies, renders a
 * table to stdout, and writes the gate's JSON on request.
 *
 * Options: --json PATH, --quiet.
 */
class Harness
{
  public:
    Harness(std::string suite, int argc, char **argv) : suite_(std::move(suite))
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc) {
                    std::cerr << suite_ << ": " << arg
                              << " needs an argument\n";
                    std::exit(2);
                }
                return argv[++i];
            };
            if (arg == "--json") {
                jsonPath_ = next();
            } else if (arg == "--quiet") {
                quiet_ = true;
            } else {
                std::cerr << suite_ << ": unknown option " << arg
                          << "\nusage: " << suite_
                          << " [--json PATH] [--quiet]\n";
                std::exit(2);
            }
        }
    }

    /**
     * Best-case ns per op of @p body, which performs @p ops_per_call
     * ops per invocation.  Calibrates an iteration count to
     * kMinTimeNs, then takes the minimum over kReps timed samples.
     */
    template <class F>
    double
    time(std::uint64_t ops_per_call, F &&body)
    {
        using clock = std::chrono::steady_clock;
        auto sample = [&](std::uint64_t iters) {
            const auto t0 = clock::now();
            for (std::uint64_t i = 0; i < iters; ++i)
                body();
            const auto t1 = clock::now();
            return std::chrono::duration<double, std::nano>(t1 - t0)
                .count();
        };
        std::uint64_t iters = 1;
        double ns = sample(iters);
        while (ns < kMinTimeNs && iters < (std::uint64_t{1} << 28)) {
            iters *= 2;
            ns = sample(iters);
        }
        double best = std::numeric_limits<double>::infinity();
        for (int r = 0; r < kReps; ++r) {
            best = std::min(best,
                            sample(iters) /
                                (static_cast<double>(iters) *
                                 static_cast<double>(ops_per_call)));
        }
        return best;
    }

    /** Record a kernel with no batch variant. */
    void
    record(const std::string &name, std::uint64_t ops, double scalar_ns)
    {
        rows_.push_back({name, ops, scalar_ns, std::nullopt});
    }

    /** Record a scalar/batch pair. */
    void
    record(const std::string &name, std::uint64_t ops, double scalar_ns,
           double batch_ns)
    {
        rows_.push_back({name, ops, scalar_ns, batch_ns});
    }

    /** Render the table, write the JSON, return the exit code. */
    int
    finish() const
    {
        if (!quiet_) {
            std::printf("%-28s %12s %12s %8s\n", "kernel",
                        "scalar ns/op", "batch ns/op", "speedup");
            for (const auto &r : rows_) {
                if (r.batchNsOp) {
                    std::printf("%-28s %12.2f %12.2f %7.2fx\n",
                                r.name.c_str(), r.scalarNsOp,
                                *r.batchNsOp,
                                r.scalarNsOp / *r.batchNsOp);
                } else {
                    std::printf("%-28s %12.2f %12s %8s\n",
                                r.name.c_str(), r.scalarNsOp, "-", "-");
                }
            }
        }
        if (jsonPath_.empty())
            return 0;
        std::ofstream out{jsonPath_};
        if (!out) {
            std::cerr << suite_ << ": cannot write " << jsonPath_
                      << "\n";
            return 1;
        }
        writeReport(out, suite_, rows_);
        return out.good() ? 0 : 1;
    }

  private:
    static constexpr int kReps = 5;
    static constexpr double kMinTimeNs = 100e6;

    std::string suite_;
    std::string jsonPath_;
    bool quiet_ = false;
    std::vector<KernelRow> rows_;
};

} // namespace cryo::micro

#endif // CRYOWIRE_BENCH_MICRO_COMMON_HH
