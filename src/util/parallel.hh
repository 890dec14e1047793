/**
 * @file
 * Deterministic data-parallel loops for the sweep engines.
 *
 * parallelFor/parallelMap split an index range into chunks executed on
 * the shared ThreadPool. Determinism contract: results are keyed by
 * index (never by completion order), so as long as the per-index work
 * is itself a pure function of the index — which every sweep in this
 * repo guarantees by seeding per-point RNG streams from the index — the
 * output is bitwise-identical at any job count, including 1.
 *
 * Reductions that depend on order (argmax with first-wins ties, prefix
 * sums, table rows) are performed serially over the index-ordered
 * results; see runFig25 in exp/exp_netsim.cc for the pattern.
 *
 * Width. A region's width is ParallelOptions::jobs if positive, else
 * the CRYOWIRE_JOBS environment variable, else the hardware thread
 * count, and never more than the width of the region it is nested in.
 * The body runs under that width on every path, so a nested region
 * inherits it: at width 1 everything runs on the caller's thread, and
 * a one-index region still lets its body fan out.
 *
 * Nesting. The caller claims chunks alongside up to width - 1 pool
 * helpers, then waits until every index has completed. A thread waits
 * only once every chunk is claimed, and each claimed chunk is being
 * run by a live thread, so nested regions cannot deadlock. A helper
 * that starts after the last chunk was claimed finds nothing to do and
 * never touches the body.
 */

#ifndef CRYOWIRE_UTIL_PARALLEL_HH
#define CRYOWIRE_UTIL_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

#include "thread_pool.hh"

namespace cryo
{

/** Per-call knobs for parallelFor/parallelMap. */
struct ParallelOptions
{
    /** Worker count; 0 = CRYOWIRE_JOBS / hardware default. */
    int jobs = 0;
    /** Indices per claimed chunk; 0 = auto (n / (4 * jobs)). */
    std::size_t chunk = 0;
};

namespace detail
{

/** Width of the region this thread is running a body of; 0 = none. */
inline thread_local int tls_width = 0;

/** Runs a scope under a region's width, restoring the outer one. */
class WidthScope
{
  public:
    explicit WidthScope(int width) : saved_(tls_width)
    {
        tls_width = width;
    }
    ~WidthScope() { tls_width = saved_; }
    WidthScope(const WidthScope &) = delete;
    WidthScope &operator=(const WidthScope &) = delete;

  private:
    int saved_;
};

/** State of one parallelFor region, shared with its pool helpers. */
struct Region
{
    std::size_t n = 0;
    std::size_t chunk = 1;
    int width = 1;
    /** The caller's body, type-erased; valid while chunks remain. */
    const void *body = nullptr;
    void (*call)(const void *, std::size_t) = nullptr;

    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    std::size_t completed = 0; ///< indices done (guarded by mu)
    std::exception_ptr error;  ///< first failure (guarded by mu)
};

/** Claim and run chunks of @p r until none is left. */
inline void
drain(Region &r)
{
    WidthScope scope{r.width};
    for (;;) {
        const std::size_t begin =
            r.next.fetch_add(r.chunk, std::memory_order_relaxed);
        if (begin >= r.n)
            return;
        const std::size_t end = std::min(r.n, begin + r.chunk);
        std::exception_ptr error;
        try {
            for (std::size_t i = begin; i < end; ++i)
                r.call(r.body, i);
        } catch (...) {
            error = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(r.mu);
        if (error && !r.error)
            r.error = error;
        r.completed += end - begin;
        if (r.completed == r.n)
            r.cv.notify_all();
    }
}

} // namespace detail

/**
 * Run body(i) for every i in [0, n), distributing chunks over the
 * shared pool; blocks until all indices completed. The first exception
 * thrown by any chunk is rethrown on the calling thread (the rest of
 * its chunk is skipped; other chunks still run). @p body must be safe
 * to invoke concurrently for distinct indices.
 */
template <typename Body>
void
parallelFor(std::size_t n, Body &&body, ParallelOptions opts = {})
{
    if (n == 0)
        return;
    int width = opts.jobs > 0 ? opts.jobs : ThreadPool::defaultThreads();
    if (detail::tls_width > 0)
        width = std::min(width, detail::tls_width);
    if (width <= 1 || n == 1) {
        detail::WidthScope scope{width};
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    const std::size_t chunk = opts.chunk > 0
        ? opts.chunk
        : std::max<std::size_t>(
              1, n / (4 * static_cast<std::size_t>(width)));
    const std::size_t chunks = (n + chunk - 1) / chunk;
    const int helpers = static_cast<int>(std::min<std::size_t>(
                            static_cast<std::size_t>(width), chunks)) -
                        1;

    using Fn = std::remove_reference_t<Body>;
    auto region = std::make_shared<detail::Region>();
    region->n = n;
    region->chunk = chunk;
    region->width = width;
    region->body = &body;
    region->call = [](const void *b, std::size_t i) {
        (*static_cast<Fn *>(const_cast<void *>(b)))(i);
    };

    ThreadPool &pool = ThreadPool::global();
    pool.ensureWorkers(width);
    for (int h = 0; h < helpers; ++h)
        pool.submit([region] { detail::drain(*region); });
    detail::drain(*region); // the caller works too instead of idling

    std::unique_lock<std::mutex> lock(region->mu);
    region->cv.wait(lock, [&r = *region] { return r.completed == r.n; });
    if (region->error)
        std::rethrow_exception(region->error);
}

/**
 * Map [0, n) through @p fn into an index-ordered vector. The result
 * type must be default-constructible; element i is exactly fn(i), so
 * the output is independent of the job count.
 */
template <typename Fn>
auto
parallelMap(std::size_t n, Fn &&fn, ParallelOptions opts = {})
    -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>>
{
    std::vector<std::decay_t<decltype(fn(std::size_t{0}))>> out(n);
    parallelFor(
        n, [&out, &fn](std::size_t i) { out[i] = fn(i); }, opts);
    return out;
}

} // namespace cryo

#endif // CRYOWIRE_UTIL_PARALLEL_HH
