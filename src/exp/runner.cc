#include "runner.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "util/diag.hh"
#include "util/parallel.hh"

namespace cryo::exp
{

namespace
{

constexpr const char *kUsage =
    "usage: cryowire_bench [options]\n"
    "\n"
    "Run the registered figure/table experiments and gate their paper\n"
    "anchors. Exit 0 = every anchor within tolerance, 1 = anchor miss\n"
    "or failed experiment, 2 = usage error.\n"
    "\n"
    "  --list           print the selected experiments and exit\n"
    "  --filter F       select by tag or name glob (repeatable, also\n"
    "                   comma-separated); default: all experiments\n"
    "  --json PATH      write the machine-readable results JSON\n"
    "  --csv DIR        write per-experiment CSVs into DIR\n"
    "  --seed N         base seed for stochastic simulations (default 1)\n"
    "  --jobs N         experiments run concurrently (default 1);\n"
    "                   results are byte-identical at any job count\n"
    "  --watchdog N     flag experiments still running after N seconds\n"
    "                   on stderr (default 600; 0 disables)\n"
    "  --quiet          suppress the per-experiment text report\n"
    "  --help           this text\n";

void
splitFilters(const std::string &arg, std::vector<std::string> &out)
{
    std::stringstream ss{arg};
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
}

/** Parse argv into @p opts; returns false (after a message) on error. */
bool
parseArgs(int argc, const char *const *argv, RunOptions &opts,
          bool &help)
{
    help = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "cryowire_bench: %s expects a value\n",
                             what);
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--list") {
            opts.list = true;
        } else if (arg == "--quiet") {
            opts.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            help = true;
        } else if (arg == "--filter") {
            const char *v = next("--filter");
            if (!v)
                return false;
            splitFilters(v, opts.filters);
        } else if (arg == "--json") {
            const char *v = next("--json");
            if (!v)
                return false;
            opts.jsonPath = v;
        } else if (arg == "--csv") {
            const char *v = next("--csv");
            if (!v)
                return false;
            opts.csvDir = v;
        } else if (arg == "--seed") {
            const char *v = next("--seed");
            if (!v)
                return false;
            opts.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--jobs") {
            const char *v = next("--jobs");
            if (!v)
                return false;
            opts.jobs = static_cast<int>(std::strtol(v, nullptr, 10));
            if (opts.jobs < 1) {
                std::fprintf(stderr,
                             "cryowire_bench: --jobs must be >= 1\n");
                return false;
            }
        } else if (arg == "--watchdog") {
            const char *v = next("--watchdog");
            if (!v)
                return false;
            opts.watchdogSeconds = std::strtod(v, nullptr);
            if (opts.watchdogSeconds < 0.0) {
                std::fprintf(stderr,
                             "cryowire_bench: --watchdog must be "
                             ">= 0\n");
                return false;
            }
        } else {
            std::fprintf(stderr,
                         "cryowire_bench: unknown option '%s'\n",
                         arg.c_str());
            return false;
        }
    }
    return true;
}

void
printList(const std::vector<const Experiment *> &selection)
{
    Table t({"name", "tags", "title"});
    for (const Experiment *e : selection) {
        std::string tags;
        for (const std::string &tag : e->tags) {
            if (!tags.empty())
                tags += ',';
            tags += tag;
        }
        t.addRow({e->name, tags, e->title});
    }
    t.print();
    std::printf("%zu experiment(s)\n", selection.size());
}

/**
 * Run one experiment with failure isolation: a throw is captured into
 * the record (error + context chain) instead of propagating, so
 * sibling experiments keep running. The "experiment <name>" frame
 * stays alive through the catch, so even exceptions that carry no
 * chain of their own are attributed to the experiment.
 */
void
runOne(const Experiment &e, const Context &ctx, RunRecord &rec)
{
    CRYO_CONTEXT("experiment " + e.name);
    try {
        e.run(ctx, rec.result);
    } catch (const FatalError &err) {
        rec.failed = true;
        rec.error = err.message();
        rec.errorContext = err.context();
    } catch (const std::exception &err) {
        rec.failed = true;
        rec.error = err.what();
        rec.errorContext = diag::contextStack();
    } catch (...) {
        rec.failed = true;
        rec.error = "unknown exception";
        rec.errorContext = diag::contextStack();
    }
}

/**
 * Wall-clock watchdog: a monitor thread flags (once, on stderr) every
 * experiment still running past the budget. Purely observational - the
 * experiment is not killed and no record field changes, keeping the
 * sinks deterministic.
 */
class Watchdog
{
  public:
    Watchdog(const std::vector<const Experiment *> &selection,
             double budget_seconds)
        : selection_(selection), budgetSeconds_(budget_seconds)
    {
        if (budgetSeconds_ <= 0.0)
            return;
        states_ = std::make_unique<State[]>(selection.size());
        monitor_ = std::thread([this] { watch(); });
    }

    ~Watchdog()
    {
        if (!monitor_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        monitor_.join();
    }

    void
    started(std::size_t i)
    {
        if (states_)
            states_[i].startNs.store(nowNs(), std::memory_order_release);
    }

    void
    finished(std::size_t i)
    {
        if (states_)
            states_[i].done.store(true, std::memory_order_release);
    }

  private:
    struct State
    {
        std::atomic<std::int64_t> startNs{0}; ///< 0 = not started
        std::atomic<bool> done{false};
        bool flagged = false; ///< monitor-thread only
    };

    static std::int64_t
    nowNs()
    {
        // CRYOLINT-NEXTLINE(determinism-calls): watchdog wall time is
        // stderr-only diagnostics; it never reaches the JSON/CSV
        // results, which stay byte-identical across --jobs.
        const auto now = std::chrono::steady_clock::now();
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   now.time_since_epoch())
            .count();
    }

    void
    watch()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!stop_) {
            cv_.wait_for(lock, std::chrono::milliseconds(200));
            if (stop_)
                return;
            const std::int64_t now = nowNs();
            for (std::size_t i = 0; i < selection_.size(); ++i) {
                State &s = states_[i];
                if (s.flagged ||
                    s.done.load(std::memory_order_acquire))
                    continue;
                const std::int64_t start =
                    s.startNs.load(std::memory_order_acquire);
                if (start == 0)
                    continue;
                const double elapsed =
                    static_cast<double>(now - start) * 1e-9;
                if (elapsed <= budgetSeconds_)
                    continue;
                s.flagged = true;
                std::fprintf(stderr,
                             "cryowire warn: experiment %s still "
                             "running after %.0f s (watchdog budget "
                             "%.0f s)\n",
                             selection_[i]->name.c_str(), elapsed,
                             budgetSeconds_);
            }
        }
    }

    const std::vector<const Experiment *> &selection_;
    double budgetSeconds_;
    std::unique_ptr<State[]> states_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread monitor_;
};

} // namespace

std::vector<RunRecord>
runExperiments(const Registry &registry, const RunOptions &opts)
{
    const std::vector<const Experiment *> selection =
        registry.match(opts.filters);
    std::vector<RunRecord> records(selection.size());
    for (std::size_t i = 0; i < selection.size(); ++i)
        records[i].experiment = selection[i];

    const Context ctx{opts.seed};
    Watchdog watchdog{selection, opts.watchdogSeconds};
    // chunk=1 so each experiment is one schedulable unit; results are
    // stored by index, so the record order never depends on timing.
    ParallelOptions popts;
    popts.jobs = opts.jobs;
    popts.chunk = 1;
    parallelFor(
        selection.size(),
        [&](std::size_t i) {
            watchdog.started(i);
            runOne(*selection[i], ctx, records[i]);
            watchdog.finished(i);
        },
        popts);
    return records;
}

int
runMain(int argc, const char *const *argv)
{
    RunOptions opts;
    bool help = false;
    if (!parseArgs(argc, argv, opts, help)) {
        std::fputs(kUsage, stderr);
        return 2;
    }
    if (help) {
        std::fputs(kUsage, stdout);
        return 0;
    }

    const Registry &registry = Registry::builtins();
    const std::vector<const Experiment *> selection =
        registry.match(opts.filters);
    if (selection.empty()) {
        std::fprintf(stderr,
                     "cryowire_bench: no experiment matches the "
                     "filter; try --list\n");
        return 2;
    }
    if (opts.list) {
        printList(selection);
        return 0;
    }

    const std::vector<RunRecord> records =
        runExperiments(registry, opts);

    if (!opts.quiet) {
        for (const RunRecord &rec : records)
            std::fputs(renderText(rec).c_str(), stdout);
        std::fputs("\n", stdout);
    }

    try {
        if (!opts.jsonPath.empty()) {
            std::ofstream out{opts.jsonPath};
            fatalIf(!out.is_open(),
                    "cannot open JSON output file: " + opts.jsonPath);
            writeJson(out, records, opts.seed);
        }
        if (!opts.csvDir.empty()) {
            for (const RunRecord &rec : records)
                writeCsv(opts.csvDir, rec);
        }
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    const std::size_t failed = renderAnchorSummary(std::cout, records);
    return failed == 0 ? 0 : 1;
}

} // namespace cryo::exp
