/**
 * @file
 * perfbench_probe: the benchmark's in-process observer. Each
 * subcommand calls the program's public entry points from outside,
 * times them, and prints one JSON document on stdout for
 * perfbench/run.py. Nothing here changes what the program computes.
 *
 *   serve   client session against a running cryowire_serve:
 *           closed-loop batches timed by the daemon's CPU, and/or
 *           open-loop fixed rates with a capacity ladder
 *   netsim  replay of the 64-core load-latency designs through a
 *           counting netsim::Network decorator
 *   dse     per-layer timing of the sweep path (--mode trace), or the
 *           sweep's seeded re-evaluation check (--mode verify)
 *   exp     the experiment suite in-process, one span per experiment
 *
 * Spans carry absolute steady_clock nanoseconds (CLOCK_MONOTONIC on
 * Linux), so run.py can nest them under its own spans.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/prctl.h>

#include "core/system_builder.hh"
#include "dse/pareto.hh"
#include "dse/point_eval.hh"
#include "dse/result_cache.hh"
#include "dse/sweep_runner.hh"
#include "dse/sweep_spec.hh"
#include "exp/netsim_support.hh"
#include "exp/registry.hh"
#include "exp/sinks.hh"
#include "netsim/load_latency.hh"
#include "noc/noc_config.hh"
#include "pipeline/floorplan.hh"
#include "power/mcpat_lite.hh"
#include "svc/client.hh"
#include "svc/protocol.hh"
#include "sys/interval_sim.hh"
#include "sys/workload.hh"
#include "util/diag.hh"
#include "util/json.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/socket.hh"

namespace
{

using namespace cryo;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Nearest-rank percentile of @p v (sorted in place); 0 when empty. */
double
percentile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t i = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size())));
    return v[i - 1];
}

double
median(std::vector<double> v)
{
    return percentile(v, 0.5);
}

/** One traced interval: name, start, end, parent index, request id. */
struct Span
{
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    long parent = -1;
    std::string rid;
};

/** In-memory span store, written out with the subcommand's result. */
class Spans
{
  public:
    long
    add(Span s)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(std::move(s));
        return static_cast<long>(spans_.size()) - 1;
    }

    /** Set the end of a span opened before its children. */
    void
    close(long index, std::int64_t end)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<std::size_t>(index)].end = end;
    }

    void
    write(JsonWriter &w) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        w.key("spans").beginArray();
        for (const Span &s : spans_) {
            w.beginObject();
            w.key("name").value(s.name);
            w.key("start").value(static_cast<std::int64_t>(s.start));
            w.key("end").value(static_cast<std::int64_t>(s.end));
            w.key("parent").value(static_cast<std::int64_t>(s.parent));
            w.key("rid").value(s.rid);
            w.endObject();
        }
        w.endArray();
    }

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** --key value arguments after the subcommand. */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 2; i + 1 < argc; i += 2) {
            std::string k = argv[i];
            fatalIf(k.rfind("--", 0) != 0, "bad argument " + k);
            values_[k.substr(2)] = argv[i + 1];
        }
    }

    std::string
    str(const std::string &k, const std::string &def = {}) const
    {
        const auto it = values_.find(k);
        return it == values_.end() ? def : it->second;
    }

    double
    num(const std::string &k, double def) const
    {
        const auto it = values_.find(k);
        return it == values_.end() ? def : std::stod(it->second);
    }

    /** A number the caller must pass. */
    double
    num(const std::string &k) const
    {
        const auto it = values_.find(k);
        fatalIf(it == values_.end(), "missing --" + k);
        return std::stod(it->second);
    }

  private:
    std::map<std::string, std::string> values_;
};

// ---------------------------------------------------------------- serve

const std::vector<std::string> kParsec = {
    "blackscholes", "canneal",  "dedup",         "ferret",
    "fluidanimate", "freqmine", "raytrace",      "streamcluster",
    "swaptions",    "x264"};

/** A seeded sweep-shaped point: continuous tempK, so points differ. */
dse::DesignPoint
randomPoint(Rng &rng)
{
    static const double kScales[] = {0.85, 1.0, 1.15, 1.3};
    dse::DesignPoint p;
    p.tempK = 77.0 + 223.0 * rng.uniform();
    p.workload = kParsec[rng.below(kParsec.size())];
    p.busWays = 1 + static_cast<int>(rng.below(2));
    p.floorplanScale = kScales[rng.below(4)];
    return p;
}

/** The request mix: a hot set plus a stream of never-seen points. */
class Mix
{
  public:
    Mix(std::uint64_t seed, std::size_t hot, double missShare)
        : rng_(seed), missShare_(missShare)
    {
        while (hot_.size() < hot) {
            dse::DesignPoint p = randomPoint(rng_);
            if (seen_.insert(p.hashHex()).second)
                hot_.push_back(p);
        }
    }

    const std::vector<dse::DesignPoint> &hot() const { return hot_; }

    /** The next request's point. */
    dse::DesignPoint
    next()
    {
        if (!rng_.chance(missShare_))
            return hot_[rng_.below(hot_.size())];
        for (;;) {
            dse::DesignPoint p = randomPoint(rng_);
            if (seen_.insert(p.hashHex()).second)
                return p;
        }
    }

    Rng &rng() { return rng_; }

  private:
    Rng rng_;
    double missShare_;
    std::vector<dse::DesignPoint> hot_;
    std::set<std::string> seen_;
};

/** The request mix: a hot set, and this share of never-seen points. */
constexpr std::size_t kHotPoints = 64;
constexpr double kMissShare = 0.25;

/** ok replies checked against direct evaluation, per run / batch. */
constexpr std::size_t kVerifyPerRun = 2;
constexpr std::size_t kVerifyPerBatch = 16;

/** Sweep points re-evaluated by dse verify / timed by dse trace. */
constexpr std::size_t kVerifyPoints = 16;
constexpr std::size_t kTracePoints = 64;

/** Client p99 limit of the capacity search [ms]. */
constexpr double kP99LimitMs = 2.0;

/** Windows per capacity step. */
constexpr std::int64_t kStepWindows = 3;

/** How long before a request is due the sender stops sleeping. */
constexpr std::int64_t kSpinNs = 30'000;

/** Shortest latency window a phase is cut into. */
constexpr double kWindowNs = 250e6;

/** Generator lag p99 above which a window measured the host. */
constexpr double kCleanLagMs = 0.3;

/** How long a missing reply is waited for before it counts as lost. */
constexpr std::int64_t kLostNs = 5'000'000'000;

/** Per-request record of one open-loop phase or batch. */
struct Slot
{
    std::int64_t schedNs = 0; ///< absolute time it was due
    std::int64_t sendNs = 0;
    std::int64_t recvNs = 0;
    std::int64_t serverUs = 0;
    int replies = 0;
    bool ok = false;
    bool cached = false;
    bool deduped = false;
    bool shed = false; ///< overloaded or expired
    bool verify = false;
    std::string metricsJson; ///< kept only for verify slots
};

/** What one rate saw, over one or more open-loop runs. */
struct PhaseResult
{
    double rate = 0.0;
    std::size_t sent = 0;
    std::size_t ok = 0;
    std::size_t shed = 0;   ///< typed overloaded/expired replies
    std::size_t broken = 0; ///< lost, duplicated, error or mismatched
    std::size_t mismatched = 0;
    std::size_t verified = 0;
    std::size_t hits = 0;
    std::size_t dedupes = 0;
    std::vector<double> winP50Ms, winP99Ms, winLagMs; ///< per window
    std::vector<bool> winMet; ///< p99, failure and backlog limits met
    std::vector<double> lagMs, serverUs, transportUs; ///< per request

    /**
     * Windows in which the generator itself sent on time (lag p99 at
     * most kCleanLagMs). A window the client sent late in measured the
     * host, not the server; all windows count when fewer than half are
     * clean.
     */
    std::vector<std::size_t>
    cleanWindows() const
    {
        std::vector<std::size_t> all, clean;
        for (std::size_t i = 0; i < winLagMs.size(); ++i) {
            all.push_back(i);
            if (winLagMs[i] <= kCleanLagMs)
                clean.push_back(i);
        }
        return 2 * clean.size() >= all.size() ? clean : all;
    }

    /** Median over the clean windows of @p perWindow. */
    double
    windowMedian(const std::vector<double> &perWindow) const
    {
        std::vector<double> v;
        for (std::size_t i : cleanWindows())
            v.push_back(perWindow[i]);
        return median(v);
    }

    /** Most clean windows met the limits. */
    bool
    meets() const
    {
        const std::vector<std::size_t> use = cleanWindows();
        std::size_t met = 0;
        for (std::size_t i : use)
            met += winMet[i] ? 1 : 0;
        return 2 * met > use.size();
    }

    void
    merge(const PhaseResult &o)
    {
        rate = o.rate;
        sent += o.sent;
        ok += o.ok;
        shed += o.shed;
        broken += o.broken;
        mismatched += o.mismatched;
        verified += o.verified;
        hits += o.hits;
        dedupes += o.dedupes;
        winMet.insert(winMet.end(), o.winMet.begin(), o.winMet.end());
        for (auto [dst, src] :
             {std::pair{&winP50Ms, &o.winP50Ms}, {&winP99Ms, &o.winP99Ms},
              {&winLagMs, &o.winLagMs},
              {&lagMs, &o.lagMs}, {&serverUs, &o.serverUs},
              {&transportUs, &o.transportUs}})
            dst->insert(dst->end(), src->begin(), src->end());
    }
};

/**
 * The request index a reply answers: ids are "<prefix><index>". @p n
 * (out of range) for a reply without such an id.
 */
std::size_t
slotIndex(const svc::Reply &r, const std::string &prefix, std::size_t n)
{
    if (!r.hasId || r.id.rfind(prefix, 0) != 0)
        return n;
    const std::string digits = r.id.substr(prefix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
        return n;
    return std::min<std::size_t>(std::stoul(digits), n);
}

/** A client session: the request mix over two persistent connections. */
class Session
{
  public:
    Session(const std::string &socket, std::uint64_t seed, Spans *spans)
        : mix_(seed, kHotPoints, kMissShare), spans_(spans)
    {
        for (int c = 0; c < 2; ++c) {
            svc::ClientConfig cfg;
            cfg.socketPath = socket;
            cfg.connectAttempts = 8;
            cfg.connectBackoffMs = 20;
            cfg.recvTimeoutMs = 200;
            conns_.push_back(std::make_unique<svc::Client>(cfg));
        }
    }

    /** Closed-loop warm-up: every hot point once, before timing. */
    void
    warmHotSet()
    {
        for (std::size_t i = 0; i < mix_.hot().size(); ++i) {
            svc::Request r;
            r.id = "warm." + std::to_string(i);
            r.op = svc::Op::kEval;
            r.point = mix_.hot()[i];
            const svc::Reply rep = conns_[0]->call(r);
            fatalIf(rep.status != "ok",
                    "warm-up eval failed: " + rep.status);
        }
    }

    PhaseResult run(const std::string &tag, double rate,
                    std::int64_t durationMs);

    /** The daemon's "stats" payload, parsed. */
    JsonValue
    stats()
    {
        svc::Request r;
        r.id = "stats";
        r.op = svc::Op::kStats;
        const svc::Reply rep = conns_[0]->call(r);
        fatalIf(rep.status != "ok", "stats op failed");
        return parseJson(rep.statsJson, "<stats>");
    }

    /**
     * Closed loop: @p total requests over both connections, each
     * keeping @p depth in flight. Checks one reply per request and a
     * seeded sample against direct evaluation.
     */
    PhaseResult batch(std::size_t total, std::size_t depth);

  private:
    /**
     * @p n requests "<tag>.<i>" from the mix, pre-rendered, with
     * @p verify seeded slots marked for checking.
     */
    void
    draw(const std::string &tag, std::size_t n, std::size_t verify,
         std::vector<std::string> &lines,
         std::vector<dse::DesignPoint> &points, std::vector<Slot> &slots)
    {
        lines.resize(n);
        points.resize(n);
        slots.assign(n, Slot{});
        for (std::size_t i = 0; i < n; ++i) {
            svc::Request r;
            r.id = tag + "." + std::to_string(i);
            r.op = svc::Op::kEval;
            r.point = mix_.next();
            lines[i] = svc::formatRequest(r) + "\n";
            points[i] = r.point;
        }
        for (std::size_t k = 0; k < verify && k < n; ++k)
            slots[mix_.rng().below(n)].verify = true;
    }

    /** Seeded sample of ok replies against direct evaluation. */
    void
    verify(const std::vector<Slot> &slots,
           const std::vector<dse::DesignPoint> &points, PhaseResult &res)
    {
        for (std::size_t i = 0; i < slots.size(); ++i) {
            const Slot &s = slots[i];
            if (!s.verify || s.replies != 1 || !s.ok)
                continue;
            std::ostringstream want;
            JsonWriter w{want, 0};
            direct_.evaluate(points[i]).writeJson(w);
            ++res.verified;
            if (want.str() != s.metricsJson) {
                ++res.mismatched;
                ++res.broken;
            }
        }
    }

    void reader(std::size_t conn, const std::string &tag,
                std::vector<Slot> &slots, std::size_t expected,
                const std::atomic<bool> &sendersDone,
                std::atomic<std::size_t> &replied);

    Mix mix_;
    Spans *spans_;
    std::vector<std::unique_ptr<svc::Client>> conns_;
    dse::PointEvaluator direct_;
};

void
Session::reader(std::size_t conn, const std::string &tag,
                std::vector<Slot> &slots, std::size_t expected,
                const std::atomic<bool> &sendersDone,
                std::atomic<std::size_t> &replied)
{
    LineReader lines{conns_[conn]->fd()};
    std::string line;
    std::size_t got = 0;
    std::int64_t idleSince = 0;
    while (got < expected) {
        const LineReader::Status st = lines.next(&line);
        if (st == LineReader::Status::kTimeout) {
            // Give stragglers kLostNs after the last send, then count
            // whatever is still missing as lost.
            if (!sendersDone.load())
                continue;
            if (idleSince == 0)
                idleSince = nowNs();
            if (nowNs() - idleSince > kLostNs)
                return;
            continue;
        }
        if (st != LineReader::Status::kLine)
            return;
        idleSince = 0;
        const std::int64_t t = nowNs();
        const svc::Reply r = svc::Reply::parse(line, "<reply>");
        const std::size_t i = slotIndex(r, tag + ".", slots.size());
        if (i >= slots.size())
            continue;
        Slot &s = slots[i];
        ++s.replies;
        s.recvNs = t;
        s.serverUs = r.latencyUs;
        s.ok = r.status == "ok";
        s.shed = r.status == "overloaded" || r.status == "expired";
        s.cached = r.cached;
        s.deduped = r.deduped;
        if (s.verify)
            s.metricsJson = r.metricsJson;
        ++got;
        replied.fetch_add(1, std::memory_order_relaxed);
    }
}

PhaseResult
Session::batch(std::size_t total, std::size_t depth)
{
    std::vector<std::string> lines;
    std::vector<dse::DesignPoint> points;
    std::vector<Slot> slots;
    draw("batch", total, kVerifyPerBatch, lines, points, slots);

    // Connection c sends the indices i with i % 2 == c, in order.
    auto loop = [&](std::size_t c) {
        const int fd = conns_[c]->fd();
        LineReader in{fd};
        std::size_t next = c, pending = 0;
        std::string line;
        for (; next < total && pending < depth; next += 2, ++pending)
            if (!sendAll(fd, lines[next]))
                return;
        std::int64_t idleSince = 0;
        while (pending > 0) {
            const LineReader::Status st = in.next(&line);
            if (st == LineReader::Status::kTimeout) {
                // A reply 5 s overdue is lost; stop waiting for it.
                if (idleSince == 0)
                    idleSince = nowNs();
                if (nowNs() - idleSince > kLostNs)
                    return;
                continue;
            }
            if (st != LineReader::Status::kLine)
                return;
            idleSince = 0;
            --pending;
            const svc::Reply r = svc::Reply::parse(line, "<reply>");
            const std::size_t i = slotIndex(r, "batch.", total);
            if (i < total) {
                Slot &s = slots[i];
                ++s.replies;
                s.ok = r.status == "ok";
                s.shed = r.status == "overloaded" || r.status == "expired";
                if (s.verify)
                    s.metricsJson = r.metricsJson;
            }
            if (next < total) {
                if (!sendAll(fd, lines[next]))
                    return;
                next += 2;
                ++pending;
            }
        }
    };
    std::thread other([&] { loop(1); });
    loop(0);
    other.join();

    PhaseResult res;
    res.sent = total;
    for (std::size_t i = 0; i < total; ++i) {
        const Slot &s = slots[i];
        if (s.replies != 1)
            ++res.broken;
        else if (!s.ok)
            ++(s.shed ? res.shed : res.broken);
        else
            ++res.ok;
    }
    verify(slots, points, res);
    return res;
}

PhaseResult
Session::run(const std::string &tag, double rate, std::int64_t durationMs)
{
    const std::size_t n = std::max<std::size_t>(
        1, static_cast<std::size_t>(rate * static_cast<double>(durationMs) /
                                    1000.0));
    std::vector<std::string> lines;
    std::vector<dse::DesignPoint> points;
    std::vector<Slot> slots;
    draw(tag, n, kVerifyPerRun, lines, points, slots);

    const double gapNs = 1e9 / rate;
    const std::int64_t start = nowNs() + 2'000'000; // 2 ms lead
    for (std::size_t i = 0; i < n; ++i)
        slots[i].schedNs =
            start + static_cast<std::int64_t>(gapNs * static_cast<double>(i));

    // Outstanding requests at each send, for the backlog verdict.
    std::vector<std::int64_t> outstanding(n, 0);
    std::atomic<std::size_t> replied{0};
    std::atomic<bool> sendersDone{false};
    const std::size_t perConn[2] = {(n + 1) / 2, n / 2};

    auto sender = [&](std::size_t c) {
        const int fd = conns_[c]->fd();
        for (std::size_t i = c; i < n; i += 2) {
            // Sleep to just short of the due time, then spin: a
            // plain sleep wakes late by the timer slack plus the
            // idle-CPU wake-up, which would read as server latency.
            const std::int64_t due = slots[i].schedNs;
            const std::int64_t now = nowNs();
            if (due - now > kSpinNs)
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(due - now - kSpinNs));
            while (nowNs() < due) {
            }
            slots[i].sendNs = nowNs();
            outstanding[i] = static_cast<std::int64_t>(i) + 1 -
                static_cast<std::int64_t>(replied.load());
            if (!sendAll(fd, lines[i]))
                return;
        }
    };

    // Four threads in all: this one sends on connection 0.
    std::thread r0([&] {
        reader(0, tag, slots, perConn[0], sendersDone, replied);
    });
    std::thread r1([&] {
        reader(1, tag, slots, perConn[1], sendersDone, replied);
    });
    std::thread s1([&] { sender(1); });
    sender(0);
    s1.join();
    sendersDone.store(true);
    r0.join();
    r1.join();

    PhaseResult res;
    res.rate = rate;
    res.sent = n;
    for (std::size_t i = 0; i < n; ++i) {
        const Slot &s = slots[i];
        res.lagMs.push_back(static_cast<double>(s.sendNs - s.schedNs) *
                            1e-6);
        if (s.replies != 1) {
            ++res.broken;
            continue;
        }
        if (!s.ok) {
            ++(s.shed ? res.shed : res.broken);
            continue;
        }
        ++res.ok;
        res.serverUs.push_back(static_cast<double>(s.serverUs));
        res.transportUs.push_back(
            static_cast<double>(s.recvNs - s.sendNs) * 1e-3 -
            static_cast<double>(s.serverUs));
        res.hits += s.cached ? 1 : 0;
        res.dedupes += s.deduped ? 1 : 0;
        if (spans_ != nullptr)
            spans_->add({"svc.request", s.schedNs, s.recvNs, -1,
                         tag + "." + std::to_string(i)});
    }

    // Latency per window of at least kWindowNs and 1000 requests (ten
    // beyond the p99).
    const std::size_t per = std::max<std::size_t>(
        1000, static_cast<std::size_t>(rate * kWindowNs * 1e-9));
    for (std::size_t lo = 0; lo + per <= n || lo == 0; lo += per) {
        const std::size_t hi = std::min(n, lo + per);
        std::vector<double> lat, lag;
        std::size_t failed = 0;
        for (std::size_t i = lo; i < hi; ++i) {
            lag.push_back(res.lagMs[i]);
            const Slot &s = slots[i];
            // A request without an ok reply missed every limit.
            const bool good = s.replies == 1 && s.ok;
            failed += good ? 0 : 1;
            lat.push_back(good ? static_cast<double>(s.recvNs - s.schedNs) *
                                     1e-6
                               : 1e9);
        }
        res.winP50Ms.push_back(percentile(lat, 0.50));
        res.winP99Ms.push_back(percentile(lat, 0.99));
        res.winLagMs.push_back(percentile(lag, 0.99));
        // The backlog grows when the last quarter of the window's sends
        // saw clearly more requests outstanding than the first quarter.
        const std::size_t q = (hi - lo) / 4;
        double first = 0.0, last = 0.0;
        for (std::size_t k = 0; k < q; ++k) {
            first += static_cast<double>(outstanding[lo + k]);
            last += static_cast<double>(outstanding[hi - 1 - k]);
        }
        const bool growing =
            q > 0 && last > 2.0 * first + 8.0 * static_cast<double>(q);
        res.winMet.push_back(failed == 0 &&
                             res.winP99Ms.back() <= kP99LimitMs && !growing);
        if (hi == n)
            break;
    }

    verify(slots, points, res);
    return res;
}

/** A rate's summary: latency is the median over its windows. */
void
writePhase(JsonWriter &w, PhaseResult p)
{
    w.beginObject();
    w.key("rate").value(p.rate);
    w.key("sent").value(static_cast<std::uint64_t>(p.sent));
    w.key("ok").value(static_cast<std::uint64_t>(p.ok));
    w.key("shed").value(static_cast<std::uint64_t>(p.shed));
    w.key("broken").value(static_cast<std::uint64_t>(p.broken));
    w.key("verified").value(static_cast<std::uint64_t>(p.verified));
    w.key("mismatched").value(static_cast<std::uint64_t>(p.mismatched));
    w.key("p50_ms").value(p.windowMedian(p.winP50Ms));
    w.key("p99_ms").value(p.windowMedian(p.winP99Ms));
    w.key("clean_windows")
        .value(static_cast<std::uint64_t>(p.cleanWindows().size()));
    w.key("lag_p99_ms").value(percentile(p.lagMs, 0.99));
    w.key("server_p50_us").value(percentile(p.serverUs, 0.50));
    w.key("server_p99_us").value(percentile(p.serverUs, 0.99));
    w.key("transport_p50_us").value(percentile(p.transportUs, 0.50));
    w.key("hits").value(static_cast<std::uint64_t>(p.hits));
    w.key("dedupes").value(static_cast<std::uint64_t>(p.dedupes));
    w.key("windows").value(static_cast<std::uint64_t>(p.winP99Ms.size()));
    w.endObject();
}

double
statNum(const JsonValue &stats, const char *group, const char *key)
{
    const JsonValue *g = stats.find(group);
    const JsonValue *v = g == nullptr ? nullptr : g->find(key);
    return v == nullptr ? 0.0 : v->asNumber();
}

/**
 * CPU time [ns] the threads of process @p pid have run, from each
 * thread's /proc/<pid>/task/<tid>/schedstat; @p tids gets their ids.
 * Threads that have exited are not counted, so two readings compare
 * only when @p tids is the same in both.
 */
std::int64_t
threadsCpuNs(long pid, std::set<std::string> &tids)
{
    namespace fs = std::filesystem;
    tids.clear();
    std::int64_t total = 0;
    const fs::path dir = "/proc/" + std::to_string(pid) + "/task";
    for (const fs::directory_entry &e : fs::directory_iterator(dir)) {
        std::ifstream f(e.path() / "schedstat");
        std::int64_t ns = 0;
        if (f >> ns) {
            total += ns;
            tids.insert(e.path().filename().string());
        }
    }
    fatalIf(tids.empty(),
            "cannot read the CPU time of process " + std::to_string(pid));
    return total;
}

/**
 * The serve session: warm the hot set, the closed-loop batches, the
 * three fixed rates, then the capacity ladder (seven steps of x1.25
 * from the high rate).
 */
int
cmdServe(const Args &a)
{
    const bool trace = a.num("trace") != 0;
    Spans spans;
    Session session(a.str("socket"),
                    static_cast<std::uint64_t>(a.num("seed")),
                    trace ? &spans : nullptr);
    const auto windows = static_cast<std::int64_t>(a.num("windows"));
    // Enough time for @p w windows of kWindowNs and 1000 requests.
    auto lengthMs = [](double rate, std::int64_t w) {
        return w * static_cast<std::int64_t>(std::ceil(
                       std::max(kWindowNs * 1e-6, 1e6 / rate)));
    };

    // Timer slack would add up to 50 us to every sleep.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    session.warmHotSet();
    session.run("warm", 4000.0, 300);
    PhaseResult all;
    // Each batch's cost is the CPU the daemon's threads ran during it,
    // per request. The connections stay open across batches, so the
    // daemon's threads are the same ones from batch to batch.
    const auto batchN = static_cast<std::size_t>(a.num("batch", 0));
    std::vector<double> batchCpuUs;
    if (batchN > 0) {
        const auto pid = static_cast<long>(a.num("daemon-pid"));
        for (auto k = static_cast<std::int64_t>(a.num("batches")); k > 0;
             --k) {
            std::set<std::string> before, after;
            const std::int64_t t0 = threadsCpuNs(pid, before);
            const PhaseResult b = session.batch(batchN, 16);
            const std::int64_t t1 = threadsCpuNs(pid, after);
            if (before == after)
                batchCpuUs.push_back(static_cast<double>(t1 - t0) * 1e-3 /
                                     static_cast<double>(batchN));
            all.merge(b);
        }
    }

    // Each rate first runs unrecorded for kWindowNs, so the admission
    // controller has adapted to it before the first window.
    auto phase = [&](const std::string &tag, double rate,
                     std::int64_t windows) {
        session.run(tag + "-in", rate, lengthMs(rate, 1) / 2);
        return session.run(tag, rate, lengthMs(rate, windows));
    };
    const std::vector<std::pair<std::string, double>> rates = {
        {"low", 1000.0}, {"mid", 4000.0}, {"high", 8000.0}};
    std::vector<PhaseResult> fixed;
    for (const auto &[tag, rate] : rates)
        if (windows > 0)
            fixed.push_back(phase(tag, rate, windows));

    // Capacity: a fixed ladder of rates above the high one, so the
    // work done does not depend on where the limit is crossed. It is
    // the highest rate that, with every rate below it, met the limits.
    double capacity = 0.0;
    std::vector<PhaseResult> steps;
    if (windows > 0 && a.num("capacity") != 0) {
        bool holding = true;
        for (const PhaseResult &p : fixed) {
            holding = holding && p.meets();
            capacity = holding ? p.rate : capacity;
        }
        double rate = rates.back().second;
        for (int k = 0; k < 7; ++k) {
            rate *= 1.25;
            steps.push_back(
                phase("cap" + std::to_string(k), rate, kStepWindows));
            holding = holding && steps.back().meets();
            capacity = holding ? rate : capacity;
        }
    }

    const JsonValue stats = session.stats();
    PhaseResult open; // the fixed rates
    for (const PhaseResult &p : fixed)
        open.merge(p);
    all.merge(open);
    auto share = [&open](std::size_t part) {
        return open.ok ? static_cast<double>(part) /
                             static_cast<double>(open.ok)
                       : 0.0;
    };

    std::ostringstream out;
    JsonWriter w{out, 0};
    w.beginObject();
    w.key("phases").beginObject();
    for (std::size_t k = 0; k < fixed.size(); ++k) {
        w.key(rates[k].first);
        writePhase(w, fixed[k]);
    }
    w.endObject();
    w.key("steps").beginArray();
    for (const PhaseResult &p : steps)
        writePhase(w, p);
    w.endArray();
    w.key("capacity_rps").value(capacity);
    w.key("batch_cpu_us").beginArray();
    for (const double us : batchCpuUs)
        w.value(us);
    w.endArray();
    w.key("attempted").value(static_cast<std::uint64_t>(all.sent));
    w.key("shed").value(static_cast<std::uint64_t>(all.shed));
    w.key("broken").value(static_cast<std::uint64_t>(all.broken));
    w.key("verified").value(static_cast<std::uint64_t>(all.verified));
    w.key("lag_p99_ms").value(percentile(open.lagMs, 0.99));
    w.key("server_p50_us").value(percentile(open.serverUs, 0.50));
    w.key("server_p99_us").value(percentile(open.serverUs, 0.99));
    w.key("transport_p50_us").value(percentile(open.transportUs, 0.50));
    w.key("hit_share").value(share(open.hits));
    w.key("dedupe_share").value(share(open.dedupes));
    w.key("stats").beginObject();
    for (const char *k : {"evaluated", "overloaded", "expired",
                          "queued_peak", "inflight_peak", "cache_hits",
                          "deduped", "replied"})
        w.key(k).value(statNum(stats, "server", k));
    w.key("admission_limit").value(statNum(stats, "admission", "limit"));
    w.endObject();
    if (trace)
        spans.write(w);
    w.endObject();
    std::cout << out.str() << "\n";
    return 0;
}

// --------------------------------------------------------------- netsim

/** Counters one replay task accumulates; summed at the end. */
struct NetCounters
{
    std::atomic<std::uint64_t> cycles{0};
    std::atomic<std::uint64_t> packets{0};
    std::atomic<std::uint64_t> probes{0};
    std::atomic<std::uint64_t> routerSteps{0};
    std::atomic<std::uint64_t> routerNs{0};
    std::atomic<std::uint64_t> busSteps{0};
    std::atomic<std::uint64_t> busNs{0};
};

/**
 * A netsim::Network decorator: forwards every call, counts cycles and
 * injected packets, and times step(). Delivered packets are moved into
 * the decorator's own list, which is the one measureLoadPoint drains.
 */
class CountingNetwork final : public netsim::Network
{
  public:
    CountingNetwork(std::unique_ptr<netsim::Network> inner,
                    NetCounters &counters, bool router, Spans *spans,
                    long parent)
        : inner_(std::move(inner)), counters_(counters), router_(router),
          spans_(spans), parent_(parent), born_(nowNs())
    {
    }

    ~CountingNetwork() override
    {
        counters_.cycles += steps_;
        counters_.packets += packets_;
        (router_ ? counters_.routerSteps : counters_.busSteps) += steps_;
        (router_ ? counters_.routerNs : counters_.busNs) += stepNs_;
        if (spans_ != nullptr)
            spans_->add({router_ ? "netsim.probe.router"
                                 : "netsim.probe.bus",
                         born_, nowNs(), parent_, {}});
    }

    CountingNetwork(const CountingNetwork &) = delete;
    CountingNetwork &operator=(const CountingNetwork &) = delete;

    void
    inject(const netsim::Packet &p) override
    {
        ++packets_;
        inner_->inject(p);
    }

    void
    step() override
    {
        const std::int64_t t0 = nowNs();
        inner_->step();
        stepNs_ += static_cast<std::uint64_t>(nowNs() - t0);
        ++steps_;
        std::vector<netsim::Packet> &d = inner_->delivered();
        if (!d.empty()) {
            delivered_.insert(delivered_.end(), d.begin(), d.end());
            d.clear();
        }
    }

    netsim::Cycle now() const override { return inner_->now(); }
    int nodes() const override { return inner_->nodes(); }
    std::size_t inFlight() const override { return inner_->inFlight(); }

  private:
    std::unique_ptr<netsim::Network> inner_;
    NetCounters &counters_;
    bool router_;
    Spans *spans_;
    long parent_;
    std::int64_t born_;
    std::uint64_t steps_ = 0;
    std::uint64_t packets_ = 0;
    std::uint64_t stepNs_ = 0;
};

/**
 * How many of saturationRate's probes saturated, rebuilt from its
 * result: the first probe sits at @p hi, then each bisection midpoint
 * saturated iff it lies above the returned rate. -1 when the rebuilt
 * probe count disagrees with the @p observed factory calls.
 */
long
saturatedProbes(double result, double hi, double tol,
                std::uint64_t observed)
{
    if (result == hi)
        return observed == 1 ? 0 : -1;
    long sat = 1;
    std::uint64_t probes = 1;
    double lo = 0.0;
    while (hi - lo > tol) {
        const double mid = 0.5 * (lo + hi);
        ++probes;
        if (mid > result) {
            hi = mid;
            ++sat;
        } else {
            lo = mid;
        }
    }
    return probes == observed ? sat : -1;
}

struct NetDesign
{
    std::string label;
    netsim::NetworkFactory factory;
    bool router = false;
    double rateRef = 1.0;
    netsim::TrafficSpec traffic;
};

/**
 * Replay the Fig. 21 calls (zero-load, three load points and a
 * saturation search per 64-core design) through counting factories.
 * --scope small keeps one router and one bus design and a coarse
 * search, for workloads whose own work is elsewhere.
 */
int
cmdNetsim(const Args &a)
{
    const auto seed = static_cast<std::uint64_t>(a.num("seed"));
    const bool small = a.str("scope", "full") == "small";
    const exp::Context ctx{seed};
    const noc::NocDesigner designer{ctx.technology()};
    const netsim::MeasureOpts opts = exp::measureOpts();

    std::vector<NetDesign> designs;
    auto addRouter = [&](const noc::NocConfig &cfg) {
        designs.push_back({cfg.name(), exp::routerFactory(cfg), true,
                           cfg.clockFreq() / 4.0e9,
                           ctx.directoryTraffic()});
    };
    auto addBus = [&](const noc::NocConfig &cfg, int ways,
                      const std::string &label) {
        designs.push_back({label, exp::busFactory(cfg, ways), false,
                           cfg.clockFreq() / 4.0e9, ctx.traffic()});
    };
    if (small) {
        addRouter(designer.mesh(77.0, 3));
        addBus(designer.cryoBus(), 1, "CryoBus");
    } else {
        for (int rc : {1, 3}) {
            addRouter(designer.mesh(77.0, rc));
            addRouter(designer.cmesh(77.0, rc));
            addRouter(designer.flattenedButterfly(77.0, rc));
        }
        addBus(designer.sharedBus77(), 1, "77K Shared bus");
        addBus(designer.cryoBus(), 1, "CryoBus");
        addBus(designer.cryoBus(), 2, "CryoBus (2-way)");
    }
    const std::vector<double> rates =
        small ? std::vector<double>{0.006}
              : std::vector<double>{0.006, 0.012, 0.02};
    const double satTol = small ? 0.02 : 0.002;

    Spans spans;
    NetCounters counters;
    std::atomic<std::uint64_t> knownProbes{0}, saturated{0};
    const std::int64_t t0 = nowNs();
    const long root = spans.add({"netsim.replay", t0, 0, -1, {}});
    ParallelOptions par;
    par.jobs = static_cast<int>(a.num("jobs"));
    par.chunk = 1;
    parallelFor(
        designs.size(),
        [&](std::size_t i) {
            const NetDesign &d = designs[i];
            const long span =
                spans.add({"netsim.design", nowNs(), 0, root, d.label});
            NetCounters mine;
            auto factory = [&]() -> std::unique_ptr<netsim::Network> {
                ++mine.probes;
                return std::make_unique<CountingNetwork>(
                    d.factory(), mine, d.router, &spans, span);
            };
            std::uint64_t sat = 0, known = 0;
            const double zl = netsim::zeroLoadLatency(factory, d.traffic,
                                                      opts);
            ++known;
            sat += zl > opts.saturationLatency ? 1 : 0;
            for (double rate : rates) {
                netsim::TrafficSpec spec = d.traffic;
                spec.injectionRate = rate / d.rateRef;
                sat += netsim::measureLoadPoint(factory, spec, opts)
                           .saturated
                           ? 1
                           : 0;
                ++known;
            }
            const std::uint64_t before = mine.probes.load();
            const double r = netsim::saturationRate(factory, d.traffic,
                                                    0.6, satTol, opts);
            const long s = saturatedProbes(r, 0.6, satTol,
                                           mine.probes.load() - before);
            if (s >= 0) {
                sat += static_cast<std::uint64_t>(s);
                known += mine.probes.load() - before;
            }
            knownProbes += known;
            saturated += sat;
            for (auto [dst, src] :
                 {std::pair{&counters.cycles, &mine.cycles},
                  {&counters.packets, &mine.packets},
                  {&counters.probes, &mine.probes},
                  {&counters.routerSteps, &mine.routerSteps},
                  {&counters.routerNs, &mine.routerNs},
                  {&counters.busSteps, &mine.busSteps},
                  {&counters.busNs, &mine.busNs}})
                *dst += src->load();
            spans.close(span, nowNs());
        },
        par);
    const std::int64_t t1 = nowNs();
    spans.close(root, t1);

    auto ratio = [](std::uint64_t num, std::uint64_t den) {
        return den == 0 ? 0.0
                        : static_cast<double>(num) / static_cast<double>(den);
    };
    std::ostringstream out;
    JsonWriter w{out, 0};
    w.beginObject();
    w.key("wall_s").value(static_cast<double>(t1 - t0) * 1e-9);
    w.key("designs").value(static_cast<std::uint64_t>(designs.size()));
    w.key("cycles").value(counters.cycles.load());
    w.key("packets").value(counters.packets.load());
    w.key("probes").value(counters.probes.load());
    w.key("known_probes").value(knownProbes.load());
    w.key("saturated_share").value(ratio(saturated, knownProbes));
    w.key("router_step_ns")
        .value(ratio(counters.routerNs, counters.routerSteps));
    w.key("bus_step_ns").value(ratio(counters.busNs, counters.busSteps));
    w.key("ns_per_packet")
        .value(ratio(counters.routerNs + counters.busNs, counters.packets));
    spans.write(w);
    w.endObject();
    std::cout << out.str() << "\n";
    return 0;
}

// ------------------------------------------------------------------ dse

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in{path};
    fatalIf(!in, "cannot read " + path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** Seeded distinct sample of @p k indices below @p n. */
std::vector<std::size_t>
sampleIndices(std::uint64_t seed, std::size_t n, std::size_t k)
{
    Rng rng{seed};
    std::set<std::size_t> picked;
    while (picked.size() < std::min(k, n))
        picked.insert(rng.below(n));
    return {picked.begin(), picked.end()};
}

template <typename Fn>
double
timeUs(Fn &&fn)
{
    const std::int64_t t0 = nowNs();
    fn();
    return static_cast<double>(nowNs() - t0) * 1e-3;
}

/** verify: re-evaluate a seeded sample and compare result lines. */
int
cmdDseVerify(const Args &a, const dse::SweepSpec &spec)
{
    const std::vector<std::string> lines = readLines(a.str("out"));
    const dse::PointEvaluator evaluator;
    std::size_t checked = 0, mismatched = 0;
    for (std::size_t i : sampleIndices(
             static_cast<std::uint64_t>(a.num("seed")),
             spec.pointCount(),
             kVerifyPoints)) {
        dse::EvaluatedPoint p;
        p.index = i;
        p.point = spec.point(i);
        p.metrics = evaluator.evaluate(p.point);
        ++checked;
        if (i >= lines.size() || dse::formatResultLine(p) != lines[i])
            ++mismatched;
    }
    std::cout << "{\"points\":" << spec.pointCount()
              << ",\"lines\":" << lines.size() << ",\"checked\":" << checked
              << ",\"mismatched\":" << mismatched << "}\n";
    return 0;
}

/** trace: time each layer the sweep path crosses. */
int
cmdDseTrace(const Args &a)
{
    Spans spans;
    const std::string specPath = a.str("spec");
    const std::string cachePath = a.str("cache");
    const auto seed = static_cast<std::uint64_t>(a.num("seed"));

    auto span = [&spans](const char *name, auto &&fn) {
        const std::int64_t t0 = nowNs();
        fn();
        const std::int64_t t1 = nowNs();
        spans.add({name, t0, t1, -1, {}});
        return static_cast<double>(t1 - t0) * 1e-9;
    };

    std::vector<double> loads;
    std::unique_ptr<dse::SweepSpec> spec;
    for (int k = 0; k < 5; ++k)
        loads.push_back(span("dse.spec_load", [&] {
            spec = std::make_unique<dse::SweepSpec>(
                dse::SweepSpec::load(specPath));
        }));
    std::unique_ptr<dse::ResultCache> cache;
    std::vector<double> opens;
    for (int k = 0; k < 3; ++k)
        opens.push_back(span("dse.cache_open", [&] {
            cache.reset();
            cache = std::make_unique<dse::ResultCache>(cachePath);
        }));

    const std::size_t n = spec->pointCount();
    std::vector<dse::EvaluatedPoint> points(n);
    std::size_t hits = 0;
    const double lookupS = span("dse.lookup", [&] {
        for (std::size_t i = 0; i < n; ++i) {
            points[i].index = i;
            points[i].point = spec->point(i);
            hits += cache->lookup(points[i].point.hashHex(),
                                  &points[i].metrics)
                        ? 1
                        : 0;
        }
    });
    std::size_t bytes = 0;
    const double formatS = span("dse.format", [&] {
        for (const dse::EvaluatedPoint &p : points)
            bytes += dse::formatResultLine(p).size() + 1;
    });
    const double paretoS =
        span("dse.pareto", [&] { (void)dse::paretoFrontier(points); });

    // Model layers on a seeded sample, each piece timed on its own.
    const dse::PointEvaluator evaluator;
    evaluator.evaluate(points[0].point); // technology + baselines
    const std::string storePath = a.str("scratch") + "/store.jsonl";
    std::remove(storePath.c_str());
    dse::ResultCache store{storePath};
    std::vector<double> evalUs, storeUs, buildUs, suiteUs, mcpatUs;
    for (std::size_t i : sampleIndices(seed, n, kTracePoints)) {
        const dse::DesignPoint &p = points[i].point;
        dse::PointMetrics m;
        const std::int64_t t0 = nowNs();
        evalUs.push_back(timeUs([&] { m = evaluator.evaluate(p); }));
        spans.add({"dse.eval", t0, nowNs(), -1, p.hashHex()});
        storeUs.push_back(timeUs([&] { store.store(p.hashHex(), m); }));

        const auto tech = evaluator.technologyFor(p);
        std::unique_ptr<core::SystemBuilder> builder;
        std::optional<sys::SystemDesign> design;
        buildUs.push_back(timeUs([&] {
            builder = std::make_unique<core::SystemBuilder>(
                *tech, p.cores,
                pipeline::Floorplan::skylakeLike().scaled(
                    p.floorplanScale));
            design.emplace(builder->atTemperature(p.tempK));
            design->busWays = p.busWays;
        }));
        const std::vector<sys::Workload> suite = {
            sys::findWorkload(sys::parsec21(), p.workload)};
        suiteUs.push_back(timeUs([&] {
            (void)sys::IntervalSimulator{}.runSuite(*design, suite);
        }));
        const pipeline::CoreConfig base =
            builder->baseline300Mesh().core;
        const power::McpatLite mcpat{*tech, false};
        mcpatUs.push_back(
            timeUs([&] { (void)mcpat.corePower(design->core, base); }));
    }
    std::remove(storePath.c_str());

    std::ostringstream out;
    JsonWriter w{out, 0};
    w.beginObject();
    w.key("points").value(static_cast<std::uint64_t>(n));
    w.key("spec_load_s").value(median(loads));
    w.key("cache_open_s").value(median(opens));
    w.key("quarantined")
        .value(static_cast<std::uint64_t>(cache->quarantinedEntries()));
    w.key("hit_share")
        .value(static_cast<double>(hits) / static_cast<double>(n));
    w.key("lookup_us").value(lookupS * 1e6 / static_cast<double>(n));
    w.key("format_us").value(formatS * 1e6 / static_cast<double>(n));
    w.key("output_mb").value(static_cast<double>(bytes) * 1e-6);
    w.key("pareto_s").value(paretoS);
    w.key("eval_us").value(median(evalUs));
    w.key("store_us").value(median(storeUs));
    w.key("core_build_us").value(median(buildUs));
    w.key("sys_suite_us").value(median(suiteUs));
    w.key("power_mcpat_us").value(median(mcpatUs));
    spans.write(w);
    w.endObject();
    std::cout << out.str() << "\n";
    return 0;
}

int
cmdDse(const Args &a)
{
    if (a.str("mode") == "verify")
        return cmdDseVerify(a, dse::SweepSpec::load(a.str("spec")));
    return cmdDseTrace(a);
}

// ------------------------------------------------------------------ exp

/**
 * Run the named experiments in-process the way cryowire_bench does
 * (one schedulable unit each, records in registry order), with one
 * span per experiment, and write the same results JSON.
 */
int
cmdExp(const Args &a)
{
    const exp::Registry &reg = exp::Registry::builtins();
    std::vector<const exp::Experiment *> selection;
    std::stringstream names{a.str("names")};
    for (std::string name; std::getline(names, name, ',');) {
        const exp::Experiment *e = reg.find(name);
        fatalIf(e == nullptr, "unknown experiment " + name);
        selection.push_back(e);
    }
    const auto seed = static_cast<std::uint64_t>(a.num("seed"));
    std::vector<exp::RunRecord> records(selection.size());
    std::vector<double> seconds(selection.size(), 0.0);
    Spans spans;
    const std::int64_t t0 = nowNs();
    const exp::Context ctx{seed};
    ParallelOptions par;
    par.jobs = static_cast<int>(a.num("jobs"));
    par.chunk = 1;
    parallelFor(
        selection.size(),
        [&](std::size_t i) {
            records[i].experiment = selection[i];
            const std::int64_t s = nowNs();
            try {
                selection[i]->run(ctx, records[i].result);
            } catch (const FatalError &err) {
                records[i].failed = true;
                records[i].error = err.message();
                records[i].errorContext = err.context();
            }
            const std::int64_t e = nowNs();
            seconds[i] = static_cast<double>(e - s) * 1e-9;
            spans.add({"exp.experiment", s, e, -1, selection[i]->name});
        },
        par);
    const std::int64_t t1 = nowNs();

    {
        std::ofstream json{a.str("json")};
        fatalIf(!json, "cannot write " + a.str("json"));
        exp::writeJson(json, records, seed);
    }
    std::ostringstream out;
    JsonWriter w{out, 0};
    w.beginObject();
    w.key("wall_s").value(static_cast<double>(t1 - t0) * 1e-9);
    w.key("seconds").beginObject();
    for (std::size_t i = 0; i < selection.size(); ++i)
        w.key(selection[i]->name).value(seconds[i]);
    w.endObject();
    spans.write(w);
    w.endObject();
    std::cout << out.str() << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fputs("usage: perfbench_probe serve|netsim|dse|exp "
                   "[--key value]...\n",
                   stderr);
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        const Args a{argc, argv};
        if (cmd == "serve")
            return cmdServe(a);
        if (cmd == "netsim")
            return cmdNetsim(a);
        if (cmd == "dse")
            return cmdDse(a);
        if (cmd == "exp")
            return cmdExp(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_probe %s: %s\n", cmd.c_str(),
                     e.what());
        return 1;
    }
    std::fprintf(stderr, "perfbench_probe: unknown command %s\n",
                 cmd.c_str());
    return 2;
}
