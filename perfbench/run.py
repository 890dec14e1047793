#!/usr/bin/env python3
"""CryoWire benchmark: the `figures`, `sweep` and `serve` workloads.

    python3 perfbench/run.py --workload figures|sweep|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the three front ends
(cryowire_bench, cryowire_sweep, cryowire_serve) and the benchmark's
probe from source into .bench_build/, drives them from this one
process, checks every output, and prints one JSON object as the last
line of stdout. Scratch files go to .bench_run/. See perfbench/README.md
for what each workload and metric means.

Every run executes three phases - sweep, serve, suite - so that every
end-to-end metric is measured in every run. The workload's own phase
runs at full size; the other two run as small canaries.

--trace 0 reports the end-to-end metrics; --trace 1 is a separate run
that reports the per-layer metrics, observed from outside through the
probe, and writes the spans to .bench_run/trace-<workload>-<seed>.json.
"""

import argparse
import json
import os
import random
import select
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")
JOBS = 4
NPROC = os.cpu_count() or 1
# fig26 alone takes about 70 s; it runs the same RouterNetwork code as
# fig21/fig25 at 256 nodes, so it adds time but no new layer.
EXCLUDED = {"fig26-hybrid-256core"}
# Nearly all of the figures suite's time (about 28 s and 38 s).
LONG_NETSIM = {"fig21-noc-load-latency", "fig25-traffic-patterns"}
PARSEC = ["blackscholes", "canneal", "dedup", "ferret", "fluidanimate",
          "freqmine", "raytrace", "streamcluster", "swaptions", "x264"]
# Closed-loop serve batches: requests per batch, batches per daemon,
# and daemons in a canary serve phase.
BATCH_REQUESTS = 2000
BATCHES_PER_DAEMON = 10
CANARY_DAEMONS = 4
CHILD_TIMEOUT_S = 150
SETTLE_S = 2.0


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ------------------------------------------------------------ processes

class Proc:
    """A child process whose exit is reaped with its own rusage.

    @p err is a file name, or subprocess.PIPE to read stderr from
    self.p.stderr; a pipe is drained before the exit is reaped.
    """

    def __init__(self, cmd, out=None, err=None):
        self.out = open(out, "wb") if out else subprocess.DEVNULL
        self.err = (err if err == subprocess.PIPE else
                    open(err, "wb") if err else subprocess.DEVNULL)
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(cmd, cwd=ROOT, stdout=self.out,
                                  stderr=self.err)
        self.wall = None
        self.rusage = None
        self.code = None

    def wait(self, timeout=CHILD_TIMEOUT_S):
        timer = threading.Timer(timeout, self.p.kill)
        timer.start()
        try:
            if self.p.stderr:
                self.p.stderr.read()
                self.p.stderr.close()
            _, status, self.rusage = os.wait4(self.p.pid, 0)
        finally:
            timer.cancel()
        self.wall = time.perf_counter() - self.t0
        self.p.returncode = self.code = os.waitstatus_to_exitcode(status)
        for f in (self.out, self.err):
            if f not in (subprocess.DEVNULL, subprocess.PIPE):
                f.close()
        return self

    def kill(self):
        if self.code is None:
            self.p.kill()
            self.wait()

    @property
    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime

    @property
    def rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0  # KiB on Linux


class Run:
    """State of one benchmark run: scratch dir, spans, tallies."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = os.path.join(".bench_run", f"{workload}-{seed}")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.peak_rss_mb = 0.0
        self.spans = []
        self.metrics = {}
        self.setup = None  # times one set-up of the home phase
        self.setups = []

    def setup_tick(self):
        """Take a set-up round, once the home phase has set self.setup.

        setup_s is the median of the rounds, and a round is the fastest
        of three set-ups. On a shared 4-vCPU VM a process runs at one of
        two speeds that switch within a second (the same sweep start-up
        takes 41 or 66 ms, CPU time alike), so a median of single
        set-ups jumps between the two from run to run; the fastest of
        three is rarely the slow one. The sweep and serve loops call
        this between repetitions, so the rounds spread over most of the
        run: the host's speed also drifts by a fifth or more within a
        minute.
        """
        if self.setup:
            self.setups.append(min(self.setup() for _ in range(3)))

    def path(self, name):
        return os.path.join(self.dir, name)

    def run(self, cmd, out=None, err=None, ok_codes=(0,), driven=True):
        """Run @p cmd to completion; @p driven counts it toward the peak
        RSS (the benchmark's own probe is not the program)."""
        p = Proc(cmd, out, err).wait()
        if driven:
            self.peak_rss_mb = max(self.peak_rss_mb, p.rss_mb)
        if p.code not in ok_codes:
            raise BenchError(f"{os.path.basename(cmd[0])} exited {p.code}"
                             f" ({' '.join(cmd[1:4])} ...)")
        return p

    def check(self, ok, what, ops=1):
        """Count @p ops operations; all failed unless @p ok."""
        self.tally(ops, 0 if ok else ops)
        if not ok:
            self.problems.append(what)

    def tally(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed

    def span(self, name, start, end, parent=-1, rid=""):
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": parent, "rid": rid})
        return len(self.spans) - 1

    def adopt_spans(self, probe_spans, parent):
        """Append a probe's spans, re-rooting them under @p parent."""
        base = len(self.spans)
        for s in probe_spans:
            s = dict(s)
            s["parent"] = parent if s["parent"] < 0 else s["parent"] + base
            self.spans.append(s)

    def put(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}


def bin_path(name):
    return os.path.join(BUILD, name)


def probe(run, args, name):
    """Run perfbench_probe and return its JSON document."""
    out = run.path(f"probe-{name}.json")
    run.run([bin_path("perfbench_probe")] + [str(a) for a in args], out=out,
            err=run.path(f"probe-{name}.err"), driven=False)
    with open(out) as f:
        return json.load(f)


def median(values):
    return statistics.median(values)


# ---------------------------------------------------------------- build

def build():
    if not os.path.isdir(os.path.join(ROOT, "src")) or \
            not os.path.isdir(os.path.join(ROOT, "bench")):
        raise BenchError("src/ and bench/ are missing: run from a full "
                         "checkout of the repository")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    log = os.path.join(".bench_build", "build.log")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(ROOT, log), "ab") as f:
        for cmd in (["cmake", "-S", "perfbench", "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + gen,
                    ["cmake", "--build", BUILD, "-j", str(JOBS)]):
            if subprocess.run(cmd, cwd=ROOT, stdout=f,
                              stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build failed; see {log}")


# ---------------------------------------------------------------- suite

def list_experiments(run):
    """(name, tags) of every registered experiment, registry order."""
    out = run.path("list.txt")
    p = run.run([bin_path("cryowire_bench"), "--list"], out=out)
    rows = []
    with open(out) as f:
        for line in f:
            cells = [c.strip() for c in line.split("|")]
            if len(cells) > 3 and cells[1] and cells[1] != "name":
                rows.append((cells[1], cells[2].split(",")))
    if not rows:
        raise BenchError("cryowire_bench --list printed no experiments")
    return rows, p.wall


def suite_selection(rows, full):
    """Full: every experiment but fig26. Canary: the `smoke` subset."""
    if full:
        return [n for n, _ in rows if n not in EXCLUDED]
    return [n for n, tags in rows if "smoke" in tags]


def anchor_stats(doc):
    """(mean |measured - paper| / paper, anchors missed, covered)."""
    errs, miss, total = [], 0, 0
    for e in doc["experiments"]:
        for m in e.get("metrics", []):
            if m.get("anchor") is None:
                continue
            total += 1
            miss += 0 if m.get("pass") else 1
            if m["anchor"] != 0:
                errs.append(abs(m["value"] - m["anchor"]) / abs(m["anchor"]))
    return (sum(errs) / len(errs) if errs else 0.0), miss, total


def experiment_entries(path):
    with open(path) as f:
        doc = json.load(f)
    return doc, {e["name"]: json.dumps(e, sort_keys=True)
                 for e in doc["experiments"]}


def suite_phase(run, full):
    """Run the suite through cryowire_bench; check it repeats exactly."""
    rows, _ = list_experiments(run)
    names = suite_selection(rows, full)
    t0 = time.monotonic_ns()
    json_path = run.path("suite.json")
    # Exit 1 means an anchor missed or an experiment failed; both are
    # read from the JSON below, so they do not stop the benchmark.
    p = run.run([bin_path("cryowire_bench"), "--filter", ",".join(names),
                 "--jobs", str(JOBS), "--quiet", "--seed", str(run.seed),
                 "--json", json_path], out=run.path("suite.txt"),
                ok_codes=(0, 1))
    run.span("suite", t0, time.monotonic_ns())
    doc, entries = experiment_entries(json_path)
    for e in doc["experiments"]:
        run.check(e.get("status") == "ok", f"experiment {e['name']} failed")
    run.check(len(entries) == len(names), "suite skipped experiments")

    # Repeat check: the run's experiments again, serially, must
    # reproduce their entries of the parallel run exactly. fig21 and
    # fig25 are left out: together they would add about 38 s to every
    # figures run. The traced run compares the whole suite's JSON.
    repeated = [n for n in names if n not in LONG_NETSIM]
    again = run.path("suite-repeat.json")
    run.run([bin_path("cryowire_bench"), "--filter", ",".join(repeated),
             "--jobs", "1", "--quiet", "--seed", str(run.seed),
             "--json", again], out=run.path("suite-repeat.txt"),
            ok_codes=(0, 1))
    _, repeat = experiment_entries(again)
    run.check(all(repeat[n] == entries.get(n) for n in repeated),
              "suite results differ between repeats of one seed")
    err, miss, covered = anchor_stats(doc)
    return {"wall_s": p.wall, "cpu_s": p.cpu_s, "anchor_err": err,
            "anchor_miss": miss, "anchors": covered, "names": names,
            "json": json_path}


# ---------------------------------------------------------------- sweep

def write_spec(run):
    """A seeded 10,000-point grid shaped like dse_grid_10k.json.

    Each axis value is drawn inside its own equal slice of the range,
    so every seed covers the range evenly and does similar work.
    """
    rng = random.Random(f"sweep-{run.seed}")
    temps = [round(77.0 + (i + rng.random()) * 223.0 / 125, 3)
             for i in range(125)]
    scales = [round(0.85 + (j + rng.random()) * 0.45 / 4, 3)
              for j in range(4)]
    workloads = PARSEC[:]
    rng.shuffle(workloads)
    spec = {"name": f"perfbench-sweep-{run.seed}",
            "base": {"design": "cryosp-cryobus77", "suite": "parsec21"},
            "axes": [{"field": "tempK", "values": temps},
                     {"field": "workload", "values": workloads},
                     {"field": "busWays", "values": [1, 2]},
                     {"field": "floorplanScale", "values": scales}]}
    path = run.path("spec.json")
    with open(path, "w") as f:
        json.dump(spec, f, indent=1)
    return path


def sweep_stats(err_path):
    """(cache hits, evaluated) from cryowire_sweep's stats line."""
    with open(err_path) as f:
        for line in f:
            if "cache hit(s)" in line:
                tail = line.split("),", 1)[1].split(",")
                return int(tail[0].split()[0]), int(tail[1].split()[0])
    raise BenchError("cryowire_sweep printed no stats line")


def sweep_once(run, spec, cache, out, pareto=None, shard=None):
    cmd = [bin_path("cryowire_sweep"), "--spec", spec, "--cache", cache,
           "--out", out, "--jobs", str(JOBS)]
    if pareto:
        cmd += ["--pareto", pareto]
    if shard:
        cmd += ["--shard", shard]
    err = out + ".err"
    p = run.run(cmd, err=err)
    return p, sweep_stats(err)


def file_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def sweep_phase(run, full):
    """Cold sweeps on a fresh cache, each followed by a resume on the
    full cache.

    Host noise here comes in bursts shorter than one sweep, so the
    fastest of several repetitions is what repeats from run to run (the
    micro-benchmarks in bench/ take the minimum for the same reason).
    """
    spec = write_spec(run)
    points = 10000
    colds, resumes, cpus, reference = [], [], [], None
    deadline = time.monotonic() + run.seconds
    cache = run.path("sweep.cache")
    cold_out, resume_out = run.path("cold.jsonl"), run.path("resume.jsonl")
    while True:
        for stale in (cache, cache + ".quarantine"):
            if os.path.exists(stale):
                os.remove(stale)
        t0 = time.monotonic_ns()
        p, (hits, evaluated) = sweep_once(run, spec, cache, cold_out,
                                          pareto=run.path("pareto.csv"))
        run.span("sweep.cold", t0, time.monotonic_ns())
        run.check(evaluated == points and hits == 0,
                  f"cold sweep: {evaluated} evaluated, {hits} hits",
                  ops=points)
        colds.append(p.wall)
        cpus.append(p.cpu_s)
        cold = file_bytes(cold_out)
        if reference is None:
            reference = cold
        run.check(cold == reference, "cold sweep output changed between reps")
        t0 = time.monotonic_ns()
        r, (hits, evaluated) = sweep_once(run, spec, cache, resume_out)
        run.span("sweep.resume", t0, time.monotonic_ns())
        run.check(hits == points and evaluated == 0,
                  f"resume: {hits} hits, {evaluated} evaluated", ops=points)
        run.check(cold == file_bytes(resume_out),
                  "resume output differs from the cold output")
        resumes.append(r.wall)
        # Set-up: spec parsed and the full cache opened - a one-point
        # shard on the full cache is start-up plus one lookup. The cache
        # is full from here on.
        if full and not run.setup:
            run.setup = lambda: sweep_once(
                run, spec, cache, run.path("setup.jsonl"),
                shard=f"0/{points}")[0].wall
        run.setup_tick()
        # A traced run only needs the full cache and a resume.
        if len(colds) >= (3 if run.trace else 10) and (
                not full or time.monotonic() > deadline):
            break

    v = probe(run, ["dse", "--mode", "verify", "--spec", spec,
                    "--out", cold_out, "--seed", run.seed],
              "dse-verify")
    run.check(v["lines"] == points and v["mismatched"] == 0,
              f"sweep sample: {v['mismatched']} of {v['checked']} points "
              "differ from direct evaluation", ops=v["checked"])
    fastest = colds.index(min(colds))
    return {"wall_s": colds[fastest], "cpu_s": cpus[fastest],
            "resume_s": min(resumes), "spec": spec,
            "cache": cache, "evals": points}


# ---------------------------------------------------------------- serve

def ping(sock_path, deadline):
    """Connect and ping until the daemon answers; False on deadline."""
    while time.monotonic() < deadline:
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.connect(sock_path)
                s.sendall(b'{"id":"p","op":"ping"}\n')
                reply = b""
                while not reply.endswith(b"\n"):
                    chunk = s.recv(4096)
                    if not chunk:
                        break
                    reply += chunk
                if b'"status":"ok"' in reply:
                    return True
        except OSError:
            time.sleep(0.0005)
    return False


def shutdown(sock_path):
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.connect(sock_path)
            s.sendall(b'{"id":"down","op":"shutdown"}\n')
            s.recv(4096)
    except OSError:
        pass


class Daemon:
    """cryowire_serve on a fresh socket and persistent cache file."""

    def __init__(self, run, tag):
        self.run = run
        self.sock = run.path(f"{tag}.sock")
        self.cache = run.path(f"{tag}.cache")
        for stale in (self.sock, self.cache):
            if os.path.exists(stale):
                os.remove(stale)
        self.t0 = time.perf_counter()
        # Without --quiet the daemon prints one line once it listens.
        # Blocking on that line, rather than polling the socket, keeps
        # the client off the CPU while the daemon starts.
        self.proc = Proc([bin_path("cryowire_serve"), "--socket", self.sock,
                          "--cache", self.cache], err=subprocess.PIPE)
        err = self.proc.p.stderr
        if not select.select([err], [], [], 30)[0] or \
                b"listening" not in err.readline() or \
                not ping(self.sock, time.monotonic() + 30):
            self.proc.kill()
            raise BenchError("cryowire_serve never answered a ping")
        self.ready_s = time.perf_counter() - self.t0

    def stop(self):
        shutdown(self.sock)
        self.proc.wait(timeout=30)
        self.run.peak_rss_mb = max(self.run.peak_rss_mb, self.proc.rss_mb)
        if self.proc.code != 0:
            raise BenchError(f"cryowire_serve exited {self.proc.code}")
        return self.proc


def daemon_ready_s(run):
    """Seconds from spawning a daemon until its first ping reply."""
    d = Daemon(run, "setup")
    d.stop()
    return d.ready_s


def serve_session(run, tag, args):
    """One daemon, one probe session; returns (probe result, daemon)."""
    d = Daemon(run, tag)
    t0 = time.monotonic_ns()
    try:
        s = probe(run, ["serve", "--socket", d.sock, "--seed", run.seed,
                        "--daemon-pid", d.proc.p.pid,
                        "--trace", int(run.trace)] + args, tag)
    finally:
        proc = d.stop()
    run.adopt_spans(s.pop("spans", []),
                    run.span(f"serve.{tag}", t0, time.monotonic_ns()))
    # Shed requests are typed replies under overload: failed, but not
    # wrong. Lost, duplicated or mismatched replies are wrong.
    run.tally(s["attempted"], s["shed"])
    run.check(s["broken"] == 0, f"serve {tag}: {s['broken']} requests "
              "lost, duplicated, rejected or mismatched", ops=0)
    run.tally(0, s["broken"])
    return s, proc


def serve_phase(run, full, open_loop):
    """Closed-loop batches for the daemon's CPU per request, and (when
    @p open_loop) the open-loop fixed rates.

    The CPU figure is the median over many short batches (about 90
    when full, 40 in a canary). Each batch's CPU on a shared VM
    scatters by a fifth either way, and the host's speed drifts over
    seconds, so the least of a few long batches lands wherever the
    drift is; the median of many spread over the phase repeats from run
    to run. Every daemon serves the same number of batches, so the work
    each does, and its RSS, is fixed.
    """
    cpu_us, daemons = [], 0
    deadline = time.monotonic() + run.seconds
    while not run.trace and (daemons < CANARY_DAEMONS or (
            full and time.monotonic() < deadline)):
        run.setup_tick()
        b, _ = serve_session(run, "batch", [
            "--windows", 0, "--batch", BATCH_REQUESTS,
            "--batches", BATCHES_PER_DAEMON])
        cpu_us += b["batch_cpu_us"]
        daemons += 1
    if daemons and not cpu_us:
        raise BenchError("no batch kept the daemon's threads unchanged")
    out = {"cpu_us": median(cpu_us) if cpu_us else 0.0}
    if open_loop:
        s, proc = serve_session(run, "open", [
            "--windows", 4 if run.trace else 1,
            "--capacity", int(run.trace)])
        s["daemon_cpu_s"], s["daemon_wall_s"] = proc.cpu_s, proc.wall
        out.update(s)
    return out


# ------------------------------------------------------------- workloads

def end_to_end(run):
    home = run.workload
    # The short phases go first, after a pause: the host runs slower
    # for a while after a burst of full load such as the suite or the
    # previous run.
    time.sleep(SETTLE_S)
    # The home phase's set-up, for Run.setup_tick: figures, from
    # cryowire_bench start until its registry is built and listed;
    # serve, from daemon spawn until the first ping reply. The sweep
    # phase sets its own once its cache is full.
    run.setup = {"figures": lambda: list_experiments(run)[1],
                 "serve": lambda: daemon_ready_s(run)}.get(home)
    sweep = sweep_phase(run, home == "sweep")
    serve = serve_phase(run, home == "serve", open_loop=home == "serve")
    suite = suite_phase(run, home == "figures")
    run.put("setup_s", median(run.setups), "s")
    run.put("wall_s", suite["wall_s"] if home == "figures"
            else sweep["wall_s"], "s")
    run.put("serve_cpu_us", serve["cpu_us"], "us")
    run.put("ok_share", 1.0 - run.failed / run.attempted, "ratio")
    run.put("peak_rss_mb", run.peak_rss_mb, "MB")
    run.put("anchor_err", suite["anchor_err"], "ratio")
    notes = {"resume_s (unbounded)": sweep["resume_s"],
             "anchors_missed": suite["anchor_miss"],
             "anchors_covered": suite["anchors"],
             "fail_share": run.failed / run.attempted}
    for tag in ("low", "mid", "high"):
        if tag in serve.get("phases", {}):
            ph = serve["phases"][tag]
            notes[f"p50_ms.{tag} (unbounded)"] = ph["p50_ms"]
            notes[f"p99_ms.{tag} (unbounded)"] = ph["p99_ms"]
    return notes


def self_times(spans):
    """Per span name: total duration minus the part children cover."""
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s["parent"], []).append(i)
    out = {}
    for i, s in enumerate(spans):
        covered, cursor = 0, s["start"]
        for c in sorted(children.get(i, []), key=lambda c: spans[c]["start"]):
            lo = max(spans[c]["start"], cursor)
            hi = min(spans[c]["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["name"]] = out.get(s["name"], 0) + (s["end"] - s["start"]
                                                   - covered)
    return {k: v * 1e-9 for k, v in sorted(out.items())}


def traced(run):
    """Per-layer metrics; the home phase sets util.* and the overhead."""
    home = run.workload
    # The suite through cryowire_bench at the workload's size, then the
    # same selection in-process with spans: the pair gives the tracing
    # overhead and a byte-identity check. The exp.* figures need the
    # full suite, which other workloads run in-process only.
    suite = suite_phase(run, home == "figures")
    t0 = time.monotonic_ns()
    e = probe(run, ["exp", "--names", ",".join(suite["names"]),
                    "--seed", run.seed, "--jobs", JOBS,
                    "--json", run.path("suite-traced.json")], "exp")
    run.adopt_spans(e.pop("spans"),
                    run.span("exp.suite", t0, time.monotonic_ns()))
    run.check(file_bytes(run.path("suite-traced.json"))
              == file_bytes(suite["json"]),
              "in-process suite JSON differs from cryowire_bench's")
    overhead = e["wall_s"] / suite["wall_s"] - 1.0
    if home != "figures":
        rows, _ = list_experiments(run)
        t0 = time.monotonic_ns()
        e = probe(run, ["exp", "--names",
                        ",".join(suite_selection(rows, True)),
                        "--seed", run.seed, "--jobs", JOBS,
                        "--json", run.path("suite-full.json")], "exp-full")
        run.adopt_spans(e.pop("spans"),
                        run.span("exp.suite", t0, time.monotonic_ns()))
    secs = e["seconds"]
    netsim_names = {"fig18-bus-load-latency", "fig21-noc-load-latency",
                    "fig25-traffic-patterns"}
    run.put("exp.fig18_s", secs["fig18-bus-load-latency"], "s")
    run.put("exp.fig21_s", secs["fig21-noc-load-latency"], "s")
    run.put("exp.fig25_s", secs["fig25-traffic-patterns"], "s")
    run.put("exp.models_s", sum(v for k, v in secs.items()
                                if k not in netsim_names), "s")
    run.put("exp.critical_path_share", max(secs.values()) / e["wall_s"],
            "ratio")
    with open(run.path("suite-full.json" if home != "figures"
                       else "suite-traced.json")) as f:
        run.put("exp.anchor_miss", anchor_stats(json.load(f))[1], "count")

    t0 = time.monotonic_ns()
    n = probe(run, ["netsim", "--seed", run.seed, "--jobs", JOBS,
                    "--scope", "full" if home == "figures" else "small"],
              "netsim")
    run.adopt_spans(n.pop("spans"), run.span("netsim.replay.run", t0,
                                             time.monotonic_ns()))
    for k, unit in (("cycles", "count"), ("packets", "count"),
                    ("probes", "count"), ("saturated_share", "ratio"),
                    ("router_step_ns", "ns"), ("bus_step_ns", "ns"),
                    ("ns_per_packet", "ns")):
        run.put(f"netsim.{k}", n[k], unit)

    sweep = sweep_phase(run, False)
    t0 = time.monotonic_ns()
    d = probe(run, ["dse", "--mode", "trace", "--spec", sweep["spec"],
                    "--cache", sweep["cache"], "--scratch", run.dir,
                    "--seed", run.seed], "dse")
    run.adopt_spans(d.pop("spans"), run.span("dse.trace", t0,
                                             time.monotonic_ns()))
    for k, unit in (("spec_load_s", "s"), ("cache_open_s", "s"),
                    ("eval_us", "us"), ("store_us", "us"),
                    ("format_us", "us"), ("output_mb", "MB"),
                    ("pareto_s", "s"), ("lookup_us", "us"),
                    ("hit_share", "ratio"), ("quarantined", "count")):
        run.put(f"dse.{k}", d[k], unit)
    run.put("dse.evals", sweep["evals"], "count")
    run.put("resume_s", sweep["resume_s"], "s")
    run.put("core.build_us", d["core_build_us"], "us")
    run.put("sys.suite_us", d["sys_suite_us"], "us")
    run.put("power.mcpat_us", d["power_mcpat_us"], "us")

    serve = serve_phase(run, False, open_loop=True)
    for tag in ("low", "mid", "high"):
        ph = serve["phases"][tag]
        run.put(f"p50_ms.{tag}", ph["p50_ms"], "ms")
        run.put(f"p99_ms.{tag}", ph["p99_ms"], "ms")
    run.put("capacity_rps", serve["capacity_rps"], "req/s")
    run.put("svc.server_p50_us", serve["server_p50_us"], "us")
    run.put("svc.server_p99_us", serve["server_p99_us"], "us")
    run.put("svc.transport_p50_us", serve["transport_p50_us"], "us")
    run.put("svc.hit_share", serve["hit_share"], "ratio")
    run.put("svc.dedupe_share", serve["dedupe_share"], "ratio")
    st = serve["stats"]
    for k in ("evaluated", "overloaded", "expired", "queued_peak",
              "inflight_peak"):
        run.put(f"svc.{k}", st[k], "count")
    run.put("svc.admission_limit", st["admission_limit"], "count")
    run.put("gen.lag_p99_ms", serve["lag_p99_ms"], "ms")

    cpu, wall = {"figures": (suite["cpu_s"], suite["wall_s"]),
                 "sweep": (sweep["cpu_s"], sweep["wall_s"]),
                 "serve": (serve["daemon_cpu_s"],
                           serve["daemon_wall_s"])}[home]
    run.put("util.cpu_s", cpu, "s")
    run.put("util.cpu_util", cpu / (wall * NPROC), "ratio")
    run.put("trace.overhead_share", overhead, "ratio")

    sidecar = os.path.join(".bench_run",
                           f"trace-{run.workload}-{run.seed}.json")
    with open(sidecar, "w") as f:
        json.dump({"workload": run.workload, "seed": run.seed,
                   "self_s": self_times(run.spans), "spans": run.spans}, f)
    return {"sidecar": sidecar}


# ----------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["figures", "sweep", "serve"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    os.chdir(ROOT)
    try:
        build()
        run = Run(a.workload, a.seed, a.seconds, bool(a.trace))
        shutil.rmtree(run.dir, ignore_errors=True)
        os.makedirs(run.dir)
        notes = traced(run) if run.trace else end_to_end(run)
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    shutil.rmtree(run.dir, ignore_errors=True)
    for name, m in run.metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    for k, v in notes.items():
        print(f"{k:28s} {v}")
    for p in run.problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": not run.problems,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": run.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
