#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the SPLLIFT workspace.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --pin          # re-pin the expected outputs (pins.json)
    python3 perfbench/test_stats.py         # self-test of the statistics code

Run from the repository root. The script builds the release
`spllift-cli` and the worker package in this directory (into
$CARGO_TARGET_DIR, default `.bench_build`), runs one workload, and
prints as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`. `--trace 0` gives the end-to-end metrics
(setup_s, ops_per_s, p50_ms, peak_rss_mb); `--trace 1` gives the
per-layer metrics of a separate traced run. The lines before it name
the machine, the tail percentile where one is valid, and any failure.

Workloads (why each was chosen is in BENCHMARK.json):

* cli-table      closed loop, one child at a time, of `spllift-cli
                 gen:{MM08,GPL,Lampiro} --analysis {taint,reaching-defs}`
                 (table format) and `gen:BerkeleyDB --format leaks`;
                 stdout byte count and SHA-256 are pinned, and the traced
                 replay's solution digests must equal the `results_digest`
                 values committed in BENCH_solver.json.
* server-session `spllift-cli serve --listen 127.0.0.1:0` with default
                 flags; two client threads, one connection each, closed
                 loop, over two sessions each of MM08, GPL and Lampiro.
* datalog-reach  `spllift_datalog::solve_reaching_defs` on MM08 and GPL,
                 each solve in a fresh worker process that generates
                 its subject; facts must match the IDE lifting computed
                 in set-up.

The seed picks the order of operations within each round and, for the
server, the statements queried and the method edited. Every operation's
output is checked; an operation that errors, is refused, times out or
gives a wrong result counts as failed.

End-to-end metrics. A pass repeats rounds, each the same fixed list of
operations, until --seconds of operation time have passed and at least
three rounds have run.
* setup_s      median set-up time, measured twice before every round.
               cli-table: in process, what each CLI child does before
               it solves (`spllift-cli`'s load of a `gen:` input:
               generate, feature model, valid configurations up to 20
               features; then the ICFG), for all four subjects.
               datalog-reach: generating, parsing back and building the
               ICFG of MM08 and GPL, plus the IDE reference solves.
               server-session: spawn until listening plus the `load` of
               every session, five times.
* ops_per_s    correct operations of a round over its operation time,
               median over the rounds; the server's two client lanes
               add.
* p50_ms       median latency over every operation of the pass. The
               p90 is printed above the result line, with the sample
               count, only where at least 10 samples lie beyond it.
* peak_rss_mb  peak RSS of the process doing the work: the largest CLI
               child or worker process, or the server.

Per-layer metrics come from the traced run: self time per span name
(`*_ms`), exact work counts, `proc.cpu_s` of the working processes,
`trace.coverage` (layer self time over operation wall time: for
cli-table the CLI children, for server-session the socket latencies)
and `trace.overhead` (traced over untraced in-process wall, minus one).
`server.<kind>_ms` is the median socket latency of that request kind;
`server.transport_ms` is socket latency minus `handle_line` time over
the same requests (one round of each lane; the set-up loads are left
out of both). A layer a workload does not reach reports 0. The server's
query answers are checked against an in-process server given the same
requests.

Machine-time noise on small shared hosts moves a single solve by 30% or
more between moments a few seconds apart, so timed work runs in fresh
processes, set-up is repeated across the pass, and the traced run's
work counts (which repeat exactly for a seed) carry the per-layer story.
A workload over the paper's whole Table 2 (4 subjects x 4 analyses, one
solve per fresh process) was tried and left out: one round takes 8 s,
6 of them in BerkeleyDB U. Var., and its figures moved by 20-40% between
runs on a 2-CPU host. Its layers (generation, ICFG, IDE solve, BDD
store) are traced in the cli-table replay, and parsing in the
datalog-reach set-up (the CLI never parses a `gen:` input).

Known defects left out of the workloads (the ROADMAP's bounded-rendering
item adds them back as its own benchmark change):

* `spllift-cli gen:BerkeleyDB` in the default table format was SIGKILLed
  after about 7 minutes (its solve takes 0.48 s; rendering every cube
  is exponential), so BerkeleyDB runs only with `--format leaks`.
* a server `analyze` of BerkeleyDB does not finish in reasonable time:
  `types` took 130 s and 10 GB RSS, `taint` ran for more than 3 min,
  so the server sessions use MM08, GPL and Lampiro.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import socket
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
CLI = os.path.join(BUILD, "release", "spllift-cli")
WORKER = os.path.join(BUILD, "release", "spllift-perfbench")
PINS = os.path.join(HERE, "pins.json")
REFS = os.path.join(ROOT, "BENCH_solver.json")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_OP = 2**64 - 1  # operation id of set-up spans (trace.rs)

WORKLOADS = ("cli-table", "server-session", "datalog-reach")
SETUPS = 5  # server set-ups per run; the median is reported
# Rounds per pass at least, so that the median round rate sets a round
# slowed by a stall on the host aside.
MIN_ROUNDS = 3
OP_TIMEOUT_S = 150
CLI_OPS = [
    ["gen:%s" % s, "--analysis", a]
    for s in ("MM08", "GPL", "Lampiro")
    for a in ("taint", "reaching-defs")
] + [["gen:BerkeleyDB", "--format", "leaks"]]
# MM08 (about 0.8 s) four times per GPL (about 4.5 s), so the median
# operation falls well inside the MM08 solves rather than at their edge.
DATALOG_ROUND = ["MM08"] * 4 + ["GPL"]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "spllift-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ):
        env = dict(os.environ, CARGO_TARGET_DIR=BUILD)
        try:
            r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError("build failed: %s" % e)
        if r.returncode != 0:
            raise BenchError("build failed: %s" % " ".join(cmd))


def spawn(args, stdout=subprocess.PIPE, **kw):
    return subprocess.Popen(args, stdout=stdout, stdin=subprocess.DEVNULL, cwd=ROOT, **kw)


def reap(proc, timeout_s):
    """Waits for `proc` with a deadline (killing it past the deadline);
    returns (exit status, peak RSS KiB, CPU seconds, timed out). Linux
    carries the spawning process's RSS across exec into the child's
    peak, so this process keeps its own small (it streams, never
    holds, large outputs)."""
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        timed_out = not timer.is_alive()
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, ru.ru_maxrss, ru.ru_utime + ru.ru_stime, timed_out


def run_cli(args):
    """One `spllift-cli` child, its stdout redirected to a file as in
    `spllift-cli ... > out.txt`: the child never waits for a reader, and
    the output is hashed after it exits, outside the timed region."""
    path = os.path.join(out_dir(), "cli-stdout.txt")
    with open(path, "wb") as out:
        t = time.perf_counter()
        proc = spawn([CLI] + args, stdout=out)
        rc, rss_kb, cpu, timed_out = reap(proc, OP_TIMEOUT_S)
        ms = (time.perf_counter() - t) * 1e3
    h, n = hashlib.sha256(), 0
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
            n += len(chunk)
    os.remove(path)
    error = None
    if timed_out or rc != 0:
        error = "%s: exit %s%s" % (" ".join(args), rc, " (timed out)" if timed_out else "")
    return ms, n, h.hexdigest(), rss_kb, cpu, error


def worker(args, timeout_s=OP_TIMEOUT_S):
    """Runs the worker binary; returns (its JSON report, peak RSS KiB,
    CPU seconds)."""
    proc = spawn([WORKER] + args)
    out = []
    reader = threading.Thread(target=lambda: out.append(proc.stdout.read()))
    reader.start()
    rc, rss_kb, cpu, timed_out = reap(proc, timeout_s)
    reader.join()
    if timed_out or rc != 0:
        raise BenchError("worker %s failed (exit %s%s)" % (
            " ".join(args[:3]), rc, ", timed out" if timed_out else ""))
    try:
        return json.loads(out[0].decode().strip().splitlines()[-1]), rss_kb, cpu
    except (ValueError, IndexError) as e:
        raise BenchError("worker %s printed no result: %s" % (" ".join(args[:3]), e))


def worker_op(res, kind, args):
    """One operation in a fresh worker process. A worker that crashes or
    times out is a failed operation, not a failed run."""
    t = time.perf_counter()
    try:
        report, rss_kb, _ = worker(["op"] + args)
    except BenchError as e:
        return [(kind, (time.perf_counter() - t) * 1e3, str(e))]
    res.rss_kb = max(res.rss_kb, rss_kb)
    return [tuple(op) for op in report["ops"]]


def load_pins():
    try:
        with open(PINS) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read %s: %s" % (PINS, e))


class Result:
    """Operations of one pass and the figures around them."""

    def __init__(self):
        self.setup_s = []
        self.ops = []  # (kind, ms, error or None)
        self.rounds = []  # (client lane, correct operations, seconds)
        self.rss_kb = 0
        self.layers = {}
        self.notes = []

    def add_ops(self, ops):
        self.ops.extend((k, ms, err) for k, ms, err in ops)

    @property
    def busy_s(self):
        return sum(r[-1] for r in self.rounds)

    def add_round(self, ops):
        ok = sum(1 for _, _, e in ops if e is None)
        self.rounds.append((0, ok, sum(ms for _, ms, _ in ops) / 1e3))
        self.ops.extend(ops)

    @property
    def failed(self):
        return sum(1 for _, _, e in self.ops if e is not None)


def seeded(seed, *salt):
    return random.Random("%d/%s" % (seed, "/".join(map(str, salt))))


def setup_runs(res, workload):
    """Runs the in-process set-up worker (which repeats its set-up, so
    that the set-ups of one run spread over the whole pass); returns the
    IDE reference digests it reports."""
    report, _, _ = worker(["setup", "--workload", workload])
    res.setup_s += report["setup_s"]
    return report["digests"]


# ----------------------------------------------------------------- cli-table

def cli_op(args, pins):
    """Runs one pinned CLI command: (kind, ms, error, peak RSS KiB, CPU s)."""
    ms, n, sha, rss_kb, cpu, error = run_cli(args)
    pin = pins.get(tuple(args))
    if error is None and (pin is None or (n, sha) != (pin["bytes"], pin["sha256"])):
        error = "%s: stdout %d bytes %s, pinned %s" % (
            " ".join(args), n, sha[:16], pin and (pin["bytes"], pin["sha256"][:16]))
    return " ".join(args), ms, error, rss_kb, cpu


def cli_pins():
    return {tuple(p["args"]): p for p in load_pins()["cli"]}


def cli_table(seed, seconds):
    pins = cli_pins()
    res = Result()
    rnd = 0
    while res.busy_s < seconds or len(res.rounds) < MIN_ROUNDS:
        # Each CLI child prepares its own input; the set-up is that
        # preparation in process (load as the CLI does, then the ICFG).
        setup_runs(res, "cli-table")
        order = list(CLI_OPS)
        seeded(seed, "cli", rnd).shuffle(order)
        ops = []
        for args in order:
            kind, ms, error, rss_kb, _ = cli_op(args, pins)
            ops.append((kind, ms, error))
            res.rss_kb = max(res.rss_kb, rss_kb)
        res.add_round(ops)
        rnd += 1
    return res


def cli_table_trace(seed):
    res = Result()
    pins = cli_pins()
    cpu_s, wall_ms = 0.0, 0.0
    for args in CLI_OPS:
        kind, ms, error, _, cpu = cli_op(args, pins)
        res.ops.append((kind, ms, error))
        cpu_s += cpu
        wall_ms += ms
    path = trace_path("cli-table")
    report, _, _ = worker(["trace", "--workload", "cli-table", "--trace", path, "--seed",
                           str(seed), "--pins", PINS, "--refs", REFS], timeout_s=600)
    res.add_ops(report["ops"])
    layer_metrics(res, report, path, wall_ms, cpu_s)
    return res


# ------------------------------------------------------------ in-process traces

def in_process_trace(workload, seed, extra):
    res = Result()
    path = trace_path(workload)
    report, _, cpu = worker(["trace", "--workload", workload, "--trace", path,
                             "--seed", str(seed)] + extra, timeout_s=600)
    res.add_ops(report["ops"])
    wall_ms = sum(ms for _, ms, _ in report["ops"])
    layer_metrics(res, report, path, wall_ms, cpu)
    return res


# ------------------------------------------------------------ datalog-reach

def datalog_reach(seed, seconds):
    res = Result()
    rnd = 0
    while res.busy_s < seconds or len(res.rounds) < MIN_ROUNDS:
        want = setup_runs(res, "datalog-reach")
        order = list(DATALOG_ROUND)
        seeded(seed, "datalog", rnd).shuffle(order)
        ops = []
        for subject in order:
            ops.extend(worker_op(res, subject, ["--workload", "datalog-reach",
                                                "--subject", subject, "--want", want[subject]]))
        res.add_round(ops)
        rnd += 1
    return res


# ----------------------------------------------------------- server-session

class ServerProc:
    """A `spllift-cli serve --listen 127.0.0.1:0` child."""

    def __init__(self):
        t = time.perf_counter()
        self.proc = spawn([CLI, "serve", "--listen", "127.0.0.1:0"],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        line = []
        reader = threading.Thread(target=lambda: line.append(self.proc.stderr.readline()))
        reader.start()
        reader.join(30)
        if not line or b"listening on" not in line[0]:
            self.proc.kill()
            self.proc.wait()
            raise BenchError("server did not start listening")
        self.listen_s = time.perf_counter() - t
        self.addr = line[0].decode().strip().rsplit(" ", 1)[1]
        # Keep draining stderr so the server never blocks on it.
        self.drain = threading.Thread(target=self.proc.stderr.read)
        self.drain.start()

    def usage(self):
        """(peak RSS KiB, CPU seconds) so far, from /proc."""
        with open("/proc/%d/status" % self.proc.pid) as f:
            rss_kb = stats.parse_status_kb(f.read(), "VmHWM")
        with open("/proc/%d/stat" % self.proc.pid) as f:
            cpu = stats.parse_stat_cpu_s(f.read(), os.sysconf("SC_CLK_TCK"))
        return rss_kb, cpu

    def stop(self):
        host, port = self.addr.rsplit(":", 1)
        try:
            with socket.create_connection((host, int(port)), timeout=30) as s:
                s.sendall(b'{"type":"shutdown"}\n')
                s.makefile().readline()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.drain.join()
        if self.proc.returncode != 0:
            raise BenchError("server exited with %s" % self.proc.returncode)


def server_pass(seed, extra):
    """Starts a server, runs the client worker against it, returns
    (client report, server peak RSS KiB, server CPU s, listen seconds)."""
    srv = ServerProc()
    try:
        report, _, _ = worker(["server-client", "--addr", srv.addr, "--seed", str(seed),
                               "--pins", PINS] + extra, timeout_s=600)
        rss_kb, cpu = srv.usage()
    finally:
        srv.stop()
    return report, rss_kb, cpu, srv.listen_s


def server_session(seed, seconds):
    res = Result()
    for _ in range(SETUPS - 1):
        report, _, _, listen_s = server_pass(seed, ["--load-only"])
        res.setup_s.append(listen_s + report["setup_s"][0])
    report, res.rss_kb, _, listen_s = server_pass(seed, ["--seconds", str(seconds)])
    res.setup_s.append(listen_s + report["setup_s"][0])
    res.add_ops(report["ops"])
    res.rounds = [tuple(r) for r in report["rounds"]]
    return res


def server_session_trace(seed):
    res = Result()
    sock, _, cpu, _ = server_pass(seed, ["--rounds", "1"])
    res.add_ops(sock["ops"])
    path = trace_path("server-session")
    report, _, _ = worker(["trace", "--workload", "server-session", "--trace", path,
                           "--seed", str(seed), "--pins", PINS], timeout_s=600)
    res.add_ops(report["ops"])
    by_kind = {}
    for kind, ms, _ in sock["ops"]:
        by_kind.setdefault(kind, []).append(ms)
    for kind in ("load", "analyze_cold", "analyze_cached", "analyze_incremental",
                 "query", "edit", "stats"):
        res.layers["server.%s_ms" % kind] = stats.median(by_kind.get(kind, [0.0]))
    socket_ms = sum(ms for kind, ms, _ in sock["ops"] if kind != "stats")
    handle_ms = sum(ms for _, ms, _ in report["ops"])
    res.layers["server.handle_ms"] = handle_ms
    res.layers["server.transport_ms"] = socket_ms - handle_ms
    layer_metrics(res, report, path, socket_ms, cpu)
    return res


# --------------------------------------------------------------- reporting

def out_dir():
    os.makedirs(OUT, exist_ok=True)
    return OUT


def trace_path(workload):
    return os.path.join(out_dir(), "trace-%s.jsonl" % workload)


def layer_metrics(res, report, path, wall_ms, cpu_s):
    """Per-layer figures of a traced run: self time per span name, the
    exact counts, coverage (layer self time over operation wall time)
    and tracing overhead (traced over untraced wall time, minus one)."""
    with open(path) as f:
        spans = [json.loads(line) for line in f if line.strip()]
    self_ms = stats.self_times(spans)
    span_metric = {
        "benchgen.generate": "benchgen.generate_ms", "frontend.parse": "frontend.parse_ms",
        "ir.icfg": "ir.icfg_ms", "core.solve": "core.solve_ms",
        "report.render": "report.render_ms", "datalog.eval": "datalog.eval_ms",
    }
    for name, metric in span_metric.items():
        res.layers[metric] = self_ms.get(name, 0.0)
    res.layers.update(report["counts"])
    in_ops = [s for s in spans if s["op"] != SETUP_OP]
    covered = sum(stats.self_times(in_ops).values())
    res.layers["trace.coverage"] = covered / wall_ms if wall_ms else 0.0
    untraced, traced = report.get("untraced_s"), report.get("traced_s")
    res.layers["trace.overhead"] = traced / untraced - 1 if untraced else 0.0
    res.layers["proc.cpu_s"] = cpu_s
    res.notes.append("trace: %d spans, %d of them in %d operations; coverage %.3f of %.1f ms" % (
        len(spans), len(in_ops), len(set(s["op"] for s in in_ops)),
        res.layers["trace.coverage"], wall_ms))


def end_to_end(res):
    lat = [ms for _, ms, _ in res.ops]
    rate = stats.throughput(res.rounds)
    p90 = stats.percentile(lat, 90)
    res.notes.append("p90_ms: %s over %d operations" % (
        "%.4f" % p90 if p90 is not None else "omitted (fewer than 10 samples beyond it)",
        len(lat)))
    q1, q3 = stats.quartiles(lat) if len(lat) > 1 else (lat[0], lat[0])
    res.notes.append("%d rounds; latency quartiles %.4f-%.4f ms over %d operations" % (
        len(res.rounds), q1, q3, len(lat)))
    values = {
        "setup_s": stats.median(res.setup_s),
        "ops_per_s": rate,
        "p50_ms": stats.median(lat),
        "peak_rss_mb": res.rss_kb / 1024.0,
    }
    missing = set(name for name, _ in declared("end_to_end")) - set(values)
    if missing:
        raise BenchError("no measurement for end-to-end metrics %s" % sorted(missing))
    return {name: (values[name], unit) for name, unit in declared("end_to_end")}


def declared(kind):
    """(name, unit) of every metric of `kind` that BENCHMARK.json lists."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return [(m["name"], m["unit"]) for m in json.load(f)[kind]]
    except (OSError, ValueError, KeyError) as e:
        raise BenchError("cannot read the metric list from BENCHMARK.json: %s" % e)


def per_layer(res):
    """Every per-layer metric; a layer the workload does not reach
    reports 0 (no span, no work)."""
    res.layers["ide.killed_early_ratio"] = (
        res.layers.get("ide.killed_early", 0.0) / res.layers["ide.flow_evals"]
        if res.layers.get("ide.flow_evals") else 0.0)
    unknown = set(res.layers) - set(name for name, _ in declared("per_layer"))
    if unknown:
        raise BenchError("undeclared per-layer metrics: %s" % sorted(unknown))
    return {name: (res.layers.get(name, 0.0), unit) for name, unit in declared("per_layer")}


def machine():
    return {
        "available_parallelism": len(os.sched_getaffinity(0)),
        "os": platform.system().lower(),
        "arch": platform.machine(),
    }


def pin():
    """Re-pins the expected outputs: the stdout of every CLI command and
    the server's load fingerprints and analyze digests."""
    build()
    cli = []
    for args in CLI_OPS:
        _, n, sha, _, _, error = run_cli(args)
        if error:
            raise BenchError(error)
        cli.append({"args": args, "bytes": n, "sha256": sha})
    server, _, _ = worker(["pin-server"], timeout_s=900)
    with open(PINS, "w") as f:
        json.dump({"cli": cli, "server": server["server"]}, f, indent=1)
        f.write("\n")
    log("wrote %s" % PINS)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true")
    a = ap.parse_args()
    try:
        if a.pin:
            return pin()
        if not a.workload:
            ap.error("--workload is required")
        build()
        if a.trace:
            res = {
                "cli-table": lambda: cli_table_trace(a.seed),
                "server-session": lambda: server_session_trace(a.seed),
                "datalog-reach": lambda: in_process_trace("datalog-reach", a.seed, []),
            }[a.workload]()
            metrics = per_layer(res)
        else:
            res = {
                "cli-table": cli_table,
                "server-session": server_session,
                "datalog-reach": datalog_reach,
            }[a.workload](a.seed, a.seconds)
            metrics = end_to_end(res)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    print("machine: %s" % json.dumps(machine()))
    for note in res.notes:
        print(note)
    for kind, _, err in res.ops:
        if err is not None:
            print("FAILED %s: %s" % (kind, err))
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": len(res.ops),
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
