#!/usr/bin/env python3
"""End-to-end benchmark of the CORAL server, router and sharded workers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bound_query --seed 1 --seconds 30 --trace 0

The script builds bin/coral_server.exe and bin/coral_router.exe with dune,
starts them as child processes on Unix sockets under .perfbench_run/, and
drives them over the wire protocol with one closed-loop client: the next
operation is sent only after the previous one has been answered.  Every
answer is checked against a model computed here.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Workloads (the seed names the graph's nodes and picks the operations):

  bound_query     `query path(s, Y)` for a random source s on a 64-node
                  ring with one chord per node.  The server runs with
                  --no-maintain, so each request re-runs the
                  magic-rewritten semi-naive fixpoint: the bound-query
                  serve path that rewrite and evaluation work targets.
  update_visible  retract one edge of a forest of 48 chains of 16 nodes and
                  read `path(a, Y)` from the edge's source, then insert it
                  back and read again; each read must reflect its update.
                  Default server: updates propagate as maintenance deltas
                  and reads scan the maintained extent, bypassing the
                  fixpoint that bound_query exercises.  The server is
                  reloaded after every 100 such flaps.
  dist_closure    insert (or retract) one chord of a 64-node ring through
                  coral_router, then query the whole closure `path(X, Y)`
                  over two worker shards.  Each update dirties the cluster,
                  so every operation reprovisions the shards and runs the
                  distributed fixpoint behind the two-phase barrier.

Every seed gets the same graphs up to node names, and the ring keeps every
node reachable from every other, so runs with different seeds do the same
work on different inputs.

--trace 0 prints the end-to-end metrics: operations per second, median and
90th-percentile operation latency, and set-up time (the median over the
run's set-ups, at least three: start the processes, load program and
facts, answer the first operation cold).  These times are scaled to a
reference machine speed (see PROBE_REF_S).  --trace 1 runs the same loop
and prints the per-layer split instead, as measured: client-side timers
around each request, the servers' own Prometheus counters and histograms
(`metrics`, federated across shards by the router) and, for dist_closure,
the router's per-round fixpoint table (`dstat`) after every operation.  A
layer the workload does not exercise reads 0.
"""

import argparse
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

RUN_DIR = ".perfbench_run"
SETUPS = 3
WARMUP_S = 1.0

RING_NODES = 64
CHAINS = 48
CHAIN_LEN = 16
SHARDS = 2

# right-linear closure for the single-server workloads (the server bench's
# shape); the sharded workload uses the left-linear form partitioned on Y,
# as the distributed bench and the cluster smoke test do
RIGHT_LINEAR = (
    "module paths. export path(bf). "
    "path(X, Y) :- edge(X, Y). path(X, Y) :- edge(X, Z), path(Z, Y). end_module."
)
LEFT_LINEAR = (
    "module m_path. export path(bf). export path(ff). "
    "path(X, Y) :- edge(X, Y). path(X, Y) :- path(X, Z), edge(Z, Y). end_module."
)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Build and processes
# ---------------------------------------------------------------------------


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        raise BenchError("run from the root of a CORAL checkout (dune-project, lib/, bin/)")
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    targets = ["bin/coral_server.exe", "bin/coral_router.exe"]
    r = subprocess.run(cmd + ["build", "--root", "."] + targets, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError("dune build failed")
    return {name: os.path.abspath(os.path.join("_build", "default", "bin", name + ".exe"))
            for name in ("coral_server", "coral_router")}


class Procs:
    """The child processes of one set-up; stop() ends and reaps them all."""

    def __init__(self, exes):
        self.exes = exes
        self.procs = []

    def spawn(self, name, *args):
        p = subprocess.Popen([self.exes[name], *args, "--quiet"], cwd=RUN_DIR,
                             stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        self.procs.append(p)

    def stop(self):
        for p in self.procs:
            if p.poll() is None:
                p.terminate()
        for p in self.procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        self.procs = []


class Conn:
    """One protocol connection: a request line out, payload lines and one
    ok/err status line back."""

    def __init__(self, sock_name):
        path = os.path.join(RUN_DIR, sock_name)
        deadline = time.monotonic() + 20
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(path)
                break
            except OSError:
                s.close()
                if time.monotonic() > deadline:
                    raise BenchError("no server listening on " + path)
                time.sleep(0.005)
        s.settimeout(120)
        self.sock = s
        self.f = s.makefile("rwb")

    def request(self, line):
        self.f.write(line.encode() + b"\n")
        self.f.flush()
        payload = []
        while True:
            raw = self.f.readline()
            if not raw:
                raise BenchError("connection closed on: " + line[:60])
            if raw == b"ok\n" or raw.startswith(b"ok ") or raw.startswith(b"err "):
                return payload, raw.decode().rstrip("\n")
            payload.append(raw)

    def ok(self, line):
        payload, status = self.request(line)
        if not status.startswith("ok"):
            raise BenchError("%s -> %s" % (line[:60], status))
        return payload

    def close(self):
        try:
            self.f.close()
            self.sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Inputs and the answer model
# ---------------------------------------------------------------------------


def ring_with_chords(seed, n):
    """A ring with one chord per node, relabelled by the seed: every seed
    gets the same graph up to node names, so the same work."""
    shape = random.Random(0)
    name = list(range(n))
    random.Random(seed).shuffle(name)
    edges = set()
    for i in range(n):
        edges.add((name[i], name[(i + 1) % n]))
        edges.add((name[i], name[shape.randrange(n)]))
    return edges


def facts(edges):
    return " ".join("edge(%d, %d)." % e for e in sorted(edges))


def reach(edges, src):
    succ = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    seen, todo = set(), [src]
    while todo:
        for b in succ.get(todo.pop(), ()):
            if b not in seen:
                seen.add(b)
                todo.append(b)
    return seen


def answer_ints(payload):
    """`ans Y = 5` lines -> {5}; `ans X = 1, Y = 2` lines -> {(1, 2)}."""
    out = set()
    for raw in payload:
        if not raw.startswith(b"ans "):
            continue
        vals = tuple(int(part.split(b"=")[1]) for part in raw[4:].split(b","))
        out.add(vals[0] if len(vals) == 1 else vals)
    return out


# ---------------------------------------------------------------------------
# Tracing: client-side request timers and server-side counters
# ---------------------------------------------------------------------------


class Timers:
    """Client-side round-trip times per request kind, kept when tracing."""

    def __init__(self, on):
        self.on = on
        self.times = {}

    def timed(self, name, fn):
        t0 = time.perf_counter()
        result = fn()
        if self.on:
            self.times.setdefault(name, []).append(time.perf_counter() - t0)
        return result

    def mean(self, name):
        ds = self.times.get(name)
        return statistics.fmean(ds) if ds else 0.0


def scrape(conn):
    """The `metrics` exposition as {name: value}.  A router's per-shard
    `coral_shard_X{shard=..}` series are summed into `coral_X`; the
    answering process's own value of `coral_X` is also kept as
    `coral_X_front`."""
    totals = {}
    for raw in conn.ok("metrics"):
        line = raw.decode().rstrip("\n")
        if not line.startswith("txt coral_"):
            continue
        series, _, value = line[4:].rpartition(" ")
        name = series.split("{", 1)[0]
        try:
            v = float(value)
        except ValueError:
            continue
        if name.startswith("coral_shard_"):
            name = "coral_" + name[len("coral_shard_"):]
        elif "{" in series:
            continue  # histogram buckets and labelled gauges
        else:
            totals[name + "_front"] = v
        totals[name] = totals.get(name, 0.0) + v
    return totals


DIST_KEYS = ("rounds", "wall_ms", "step_ms", "wait_ms", "skew", "shipped")


def dstat(conn):
    """Summarise the router's table for the last distributed fixpoint."""
    payload, status = conn.request("dstat")
    out = dict.fromkeys(DIST_KEYS, 0.0)
    if not status.startswith("ok"):
        return out
    for kv in status.split():
        if kv.startswith("wall_ms="):
            out["wall_ms"] = float(kv[8:])
        elif kv.startswith("skew_max="):
            out["skew"] = float(kv[9:])
    rounds = []  # [round wall, [shard step times]]
    for raw in payload:
        fields = dict(kv.split("=", 1) for kv in raw.decode().split()[1:] if "=" in kv)
        if "round" in fields:
            rounds.append([float(fields["wall_ms"]), []])
        elif "shard" in fields and rounds:
            rounds[-1][1].append(float(fields["step_ms"]))
            out["shipped"] += int(fields["shipped"])
    out["rounds"] = len(rounds)
    for wall, steps in rounds:
        mean_step = statistics.fmean(steps) if steps else 0.0
        out["step_ms"] += mean_step
        out["wait_ms"] += max(0.0, wall - mean_step)
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """setup() starts and loads the processes and answers one operation
    cold; op() runs one operation and returns (latency_s, answers_ok)."""

    front_timed = True  # the answering process records its request time
    probe_all_cpus = False  # see PROBE_REF_S
    round_ops = 0  # operations per set-up; 0 keeps one set-up for the run

    def __init__(self, exes, seed, timers):
        self.seed = seed
        self.rng = random.Random(seed * 7919 + 1)
        self.timers = timers
        self.procs = Procs(exes)
        self.conn = None
        self.control = None
        self.generation = 0
        self.since_setup = 0
        self.dist = []  # per-operation dstat summaries (dist_closure, traced)

    def sock(self, name):
        return "%s-%d.sock" % (name, self.generation)

    def start_server(self, *flags):
        self.procs.spawn("coral_server", "--socket", self.sock("server"), *flags)
        self.conn = Conn(self.sock("server"))
        self.control = Conn(self.sock("server"))

    def update_and_read(self, cmd, edge, query):
        """An insert or retract of one edge, then the read that must show
        it; returns (update status as expected, read payload)."""
        expect = "ok inserted 1, duplicate 0" if cmd == "insert" else "ok retracted 1, missing 0"
        _, status = self.timers.timed(
            cmd, lambda: self.conn.request("%s edge(%d, %d)." % (cmd, edge[0], edge[1])))
        payload = self.timers.timed("read", lambda: self.conn.ok(query))
        return status.startswith(expect), payload

    def teardown(self):
        for c in (self.conn, self.control):
            if c is not None:
                c.close()
        self.conn = self.control = None
        self.procs.stop()
        self.generation += 1


class BoundQuery(Workload):
    def setup(self):
        self.edges = ring_with_chords(self.seed, RING_NODES)
        self.model = {s: reach(self.edges, s) for s in range(RING_NODES)}
        self.start_server("--no-maintain")
        self.conn.ok("consult " + RIGHT_LINEAR)
        self.conn.ok("consult " + facts(self.edges))
        return self.op()

    def op(self):
        src = self.rng.randrange(RING_NODES)
        t0 = time.perf_counter()
        payload = self.timers.timed("read", lambda: self.conn.ok("query path(%d, Y)" % src))
        dt = time.perf_counter() - t0
        return dt, answer_ints(payload) == self.model[src]


class UpdateVisible(Workload):
    # Each flap leaves the server slower to the next one, so a run that
    # kept one server would measure more growth the faster the machine ran
    # that day.  Runs are whole rounds of round_ops flaps on a freshly
    # loaded server instead; every set-up counts towards setup_s.
    round_ops = 100

    def setup(self):
        self.edges = {(c * CHAIN_LEN + p, c * CHAIN_LEN + p + 1)
                      for c in range(CHAINS) for p in range(CHAIN_LEN - 1)}
        self.flaps = 0
        self.start_server()
        self.conn.ok("consult " + RIGHT_LINEAR)
        self.conn.ok("consult " + facts(self.edges))
        return self.op()

    def op(self):
        # One edge flaps: retract and read, insert back and read.  A single
        # update per operation would make the latency bimodal, as a retract
        # costs several times an insert.  The seed picks the chain; the position
        # cycles, so every run sees the same mix of delta sizes.
        self.flaps += 1
        a = self.rng.randrange(CHAINS) * CHAIN_LEN + self.flaps % (CHAIN_LEN - 1)
        edge = (a, a + 1)
        query = "query path(%d, Y)" % a
        t0 = time.perf_counter()
        gone_ok, gone = self.update_and_read("retract", edge, query)
        back_ok, back = self.update_and_read("insert", edge, query)
        dt = time.perf_counter() - t0
        return dt, (gone_ok and answer_ints(gone) == reach(self.edges - {edge}, a)
                    and back_ok and answer_ints(back) == reach(self.edges, a))


class DistClosure(Workload):
    front_timed = False  # the router does not time the queries it fans out
    probe_all_cpus = True

    def setup(self):
        self.edges = ring_with_chords(self.seed, RING_NODES)
        self.extra = None
        workers = [self.sock("worker%d" % i) for i in range(SHARDS)]
        for w in workers:
            self.procs.spawn("coral_server", "--socket", w, "--worker")
        for w in workers:
            Conn(w).close()  # wait until every worker listens
        shard_args = [a for w in workers for a in ("--shard", w)]
        self.procs.spawn("coral_router", "--socket", self.sock("router"), "--key", "1", *shard_args)
        self.conn = Conn(self.sock("router"))
        self.control = Conn(self.sock("router"))
        self.conn.ok("consult " + LEFT_LINEAR)
        self.conn.ok("consult " + facts(self.edges))
        return self.op()

    def op(self):
        # alternate: insert a random chord the graph lacks, then retract it;
        # both dirty the cluster, so both cost one distributed fixpoint
        if self.extra is None:
            while True:
                edge = (self.rng.randrange(RING_NODES), self.rng.randrange(RING_NODES))
                if edge not in self.edges:
                    break
            cmd = "insert"
            self.edges.add(edge)
            self.extra = edge
        else:
            edge, cmd = self.extra, "retract"
            self.edges.discard(edge)
            self.extra = None
        t0 = time.perf_counter()
        status_ok, payload = self.update_and_read(cmd, edge, "query path(X, Y)")
        dt = time.perf_counter() - t0
        if self.timers.on:
            self.dist.append(dstat(self.control))
        want = {(a, b) for a in range(RING_NODES) for b in reach(self.edges, a)}
        return dt, status_ok and answer_ints(payload) == want


WORKLOADS = {"bound_query": BoundQuery, "update_visible": UpdateVisible, "dist_closure": DistClosure}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


# This benchmark runs on shared hosts whose cores slow down by up to 1.8x
# for seconds to minutes at a time as neighbours load them.  A fixed dict
# workload timed in this process right after each operation slows down in
# step with a single server process (correlation 0.99 over 2 s windows),
# so latencies are multiplied by PROBE_REF_S over the median of the probes
# around each operation: times are reported at the machine speed where the
# probe takes PROBE_REF_S (an idle core of a 2.1 GHz Xeon VM).  The sharded
# workload spreads its work over every core and waits for the slowest
# shard, so it probes every core and takes the slowest (correlation 0.81;
# one probe wherever this process runs gives 0.31).
PROBE_REF_S = 0.0043


def probe(all_cpus=False):
    """Seconds a fixed dict workload takes right now; with all_cpus, the
    slowest time over the cores this process may run on."""
    if all_cpus:
        cpus = os.sched_getaffinity(0)
        times = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(probe())
        os.sched_setaffinity(0, cpus)
        return max(times)
    t0 = time.perf_counter()
    d = {}
    for i in range(20000):
        d[(i * 7919) % 65536] = i
    s = 0
    for i in range(20000):
        s += d.get((i * 104729) % 65536, 0)
    return time.perf_counter() - t0


def scale(dts, probes):
    return [dt * PROBE_REF_S / statistics.median(probes[max(0, i - 2):i + 3])
            for i, dt in enumerate(dts)]


def run(args, exes):
    timers = Timers(args.trace == 1)
    w = WORKLOADS[args.workload](exes, args.seed, timers)
    attempted = failed = 0
    setup_s, setup_probes = [], []
    counters = {}  # server counter deltas over the measured window (traced)
    base = None  # the current server's counters when its share began

    def settle():
        if base is not None:
            for k, v in scrape(w.control).items():
                counters[k] = counters.get(k, 0.0) + v - base.get(k, 0.0)

    def fresh():
        nonlocal attempted, failed, base
        if w.procs.procs:
            settle()
            w.teardown()
        t0 = time.perf_counter()
        _, ok = w.setup()
        setup_s.append(time.perf_counter() - t0)
        setup_probes.append(statistics.median(probe(w.probe_all_cpus) for _ in range(3)))
        w.since_setup = 0
        attempted += 1
        failed += not ok
        if base is not None:
            base = scrape(w.control)

    def loop(seconds, whole_rounds):
        nonlocal attempted, failed
        dts, probes = [], []  # per answered operation
        t0 = time.perf_counter()
        while (time.perf_counter() - t0 < seconds
               or whole_rounds and 0 < w.since_setup < w.round_ops):
            if w.round_ops and w.since_setup == w.round_ops:
                fresh()
            attempted += 1
            w.since_setup += 1
            try:
                dt, ok = w.op()
            except (BenchError, OSError, ValueError) as e:
                print("perfbench: operation failed: %s" % e, file=sys.stderr)
                failed += 1
                break
            if ok:
                dts.append(dt)
                probes.append(probe(w.probe_all_cpus))
            else:
                failed += 1
        return dts, probes

    try:
        for _ in range(SETUPS):
            fresh()
        loop(WARMUP_S, False)
        if w.round_ops:
            fresh()
        timers.times.clear()
        w.dist.clear()
        if timers.on:
            base = scrape(w.control)
        dts, probes = loop(args.seconds, True)
        settle()
    finally:
        w.teardown()
    if len(dts) < 10:
        raise BenchError("only %d operations succeeded" % len(dts))

    if timers.on:
        metrics = layer_metrics(w, dts, probes, counters)
    else:
        lats = scale(dts, probes)
        pct = statistics.quantiles(lats, n=100, method="inclusive")
        metrics = {
            # closed-loop rate, the client's answer checks and probes excluded
            "ops_per_s": (len(lats) / sum(lats), "1/s"),
            "latency_p50_ms": (pct[49] * 1e3, "ms"),
            "latency_p90_ms": (pct[89] * 1e3, "ms"),
            "setup_s": (statistics.median(scale(setup_s, setup_probes)), "s"),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(w, dts, probes, counters):
    """Per-layer split of the timed window, per operation, as measured."""
    n = len(dts)

    def delta(name):
        return counters.get(name, 0.0)

    def per_op_ms(seconds):
        return seconds * 1e3 / n

    derivations = delta("coral_engine_derivations")
    duplicates = delta("coral_engine_duplicates")
    hits, misses = delta("coral_prepared_hits"), delta("coral_prepared_misses")
    server_s = delta("coral_server_request_seconds_sum_front") if w.front_timed else 0.0
    op_s = sum(dts)
    read_ms = w.timers.mean("read") * 1e3
    d = w.dist or [dict.fromkeys(DIST_KEYS, 0.0)]

    def dist_mean(k):
        return statistics.fmean(x[k] for x in d)

    return {
        "wall_latency_p50_ms": (statistics.median(dts) * 1e3, "ms"),
        "machine_slowdown": (statistics.median(probes) / PROBE_REF_S, "ratio"),
        "read_rtt_ms": (read_ms, "ms"),
        "insert_rtt_ms": (w.timers.mean("insert") * 1e3, "ms"),
        "retract_rtt_ms": (w.timers.mean("retract") * 1e3, "ms"),
        "server_request_ms": (per_op_ms(server_s), "ms"),
        "client_wire_ms": (per_op_ms(op_s - server_s) if w.front_timed else 0.0, "ms"),
        "rewrite_ms": (per_op_ms(delta("coral_phase_rewrite_sum")), "ms"),
        "eval_ms": (per_op_ms(delta("coral_phase_eval_sum")), "ms"),
        "emit_ms": (per_op_ms(delta("coral_phase_emit_sum")), "ms"),
        "derivations_per_op": (derivations / n, "count"),
        "duplicates_per_op": (duplicates / n, "count"),
        "duplicate_ratio": (duplicates / derivations if derivations else 0.0, "ratio"),
        "scans_per_op": (delta("coral_engine_scans") / n, "count"),
        "plan_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "maintained_tuples_per_op": (
            (delta("coral_maintenance_derived") + delta("coral_maintenance_deleted")
             + delta("coral_maintenance_rederived")) / n, "count"),
        "dist_rounds": (dist_mean("rounds"), "count"),
        "dist_fixpoint_ms": (dist_mean("wall_ms"), "ms"),
        "dist_step_ms": (dist_mean("step_ms"), "ms"),
        "dist_barrier_wait_ms": (dist_mean("wait_ms"), "ms"),
        "dist_skew": (dist_mean("skew"), "ratio"),
        "dist_shipped_tuples": (dist_mean("shipped"), "count"),
        # reprovisioning, fan-out and answer transfer around the fixpoint
        "dist_provision_ms": (read_ms - dist_mean("wall_ms") if w.dist else 0.0, "ms"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        exes = build()
        shutil.rmtree(RUN_DIR, ignore_errors=True)
        os.makedirs(RUN_DIR)
        result = run(args, exes)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
