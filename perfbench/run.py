#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the hvcache sweep engine.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve_mixed --seed 1 \
        --seconds 50 --trace 0

It builds `hvc_explore` and the benchmark's own `hvc_perfbench` helper
(perfbench/CMakeLists.txt, Release) under $CARGO_TARGET_DIR (default
`.bench_build`), runs one workload, checks its outputs, and prints one
JSON object as the last line of stdout:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` runs the traced
pass and reports the per-layer metrics; both lists, with units, come
from BENCHMARK.json. The line before it is the run context (nproc, CPU,
compiler, build type, revision, calibration-loop time). Spans of the
traced pass are written under <build dir>/runs/<workload>/.

Workloads (see perfbench/README.md for why each exists):
  sweep_multicore_cold  6-point shared-L2 multicore slice, each point in
                        a fresh `hvc_explore --threads 1` process
  serve_mixed           `hvc_explore serve --threads 1` over a prefilled
                        store: 1 warm reader + 1 cold writer
"""

import argparse
import hashlib
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
CMAKE_DIR = os.path.join(BUILD, "perfbench-cmake")

MIN_COLD_REPS = 3
# Daemon metrics come from the best round. The host's speed changes from
# second to second by up to 1.7x, so short rounds give each run many
# chances to catch a quiet moment.
ROUND_S = 0.25  # serve_mixed rate rounds (points_per_s, queries_per_s)
WARM_ROUND = 250  # reader queries per latency round: 10 beyond p95
WRITER_ROUND = 5  # serve_mixed writer queries per round (~0.15 s)
# Warm queries after each batch cold repetition (12 latency rounds), on
# up to 5 connections per burst.
WARM_BURST = 3000
BURST_CONNECTIONS = 5
# setup_s is the fastest set-up of a run. Tries are spread over the run
# (batch: after every cold repetition; serve: before and after the
# measured window), so one slow moment of the host cannot hold them all.
SETUP_TRIES = 10  # --dry-run invocations per batch of tries
DAEMON_TRIES = 40  # daemon starts before, and again after, the window
# One pool thread and one warm reader beside the cold writer: the
# reader's daemon thread is busy nearly all the time, so this keeps about
# 2 of the host's 4 CPUs busy and leaves headroom for run.py and the host.
SERVE_THREADS = 1
READERS = 1
# Readers reconnect after every 50 queries (hvc_perfbench's fixed
# interval), like a connection-per-call client, for their first 400
# connections: the daemon keeps each finished connection thread until
# shutdown, so a fixed count keeps that leak, and the RSS it holds, the
# same in every run.
READER_CONNECTIONS = 400
# Writer script lines per second of run: a 2-point cold query takes
# milliseconds, so the writer never reaches the end of its script.
WRITER_LINES_PER_S = 1000

VCC_37 = [round(0.30 + 0.005 * i, 3) for i in range(37)]

MULTICORE_SLICE = {
    "name": "multicore_slice",
    "kind": "simulation",
    "seed": 42,
    "system_seed": 42,
    "workload_seed": 1,
    "axes": {
        "scenario": ["A"],
        "design": ["proposed"],
        "l2": ["baseline"],
        "l2_size_kb": [64],
        "cores": [1, 2, 4],
        "mode": ["hp"],
        "workload_mix": ["gsm_c+adpcm_c", "gsm_c+g721_c"],
    },
}

# system_seed is pinned, so any sub-spec of this space hits the store.
SERVE_SPACE = {
    "name": "serve_space",
    "kind": "simulation",
    "seed": 7,
    "system_seed": 7,
    "workload_seed": 1,
    "axes": {
        "scenario": ["A", "B"],
        "design": ["baseline", "proposed"],
        "mode": ["ule"],
        "ule_vcc": VCC_37,
        "workload": ["adpcm_c", "epic_c"],
        "scrub_interval_s": [1.0],
    },
}

# The serve writer's point: the proposed design in scenario B, the
# costliest pair of the space. A query's cost depends on the (scenario,
# design) pair by up to 3.5x and hardly on Vcc, so a fixed pair makes
# every writer query cost the same and its rounds comparable.
SERVE_WRITER_AXES = {"scenario": ["B"], "design": ["proposed"]}

WORKLOADS = {
    "sweep_multicore_cold": {"kind": "batch", "space": MULTICORE_SLICE},
    "serve_mixed": {"kind": "serve", "space": SERVE_SPACE},
}

_children = []  # every process this run started and has not reaped


class Failures:
    """Operations attempted and failed; every failure gives exit 1."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {message}", file=sys.stderr)
        return ok


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ----------------------------------------------------------------- build


def build():
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die(f"no {needed} next to perfbench/: not a source checkout")
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", CMAKE_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quiet(configure, "configure")
    run_quiet(["cmake", "--build", CMAKE_DIR, "-j", str(os.cpu_count() or 1)],
              "build")
    return {
        "explore": os.path.join(CMAKE_DIR, "hvcache", "tools", "hvc_explore"),
        "tool": os.path.join(CMAKE_DIR, "hvc_perfbench"),
    }


def run_quiet(args, what):
    done = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:])
        die(f"{what} failed")


# ------------------------------------------------------------- processes


def spawn_wait(args, stderr_path):
    """Runs args to completion in a fresh process; (wall s, exit, rusage)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(args[0], args, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return wall, os.waitstatus_to_exitcode(status), usage


def popen(args, **kwargs):
    proc = subprocess.Popen(args, cwd=ROOT, **kwargs)
    _children.append(proc)
    return proc


def reap(proc, timeout):
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = None
    if proc in _children:
        _children.remove(proc)
    return code


def kill_children():
    for proc in list(_children):
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    _children.clear()


class Daemon:
    """One `hvc_explore serve` child; start() returns the time to ready."""

    def __init__(self, paths, store, socket_path):
        self.args = [paths["explore"], "serve", "--socket", socket_path,
                     "--store", store, "--threads", str(SERVE_THREADS)]
        self.socket = socket_path
        self.proc = None

    def start(self):
        start = time.perf_counter()
        self.proc = popen(self.args, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
        line = self.proc.stderr.readline()
        ready = time.perf_counter() - start
        # Keep reading so a chatty daemon never blocks on a full pipe.
        self.drain = threading.Thread(target=self.proc.stderr.read)
        self.drain.start()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line.strip()}")
        return ready

    def status(self, field):
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
        raise RuntimeError(f"no {field} in daemon status")

    def stop(self):
        """SIGTERM; True when the daemon exited 0 and unlinked its socket."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        code = reap(self.proc, 60)
        self.drain.join()
        return code == 0 and not os.path.exists(os.path.join(ROOT,
                                                             self.socket))


# ----------------------------------------------------------------- specs


def write_json(path, value):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(value, f)


def run_spec(space, rng):
    """The seeded variant of a space: fresh base, system and workload seeds."""
    spec = json.loads(json.dumps(space))
    spec["seed"] = rng.randrange(1, 2**40)
    spec["workload_seed"] = rng.randrange(1, 2**16)
    if "system_seed" in spec:
        spec["system_seed"] = rng.randrange(1, 2**40)
    return spec


def sub_spec(spec, rng, max_points, name):
    """A random grid subset of `spec` with at most max_points points."""
    out = json.loads(json.dumps(spec))
    out["name"] = name
    product = 1
    for axis, values in spec["axes"].items():
        k = max(1, min(len(values), max_points // product))
        chosen = sorted(rng.sample(range(len(values)), k))
        out["axes"][axis] = [values[i] for i in chosen]
        product *= k
    return out


def cold_requests(space, rng, count, fixed):
    """2-point specs with fresh seeds: each one is simulated, then stored.

    Every query is one random point, with the axes in `fixed` pinned, run
    on both workloads (or mixes) of the space.
    """
    axis = "workload" if "workload" in space["axes"] else "workload_mix"
    lines = []
    for i in range(count):
        spec = sub_spec(space, rng, 1, f"cold{i}")
        spec["axes"][axis] = space["axes"][axis]
        spec["axes"].update(fixed)
        spec.pop("system_seed", None)
        spec["seed"] = rng.randrange(1, 2**48)
        lines.append(json.dumps({"spec": spec}))
    return lines


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def csv_rows(path):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# --------------------------------------------------------------- helpers


def p50(values):
    return statistics.median(values)


def p95(values):
    return statistics.quantiles(values, n=20)[18]


def chunks(values, size):
    """Consecutive full rounds of `size`; the whole list if none is full."""
    rounds = [values[i:i + size] for i in range(0, len(values) - size + 1,
                                                 size)]
    return rounds or [values]


class Run:
    """Per-run scratch directory and shared state."""

    def __init__(self, workload, seed, seconds, paths):
        self.workload = workload
        self.seconds = seconds
        self.paths = paths
        self.dir = os.path.join(BUILD, "runs", workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.rng = random.Random(seed)
        self.checks = Failures()
        self.space = WORKLOADS[workload]["space"]
        self.points = 1
        for values in self.space["axes"].values():
            self.points *= len(values)
        self.spans = []  # (name, id, parent, start_ns, end_ns) of this script

    def path(self, name):
        return os.path.join(self.dir, name)

    def rel(self, name):
        """Path relative to ROOT: Unix socket paths must stay short."""
        return os.path.relpath(self.path(name), ROOT)

    def explore(self, *args):
        return [self.paths["explore"], *args]

    def batch(self, spec_path, out, threads=1, store=None):
        args = self.explore("--threads", str(threads), "--spec", spec_path,
                            "--out", out)
        if store:
            args += ["--store", store]
        return spawn_wait(args, self.path("explore.stderr"))

    def reference(self, spec, name):
        """Default-seed CSV (stored in name.hvcs), checked against its digest."""
        spec_path = self.path(f"{name}.json")
        write_json(spec_path, spec)
        out = self.path(f"{name}.csv")
        store = self.path(f"{name}.hvcs")
        _, code, _ = self.batch(spec_path, out, threads=3, store=store)
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
            expected = json.load(f)[self.workload]
        self.checks.check(code == 0 and sha256(out) == expected,
                          f"{name} CSV does not match its reference digest")
        return spec_path, out, store

    def setup_dry_runs(self, spec_path):
        """SETUP_TRIES `--dry-run` invocations; their wall times."""
        times = []
        for _ in range(SETUP_TRIES):
            wall, code, _ = spawn_wait(
                self.explore("--spec", spec_path, "--dry-run"),
                self.path("explore.stderr"))
            if self.checks.check(code == 0, "--dry-run failed"):
                times.append(wall)
        return times

    def daemon_starts(self, store):
        """DAEMON_TRIES daemon starts on `store`; their times to ready."""
        starts = []
        for _ in range(DAEMON_TRIES):
            daemon = Daemon(self.paths, store, self.rel("d.sock"))
            starts.append(daemon.start())
            self.checks.check(daemon.stop(),
                              "daemon did not shut down cleanly")
        return starts

    def client(self, role, requests, start_ns, stop_ns, connections, limit):
        args = [self.paths["tool"], "client", "--socket", self.rel("d.sock"),
                "--requests", requests, "--out", self.path(f"{role}.out"),
                "--start-ns", str(start_ns), "--stop-ns", str(stop_ns),
                "--connections", str(connections), "--limit", str(limit)]
        return popen(args, stdout=subprocess.DEVNULL)

    def drive(self, store, clients, seconds, limit=0):
        """Daemon on `store` plus closed-loop clients for `seconds`.

        clients: [(role, request file, connections)]. Returns the checked
        client outputs, the daemon's status and the window start.
        """
        daemon = Daemon(self.paths, store, self.rel("d.sock"))
        daemon.start()
        start_ns = time.monotonic_ns() + 300_000_000
        stop_ns = start_ns + int(seconds * 1e9)
        procs = [self.client(role, requests, start_ns, stop_ns, connections,
                             limit) for role, requests, connections in clients]
        status = {}
        if not limit:
            time.sleep(max(0.0, (start_ns + stop_ns) / 2e9
                           - time.monotonic()))
            status["Threads"] = daemon.status("Threads")
        for proc in procs:
            self.checks.check(reap(proc, seconds + 120) == 0, "client failed")
        status["VmHWM"] = daemon.status("VmHWM")
        with open(f"/proc/{daemon.proc.pid}/maps", encoding="ascii") as f:
            status["maps"] = sum(1 for _ in f)
        self.stop_daemon(daemon, store)
        outputs = {role: self.client_output(role) for role, _, _ in clients}
        return outputs, status, start_ns

    def stop_daemon(self, daemon, store):
        """SIGTERM, then the store must be fsck-clean."""
        self.checks.check(daemon.stop(), "daemon did not shut down cleanly")
        code = subprocess.run(self.explore("store", "fsck", store),
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
        self.checks.check(code == 0, "store fsck is not clean after SIGTERM")

    def client_output(self, role):
        queries, rows = [], {}
        with open(self.path(f"{role}.out"), encoding="utf-8") as f:
            for line in f:
                tag, rest = line[0], line[2:].rstrip("\n")
                if tag == "q":
                    v = [int(x) for x in rest.split()]
                    queries.append({"script": v[0], "sent": v[1],
                                    "first": v[2], "end": v[3], "warm": v[4],
                                    "cold": v[5], "instr": v[6],
                                    "ok": v[7] == 1})
                elif tag == "f":
                    print(f"{role}: {rest}", file=sys.stderr)
                elif tag == "r":
                    script, csv = rest.split(" ", 1)
                    rows.setdefault(int(script), []).append(csv)
        # One operation per query; a reader's answer must be all warm, a
        # writer's all cold (a repeated writer request would be warm).
        for q in queries:
            ok = q["ok"] and (q["warm"] if role == "writer" else q["cold"]) == 0
            self.checks.check(ok, f"{role} query {q['script']} failed or "
                                  "was not all warm (reader) or cold (writer)")
            if ok:
                self.spans.append(("serve.query", f"{role}:{q['script']}",
                                   -1, q["sent"], q["end"]))
        return {"queries": [q for q in queries if q["ok"]], "rows": rows}

    def check_batch_equal(self, request_line, daemon_rows, name):
        """A daemon answer equals a cold batch run of the same spec."""
        spec_path = self.path(f"{name}.json")
        write_json(spec_path, json.loads(request_line)["spec"])
        out = self.path(f"{name}.csv")
        _, code, _ = self.batch(spec_path, out)
        with open(out, encoding="utf-8") as f:
            batch = f.read()
        self.checks.check(code == 0 and batch == "\n".join(daemon_rows) + "\n",
                          f"daemon rows of {name} differ from a batch run")

    def write_spans(self):
        with open(self.path("spans_daemon.jsonl"), "w", encoding="utf-8") as f:
            for name, span_id, parent, start, end in self.spans:
                f.write(json.dumps({"name": name, "id": span_id,
                                    "parent": parent, "start_ns": start,
                                    "end_ns": end}) + "\n")


# ---------------------------------------------------------- batch timed


def rate_rounds(outputs, start_ns, seconds):
    """Query and point rates of the window in ROUND_S rounds, by end time."""
    count = max(1, int(seconds / ROUND_S))
    width = seconds / count
    rounds = []
    for j in range(count):
        lo = start_ns + int(j * width * 1e9)
        hi = start_ns + int((j + 1) * width * 1e9)
        done = [q for out in outputs.values() for q in out["queries"]
                if lo <= q["end"] < hi]
        rounds.append({
            "queries": len(done) / width,
            "points": sum(q["warm"] + q["cold"] for q in done) / width,
        })
    return rounds


def query_rounds(queries, start_ns, seconds, size):
    """The window's queries in full rounds of `size` consecutive ones."""
    stop_ns = start_ns + int(seconds * 1e9)
    done = sorted((q for q in queries if start_ns <= q["end"] < stop_ns),
                  key=lambda q: q["end"])
    return [done[i:i + size] for i in range(0, len(done) - size + 1, size)]


def latency_ms(queries):
    return [(q["end"] - q["sent"]) * 1e-6 for q in queries]


def point_specs(spec):
    """One 1-point spec per grid point of `spec`, in sweep order.

    The batch space pins system_seed and workload seeds do not depend on
    the point index, so a 1-point run gives the sweep's row for its point
    (bar the index column).
    """
    names = list(spec["axes"])
    out = []
    for values in itertools.product(*spec["axes"].values()):
        one = json.loads(json.dumps(spec))
        one["axes"] = {name: [value] for name, value in zip(names, values)}
        out.append(one)
    return out


def batch_timed(run):
    spec = run_spec(run.space, run.rng)
    spec_path = run.path("run.json")
    write_json(spec_path, spec)
    setup = run.setup_dry_runs(spec_path)
    ref_spec, ref_csv, ref_store = run.reference(run.space, "reference")
    with open(ref_csv, encoding="utf-8") as f:
        ref_text = f.read()

    # Cold: every point of the seeded sweep in a fresh process of its own,
    # whose rows must equal the whole sweep's. Points take 0.1-0.7 s, so
    # the fastest run of each point falls in a quiet moment of the host
    # far more often than a whole 2 s sweep does.
    _, code, _ = run.batch(spec_path, run.path("sweep.csv"))
    run.checks.check(code == 0, "seeded sweep failed")
    header, sweep_rows = csv_rows(run.path("sweep.csv"))
    paths = []
    for i, one in enumerate(point_specs(spec)):
        paths.append(run.path(f"point{i}.json"))
        write_json(paths[-1], one)

    # Warm: a daemon over the default-seed store answers the whole sweep
    # again. A burst of WARM_BURST queries follows every cold repetition,
    # so both kinds of sample spread over the whole run.
    reader = run.path("reader0.requests")
    with open(ref_spec, encoding="utf-8") as f:
        write_lines(reader, [json.dumps({"spec": json.load(f)})])
    daemon = Daemon(run.paths, ref_store, run.rel("d.sock"))
    daemon.start()

    began = time.perf_counter()
    walls = [[] for _ in paths]  # per point, one wall time per repetition
    first = [None] * len(paths)
    bursts, rss_kb, reps = [], 0, 0
    while (time.perf_counter() - began < run.seconds
           or reps < MIN_COLD_REPS):
        for i, path in enumerate(paths):
            out = run.path(f"point{i}.csv")
            wall, code, usage = run.batch(path, out)
            with open(out, "rb") as f:
                data = f.read()
            if first[i] is None:
                first[i] = data
            if run.checks.check(code == 0 and data == first[i],
                                f"point {i} repetition differs from the "
                                "first"):
                walls[i].append(wall)
                rss_kb = max(rss_kb, usage.ru_maxrss)
        reps += 1
        setup += run.setup_dry_runs(spec_path)

        proc = run.client("reader0", reader, 0, 2**62, BURST_CONNECTIONS,
                          WARM_BURST)
        run.checks.check(reap(proc, 120) == 0, "client failed")
        warm = run.client_output("reader0")
        answer = warm["rows"].get(0, [])
        run.checks.check("\n".join(answer) + "\n" == ref_text,
                         "daemon rows differ from the batch reference CSV")
        if len(warm["queries"]) == WARM_BURST:
            bursts.append(warm["queries"])
    run.stop_daemon(daemon, ref_store)

    instructions = 0
    col = header.index("instructions")
    run.checks.check(len(sweep_rows) == run.points, "short seeded sweep CSV")
    for i, row in enumerate(sweep_rows):
        point_header, rows = csv_rows(run.path(f"point{i}.csv"))
        run.checks.check(point_header == header and len(rows) == 1
                         and rows[0][1:] == row[1:],
                         f"point {i} run differs from its sweep row")
        instructions += int(row[col])

    fastest = [min(w) for w in walls]
    rounds = [r for b in bursts for r in chunks(b, WARM_ROUND)]
    latency = [latency_ms(r) for r in rounds]
    return {
        "points_per_s": len(fastest) / sum(fastest),
        "sim_instr_per_s": instructions / sum(fastest),
        "queries_per_s": max(len(r) / ((r[-1]["end"] - r[0]["sent"]) * 1e-9)
                             for r in rounds),
        "warm_p50_ms": min(p50(x) for x in latency),
        "warm_p95_ms": min(p95(x) for x in latency),
        "cold_p50_ms": p50(fastest) * 1e3,
        "setup_s": min(setup),
        "peak_rss_mb": rss_kb / 1024.0,
    }


# ---------------------------------------------------------- serve timed


def serve_prepare(run, seconds):
    """Prefilled store plus the seeded query scripts for `seconds` of load."""
    spec_path, prefill_csv, store = run.reference(run.space, "prefill")
    readers = []
    for r in range(READERS):
        lines = [json.dumps({"spec": sub_spec(run.space, run.rng, 16,
                                              f"warm{r}_{i}")})
                 for i in range(64)]
        readers.append(run.path(f"reader{r}.requests"))
        write_lines(readers[-1], lines)
    writer = run.path("writer.requests")
    write_lines(writer, cold_requests(run.space, run.rng,
                                      int(seconds * WRITER_LINES_PER_S),
                                      SERVE_WRITER_AXES))
    return spec_path, prefill_csv, store, readers, writer


def check_serve_rows(run, outputs, prefill_csv, readers, writer):
    """Warm rows equal batch rows; a seeded sample of cold rows too."""
    header, rows = csv_rows(prefill_csv)
    key_cols = [header.index(c) for c in ("scenario", "design", "ule_vcc",
                                           "workload")]
    by_key = {tuple(row[c] for c in key_cols): row[1:] for row in rows}
    for r, requests in enumerate(readers):
        out = outputs[f"reader{r}"]
        with open(requests, encoding="utf-8") as f:
            lines = f.read().splitlines()
        for script, csv in out["rows"].items():
            ok = csv[0].split(",") == header
            for line in csv[1:]:
                cells = line.split(",")
                ok = ok and by_key.get(tuple(cells[c] for c in key_cols)) \
                    == cells[1:]
            run.checks.check(ok, f"reader{r} rows of request {script} differ "
                                 "from the batch prefill rows")
        if r == 0 and out["rows"]:
            script = run.rng.choice(sorted(out["rows"]))
            run.check_batch_equal(lines[script], out["rows"][script],
                                  f"warm_sample{script}")
    out = outputs["writer"]
    with open(writer, encoding="utf-8") as f:
        lines = f.read().splitlines()
    answered = sorted(out["rows"])
    for script in run.rng.sample(answered, min(2, len(answered))):
        run.check_batch_equal(lines[script], out["rows"][script],
                              f"cold_sample{script}")


def serve_timed(run):
    _, prefill_csv, store, readers, writer = serve_prepare(run, run.seconds)

    # Starts run on a copy of the prefilled store, so the ones after the
    # window open the same records as the ones before it.
    setup_store = run.path("setup.hvcs")
    shutil.copyfile(store, setup_store)
    starts = run.daemon_starts(setup_store)

    clients = [(f"reader{r}", readers[r], READER_CONNECTIONS)
               for r in range(READERS)]
    clients.append(("writer", writer, 1))
    outputs, status, start_ns = run.drive(store, clients, run.seconds)
    check_serve_rows(run, outputs, prefill_csv, readers, writer)
    run.write_spans()
    starts += run.daemon_starts(setup_store)

    rates = rate_rounds(outputs, start_ns, run.seconds)
    reads = query_rounds([q for role, out in outputs.items()
                          if role != "writer" for q in out["queries"]],
                         start_ns, run.seconds, WARM_ROUND)
    writes = query_rounds(outputs["writer"]["queries"], start_ns,
                          run.seconds, WRITER_ROUND)
    run.checks.check(bool(reads) and bool(writes),
                     "not one full round of reader or writer queries")
    warm = [latency_ms(r) for r in reads] or [[0.0, 0.0]]
    writes = writes or [[{"sent": 0, "end": 1, "instr": 0}]]
    return {
        "points_per_s": max(r["points"] for r in rates),
        # Instructions per second of the writer's own query time: the
        # writer is closed loop, so that is its simulation rate.
        "sim_instr_per_s": max(sum(q["instr"] for q in r)
                               / (sum(q["end"] - q["sent"] for q in r) * 1e-9)
                               for r in writes),
        "queries_per_s": max(r["queries"] for r in rates),
        "warm_p50_ms": min(p50(r) for r in warm),
        "warm_p95_ms": min(p95(r) for r in warm),
        "cold_p50_ms": min(p50(latency_ms(r)) for r in writes),
        "setup_s": min(starts),
        "peak_rss_mb": status["VmHWM"] / 1024.0,
    }


# ----------------------------------------------------------------- traced


def tool(run, *args):
    done = subprocess.run([run.paths["tool"], *args], cwd=ROOT,
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    sys.stderr.write(done.stderr)
    return done.returncode


def traced(run):
    """Per-layer pass: layers tool, store tool, then a short daemon mix."""
    mix_s = max(3.0, min(run.seconds, 8.0))
    if WORKLOADS[run.workload]["kind"] == "batch":
        space = run_spec(run.space, run.rng)
        space_path = run.path("run.json")
        write_json(space_path, space)
        ref_spec, _, store = run.reference(run.space, "reference")
        with open(ref_spec, encoding="utf-8") as f:
            readers = [run.path("reader0.requests")]
            write_lines(readers[0], [json.dumps({"spec": json.load(f)})])
        writer = run.path("writer.requests")
        write_lines(writer, cold_requests(space, run.rng,
                                          int(mix_s * WRITER_LINES_PER_S), {}))
        prefill_csv = None
    else:
        space_path, prefill_csv, store, readers, writer = serve_prepare(run,
                                                                      mix_s)

    # Batch layers: traced pass and the real Executor, in one process;
    # then the same points through a fresh hvc_explore for process costs.
    layers_out = run.path("layers.json")
    code = tool(run, "layers", "--spec", space_path, "--out", layers_out,
                "--spans", run.path("spans_layers.jsonl"),
                "--csv", run.path("layers.csv"))
    run.checks.check(code == 0, "traced counts differ from the CSV columns")
    with open(layers_out, encoding="utf-8") as f:
        layers = json.load(f)
    _, code, usage = run.batch(space_path, run.path("cold.csv"))
    run.checks.check(code == 0 and sha256(run.path("cold.csv"))
                     == sha256(run.path("layers.csv")),
                     "traced-pass Executor CSV differs from hvc_explore")

    # Serve layers without a socket.
    store_out = run.path("store_pass.json")
    code = tool(run, "store", "--store", store, "--requests", readers[0],
                "--out", store_out,
                "--scratch", run.path("scratch.hvcs"),
                "--spans", run.path("spans_store.jsonl"))
    run.checks.check(code == 0, "store pass missed a warm row")
    with open(store_out, encoding="utf-8") as f:
        store_pass = json.load(f)

    # Daemon: the first cold queries alone, then under the reader load.
    shutil.copyfile(store, run.path("alone.hvcs"))
    outputs, _, _ = run.drive(run.path("alone.hvcs"),
                              [("writer", writer, 1)], 60, limit=6)
    alone_ms = {q["script"]: (q["end"] - q["sent"]) * 1e-6
                for q in outputs["writer"]["queries"]}
    clients = [(f"reader{r}", path, READER_CONNECTIONS)
               for r, path in enumerate(readers)]
    clients.append(("writer", writer, 1))
    outputs, status, _ = run.drive(store, clients, mix_s)
    if prefill_csv:
        check_serve_rows(run, outputs, prefill_csv, readers, writer)
    run.write_spans()
    reads = [q for r in range(len(readers))
             for q in outputs[f"reader{r}"]["queries"]]
    # Paired by query: the same cold request under load and alone.
    waits = [(q["end"] - q["sent"]) * 1e-6 - alone_ms[q["script"]]
             for q in outputs["writer"]["queries"] if q["script"] in alone_ms]
    run.checks.check(bool(reads) and bool(waits),
                     "no samples in the traced daemon mix")
    read_ms = latency_ms(reads) or [0.0]
    first_ms = [(q["first"] - q["sent"]) * 1e-6 for q in reads] or [0.0]
    warm_points = sum(q["warm"] for q in reads)
    all_points = sum(q["warm"] + q["cold"] for q in reads) or 1

    layer_sum = (layers["plan_s"] + layers["build_s"] + layers["generate_s"]
                 + layers["replay_s"])
    # The layer spans must cover the traced pass (little glue between
    # them), and the traced pass must cost about what the real Executor
    # costs on the same points: otherwise the layers no longer describe it.
    # Both are the fastest of kLayerRepeats runs per point; the window is
    # wide enough that host noise alone never leaves it, while a layer
    # that stops doing the Executor's work (or does it twice) does.
    run.checks.check(layers["glue_s"] <= 0.02 * layers["traced_s"],
                     "layer spans leave over 2% of the traced pass uncovered")
    ratio = layers["traced_s"] / layers["executor_s"]
    run.checks.check(0.75 <= ratio <= 1.33,
                     f"traced pass takes {ratio:.3f}x the Executor's time, "
                     "outside 0.75-1.33")
    return {
        "yield.plan_s": layers["plan_s"],
        "yield.plan_keys": layers["plan_keys"],
        "explore.plan_hit_ratio": 1 - layers["plan_keys"] / layers["points"],
        "sim.build_s": layers["build_s"],
        "sim.builds": layers["builds"],
        "workloads.generate_s": layers["generate_s"],
        "workloads.records": layers["records"],
        "workloads.trace_reuse_ratio":
            1 - layers["distinct_traces"] / layers["generations"],
        "sim.replay_s": layers["replay_s"],
        "sim.replay_ns_per_record":
            layers["replay_s"] * 1e9 / layers["records"],
        "explore.overhead_s": layers["executor_s"] - layer_sum,
        "process.minor_faults": usage.ru_minflt,
        "process.sys_s": usage.ru_stime,
        "sim.instructions": layers["instructions"],
        "sim.cycles": layers["cycles"],
        "cache.l1_misses": layers["l1_misses"],
        "cache.l2_accesses": layers["l2_accesses"],
        "cache.contention_cycles": layers["contention_cycles"],
        "edc.corrections": layers["edc_corrections"],
        "common.request_parse_us": store_pass["request_parse_us"],
        "explore.result_key_us": store_pass["result_key_us"],
        "store.get_us": store_pass["get_us"],
        "explore.decode_row_us": store_pass["decode_row_us"],
        "explore.warm_run_ms": store_pass["warm_run_ms"],
        "serve.protocol_ms": p50(read_ms) - store_pass["warm_run_ms"],
        "serve.first_row_ms": p50(first_ms),
        "store.put_us": store_pass["put_us"],
        "serve.cold_wait_ms": p50(waits or [0.0]),
        "store.open_s": store_pass["open_s"],
        "store.records": store_pass["records"],
        "store.hit_ratio": warm_points / all_points,
        "serve.daemon_threads": status["Threads"],
        "serve.daemon_maps": status["maps"],
        "bench.trace_overhead_ratio": ratio,
    }


# ---------------------------------------------------------------- context


def run_context(paths):
    cache = {}
    with open(os.path.join(CMAKE_DIR, "CMakeCache.txt"), encoding="utf-8") as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[:1]
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    calibration = subprocess.run([paths["tool"], "calibrate"],
                                 capture_output=True, text=True).stdout
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "compiler": version[0] if version else compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "revision": revision(),
        "calibration_s": float(calibration.split()[0]),
    }


def revision():
    """git HEAD when available, else a digest of the built sources."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
        if os.path.isfile(os.path.join(ROOT, top)):
            with open(os.path.join(ROOT, top), "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


# ------------------------------------------------------------------- main


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            declared = json.load(f)
    except OSError:
        die("BENCHMARK.json not found at the checkout root")
    paths = build()
    run = Run(args.workload, args.seed, args.seconds, paths)
    context = run_context(paths)

    try:
        if args.trace:
            values = traced(run)
            wanted = declared["per_layer"]
        elif WORKLOADS[args.workload]["kind"] == "batch":
            values = batch_timed(run)
            wanted = declared["end_to_end"]
        else:
            values = serve_timed(run)
            wanted = declared["end_to_end"]
    finally:
        kill_children()

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {
        "correct": run.checks.failed == 0,
        "attempted": run.checks.attempted,
        "failed": run.checks.failed,
        "metrics": metrics,
    }
    write_json(run.path("result.json"), {"context": context, **result})
    print("context " + json.dumps(context))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
