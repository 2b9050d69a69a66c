#!/usr/bin/env python3
"""Spec-to-tables benchmark: sweep specs in, Ertl & Gregg tables out.

Run from the repository root:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test        negative control (see below)
  python3 perfbench/run.py --make-reference   regenerate reference/*.fp

Workloads (see README.md for why each exists):

  paper-cold   nine declared specs, orchestrated over 4 sweep_driver
               workers x 1 gang thread, result store on, empty caches
  paper-warm   the same specs in-process, --threads=3, warm trace cache,
               no result store
  paper-store  the same specs in-process with the result store, every
               cell already stored
  mega-stream  one 10^8-event synthetic Markov trace (trace seed from
               --seed), 16 members, in-process, threads 3, dynamic,
               streamed decode

The benchmark builds the vmib sources into .bench_build/ (perfbench's own
CMake project), brings the workload's cache directory to its starting
state (timed, several times: setup_s), then repeats the sweep for
--seconds, restoring the starting state before every sweep. Every cell of
every sweep is checked against reference/*.fp (PerfCounters::fingerprint()
of a serial, storeless, in-process run); any mismatch fails the run.

--trace 0 prints the end-to-end metrics (medians over the sweeps).
--trace 1 alternates untraced and traced sweeps and prints the per-layer
metrics of the traced ones; the span file (Chrome trace-event JSON) lands
in .bench_build/work/<workload>/.

The last line of stdout is one JSON object: correct, attempted (cells),
failed (cells) and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
SPECS = os.path.join(HERE, "specs")
REFS = os.path.join(HERE, "reference")

PAPER_SPECS = [
    "fig07_gforth_celeron", "fig08_gforth_p4", "fig09_java_p4",
    "table06_forth_suite", "table07_java_suite", "ablation_predictors",
    "ablation_btb_sweep", "ablation_parse_policy", "ablation_replica_policy",
]
# mega-stream's trace seed is MEGA_SEEDS[--seed % len]: references exist
# for exactly these traces.
MEGA_SEEDS = [1, 2, 3, 4, 5, 6, 7, 8]
MEGA_EVENTS = "100m"
MEGA_ENTROPY = "35"

WORKLOADS = {
    "paper-cold": {"driver": ["--shards=4", "--result-store"],
                   "setup": "wipe"},
    "paper-warm": {"driver": ["--in-process", "--threads=3"],
                   "setup": "cold-fill"},
    "paper-store": {"driver": ["--in-process", "--result-store"],
                    "setup": "cold-fill"},
    "mega-stream": {"driver": ["--in-process"], "setup": "synth"},
}

NPROC_NEEDED = 4      # the shapes above fill exactly four cores
SETUP_REPS = 3        # setup_s is the median of this many set-ups
MIN_SWEEPS = 3        # timed sweeps per run, at least
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run; no result line is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- processes ---------------------------------------------------------------

def spawn(argv, log_path, env, timeout=CHILD_TIMEOUT_S):
    """Runs argv with stdout+stderr to log_path. Returns (exit status,
    peak RSS in KiB over the process and every descendant it waited
    for). Kills the child's process group on timeout."""
    with open(log_path, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT, start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise BenchError("%s killed by signal %d (log: %s)"
                         % (os.path.basename(argv[0]), -proc.returncode,
                            log_path))
    return proc.returncode, usage.ru_maxrss


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def tool(name):
    return os.path.join(BUILD, name)


def child_env(cache):
    env = {k: v for k, v in os.environ.items() if not k.startswith("VMIB_")}
    if cache:
        env["VMIB_TRACE_CACHE"] = cache
    return env


# --- build and host ------------------------------------------------------------

def build():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, errors="replace") as f:
            home = re.search(r"^CMAKE_HOME_DIRECTORY:\w+=(.*)$", f.read(), re.M)
        if not home or os.path.realpath(home.group(1)) != os.path.realpath(HERE):
            shutil.rmtree(BUILD)  # configured for another source tree
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    with open(build_log, "wb") as out:
        if not os.path.exists(cache):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT):
                shutil.rmtree(BUILD, ignore_errors=True)
                raise BenchError("cmake configure failed (is perfbench/ "
                                 "inside the vmib source tree?)")
        rc = subprocess.call(["cmake", "--build", BUILD, "-j",
                              str(NPROC_NEEDED)],
                             stdout=out, stderr=subprocess.STDOUT)
    if rc:
        with open(build_log, errors="replace") as f:
            tail = f.read()[-2000:]
        raise BenchError("build failed:\n" + tail)


def host_fingerprint():
    info = {"nproc": os.cpu_count(), "cpu_model": "", "l3": "",
            "build_type": "", "rev": ""}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for idx in range(8):
        base = "/sys/devices/system/cpu/cpu0/cache/index%d/" % idx
        try:
            with open(base + "level") as f:
                if f.read().strip() != "3":
                    continue
            with open(base + "size") as f:
                info["l3"] = f.read().strip()
        except OSError:
            continue
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", f.read(), re.M)
            info["build_type"] = m.group(1) if m else ""
    except OSError:
        pass
    info["rev"] = source_rev()
    return info


def source_rev():
    """The git revision, or (outside a git checkout) a digest of the
    sources the benchmark builds."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = rev.stdout.split()
        if rev.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("src", "tools", "bench", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


# --- cache state ---------------------------------------------------------------

def listing(root):
    """Sorted (relative path, size) of every file under root."""
    out = []
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out.append((os.path.relpath(path, root), os.path.getsize(path)))
    return sorted(out)


def listing_digest(entries):
    return hashlib.sha1(repr(entries).encode()).hexdigest()[:16]


def dir_bytes(root):
    return sum(size for _, size in listing(root))


def wipe(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def restore(cache, pristine):
    """Makes cache identical to pristine: extra files go, files whose
    size or mtime changed are copied back (sidecars are rewritten by
    temp-and-rename, so a rewrite always changes the mtime)."""
    if pristine is None:
        wipe(cache)
        return
    want = {}
    for dirpath, _, files in os.walk(pristine):
        for name in files:
            src = os.path.join(dirpath, name)
            want[os.path.relpath(src, pristine)] = os.stat(src)
    for dirpath, _, files in os.walk(cache):
        for name in files:
            path = os.path.join(dirpath, name)
            if os.path.relpath(path, cache) not in want:
                os.remove(path)
    for rel, st in want.items():
        dst = os.path.join(cache, rel)
        try:
            cur = os.stat(dst)
            if cur.st_size == st.st_size and cur.st_mtime_ns == st.st_mtime_ns:
                continue
        except FileNotFoundError:
            os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy2(os.path.join(pristine, rel), dst)


# --- one workload run ----------------------------------------------------------

def write_mega_spec(trace_seed, directory):
    """Instantiates specs/mega_stream.spec.in for one trace seed."""
    with open(os.path.join(SPECS, "mega_stream.spec.in")) as f:
        text = f.read().replace("{seed}", str(trace_seed))
    path = os.path.join(directory, "mega_stream.spec")
    with open(path, "w") as f:
        f.write(text)
    return path


class Run:
    def __init__(self, workload, seed, reference=None):
        self.workload = workload
        self.cfg = WORKLOADS[workload]
        self.dir = os.path.join(WORK, workload)
        self.cache = os.path.join(self.dir, "cache")
        self.pristine = None
        os.makedirs(self.dir, exist_ok=True)
        if workload == "mega-stream":
            self.trace_seed = MEGA_SEEDS[seed % len(MEGA_SEEDS)]
            self.specs = [write_mega_spec(self.trace_seed, self.dir)]
            self.reference = reference or os.path.join(REFS, "mega_stream.fp")
        else:
            self.specs = [os.path.join(SPECS, s + ".spec")
                          for s in PAPER_SPECS]
            self.reference = reference or os.path.join(REFS, "paper.fp")
        self.suite = {}
        for spec in self.specs:
            with open(spec) as f:
                text = f.read()
            name = re.search(r"^name (\S+)$", text, re.M).group(1)
            self.suite[name] = re.search(r"^suite (\S+)$", text, re.M).group(1)
        self.synth_timing = {}
        self.problems = []

    # set-up ------------------------------------------------------------------

    def setup_once(self):
        """Brings the cache to the workload's starting state; returns the
        seconds it took."""
        t0 = time.monotonic()
        wipe(self.cache)
        kind = self.cfg["setup"]
        if kind == "cold-fill":
            res, _, _ = self.sweep(["--shards=4", "--result-store"],
                                   "setup.log")
            self.note_setup_cells(res)
        elif kind == "synth":
            argv = [tool("trace_synth"), "--seed=%d" % self.trace_seed,
                    "--events=" + MEGA_EVENTS, "--entropy=" + MEGA_ENTROPY]
            log_path = os.path.join(self.dir, "setup.log")
            status, _ = spawn(argv, log_path, child_env(self.cache))
            if status:
                raise BenchError("trace_synth failed (log: %s)" % log_path)
            with open(log_path) as f:
                m = re.search(r"generate_s=(\S+) save_s=(\S+)", f.read())
            self.synth_timing = {"SynthSuite.generate_s": float(m.group(1)),
                                 "DispatchTrace.save_s": float(m.group(2))}
        return time.monotonic() - t0

    def setup(self, reps):
        times = [self.setup_once() for _ in range(reps)]
        if self.cfg["setup"] == "synth":
            # Priming sweep: the first sweep over a fresh trace trains
            # the static-variant profile and persists the dynamic
            # scheduler's member costs; both are part of the state every
            # timed sweep starts from.
            res, _, _ = self.sweep(self.cfg["driver"], "prime.log")
            self.note_setup_cells(res)
        if self.cfg["setup"] != "wipe":
            self.pristine = os.path.join(self.dir, "pristine")
            shutil.rmtree(self.pristine, ignore_errors=True)
            shutil.copytree(self.cache, self.pristine)
        self.state = listing(self.pristine) if self.pristine else []
        return times

    def restore(self):
        restore(self.cache, self.pristine)
        if listing(self.cache) != self.state:
            raise BenchError("%s: cache does not match its starting state "
                             "after restore" % self.workload)
        return listing_digest(self.state)

    # sweeps ------------------------------------------------------------------

    def sweep(self, driver_args, log_name, trace_path=None, run_id=""):
        """One specbench run over every spec. Returns (result dict, peak
        RSS KiB, log path). A crash counts every cell as wrong."""
        result = os.path.join(self.dir, "result.json")
        if os.path.exists(result):
            os.remove(result)
        argv = [tool("specbench")] + driver_args + [
            "--ref=" + self.reference, "--result=" + result]
        if trace_path:
            argv += ["--trace=" + trace_path, "--run-id=" + run_id,
                     "--label=" + self.workload]
        log_path = os.path.join(self.dir, log_name)
        status, rss = spawn(argv + self.specs, log_path,
                               child_env(self.cache))
        if status not in (0, 3) or not os.path.exists(result):
            raise BenchError("specbench exited %d (log: %s)"
                             % (status, log_path))
        with open(result) as f:
            return json.load(f), rss, log_path

    def note_setup_cells(self, res):
        """Set-up sweeps are checked too; their mismatches fail the run
        (the timed sweeps report them in cell_correct_ratio)."""
        for m in res["mismatches"]:
            self.problems.append("set-up cell mismatch: " + m)


def median(values):
    return statistics.median(values) if values else 0.0


def measure(run, seconds, traced):
    """Repeats sweeps for `seconds`; with traced, alternates an untraced
    and a traced sweep. Returns the per-sweep records."""
    records = []
    start = time.monotonic()
    durations = []
    while True:
        for mode in ((False, True) if traced else (False,)):
            t0 = time.monotonic()
            digest = run.restore()
            restore_s = time.monotonic() - t0
            before = listing(run.cache)
            trace_path = None
            run_id = ""
            if mode:
                run_id = uuid.uuid4().hex[:12]
                trace_path = os.path.join(run.dir, "trace-%s.json" % run_id)
            res, rss, log_path = run.sweep(run.cfg["driver"], "sweep.log",
                                           trace_path, run_id)
            records.append({"traced": mode, "state": digest, "result": res,
                            "restore_s": restore_s,
                            "rss_kib": rss, "log": log_path,
                            "trace": trace_path, "before": before,
                            "after": listing(run.cache),
                            "disk_bytes": dir_bytes(run.cache)})
            if mode:
                records[-1]["worker_lines"] = worker_timings(log_path)
            durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        pairs = len(records) // (2 if traced else 1)
        if pairs >= (2 if traced else MIN_SWEEPS) and \
                elapsed + median(durations) * (2 if traced else 1) > seconds:
            return records


def worker_timings(log_path):
    """Committed workers' `[timing] bench=<spec>:job<N> capture_s=..
    replay_s=..` lines, as the orchestrator echoed them."""
    out = []
    pat = re.compile(r"^\[timing\] bench=(\S+):job\d+ capture_s=(\S+) "
                     r"replay_s=(\S+)")
    with open(log_path, errors="replace") as f:
        for line in f:
            m = pat.match(line)
            if m:
                out.append((m.group(1), float(m.group(2)),
                            float(m.group(3))))
    return out


# --- metrics -------------------------------------------------------------------

END_TO_END = {"sweep_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "cache_disk_mb": "MB", "cell_correct_ratio": "ratio"}


def end_to_end(records, setup_times):
    untraced = [r for r in records if not r["traced"]]
    attempted = sum(r["result"]["cells_attempted"] for r in records)
    correct = sum(r["result"]["cells_correct"] for r in records)
    values = {
        "sweep_wall_s": median([r["result"]["sweep_wall_s"]
                                for r in untraced]),
        "setup_s": median(setup_times),
        "peak_rss_mb": max(r["rss_kib"] * 1024 / 1e6 for r in untraced),
        "cache_disk_mb": median([r["disk_bytes"] / 1e6 for r in untraced]),
        "cell_correct_ratio": correct / attempted if attempted else 0.0,
    }
    return values, attempted, attempted - correct


# Per-layer metrics: name -> unit (BENCHMARK.json lists the same set).
PER_LAYER = [
    ("ForthLab.warmup_s", "s"), ("JavaLab.warmup_s", "s"),
    ("ForthLab.reference_runs", "count"), ("JavaLab.reference_runs", "count"),
    ("DispatchTrace.load_s", "s"), ("DispatchTrace.load_events_per_s", "1/s"),
    ("DispatchTrace.file_mb", "MB"),
    ("SynthSuite.generate_s", "s"), ("DispatchTrace.save_s", "s"),
    ("TraceSource.open_s", "s"), ("GangReplayer.source_read_s", "s"),
    ("GangReplayer.source_events", "count"),
    ("GangReplayer.source_events_per_s", "1/s"),
    ("GangReplayer.peak_ring_mb", "MB"),
    ("GangReplayer.member_events", "count"),
    ("GangReplayer.member_events_per_s", "1/s"),
    ("GangReplayer.busy_ratio", "ratio"),
    ("GangReplayer.tiles_waited", "count"),
    ("GangReplayer.members_stolen", "count"),
    ("GangReplayer.deferred_members", "count"),
    ("GangReplayer.finish_s", "s"), ("GangReplayer.finish_share", "ratio"),
    ("SweepExecutor.run_slice_s", "s"), ("SweepExecutor.capture_busy_s", "s"),
    ("ResultStore.open_s", "s"), ("ResultStore.lookups", "count"),
    ("ResultStore.hits", "count"), ("ResultStore.records", "count"),
    ("ResultStore.flushes", "count"), ("ResultStore.disk_mb", "MB"),
    ("SweepOrchestrator.wall_s", "s"), ("SweepOrchestrator.attempts", "count"),
    ("SweepOrchestrator.worker_failures", "count"),
    ("SweepOrchestrator.jobs_from_store", "count"),
    ("SweepOrchestrator.worker_capture_s", "s"),
    ("SweepOrchestrator.worker_replay_s", "s"),
    ("Sweep.self_s", "s"),
    ("sweep_wall_traced_s", "s"), ("trace_overhead_s", "s"),
] + [("spec_wall_s." + s, "s") for s in PAPER_SPECS + ["mega_stream"]]


def layer_values(run, rec):
    """Per-layer values of one traced sweep: specbench's sums plus what
    the benchmark observes around it (cache files, worker lines)."""
    L = dict(rec["result"]["layers"])
    get = lambda k: L.get(k, 0.0)
    ratio = lambda a, b: a / b if b > 0 else 0.0
    v = {name: get(name) for name, _ in PER_LAYER}
    v["DispatchTrace.load_events_per_s"] = ratio(
        get("DispatchTrace.load_events"), get("DispatchTrace.load_s"))
    v["GangReplayer.source_events_per_s"] = ratio(
        get("GangReplayer.streamed_events"), get("GangReplayer.streamed_read_s"))
    v["GangReplayer.peak_ring_mb"] = get("GangReplayer.peak_ring_bytes") / 1e6
    v["GangReplayer.member_events_per_s"] = ratio(
        get("GangReplayer.member_events"), get("SweepExecutor.run_slice_s"))
    v["GangReplayer.busy_ratio"] = ratio(get("GangReplayer.busy_s"),
                                         get("GangReplayer.pool_s"))
    v["GangReplayer.finish_share"] = ratio(get("GangReplayer.finish_s"),
                                           get("SweepExecutor.run_slice_s"))
    v["SynthSuite.generate_s"] = run.synth_timing.get(
        "SynthSuite.generate_s", 0.0)
    v["DispatchTrace.save_s"] = run.synth_timing.get(
        "DispatchTrace.save_s", 0.0)
    after = dict(rec["after"])
    before = dict(rec["before"])
    v["DispatchTrace.file_mb"] = sum(
        s for p, s in after.items() if p.endswith(".vmibtrace")) / 1e6
    v["ResultStore.disk_mb"] = sum(
        s for p, s in after.items() if p.startswith("results/")) / 1e6
    v["ResultStore.flushes"] = float(sum(
        1 for p in after if p.endswith(".vmibstore") and p not in before))
    if "--in-process" not in run.cfg["driver"]:
        # The labs ran inside the workers: attribute each committed job's
        # capture (warmup) to its suite's lab, count the reference
        # interpretations by the meta sidecars they wrote, and split the
        # worker replay timer (which starts before warmup) from capture.
        cap = {"forth": 0.0, "java": 0.0}
        replay = 0.0
        for spec, capture_s, replay_s in rec["worker_lines"]:
            cap[run.suite.get(spec, "forth")] += capture_s
            replay += max(0.0, replay_s - capture_s)
        v["ForthLab.warmup_s"] = cap["forth"]
        v["JavaLab.warmup_s"] = cap["java"]
        v["SweepOrchestrator.worker_capture_s"] = cap["forth"] + cap["java"]
        v["SweepOrchestrator.worker_replay_s"] = replay
        for lab, prefix in (("ForthLab", "forth-"), ("JavaLab", "java-")):
            v[lab + ".reference_runs"] = float(sum(
                1 for p in after if p.startswith(prefix)
                and p.endswith(".vmibmeta") and p not in before))
    else:
        v["SweepOrchestrator.worker_capture_s"] = 0.0
        v["SweepOrchestrator.worker_replay_s"] = 0.0
    return v


def per_layer(run, records):
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    per_sweep = [layer_values(run, r) for r in traced]
    values = {name: median([p[name] for p in per_sweep])
              for name, _ in PER_LAYER}
    wall = median([r["result"]["sweep_wall_s"] for r in untraced])
    values["sweep_wall_traced_s"] = median(
        [r["result"]["sweep_wall_s"] for r in traced])
    values["trace_overhead_s"] = values["sweep_wall_traced_s"] - wall
    spec_walls = {}
    for r in untraced:
        for name, s in r["result"]["spec_wall_s"].items():
            key = "mega_stream" if name.startswith("mega_stream") else name
            spec_walls.setdefault(key, []).append(s)
    for name, _ in PER_LAYER:
        if name.startswith("spec_wall_s."):
            values[name] = median(spec_walls.get(name[len("spec_wall_s."):],
                                                 []))
    return values


def layer_invariants(workload, v):
    """What each workload's traced run must show; returns violations."""
    bad = []
    if workload == "paper-store":
        if v["GangReplayer.member_events"] != 0 or \
                v["GangReplayer.source_events"] != 0:
            bad.append("paper-store replayed events")
        if v["ResultStore.lookups"] == 0 or \
                v["ResultStore.hits"] != v["ResultStore.lookups"]:
            bad.append("paper-store lookups did not all hit")
    if workload == "paper-cold" and v["SweepOrchestrator.worker_failures"]:
        bad.append("paper-cold worker failures")
    if workload == "mega-stream" and v["GangReplayer.peak_ring_mb"] <= 0:
        bad.append("mega-stream did not stream")
    if workload != "paper-cold" and (v["ForthLab.reference_runs"] or
                                     v["JavaLab.reference_runs"]):
        bad.append("%s re-ran reference interpretations" % workload)
    return bad


# --- modes ---------------------------------------------------------------------

def bench(args):
    if (os.cpu_count() or 1) < NPROC_NEEDED:
        raise BenchError("needs nproc >= %d (have %s): the workload shapes "
                         "would oversubscribe" % (NPROC_NEEDED,
                                                  os.cpu_count()))
    build()
    host = host_fingerprint()
    run = Run(args.workload, args.seed, args.reference_file)
    setup_times = run.setup(1 if args.trace else SETUP_REPS)
    records = measure(run, args.seconds, bool(args.trace))
    if run.cfg["setup"] == "wipe":
        # paper-cold's starting state is an empty cache: its set-up is
        # the wipe of the previous sweep's caches before every sweep.
        setup_times = [r["restore_s"] for r in records]
    e2e, attempted, failed = end_to_end(records, setup_times)
    problems = run.problems
    if args.trace:
        metrics = per_layer(run, records)
        units = dict(PER_LAYER)
        problems += layer_invariants(args.workload, metrics)
        traces = [r["trace"] for r in records if r["traced"]]
        print("[trace] spans: %s" % traces[-1])
    else:
        metrics = e2e
        units = END_TO_END
    for r in records:
        for m in r["result"]["mismatches"]:
            problems.append("cell mismatch: " + m)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host, "setup_s": setup_times,
              "trace_seed": getattr(run, "trace_seed", None),
              "sweeps": [{k: r[k] for k in ("traced", "state", "rss_kib",
                                            "disk_bytes")}
                         | {"sweep_wall_s": r["result"]["sweep_wall_s"],
                            "spec_wall_s": r["result"]["spec_wall_s"]}
                         for r in records],
              "metrics": metrics, "problems": problems}
    with open(os.path.join(run.dir, "record-trace%d-seed%d.json"
                           % (args.trace, args.seed)), "w") as f:
        json.dump(record, f, indent=1)
    print("[host] " + json.dumps(host, sort_keys=True))
    for name in sorted(metrics):
        print("%-40s %16.6g %s" % (name, metrics[name], units[name]))
    for p in problems:
        log("FAIL: " + p)
    correct = failed == 0 and not problems and \
        e2e["cell_correct_ratio"] == 1.0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in sorted(metrics)}}))
    return 0 if correct else 1


def self_test():
    """Negative control: one flipped reference bit on a store-served cell
    must drop cell_correct_ratio below 1.0 and fail the run."""
    d = os.path.join(WORK, "self-test")
    os.makedirs(d, exist_ok=True)
    flipped = os.path.join(d, "paper-flipped.fp")
    with open(os.path.join(REFS, "paper.fp")) as f:
        lines = f.read().splitlines(True)
    i = next(k for k, l in enumerate(lines) if not l.startswith("#"))
    name, cell, fp = lines[i].split()
    lines[i] = "%s %s %016x\n" % (name, cell, int(fp, 16) ^ 1)
    with open(flipped, "w") as f:
        f.writelines(lines)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         "paper-store", "--seed", "1", "--seconds", "1", "--trace", "0",
         "--reference-file", flipped],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    ratio = result["metrics"]["cell_correct_ratio"]["value"] if result else None
    ok = proc.returncode != 0 and result is not None and \
        result["correct"] is False and ratio is not None and ratio < 1.0
    print("self-test: flipped %s cell %s; exit=%d correct=%s ratio=%s -> %s"
          % (name, cell, proc.returncode,
             result and result["correct"], ratio, "PASS" if ok else "FAIL"))
    return 0 if ok else 1


def make_reference():
    """Regenerates reference/*.fp with serial, storeless, in-process runs."""
    build()
    d = os.path.join(WORK, "make-reference")
    wipe(d)
    out = os.path.join(REFS, "paper.fp")
    specs = [os.path.join(SPECS, s + ".spec") for s in PAPER_SPECS]
    with open(out, "wb") as f:
        if subprocess.call([tool("specbench"), "--reference"] + specs,
                           stdout=f, env=child_env(None), cwd=ROOT):
            raise BenchError("reference run failed")
    # The mega traces stream from a trace cache file (10^8 events would
    # not fit the decode budget materialized).
    cache = os.path.join(d, "cache")
    chunks = []
    for seed in MEGA_SEEDS:
        wipe(cache)
        spec = write_mega_spec(seed, d)
        ref = subprocess.run([tool("specbench"), "--reference", spec],
                             capture_output=True, text=True,
                             env=child_env(cache), cwd=ROOT)
        if ref.returncode:
            raise BenchError("mega reference run failed: " + ref.stderr)
        lines = ref.stdout.splitlines(True)
        chunks += lines if not chunks else lines[1:]
    with open(os.path.join(REFS, "mega_stream.fp"), "w") as f:
        f.writelines(chunks)
    shutil.rmtree(d, ignore_errors=True)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference-file", help=argparse.SUPPRESS)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--make-reference", action="store_true")
    args = p.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.make_reference:
            return make_reference()
        if not args.workload:
            p.error("--workload is required")
        return bench(args)
    except BenchError as e:
        log("error: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
