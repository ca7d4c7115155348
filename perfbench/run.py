"""Benchmark of whole ``parasitometrics`` CLI commands on seeded simulator cohorts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from
``src`` there and nowhere else. The load is a closed loop with one client:
one command runs at a time, in a child process, so interpreter start and
package import are paid on every run, as they are for a user.

1. Set-up generates the workload's input with ``parasitometrics simulate``
   at ``--seed``; it is repeated ``SETUP_REPEATS`` times in all, between the
   first timed commands, and ``setup_s`` is the median.
2. The workload's command runs again and again, with a fresh output
   directory, until the timed commands have taken ``--seconds`` and at least
   ``MIN_SAMPLES`` have run. A run fails when it exits nonzero, is killed at
   its budget, fails the output check (see outcheck.py), or writes other
   bytes than the run's other samples for the same input.
   Every set-up and command time is taken in reference seconds (see
   ``HostSpeed``); ``wall_s`` is the median over the commands.
3. With ``--trace 1`` a traced replay (see replay.py) follows, and the
   per-layer metrics are printed instead of the end-to-end ones. Spans go to
   ``.perfbench_out/trace-<workload>-seed<seed>.json``.

The run record (machine, versions, seed, object counts, budgets, every
metric with its unit) is printed first; the last stdout line is the result
object ``{"correct", "attempted", "failed", "metrics"}``. The record is also
written to ``.perfbench_out/``. Scratch files go to ``.perfbench_work/`` and
are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import outcheck
from workloads import REFERENCE_SEEDS, SCALES, SETUP_BUDGET_S, SETUP_BUDGET_WHY, workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
MIN_SAMPLES = 2
# Every run must exit within 180 s; no child is allowed to run past this.
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Span-time metrics: inclusive time of the outermost spans of that name.
SETUP_SPANS = ("simulator.generate_cohort", "datamodel.export_csv", "datamodel.export_json")
COMMAND_SPANS = (
    "cli.import", "datamodel.ingest_csv", "datamodel.ingest_json",
    "metrics.fpr_distribution", "metrics.sensitivity_distribution",
    "metrics.pooled_object_sensitivity", "metrics.patient_level_sens_spec",
    "calibration.calibrate_threshold", "calibration.estimate_lod",
    "calibration.default_c_grid", "calibration.tune_operating_point",
    "curves.froc", "curves.object_roc", "curves.patient_roc",
    "curves.easy_distractor_experiment", "simulator.paper_worked_examples",
    "reproduce.run_all", "report.write_report",
)
COUNTS = ("datamodel.objects_ingested", "simulator.objects_generated",
          "calibration.c_grid_points", "calibration.tuner_rows", "curves.froc_points",
          "reproduce.checks_passed", "report.bytes_written")
PER_LAYER = {
    **{f"{name}_s": "s" for name in SETUP_SPANS + COMMAND_SPANS},
    "datamodel.ingest_csv_peak_mb": "MB",
    "datamodel.ingest_json_peak_mb": "MB",
    **{name: ("bytes" if name.endswith("bytes_written") else "count") for name in COUNTS},
    "calibration.tuner_yield": "fraction",
    "trace.replay_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "trace.accounted_share": "fraction",
}


# Host-speed reference. On a shared host one command's wall time swings by
# up to 1.6x between runs, and its CPU time swings with it: the core, not the
# program, runs slower at times, in spells from a second to many minutes. So
# the benchmark keeps to one core, and while its children run there a thread
# of its own runs a small fixed probe every PROBE_EVERY_S (about 3% of the
# core) and takes the probe's CPU time. A timed stretch is scaled by
# PROBE_REF_S over the median probe CPU time inside it, which gives the
# stretch in reference seconds: seconds of a core on which the probe takes
# PROBE_REF_S, about this host's fast spells. The probe is pure Python
# bytecode, where the program spends most of its time, and its working set
# fits in the first-level cache, so what a child leaves in the caches barely
# changes it.
PROBE_REF_S = 0.003
PROBE_EVERY_S = 0.1
PROBE_STEPS = 25000


def probe() -> int:
    """The fixed probe work: a linear congruential sequence."""
    x = 1
    for _ in range(PROBE_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return x


class HostSpeed:
    """Probe CPU times taken on the benchmark's core, by a thread, while in use."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, probe CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "HostSpeed":
        probe()                                  # warm-up, not kept
        self._probe_once()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _probe_once(self) -> None:
        start, cpu = time.perf_counter(), time.thread_time()
        probe()
        self.samples.append((start, time.thread_time() - cpu))

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_EVERY_S):
            self._probe_once()

    def scale(self, start: float, end: float) -> tuple[float, int]:
        """Reference seconds per wall second between ``start`` and ``end``
        (``perf_counter`` times), and the number of probes it rests on. A
        stretch too short to hold a probe takes all probes so far."""
        inside = [c for t, c in self.samples if start <= t <= end]
        cpu = statistics.median(inside or [c for _, c in self.samples])
        return PROBE_REF_S / cpu, len(inside)


class BenchError(Exception):
    """The benchmark cannot produce a result (broken checkout or set-up)."""


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    exit_code: int | None      # None when killed
    stdout: str
    stderr: str

    @property
    def error(self) -> str | None:
        if self.exit_code is None:
            return "killed: over its time budget"
        if self.exit_code != 0:
            last = self.stderr.strip().splitlines()[-1:] or [""]
            return f"exit {self.exit_code}: {last[0]}"
        return None


class Runner:
    """Runs children one at a time, each killed at its budget.

    A child is also killed at the whole run's deadline; that is the
    benchmark's failure, not the program's, so it raises ``BenchError``.
    """

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, argv: list[str], budget_s: float, cwd: Path | None = None) -> Outcome:
        cut_by_deadline = self.remaining() < budget_s
        budget = min(budget_s, self.remaining())
        out_path, err_path = self.work / ".stdout", self.work / ".stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd or self.work, env=self.env, stdout=out,
                                    stderr=err, start_new_session=True)
            lock = threading.Lock()
            state = {"exited": False, "killed": False}

            def kill():
                with lock:
                    if not state["exited"]:
                        os.killpg(proc.pid, signal.SIGKILL)
                        state["killed"] = True

            timer = threading.Timer(max(budget, 0.0), kill)
            timer.start()
            try:
                # Wait without reaping, so the pid cannot be reused before the
                # timer is disarmed; then reap it with its own rusage.
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = time.perf_counter() - start
                with lock:
                    state["exited"] = True
            finally:
                timer.cancel()
                if not state["exited"]:
                    os.killpg(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        if state["killed"] and cut_by_deadline:
            raise BenchError(f"the whole-run deadline of {DEADLINE_S:g} s cut a command short")
        code = None if state["killed"] else proc.returncode
        return Outcome(wall, usage.ru_maxrss / 1024.0, code,
                       out_path.read_text(errors="replace"),
                       err_path.read_text(errors="replace"))


def _cli(args) -> list[str]:
    return [sys.executable, "-m", "parasitometrics.cli", *args]


def _fresh_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def _tree_digest(out_dir: Path, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def count_objects(work: Path, files: list[str]) -> int:
    total = 0
    for name in files:
        path = work / name
        if path.suffix == ".csv":
            if path.name == "objects.csv":
                with open(path, "rb") as fh:
                    total += sum(1 for _ in fh) - 1
        else:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            total += sum(len(p.get("objects", ())) for p in doc["patients"])
    return total


def setup_once(runner: Runner, w, seed: int, where: Path) -> float:
    """One complete set-up into ``where``; returns its wall time."""
    for cohort in w.setup:
        shutil.rmtree(where / cohort.out, ignore_errors=True)
    start = time.perf_counter()
    for cohort in w.setup:
        o = runner.run(_cli(cohort.cli_args(seed)), SETUP_BUDGET_S, cwd=where)
        if o.error:
            raise BenchError(f"set-up `simulate` failed ({o.error})")
    return time.perf_counter() - start


def measure(runner: Runner, w, seed: int, checker, seconds: float, log):
    """Set-up, then the timed loop.

    Returns the set-up times and the command times, both in reference
    seconds (see ``HostSpeed``), the command outcomes and the failures.
    ``seconds`` counts wall time spent in timed commands. Set-up repeats after
    the first run between timed commands, into a spare directory, so that the
    samples spread over a longer stretch of the host's swings at no extra
    cost. No command starts unless its whole budget fits before the run's
    deadline.
    """
    spare = runner.work / "setup-repeat"
    setups: list[float] = []
    samples: list[Outcome] = []
    walls: list[float] = []
    failures: list[str] = []
    digests: set[str] = set()
    out_dir = runner.work / "out"
    timed = 0.0
    with HostSpeed() as host:
        def set_up(where: Path) -> None:
            start = time.perf_counter()
            wall = setup_once(runner, w, seed, where)
            setups.append(wall * host.scale(start, time.perf_counter())[0])

        set_up(runner.work)
        while runner.remaining() > w.budget_s and (len(samples) < MIN_SAMPLES
                                                    or timed < seconds):
            _fresh_dir(out_dir)
            start = time.perf_counter()
            o = runner.run(_cli(w.command), w.budget_s)
            scale, probes = host.scale(start, time.perf_counter())
            walls.append(o.wall_s * scale)
            samples.append(o)
            timed += o.wall_s
            errors = [o.error] if o.error else []
            if not errors:
                errors = checker.check(out_dir, o.stdout)
                digests.add(_tree_digest(out_dir, o.stdout))
                if not errors and len(digests) > 1:
                    errors = ["output bytes differ between runs of the same input"]
            if errors:
                failures.append(f"run {len(samples)}: " + "; ".join(errors))
            log(f"run {len(samples)}: wall {o.wall_s:.4f} s = {walls[-1]:.4f} reference s "
                f"({probes} probes), peak rss {o.rss_mb:.1f} MB, "
                f"{'ok' if not errors else 'FAILED ' + errors[0]}")
            if len(setups) < SETUP_REPEATS:
                _fresh_dir(spare)
                set_up(spare)
    shutil.rmtree(spare, ignore_errors=True)
    if not samples:
        raise BenchError("set-up left no time for a single command before the deadline")
    cpu = sorted(c for _, c in host.samples)
    log(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setups)} reference s")
    log(f"probe CPU time: median {statistics.median(cpu) * 1e3:.3f} ms over {len(cpu)}, "
        f"quartiles {cpu[len(cpu) // 4] * 1e3:.3f} .. {cpu[3 * len(cpu) // 4] * 1e3:.3f} "
        f"(a reference second is a wall second x {PROBE_REF_S * 1e3:g} ms / probe)")
    return setups, samples, walls, failures


def _self_times(spans: list[dict]) -> None:
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    for s in spans:
        covered, edge = 0.0, s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], edge), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                edge = hi
        s["self_s"] = (s["end"] - s["start"]) - covered


def _outermost_totals(spans: list[dict]) -> dict[str, float]:
    by_id = {s["id"]: s for s in spans}
    totals: dict[str, float] = {}
    for s in spans:
        parent, nested = s["parent"], False
        while parent is not None:
            if by_id[parent]["name"] == s["name"]:
                nested = True
                break
            parent = by_id[parent]["parent"]
        if not nested:
            totals[s["name"]] = totals.get(s["name"], 0.0) + s["end"] - s["start"]
    return totals


def traced_replay(runner: Runner, w, args, checker, wall_median: float, out_root: Path,
                  log) -> tuple[dict, list[str]]:
    """Replay set-up and command in-process with spans; returns per-layer metrics."""
    failures = []
    base = [sys.executable, str(HERE / "replay.py"), "--workload", w.name,
            "--seed", str(args.seed), "--scale", args.scale]
    traces = {}
    for phase in ("setup", "command"):
        spans_file = runner.work / f".spans-{phase}.json"
        if phase == "command":
            _fresh_dir(runner.work / "out")
        o = runner.run(base + ["--phase", phase, "--spans", str(spans_file)], 2 * w.budget_s)
        if o.error:
            raise BenchError(f"traced replay of {phase} failed ({o.error})")
        with open(spans_file, encoding="utf-8") as fh:
            traces[phase] = dict(json.load(fh), wall_s=o.wall_s)
        if phase == "setup":
            for cohort in w.setup:
                for name in cohort.files():
                    if (runner.work / "replay" / name).read_bytes() != \
                            (runner.work / name).read_bytes():
                        failures.append(f"replayed set-up wrote other bytes to {name}")
        else:
            failures += [f"replay: {e}" for e in checker.check(runner.work / "out", o.stdout)]
    mem = runner.run(base + ["--phase", "memory"], 2 * w.budget_s)
    if mem.error:
        raise BenchError(f"memory pass failed ({mem.error})")
    peaks = json.loads(mem.stdout.strip().splitlines()[-1])

    metrics = {}
    all_spans = []
    for phase, names in (("setup", SETUP_SPANS), ("command", COMMAND_SPANS)):
        spans = traces[phase]["spans"]
        _self_times(spans)
        totals = _outermost_totals(spans)
        metrics.update({f"{n}_s": totals.get(n, 0.0) for n in names})
        for s in spans:
            all_spans.append(dict(s, phase=phase, workload=w.name,
                                  id=f"{phase}:{s['id']}",
                                  parent=None if s["parent"] is None
                                  else f"{phase}:{s['parent']}"))
    counts = traces["command"]["counts"]
    metrics.update(peaks)
    metrics.update({n: counts.get(n, 0) for n in COUNTS})
    grid = metrics["calibration.c_grid_points"]
    metrics["calibration.tuner_yield"] = metrics["calibration.tuner_rows"] / grid if grid else 0.0

    command = traces["command"]
    roots = [s for s in command["spans"] if s["parent"] is None]
    top = [s for s in command["spans"] if s["parent"] in {r["id"] for r in roots}]
    accounted = sum(s["end"] - s["start"] for s in top)
    metrics["trace.replay_wall_s"] = command["wall_s"]
    metrics["trace.overhead_s"] = command["wall_s"] - wall_median
    metrics["trace.unaccounted_s"] = command["wall_s"] - accounted
    metrics["trace.accounted_share"] = accounted / command["wall_s"]
    if metrics["trace.accounted_share"] < 0.9:
        log(f"warning: layer spans cover only {metrics['trace.accounted_share']:.1%} "
            "of the traced replay")

    trace_path = out_root / f"trace-{w.name}-seed{args.seed}.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": w.name, "seed": args.seed,
                   "replay_wall_s": {p: t["wall_s"] for p, t in traces.items()},
                   "counts": counts, "spans": all_spans}, fh, indent=1)
    log(f"trace written to {trace_path.relative_to(out_root.parent)}")
    return metrics, failures


def machine() -> dict:
    """Host and versions. The reference outputs are bit-exact, and numpy picks
    SIMD code paths (such as AVX-512 exp) by CPU feature, so flags are kept."""
    cpu, flags = platform.processor() or "", set()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info = {k.strip(): v.strip()
                    for k, v in (ln.split(":", 1) for ln in fh if ":" in ln)}
        cpu = info.get("model name", cpu)
        flags = set(info.get("flags", "").split())
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "simd": [f for f in ("avx2", "avx512f") if f in flags],
            "python": platform.python_version(), **versions}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads()))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=SCALES, default="full",
                    help="cohort sizes; 'tiny' is for the self-test smoke run")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "parasitometrics" / "cli.py").is_file():
        print("error: run from the root of a parasitometrics checkout "
              "(src/parasitometrics/cli.py not found)", file=sys.stderr)
        return 2
    w = workloads(args.scale)[args.workload]
    if w.kind == "reproduce":       # fixed inputs: one reference for every seed
        ref_seed = 0
    elif args.scale == "full" and args.seed in REFERENCE_SEEDS:
        ref_seed = args.seed
    else:
        ref_seed = None
    checker = outcheck.Checker(HERE / "reference", w.name, ref_seed)
    out_root = root / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    work = root / ".perfbench_work" / f"{w.name}-{os.getpid()}"
    _fresh_dir(work)
    record_lines: list[str] = []

    def log(line: str) -> None:
        record_lines.append(line)
        print(f"# {line}", flush=True)

    try:
        # One core for the driver, its probe and its child, so that the probe
        # times the core the command runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        runner = Runner(root, work)
        log(f"machine: {json.dumps(machine())}")
        log(f"workload {w.name} ({w.why}); seed {args.seed}; scale {args.scale}; "
            f"--seconds {args.seconds:g}; trace {args.trace}")
        log(f"command: parasitometrics {' '.join(w.command)}")
        log(f"budget: {w.budget_s:g} s per command ({w.budget_why}); "
            f"set-up {SETUP_BUDGET_S:g} s per simulate ({SETUP_BUDGET_WHY}); "
            f"whole run {DEADLINE_S:g} s")
        log(f"output check: {checker.mode} (reference seeds {list(REFERENCE_SEEDS)} "
            "at full scale)")
        setups, samples, walls, failures = measure(runner, w, args.seed, checker,
                                                   args.seconds, log)
        inputs = [f for c in w.setup for f in c.files()]
        generated = count_objects(work, inputs)
        ingested = 0 if w.kind == "reproduce" else generated
        log(f"objects: {ingested} read by the command, {generated} written by set-up")
        raw_med = statistics.median(s.wall_s for s in samples)
        q1, med, q3 = _quartiles(walls)
        log(f"wall_s: median {med:.4f} reference s, quartiles {q1:.4f} .. {q3:.4f}, "
            f"n = {len(walls)}, min {min(walls):.4f}, max {max(walls):.4f}; "
            f"median wall time {raw_med:.4f} s")
        attempted, failed = len(samples), len(failures)
        log(f"failed_ratio: {failed}/{attempted} = {failed / attempted:g}")
        for f in failures:
            log(f"failure: {f}")

        end_to_end = {"wall_s": med,
                      "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
                      "setup_s": statistics.median(setups)}
        if args.trace:
            metrics, replay_failures = traced_replay(runner, w, args, checker, raw_med,
                                                     out_root, log)
            metrics["datamodel.objects_ingested"] = ingested
            metrics["simulator.objects_generated"] = generated
            for f in replay_failures:
                log(f"failure: {f}")
            attempted += 1
            failed += 1 if replay_failures else 0
            units = PER_LAYER
        else:
            metrics, units = end_to_end, END_TO_END
        for name, unit in units.items():
            log(f"metric {name} = {metrics[name]:.6g} {unit}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    record = out_root / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"record": record_lines, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
