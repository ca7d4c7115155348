"""Traced in-process replay of one workload, run in a fresh interpreter.

    python3 replay.py --workload NAME --seed N --scale full --phase PHASE [--spans FILE]

Run from the workload's working directory with ``src`` on ``PYTHONPATH``.
Every phase imports ``parasitometrics.cli``, swaps traced wrappers in for the
layer functions, and then runs the real CLI in-process, so the replay makes
exactly the calls the command makes, in the same order.

* ``--phase setup`` runs the set-up's ``simulate`` commands and writes the
  cohorts under ``replay/``.
* ``--phase command`` runs the workload's command. It writes the same files
  and stdout as the timed runs, so the output check applies.
* ``--phase memory`` runs the command again with ``tracemalloc`` on during
  each ingest call only, and prints the largest peak of one call as the last
  line of stdout; ``tracemalloc`` slows the code it watches, so this pass
  records no times.

In the timed phases every call of a function listed in ``INSTRUMENTED``
records a span (name, start, end, parent), wherever it is called from: the
``froc()`` calls inside ``easy_distractor_experiment`` are traced too. Spans
stay in memory and are written to ``--spans`` once, at exit, with the counts.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

from workloads import workloads

# (module, function, span name, count name or None, count of the call's result)
INSTRUMENTED = (
    ("datamodel", "ingest_cohort", "datamodel.ingest_csv", None, None),
    ("datamodel", "ingest_cohort_json", "datamodel.ingest_json", None, None),
    ("datamodel", "export_cohort", "datamodel.export_csv", None, None),
    ("datamodel", "export_cohort_json", "datamodel.export_json", None, None),
    ("simulator", "generate_cohort", "simulator.generate_cohort", None, None),
    ("simulator", "paper_worked_examples", "simulator.paper_worked_examples", None, None),
    ("metrics", "fpr_distribution", "metrics.fpr_distribution", None, None),
    ("metrics", "sensitivity_distribution", "metrics.sensitivity_distribution", None, None),
    ("metrics", "pooled_object_sensitivity", "metrics.pooled_object_sensitivity", None, None),
    ("metrics", "patient_level_sens_spec", "metrics.patient_level_sens_spec", None, None),
    ("calibration", "calibrate_threshold", "calibration.calibrate_threshold", None, None),
    ("calibration", "estimate_lod", "calibration.estimate_lod", None, None),
    ("calibration", "default_c_grid", "calibration.default_c_grid",
     "calibration.c_grid_points", lambda grid: len(set(grid))),
    ("calibration", "tune_operating_point", "calibration.tune_operating_point",
     "calibration.tuner_rows", lambda result: len(result[1])),
    ("curves", "froc", "curves.froc", "curves.froc_points", lambda c: len(c.points)),
    ("curves", "object_roc", "curves.object_roc", None, None),
    ("curves", "patient_roc", "curves.patient_roc", None, None),
    ("curves", "easy_distractor_experiment", "curves.easy_distractor_experiment",
     None, None),
    ("report", "write_report", "report.write_report", "report.bytes_written",
     lambda paths: sum(Path(p).stat().st_size for p in paths)),
    ("reproduce", "run_all", "reproduce.run_all", "reproduce.checks_passed",
     lambda checks: sum(1 for c in checks if c.passed)),
)

# Ingest functions whose memory peak the memory phase reports.
MEMORY_PEAKS = (("ingest_cohort", "datamodel.ingest_csv_peak_mb"),
                ("ingest_cohort_json", "datamodel.ingest_json_peak_mb"))


def rebind(original, replacement) -> None:
    """Put ``replacement`` wherever a ``parasitometrics`` module holds
    ``original``, including names imported with ``from .x import y``."""
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("parasitometrics"):
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, replacement)


class Tracer:
    """Spans and counts of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def begin(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self.stack[-1] if self.stack else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self.stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def instrument(self) -> None:
        for mod_name, fn_name, span_name, count_name, counter in INSTRUMENTED:
            module = importlib.import_module(f"parasitometrics.{mod_name}")
            original = getattr(module, fn_name)
            rebind(original, self._wrap(original, span_name, count_name, counter))

    def _wrap(self, fn, span_name, count_name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(span_name, fn, *args, **kwargs)
            if count_name is not None:
                self.count(count_name, counter(result))
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def trace_memory(peaks: dict[str, float]) -> None:
    """Wrap each ingest function so that its call runs under ``tracemalloc``
    and raises ``peaks[metric]`` to the call's peak (MB)."""
    from parasitometrics import datamodel

    for fn_name, metric in MEMORY_PEAKS:
        original = getattr(datamodel, fn_name)

        @functools.wraps(original)
        def measured(*args, _fn=original, _metric=metric, **kwargs):
            tracemalloc.start()
            try:
                return _fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                peaks[_metric] = max(peaks[_metric], peak)

        rebind(original, measured)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--phase", choices=("setup", "command", "memory"), required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    w = workloads(args.scale)[args.workload]
    if args.phase == "setup":
        commands = [c.cli_args(args.seed) for c in w.setup]
        Path("replay").mkdir(exist_ok=True)
        os.chdir("replay")
    else:
        commands = [list(w.command)]

    tracer = Tracer()
    root = tracer.begin(args.phase)
    cli = tracer.call("cli.import", importlib.import_module, "parasitometrics.cli")
    peaks = {metric: 0.0 for _, metric in MEMORY_PEAKS}
    if args.phase == "memory":
        trace_memory(peaks)
    else:
        tracer.instrument()
    for argv in commands:
        cli.main.main(argv, prog_name="parasitometrics", standalone_mode=False)
    tracer.end(root)
    if args.phase == "memory":
        print(json.dumps(peaks))
    else:
        tracer.dump(args.spans)


if __name__ == "__main__":
    main()
