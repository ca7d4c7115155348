"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout (about two minutes on 2 CPUs). It checks that

1. BENCHMARK.json lists the workloads and metrics that run.py reports;
2. the output check accepts additive changes (new keys, columns, rows, rows
   whose status is not ok) and rejects a changed value, on recorded outputs;
3. a traced smoke run of every workload on tiny cohorts passes and prints
   every per-layer metric, and an untraced one every end-to-end metric;
4. a timed loop whose outputs are altered after each command counts each run
   failed;
5. a timed loop whose commands overrun their budget counts each one failed;
6. the benchmark exits nonzero, printing no result, in a directory that holds
   only BENCHMARK.json and the benchmark's files.

Exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import shutil
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import outcheck
from run import END_TO_END, PER_LAYER, Runner, measure
from workloads import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
    if not ok:
        failures.append(what)


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stdout


def check_manifest() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    expect({w["name"] for w in doc["workloads"]} == set(workloads())
           and {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
           and {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER,
           "BENCHMARK.json names the workloads and metrics that run.py reports")


def check_comparison() -> None:
    with open(HERE / "reference" / "tune_400-seed0.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    with open(HERE / "reference" / "evaluate_curves_40-seed0.json", encoding="utf-8") as fh:
        ref_eval = json.load(fh)
    expect(outcheck.compare(ref, ref) == [], "a reference matches itself")

    # Rewrite the recorded tuning table with a status column, one skipped C
    # and an extra stdout line, as a later diagnostics change would.
    work = ROOT / ".perfbench_work" / "selftest-check"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rows = list(ref["files"]["tune.csv"][outcheck.ROWS].values())
        columns = list(rows[0]) + ["status"]
        with open(work / "tune.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, columns)
            writer.writeheader()
            writer.writerows(dict(r, status="ok") for r in rows)
            writer.writerow({"C": "0.999", "status": "skipped: no negative passes"})
        stdout = "\n".join(list(ref["stdout"][outcheck.ROWS]) + ["note: 1 C skipped"])
        grown = outcheck.output_tree(work, stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    grown_eval = copy.deepcopy(ref_eval)
    grown_eval["files"]["report.json"]["diagnostics"] = {"excluded_patients": []}
    grown_eval["files"]["diagnostics.csv"] = []
    expect(outcheck.compare(ref, grown) == [] and outcheck.compare(ref_eval, grown_eval) == [],
           "added keys, files, columns, lines and non-ok status rows are ignored")
    expect(outcheck.compare(outcheck.shape(ref), outcheck.shape(grown)) == [],
           "the structure check accepts the same additions")

    altered = copy.deepcopy(ref)
    first = next(iter(altered["files"]["tune.csv"][outcheck.ROWS].values()))
    first["LoD"] = repr(math.nextafter(float(first["LoD"]), math.inf))
    expect(outcheck.compare(ref, altered) != [], "a value changed in its last bit fails")

    altered = copy.deepcopy(ref_eval)
    altered["files"]["curve_froc.csv"]["$sha256"] = "0" * 64
    expect(outcheck.compare(ref_eval, altered) != [], "a changed curve fails")


def check_smoke() -> None:
    for name in workloads("tiny"):
        code, result, _ = bench("--workload", name, "--seed", "7", "--seconds", "0",
                                "--trace", "1", "--scale", "tiny")
        ok = (code == 0 and result is not None and result["correct"]
              and result["failed"] == 0 and set(result["metrics"]) == set(PER_LAYER))
        expect(ok, f"traced smoke run of {name} on tiny cohorts")
    code, result, _ = bench("--workload", "tune_400", "--seed", "7", "--seconds", "0",
                            "--scale", "tiny")
    expect(code == 0 and result is not None and result["correct"]
           and set(result["metrics"]) == set(END_TO_END),
           "untraced smoke run reports every end-to-end metric")


@contextmanager
def runner_in(name: str):
    work = ROOT / ".perfbench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield Runner(ROOT, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def alter_one_value(out_dir: Path) -> None:
    """Change the last digit of the first number in the first output file."""
    path = sorted(p for p in out_dir.rglob("*") if p.is_file())[0]
    text = path.read_text()
    i = next(i for i, ch in enumerate(text) if ch.isdigit())
    while i + 1 < len(text) and text[i + 1].isdigit():
        i += 1
    path.write_text(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])


class AlteringChecker(outcheck.Checker):
    def check(self, out_dir: Path, stdout: str) -> list[str]:
        alter_one_value(out_dir)
        return super().check(out_dir, stdout)


def check_faults() -> None:
    def quiet(line: str) -> None:
        pass

    # reproduce_paper's reference holds for every seed and scale, so values are checked.
    w = workloads()["reproduce_paper"]
    checker = AlteringChecker(HERE / "reference", w.name, 0)
    with runner_in("selftest-alter") as runner:
        _, samples, _, failed = measure(runner, w, 3, checker, 0, quiet)
    expect(len(failed) == len(samples) >= 1,
           "an altered output value is reported as a failure")

    w = workloads("tiny")["evaluate_curves_40"]
    checker = outcheck.Checker(HERE / "reference", w.name, None)
    with runner_in("selftest-overrun") as runner:
        _, samples, _, failed = measure(runner, replace(w, budget_s=0.01), 3, checker, 0,
                                        quiet)
    expect(len(failed) == len(samples) >= 1 and all("killed" in f for f in failed),
           "a budget overrun is killed and counted as a failed run")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                               "tune_400", "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        printed_result = any(ln.startswith("{") for ln in proc.stdout.splitlines())
        expect(proc.returncode != 0 and not printed_result,
               "exits nonzero without a result where src/ is absent")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_manifest()
    check_comparison()
    check_smoke()
    check_faults()
    check_bare_directory()
    print(f"{len(failures)} self-test check(s) failed" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
