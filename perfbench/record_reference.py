"""Record every workload's outputs at the reference seeds as the check's reference.

    python3 perfbench/record_reference.py

Run from the root of a checkout of the commit whose outputs become the
reference. Writes ``perfbench/reference/<workload>-seed<N>.json``;
``reproduce_paper`` takes no seeded input, so it has one reference for all
seeds.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import outcheck
from run import HERE, BenchError, Runner, _cli, _fresh_dir, setup_once
from workloads import REFERENCE_SEEDS, workloads


def main() -> int:
    root = Path.cwd()
    ref_dir = HERE / "reference"
    ref_dir.mkdir(exist_ok=True)
    for w in workloads().values():
        seeds = REFERENCE_SEEDS[:1] if w.kind == "reproduce" else REFERENCE_SEEDS
        for seed in seeds:
            work = root / ".perfbench_work" / f"record-{w.name}-seed{seed}"
            _fresh_dir(work)
            try:
                runner = Runner(root, work)
                setup_once(runner, w, seed, work)
                _fresh_dir(work / "out")
                o = runner.run(_cli(w.command), w.budget_s)
                if o.error:
                    print(f"error: {w.name}: {o.error}", file=sys.stderr)
                    return 1
                tree = outcheck.output_tree(work / "out", o.stdout)
            except BenchError as exc:
                print(f"error: {w.name}: {exc}", file=sys.stderr)
                return 1
            finally:
                shutil.rmtree(work, ignore_errors=True)
            path = ref_dir / f"{w.name}-seed{seed}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(tree, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"{path.relative_to(root)}: {o.wall_s:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
