"""The benchmark workloads: seeded set-up and one whole CLI command each.

They are the three whole commands the roadmap names: ``evaluate --curves``,
``tune`` and ``reproduce-paper``.

Every path is relative to the run's working directory, because ``evaluate``
echoes its input path into ``report.json`` (``metadata.provenance``) and every
command echoes its output paths on stdout. Fixed relative paths make those
outputs the same in every checkout.

Budgets are per command run. Each is five to seven times the command's
median on a 2-CPU host at the commit that defined this benchmark, so host
noise (single runs there vary by up to 2x) never trips one, while a
regression to a quadratic or hours-long run is killed and counted as failed.
"""

from __future__ import annotations

from dataclasses import dataclass

# Scale "tiny" shrinks every simulated cohort for the self-test smoke run.
SCALES = ("full", "tiny")

# Default seed and held-out seed whose outputs are recorded in reference/.
REFERENCE_SEEDS = (0, 1)


@dataclass(frozen=True)
class Cohort:
    """One ``parasitometrics simulate`` call (written under ``out``)."""

    out: str
    fmt: str = "csv"
    n_negative: int = 20
    n_positive: int = 20
    volume: float = 1.0
    preset: str = "default"

    def cli_args(self, seed: int) -> list[str]:
        args = ["simulate", "--seed", str(seed), "--preset", self.preset,
                "--out", self.out, "--format", self.fmt]
        if self.preset == "default":
            args += ["--n-negative", str(self.n_negative),
                     "--n-positive", str(self.n_positive),
                     "--volume", repr(self.volume)]
        return args

    def files(self) -> list[str]:
        if self.fmt == "json":
            return [f"{self.out}/cohort.json"]
        return [f"{self.out}/patients.csv", f"{self.out}/objects.csv"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                     # evaluate | tune | reproduce
    setup: tuple[Cohort, ...]
    command: tuple[str, ...]      # CLI arguments after the program name
    budget_s: float
    budget_why: str


_EVAL = ("evaluate", "--patients", "in/patients.csv", "--objects", "in/objects.csv",
         "--C", "0.5", "--spec-target", "0.95", "--format", "csv", "--out", "out")
_TUNE = ("tune", "--train-positives", "tp/cohort.json",
         "--validation-negatives", "vn/cohort.json", "--out", "out/tune.csv")
_REPRODUCE = ("reproduce-paper", "--out", "out")

SETUP_BUDGET_S = 60.0
SETUP_BUDGET_WHY = ("over 20x the slowest simulate call (2.3 s for the 200 training "
                    "positives); set-up is not the timed command")


def _sizes(scale: str) -> dict:
    if scale == "tiny":
        return {"c40": (3, 3, 0.2), "c400": (4, 4, 0.3)}
    return {"c40": (20, 20, 0.35), "c400": (200, 200, 1.0)}


def workloads(scale: str = "full") -> dict[str, Workload]:
    s = _sizes(scale)
    neg40, pos40, vol40 = s["c40"]
    neg400, pos400, vol400 = s["c400"]
    items = [
        Workload(
            name="evaluate_curves_40",
            why=("evaluate --curves on 40 patients at 0.35 cV (~2.9k objects, ~1 FROC "
                 "threshold per object): the only workload where curves do real work"),
            kind="evaluate",
            setup=(Cohort("in", "csv", neg40, pos40, vol40),),
            command=_EVAL + ("--curves",),
            budget_s=30.0,
            budget_why="~6x the 4.7 s median; quadratic froc() takes most of it",
        ),
        Workload(
            name="tune_400",
            why=("tune over the default 101-point C grid on 200+200 patients (~86k objects "
                 "as JSON): the per-threshold counting sweep and JSON ingest"),
            kind="tune",
            setup=(Cohort("tp", "json", 0, pos400, vol400),
                   Cohort("vn", "json", neg400, 0, vol400)),
            command=_TUNE,
            budget_s=30.0,
            budget_why="~7x the 3-4 s median; the sweep grows linearly with grid points",
        ),
        Workload(
            name="reproduce_paper",
            why=("reproduce-paper on fixed inputs: FROC on one patient with 10,100 tied "
                 "scores, the opposite shape to evaluate_curves_40"),
            kind="reproduce",
            # reproduce-paper reads no files. Its set-up simulates the WHO-56 preset,
            # the cohort the bundle itself builds, so setup_s still times the
            # simulator and the JSON writer.
            setup=(Cohort("in", "json", preset="who56"),),
            command=_REPRODUCE,
            budget_s=45.0,
            budget_why="~6x the 7.3 s median; two tie-heavy froc() calls dominate it",
        ),
    ]
    return {w.name: w for w in items}
