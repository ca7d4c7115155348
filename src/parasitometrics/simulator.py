"""Seeded Monte-Carlo cohort generator.

Realizes the statistical model the metrics assume: each patient draws a
parasitemia P, a species, an object-level sensitivity s, and an FPR rate f;
object counts are Poisson in the examined volume (parasites ~ Poisson(P*V),
high-scoring distractors ~ Poisson(f*V), background low-scoring distractors
~ Poisson(bg*V)).

Score model: scores live on [0, 1] and 0.5 is the reference threshold. Each
parasite score is drawn from a beta(a, 2) whose ``a`` is solved (Brent's
method on the regularized incomplete beta) so that Pr[score >= 0.5] = s; the
realized per-patient sensitivity at C = 0.5 is then binomial around s.
Distractor scores above/below 0.5 are drawn from Beta(2, 4) conditioned to
the matching half, via inverse-CDF sampling in the tail.

Determinism: each patient uses an independent substream derived from
numpy's SeedSequence(seed, spawn_key=(patient_index,)), so output is
byte-identical for a fixed config regardless of generation order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._ufuncs import betainc, betaincinv, brentq, load_generator
from .datamodel import CohortDataset, GroundTruth, PatientRecord, SerialIds, Species
from .errors import InputError

Generator, PCG64, SeedSequence = load_generator()

REFERENCE_THRESHOLD = 0.5


# --- distribution specs -------------------------------------------------------

@dataclass(frozen=True)
class Fixed:
    """A distribution that always draws ``value``."""
    value: float


@dataclass(frozen=True)
class LogUniform:
    """A distribution whose log is uniform between log(lo) and log(hi)."""
    lo: float
    hi: float

    def __post_init__(self):
        if not (0 < self.lo <= self.hi):
            raise InputError(f"log-uniform bounds ({self.lo}, {self.hi}) invalid")


@dataclass(frozen=True)
class TruncatedNormal:
    """Normal(mu, sigma) with draws resampled/clipped at 0."""

    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise InputError("sigma must be >= 0")


@dataclass(frozen=True)
class Beta:
    """The Beta(a, b) distribution."""
    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise InputError("beta parameters must be > 0")


PARASITE_SCORE_B = 2.0                  # Beta(a, 2), a re-solved per patient
DISTRACTOR_SCORE_DIST = Beta(2.0, 4.0)
_DISTRACTOR_CDF_HALF = float(betainc(DISTRACTOR_SCORE_DIST.a, DISTRACTOR_SCORE_DIST.b,
                                     REFERENCE_THRESHOLD))  # Pr[distractor score < 0.5]


def _draw_positive_rate(spec, rng: Generator) -> float:
    if isinstance(spec, Fixed):
        return max(spec.value, 0.0)
    if isinstance(spec, TruncatedNormal):
        return max(float(rng.normal(spec.mu, spec.sigma)), 0.0)
    if isinstance(spec, LogUniform):
        return float(np.exp(rng.uniform(math.log(spec.lo), math.log(spec.hi))))
    raise InputError(f"unsupported distribution spec {spec!r}")


def _draw_sensitivity(spec, rng: Generator) -> float:
    if isinstance(spec, Fixed):
        if not (0.0 <= spec.value <= 1.0):
            raise InputError("fixed sensitivity must be in [0, 1]")
        return spec.value
    if isinstance(spec, Beta):
        return float(rng.beta(spec.a, spec.b))
    raise InputError(f"unsupported sensitivity spec {spec!r}")


SPECIES_MIX = {
    Species.FALCIPARUM: 0.6,
    Species.VIVAX: 0.25,
    Species.OVALE: 0.05,
    Species.MALARIAE: 0.05,
    Species.KNOWLESI: 0.03,
    Species.MIXED: 0.02,
}


@dataclass(frozen=True)
class SimConfig:
    """A simulated cohort: seed, patient counts, examined volume and the distributions it draws."""
    seed: int = 0
    n_negative: int = 20
    n_positive: int = 20
    examined_volume: float = 1.0
    parasitemia_dist: object = LogUniform(80.0, 200.0)
    fpr_dist: object = TruncatedNormal(50.0, 20.0)
    patient_sensitivity_dist: object = Beta(8.0, 2.0)
    background_distractor_rate: float = 100.0      # low-score distractors per cV

    def __post_init__(self):
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise InputError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.n_negative < 0 or self.n_positive < 0:
            raise InputError("patient counts must be >= 0")
        if self.n_negative + self.n_positive == 0:
            raise InputError("cohort must contain at least one patient")
        if not (math.isfinite(self.examined_volume) and self.examined_volume > 0):
            raise InputError(f"examined_volume must be finite and > 0, "
                             f"got {self.examined_volume!r}")
        if not (math.isfinite(self.background_distractor_rate)
                and self.background_distractor_rate >= 0):
            raise InputError(f"background_distractor_rate must be finite and >= 0, "
                             f"got {self.background_distractor_rate!r}")


def solve_beta_a(target_tail: float, b: float) -> float:
    """Solve a so that Pr[Beta(a, b) >= 0.5] = target_tail (monotone in a).

    ``a`` is searched in [1e-8, 1e8]; InputError if the root is not found there.
    """
    t = min(max(target_tail, 1e-9), 1.0 - 1e-9)

    def gap(log_a: float) -> float:
        a = math.exp(log_a)
        return float(1.0 - betainc(a, b, REFERENCE_THRESHOLD)) - t

    lo, hi = math.log(1e-8), math.log(1e8)
    try:
        return math.exp(brentq(gap, lo, hi, xtol=1e-12, rtol=1e-12))
    except (RuntimeError, ValueError) as exc:
        raise InputError(f"cannot solve Beta(a, b={b}) for Pr[score >= 0.5] = "
                         f"{target_tail} with a in [1e-8, 1e8]: {exc}") from None


def _tail_scores(n: int, rng: Generator, upper: bool) -> np.ndarray:
    """Draw n distractor scores conditioned to one side of 0.5."""
    if n == 0:
        return np.empty(0)
    if upper:
        u = rng.uniform(_DISTRACTOR_CDF_HALF, 1.0, size=n)
    else:
        u = rng.uniform(0.0, _DISTRACTOR_CDF_HALF, size=n)
    return np.clip(betaincinv(DISTRACTOR_SCORE_DIST.a, DISTRACTOR_SCORE_DIST.b, u), 0.0, 1.0)


def _poisson(rng: Generator, lam: float) -> int:
    try:
        return int(rng.poisson(lam))
    except ValueError as exc:  # numpy rejects a NaN, negative or too large mean
        raise InputError(f"cannot draw a Poisson count with mean {lam!r}: {exc}") from None


def generate_cohort(cfg: SimConfig) -> CohortDataset:
    """Generate a synthetic cohort; deterministic for a fixed config.

    Negatives come first, then positives. A negative draws f; a positive
    draws P, its species, s, f and its parasites. Each then draws its high-
    and low-scoring distractors.
    """
    species_labels = list(SPECIES_MIX.keys())
    species_weights = list(SPECIES_MIX.values())
    v = cfg.examined_volume

    patients = []
    for i in range(cfg.n_negative + cfg.n_positive):
        rng = Generator(PCG64(SeedSequence(cfg.seed, spawn_key=(i,))))
        positive = i >= cfg.n_negative
        if positive:
            pid = f"pos{i - cfg.n_negative:04d}"
            parasitemia = _draw_positive_rate(cfg.parasitemia_dist, rng)
            if parasitemia <= 0:
                parasitemia = 1e-9  # positive patients must have P > 0
            sp = species_labels[int(rng.choice(len(species_labels), p=species_weights))]
            s = _draw_sensitivity(cfg.patient_sensitivity_dist, rng)
        else:
            pid, parasitemia, sp = f"neg{i:04d}", 0.0, Species.NONE
        f = _draw_positive_rate(cfg.fpr_dist, rng)
        n_parasites, parasite_scores = 0, np.empty(0)
        if positive:
            n_parasites = _poisson(rng, parasitemia * v)
            a = solve_beta_a(s, PARASITE_SCORE_B)
            parasite_scores = np.clip(rng.beta(a, PARASITE_SCORE_B, size=n_parasites), 0.0, 1.0)
        n_high = _poisson(rng, f * v)
        n_low = _poisson(rng, cfg.background_distractor_rate * v)
        scores = np.concatenate([
            parasite_scores,
            _tail_scores(n_high, rng, upper=True),
            _tail_scores(n_low, rng, upper=False),
        ])
        groups = [(f"{pid}-p", n_parasites, 5)] if positive else []
        patients.append(
            PatientRecord(
                patient_id=pid,
                ground_truth=GroundTruth.POSITIVE if positive else GroundTruth.NEGATIVE,
                species=sp,
                true_parasitemia=parasitemia,
                examined_volume=v,
                object_ids=SerialIds([*groups, (f"{pid}-d", n_high + n_low, 5)]),
                scores=scores,
                is_parasite=np.repeat([True, False], [n_parasites, n_high + n_low]),
            )
        )

    return CohortDataset(
        cv_description="1 uL blood (simulated)",
        patients=tuple(patients),
        provenance=f"simulator(seed={cfg.seed})",
    )


def who56_preset(seed: int = 0) -> SimConfig:
    """Config mirroring the diagnosis portion of the WHO 56 slide set.

    20 negative and 20 positive slides, positive parasitemias log-uniform in
    [80, 200] per cV. The full WHO set also covers species-ID and
    quantitation slides; only the diagnosis distribution is modeled here.
    """
    return SimConfig(
        seed=seed,
        n_negative=20,
        n_positive=20,
        examined_volume=0.1,
        parasitemia_dist=LogUniform(80.0, 200.0),
    )


def _uniform_patient(pid, gt, species, parasitemia, volume, *groups):
    """A patient whose objects come in ``(tag, n, score, is_parasite)`` groups,
    each ``n`` objects of one score with ids ``{pid}-{tag}{i:06d}``."""
    counts = [n for _, n, _, _ in groups]
    return PatientRecord(
        patient_id=pid,
        ground_truth=gt,
        species=species,
        true_parasitemia=parasitemia,
        examined_volume=volume,
        object_ids=SerialIds([(f"{pid}-{tag}", n, 6) for tag, n, _, _ in groups]),
        scores=np.repeat([score for _, _, score, _ in groups], counts),
        is_parasite=np.repeat([parasite for _, _, _, parasite in groups], counts),
    )


def paper_worked_examples() -> dict[str, dict]:
    """Deterministic fixture cohorts for the three worked examples, by name.

    Each entry carries the cohort, the operating point or parameters to apply,
    and the expected values (computed by hand from the definitions).
    """
    examples = {}

    # 1. pooled vs patient-level sensitivity: one high-parasitemia patient
    #    fully detected, three low-parasitemia patients fully missed.
    p1 = _uniform_patient(
        "pt1", GroundTruth.POSITIVE, Species.FALCIPARUM, 50_000.0, 1.0,
        ("p", 50_000, 0.9, True),
    )
    rest = [
        _uniform_patient(
            f"pt{k}", GroundTruth.POSITIVE, Species.FALCIPARUM, 300.0, 1.0,
            ("p", 300, 0.1, True),
        )
        for k in (2, 3, 4)
    ]
    examples["patient-level"] = {
        "cohort": CohortDataset(
            cv_description="1 uL blood",
            patients=(p1, *rest),
            provenance="worked example: pooled vs patient-level sensitivity",
        ),
        "C": 0.5,
        "T": 1.0,
        "expected": {
            "pooled_sensitivity": 50_000 / 50_900,
            "patient_level_sensitivity": 0.25,
        },
    }

    # 2. precision re-expression: 10,000 TP/cV with 100 FP/cV looks like
    #    precision 0.99, but at LoD parasitemia 100 it is 0.5.
    quant_patient = _uniform_patient(
        "q1", GroundTruth.POSITIVE, Species.FALCIPARUM, 10_000.0, 1.0,
        ("p", 10_000, 0.9, True), ("d", 100, 0.9, False),
    )
    examples["precision"] = {
        "cohort": CohortDataset(
            cv_description="1 uL blood",
            patients=(quant_patient,),
            provenance="worked example: precision re-expression at LoD",
        ),
        "C": 0.5,
        "lod_parasitemia": 100.0,
        "expected": {
            "precision": 10_000 / 10_100,
            "precision_at_lod": 0.5,
        },
    }

    # 3. AUC/imbalance coexistence: 50,000 distractors per parasite; at the
    #    full-sensitivity threshold there are 50 FPs per parasite, yet
    #    AUC = 1 - 50/50,000 = 0.999.
    auc_patient = _uniform_patient(
        "a1", GroundTruth.POSITIVE, Species.FALCIPARUM, 1.0, 1.0,
        ("p", 1, 0.9, True), ("hard", 50, 0.95, False), ("easy", 49_950, 0.1, False),
    )
    examples["auc-imbalance"] = {
        "cohort": CohortDataset(
            cv_description="1 uL blood",
            patients=(auc_patient,),
            provenance="worked example: AUC under 50,000:1 imbalance",
        ),
        "full_sensitivity_threshold": 0.9,
        "expected": {
            "auc": 0.999,
            "fp_per_parasite": 50,
        },
    }

    return examples
