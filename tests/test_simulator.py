import functools
import math

import numpy as np
import pytest
from scipy.special import betainc

from parasitometrics import simulator
from parasitometrics.datamodel import GroundTruth, Species
from parasitometrics.errors import InputError
from parasitometrics.metrics import (
    fpr_distribution,
    pooled_object_sensitivity,
    sensitivity_distribution,
)
from parasitometrics.simulator import (
    Beta,
    Fixed,
    LogUniform,
    SimConfig,
    TruncatedNormal,
    generate_cohort,
    paper_worked_examples,
    solve_beta_a,
    who56_preset,
)

from conftest import object_rows
from test_json_writer_oracle import cohort_to_json_doc


class TestDeterminism:
    def test_same_seed_identical_output(self):
        a = generate_cohort(SimConfig(seed=42, n_negative=5, n_positive=5))
        b = generate_cohort(SimConfig(seed=42, n_negative=5, n_positive=5))
        assert cohort_to_json_doc(a) == cohort_to_json_doc(b)

    def test_different_seeds_differ(self):
        a = generate_cohort(SimConfig(seed=1, n_negative=5, n_positive=5))
        b = generate_cohort(SimConfig(seed=2, n_negative=5, n_positive=5))
        assert cohort_to_json_doc(a) != cohort_to_json_doc(b)

    def test_patient_substreams_order_independent(self):
        # a patient's draws depend only on (seed, index), so shrinking the
        # cohort must not change the patients that remain
        big = generate_cohort(SimConfig(seed=7, n_negative=6, n_positive=0))
        small = generate_cohort(SimConfig(seed=7, n_negative=3, n_positive=0))
        for p_small, p_big in zip(small.patients, big.patients):
            assert p_small == p_big


class TestStructure:
    def test_counts_and_ids(self):
        cohort = generate_cohort(SimConfig(seed=0, n_negative=3, n_positive=4))
        assert len(cohort.negatives) == 3
        assert len(cohort.positives) == 4
        assert [p.patient_id for p in cohort.negatives] == [
            "neg0000", "neg0001", "neg0002"
        ]
        assert all(p.species is Species.NONE for p in cohort.negatives)
        assert all(p.true_parasitemia > 0 for p in cohort.positives)
        assert "seed=0" in cohort.provenance

    def test_negatives_only_cohort(self):
        cohort = generate_cohort(SimConfig(seed=3, n_negative=4, n_positive=0))
        assert len(cohort.patients) == 4
        assert all(p.ground_truth is GroundTruth.NEGATIVE for p in cohort.patients)

    def test_who56_preset(self):
        cfg = who56_preset(seed=5)
        assert (cfg.n_negative, cfg.n_positive) == (20, 20)
        assert cfg.examined_volume == 0.1
        assert cfg.parasitemia_dist == LogUniform(80.0, 200.0)
        cohort = generate_cohort(cfg)
        assert len(cohort.patients) == 40
        for p in cohort.positives:
            assert 80.0 <= p.true_parasitemia <= 200.0

    def test_generated_cohort_passes_datamodel_validation(self):
        # CohortDataset/PatientRecord enforce their invariants on construction;
        # round-tripping through the JSON doc re-validates everything
        cohort = generate_cohort(SimConfig(seed=9, n_negative=5, n_positive=5))
        doc = cohort_to_json_doc(cohort)
        assert doc["cv_description"] == "1 uL blood (simulated)"
        assert len(doc["patients"]) == 10

    def test_invalid_configs(self):
        with pytest.raises(InputError, match="cohort must contain at least one patient"):
            SimConfig(n_negative=0, n_positive=0)
        with pytest.raises(InputError, match="examined_volume must be finite and > 0, got 0.0"):
            SimConfig(examined_volume=0.0)
        with pytest.raises(InputError, match=r"log-uniform bounds \(10.0, 5.0\) invalid"):
            LogUniform(10.0, 5.0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(InputError, match="seed"):
            SimConfig(seed=seed)

    def test_numpy_integer_seed_is_accepted(self):
        assert generate_cohort(SimConfig(seed=np.int64(3), n_negative=1, n_positive=1)) == \
            generate_cohort(SimConfig(seed=3, n_negative=1, n_positive=1))

    @pytest.mark.parametrize("field", ["examined_volume", "background_distractor_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_config_is_rejected(self, field, value):
        with pytest.raises(InputError, match=field):
            SimConfig(**{field: value})

    def test_poisson_mean_too_large_is_invalid_config(self):
        with pytest.raises(InputError, match="Poisson"):
            generate_cohort(SimConfig(n_negative=1, n_positive=0, examined_volume=1e300))


class TestSolveBetaA:
    def test_tail_probability_exact(self):
        for target in (0.1, 0.5, 0.8, 0.99):
            a = solve_beta_a(target, 2.0)
            tail = 1.0 - betainc(a, 2.0, 0.5)
            assert tail == pytest.approx(target, abs=1e-9)

    def test_monotone_in_target(self):
        a_low = solve_beta_a(0.2, 2.0)
        a_high = solve_beta_a(0.9, 2.0)
        assert a_high > a_low

    @pytest.mark.parametrize("s", [0.0, 1e-12])
    def test_unreachable_target_is_invalid_config(self, s):
        # no a in [1e-8, 1e8] puts a tail this small above 0.5 when b = 2
        cfg = SimConfig(n_negative=0, n_positive=1, patient_sensitivity_dist=Fixed(s))
        with pytest.raises(InputError, match=rf"b=2\.0\) for Pr\[score >= 0\.5\] = {s} "
                                                r".*: no sign change"):
            generate_cohort(cfg)

    def test_no_convergence_is_invalid_config(self, monkeypatch):
        monkeypatch.setattr(simulator, "_brent", functools.partial(simulator._brent, maxiter=2))
        with pytest.raises(InputError, match=r"= 0\.8 .*: no convergence after 2 iter"):
            solve_beta_a(0.8, 2.0)


class TestStatisticalOracles:
    def test_fpr_moments_match_compound_model(self):
        # per-patient FPR at C=0.5 is (Poisson count)/V with rate drawn from
        # TruncatedNormal(50, 20); compound variance = sigma^2 + mu/V
        v = 1.0
        cfg = SimConfig(
            seed=101,
            n_negative=10_000,
            n_positive=0,
            examined_volume=v,
            fpr_dist=TruncatedNormal(50.0, 20.0),
        )
        cohort = generate_cohort(cfg)
        dist = fpr_distribution(cohort, C=0.5)
        predicted_std = math.sqrt(20.0**2 + 50.0 / v)
        assert dist.summary.mean == pytest.approx(50.0, rel=0.03)
        assert dist.summary.std == pytest.approx(predicted_std, rel=0.03)

    def test_realized_sensitivity_converges(self):
        cfg = SimConfig(
            seed=102,
            n_negative=0,
            n_positive=2_000,
            parasitemia_dist=Fixed(200.0),
            patient_sensitivity_dist=Fixed(0.75),
            background_distractor_rate=0.0,
            fpr_dist=Fixed(0.0),
        )
        cohort = generate_cohort(cfg)
        pooled = pooled_object_sensitivity(cohort, C=0.5)
        assert pooled.value == pytest.approx(0.75, abs=0.02)
        dist = sensitivity_distribution(cohort, C=0.5)
        assert dist.summary.mean == pytest.approx(0.75, abs=0.02)

    def test_distractor_scores_split_at_reference_threshold(self):
        # with fpr_dist fixed at 0 every distractor must score below 0.5
        cfg = SimConfig(
            seed=103, n_negative=50, n_positive=0,
            fpr_dist=Fixed(0.0), background_distractor_rate=200.0,
        )
        cohort = generate_cohort(cfg)
        scores = [score for p in cohort.patients for _, score, _ in object_rows(p)]
        assert scores and all(s < 0.5 for s in scores)
        # and the converse: no background means every distractor scores >= 0.5
        cfg_hi = SimConfig(
            seed=103, n_negative=50, n_positive=0,
            fpr_dist=Fixed(200.0), background_distractor_rate=0.0,
        )
        hi_scores = [
            score for p in generate_cohort(cfg_hi).patients
            for _, score, _ in object_rows(p)
        ]
        assert hi_scores and all(s >= 0.5 for s in hi_scores)

    def test_parasite_count_is_poisson_in_volume(self):
        cfg = SimConfig(
            seed=104, n_negative=0, n_positive=5_000,
            parasitemia_dist=Fixed(40.0), examined_volume=0.5,
            fpr_dist=Fixed(0.0), background_distractor_rate=0.0,
        )
        cohort = generate_cohort(cfg)
        counts = np.array([p.n_parasite_objects for p in cohort.patients])
        assert counts.mean() == pytest.approx(20.0, rel=0.03)
        assert counts.var() == pytest.approx(20.0, rel=0.10)


class TestWorkedExampleFixtures:
    def test_fixture_names_and_shapes(self):
        examples = {e["name"]: e for e in paper_worked_examples()}
        assert set(examples) == {"patient-level", "precision", "auc-imbalance"}
        pl = examples["patient-level"]["cohort"]
        assert len(pl.patients) == 4
        assert examples["patient-level"]["expected"]["patient_level_sensitivity"] == 0.25
        auc = examples["auc-imbalance"]["cohort"].patients[0]
        assert auc.n_parasite_objects == 1
        assert len(auc.distractor_scores) == 50_000

    def test_fixtures_are_deterministic(self):
        a = paper_worked_examples()
        b = paper_worked_examples()
        for ea, eb in zip(a, b):
            assert cohort_to_json_doc(ea["cohort"]) == cohort_to_json_doc(eb["cohort"])
