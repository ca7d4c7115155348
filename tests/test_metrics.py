import numpy as np
import pytest

from parasitometrics.calibration import OperatingPoint
from parasitometrics.datamodel import GroundTruth
from parasitometrics.errors import DegenerateDataError, InputError
from parasitometrics.metrics import (
    fpr_distribution,
    patient_level_sens_spec,
    pooled_object_sensitivity,
    sensitivity_distribution,
)

from conftest import make_cohort, make_patient


class TestFprDistribution:
    def test_per_cv_rescaling(self):
        cohort = make_cohort(
            make_patient("n1", distractor_scores=(0.9,) * 12, volume=0.1)
        )
        dist = fpr_distribution(cohort, 0.5)
        assert dist.per_patient == {"n1": pytest.approx(120.0)}

    def test_threshold_one_passes_nothing(self):
        cohort = make_cohort(make_patient("n1", distractor_scores=(0.99, 0.5)))
        dist = fpr_distribution(cohort, 1.0)
        assert dist.per_patient["n1"] == 0.0

    def test_all_positive_cohort_raises(self):
        cohort = make_cohort(
            make_patient("p1", positive=True, parasite_scores=(0.9,))
        )
        with pytest.raises(DegenerateDataError, match="no negative patients for FPR distribution"):
            fpr_distribution(cohort, 0.5, negatives_only=True)

    def test_positives_included_with_warning(self):
        cohort = make_cohort(
            make_patient("n1", distractor_scores=(0.9,)),
            make_patient("p1", positive=True, parasite_scores=(0.9,),
                         distractor_scores=(0.8,)),
        )
        dist = fpr_distribution(cohort, 0.5, negatives_only=False)
        assert set(dist.per_patient) == {"n1", "p1"}
        assert dist.warnings

    def test_monotone_in_C(self, mixed_cohort):
        for c1, c2 in [(0.0, 0.3), (0.3, 0.7), (0.7, 1.0)]:
            d1 = fpr_distribution(mixed_cohort, c1)
            d2 = fpr_distribution(mixed_cohort, c2)
            for pid in d1.per_patient:
                assert d1.per_patient[pid] >= d2.per_patient[pid]


class TestSensitivityDistribution:
    def test_fraction_detected(self):
        cohort = make_cohort(
            make_patient(
                "p1", positive=True, parasite_scores=(0.9,) * 8 + (0.1,) * 2
            )
        )
        dist = sensitivity_distribution(cohort, 0.5)
        assert dist.per_patient["p1"] == pytest.approx(0.8)

    def test_zero_threshold_gives_one(self, mixed_cohort):
        dist = sensitivity_distribution(mixed_cohort, 0.0)
        assert all(v == 1.0 for v in dist.per_patient.values())

    def test_zero_parasite_positive_excluded(self):
        cohort = make_cohort(
            make_patient("p1", positive=True, parasitemia=10.0,
                         distractor_scores=(0.4,)),
            make_patient("p2", positive=True, parasite_scores=(0.9,)),
        )
        dist = sensitivity_distribution(cohort, 0.5)
        assert "p1" not in dist.per_patient
        assert dist.excluded == ("p1",)

    def test_monotone_in_C(self, mixed_cohort):
        prev = sensitivity_distribution(mixed_cohort, 0.0)
        for c in (0.2, 0.5, 0.8, 1.0):
            cur = sensitivity_distribution(mixed_cohort, c)
            for pid in cur.per_patient:
                assert cur.per_patient[pid] <= prev.per_patient[pid]
            prev = cur


class TestPooledSensitivity:
    def test_imbalanced_cohort_paper_example(self):
        big = make_patient("p1", positive=True, parasitemia=50_000,
                           parasite_scores=(0.9,) * 50_000)
        small = [
            make_patient(f"p{i}", positive=True, parasitemia=300,
                         parasite_scores=(0.1,) * 300)
            for i in (2, 3, 4)
        ]
        cohort = make_cohort(big, *small)
        pooled = pooled_object_sensitivity(cohort, 0.5)
        assert pooled.value == pytest.approx(50_000 / 50_900, abs=1e-12)
        assert pooled.imbalance_warning is not None
        strat = patient_level_sens_spec(cohort, OperatingPoint(C=0.5, T=1.0))
        assert strat.overall == 0.25

    def test_single_patient_equals_per_patient(self):
        cohort = make_cohort(
            make_patient("p1", positive=True, parasite_scores=(0.9, 0.9, 0.1))
        )
        pooled = pooled_object_sensitivity(cohort, 0.5)
        per = sensitivity_distribution(cohort, 0.5)
        assert pooled.value == per.per_patient["p1"]

    def test_equal_patients_average(self):
        cohort = make_cohort(
            make_patient("p1", positive=True, parasite_scores=(0.9, 0.9)),
            make_patient("p2", positive=True, parasite_scores=(0.1, 0.1)),
        )
        assert pooled_object_sensitivity(cohort, 0.5).value == pytest.approx(0.5)

    def test_no_parasites_raises(self):
        cohort = make_cohort(make_patient("n1", distractor_scores=(0.5,)))
        with pytest.raises(DegenerateDataError, match="cohort contains no parasite objects"):
            pooled_object_sensitivity(cohort, 0.5)

    def test_weighted_mean_identity(self):
        # pooled sensitivity == parasite-count-weighted mean of per-patient values
        rng = np.random.default_rng(3)
        patients = []
        for i in range(12):
            n = int(rng.integers(1, 40))
            scores = rng.uniform(0, 1, size=n)
            patients.append(
                make_patient(f"p{i}", positive=True, parasite_scores=tuple(scores))
            )
        cohort = make_cohort(*patients)
        for c in (0.1, 0.5, 0.9):
            per = sensitivity_distribution(cohort, c)
            weights = {p.patient_id: p.n_parasite_objects for p in cohort}
            weighted = sum(
                per.per_patient[pid] * weights[pid] for pid in per.per_patient
            ) / sum(weights.values())
            assert pooled_object_sensitivity(cohort, c).value == pytest.approx(
                weighted, abs=1e-12
            )


class TestPatientDiagnoses:
    def test_inclusive_rule(self):
        p = make_patient("p1", positive=True, parasite_scores=(0.9,) * 5)
        cohort = make_cohort(p)
        assert patient_level_sens_spec(cohort, OperatingPoint(C=0.5, T=5.0)).overall == 1.0

    def test_zero_threshold_all_positive(self, mixed_cohort):
        strat = patient_level_sens_spec(mixed_cohort, OperatingPoint(C=0.5, T=0.0))
        assert (strat.overall, strat.specificity) == (1.0, 0.0)

    def test_empty_patient_negative(self):
        cohort = make_cohort(make_patient("n1"))
        strat = patient_level_sens_spec(cohort, OperatingPoint(C=0.5, T=1.0))
        assert strat.specificity == 1.0


class TestPatientLevelSensSpec:
    def test_specificity_only_negatives(self, mixed_cohort):
        op = OperatingPoint(C=0.5, T=100.0)
        spec = patient_level_sens_spec(mixed_cohort, op).specificity
        assert spec == 1.0  # no negative reaches 100 FPs per cV

    def test_specificity_absent_without_negatives(self):
        cohort = make_cohort(
            make_patient("p1", positive=True, parasite_scores=(0.9,))
        )
        spec = patient_level_sens_spec(cohort, OperatingPoint(C=0.5, T=1.0)).specificity
        assert spec is None

    def test_stratified_bins(self):
        patients = [
            make_patient("a", positive=True, parasitemia=100.0,
                         parasite_scores=(0.9,) * 5),
            make_patient("b", positive=True, parasitemia=500.0,
                         parasite_scores=(0.1,) * 5),
            make_patient("c", positive=True, parasitemia=800.0,
                         parasite_scores=(0.1,) * 5),
            make_patient("d", positive=True, parasitemia=900.0,
                         parasite_scores=(0.9,) * 5),
        ]
        cohort = make_cohort(*patients)
        strat = patient_level_sens_spec(cohort, OperatingPoint(C=0.5, T=1.0), (200.0,))
        assert strat.bins == ((0.0, 200.0), (200.0, float("inf")))
        by_label = {s.label: s for s in strat.parasitemia_strata}
        assert by_label["(0, 200]"].value == 1.0
        assert by_label["(200, inf]"].value == pytest.approx(1 / 3)

    # the bins run from 0 to inf between the interior edges, so they tile only
    # if the edges are finite, positive and strictly ascending
    @pytest.mark.parametrize("bins", [
        (100.0, 50.0),           # descending
        (50.0, 50.0),            # repeated
        (0.0, 5.0),              # not positive
        (float("nan"),),         # not finite
        (50.0, float("inf")),    # the last bin already ends at inf
    ])
    def test_bins_must_tile(self, mixed_cohort, bins):
        with pytest.raises(InputError,
                           match="bin edges must be finite, positive and strictly ascending"):
            patient_level_sens_spec(mixed_cohort, OperatingPoint(C=0.5, T=1.0), bins)

    def test_sens_spec_move_oppositely_in_T(self, mixed_cohort):
        prev_sens, prev_spec = None, None
        for t in (0.0, 1.0, 2.0, 5.0, 100.0):
            strat = patient_level_sens_spec(mixed_cohort, OperatingPoint(C=0.3, T=t))
            if prev_sens is not None:
                assert strat.overall <= prev_sens
                assert strat.specificity >= prev_spec
            prev_sens, prev_spec = strat.overall, strat.specificity

    def test_specificity_ignores_positives(self, mixed_cohort):
        op = OperatingPoint(C=0.3, T=2.0)
        spec_before = patient_level_sens_spec(mixed_cohort, op).specificity
        mutated = make_cohort(
            *[p for p in mixed_cohort if p.ground_truth is GroundTruth.NEGATIVE],
            make_patient("pos1", positive=True, parasitemia=1.0,
                         parasite_scores=(0.99,) * 30),
            make_patient("pos2", positive=True, parasitemia=1.0),
        )
        spec_after = patient_level_sens_spec(mutated, op).specificity
        assert spec_before == spec_after

    def test_species_strata(self, mixed_cohort):
        strat = patient_level_sens_spec(mixed_cohort, OperatingPoint(C=0.5, T=0.5))
        labels = {s.label for s in strat.species_strata}
        assert labels == {"pf", "pv"}

