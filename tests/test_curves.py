import math

import numpy as np
import pytest

from parasitometrics.curves import (
    easy_distractor_experiment,
    froc,
    object_roc,
    patient_roc,
    precision_with_reexpression,
    sliver_roc,
)
from parasitometrics.errors import DegenerateDataError, InputError
from parasitometrics.metrics import patient_level_sens_spec
from parasitometrics.calibration import OperatingPoint

from conftest import curve_rows, make_cohort, make_patient, object_rows


def trapezoid_auc(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return sum(
        (x2 - x1) * (y1 + y2) / 2.0 for x1, x2, y1, y2 in zip(xs, xs[1:], ys, ys[1:])
    )


class TestObjectRoc:
    def test_perfect_separation(self):
        cohort = make_cohort(
            make_patient("p", positive=True, parasite_scores=(0.8, 0.9),
                         distractor_scores=(0.1, 0.2, 0.3)),
        )
        roc = object_roc(cohort)
        assert roc.auc == 1.0
        assert curve_rows(roc)[0] == (0.0, 0.0, math.inf)
        assert curve_rows(roc)[-1][:2] == (1.0, 1.0)

    def test_identical_scores(self):
        cohort = make_cohort(
            make_patient("p", positive=True, parasite_scores=(0.5, 0.5),
                         distractor_scores=(0.5, 0.5)),
        )
        assert object_roc(cohort).auc == 0.5

    def test_monotone_axes(self, mixed_cohort):
        roc = object_roc(mixed_cohort)
        thresholds = [p[2] for p in curve_rows(roc)]
        xs = [p[0] for p in curve_rows(roc)]
        assert thresholds == sorted(thresholds, reverse=True)
        assert xs == sorted(xs)

    def test_trapezoid_equals_rank_auc(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n_p, n_d = rng.integers(2, 30), rng.integers(2, 50)
            # quantize to force ties sometimes
            p_scores = np.round(rng.uniform(0, 1, n_p), 1)
            d_scores = np.round(rng.uniform(0, 1, n_d), 1)
            cohort = make_cohort(
                make_patient("p", positive=True, parasite_scores=tuple(p_scores),
                             distractor_scores=tuple(d_scores))
            )
            roc = object_roc(cohort)
            assert trapezoid_auc(curve_rows(roc)) == pytest.approx(roc.auc, abs=1e-9)

    def test_degenerate_classes(self):
        cohort = make_cohort(make_patient("n", distractor_scores=(0.5,)))
        with pytest.raises(DegenerateDataError,
                           match="ROC needs at least one parasite and one distractor object"):
            object_roc(cohort)


class TestSliverRoc:
    def test_d1_identity(self, mixed_cohort):
        roc = object_roc(mixed_cohort)
        sliver = sliver_roc(roc, 1.0)
        assert curve_rows(sliver)[: len(roc.points)] == curve_rows(roc)

    def test_d20_covers_five_percent(self, mixed_cohort):
        roc = object_roc(mixed_cohort)
        sliver = sliver_roc(roc, 20.0)
        assert max(x for x, _, _ in curve_rows(sliver)) == 1.0
        kept_original = [x / 20.0 for x, _, _ in curve_rows(sliver)]
        assert max(kept_original) <= 0.05 + 1e-12

    def test_equal_counts_on_diagonal(self):
        # 10-object example: at C=0.55 there are 2 TPs and 2 FPs; with D the
        # true distractor:parasite ratio, that point must land on y = x.
        cohort = make_cohort(
            make_patient(
                "p", positive=True,
                parasite_scores=(0.9, 0.8, 0.3, 0.2),
                distractor_scores=(0.7, 0.6, 0.4, 0.25, 0.15, 0.05),
            )
        )
        d_ratio = 6 / 4
        roc = object_roc(cohort)
        sliver = sliver_roc(roc, d_ratio)
        # brute force over all thresholds: find equal-count operating points
        scores = sorted({score for p in cohort for _, score, _ in object_rows(p)},
                        reverse=True)
        for c in scores:
            tp = sum(1 for p in cohort for _, score, parasite in object_rows(p)
                     if parasite and score >= c)
            fp = sum(1 for p in cohort for _, score, parasite in object_rows(p)
                     if not parasite and score >= c)
            if tp == fp and tp > 0:
                match = [pt for pt in curve_rows(sliver) if pt[2] == c]
                assert match, f"threshold {c} missing from the sliver"
                x, y, _ = match[0]
                assert x == pytest.approx(y, abs=1e-12)

    def test_invalid_ratio(self, mixed_cohort):
        roc = object_roc(mixed_cohort)
        with pytest.raises(InputError,
                           match="distractor-to-parasite ratio D=0.0 must be positive"):
            sliver_roc(roc, 0.0)


class TestEasyDistractors:
    def test_noop(self, mixed_cohort):
        before, after, unchanged = easy_distractor_experiment(
            mixed_cohort, n_easy=0, easy_score_max=0.01
        )
        assert before == after
        assert unchanged

    def test_closed_form_rank_algebra(self):
        cohort = make_cohort(
            make_patient(
                "p", positive=True,
                parasite_scores=(0.9, 0.7, 0.5),
                distractor_scores=(0.8, 0.6, 0.4, 0.3),
            )
        )
        before, after, unchanged = easy_distractor_experiment(
            cohort, n_easy=40, easy_score_max=0.2
        )
        d, injected = 4, 40
        assert after == pytest.approx(
            1 - (1 - before) * d / (d + injected), abs=1e-9
        )
        assert after > before
        assert unchanged

    def test_auc_nondecreasing_in_n_easy(self, mixed_cohort):
        # scores in mixed_cohort go down to 0.1; stay below them
        aucs = [
            easy_distractor_experiment(mixed_cohort, n, easy_score_max=0.05)[1]
            for n in (0, 1, 5, 20, 100)
        ]
        assert all(a <= b for a, b in zip(aucs, aucs[1:]))

    def test_froc_comparison_sees_distractors_above_real_scores(self, mixed_cohort):
        # easy scores up to 1.0 raise the FP rate at real thresholds, so the
        # FROC moves
        assert not easy_distractor_experiment(mixed_cohort, 100, easy_score_max=1.0)[2]

    def test_froc_comparison_sees_a_one_fp_per_cv_shift(self):
        # full sensitivity needs 2 FP/cV before and 3 after: a small change
        # that the FROC at 1, 10 and 100 FP/cV does not show; the easy scores
        # are dealt in patient id order, so "b-neg" gets 0.6 and 0.8
        cohort = make_cohort(
            make_patient("a-pos", positive=True, parasite_scores=(0.9, 0.65)),
            make_patient("b-neg", distractor_scores=(0.8, 0.7, 0.6)),
        )
        assert not easy_distractor_experiment(cohort, n_easy=2, easy_score_max=1.0)[2]


class TestFroc:
    def test_sentinel_points(self, mixed_cohort):
        curve = froc(mixed_cohort)
        assert curve_rows(curve)[0][:2] == (0.0, 0.0)  # reject-all
        x_last, y_last, thr_last = curve_rows(curve)[-1]
        assert thr_last == 0.0
        assert y_last == 1.0  # accept-all finds every parasite

    def test_matches_exhaustive_enumeration(self):
        cohort = make_cohort(
            make_patient("n1", distractor_scores=(0.9, 0.4), volume=0.5),
            make_patient("p1", positive=True, parasite_scores=(0.8, 0.3),
                         distractor_scores=(0.6,)),
        )
        curve = froc(cohort)
        total_parasites = 2
        for x, y, thr in curve_rows(curve):
            if math.isinf(thr):
                continue
            c = thr
            fp_neg = sum(1 for s in (0.9, 0.4) if s >= c) / 0.5
            tp = sum(1 for s in (0.8, 0.3) if s >= c)
            assert x == pytest.approx(fp_neg)
            assert y == pytest.approx(tp / total_parasites)

    def test_no_negatives_warns(self):
        cohort = make_cohort(
            make_patient("p1", positive=True, parasite_scores=(0.8,),
                         distractor_scores=(0.5,))
        )
        curve = froc(cohort)
        assert curve.notes


class TestPatientRoc:
    def test_extreme_thresholds(self, mixed_cohort):
        curve = patient_roc(mixed_cohort, C=0.5, T_grid=[0.0, 1e9])
        by_thr = {thr: (x, y) for x, y, thr in curve_rows(curve)}
        assert by_thr[0.0] == (1.0, 1.0)
        assert by_thr[1e9] == (0.0, 0.0)

    def test_agrees_with_patient_level_metrics(self, mixed_cohort):
        t_grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
        curve = patient_roc(mixed_cohort, C=0.3, T_grid=t_grid)
        for x, y, thr in curve_rows(curve):
            strat = patient_level_sens_spec(mixed_cohort, OperatingPoint(C=0.3, T=thr))
            assert x == 1.0 - strat.specificity
            assert y == strat.overall


class TestPrecisionReexpression:
    def test_paper_example(self):
        cohort = make_cohort(
            make_patient("q", positive=True, parasitemia=10_000,
                         parasite_scores=(0.9,) * 10_000,
                         distractor_scores=(0.9,) * 100)
        )
        rep = precision_with_reexpression(cohort, 0.5, lod_parasitemia=100.0)
        assert rep.precision == pytest.approx(10_000 / 10_100, abs=1e-6)
        assert rep.precision_at_lod == pytest.approx(0.5, abs=1e-12)

    def test_no_fp_perfect_precision(self):
        cohort = make_cohort(
            make_patient("q", positive=True, parasite_scores=(0.9, 0.8))
        )
        rep = precision_with_reexpression(cohort, 0.5, lod_parasitemia=10.0)
        assert rep.precision == 1.0
        assert rep.precision_at_lod == 1.0

    def test_tp_equals_fp(self):
        cohort = make_cohort(
            make_patient("q", positive=True,
                         parasite_scores=(0.9, 0.9, 0.1),
                         distractor_scores=(0.8, 0.8))
        )
        rep = precision_with_reexpression(cohort, 0.5, lod_parasitemia=10.0)
        assert rep.precision == 0.5
        assert rep.precision_at_lod == 10.0 / (10.0 + 2.0)

    def test_no_detections(self):
        cohort = make_cohort(
            make_patient("q", positive=True, parasite_scores=(0.1,))
        )
        with pytest.raises(DegenerateDataError, match="no objects pass the score threshold"):
            precision_with_reexpression(cohort, 0.9, lod_parasitemia=10.0)
