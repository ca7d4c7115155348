import copy
import csv
import dataclasses
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import parasitometrics
from parasitometrics import cli, reproduce
from parasitometrics.cli import main
from parasitometrics.datamodel import (
    export_cohort,
    export_cohort_json,
    ingest_cohort,
    pooled_scores,
)
from parasitometrics.errors import DegenerateDataError, InputError, ReproductionFailure
from parasitometrics.metrics import DEFAULT_BIN_EDGES, check_bin_edges, sensitivity_distribution
from parasitometrics.quant import CONSTANT_X_NOTE, LINEAR_R2_NOTE, ExpectedRates
from parasitometrics.simulator import Fixed, SimConfig, generate_cohort

from conftest import make_cohort, make_patient, src_env
from test_datamodel import (
    JSON_VALUES,
    OBJECT_KEYS,
    PATIENT_KEYS,
    _json_doc,
    _set,
    csv_pairs,
)


@pytest.fixture
def runner():
    return CliRunner()


def _write_mixed_cohort_csvs(tmp_path):
    cohort = make_cohort(
        make_patient("neg1", positive=False, distractor_scores=(0.8, 0.6, 0.2),
                     volume=0.5),
        make_patient("neg2", positive=False, distractor_scores=(0.3,)),
        make_patient("pos1", positive=True, parasitemia=400.0,
                     parasite_scores=(0.9, 0.7, 0.7, 0.1),
                     distractor_scores=(0.75, 0.4)),
        make_patient("pos2", positive=True, parasitemia=80.0, volume=0.5,
                     parasite_scores=(0.95, 0.3), distractor_scores=(0.5,)),
    )
    objects = tmp_path / "objects.csv"
    patients = tmp_path / "patients.csv"
    export_cohort(cohort, objects, patients)
    return patients, objects


class TestEvaluate:
    def test_explicit_operating_point_json(self, runner, tmp_path):
        patients, objects = _write_mixed_cohort_csvs(tmp_path)
        out = tmp_path / "report"
        result = runner.invoke(main, [
            "evaluate", "--patients", str(patients), "--objects", str(objects),
            "--C", "0.5", "--T", "2.0", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "report.json").read_text())
        assert doc["metadata"]["operating_point"] == {"C": 0.5, "T": 2.0}
        assert doc["patient_level"]["specificity"] is not None
        assert doc["sensitivity_distribution"] is not None

    def test_calibrated_threshold(self, runner, tmp_path):
        patients, objects = _write_mixed_cohort_csvs(tmp_path)
        out = tmp_path / "report"
        result = runner.invoke(main, [
            "evaluate", "--patients", str(patients), "--objects", str(objects),
            "--C", "0.5", "--spec-target", "0.95", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "report.json").read_text())
        assert doc["metadata"]["operating_point"]["T"] > 0

    def test_csv_format_writes_tables(self, runner, tmp_path):
        patients, objects = _write_mixed_cohort_csvs(tmp_path)
        out = tmp_path / "report"
        result = runner.invoke(main, [
            "evaluate", "--patients", str(patients), "--objects", str(objects),
            "--C", "0.5", "--T", "2.0", "--out", str(out), "--format", "csv",
            "--curves",
        ])
        assert result.exit_code == 0, result.output
        assert (out / "report.json").exists()
        assert (out / "per_patient_fpr.csv").exists()
        assert (out / "stratified_sensitivity.csv").exists()

    @pytest.mark.parametrize("T", ["1e307", "1e308"])
    def test_huge_t_keeps_the_finite_patient_roc_grid(self, runner, tmp_path, T):
        # the patient ROC's grid is T * k / 10 for k = 0..40; its larger
        # multiples overflow to inf, which is no T the user gave
        export_cohort_json(generate_cohort(SimConfig(seed=0, n_negative=5, n_positive=5)),
                           tmp_path / "c.json")
        out = tmp_path / "report"
        result = runner.invoke(main, ["evaluate", "--json", str(tmp_path / "c.json"),
                                      "--C", "0.5", "--T", T, "--curves", "--out", str(out)])
        assert result.exit_code == 0, result.output
        points = json.loads((out / "report.json").read_text())["curves"]["patient_roc"]["points"]
        want = sorted({float(T) * k / 10.0 for k in range(41)} - {math.inf}, reverse=True)
        assert [t for _, _, t in points] == want

    @pytest.mark.parametrize("config, written, skipped, lod_skipped", [
        # no negative patients: the patient ROC is undefined, the object curves are not
        (SimConfig(seed=0, n_negative=0, n_positive=5), ["froc", "object_roc"],
         "patient_roc skipped: patient ROC needs both positive and negative patients",
         ["warning: LoD skipped: cohort has no negative patients"]),
        # no distractor objects: the object ROC is undefined, FROC and the patient ROC are not
        (SimConfig(seed=1, n_negative=3, n_positive=3, fpr_dist=Fixed(0.0),
                   background_distractor_rate=0.0), ["froc", "patient_roc"],
         "object_roc skipped: ROC needs at least one parasite and one distractor object", []),
    ], ids=["positives_only", "no_distractors"])
    def test_each_curve_is_skipped_on_its_own(self, runner, tmp_path, config, written,
                                              skipped, lod_skipped):
        export_cohort_json(generate_cohort(config), tmp_path / "c.json")
        out = tmp_path / "report"
        result = runner.invoke(main, ["evaluate", "--json", str(tmp_path / "c.json"),
                                      "--C", "0.5", "--T", "2", "--curves", "--out", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "report.json").read_text())
        assert sorted(doc["curves"]) == written
        assert all(doc["curves"][name]["points"] for name in written)
        assert [line for line in result.stderr.splitlines()
                if "skipped" in line] == lod_skipped + [f"warning: {skipped}"]
        assert skipped in doc["warnings"]

    def test_missing_dataset_is_input_error(self, runner, tmp_path):
        result = runner.invoke(main, [
            "evaluate", "--C", "0.5", "--T", "1.0", "--out", str(tmp_path / "r"),
        ])
        assert result.exit_code == 2

    def test_bad_csv_schema_is_input_error(self, runner, tmp_path):
        bad = tmp_path / "patients.csv"
        bad.write_text("wrong,header\n1,2\n")
        objects = tmp_path / "objects.csv"
        objects.write_text("patient_id,object_id,score,true_label\n")
        result = runner.invoke(main, [
            "evaluate", "--patients", str(bad), "--objects", str(objects),
            "--C", "0.5", "--T", "1.0", "--out", str(tmp_path / "r"),
        ])
        assert result.exit_code == 2

    def test_missing_file_is_io_error(self, runner, tmp_path):
        result = runner.invoke(main, [
            "evaluate", "--json", str(tmp_path / "nope.json"),
            "--C", "0.5", "--T", "1.0", "--out", str(tmp_path / "r"),
        ])
        assert result.exit_code == 2

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["patients"][0]["objects"][0].update(score="abc"),
        lambda doc: doc["patients"][0]["objects"][0].pop("object_id"),
        lambda doc: doc["patients"][0].update(wbc_count="x"),
        None,  # truncated document
    ], ids=["score-abc", "no-object-id", "wbc-x", "truncated"])
    def test_malformed_json_is_one_line_input_error(self, runner, tmp_path, edit):
        cohort = generate_cohort(SimConfig(seed=5, n_negative=2, n_positive=2))
        path = tmp_path / "cohort.json"
        export_cohort_json(cohort, path)
        text = path.read_text()
        if edit is None:
            text = text[: len(text) // 2]
        else:
            doc = json.loads(text)
            edit(doc)
            text = json.dumps(doc)
        path.write_text(text)
        result = runner.invoke(main, [
            "evaluate", "--json", str(path),
            "--C", "0.5", "--T", "1.0", "--out", str(tmp_path / "r"),
        ])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: ")

    def test_repeated_bin_edge_is_input_error(self, runner, tmp_path):
        patients, objects = _write_mixed_cohort_csvs(tmp_path)
        result = runner.invoke(main, [
            "evaluate", "--patients", str(patients), "--objects", str(objects),
            "--C", "0.5", "--T", "1.0", "--bins", "50,50", "--out", str(tmp_path / "r"),
        ])
        assert result.exit_code == 2
        assert "strictly ascending" in result.stderr
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("args", [
        ["--calib-method", "bogus"],
        ["--spec-target", "1.5"],
        ["--spec-target", "0"],
    ], ids=["calib-method-bogus", "spec-target-above-1", "spec-target-0"])
    def test_bad_calibration_setting_with_explicit_t_is_input_error(self, runner, tmp_path,
                                                                     args):
        # the LoD uses the setting even when --T fixes the threshold
        patients, objects = _write_mixed_cohort_csvs(tmp_path)
        result = runner.invoke(main, [
            "evaluate", "--patients", str(patients), "--objects", str(objects),
            "--C", "0.5", "--T", "5", *args, "--out", str(tmp_path / "r"),
        ])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1
        assert not (tmp_path / "r").exists()

    def test_skipped_lod_is_a_warning(self, runner, tmp_path):
        # no parasite scores >= C, so mean and median S are 0 and neither LoD exists
        cohort = make_cohort(
            make_patient("neg1", distractor_scores=(0.8, 0.2)),
            make_patient("neg2", distractor_scores=(0.6,)),
            make_patient("pos1", positive=True, parasite_scores=(0.1, 0.2)),
            make_patient("pos2", positive=True, parasite_scores=(0.3, 0.4)),
        )
        export_cohort_json(cohort, tmp_path / "c.json")
        out = tmp_path / "r"
        result = runner.invoke(main, [
            "evaluate", "--json", str(tmp_path / "c.json"),
            "--C", "0.5", "--T", "1.0", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert result.stderr.splitlines() == [
            "warning: LoD (gaussian) skipped: LoD denominator 0.0 <= 0",
            "warning: LoD (robust) skipped: LoD denominator 0.0 <= 0",
        ]
        assert json.loads((out / "report.json").read_text())["warnings"] == []

    @pytest.mark.parametrize("patients, reason", [
        ((make_patient("pos1", positive=True, parasite_scores=(0.9, 0.4)),),
         "cohort has no negative patients"),
        ((make_patient("neg1", distractor_scores=(0.8,)),),
         "no positive patients with parasite objects"),
        ((make_patient("neg1", distractor_scores=(0.8,)),
          make_patient("pos1", positive=True, parasitemia=5.0)),
         "no positive patients with parasite objects"),
    ], ids=["no_negatives", "no_positives", "no_parasite_objects"])
    def test_lod_without_its_distributions_is_a_warning(self, runner, tmp_path, patients,
                                                        reason):
        export_cohort_json(make_cohort(*patients), tmp_path / "c.json")
        out = tmp_path / "r"
        result = runner.invoke(main, ["evaluate", "--json", str(tmp_path / "c.json"),
                                      "--C", "0.5", "--T", "10", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert [line for line in result.stderr.splitlines() if "LoD" in line] == [
            f"warning: LoD skipped: {reason}"]
        doc = json.loads((out / "report.json").read_text())
        assert "lod_estimates" not in doc
        assert not any("LoD" in w for w in doc["warnings"])

    def test_bins_default_is_the_metrics_default(self):
        bins = next(p for p in main.commands["evaluate"].params if p.name == "bins")
        assert bins.default == "50,200,1000"  # as --help shows it
        assert check_bin_edges([float(e) for e in bins.default.split(",")]) == DEFAULT_BIN_EDGES

    def test_missing_parasite_objects_are_named_once_on_stderr(self, runner, tmp_path):
        # the sensitivity's cause is the LoD's too: one stderr line, and
        # report.json's warnings keep it
        export_cohort_json(make_cohort(make_patient("neg1", distractor_scores=(0.8,)),
                                       make_patient("pos1", positive=True, parasitemia=5.0)),
                           tmp_path / "c.json")
        out = tmp_path / "r"
        result = runner.invoke(main, ["evaluate", "--json", str(tmp_path / "c.json"),
                                      "--C", "0.5", "--T", "10", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert result.stderr.splitlines() == [
            "warning: LoD skipped: no positive patients with parasite objects"]
        doc = json.loads((out / "report.json").read_text())
        assert doc["warnings"] == ["no positive patients with parasite objects"]

    @pytest.mark.parametrize("bins", ["100,50", "0,5", "nan"])
    def test_bad_bins_exit_2_before_calibration_can_exit_3(self, runner, tmp_path, bins):
        # without negatives, calibrating T would exit 3; the bins are checked first
        export_cohort_json(make_cohort(make_patient("pos1", positive=True,
                                                    parasite_scores=(0.9,))),
                           tmp_path / "c.json")
        result = runner.invoke(main, ["evaluate", "--json", str(tmp_path / "c.json"),
                                      "--C", "0.5", "--spec-target", "0.95", "--bins", bins,
                                      "--out", str(tmp_path / "r")])
        assert result.exit_code == 2, result.output
        assert result.stderr == (
            "error: bin edges must be finite, positive and strictly ascending\n")


class TestCalibrateAndLod:
    def test_calibrate_prints_threshold(self, runner, tmp_path):
        patients, objects = _write_mixed_cohort_csvs(tmp_path)
        result = runner.invoke(main, [
            "calibrate", "--patients", str(patients), "--objects", str(objects),
            "--C", "0.5",
        ])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("T = ")

    def test_calibrate_scatter_out(self, runner, tmp_path):
        patients, objects = _write_mixed_cohort_csvs(tmp_path)
        scatter = tmp_path / "scatter.csv"
        result = runner.invoke(main, [
            "calibrate", "--patients", str(patients), "--objects", str(objects),
            "--C", "0.5", "--scatter-out", str(scatter),
        ])
        assert result.exit_code == 0, result.output
        lines = scatter.read_text().strip().splitlines()
        assert lines[0] == "patient_id,fp_count_per_cv"
        assert len(lines) == 3  # header + two negatives

    def test_scatter_out_quotes_patient_ids(self, runner, tmp_path):
        cohort = make_cohort(
            make_patient("n,1", distractor_scores=(0.8, 0.6)),
            make_patient('n"2', distractor_scores=(0.7,)),
            make_patient("plain", distractor_scores=(0.9, 0.8, 0.7)),
        )
        patients, objects = tmp_path / "patients.csv", tmp_path / "objects.csv"
        export_cohort(cohort, objects, patients)
        scatter = tmp_path / "scatter.csv"
        result = runner.invoke(main, [
            "calibrate", "--patients", str(patients), "--objects", str(objects),
            "--C", "0.5", "--scatter-out", str(scatter),
        ])
        assert result.exit_code == 0, result.output
        with open(scatter, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["patient_id", "fp_count_per_cv"], ['n"2', "1.0"],
                        ["n,1", "2.0"], ["plain", "3.0"]]
        assert scatter.read_text().endswith("\nplain,3.0\n")

    def test_scatter_out_ids_with_line_breaks_round_trip(self, runner, tmp_path):
        ids = ("n\r1", "n\n2", "n\r\n3", "n,4", 'n"5', 'n\r"6', "plain")
        cohort = make_cohort(*(make_patient(pid, distractor_scores=(0.8,) * (k + 1))
                               for k, pid in enumerate(ids)))
        path = tmp_path / "cohort.json"
        export_cohort_json(cohort, path)
        scatter = tmp_path / "scatter.csv"
        result = runner.invoke(main, ["calibrate", "--json", str(path), "--C", "0.5",
                                      "--scatter-out", str(scatter)])
        assert result.exit_code == 0, result.output
        with open(scatter, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["patient_id", "fp_count_per_cv"]] + [
            [pid, repr(float(k + 1))] for k, pid in enumerate(ids)]
        # the ids with "\r" gain quotes and their numbers do not: Python 3.13's plain
        # csv.writer bytes; the other rows keep csv.writer's bytes
        assert scatter.read_bytes() == (
            b'patient_id,fp_count_per_cv\n"n\r1",1.0\n"n\n2",2.0\n"n\r\n3",3.0\n'
            b'"n,4",4.0\n"n""5",5.0\n"n\r""6",6.0\nplain,7.0\n')

    def test_no_negatives_is_degenerate(self, runner, tmp_path):
        cohort = make_cohort(
            make_patient("pos1", positive=True, parasite_scores=(0.9, 0.8)),
            make_patient("pos2", positive=True, parasite_scores=(0.7,)),
        )
        path = tmp_path / "cohort.json"
        export_cohort_json(cohort, path)
        result = runner.invoke(main, ["calibrate", "--json", str(path), "--C", "0.5"])
        assert result.exit_code == 3

    def test_lod_command(self, runner, tmp_path):
        patients, objects = _write_mixed_cohort_csvs(tmp_path)
        result = runner.invoke(main, [
            "lod", "--patients", str(patients), "--objects", str(objects),
            "--C", "0.5", "--method", "robust",
        ])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("LoD = ")
        assert "(robust)" in result.output

    def test_unknown_method_is_input_error(self, runner, tmp_path):
        # the LoD has only a Gaussian and a robust formula, so percentile is unknown
        # too; the method is checked before the cohort is read, so the missing file
        # is never opened
        for method in ("bogus", "percentile"):
            result = runner.invoke(main, [
                "lod", "--json", str(tmp_path / "missing.json"), "--C", "0.5",
                "--method", method,
            ])
            assert result.exit_code == 2, result.output
            assert result.stderr == (f"error: Invalid value for '--method': {method!r} "
                                     "is not one of 'gaussian', 'robust'.\n")
            assert result.stdout == ""


@pytest.mark.parametrize("args, message", [
    (["evaluate", "--C", "1.5", "--spec-target", "0.95"], "score threshold C=1.5 outside [0, 1]"),
    (["evaluate", "--C", "nan", "--spec-target", "0.95"], "score threshold C=nan outside [0, 1]"),
    (["calibrate", "--C", "1.5"], "score threshold C=1.5 outside [0, 1]"),
    (["lod", "--C", "1.5"], "score threshold C=1.5 outside [0, 1]"),
    (["quant", "--C", "1.5", "--f-hat", "1", "--s-hat", "0.5"],
     "score threshold C=1.5 outside [0, 1]"),
    (["tune", "--c-grid", "0.5,1.5"], "score threshold C=1.5 outside [0, 1]"),
    (["calibrate", "--C", "0.5", "--spec-target", "1.5"],
     "target specificity K=1.5 outside (0, 1)"),
    (["lod", "--C", "0.5", "--beta", "nan"], "beta=nan must be finite and >= 0"),
], ids=["evaluate", "evaluate-nan", "calibrate", "lod", "quant-rates", "tune-grid",
        "calibrate-K", "lod-beta"])
def test_bad_argument_exits_2_before_a_metric_can_exit_3(runner, tmp_path, args, message):
    # without negatives, the FPR distribution or calibration would exit 3;
    # the arguments are checked first; tune reads the C grid only after it
    # has found validation negatives, so its cohort has one
    path = tmp_path / "c.json"
    negatives = [make_patient("neg1")] if args[0] == "tune" else []
    export_cohort_json(make_cohort(make_patient("pos1", positive=True,
                                                parasite_scores=(0.9,)), *negatives), path)
    data = {"tune": ["--train-positives", str(path), "--validation-negatives", str(path),
                     "--out", str(tmp_path / "t.csv")],
            "evaluate": ["--json", str(path), "--out", str(tmp_path / "r")],
            "quant": ["--json", str(path), "--out", str(tmp_path / "r")]}
    result = runner.invoke(main, [*args, *data.get(args[0], ["--json", str(path)])])
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("K", ["0.05", "0.3", "0.5"])
@pytest.mark.parametrize("command", ["evaluate", "calibrate", "tune"])
def test_specificity_target_at_or_below_half_exits_2(runner, tmp_path, command, K):
    # at K <= 0.5 every LoD is <= 0, and on this cohort the Gaussian T at
    # K = 0.05 is -45.79...: an input error before any metric, in every command
    path = tmp_path / "c.json"
    export_cohort_json(make_cohort(
        *(make_patient(f"neg{i}") for i in range(4)),
        make_patient("neg4", distractor_scores=(0.9,) * 100),
        make_patient("pos0", positive=True, parasite_scores=(0.9, 0.8)),
        make_patient("pos1", positive=True, parasite_scores=(0.95,)),
    ), path)
    args = {"evaluate": ["--json", path, "--C", "0.5", "--curves", "--out", tmp_path / "r"],
            "calibrate": ["--json", path, "--C", "0.5"],
            "tune": ["--train-positives", path, "--validation-negatives", path,
                     "--out", tmp_path / "t.csv"]}[command]
    result = runner.invoke(main, [command, *map(str, args), "--spec-target", K])
    assert result.exit_code == 2, result.output
    assert result.stderr == (f"error: target specificity K={float(K)} must be above 0.5: "
                             "at or below it, the normal quantile of K and every LoD are <= 0\n")
    assert result.stdout == ""
    assert not (tmp_path / "r").exists() and not (tmp_path / "t.csv").exists()


def test_quant_s_hat_of_0_from_the_cohort_exits_3(runner, tmp_path):
    # no object scores >= C, so the cohort's mean sensitivity is 0: degenerate
    # data, where an --s-hat of 0 is a bad argument
    cohort = make_cohort(make_patient("neg", distractor_scores=(0.2,)),
                         make_patient("pos1", positive=True, parasite_scores=(0.9, 0.4)),
                         make_patient("pos2", positive=True, parasite_scores=(0.7,)))
    path = tmp_path / "c.json"
    export_cohort_json(cohort, path)
    args = ["quant", "--json", str(path), "--C", "0.95", "--out", str(tmp_path / "q")]
    degenerate = ("error: no parasite object scores >= C=0.95, so the cohort's mean sensitivity "
                  "is 0; the figure of merit uses it, and so does S_hat unless --s-hat is given\n")
    for extra, code, stderr in (
            ([], 3, degenerate),
            (["--s-hat", "0"], 2, "error: S_hat=0.0 must be in (0, 1]\n"),
            (["--f-hat", "1", "--s-hat", "0"], 2, "error: S_hat=0.0 must be in (0, 1]\n"),
            # the figure of merit still takes the cohort's mean sensitivity
            (["--s-hat", "0.5"], 3, degenerate),
            (["--f-hat", "1", "--s-hat", "0.5"], 0, "")):
        result = runner.invoke(main, [*args, *extra])
        assert (result.exit_code, result.stderr) == (code, stderr), result.output
    assert sensitivity_distribution(cohort, 0.95).summary.mean == 0.0
    with pytest.raises(InputError, match=r"^S_hat=0.0 must be in \(0, 1\]$"):
        ExpectedRates(F_hat=0.0, S_hat=0.0)


@pytest.mark.parametrize("args", [
    ["lod", "--beta", "nan"],
    ["lod", "--beta", "inf"],
    ["poisson", "-p", "1e300", "-v", "1e300"],
    ["poisson", "-p", "3e6", "-v", "1"],
], ids=["beta-nan", "beta-inf", "p-times-v-overflows", "p-times-v-above-limit"])
def test_unusable_number_is_one_line_input_error(runner, tmp_path, args):
    if args[0] != "poisson":
        patients, objects = _write_mixed_cohort_csvs(tmp_path)
        args = [*args, "--patients", str(patients), "--objects", str(objects), "--C", "0.5"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ")
    assert len(result.stderr.splitlines()) == 1
    assert result.stdout == ""


CALIBRATION_CHOICES = "'gaussian', 'robust', 'percentile'"


@pytest.mark.parametrize("args, message", [
    (["evaluate", "--patients", "P", "--objects", "O", "--C", "0.5", "--T", "3.5",
      "--calib-method", "manual", "--out", "OUT"],
     f"Invalid value for '--calib-method': 'manual' is not one of {CALIBRATION_CHOICES}."),
    (["calibrate", "--patients", "P", "--objects", "O", "--C", "0.5", "--method", "manual"],
     f"Invalid value for '--method': 'manual' is not one of {CALIBRATION_CHOICES}."),
    # tune checks the method before it reads a file, so the CSVs never reach its JSON reader
    (["tune", "--train-positives", "P", "--validation-negatives", "O",
      "--calib-method", "manual", "--out", "OUT"],
     f"Invalid value for '--calib-method': 'manual' is not one of {CALIBRATION_CHOICES}."),
    (["lod", "--patients", "P", "--objects", "O", "--C", "0.5", "--method", "manual"],
     "Invalid value for '--method': 'manual' is not one of 'gaussian', 'robust'."),
], ids=["evaluate", "calibrate", "tune", "lod"])
def test_manual_method_is_unknown(runner, tmp_path, args, message):
    # a T chosen by hand from calibrate --scatter-out is passed as --T; no method echoes it
    patients, objects = _write_mixed_cohort_csvs(tmp_path)
    paths = {"P": str(patients), "O": str(objects), "OUT": str(tmp_path / "out")}
    result = runner.invoke(main, [paths.get(a, a) for a in args])
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: {message}\n"
    assert result.stdout == ""
    assert not (tmp_path / "out").exists()


def test_evaluate_without_c_exits_2_before_reading_the_cohort(runner, tmp_path):
    # click checks --C before the command runs, so the missing file is never opened
    result = runner.invoke(main, [
        "evaluate", "--json", str(tmp_path / "missing.json"), "--T", "1",
        "--out", str(tmp_path / "out"),
    ])
    assert (result.exit_code, result.stdout, result.stderr) == \
        (2, "", "error: Missing option '--C'.\n")
    assert not (tmp_path / "out").exists()


def test_manual_t_is_an_unknown_option(runner, tmp_path):
    patients, objects = _write_mixed_cohort_csvs(tmp_path)
    result = runner.invoke(main, [
        "calibrate", "--patients", str(patients), "--objects", str(objects),
        "--C", "0.5", "--manual-t", "3",
    ])
    assert result.exit_code == 2
    assert "No such option" in result.stderr and "--manual-t" in result.stderr


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("args", [["calibrate"], ["lod"], ["evaluate", "--T", "1", "--out", "r"],
                                  ["quant", "--out", "q"]], ids=lambda a: a[0])
def test_too_small_volume_is_one_line_input_error(runner, tmp_path, fmt, args):
    # 3 distractors / 1e-310 cV overflows: no per-cV rate of neg1 would be finite
    patients, objects = _write_mixed_cohort_csvs(tmp_path)
    if fmt == "csv":
        text = patients.read_text()
        patients.write_text(text.replace("neg1,neg,none,0.0,0.5,", "neg1,neg,none,0.0,1e-310,"))
        dataset = ["--patients", str(patients), "--objects", str(objects)]
    else:
        path = tmp_path / "c.json"
        export_cohort_json(ingest_cohort(objects, patients, "1 uL blood"), path)
        doc = json.loads(path.read_text())
        doc["patients"][0]["examined_volume"] = 1e-310
        path.write_text(json.dumps(doc))
        dataset = ["--json", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would raise here
        result = runner.invoke(main, [*args, *dataset, "--C", "0.5"])
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", (
        "error: patient 'neg1': examined_volume 1e-310 is too small: "
        "3 / examined_volume overflows\n"))


# per command, besides an unknown option: a bad number, a bad choice or a
# missing required option, as click reports them
PARSE_ERRORS = {
    "evaluate": [["--C", "abc", "--out", "r"], ["--format", "xml", "--out", "r"]],
    "calibrate": [["--C", "abc"], []],
    "lod": [["--C", "0.5", "--beta", "x"], []],
    "tune": [["--train-positives", "p.json", "--out", "t.csv"]],
    "quant": [["--C", "0.5", "--format", "xml", "--out", "r"]],
    "poisson": [["-p", "abc"], ["-p", "1", "extra"]],
    "simulate": [["--preset", "who57", "--out", "s"]],
    "reproduce-paper": [[]],
}


@pytest.mark.parametrize("command", [None, *main.commands])
def test_argument_parse_errors_are_one_error_line(runner, command):
    cases = [["--bogus"], *PARSE_ERRORS[command]] if command else [["--bogus"], ["bogus"]]
    for args in cases:
        args = [command, *args] if command else args
        result = runner.invoke(main, args)
        assert isinstance(result.exception, SystemExit), args
        assert (result.exit_code, result.stdout) == (2, ""), args
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, \
            (args, result.stderr)


def test_help_version_and_a_bare_command_keep_clicks_output(runner):
    assert runner.invoke(main, ["--version"]).stdout == \
        f"main, version {parasitometrics.__version__}\n"
    for args in (["--help"], ["lod", "--help"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 0 and result.stdout.startswith("Usage: ")
    result = runner.invoke(main, [])  # the group's help, with click's exit code (2 from 8.2)
    assert result.exit_code in (0, 2) and "Commands:" in result.stderr + result.stdout


def test_parse_errors_still_raise_outside_standalone_mode():
    # an in-process caller that passes standalone_mode=False gets click's error back
    with pytest.raises(click.UsageError, match="'abc' is not a valid float"):
        main.main(["evaluate", "--C", "abc", "--out", "r"], prog_name="parasitometrics",
                  standalone_mode=False)


@pytest.mark.parametrize("extra, message", [
    (["--cv", "10 uL"], "--cv applies to CSV input; a JSON cohort names its own cv_description"),
    (["--patients", "p.csv"], "--json cannot be combined with --patients or --objects"),
    (["--objects", "o.csv"], "--json cannot be combined with --patients or --objects"),
], ids=["cv", "patients", "objects"])
def test_json_with_a_csv_option_is_input_error(runner, tmp_path, extra, message):
    export_cohort_json(generate_cohort(SimConfig(seed=5, n_negative=3, n_positive=3)),
                       tmp_path / "cohort.json")
    result = runner.invoke(main, [
        "evaluate", "--json", str(tmp_path / "cohort.json"), *extra,
        "--C", "0.5", "--T", "1.0", "--out", str(tmp_path / "r"),
    ])
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "r").exists()


def test_cv_names_the_unit_of_a_csv_cohort(runner, tmp_path):
    patients, objects = _write_mixed_cohort_csvs(tmp_path)
    for extra, unit in (([], "1 uL blood"), (["--cv", "10 uL"], "10 uL")):
        out = tmp_path / unit
        result = runner.invoke(main, [
            "evaluate", "--patients", str(patients), "--objects", str(objects), *extra,
            "--C", "0.5", "--T", "1.0", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert json.loads((out / "report.json").read_text())["metadata"]["cv_description"] == unit


@pytest.mark.parametrize("exc, code, stderr", [
    (InputError("bad argument"), 2, "error: bad argument\n"),
    (DegenerateDataError("no negatives"), 3, "error: no negatives\n"),
    (ReproductionFailure("first failing check: x"), 1, "error: first failing check: x\n"),
    (FileNotFoundError(2, "No such file or directory", "c.json"), 2,
     "io error: [Errno 2] No such file or directory: 'c.json'\n"),
], ids=["input", "degenerate", "reproduction", "os"])
def test_each_error_exits_with_its_code_and_one_line(runner, monkeypatch, exc, code, stderr):
    # the command group turns an error raised anywhere inside a command into its line
    def fail(path):
        raise exc

    monkeypatch.setattr(cli, "ingest_cohort_json", fail)
    assert getattr(exc, "exit_code", 2) == code
    for args in (["lod", "--json", "c.json", "--C", "0.5"],
                 ["tune", "--train-positives", "c.json", "--validation-negatives", "c.json",
                  "--out", "t.csv"]):
        result = runner.invoke(main, args)
        assert (result.exit_code, result.stdout, result.stderr) == (code, "", stderr), args
        assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("cohort, code, message", [
    ("positives.json", 3, "error: no negative patients for FPR distribution\n"),
    ("missing.json", 2, "io error: [Errno 2] No such file or directory: '{path}'\n"),
], ids=["degenerate", "io"])
def test_library_errors_exit_with_their_code_outside_standalone_mode(tmp_path, capsys, cohort,
                                                                    code, message):
    # an in-process caller that passes standalone_mode=False gets the same line and code
    export_cohort_json(make_cohort(make_patient("pos1", positive=True, parasite_scores=(0.9,))),
                       tmp_path / "positives.json")
    path = str(tmp_path / cohort)
    with pytest.raises(SystemExit) as info:
        main.main(["calibrate", "--json", path, "--C", "0.5"], prog_name="parasitometrics",
                  standalone_mode=False)
    assert info.value.code == code
    assert capsys.readouterr() == ("", message.format(path=path))


class TestTune:
    def test_tune_end_to_end(self, runner, tmp_path):
        train = generate_cohort(SimConfig(seed=11, n_negative=0, n_positive=10,
                                          examined_volume=0.2))
        val_neg = generate_cohort(SimConfig(seed=12, n_negative=10, n_positive=0,
                                            examined_volume=0.2))
        train_path = tmp_path / "train.json"
        neg_path = tmp_path / "neg.json"
        export_cohort_json(train, train_path)
        export_cohort_json(val_neg, neg_path)
        table = tmp_path / "table.csv"
        result = runner.invoke(main, [
            "tune", "--train-positives", str(train_path),
            "--validation-negatives", str(neg_path),
            "--c-grid", "0.3,0.5,0.7", "--out", str(table),
        ])
        assert result.exit_code == 0, result.output
        assert "best C = " in result.output
        lines = table.read_text().strip().splitlines()
        assert lines[0] == "C,T,LoD,mu_F,sigma_F,sigma_L,sigma_R,mu_S"
        assert len(lines) >= 2

    def test_unparseable_c_grid_is_input_error(self, runner, tmp_path):
        cohort = generate_cohort(SimConfig(seed=13, n_negative=5, n_positive=5))
        p = tmp_path / "cohort.json"
        export_cohort_json(cohort, p)
        for grid, message in [("0.5,x", "could not parse C grid '0.5,x'"),
                              (",", "C_grid must be non-empty"),
                              ("", "C_grid must be non-empty")]:
            result = runner.invoke(main, [
                "tune", "--train-positives", str(p), "--validation-negatives", str(p),
                "--c-grid", grid, "--out", str(tmp_path / "t.csv"),
            ])
            assert result.exit_code == 2, grid
            assert result.stderr == f"error: {message}\n"
            assert not (tmp_path / "t.csv").exists()

    def test_skipped_c_is_a_warning(self, runner, tmp_path):
        train = generate_cohort(SimConfig(seed=11, n_negative=0, n_positive=10,
                                          examined_volume=0.2))
        val_neg = generate_cohort(SimConfig(seed=12, n_negative=10, n_positive=0,
                                            examined_volume=0.2))
        assert max(map(max, pooled_scores(train.patients))) < 1.0  # nothing passes C = 1
        export_cohort_json(train, tmp_path / "train.json")
        export_cohort_json(val_neg, tmp_path / "neg.json")
        table = tmp_path / "table.csv"
        result = runner.invoke(main, [
            "tune", "--train-positives", str(tmp_path / "train.json"),
            "--validation-negatives", str(tmp_path / "neg.json"),
            "--c-grid", "0.3,1.0,0.5", "--out", str(table),
        ])
        assert result.exit_code == 0, result.output
        assert result.stdout.splitlines()[0] == str(table)
        assert result.stdout.splitlines()[1].startswith("best C = ")
        assert result.stderr == "warning: C=1.0 skipped: LoD denominator 0.0 <= 0\n"
        assert [line.split(",")[0] for line in table.read_text().splitlines()] == \
            ["C", "0.3", "0.5"]

    @pytest.mark.parametrize("text, message", [
        ("[1]", "JSON cohort must have keys 'cv_description' and 'patients'"),
        ('{"cv_description": "x", "patients": [1]}',
         "each patient must be a JSON object with a list of objects"),
    ], ids=["not-a-cohort", "not-a-patient"])
    def test_json_shape_error_names_its_file(self, runner, tmp_path, text, message):
        good = tmp_path / "train.json"
        export_cohort_json(generate_cohort(SimConfig(seed=13, n_negative=0, n_positive=3)),
                           good)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        result = runner.invoke(main, [
            "tune", "--train-positives", str(good), "--validation-negatives", str(bad),
            "--out", str(tmp_path / "t.csv"),
        ])
        assert result.exit_code == 2
        assert result.stderr == f"error: {bad}: {message}\n"

    def test_positives_without_parasites_name_the_cause(self, runner, tmp_path):
        sim = runner.invoke(main, ["simulate", "--seed", "2", "--n-positive", "0",
                                   "--n-negative", "5", "--format", "json",
                                   "--out", str(tmp_path / "sim")])
        assert sim.exit_code == 0, sim.output
        cohort = str(tmp_path / "sim" / "cohort.json")
        result = runner.invoke(main, [
            "tune", "--train-positives", cohort, "--validation-negatives", cohort,
            "--out", str(tmp_path / "t.csv"),
        ])
        assert result.exit_code == 3
        assert result.stderr == "error: no positive patients with parasite objects\n"
        assert not (tmp_path / "t.csv").exists()

    def test_tune_rejects_positive_only_validation(self, runner, tmp_path):
        pos = generate_cohort(SimConfig(seed=13, n_negative=0, n_positive=5))
        p = tmp_path / "pos.json"
        export_cohort_json(pos, p)
        result = runner.invoke(main, [
            "tune", "--train-positives", str(p),
            "--validation-negatives", str(p), "--out", str(tmp_path / "t.csv"),
        ])
        assert result.exit_code == 2


class TestQuantCommand:
    def test_quant_with_explicit_rates(self, runner, tmp_path):
        patients, objects = _write_mixed_cohort_csvs(tmp_path)
        out = tmp_path / "q"
        result = runner.invoke(main, [
            "quant", "--patients", str(patients), "--objects", str(objects),
            "--C", "0.5", "--f-hat", "3.0", "--s-hat", "0.7", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "report.json").read_text())
        assert "quantitation" in doc
        assert len(doc["quantitation"]["per_patient"]) == 2

    def test_quant_rates_from_cohort_as_csv(self, runner, tmp_path):
        patients, objects = _write_mixed_cohort_csvs(tmp_path)
        out = tmp_path / "q"
        result = runner.invoke(main, [
            "quant", "--patients", str(patients), "--objects", str(objects),
            "--C", "0.5", "--out", str(out), "--format", "csv",
        ])
        assert result.exit_code == 0, result.output
        assert result.stdout.splitlines() == [
            str(out / name) for name in ("report.json", "quantitation.csv", "bland_altman.csv")
        ]
        doc = json.loads((out / "report.json").read_text())
        assert doc["quantitation"]["fom"] is not None
        quant_rows = (out / "quantitation.csv").read_text().splitlines()
        assert quant_rows[0] == "patient_id,P_true,P_hat,rel_error"
        assert [row.split(",")[0] for row in quant_rows[1:]] == ["pos1", "pos2"]
        ba_rows = (out / "bland_altman.csv").read_text().splitlines()
        assert ba_rows[0] == "mean_log10,diff_log10"
        assert len(ba_rows) == 3

    def test_rates_from_positives_only_warn_about_the_fpr(self, runner, tmp_path):
        # no negatives: F-hat is the mean FPR of the positives
        cohort = make_cohort(
            make_patient("pos1", positive=True, parasite_scores=(0.9, 0.7),
                         distractor_scores=(0.75,)),
            make_patient("pos2", positive=True, parasite_scores=(0.95,)),
        )
        export_cohort_json(cohort, tmp_path / "c.json")
        out = tmp_path / "q"
        result = runner.invoke(main, ["quant", "--json", str(tmp_path / "c.json"),
                                      "--C", "0.5", "--out", str(out)])
        assert result.exit_code == 0, result.output
        warning = ("FPR computed over positive patients; mis-/unannotated parasites "
                   "can inflate these values")
        assert result.stderr.splitlines() == [f"warning: {warning}"]
        assert json.loads((out / "report.json").read_text())["warnings"] == [warning]


class TestPoissonCommand:
    def test_pmf_to_stdout(self, runner):
        result = runner.invoke(main, ["poisson", "-p", "100", "-v", "0.01"])
        assert result.exit_code == 0, result.output
        lines = result.output.strip().splitlines()
        assert lines[0] == "volume,k,probability"
        assert lines[1] == f"0.01,0,{math.exp(-1.0)!r}"

    def test_min_volume_mode(self, runner):
        result = runner.invoke(main, [
            "poisson", "-p", "100", "--k-min", "1",
            "--confidence", str(1 - math.exp(-1)),
        ])
        assert result.exit_code == 0, result.output
        v = float(result.output.split("=")[1].split()[0])
        assert v == pytest.approx(0.01, abs=1e-6)

    def test_pmf_to_file(self, runner, tmp_path):
        path = tmp_path / "pmf.csv"
        result = runner.invoke(main, ["poisson", "-p", "100", "-v", "0.01", "--out", str(path)])
        assert result.exit_code == 0, result.output
        assert result.stdout == f"{path}\n"
        stdout = runner.invoke(main, ["poisson", "-p", "100", "-v", "0.01"]).stdout
        lines = path.read_text().splitlines()
        assert lines[0] == "volume,k,probability"
        assert lines == stdout.splitlines()
        assert len(lines) > 2

    def test_half_specified_min_volume_is_input_error(self, runner):
        result = runner.invoke(main, ["poisson", "-p", "100", "--k-min", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("p, k_min, confidence", [
        ("5e-324", "1", "0.5"),     # 1 / P is already inf
        ("1e-308", "10", "0.99"),   # doubling the volume reaches inf
    ])
    def test_min_volume_past_the_float_range_is_input_error(self, runner, p, k_min, confidence):
        result = runner.invoke(main, ["poisson", "-p", p, "--k-min", k_min,
                                      "--confidence", confidence])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == (f"error: no finite volume reaches confidence={confidence} "
                                 f"of >= {k_min} parasites at parasitemia P={p}\n")

    def test_k_min_past_exact_float_counts_is_input_error(self, runner):
        result = runner.invoke(main, ["poisson", "-p", "1", "--k-min", str(10**400),
                                      "--confidence", "0.5"])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == ("error: k_min must be <= 2**53, the largest count "
                                 "a float holds exactly\n")


class TestSimulateCommand:
    def test_deterministic_output(self, runner, tmp_path):
        args = ["simulate", "--seed", "42", "--n-negative", "4", "--n-positive", "4"]
        r1 = runner.invoke(main, args + ["--out", str(tmp_path / "a")])
        r2 = runner.invoke(main, args + ["--out", str(tmp_path / "b")])
        assert r1.exit_code == 0 and r2.exit_code == 0
        for name in ("patients.csv", "objects.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_seed_env_var_default(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("PARASITOMETRICS_SEED", "7")
        r_env = runner.invoke(main, [
            "simulate", "--n-negative", "3", "--n-positive", "0",
            "--out", str(tmp_path / "env"),
        ])
        r_explicit = runner.invoke(main, [
            "simulate", "--seed", "7", "--n-negative", "3", "--n-positive", "0",
            "--out", str(tmp_path / "explicit"),
        ])
        assert r_env.exit_code == 0 and r_explicit.exit_code == 0
        assert (tmp_path / "env" / "objects.csv").read_bytes() == \
            (tmp_path / "explicit" / "objects.csv").read_bytes()

    def test_empty_seed_env_var_is_unset(self, runner, tmp_path, monkeypatch):
        # click reads an empty variable as unset: the default seed 0, where a bad
        # value exits 2; --seed still beats the variable
        args = ["simulate", "--n-negative", "3", "--n-positive", "3", "--format", "json"]
        outputs = []
        for env, extra in ((None, []), ("", []), ("7", ["--seed", "0"])):
            if env is None:
                monkeypatch.delenv("PARASITOMETRICS_SEED", raising=False)
            else:
                monkeypatch.setenv("PARASITOMETRICS_SEED", env)
            out = tmp_path / f"env-{env}"
            result = runner.invoke(main, [*args, *extra, "--out", str(out)])
            assert (result.exit_code, result.stderr) == (0, ""), result.output
            outputs.append((out / "cohort.json").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_json_output_roundtrips_through_evaluate(self, runner, tmp_path):
        sim = runner.invoke(main, [
            "simulate", "--seed", "3", "--out", str(tmp_path / "sim"),
            "--format", "json",
        ])
        assert sim.exit_code == 0, sim.output
        out = tmp_path / "report"
        ev = runner.invoke(main, [
            "evaluate", "--json", str(tmp_path / "sim" / "cohort.json"),
            "--C", "0.5", "--spec-target", "0.95", "--out", str(out),
        ])
        assert ev.exit_code == 0, ev.output
        assert (out / "report.json").exists()

    @pytest.mark.parametrize("volume", ["nan", "inf", "1e300"])
    def test_unusable_volume_is_one_line_input_error(self, runner, tmp_path, volume):
        result = runner.invoke(main, [
            "simulate", "--volume", volume, "--out", str(tmp_path / "s"),
        ])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("env, args", [
        ({"PARASITOMETRICS_SEED": "abc"}, []),
        ({"PARASITOMETRICS_SEED": "1.5"}, []),
        ({"PARASITOMETRICS_SEED": "-1"}, []),
        ({}, ["--seed", "-1"]),
        ({}, ["--seed", "-1", "--preset", "who56"]),
    ], ids=["env-abc", "env-float", "env-negative", "negative", "negative-who56"])
    def test_bad_seed_is_one_line_input_error(self, runner, tmp_path, monkeypatch,
                                              env, args):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        result = runner.invoke(main, ["simulate", *args, "--out", str(tmp_path / "s")])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: ") and "seed" in result.stderr.lower()
        assert len(result.stderr.splitlines()) == 1
        assert "Traceback" not in result.output
        assert not (tmp_path / "s").exists()

    def test_default_preset_sizes(self, runner, tmp_path):
        result = runner.invoke(main, [
            "simulate", "--seed", "1", "--out", str(tmp_path / "d"), "--format", "json",
        ])
        assert result.exit_code == 0, result.output
        patients = json.loads((tmp_path / "d" / "cohort.json").read_text())["patients"]
        assert sorted(p["ground_truth"] for p in patients) == ["neg"] * 20 + ["pos"] * 20
        assert {p["examined_volume"] for p in patients} == {1.0}

    @pytest.mark.parametrize("args", [["--n-negative", "3"], ["--n-positive", "20"],
                                      ["--volume", "5"]],
                             ids=["n-negative", "n-positive", "volume"])
    def test_who56_rejects_a_size_option(self, runner, tmp_path, args):
        result = runner.invoke(main, [
            "simulate", "--preset", "who56", *args, "--out", str(tmp_path / "w"),
        ])
        assert result.exit_code == 2, result.output
        assert result.stderr == (
            "error: --n-negative, --n-positive and --volume apply to --preset default; "
            "who56 sets its own cohort size and volume\n")
        assert result.stdout == ""
        assert not (tmp_path / "w").exists()

    def test_who56_preset(self, runner, tmp_path):
        result = runner.invoke(main, [
            "simulate", "--preset", "who56", "--seed", "1",
            "--out", str(tmp_path / "w"), "--format", "json",
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "w" / "cohort.json").read_text())
        assert len(doc["patients"]) == 40


class TestReproducePaper:
    def test_all_checks_pass(self, runner, tmp_path):
        out = tmp_path / "repro"
        result = runner.invoke(main, ["reproduce-paper", "--out", str(out)])
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest and all(c["passed"] for c in manifest)
        pass_lines = [l for l in result.output.splitlines() if l.startswith("PASS")]
        assert len(pass_lines) == len(manifest)


    def test_failing_check_exits_1_and_still_writes_the_manifest(self, runner, tmp_path,
                                                                 monkeypatch):
        checks = [reproduce.CheckResult("alpha", True, "ok"),
                  reproduce.CheckResult("drifted", False, "3.4 != 3.3")]
        monkeypatch.setattr(reproduce, "run_all", lambda: checks)
        out = tmp_path / "repro"
        result = runner.invoke(main, ["reproduce-paper", "--out", str(out)])
        assert result.exit_code == 1
        assert result.stdout.splitlines() == ["PASS  alpha: ok", "FAIL  drifted: 3.4 != 3.3"]
        assert result.stderr == "error: first failing check: drifted\n"
        assert [c["name"] for c in json.loads((out / "manifest.json").read_text())] == \
            ["alpha", "drifted"]


def _fresh_import(modules: str, package: str) -> list[str]:
    """The modules of ``package`` that a fresh interpreter holds after ``import <modules>``."""
    code = (f"import json, sys, {modules}; print(json.dumps(sorted(m for m in sys.modules "
            f"if (m + '.').startswith({package!r} + '.'))))")
    result = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                            text=True, check=True)
    return json.loads(result.stdout)


def test_readme_commands_use_only_real_options():
    # each `parasitometrics <command>` line of README's sh block under "Commands:",
    # continuation lines joined and comments left out
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("Commands:", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    assert all(line.startswith("parasitometrics ") for line in lines), lines
    assert {line.split()[1] for line in lines} == set(main.commands)
    for line in lines:
        _, name, *tokens = line.split()
        options = {opt for param in main.commands[name].params
                   for opt in (*param.opts, *param.secondary_opts)}
        used = [t for t in tokens if t.startswith("-") and not t[1:2].isdigit()]
        assert used and set(used) <= options, (line, set(used) - options)


def test_package_import_loads_no_submodule():
    # library names are imported from the module that defines them
    assert _fresh_import("parasitometrics", "parasitometrics") == ["parasitometrics"]


def test_cli_import_loads_no_scipy_module():
    # only simulate, poisson and reproduce-paper need scipy's ufuncs (and
    # numpy's Generator), and they load them when they run: the load would add
    # about 6 MB to every other command
    assert _fresh_import("parasitometrics.cli", "scipy") == []


def test_cli_import_loads_only_the_data_model_and_errors():
    # each command imports the analysis modules it runs; statistics (with
    # decimal and fractions) is loaded by none of them
    assert _fresh_import("parasitometrics.cli", "parasitometrics") == [
        "parasitometrics", "parasitometrics.cli", "parasitometrics.datamodel",
        "parasitometrics.errors"]
    assert _fresh_import("parasitometrics.cli", "statistics") == []


def test_simulate_runs_without_the_analysis_modules(tmp_path):
    # simulate is the set-up of every benchmark workload, and uses none of them
    code = ("import json, sys\nfrom parasitometrics.cli import main\n"
            "main(sys.argv[1:], standalone_mode=False)\n"
            "print(json.dumps(sorted(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code, "simulate", "--format", "json",
                             "--out", "sim"], cwd=tmp_path, env=src_env(), capture_output=True,
                            text=True, check=True)
    loaded = set(json.loads(result.stdout.splitlines()[-1]))
    analysis = {f"parasitometrics.{m}" for m in ("calibration", "metrics", "stats", "curves",
                                                 "quant", "report", "reproduce")}
    assert "parasitometrics.simulator" in loaded
    assert sorted(loaded & (analysis | {"statistics"})) == []
    assert (tmp_path / "sim" / "cohort.json").exists()


def test_simulate_help_shows_simconfigs_defaults(runner):
    # the help restates them by hand: taking them from SimConfig would load the
    # simulator, scipy's ufuncs and numpy's Generator into every command
    text = " ".join(runner.invoke(main, ["simulate", "--help"]).stdout.split())
    defaults = {f.name: f.default for f in dataclasses.fields(SimConfig)}
    shown = {}
    for param in main.commands["simulate"].params:
        if param.default is None and "[default: " in (param.help or ""):
            opt = max(param.opts, key=len)
            shown[param.name] = re.search(rf"{opt} \S+ .*?\[default: ([^\]]+)\]", text)[1]
    assert shown == {name: str(defaults[name]) for name in
                     ("n_negative", "n_positive", "examined_volume")}


def test_cli_import_freezes_its_objects_and_a_command_prints_the_same_bytes(runner):
    # frozen objects are skipped by the collector's passes at interpreter exit, so
    # a command does not tear down what its imports built
    code = ("import gc, json, parasitometrics.cli; "
            "print(json.dumps([gc.get_freeze_count(), len(gc.get_objects())]))")
    result = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                            text=True, check=True)
    frozen, tracked = json.loads(result.stdout)
    assert frozen > 0 and tracked < frozen / 100
    args = ["poisson", "-p", "100", "-v", "0.01"]
    result = subprocess.run([sys.executable, "-m", "parasitometrics.cli", *args],
                            env=src_env(), capture_output=True)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == runner.invoke(main, args).stdout_bytes


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_cli_import_runs_no_collection_and_restores_the_collectors_state(tmp_path, enabled):
    # what the imports build lives until exit, so a pass while they run would
    # free almost nothing; the compile of cli.py itself comes before its first
    # line, so the first run writes the bytecode an installed package ships
    # with, and the second run is measured
    code = ("import gc, json\n"
            f"{'' if enabled else 'gc.disable()'}\n"
            "passes = []\n"
            "gc.callbacks.append(lambda phase, info: passes.append(info) if phase == 'start' "
            "else None)\n"
            "import parasitometrics.cli\n"
            "gc.callbacks.clear()\n"
            "print(json.dumps([passes, gc.isenabled()]))")
    env = {**src_env(), "PYTHONPYCACHEPREFIX": str(tmp_path)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for _ in range(2):
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True)
    assert json.loads(result.stdout) == [[], enabled]


def test_simulator_and_reproduce_leave_out_scipy_optimize():
    # the simulator solves its beta shapes itself; scipy.optimize took 0.2 s to load
    assert _fresh_import("parasitometrics.simulator, parasitometrics.reproduce",
                         "scipy.optimize") == []


_RUN_AND_LIST_MODULES = """
import json, sys
from parasitometrics.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    assert not exc.code, exc.code
print(json.dumps(sorted(sys.modules)))
"""


def _run_and_list_modules(cwd, args) -> set[str]:
    """The modules a fresh interpreter holds after running the CLI command ``args``."""
    result = subprocess.run([sys.executable, "-c", _RUN_AND_LIST_MODULES, *args],
                            cwd=cwd, env=src_env(), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_evaluate_curves_and_tune_load_neither_numpy_ma_nor_scipy(tmp_path):
    # np.median, np.percentile and np.unique import numpy.ma lazily, which
    # took 13-19 ms a command
    cohort = generate_cohort(SimConfig(seed=4, n_negative=6, n_positive=6, examined_volume=0.35))
    export_cohort(cohort, tmp_path / "objects.csv", tmp_path / "patients.csv")
    export_cohort_json(cohort, tmp_path / "cohort.json")
    for args in (
        ["evaluate", "--patients", "patients.csv", "--objects", "objects.csv", "--C", "0.5",
         "--spec-target", "0.95", "--format", "csv", "--curves", "--out", "out"],
        ["tune", "--train-positives", "cohort.json", "--validation-negatives", "cohort.json",
         "--out", "tune.csv"],
        ["evaluate", "--json", "cohort.json", "--C", "0.5", "--spec-target", "0.95",
         "--calib-method", "percentile", "--out", "out_percentile"],
        ["tune", "--train-positives", "cohort.json", "--validation-negatives", "cohort.json",
         "--calib-method", "percentile", "--out", "tune_percentile.csv"],
        ["quant", "--json", "cohort.json", "--C", "0.5", "--out", "out_quant"],
    ):
        loaded = _run_and_list_modules(tmp_path, args)
        assert sorted(m for m in loaded if m == "numpy.ma"
                      or m.startswith(("numpy.ma.", "scipy"))) == [], args
    assert (tmp_path / "out" / "curve_froc.csv").exists() and (tmp_path / "tune.csv").exists()
    assert (tmp_path / "tune_percentile.csv").exists()
    assert "fom" in json.loads((tmp_path / "out_quant" / "report.json").read_text())[
        "quantitation"]


def test_evaluate_loads_only_the_modules_it_runs(tmp_path):
    # report names quant's result in an annotation alone, and the normal
    # quantile is read from _statistics, so evaluate loads neither quant nor
    # statistics (with decimal and fractions); the curves only with --curves
    cohort = generate_cohort(SimConfig(seed=4, n_negative=6, n_positive=6, examined_volume=0.35))
    export_cohort_json(cohort, tmp_path / "cohort.json")
    args = ["evaluate", "--json", "cohort.json", "--C", "0.5", "--spec-target", "0.95"]
    with_curves = _run_and_list_modules(tmp_path, [*args, "--curves", "--out", "curves"])
    without = _run_and_list_modules(tmp_path, [*args, "--out", "plain"])
    assert {"parasitometrics.curves", "parasitometrics.report"} <= with_curves
    assert sorted(with_curves & {"parasitometrics.quant", "statistics"}) == []
    assert sorted(without & {"parasitometrics.quant", "statistics",
                             "parasitometrics.curves"}) == []
    assert "curves" in json.loads((tmp_path / "curves" / "report.json").read_text())
    assert "curves" not in json.loads((tmp_path / "plain" / "report.json").read_text())


def test_quant_on_a_constant_parasitemia_reports_null_r2(tmp_path):
    # every log10 parasitemia is 0: fitting a line to it made LAPACK print to
    # stdout and raise LinAlgError, so quant exited 1 with a traceback
    export_cohort_json(make_cohort(
        make_patient("neg1", distractor_scores=(0.6,)),
        make_patient("pos1", positive=True, parasitemia=1.0, parasite_scores=(0.9,)),
        make_patient("pos2", positive=True, parasitemia=1.0, parasite_scores=(0.8,),
                     distractor_scores=(0.7,)),
    ), tmp_path / "c.json")
    result = subprocess.run(
        [sys.executable, "-m", "parasitometrics.cli", "quant", "--json", "c.json",
         "--C", "0.5", "--out", "q"],
        cwd=tmp_path, env=src_env(), capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (0, str(Path("q") / "report.json") + "\n")
    assert "Traceback" not in result.stderr
    quant = json.loads((tmp_path / "q" / "report.json").read_text())["quantitation"]
    assert quant["r2_linear"] is None and quant["r2_log"] is None
    assert quant["notes"] == [LINEAR_R2_NOTE, CONSTANT_X_NOTE]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_bad_byte_piped_to_ingest_is_placed_at_its_offset(tmp_path, fmt):
    # a pipe is read in blocks of at most its buffer's size and cannot be read
    # again, so the byte must be placed from the reads already made
    cohort = generate_cohort(SimConfig(seed=0, n_negative=20, n_positive=20))
    if fmt == "json":
        export_cohort_json(cohort, tmp_path / "in.json")
        path, at, args = tmp_path / "in.json", 300_000, ["--json", "/dev/stdin"]
        prefix = "/dev/stdin: not valid JSON: "
    else:
        export_cohort(cohort, tmp_path / "in.csv", tmp_path / "patients.csv")
        path, at = tmp_path / "in.csv", 150_001
        args = ["--objects", "/dev/stdin", "--patients", "patients.csv"]
        prefix = "objects file: "
    data = bytearray(path.read_bytes())
    data[at] = 0xff
    result = subprocess.run([sys.executable, "-m", "parasitometrics.cli", "lod", *args,
                             "--C", "0.5"], input=bytes(data), cwd=tmp_path, env=src_env(),
                            capture_output=True)
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr.decode() == (f"error: {prefix}'utf-8' codec can't decode byte 0xff in "
                                      f"position {at}: invalid start byte\n")


EVALUATE_ARGS = st.sampled_from([
    ["--C", "0.5", "--T", "1.0"],
    ["--C", "0.5", "--spec-target", "0.95", "--curves"],
    ["--C", "0.0", "--T", "0.0", "--bins", "100", "--format", "csv"],
])


def _assert_clean_exit(result):
    """Exit 0, 2 or 3 and never 1, no traceback, and one error line on exit 2."""
    assert result.exit_code in (0, 2, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    if result.exit_code == 2:
        assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: ")


@settings(max_examples=60, deadline=None)
@given(
    patient=st.integers(0, 1),
    obj=st.one_of(st.none(), st.integers(0, 1)),
    key=st.data(),
    value=st.one_of(JSON_VALUES, st.just(KeyError)),
    args=EVALUATE_ARGS,
)
def test_cli_exit_codes_on_any_json_edit(patient, obj, key, value, args):
    path = ("patients", patient) + (() if obj is None else ("objects", obj))
    name = key.draw(st.sampled_from(PATIENT_KEYS if obj is None else OBJECT_KEYS))
    doc = _json_doc()
    _set(path + (name,), value)(doc)
    with tempfile.TemporaryDirectory() as tmp:
        cohort = os.path.join(tmp, "cohort.json")
        with open(cohort, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        runner = CliRunner()
        _assert_clean_exit(runner.invoke(main, [
            "evaluate", "--json", cohort, "--out", os.path.join(tmp, "r"), *args]))
        _assert_clean_exit(runner.invoke(main, [
            "tune", "--train-positives", cohort, "--validation-negatives", cohort,
            "--c-grid", "0.1,0.5,0.85", "--out", os.path.join(tmp, "t.csv")]))


@settings(max_examples=60, deadline=None)
@given(texts=csv_pairs(), args=EVALUATE_ARGS)
def test_cli_exit_codes_on_any_csv_text(texts, args):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("patients.csv", "objects.csv")]
        for path, text in zip(paths, texts):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        result = CliRunner().invoke(main, [
            "evaluate", "--patients", paths[0], "--objects", paths[1],
            "--out", os.path.join(tmp, "r"), *args])
        _assert_clean_exit(result)


@functools.cache
def _seeded_cohort_files():
    """A small simulated cohort as its JSON text and its CSV pair, in bytes."""
    cohort = generate_cohort(SimConfig(seed=3, n_negative=3, n_positive=3,
                                       examined_volume=0.05))
    doc, objects, patients = io.StringIO(), io.StringIO(), io.StringIO()
    export_cohort_json(cohort, doc)
    export_cohort(cohort, objects, patients)
    return {name: buf.getvalue().encode() for name, buf in
            (("cohort.json", doc), ("objects.csv", objects), ("patients.csv", patients))}


MUTATED_VALUES = st.sampled_from(
    [None, math.nan, math.inf, -math.inf, 1e308, 2 ** 70, "", [0.5], {"k": 0.5}, KeyError])
# None truncates the file where the other edits insert their bytes
MUTATED_BYTES = st.sampled_from([None, b"\x00", b"\xff", b"\xef\xbb\xbf", b"\r", b'"'])


@st.composite
def mutated_cohort_files(draw):
    """The seeded cohort's files with one value edited (JSON) or one byte edit."""
    files = dict(_seeded_cohort_files())
    if draw(st.booleans()):
        doc = json.loads(files["cohort.json"])
        patients = doc["patients"]
        i = draw(st.integers(0, len(patients) - 1))
        if draw(st.booleans()):
            patients.append(copy.deepcopy(patients[i]))  # a duplicated patient
        else:
            objects = patients[i]["objects"]
            j = draw(st.one_of(st.none(), st.integers(0, len(objects) - 1)))
            path = ("patients", i) + (() if j is None else ("objects", j))
            key = draw(st.sampled_from(PATIENT_KEYS if j is None else OBJECT_KEYS))
            _set(path + (key,), draw(MUTATED_VALUES))(doc)  # KeyError drops the key
        files["cohort.json"] = json.dumps(doc).encode()
        return files, "cohort.json"
    name = draw(st.sampled_from(sorted(files)))
    blob = files[name]
    at = draw(st.integers(0, len(blob)))
    insert = draw(MUTATED_BYTES)
    files[name] = blob[:at] if insert is None else blob[:at] + insert + blob[at:]
    return files, name


@settings(max_examples=100, deadline=None)
@given(mutated=mutated_cohort_files())
def test_commands_on_a_mutated_cohort_exit_cleanly(mutated):
    files, edited = mutated
    with tempfile.TemporaryDirectory() as tmp:
        path = {name: os.path.join(tmp, name) for name in files}
        for name, blob in files.items():
            with open(path[name], "wb") as fh:
                fh.write(blob)
        cohort = path["cohort.json"]
        dataset = (["--json", cohort] if edited == "cohort.json" else
                   ["--patients", path["patients.csv"], "--objects", path["objects.csv"]])
        commands = [
            ["evaluate", *dataset, "--C", "0.5", "--spec-target", "0.95", "--curves",
             "--out", os.path.join(tmp, "e")],
            ["calibrate", *dataset, "--C", "0.5", "--scatter-out", os.path.join(tmp, "s.csv")],
            ["lod", *dataset, "--C", "0.5", "--method", "robust"],
            ["quant", *dataset, "--C", "0.5", "--out", os.path.join(tmp, "q")],
        ]
        if edited == "cohort.json":
            commands.append(["tune", "--train-positives", cohort, "--validation-negatives",
                             cohort, "--out", os.path.join(tmp, "t.csv")])
        for args in commands:
            result = CliRunner().invoke(main, args)
            _assert_clean_exit(result)
            if result.exit_code == 3:
                assert [line for line in result.stderr.splitlines()
                        if line.startswith("error: ")] == [result.stderr.splitlines()[-1]]


@pytest.mark.parametrize("command", ["evaluate", "tune"])
def test_deeply_nested_json_is_one_line_input_error(runner, tmp_path, command):
    # the JSON scanner raises RecursionError, not ValueError, past its depth limit
    path = tmp_path / "cohort.json"
    path.write_text('{"cv_description": "x", "patients": %s}' % ("[" * 10 ** 5 + "]" * 10 ** 5))
    args = {"evaluate": ["evaluate", "--json", str(path), "--C", "0.5", "--T", "1.0",
                         "--out", str(tmp_path / "r")],
            "tune": ["tune", "--train-positives", str(path), "--validation-negatives",
                     str(path), "--out", str(tmp_path / "t.csv")]}[command]
    result = runner.invoke(main, args)
    _assert_clean_exit(result)
    assert result.stderr == f"error: {path}: not valid JSON: nesting too deep\n"
