import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from parasitometrics.calibration import OperatingPoint
from parasitometrics.metrics import (
    fpr_distribution,
    patient_level_sens_spec,
    sensitivity_distribution,
)
from parasitometrics.report import EvaluationReport, _document, write_report


@pytest.fixture
def full_report(mixed_cohort):
    op = OperatingPoint(C=0.5, T=2.0)
    return EvaluationReport(
        cv_description=mixed_cohort.cv_description,
        provenance="test fixture",
        operating_point=op,
        fpr=fpr_distribution(mixed_cohort, 0.5),
        sensitivity=sensitivity_distribution(mixed_cohort, 0.5),
        patient_level=patient_level_sens_spec(mixed_cohort, op),
    )


class TestStructuralInvariant:
    def test_full_report_serializes(self, full_report):
        doc = _document(full_report, lambda name, c: c.points.tolist())
        assert doc["schema_version"] == 1
        assert doc["patient_level"]["specificity"] is not None
        assert "specificity_absent_reason" not in doc["patient_level"]
        assert doc["patient_level"]["sensitivity"]["parasitemia_bins"]

    def test_explicit_absence_reason_is_accepted(self, full_report):
        # the result type carries the specificity; None is written with its reason
        full_report.patient_level = replace(full_report.patient_level, specificity=None)
        doc = _document(full_report, lambda name, c: c.points.tolist())
        assert doc["patient_level"]["specificity"] is None
        assert doc["patient_level"]["specificity_absent_reason"] == \
            "cohort has no negative patients"


class TestWriteReport:
    def test_repeated_writes_byte_identical(self, full_report, tmp_path):
        write_report(full_report, tmp_path / "a", fmt="json")
        write_report(full_report, tmp_path / "b", fmt="json")
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()

    def test_csv_format_emits_per_patient_tables(self, full_report, tmp_path):
        paths = write_report(full_report, tmp_path / "r", fmt="csv")
        emitted = {str(p).rsplit("/", 1)[-1] for p in paths}
        assert "report.json" in emitted
        assert "per_patient_fpr.csv" in emitted
        assert "per_patient_sensitivity.csv" in emitted

    def test_json_is_valid_and_sorted(self, full_report, tmp_path):
        write_report(full_report, tmp_path / "r", fmt="json")
        doc = json.loads((tmp_path / "r" / "report.json").read_text())
        assert list(doc) == sorted(doc)

    def test_numpy_floats_read_the_same_in_csv_as_in_json(self, full_report, tmp_path):
        # a library caller's distribution may hold numpy floats, whose repr is
        # not a float's; each CSV cell is the text of its report.json value
        fpr = full_report.fpr
        full_report.fpr = replace(fpr, per_patient={k: np.float64(v)
                                                    for k, v in fpr.per_patient.items()})
        write_report(full_report, tmp_path / "r", fmt="csv")
        doc = json.loads((tmp_path / "r" / "report.json").read_text(), parse_float=str)
        in_json = doc["fpr_distribution"]["per_patient"]
        with open(tmp_path / "r" / "per_patient_fpr.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["patient_id", "fp_per_cv"] and len(rows) == len(in_json) > 1
        for pid, cell in rows:
            assert cell == in_json[pid]
