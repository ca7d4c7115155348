"""Evaluation report assembly and serialization (JSON document + CSV blocks).

A patient-level sensitivity is only reportable together with its
parasitemia bin definition and the paired specificity; the report's
``patient_level`` is a ``StratifiedResult``, which carries all three, so the
section is written whole or not at all.

``report.json`` has the bytes of ``json.dump(doc, fh, indent=2,
sort_keys=True)`` plus a newline, and each CSV table has ``csv.writer``'s
bytes: a value's text is the encoder's own (a float by ``repr``, ``None`` as
``null`` or an empty cell). The curve points are the one exception,
formatted once for both files: each curve's points are its name in the
document, and its point block is written in place of that placeholder, a
block of points at a time, from the number strings that fill the curve's
CSV (``inf`` there, ``Infinity`` in JSON).
"""

from __future__ import annotations

import csv
import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:  # annotations only: evaluate writes a report without loading quant
    from .calibration import LodEstimate, OperatingPoint
    from .curves import CurvePoints
    from .metrics import MetricDistribution, StratifiedResult
    from .quant import QuantResult

SCHEMA_VERSION = 1


@dataclass
class EvaluationReport:
    """What one report writes: the cohort's provenance and each metric it was given."""
    cv_description: str
    provenance: str
    operating_point: OperatingPoint | None = None
    fpr: MetricDistribution | None = None
    sensitivity: MetricDistribution | None = None
    pooled_sensitivity: float | None = None
    patient_level: StratifiedResult | None = None
    lod_estimates: list[LodEstimate] = field(default_factory=list)
    curves: dict[str, CurvePoints] = field(default_factory=dict)
    quantitation: QuantResult | None = None
    warnings: list[str] = field(default_factory=list)


def _summary_doc(md: MetricDistribution, kind: str) -> dict:
    s = md.summary
    return {
        "kind": kind,
        "n": s.n,
        "mean": s.mean,
        "median": s.median,
        "std": s.std,
        "sigma_left": s.sigma_left,
        "sigma_right": s.sigma_right,
        "per_patient": md.per_patient,
        "excluded": md.excluded,
        "warnings": md.warnings,
    }


def _strata_doc(strata) -> list[dict]:
    return [
        {
            "label": st.label,
            "n_patients": st.n_patients,
            "n_detected": st.n_detected,
            "sensitivity": st.value,
        }
        for st in strata
    ]


def _stratified_doc(sr: StratifiedResult) -> dict:
    return {
        "overall": sr.overall,
        "parasitemia_bins": [[lo, "inf" if hi == float("inf") else hi] for lo, hi in sr.bins],
        "parasitemia_strata": _strata_doc(sr.parasitemia_strata),
        "species_strata": _strata_doc(sr.species_strata),
    }


def _document(report: EvaluationReport, points) -> dict:
    """The report as a JSON-ready document, ``points(name, curve)`` as each curve's points."""
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "metadata": {
            "cv_description": report.cv_description,
            "provenance": report.provenance,
            "operating_point": (
                None
                if report.operating_point is None
                else {"C": report.operating_point.C, "T": report.operating_point.T}
            ),
        },
        "warnings": report.warnings,
    }
    if report.fpr is not None:
        doc["fpr_distribution"] = _summary_doc(report.fpr, "fpr")
    if report.sensitivity is not None:
        doc["sensitivity_distribution"] = _summary_doc(report.sensitivity, "object_sensitivity")
    if report.pooled_sensitivity is not None:
        doc["pooled_object_sensitivity"] = report.pooled_sensitivity
    if report.patient_level is not None:
        pl = report.patient_level
        doc["patient_level"] = {"sensitivity": _stratified_doc(pl),
                                "specificity": pl.specificity}
        if pl.specificity is None:
            doc["patient_level"]["specificity_absent_reason"] = "cohort has no negative patients"
    if report.lod_estimates:
        doc["lod_estimates"] = [
            {
                "L": e.L,
                "method": e.method.value,
                "mu_S": e.mu_S,
                "sigma_F": e.sigma_F,
                "sigma_left_F": e.sigma_left_F,
                "sigma_right_F": e.sigma_right_F,
                "plus_one": e.plus_one,
                "beta": e.beta,
            }
            for e in report.lod_estimates
        ]
    if report.curves:
        doc["curves"] = {
            name: {
                "kind": name,
                "auc": c.auc,
                "points": points(name, c),
                "notes": c.notes,
            }
            for name, c in report.curves.items()
        }
    if report.quantitation is not None:
        q = report.quantitation
        doc["quantitation"] = {
            "per_patient": {
                pid: {"P_hat": v[0], "P_true": v[1], "rel_error": v[2]}
                for pid, v in q.per_patient.items()
            },
            "fom": q.fom,
            "bland_altman": q.bland_altman,
            "r2_linear": q.r2_linear,
            "r2_log": q.r2_log,
            "clamped_patients": q.clamped_patients,
            "notes": q.notes,
        }
    return doc


# json's spelling of the non-finite floats, which repr (and so the CSV) spells inf, -inf, nan
_JSON_SPELLING = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}
# curve points formatted and written at a time, so no whole curve's text is
# held; one block's strings bound `evaluate --curves`' peak memory together
# with curves._FROC_BLOCK
_CURVE_BLOCK = 256


def _write_curve(fh, curve: CurvePoints, csv_path: Path | None, indent: str) -> None:
    """The (x, y, threshold) points as JSON rows below a key at ``indent``, and
    as the curve's CSV when ``csv_path`` is set, from one repr of each number."""
    a, b = indent + "  ", indent + "    "
    point = f"\n{a}[\n{b}{{}},\n{b}{{}},\n{b}{{}}\n{a}]".format
    with (nullcontext() if csv_path is None else
          open(csv_path, "w", newline="", encoding="utf-8")) as csv_fh:
        if csv_fh:
            csv_fh.write("threshold,x,y\r\n")
        points = curve.points
        for lo in range(0, len(points), _CURVE_BLOCK):
            xs, ys, ts = (list(map(repr, col)) for col in points[lo:lo + _CURVE_BLOCK].T.tolist())
            if csv_fh:  # a number's repr needs no CSV quoting
                csv_fh.write("".join(map("{},{},{}\r\n".format, ts, xs, ys)))
            # a float's repr is json's text, inf and nan aside
            cols = (map(_JSON_SPELLING.get, col, col) for col in (xs, ys, ts))
            fh.write(("," if lo else "[") + ",".join(map(point, *cols)))
    fh.write(f"\n{indent}]" if len(points) else "[]")


def _write_csv(path: Path, header, rows) -> str:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return str(path)


def write_report(report: EvaluationReport, out_dir, fmt: str = "json") -> list[str]:
    """Write the report to ``out_dir``; returns the list of files written.

    fmt="json" writes report.json only; fmt="csv" additionally writes the
    tabular sections as plot-ready CSV blocks. Output is a pure function of
    the report content (no timestamps).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    curve_csvs = {name: out / f"curve_{name}.csv"
                  for name in (report.curves if fmt == "csv" else ())}
    # each curve's points are its name
    text = json.dumps(_document(report, lambda name, c: name), indent=2, sort_keys=True)

    json_path = out / "report.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        # only a curve dict holds a string under "points", and a string's own
        # quotes are escaped, so each placeholder is found where sort_keys put it
        for name in sorted(report.curves):
            head, text = text.split('"points": ' + json.dumps(name), 1)
            fh.write(head + '"points": ')
            _write_curve(fh, report.curves[name], curve_csvs.get(name),
                         head[head.rindex("\n") + 1:])
        fh.write(text + "\n")
    written = [str(json_path)]

    if fmt == "csv":
        for md, name, column in ((report.fpr, "per_patient_fpr.csv", "fp_per_cv"),
                                 (report.sensitivity, "per_patient_sensitivity.csv",
                                  "object_sensitivity")):
            if md is not None:
                written.append(_write_csv(out / name, ("patient_id", column),
                                          sorted(md.per_patient.items())))
        if report.patient_level is not None:
            sr = report.patient_level
            written.append(_write_csv(
                out / "stratified_sensitivity.csv",
                ("stratum_type", "label", "n_patients", "n_detected", "sensitivity"),
                [(kind, st.label, st.n_patients, st.n_detected, st.value)
                 for kind, strata in (("parasitemia", sr.parasitemia_strata),
                                      ("species", sr.species_strata))
                 for st in strata],
            ))
        written += map(str, curve_csvs.values())
        if report.quantitation is not None:
            q = report.quantitation
            written.append(_write_csv(
                out / "quantitation.csv", ("patient_id", "P_true", "P_hat", "rel_error"),
                [(pid, v[1], v[0], v[2]) for pid, v in sorted(q.per_patient.items())],
            ))
            written.append(_write_csv(out / "bland_altman.csv", ("mean_log10", "diff_log10"),
                                      q.bland_altman))
    return written
