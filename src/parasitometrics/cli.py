"""Command-line surface.

Datasets are passed either as a single JSON document (``--json cohort.json``)
or as the CSV pair (``--patients patients.csv --objects objects.csv``).

Exit codes: 0 ok; an error exits with its class's ``exit_code`` (the table is
in ``errors``), and an unreadable file exits 2.
"""

from __future__ import annotations

import gc

# what the imports below build lives until exit, so a collection pass while they
# run frees almost nothing: the collector is off until gc.freeze() at the end
_COLLECTING = gc.isenabled()
gc.disable()

import csv
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import asdict, replace
from pathlib import Path

import click

from . import __version__
from .datamodel import (
    DEFAULT_BIN_EDGES,
    CalibrationMethod,
    check_thresholds,
    export_cohort,
    export_cohort_json,
    ingest_cohort,
    ingest_cohort_json,
)
from .errors import DegenerateDataError, InputError, ParasitometricsError, ReproductionFailure

# each command imports in its body the modules it runs, so `simulate` starts without
# the analysis stack, and only the commands that need scipy's ufuncs load them


def _dataset_options(fn):
    fn = click.option("--json", "json_path", type=click.Path(), default=None,
                      help="cohort as a single JSON document")(fn)
    fn = click.option("--patients", type=click.Path(), default=None,
                      help="patients CSV (with --objects)")(fn)
    fn = click.option("--objects", type=click.Path(), default=None,
                      help="objects CSV (with --patients)")(fn)
    fn = click.option("--cv", "cv_description", default=None,
                      help="name of the clinical volume unit, for CSV input "
                           "[default: 1 uL blood]")(fn)
    return fn


def _load_cohort(json_path, patients, objects, cv_description):
    if json_path is not None:
        if patients is not None or objects is not None:
            raise InputError("--json cannot be combined with --patients or --objects")
        if cv_description is not None:
            raise InputError("--cv applies to CSV input; a JSON cohort names its own "
                             "cv_description")
        return ingest_cohort_json(json_path)
    if patients is None or objects is None:
        raise InputError("provide either --json or both --patients and --objects")
    return ingest_cohort(objects, patients,
                         "1 uL blood" if cv_description is None else cv_description)


def _parse_floats(spec: str, what: str) -> list[float]:
    """Comma-separated numbers, e.g. '50,200,1000'."""
    try:
        return [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"could not parse {what} {spec!r}") from None


# the LoD has a Gaussian and a robust formula; percentile calibration has none
_LOD_METHODS = (CalibrationMethod.GAUSSIAN, CalibrationMethod.ROBUST)
_CALIBRATION_CHOICE = click.Choice([m.value for m in CalibrationMethod])


class _UsageError(click.UsageError):
    """click's usage error, shown as one ``error:`` line without the usage block."""

    def show(self, file=None):
        click.echo(f"error: {self.format_message()}", err=True)


class _Main(click.Group):
    """The command group, and the one place where an error becomes its line: a
    malformed command line, for the group or any of its commands, raises
    ``_UsageError``; a library error prints ``error: <message>`` and exits with
    its ``exit_code``, and an unreadable file prints ``io error: <message>`` and
    exits 2. A bare ``parasitometrics`` still prints the help."""

    def make_context(self, *args, **kwargs):
        return _one_line(super().make_context, *args, **kwargs)

    def invoke(self, ctx):  # parses the command's own arguments, then runs it
        try:
            return _one_line(super().invoke, ctx)
        except ParasitometricsError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)
        except OSError as exc:
            click.echo(f"io error: {exc}", err=True)
            sys.exit(2)


# click >= 8.2 raises a bare group's help as a usage error (8.1 exits 0 with it)
_BARE_GROUP_HELP = getattr(click.exceptions, "NoArgsIsHelpError", ())


def _one_line(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except _BARE_GROUP_HELP:
        raise
    except click.UsageError as exc:
        raise _UsageError(exc.format_message(), exc.ctx) from None


@click.group(cls=_Main)
@click.version_option(version=__version__)
def main():
    """Clinically grounded evaluation metrics for parasitemia diagnosis."""


@main.command()
@_dataset_options
@click.option("--C", "c_threshold", type=float, required=True, help="object-score threshold")
@click.option("--T", "t_threshold", type=float, default=None, help="per-cV count threshold")
@click.option("--spec-target", type=float, default=None, help="target specificity K for calibration")
@click.option("--calib-method", type=_CALIBRATION_CHOICE, default="gaussian", show_default=True)
@click.option("--bins", default=",".join(f"{e:g}" for e in DEFAULT_BIN_EDGES),
              show_default=True, help="interior parasitemia bin edges (per cV)")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json",
              show_default=True)
@click.option("--curves/--no-curves", "with_curves", default=False,
              help="include object ROC / FROC / patient ROC in the report")
def evaluate(json_path, patients, objects, cv_description, c_threshold, t_threshold,
             spec_target, calib_method, bins, out_dir, fmt, with_curves):
    """Full evaluation report at an operating point (explicit or calibrated)."""
    from .calibration import CalibrationConfig, OperatingPoint, calibrate_threshold, estimate_lod
    from .metrics import (check_bin_edges, fpr_distribution, patient_level_sens_spec,
                          pooled_object_sensitivity, sensitivity_distribution)
    from .report import EvaluationReport, write_report
    cohort = _load_cohort(json_path, patients, objects, cv_description)
    # a malformed --bins or --C exits 2 before any metric can exit 3
    bin_edges = check_bin_edges(_parse_floats(bins, "bin edges"))
    warnings: list[str] = []

    check_thresholds([c_threshold])
    cfg = CalibrationConfig(K=0.95 if spec_target is None else spec_target,
                            method=CalibrationMethod(calib_method))
    fpr = None
    if cohort.negatives:
        fpr = fpr_distribution(cohort, c_threshold, negatives_only=True)

    if t_threshold is None:
        if spec_target is None:
            raise InputError("provide --T, or --spec-target with --calib-method")
        if fpr is None:
            raise DegenerateDataError("calibration requires negative patients")
        t_threshold = calibrate_threshold(fpr, cfg)
    op = OperatingPoint(C=c_threshold, T=t_threshold)

    sens = None
    pooled = None
    if cohort.positives:
        try:
            sens = sensitivity_distribution(cohort, c_threshold)
            pooled_res = pooled_object_sensitivity(cohort, c_threshold)
            pooled = pooled_res.value
            if pooled_res.imbalance_warning:
                warnings.append(pooled_res.imbalance_warning)
        except DegenerateDataError as exc:
            warnings.append(str(exc))

    lods = []
    lod_skipped = None
    if fpr is None or sens is None:
        lod_skipped = ("cohort has no negative patients" if fpr is None
                       else "no positive patients with parasite objects")
        click.echo(f"warning: LoD skipped: {lod_skipped}", err=True)
    else:
        for method in _LOD_METHODS:
            try:
                lods.append(estimate_lod(fpr, sens, replace(cfg, method=method)))
            except DegenerateDataError as exc:
                click.echo(f"warning: LoD ({method.value}) skipped: {exc}", err=True)

    report = EvaluationReport(
        cv_description=cohort.cv_description,
        provenance=cohort.provenance,
        operating_point=op,
        fpr=fpr,
        sensitivity=sens,
        pooled_sensitivity=pooled,
        patient_level=patient_level_sens_spec(cohort, op, bin_edges),
        lod_estimates=lods,
        warnings=warnings,
    )
    if with_curves:
        from .curves import froc, object_roc, patient_roc
        t_grid = ([t for t in (op.T * k / 10.0 for k in range(0, 41)) if math.isfinite(t)]
                  if op.T > 0 else list(range(0, 41)))  # a huge T's multiples overflow
        # each curve on its own: one undefined on the cohort leaves the others
        for name, build in (("object_roc", lambda: object_roc(cohort)),
                            ("froc", lambda: froc(cohort)),
                            ("patient_roc", lambda: patient_roc(cohort, c_threshold, t_grid))):
            try:
                report.curves[name] = build()
            except DegenerateDataError as exc:
                warnings.append(f"{name} skipped: {exc}")

    for path in write_report(report, out_dir, fmt=fmt):
        click.echo(path)
    for w in warnings:
        if w != lod_skipped:  # the LoD line already named this cause
            click.echo(f"warning: {w}", err=True)


@main.command()
@_dataset_options
@click.option("--C", "c_threshold", type=float, required=True)
@click.option("--spec-target", type=float, default=0.95, show_default=True)
@click.option("--method", type=_CALIBRATION_CHOICE, default="gaussian", show_default=True)
@click.option("--scatter-out", type=click.Path(), default=None,
              help="write the per-patient FP scatter CSV here (to choose T by hand, as --T)")
def calibrate(json_path, patients, objects, cv_description, c_threshold, spec_target,
              method, scatter_out):
    """Calibrate the count threshold T for a target specificity."""
    from .calibration import CalibrationConfig, calibrate_threshold, fp_scatter
    from .metrics import fpr_distribution
    cohort = _load_cohort(json_path, patients, objects, cv_description)
    # a malformed --C or --spec-target exits 2 before any metric can exit 3
    check_thresholds([c_threshold])
    cfg = CalibrationConfig(K=spec_target, method=CalibrationMethod(method))
    fpr = fpr_distribution(cohort, c_threshold, negatives_only=True)
    if scatter_out:
        with open(scatter_out, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            # csv before Python 3.13 quotes only the line terminator's "\n", so an id
            # with "\r" is quoted here, as 3.13's plain writer quotes it, and its number is not
            quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
            w.writerow(("patient_id", "fp_count_per_cv"))
            for pid, v in fp_scatter(fpr):
                (quoted if "\r" in pid else w).writerow((pid, v))
        click.echo(scatter_out)
    t = calibrate_threshold(fpr, cfg)
    click.echo(f"T = {t!r}")


@main.command()
@_dataset_options
@click.option("--C", "c_threshold", type=float, required=True)
@click.option("--method", type=click.Choice([m.value for m in _LOD_METHODS]),
              default="gaussian", show_default=True, help="LoD formula")
@click.option("--beta", type=float, default=None, help="pessimistic denominator knob")
@click.option("--plus-one", is_flag=True, default=False)
def lod(json_path, patients, objects, cv_description, c_threshold, method, beta, plus_one):
    """Estimate the limit of detection from a cohort's F and S distributions."""
    from .calibration import CalibrationConfig, estimate_lod
    from .metrics import fpr_distribution, sensitivity_distribution
    cohort = _load_cohort(json_path, patients, objects, cv_description)
    # a malformed --C or --beta exits 2 before any metric can exit 3
    check_thresholds([c_threshold])
    cfg = CalibrationConfig(method=CalibrationMethod(method), beta=beta, plus_one=plus_one)
    fpr = fpr_distribution(cohort, c_threshold, negatives_only=True)
    sens = sensitivity_distribution(cohort, c_threshold)
    est = estimate_lod(fpr, sens, cfg)
    click.echo(f"LoD = {est.L!r} parasites per cV ({est.method.value})")


@main.command()
@click.option("--train-positives", "train_pos", type=click.Path(), required=True,
              help="JSON cohort of training positives")
@click.option("--validation-negatives", "val_neg", type=click.Path(), required=True,
              help="JSON cohort of validation negatives")
@click.option("--validation-positives", "val_pos", type=click.Path(), default=None)
@click.option("--spec-target", type=float, default=0.95, show_default=True)
@click.option("--c-grid", default=None,
              help="comma-separated C values (default: 101-point sweep)")
@click.option("--calib-method", type=_CALIBRATION_CHOICE, default="gaussian", show_default=True)
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="tuning table CSV")
def tune(train_pos, val_neg, val_pos, spec_target, c_grid, calib_method, out_path):
    """Sweep C, calibrate T at each, and pick the operating point with lowest LoD."""
    from .calibration import CalibrationConfig, default_c_grid, tune_operating_point
    train = ingest_cohort_json(train_pos)
    negatives = ingest_cohort_json(val_neg)
    if not negatives.negatives:
        raise InputError(
            "operating-point tuning requires a validation set of negative patients"
        )
    positives = ingest_cohort_json(val_pos) if val_pos else None
    grid = _parse_floats(c_grid, "C grid") if c_grid is not None else default_c_grid(train)
    cfg = CalibrationConfig(K=spec_target, method=CalibrationMethod(calib_method))
    best, table, skipped = tune_operating_point(train, negatives, positives, grid, cfg)
    with open(out_path, "w", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("C", "T", "LoD", "mu_F", "sigma_F", "sigma_L", "sigma_R", "mu_S"))
        w.writerows((row.C, row.T, row.lod, row.mu_F, row.sigma_F, row.sigma_left_F,
                     row.sigma_right_F, row.mu_S) for row in table)
    click.echo(out_path)
    click.echo(f"best C = {best.C!r}, T = {best.T!r}")
    for c, reason in skipped:
        click.echo(f"warning: C={c!r} skipped: {reason}", err=True)


@main.command()
@_dataset_options
@click.option("--C", "c_threshold", type=float, required=True)
@click.option("--T", "t_threshold", type=float, default=0.0, show_default=True)
@click.option("--f-hat", type=float, default=None,
              help="expected FPR per cV (default: mean FPR of the cohort's negatives)")
@click.option("--s-hat", type=float, default=None,
              help="expected sensitivity (default: mean per-patient sensitivity)")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json",
              show_default=True)
def quant(json_path, patients, objects, cv_description, c_threshold, t_threshold,
          f_hat, s_hat, out_dir, fmt):
    """Quantitation report: per-patient parasitemia estimates vs ground truth."""
    from .calibration import OperatingPoint
    from .metrics import fpr_distribution, sensitivity_distribution
    from .quant import ExpectedRates, quant_report
    from .report import EvaluationReport, write_report
    cohort = _load_cohort(json_path, patients, objects, cv_description)
    # a malformed --f-hat or --s-hat exits 2 before the cohort's rates can exit 3
    ExpectedRates(F_hat=0.0 if f_hat is None else f_hat, S_hat=1.0 if s_hat is None else s_hat)
    fom_inputs = None
    fpr = sens = None
    if f_hat is None or s_hat is None:
        fpr = fpr_distribution(cohort, c_threshold, negatives_only=bool(cohort.negatives))
        sens = sensitivity_distribution(cohort, c_threshold)
        f_hat = fpr.summary.mean if f_hat is None else f_hat
        if sens.summary.mean == 0:
            raise DegenerateDataError(f"no parasite object scores >= C={c_threshold!r}, so the "
                                      "cohort's mean sensitivity is 0; the figure of merit uses "
                                      "it, and so does S_hat unless --s-hat is given")
        s_hat = sens.summary.mean if s_hat is None else s_hat
        fom_inputs = (sens, fpr)
    rates = ExpectedRates(F_hat=f_hat, S_hat=s_hat)
    op = OperatingPoint(C=c_threshold, T=t_threshold)
    report = EvaluationReport(
        cv_description=cohort.cv_description,
        provenance=cohort.provenance,
        operating_point=op,
        quantitation=quant_report(cohort, op, rates, fom_inputs),
        warnings=list(fpr.warnings) if fpr is not None else [],
    )
    for path in write_report(report, out_dir, fmt=fmt):
        click.echo(path)
    for w in report.warnings:
        click.echo(f"warning: {w}", err=True)


@main.command()
@click.option("--parasitemia", "-p", type=float, required=True, help="parasites per cV")
@click.option("--volume", "-v", "volumes", type=float, multiple=True,
              help="examined volume(s) in cV; repeatable")
@click.option("--k-min", type=int, default=None,
              help="with --confidence: solve the minimum volume for k-min parasites")
@click.option("--confidence", type=float, default=None)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="pmf CSV destination (default stdout)")
def poisson(parasitemia, volumes, k_min, confidence, out_path):
    """Poisson count pmfs per examined volume, or the minimum-volume solution."""
    from .poisson import count_pmf, min_volume_for_detection
    if k_min is not None or confidence is not None:
        if k_min is None or confidence is None:
            raise InputError("--k-min and --confidence must be given together")
        v = min_volume_for_detection(parasitemia, k_min, confidence)
        click.echo(f"min volume = {v!r} cV")
        return
    # every pmf first, so a bad volume fails before a row is written
    pmfs = [(v, count_pmf(parasitemia, v)) for v in volumes or (0.001, 0.01, 0.1)]
    with open(out_path, "w", encoding="utf-8") if out_path else nullcontext(sys.stdout) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("volume", "k", "probability"))
        w.writerows((v, k, p) for v, pmf in pmfs for k, p in pmf)
    if out_path:
        click.echo(out_path)


@main.command()
@click.option("--seed", type=int, default=0, envvar="PARASITOMETRICS_SEED", show_envvar=True,
              show_default=True, help="RNG seed")
@click.option("--preset", type=click.Choice(["default", "who56"]), default="default",
              show_default=True)
@click.option("--n-negative", type=int, default=None, help="for --preset default [default: 20]")
@click.option("--n-positive", type=int, default=None, help="for --preset default [default: 20]")
@click.option("--volume", "examined_volume", type=float, default=None,
              help="examined volume per patient in cV, for --preset default [default: 1.0]")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
def simulate(seed, preset, out_dir, fmt, **sim_options):
    """Generate a synthetic cohort (deterministic for a fixed seed)."""
    from .simulator import SimConfig, generate_cohort, who56_preset
    given = {name: value for name, value in sim_options.items() if value is not None}
    if preset == "who56":
        if given:
            raise InputError("--n-negative, --n-positive and --volume apply to --preset "
                             "default; who56 sets its own cohort size and volume")
        cfg = who56_preset(seed=seed)
    else:
        cfg = SimConfig(seed=seed, **given)  # SimConfig's defaults for the options not given
    cohort = generate_cohort(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        path = out / "cohort.json"
        export_cohort_json(cohort, path)
        click.echo(str(path))
    else:
        patients_path = out / "patients.csv"
        objects_path = out / "objects.csv"
        export_cohort(cohort, objects_path, patients_path)
        click.echo(str(patients_path))
        click.echo(str(objects_path))


@main.command("reproduce-paper")
@click.option("--out", "out_dir", type=click.Path(), required=True)
def reproduce_paper(out_dir):
    """Re-derive every headline number and write a pass/fail manifest."""
    from .reproduce import run_all
    checks = run_all()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump([asdict(c) for c in checks], fh, indent=2)
        fh.write("\n")
    for c in checks:
        click.echo(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}")
    failed = [c for c in checks if not c.passed]
    if failed:
        raise ReproductionFailure(f"first failing check: {failed[0].name}")
    click.echo(f"{len(checks)} checks passed; manifest at {out / 'manifest.json'}")


gc.freeze()  # what is loaded so far lives until exit; a command's own imports are not frozen
if _COLLECTING:
    gc.enable()
if __name__ == "__main__":
    main()
