import os
from pathlib import Path

import pytest

import parasitometrics
from parasitometrics.datamodel import (
    CohortDataset,
    GroundTruth,
    PatientRecord,
    Species,
)
from parasitometrics.metrics import MetricDistribution
from parasitometrics.stats import summarize


def src_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = Path(parasitometrics.__file__).resolve().parents[1]
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def make_patient(
    pid,
    positive=False,
    species=Species.FALCIPARUM,
    parasitemia=None,
    volume=1.0,
    parasite_scores=(),
    distractor_scores=(),
    wbc_count=None,
):
    if positive:
        if parasitemia is None:
            parasitemia = max(len(parasite_scores) / volume, 1.0)
    else:
        species = Species.NONE
        parasitemia = 0.0
    return PatientRecord(
        patient_id=pid,
        ground_truth=GroundTruth.POSITIVE if positive else GroundTruth.NEGATIVE,
        species=species,
        true_parasitemia=parasitemia,
        examined_volume=volume,
        wbc_count=wbc_count,
        object_ids=[f"{pid}-p{i}" for i in range(len(parasite_scores))]
        + [f"{pid}-d{i}" for i in range(len(distractor_scores))],
        scores=list(parasite_scores) + list(distractor_scores),
        is_parasite=[True] * len(parasite_scores) + [False] * len(distractor_scores),
    )


def object_rows(patient):
    """``(object_id, score, is_parasite)`` of each of the patient's objects, in
    input order, as Python values."""
    return zip(patient.object_ids, patient.scores.tolist(), patient.is_parasite.tolist())


def curve_rows(curve):
    """A curve's ``(x, y, threshold)`` points as a tuple of tuples of Python floats."""
    return tuple(map(tuple, curve.points.tolist()))


def make_cohort(*patients, cv="1 uL blood"):
    return CohortDataset(cv_description=cv, patients=tuple(patients), provenance="test")


def make_dist(values):
    per = {f"pt{i:03d}": float(v) for i, v in enumerate(values)}
    return MetricDistribution(per_patient=per, summary=summarize(values))


@pytest.fixture
def fpr_dist():
    return make_dist


@pytest.fixture
def sens_dist():
    return make_dist


@pytest.fixture
def mixed_cohort():
    """2 negatives + 2 positives with hand-countable objects."""
    return make_cohort(
        make_patient("neg1", distractor_scores=(0.8, 0.6, 0.2), volume=0.5),
        make_patient("neg2", distractor_scores=(0.3,), volume=1.0),
        make_patient(
            "pos1",
            positive=True,
            parasitemia=400.0,
            parasite_scores=(0.9, 0.7, 0.7, 0.1),
            distractor_scores=(0.75, 0.4),
            volume=1.0,
        ),
        make_patient(
            "pos2",
            positive=True,
            parasitemia=80.0,
            species=Species.VIVAX,
            parasite_scores=(0.95, 0.3),
            distractor_scores=(0.5,),
            volume=0.5,
        ),
    )
