"""Patient-level evaluation metrics for object-detection-based parasitemia diagnosis."""

__version__ = "0.1.0"

from .calibration import (  # noqa: F401
    CalibrationConfig,
    CalibrationMethod,
    LodEstimate,
    OperatingPoint,
    calibrate_threshold,
    estimate_lod,
    lod_breakeven_check,
    tune_operating_point,
)
from .datamodel import (  # noqa: F401
    CohortDataset,
    GroundTruth,
    PatientRecord,
    Species,
    TrueLabel,
    export_cohort,
    export_cohort_json,
    ingest_cohort,
    ingest_cohort_json,
    per_cv_counts,
)
from .metrics import (  # noqa: F401
    MetricDistribution,
    StratifiedResult,
    fpr_distribution,
    patient_level_sens_spec,
    pooled_object_sensitivity,
    sensitivity_distribution,
)
from .quant import (  # noqa: F401
    ExpectedRates,
    QuantResult,
    estimate_parasitemia,
    quant_fom,
    quant_report,
)
from .stats import DistSummary, alpha_for_specificity, summarize  # noqa: F401
