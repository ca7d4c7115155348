"""Exception hierarchy.

Three families, matching the CLI exit-code contract:

* ``SchemaError`` and ``InputError`` -> exit 2 (bad input files or arguments)
* ``DegenerateDataError``            -> exit 3 (valid input, but the requested
  computation is undefined on it)
* ``ReproductionFailure``            -> exit 1 (a paper-reproduction check failed)
"""


class ParasitometricsError(Exception):
    """Base class for all errors raised by this package."""


# --- input / schema problems (exit 2) ---------------------------------------

class SchemaError(ParasitometricsError):
    """A dataset file violates the documented schema."""


class MissingPatient(SchemaError):
    """An object row references a patient_id absent from the patients table."""


class DuplicatePatient(SchemaError):
    """Two patient rows share the same patient_id."""


class LabelContradiction(SchemaError):
    """A Parasite-labeled object belongs to a ground-truth-Negative patient."""


class InputError(ParasitometricsError):
    """An argument is outside its documented domain."""


class EmptyInput(InputError):
    pass


class NonFiniteInput(InputError):
    pass


class OutOfRange(InputError):
    pass


class InvalidRatio(InputError):
    pass


class InvalidRates(InputError):
    pass


class InvalidInput(InputError):
    pass


class InvalidConfig(InputError):
    pass


class ZeroWbc(InputError):
    pass


class NonpositiveParasitemia(InputError):
    pass


class MissingManualT(InputError):
    """Manual-scatter calibration requires an explicit user-supplied T."""


class UnknownPatient(InputError):
    """A prediction map references a patient not in the cohort."""


# --- degenerate data (exit 3) ------------------------------------------------

class DegenerateDataError(ParasitometricsError):
    """The cohort lacks the structure this computation needs."""


class NoEligiblePatients(DegenerateDataError):
    pass


class NoParasiteObjects(DegenerateDataError):
    pass


class DegenerateClasses(DegenerateDataError):
    pass


class NoDetections(DegenerateDataError):
    pass


class InsufficientPatients(DegenerateDataError):
    pass


class InsufficientPositives(DegenerateDataError):
    pass


class ZeroSensitivity(DegenerateDataError):
    pass


class AllCandidatesDegenerate(DegenerateDataError):
    pass


# --- reproduction (exit 1) ---------------------------------------------------

class ReproductionFailure(ParasitometricsError):
    """A numeric check in the reproduction bundle did not pass."""


class ReportInvariantError(ParasitometricsError):
    """A report section violates a structural reporting rule."""
