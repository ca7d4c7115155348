"""Exception hierarchy: one class per CLI exit code.

=======================  ====  ==============================================
class                    exit  meaning
=======================  ====  ==============================================
``InputError``           2     a file breaks the schema, or an argument is
                               outside its documented domain
``DegenerateDataError``  3     valid input, but the cohort cannot support the
                               requested metric
``ReproductionFailure``  1     a paper-reproduction check failed
=======================  ====  ==============================================

The CLI prints ``error: <message>`` and exits with the class's ``exit_code``.
Every subclass of ``ParasitometricsError`` is in this table and carries an
``exit_code``, so the CLI catches each of them. ``ParasitometricsError`` is the
base of all of them, so a library caller can catch everything with one
``except``.
"""


class ParasitometricsError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ParasitometricsError):
    """A dataset file violates the schema, or an argument is out of its domain."""

    exit_code = 2


class DegenerateDataError(ParasitometricsError):
    """The cohort lacks the structure this computation needs."""

    exit_code = 3


class ReproductionFailure(ParasitometricsError):
    """A numeric check in the reproduction bundle did not pass."""

    exit_code = 1
