"""``solve_beta_a`` against the ``scipy.optimize.brentq`` code it started from.

``solve_beta_a`` solves for ``log a`` with ``parasitometrics._ufuncs.brentq``,
the C routine under ``brentq``, wrapped in the simulator's InputError;
``oracle_solve_beta_a`` is the original ``brentq`` code and stays here as the
reference. In pytest's process, where scipy is already imported, both run the
same routine, so this checks ``solve_beta_a``'s wrapping: the same float, and
InputError where ``brentq`` finds no sign change in the bracket.
``tests/test_ufuncs.py`` checks the same floats through the stub load in a
fresh interpreter.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq
from scipy.special import betainc

from parasitometrics.errors import InputError
from parasitometrics.simulator import REFERENCE_THRESHOLD, solve_beta_a


def oracle_solve_beta_a(target_tail: float, b: float) -> float:
    t = min(max(target_tail, 1e-9), 1.0 - 1e-9)

    def gap(log_a: float) -> float:
        a = math.exp(log_a)
        return (1.0 - betainc(a, b, REFERENCE_THRESHOLD)) - t

    lo, hi = math.log(1e-8), math.log(1e8)
    return math.exp(brentq(gap, lo, hi, xtol=1e-12, rtol=1e-12))


TARGETS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-15, max_value=1e-3),                 # near 0
    st.floats(min_value=1e-15, max_value=1e-3).map(lambda e: 1.0 - e),  # near 1
)
SHAPES = st.floats(min_value=0.2, max_value=20.0)


@settings(max_examples=1000, deadline=None)
@given(target=TARGETS, b=SHAPES)
@example(target=0.0, b=2.0)
@example(target=1e-12, b=2.0)
@example(target=1.0, b=2.0)
@example(target=0.5, b=0.2)
@example(target=0.999999, b=20.0)
def test_solve_beta_a_matches_brentq(target, b):
    try:
        expected = oracle_solve_beta_a(target, b)
    except ValueError as exc:
        assert "different signs" in str(exc)
        with pytest.raises(InputError, match=r"^cannot solve Beta\(a, b="):
            solve_beta_a(target, b)
    else:
        assert solve_beta_a(target, b) == expected
