"""Poisson statistics of rare parasites in a finite examined volume.

At true parasitemia P per cV, the parasite count in an examined volume V is
Poisson with lambda = P * V. Two consequences matter:

* Diagnosis: if V is too small, a predictable fraction of positive patients
  present zero parasites in the examined volume, capping patient-level
  sensitivity before the detector even runs.
* Quantitation: the count's coefficient of variation 1/sqrt(P*V) is an
  irreducible relative-error floor on any parasitemia estimate.
"""

from __future__ import annotations

import math

from ._ufuncs import pdtrc
from .errors import InputError


# Largest P*V with a pmf: about 45*sqrt(lambda) rows, and above it the
# log-space rounding of each row nears the 1e-9 tail the walk stops at.
MAX_EXPECTED_COUNT = 1e6


def count_pmf(P: float, V: float):
    """Poisson pmf of the parasite count in volume V at parasitemia P.

    Computed in log space (stable for large lambda and k). The rows run from
    the first k whose probability is not 0.0 to the smallest k with cumulative
    probability >= 1 - 1e-9, or to the last k before the probability past the
    mode underflows to 0.0.
    """
    if P < 0 or not math.isfinite(P):
        raise InputError(f"parasitemia P={P} must be finite and >= 0")
    if V <= 0 or not math.isfinite(V):
        raise InputError(f"volume V={V} must be finite and > 0")
    lam = P * V
    if lam > MAX_EXPECTED_COUNT:
        raise InputError(f"expected count P*V={lam} must be <= {MAX_EXPECTED_COUNT:g}")
    if lam == 0.0:
        return [(0, 1.0)]

    def prob(k: int) -> float:
        return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))

    k = 0
    if prob(0) == 0.0:  # e^-lam underflows: bisect below floor(lam), where the log pmf rises
        lo, k = 0, math.floor(lam)
        while k - lo > 1:
            mid = (lo + k) // 2
            if prob(mid) > 0.0:
                k = mid
            else:
                lo = mid
    out, cumulative = [], 0.0
    while cumulative < 1.0 - 1e-9 and (pk := prob(k)) > 0.0:
        out.append((k, pk))
        cumulative += pk
        k += 1
    return out


def min_volume_for_detection(P: float, k_min: int, confidence: float) -> float:
    """Smallest V with Pr[count >= k_min | lambda = P*V] >= confidence.

    Solved by bisection to 1e-6 relative tolerance (no closed form exists for
    k_min >= 2).
    """
    if P <= 0 or not math.isfinite(P):
        raise InputError(f"parasitemia P={P} must be finite and > 0")
    if k_min < 1:
        raise InputError("k_min must be >= 1")
    if k_min > 2**53:  # pdtrc takes the count as a float
        raise InputError("k_min must be <= 2**53, the largest count a float holds exactly")
    if not (0.0 < confidence < 1.0):
        raise InputError(f"confidence={confidence} must be in (0, 1)")

    def attained(v: float) -> float:
        return float(pdtrc(k_min - 1, P * v))  # Pr[count > k_min - 1]

    lo, hi = 0.0, 1.0 / P
    while math.isfinite(hi) and attained(hi) < confidence:
        hi *= 2.0
    if math.isinf(hi):
        raise InputError(f"no finite volume reaches confidence={confidence} of "
                         f">= {k_min} parasites at parasitemia P={P}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if attained(mid) >= confidence:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-6 * hi:
            break
    return hi
