"""Distribution summaries used by calibration and LoD estimation.

Conventions, applied uniformly across the package:

* Standard deviations use the population convention (divide by n), including
  the one-sided deviations. Calibration formulas treat sigma as a property of
  the distribution, and a single convention avoids n/(n-1) drift between
  modules.
* One-sided deviations reflect points across the median: sigma_right is the
  population std of {x : x >= median} measured around the median (points equal
  to the median count on both sides, so both sides stay non-empty for
  constant samples).
* Percentiles interpolate linearly between order statistics.
"""

from __future__ import annotations

import math
from _statistics import _normal_dist_inv_cdf
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class DistSummary:
    """Summary statistics of a finite sample, with a percentile accessor."""

    n: int
    mean: float
    median: float
    std: float
    sigma_left: float
    sigma_right: float
    _sorted: tuple[float, ...]

    def percentile(self, q: float) -> float:
        """q-th percentile (q in [0, 100]), linear interpolation.

        The steps of ``np.percentile(..., method="linear")`` on the sorted
        sample, which give the same float, without its lazy import of
        ``numpy.ma``.
        """
        if not (0.0 <= q <= 100.0):
            raise InputError(f"percentile q={q} outside [0, 100]")
        n = len(self._sorted)
        virtual = (n - 1) * (q / 100)
        if virtual >= n - 1:  # numpy takes the last value on both sides
            below = above = -1
        else:
            below = math.floor(virtual)
            above = below + 1
        a, b, t = self._sorted[below], self._sorted[above], virtual - below
        # numpy's _lerp: forward from a when t < 0.5, else back from b
        return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


def summarize(values) -> DistSummary:
    """Compute mean/median/std plus the one-sided deviations of a sample."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise InputError("summarize requires a non-empty sample")
    if not np.all(np.isfinite(arr)):
        raise InputError("summarize requires all-finite values")
    ascending = np.sort(arr)
    med = sorted_median(ascending)
    mean = _mean(arr)
    return DistSummary(
        n=int(arr.size),
        mean=float(mean),
        median=med,
        std=_rms(arr - mean),  # population convention
        sigma_left=_rms(arr[arr <= med] - med),
        sigma_right=_rms(arr[arr >= med] - med),
        _sorted=tuple(ascending.tolist()),
    )


def _mean(arr: np.ndarray) -> np.float64:
    """``arr.mean()`` of a 1-D float array without its wrapper: the same pairwise
    ``np.add.reduce`` over the count, as a numpy scalar (nan for an empty array)."""
    return np.add.reduce(arr) / len(arr)


def _rms(deviations: np.ndarray) -> float:
    """sqrt(mean(deviations**2)): ``np.std``'s steps after its subtraction."""
    return math.sqrt(_mean(np.square(deviations)))


def sorted_median(ascending: np.ndarray) -> float:
    """``np.median`` of a sorted array: the mean of its middle one or two values,
    which np.median averages too, without its lazy import of ``numpy.ma``."""
    n = len(ascending)
    return float(_mean(ascending[(n - 1) // 2:n // 2 + 1]))


def alpha_for_specificity(K: float) -> float:
    """Standard normal quantile alpha with Phi(alpha) = K.

    A rational approximation of the inverse CDF (Wichura's algorithm AS241)
    accurate well beyond 6 decimal places. K = 0.95 gives 1.6449 (commonly
    rounded to 1.65). It is the call that the stdlib's NormalDist().inv_cdf(K)
    makes, from CPython's private ``_statistics`` module, without importing
    ``statistics`` and with it ``fractions`` and ``decimal``.
    """
    if not (0.0 < K < 1.0) or not math.isfinite(K):
        raise InputError(f"target specificity K={K} outside (0, 1)")
    return _normal_dist_inv_cdf(K, 0.0, 1.0)
