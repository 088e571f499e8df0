"""Classical significance tests: the baseline criterion the paper replaces.

The paper's MML test competes with the textbook approach of flagging cells
by standardized residuals or whole marginals by Pearson chi-square / G
statistics.  These are implemented here both as comparison baselines
(:mod:`repro.baselines.chi2_selector`) and as sanity cross-checks in the
test suite — a cell the MML test finds wildly significant should also carry
an extreme z-score.

The chi-square upper tail is computed in closed form (:func:`chi2_sf`), so
this baseline needs nothing beyond :mod:`math`.
"""

from __future__ import annotations

from math import erfc, exp, inf, isnan, lgamma, log, pi, sqrt

import numpy as np

from repro.data.contingency import ContingencyTable
from repro.exceptions import DataError
from repro.maxent.model import MaxEntModel
from repro.significance.binomial import standard_score


def cell_z_test(observed: int, total: int, probability: float) -> tuple[float, float]:
    """Two-sided z test of one cell count against a model probability.

    Returns ``(z, p_value)`` using the normal approximation to the
    binomial.  This is the per-cell analogue of Table 1's "#sd" column.
    """
    z = standard_score(observed, total, probability)
    if z == float("inf"):
        return z, 0.0
    p_value = erfc(abs(z) / sqrt(2.0))
    return z, p_value


def marginal_chi2(
    table: ContingencyTable, model: MaxEntModel, names: tuple[str, ...]
) -> tuple[float, int, float]:
    """Pearson chi-square of a marginal against the model's prediction.

    Returns ``(statistic, degrees of freedom, p_value)``.  Degrees of
    freedom are ``cells - 1`` (the marginal totals are fixed to N by
    normalization only; the model constraints are not subtracted — this is
    the plain goodness-of-fit comparison a classical analyst would run).
    """
    observed = table.marginal(names).astype(float)
    expected = model.marginal(names) * table.total
    return _goodness_of_fit(observed, expected, statistic="pearson")


def marginal_g2(
    table: ContingencyTable, model: MaxEntModel, names: tuple[str, ...]
) -> tuple[float, int, float]:
    """Likelihood-ratio G-squared of a marginal against the model."""
    observed = table.marginal(names).astype(float)
    expected = model.marginal(names) * table.total
    return _goodness_of_fit(observed, expected, statistic="g")


def _goodness_of_fit(
    observed: np.ndarray, expected: np.ndarray, statistic: str
) -> tuple[float, int, float]:
    observed = observed.ravel()
    expected = expected.ravel()
    if observed.shape != expected.shape:
        raise DataError("observed and expected have different shapes")
    if (expected < 0).any():
        raise DataError("expected counts must be non-negative")
    mask = expected > 0
    if (observed[~mask] > 0).any():
        return float("inf"), int(observed.size - 1), 0.0
    if statistic == "pearson":
        value = float(
            ((observed[mask] - expected[mask]) ** 2 / expected[mask]).sum()
        )
    elif statistic == "g":
        positive = mask & (observed > 0)
        ratio = observed[positive] / expected[positive]
        value = float(2.0 * (observed[positive] * np.log(ratio)).sum())
    else:
        raise DataError(f"unknown statistic {statistic!r}")
    dof = int(observed.size - 1)
    p_value = chi2_sf(value, dof) if dof > 0 else 1.0
    return value, dof, p_value


# Below e**-_LOG_UNDERFLOW the tail's leading factor has no digits left;
# the tail is then 0, at the same point scipy's ``chi2.sf`` reaches 0.
_LOG_UNDERFLOW = 709.782712893384
# A run of positive terms stops once its remaining tail, bounded by a
# geometric series, falls below this fraction of the sum.
_TAIL_FRACTION = 1e-17
_HALF_LOG_2PI = 0.5 * log(2.0 * pi)


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail ``P(X >= x)`` of a chi-square variable with integer ``dof``.

    This is ``Q(k, y)``, the regularized upper incomplete gamma function,
    at half-integer or integer ``k = dof / 2`` and ``y = x / 2``.  There it
    is a finite sum of Poisson terms ``t(a) = y**a e**-y / Gamma(a + 1)``:

    * even dof: ``Q = sum(t(a) for a = 0 .. k - 1)``;
    * odd dof:  ``Q = erfc(sqrt(y)) + sum(t(a) for a = 1/2 .. k - 1)``;

    and ``1 - Q`` is the rest of the series, ``sum(t(a) for a >= k)``.
    For ``y >= k`` the terms fall from ``a = k - 1`` downwards and ``Q``
    is summed directly; for ``y < k`` they fall from ``a = k`` upwards and
    ``Q = 1 - (that sum)``, which is then at least ~1/2.  Every term is
    positive, so neither sum cancels.  Only the largest term is evaluated
    from scratch (see :func:`_poisson_term`); each next one is one
    multiplication away, so dof up to ``2**16`` neither overflows nor
    underflows early.
    """
    y = 0.5 * x
    if isnan(y):
        return y
    if y <= 0.0:
        return 1.0
    if y == inf:
        return 0.0
    k = 0.5 * dof
    if y < k:
        a = k
        term = _poisson_term(a, y)
        rest = 0.0
        while True:
            rest += term
            a += 1.0
            ratio = y / a
            term *= ratio
            if term <= rest * _TAIL_FRACTION * (1.0 - ratio):
                return 1.0 - rest
    if abs(y - k) > 0.4 * k and k * log(y) - y - lgamma(k) < -_LOG_UNDERFLOW:
        return 0.0
    total = erfc(sqrt(y)) if dof % 2 else 0.0
    a = k - 1.0
    term = _poisson_term(a, y) if a >= 0.0 else 0.0
    while a >= 0.0:
        total += term
        ratio = a / y
        term *= ratio
        a -= 1.0
        if term <= total * _TAIL_FRACTION * (1.0 - ratio):
            break
    return total


def _poisson_term(a: float, y: float) -> float:
    """``y**a e**-y / Gamma(a + 1)`` for ``a >= 0``, ``y > 0``.

    Written as ``exp(-stirling(a) - deviance(a, y)) / sqrt(2 pi a)``
    (Loader's saddle-point form): both exponents are small where the term
    is not, so the large ``a log y`` and ``y`` never cancel in floating
    point, as they would in ``exp(a log y - y - lgamma(a + 1))``.
    """
    if a == 0.0:
        return exp(-y)
    return exp(-_stirling_error(a) - _deviance(a, y)) / sqrt(2.0 * pi * a)


def _stirling_error(a: float) -> float:
    """``lgamma(a + 1) - (a + 1/2) log(a) + a - log(sqrt(2 pi))``."""
    if a <= 15.0:
        return lgamma(a + 1.0) - (a + 0.5) * log(a) + a - _HALF_LOG_2PI
    inverse_square = 1.0 / (a * a)
    series = 1 / 1260 - (1 / 1680 - inverse_square / 1188) * inverse_square
    return (1 / 12 - (1 / 360 - series * inverse_square) * inverse_square) / a


def _deviance(a: float, y: float) -> float:
    """``a log(a / y) + y - a``, accurate also where ``a`` is close to ``y``.

    Near ``a == y`` the direct form is the difference of two nearly equal
    large numbers.  There it is ``(a - y) v + 2a sum(v**j / j, odd j >= 3)``
    with ``v = (a - y) / (a + y)``; the small terms are summed on their
    own before they meet the leading one.
    """
    if abs(a - y) >= 0.9 * (a + y):
        return a * log(a / y) + y - a
    v = (a - y) / (a + y)
    v_squared = v * v
    power = 2.0 * a * v
    series = 0.0
    j = 3
    while True:
        power *= v_squared
        following = series + power / j
        if following == series:
            return (a - y) * v + series
        series = following
        j += 2
