"""Binomial statistics for observed cell counts (Eqs 32-34).

The probability of observing ``N_ijk`` occurrences of a cell whose model
probability is ``p`` among ``N`` samples is binomial (Eq 32); its mean
``Np`` (Eq 33) and standard deviation ``sqrt(Np(1-p))`` (Eq 34) feed the
"number of sd's" column of Table 1, and the log-pmf is the data term of the
H1 message length (Eq 46).

Log-probabilities are computed exactly with ``lgamma`` — no normal
approximation — because the MML comparison happens deep in the binomial
tail where the approximation error is largest.

Both a scalar and an array form ship.  The array form
(:func:`log_binomial_pmf_array`) evaluates a whole candidate pool at once
for the vectorized scan kernels; it routes every transcendental through the
same ``math.lgamma`` / ``math.log`` calls as the scalar form (memoized over
the integer counts), so the two are *bit-identical* — numpy's SIMD ``log``
differs from libm in the last ulp, which would be enough to flip greedy
argmax decisions on near-ties.  The degenerate edges ``p = 0`` and
``p = 1`` are handled exactly in both forms (probability 1 on the forced
outcome, −inf elsewhere) instead of surfacing math-domain errors or the
``0 * -inf = nan`` a naive vectorization would produce.
"""

from __future__ import annotations

from math import lgamma, log, sqrt

import numpy as np

from repro.exceptions import DataError


def log_binomial_coefficient(n: int, k: int) -> float:
    """``ln C(n, k)`` computed stably via lgamma."""
    if not 0 <= k <= n:
        raise DataError(f"need 0 <= k <= n, got n={n}, k={k}")
    return lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)


def log_binomial_pmf(k: int, n: int, p: float) -> float:
    """``ln P(K = k)`` for ``K ~ Binomial(n, p)`` (log of Eq 32).

    Handles the degenerate edges ``p = 0`` and ``p = 1`` exactly
    (probability 1 on the forced outcome, −inf elsewhere).
    """
    if n < 0:
        raise DataError(f"n must be non-negative, got {n}")
    if not 0 <= k <= n:
        raise DataError(f"need 0 <= k <= n, got n={n}, k={k}")
    if not 0.0 <= p <= 1.0:
        raise DataError(f"p must be in [0, 1], got {p}")
    if p == 0.0:
        return 0.0 if k == 0 else float("-inf")
    if p == 1.0:
        return 0.0 if k == n else float("-inf")
    return (
        log_binomial_coefficient(n, k)
        + k * log(p)
        + (n - k) * log(1.0 - p)
    )


def log_binomial_coefficients(n: int, k: np.ndarray) -> np.ndarray:
    """``ln C(n, k)`` for an integer count array, bit-identical to the scalar.

    ``math.lgamma`` is evaluated once per *distinct* count (memoized), so
    the cost is O(distinct values), not O(cells) — and every entry equals
    :func:`log_binomial_coefficient` exactly, because the identical libm
    calls and the identical subtraction order are used.
    """
    k = np.asarray(k)
    if k.size == 0:
        return np.zeros(k.shape, dtype=float)
    low = int(k.min())
    high = int(k.max())
    if low < 0 or high > n:
        raise DataError(f"need 0 <= k <= n, got n={n}, k range [{low}, {high}]")
    lgn = lgamma(n + 1)
    values, inverse = np.unique(k, return_inverse=True)
    memo = np.array(
        [
            lgn - lgamma(value + 1) - lgamma(n - value + 1)
            for value in values.tolist()
        ],
        dtype=float,
    )
    return memo[inverse.ravel()].reshape(k.shape)


def log_binomial_pmf_array(
    k: np.ndarray,
    n: int,
    p: np.ndarray,
    log_coefficients: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized ``ln P(K = k)`` for ``K ~ Binomial(n, p)``, elementwise.

    Bit-identical to calling :func:`log_binomial_pmf` on every element —
    the logs go through ``math.log`` (see the module docstring for why) —
    while the products and sums run as array ops.  ``p = 0`` and ``p = 1``
    entries take the exact degenerate limits; without the masking, numpy
    would turn ``k * log(0)`` into ``0 * -inf = nan`` at ``k = 0``.

    Parameters
    ----------
    log_coefficients:
        Optional precomputed ``ln C(n, k)`` array (the scan kernels cache
        it as a data-side statistic); defaults to
        :func:`log_binomial_coefficients`.
    """
    if n < 0:
        raise DataError(f"n must be non-negative, got {n}")
    k = np.asarray(k)
    p = np.asarray(p, dtype=float)
    if k.shape != p.shape:
        raise DataError(
            f"k shape {k.shape} does not match p shape {p.shape}"
        )
    if p.size and not (0.0 <= float(p.min()) and float(p.max()) <= 1.0):
        raise DataError("p entries must be in [0, 1]")
    if k.size and not (0 <= int(k.min()) and int(k.max()) <= n):
        # Validated here too (not only inside log_binomial_coefficients)
        # so the precomputed-coefficients path rejects out-of-range
        # counts just like the scalar form.
        raise DataError(
            f"need 0 <= k <= n, got n={n}, "
            f"k range [{int(k.min())}, {int(k.max())}]"
        )
    if log_coefficients is None:
        log_coefficients = log_binomial_coefficients(n, k)
    shape = p.shape
    k_flat = k.ravel()
    p_flat = p.ravel()
    at_zero = p_flat == 0.0
    at_one = p_flat == 1.0
    # math.log element by element keeps bit-identity with the scalar path.
    k_float = k_flat.astype(float)
    if not (at_zero.any() or at_one.any()):
        log_p = np.array([log(value) for value in p_flat.tolist()])
        log_q = np.array(
            [log(value) for value in (1.0 - p_flat).tolist()]
        )
        result = (
            log_coefficients.ravel() + k_float * log_p
        ) + (n - k_float) * log_q
        return result.reshape(shape)
    # Edge entries get a placeholder log and are overwritten with the
    # exact degenerate limits below.
    interior = np.flatnonzero(~(at_zero | at_one))
    log_p = np.zeros(p_flat.shape, dtype=float)
    log_q = np.zeros(p_flat.shape, dtype=float)
    values = p_flat[interior]
    log_p[interior] = [log(value) for value in values.tolist()]
    log_q[interior] = [log(value) for value in (1.0 - values).tolist()]
    result = (
        log_coefficients.ravel() + k_float * log_p
    ) + (n - k_float) * log_q
    result[at_zero] = np.where(k_flat[at_zero] == 0, 0.0, -np.inf)
    result[at_one] = np.where(k_flat[at_one] == n, 0.0, -np.inf)
    return result.reshape(shape)


def binomial_mean(n: int, p: float) -> float:
    """Predicted mean count ``m = Np`` (Eq 33)."""
    return n * p


def binomial_sd(n: int, p: float) -> float:
    """Predicted standard deviation ``sd = sqrt(Np(1-p))`` (Eq 34)."""
    if not 0.0 <= p <= 1.0:
        raise DataError(f"p must be in [0, 1], got {p}")
    return sqrt(n * p * (1.0 - p))


def standard_score(k: int, n: int, p: float) -> float:
    """Number of standard deviations of ``k`` from the mean (Table 1 col 5)."""
    sd = binomial_sd(n, p)
    if sd == 0.0:
        return 0.0 if k == binomial_mean(n, p) else float("inf")
    return (k - binomial_mean(n, p)) / sd
