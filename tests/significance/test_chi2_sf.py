"""The closed-form chi-square tail against scipy's ``chi2.sf``.

scipy is the oracle.  Deep in the tail at large dof scipy's own
``gammaincc`` loses digits (up to ~2e-11 relative, against a 40-digit
mpmath value); where scipy and the closed form disagree by more than
1e-12, mpmath decides: the closed form must be within 1e-12 of it and at
least as close as scipy.  (Both can sit within 1e-12 of exact and still
disagree by more than 1e-12, on opposite sides of it.)
"""

from math import inf, isnan, sqrt

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.significance.chi2 import chi2_sf

RELATIVE = 1e-12
NORMAL_FLOOR = 1e-300
MAX_DOF = 2**16 - 1


def exact_sf(x: float, dof: int) -> float:
    with mpmath.workdps(40):
        return float(
            mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2, regularized=True)
        )


def assert_matches_scipy(x: float, dof: int) -> None:
    expected = float(stats.chi2.sf(x, dof))
    got = chi2_sf(x, dof)
    if expected < NORMAL_FLOOR:
        # Past the normal range both run out of digits together, and both
        # reach 0 inside the same sliver of subnormals.
        assert got < 2 * NORMAL_FLOOR
        if got == 0.0 or expected == 0.0:
            assert max(got, expected) < 1e-310
        return
    if abs(got - expected) <= RELATIVE * expected:
        return
    exact = exact_sf(x, dof)
    assert abs(got - exact) <= abs(expected - exact), (x, dof, got, expected)
    assert abs(got - exact) <= RELATIVE * exact, (x, dof, got, exact)


@st.composite
def tails(draw):
    dof = draw(st.one_of(st.integers(1, 60), st.integers(1, MAX_DOF)))
    if draw(st.booleans()):
        # From below the bulk to far into the upper tail, in standard
        # deviations of the distribution.
        z = draw(st.floats(-15.0, 100.0))
        x = max(0.0, dof + z * sqrt(2.0 * dof))
    else:
        x = draw(st.floats(0.0, 2e5))
    return x, dof


@settings(max_examples=400, deadline=None)
@given(tails())
# Closed form 8.4e-14 and scipy 9.6e-13 from exact, 1.04e-12 apart.
@example((5786.73323030736, 2567))
def test_matches_scipy(case):
    assert_matches_scipy(*case)


@pytest.mark.parametrize("dof", [1, 2, 3, 4, 5, 17, 100, 101, 4096, MAX_DOF])
def test_matches_scipy_on_a_grid(dof):
    spread = sqrt(2.0 * dof)
    for z in (-10, -3, -1, -0.1, 0, 0.1, 1, 3, 10, 40, 100, 400):
        assert_matches_scipy(max(0.0, dof + z * spread), dof)
    for x in (1e-300, 1e-12, 1e-3, 0.5, 1.0, 2.0, 30.0, 700.0, 1400.0):
        assert_matches_scipy(x, dof)


@pytest.mark.parametrize(
    ("x", "dof"), [(26383.560461078214, 18622), (13915.1553801813, 8286)]
)
def test_beats_scipy_deep_in_the_tail(x, dof):
    """Points where scipy is off by more than 1e-12 and the tail is not."""
    exact = exact_sf(x, dof)
    assert abs(stats.chi2.sf(x, dof) - exact) > RELATIVE * exact
    assert abs(chi2_sf(x, dof) - exact) <= RELATIVE * exact


@pytest.mark.parametrize("dof", [1, 2, 3, 1000, MAX_DOF])
def test_edges(dof):
    assert chi2_sf(0.0, dof) == 1.0
    assert chi2_sf(-1.0, dof) == stats.chi2.sf(-1.0, dof) == 1.0
    assert chi2_sf(inf, dof) == 0.0
    assert isnan(chi2_sf(float("nan"), dof))


@pytest.mark.parametrize("dof", [1, 2, 3, 10, 101, 1000, MAX_DOF])
def test_underflows_to_zero_where_scipy_does(dof):
    x = float(dof)
    while stats.chi2.sf(x, dof) > 0.0:
        value = chi2_sf(x, dof)
        assert value > 0.0 or stats.chi2.sf(x, dof) < 1e-310
        x *= 1.01
    while x < 10.0 * dof + 1e4:
        assert stats.chi2.sf(x, dof) == 0.0
        assert chi2_sf(x, dof) == 0.0
        x *= 1.01
