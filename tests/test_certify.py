"""Functional-equation certification of graded Gorenstein-ness."""

import pytest

from sympquot.certify import (
    CM_FAILS_CAVEAT,
    CM_UNKNOWN_CAVEAT,
    GorensteinVerdict,
    shell_a_invariant,
    stanley_check,
)
from sympquot.series import HilbertSeries, binomial_poly_one_minus_t2, poly_mul


def test_stanley_pinned_gorenstein():
    v = stanley_check(HilbertSeries((1, 0, 1), (2, 2)), cohen_macaulay_domain=True)
    assert v.functional_equation_holds
    assert v.dimension == 2
    assert v.a_invariant == -2
    assert v.graded_gorenstein
    assert v.caveat is None
    assert "a = -2" in v.summary()


def test_stanley_shell_series_family():
    # complete-intersection shells: (1-t^2)^ell / (1-t)^(2n) always satisfy
    # the equation with a = 2*ell - 2*n, and are graded Gorenstein only for
    # the trivial cut ell = 0
    for ell in range(4):
        for n in range(ell, ell + 4):
            if n == 0:
                continue
            H = HilbertSeries(binomial_poly_one_minus_t2(ell), (1,) * (2 * n))
            v = stanley_check(H, cohen_macaulay_domain=True)
            assert v.functional_equation_holds
            assert v.dimension == 2 * n - ell
            assert v.a_invariant == shell_a_invariant(ell, n) == 2 * ell - 2 * n
            assert v.graded_gorenstein == (ell == 0)


def test_stanley_failure_mode():
    v = stanley_check(HilbertSeries((1, 2), (1,)))
    assert not v.functional_equation_holds
    assert v.a_invariant is None
    assert not v.graded_gorenstein
    assert v.summary().startswith("functional equation fails")


def test_stanley_representation_invariance():
    base = HilbertSeries((1, 0, 1), (2, 2))
    padded = HilbertSeries(poly_mul((1, 0, 1), (1, 0, 0, -1)), (2, 2, 3))
    assert stanley_check(base, cohen_macaulay_domain=True) == stanley_check(
        padded, cohen_macaulay_domain=True
    )


def test_stanley_caveat_tristate():
    H = HilbertSeries((1, 0, 1), (2, 2))
    assert stanley_check(H, cohen_macaulay_domain=True).caveat is None
    assert stanley_check(H, cohen_macaulay_domain=False).caveat == CM_FAILS_CAVEAT
    assert stanley_check(H).caveat == CM_UNKNOWN_CAVEAT


def test_stanley_rejects_zero_series():
    with pytest.raises(ValueError):
        stanley_check(HilbertSeries((0, 0)))


def test_shell_a_invariant_validation():
    assert shell_a_invariant(0, 3) == -6
    assert shell_a_invariant(2, 2) == 0
    with pytest.raises(ValueError):
        shell_a_invariant(-1, 2)


def test_verdict_refuses_gorenstein_without_functional_equation():
    with pytest.raises(RuntimeError, match="please report this input"):
        GorensteinVerdict(
            dimension=3, a_invariant=-2, functional_equation_holds=True, graded_gorenstein=True
        )
