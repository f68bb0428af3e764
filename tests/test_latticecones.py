"""Exact norm generating functions of lattices, checked against the DP.

G_L(t) = sum_{m in L} t^{|m|_1} for a sublattice L of Z^n containing a
strictly positive vector.  The cross-check below uses the identity

    Hilb_{C[V+V*]^T}(t) = G_L(t) / (1-t^2)^n,    L = ker(A) in Z^n,

which pairs the decomposition engine with the independent truncated DP.
"""

import random

import pytest

from sympquot.errors import CapacityError
from sympquot.latticecones import (
    _cell_series,
    negative_image_point,
    norm_generating_function,
)
from sympquot.series import HilbertSeries
from sympquot.torus import (
    WeightMatrix,
    _reduced_kernel_basis,
    invariant_series_dp,
    largeness_report,
    stable_reduction,
)


def test_empty_basis_is_the_constant_one():
    assert norm_generating_function(()) == ((1,), ())


def test_singular_cell_is_a_loud_error():
    # a cell with dependent rays is an internal fault, and must stay one
    # under python -O
    with pytest.raises(RuntimeError, match="please report"):
        _cell_series(((1, 2), (2, 4)), [False, False], [(1, 0), (0, 1)], 2)


def test_rank_one_diagonal_lattice():
    # L = {(k, k)}: G = 1 + 2 t^2 + 2 t^4 + ... = (1+t^2)/(1-t^2)
    num, den = norm_generating_function(((1, 1),))
    assert HilbertSeries(num, den).equals(HilbertSeries((1, 0, 1), (2,)))


def test_index_two_sublattice_of_z():
    # L = 2Z in Z^1: G = (1+t^2)/(1-t^2)
    num, den = norm_generating_function(((2,),))
    assert HilbertSeries(num, den).equals(HilbertSeries((1, 0, 1), (2,)))


def test_full_lattice_z2():
    # G_{Z^2} = ((1+t)/(1-t))^2
    num, den = norm_generating_function(((1, 0), (0, 1)))
    assert HilbertSeries(num, den).equals(HilbertSeries((1, 2, 1), (1, 1)))


def test_lattice_without_positive_vector_is_rejected():
    with pytest.raises(ValueError):
        norm_generating_function(((1, -1),))


def test_point_limit_triggers_capacity_error():
    # rank-2 lattice whose cone cells have large fundamental domains
    basis = ((7, 5, 0), (-3, 0, 5))
    with pytest.raises(CapacityError):
        norm_generating_function(basis, point_limit=10)
    # the same input goes through at the default limit
    num, den = norm_generating_function(basis)
    assert HilbertSeries(num, den).expand(8).coeffs[0] == 1


def test_negative_image_point_contract():
    y = negative_image_point(((1, 1),))
    assert y is not None and len(y) == 1
    assert all(sum(yi * b for yi, b in zip(y, col)) <= -1 for col in [(1,), (1,)])
    assert negative_image_point(((1, -1),)) is None


def test_expansion_is_symmetric_and_nonnegative():
    # G_L counts lattice points, and L = -L
    num, den = norm_generating_function(((3, 1), (1, 2)))
    coeffs = HilbertSeries(num, den).expand(30).coeffs
    assert all(c >= 0 for c in coeffs)
    assert coeffs[0] == 1


def test_against_dp_on_random_stable_matrices():
    rng = random.Random(515)
    checked = 0
    while checked < 15:
        ell = rng.randint(1, 2)
        n = rng.randint(ell + 1, 5)
        A = WeightMatrix(
            tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(ell))
        )
        rep = largeness_report(A)
        if not (rep.stable and rep.faithful_up_to_finite and rep.zero_columns == 0):
            continue
        red = stable_reduction(A).reduced_matrix
        if red.module_dim == 0:
            continue
        basis = _reduced_kernel_basis(red)
        num, den = norm_generating_function(basis)
        series = HilbertSeries(num, den + (2,) * red.module_dim)
        dp = invariant_series_dp(red, 12)
        assert series.expand(12).coeffs == dp.coeffs, A.rows
        checked += 1


def test_against_dp_on_hard_wide_matrix():
    # 3 x 7 with rank-4 kernel: exercises lower-dimensional orthant pieces,
    # triangulation, and the open-facet shifts in one go
    A = WeightMatrix(
        (
            (1, 3, 3, 3, 1, 3, -3),
            (0, 0, 0, -3, 0, 0, 1),
            (-2, -2, 3, 0, -2, 0, 2),
        )
    )
    red = stable_reduction(A).reduced_matrix
    basis = _reduced_kernel_basis(red)
    num, den = norm_generating_function(basis)
    series = HilbertSeries(num, den + (2,) * red.module_dim)
    dp = invariant_series_dp(red, 14)
    assert series.expand(14).coeffs == dp.coeffs
