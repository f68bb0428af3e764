"""Exact integer/rational linear algebra against independent oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sympquot.bruteforce import rank_oracle
from sympquot.exactlin import (
    elementary_divisors,
    fraction_inverse,
    fraction_rank,
    hermite_normal_form,
    integer_adjugate,
    integer_kernel_basis,
    integer_rank,
    lll_reduce,
    nonnegative_solution,
    nonnegative_solution_exists,
    row_reduce_unimodular,
)

small_matrix = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=1,
        max_size=5,
    )
)


@given(small_matrix)
@settings(max_examples=150, deadline=None)
def test_integer_rank_matches_sympy(rows):
    assert integer_rank(rows) == rank_oracle(rows)


def test_integer_rank_limit_early_exit():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert integer_rank(rows, limit=2) == 2
    assert integer_rank(rows) == 3
    assert integer_rank([]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0


def test_fraction_rank_clears_denominators():
    rows = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(3, 2), Fraction(1, 1)],
    ]
    assert fraction_rank(rows) == rank_oracle([[3, 2], [9, 6]])  # same row space
    assert fraction_rank([[Fraction(0), Fraction(0)]]) == 0


@given(small_matrix, st.integers(0, 4), st.integers(2, 7))
@settings(max_examples=100, deadline=None)
def test_fraction_rank_passes_integer_rows_through(rows, where, den):
    from sympquot import exactlin

    assert fraction_rank(rows) == integer_rank(rows)
    # one row scaled by 1/den: same rank, through the Fraction clearing
    mixed = [list(r) for r in rows]
    i = where % len(mixed)
    mixed[i] = [Fraction(x, den) for x in mixed[i]]
    assert fraction_rank(mixed) == integer_rank(rows)
    # the int rows reach integer_rank without a Fraction being made
    class NoFraction:
        def __init__(self, *args):
            raise AssertionError("an int row was turned into Fractions")

    real = exactlin.Fraction
    exactlin.Fraction = NoFraction
    try:
        assert fraction_rank(rows) == integer_rank(rows)
    finally:
        exactlin.Fraction = real


@given(small_matrix)
@settings(max_examples=100, deadline=None)
def test_fraction_inverse_roundtrip(rows):
    k = len(rows)
    square = [r[:k] for r in rows[:k]]
    if len(square) < k or rank_oracle(square) < k:
        return
    inv = fraction_inverse(square)
    prod = [
        [sum(Fraction(square[i][t]) * inv[t][j] for t in range(k)) for j in range(k)]
        for i in range(k)
    ]
    assert prod == [
        [Fraction(int(i == j)) for j in range(k)] for i in range(k)
    ]


def test_fraction_inverse_singular_raises():
    with pytest.raises(ValueError):
        fraction_inverse([[1, 2], [2, 4]])


def _det(rows):
    from sympy import Matrix

    return int(Matrix([list(r) for r in rows]).det())


square_matrix = st.integers(1, 7).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(-9, 9), min_size=k, max_size=k),
        min_size=k,
        max_size=k,
    )
)


def _matmul(a, b):
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


@given(square_matrix)
@settings(max_examples=150, deadline=None)
def test_integer_adjugate_against_fraction_inverse(rows):
    k = len(rows)
    adj, det = integer_adjugate(rows)
    assert det == _det(rows)
    if det == 0:
        assert adj is None
        return
    scaled = [[det * int(i == j) for j in range(k)] for i in range(k)]
    assert _matmul(adj, rows) == scaled
    assert _matmul(rows, adj) == scaled
    inv = fraction_inverse(rows)
    assert adj == [[inv[i][j] * det for j in range(k)] for i in range(k)]


@given(square_matrix, st.data())
@settings(max_examples=60, deadline=None)
def test_integer_adjugate_singular_gives_zero_determinant(rows, data):
    # make one row a combination of the others (or zero when k = 1)
    k = len(rows)
    i = data.draw(st.integers(0, k - 1))
    coef = data.draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
    rows[i] = [
        sum(coef[t] * rows[t][j] for t in range(k) if t != i) for j in range(k)
    ]
    assert integer_adjugate(rows) == (None, 0)


def test_integer_adjugate_pinned():
    assert integer_adjugate([[2, 1], [7, 4]]) == ([[4, -1], [-7, 2]], 1)
    # a zero leading pivot needs a row swap, which flips the sign
    assert integer_adjugate([[0, 1], [1, 0]]) == ([[0, -1], [-1, 0]], -1)
    assert integer_adjugate([[5]]) == ([[1]], 5)
    assert integer_adjugate([[1, 2], [2, 4]]) == (None, 0)


@given(small_matrix)
@settings(max_examples=120, deadline=None)
def test_row_reduce_unimodular_contract(rows):
    U, H, r = row_reduce_unimodular(rows)
    ell, n = len(rows), len(rows[0])
    # U is unimodular and U * A == H
    assert abs(_det(U)) == 1
    prod = [
        [sum(U[i][t] * rows[t][j] for t in range(ell)) for j in range(n)]
        for i in range(ell)
    ]
    assert prod == [list(row) for row in H]
    assert r == rank_oracle(rows)
    # echelon shape: strictly increasing positive pivots, zero rows below
    last_pivot = -1
    for i in range(r):
        pivot = next(j for j in range(n) if H[i][j])
        assert pivot > last_pivot
        assert H[i][pivot] > 0
        last_pivot = pivot
    for i in range(r, ell):
        assert not any(H[i])


@given(small_matrix)
@settings(max_examples=120, deadline=None)
def test_integer_kernel_basis_is_saturated(rows):
    n = len(rows[0])
    basis = integer_kernel_basis(rows, n)
    assert len(basis) == n - rank_oracle(rows)
    for vec in basis:
        assert all(sum(r[j] * vec[j] for j in range(n)) == 0 for r in rows)
    if basis:
        # a saturated lattice has a primitive basis: all divisors are 1
        assert elementary_divisors(basis) == [1] * len(basis)


def test_elementary_divisors_pinned():
    assert elementary_divisors([[2, 0], [0, 3]]) == [1, 6]
    assert elementary_divisors([[2, 0], [0, 4]]) == [2, 4]
    assert elementary_divisors([[0, 0]]) == []
    assert elementary_divisors([]) == []
    assert elementary_divisors([[-7]]) == [7]
    assert elementary_divisors([[12, 6, 4], [3, 9, 6], [2, 16, 14]]) == [1, 10, 30]


# ---------------------------------------------------------------------------
# lattice normal forms against sympy, which stays a test reference only

lattice_rows = st.integers(1, 4).flatmap(
    lambda r: st.integers(r, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
            min_size=r,
            max_size=r,
        )
    )
)


def sympy_hermite_rows(rows):
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

    return tuple(
        tuple(int(x) for x in row) for row in sympy_hnf(Matrix(rows).T).T.tolist()
    )


def sympy_lll_rows(rows):
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    shape = (len(rows), len(rows[0]))
    dm = DomainMatrix([[ZZ(x) for x in row] for row in rows], shape, ZZ)
    return tuple(tuple(int(x) for x in row) for row in dm.lll().to_list())


@given(lattice_rows)
@settings(max_examples=150, deadline=None)
def test_hermite_normal_form_matches_sympy(rows):
    hnf = hermite_normal_form(rows)
    assert hnf == sympy_hermite_rows(rows)
    assert len(hnf) == rank_oracle(rows)


def test_hermite_normal_form_pinned():
    assert hermite_normal_form([[2, 4], [0, 6]]) == ((6, 0), (4, 2))
    assert hermite_normal_form([[1, 1, 2], [2, 2, 4]]) == ((1, 1, 2),)
    assert hermite_normal_form([[0, 0, 0]]) == ()
    assert hermite_normal_form([]) == ()


@given(lattice_rows)
@settings(max_examples=150, deadline=None)
def test_lll_reduce_matches_sympy(rows):
    assume(integer_rank(rows) == len(rows))
    assert lll_reduce(rows) == sympy_lll_rows(rows)
    hnf = hermite_normal_form(rows)
    assert lll_reduce(hnf) == sympy_lll_rows(hnf)


def test_lll_reduce_pinned():
    assert lll_reduce([[1, 0, 0, 0, -20160], [0, 1, 0, 0, 33768]]) == (
        (67, 40, 0, 0, 0),
        (-5, -3, 0, 0, -504),
    )
    assert lll_reduce([[3, 4]]) == ((3, 4),)
    assert lll_reduce([]) == ()
    with pytest.raises(ValueError):
        lll_reduce([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        lll_reduce([[1], [2]])


sparse_matrix = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 7).flatmap(
        lambda n: st.lists(
            st.lists(
                st.one_of(st.just(0), st.just(0), st.integers(-6, 6)),
                min_size=n,
                max_size=n,
            ),
            min_size=m,
            max_size=m,
        )
    )
)


def sympy_elementary_divisors(rows):
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    snf = smith_normal_form(Matrix(rows))
    return [abs(int(snf[i, i])) for i in range(min(snf.shape)) if snf[i, i]]


@given(sparse_matrix, st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_elementary_divisors_match_sympy(rows, zero_row, zero_col):
    # a zero row, a zero column, or a repeated row (rank deficiency)
    n = len(rows[0])
    if zero_row == 1:
        rows = rows + [[0] * n]
    elif zero_row == 2:
        rows = rows + [[2 * v for v in rows[0]]]
    if zero_col:
        rows = [r[:zero_col] + [0] + r[zero_col:] for r in rows]
    divisors = elementary_divisors(rows)
    assert divisors == sympy_elementary_divisors(rows)
    assert len(divisors) == rank_oracle(rows)
    assert all(b % a == 0 for a, b in zip(divisors, divisors[1:]))


def test_nonnegative_solution_pinned():
    # identity system: the witness is the right-hand side itself
    assert nonnegative_solution([[1, 0], [0, 1]], [3, 5]) == (3, 5)
    # x1 + x2 = -1 has no solution with x >= 0
    assert nonnegative_solution([[1, 1]], [-1]) is None
    assert not nonnegative_solution_exists([[1, 1]], [-1])
    # no constraints: the empty witness
    assert nonnegative_solution([], []) == ()


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                min_size=1,
                max_size=3,
            ),
            st.lists(st.integers(0, 4), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=120, deadline=None)
def test_nonnegative_solution_finds_planted_witness(case):
    rows, x0 = case
    rhs = [sum(r[j] * x0[j] for j in range(len(x0))) for r in rows]
    x = nonnegative_solution(rows, rhs)
    assert x is not None
    assert all(xi >= 0 for xi in x)
    for r, b in zip(rows, rhs):
        assert sum(Fraction(r[j]) * x[j] for j in range(len(x))) == b


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                min_size=1,
                max_size=3,
            ),
            st.lists(st.integers(-6, 6), min_size=1, max_size=3),
        )
    )
)
@settings(max_examples=120, deadline=None)
def test_nonnegative_solution_witness_is_valid(case):
    rows, rhs = case
    rhs = (rhs * 3)[: len(rows)]
    x = nonnegative_solution(rows, rhs)
    if x is None:
        return
    assert all(xi >= 0 for xi in x)
    for r, b in zip(rows, rhs):
        assert sum(Fraction(r[j]) * x[j] for j in range(len(x))) == b
