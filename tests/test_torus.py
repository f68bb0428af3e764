"""Torus analyzer: reduction, largeness, DP, generators, quotient series."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympquot.bruteforce import (
    invariant_monomial_counts,
    lineal_columns_brute,
    minimal_generator_monomials_brute,
)
from sympquot.errors import CapacityError, ReconstructionError
from sympquot.exactlin import (
    elementary_divisors,
    integer_rank,
    nonnegative_solution_exists,
)
from sympquot.quadforms import MomentForm
from sympquot.series import HilbertSeries
from sympquot.torus import (
    TorusLargenessReport,
    WeightMatrix,
    _lineality_columns,
    invariant_series_dp,
    is_stable,
    largeness_report,
    minimal_generators,
    moment_components,
    quotient_series,
    shell_diagnostics,
    shell_hilbert,
    stable_reduction,
)

weight_rows = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.tuples(*([st.integers(-2, 2)] * n)),
        min_size=1,
        max_size=3,
    )
)


# ---------------------------------------------------------------------------
# construction and moment components


def test_weight_matrix_validation():
    with pytest.raises(ValueError):
        WeightMatrix(((1, 2), (3,)))
    with pytest.raises(ValueError):
        WeightMatrix(())
    empty = WeightMatrix((), width=3)
    assert empty.torus_rank == 0
    assert empty.module_dim == 3
    A = WeightMatrix(((1, -1),))
    assert A.columns == ((1,), (-1,))
    assert A.rank == 1
    assert str(A) == "[1 -1]"


def test_moment_components_are_diagonal():
    forms = moment_components(WeightMatrix(((1, -1), (0, 2))))
    assert forms[0] == MomentForm({(0, 0): 1, (1, 1): -1}, 2)
    assert forms[1] == MomentForm({(1, 1): 2}, 2)


# ---------------------------------------------------------------------------
# stability and reduction


def test_is_stable_pinned():
    assert is_stable(WeightMatrix(((1, -1),)))
    assert not is_stable(WeightMatrix(((1, 1),)))
    assert not is_stable(WeightMatrix(((1, 0), (0, 1))))
    assert is_stable(WeightMatrix(((0,),)))  # zero weights are lineal


@given(weight_rows)
@settings(max_examples=100, deadline=None)
def test_lineality_columns_match_caratheodory_bruteforce(rows):
    A = WeightMatrix(tuple(rows))
    assert _lineality_columns(A) == lineal_columns_brute(A)


def lineality_columns_one_lp_each(A: WeightMatrix):
    """Reference: one exact LP per column, as before solutions' supports
    were used to skip columns."""
    ell, n = A.torus_rank, A.module_dim
    out = []
    for j in range(n):
        rows = [list(r) for r in A.rows] + [[int(i == j) for i in range(n)]]
        if nonnegative_solution_exists(rows, [0] * ell + [1]):
            out.append(j)
    return tuple(out)


wide_weight_rows = st.integers(1, 9).flatmap(
    lambda n: st.lists(
        st.tuples(*([st.sampled_from((0, 0, -3, -2, -1, 1, 2, 3))] * n)),
        min_size=1,
        max_size=3,
    )
)


@given(wide_weight_rows)
@settings(max_examples=150, deadline=None)
def test_lineality_columns_match_one_lp_per_column(rows):
    A = WeightMatrix(tuple(rows))
    assert _lineality_columns(A) == lineality_columns_one_lp_each(A)


def test_stable_reduction_trace_fields():
    # one unstable column (3rd), one zero column (4th)
    A = WeightMatrix(((1, -1, 1, 0), (1, -1, 0, 0)))
    trace = stable_reduction(A)
    assert trace.kept_columns == (0, 1)
    assert trace.removed_trivial_columns == 1
    assert trace.reduced_rank == 1  # dependent rows collapse
    assert trace.reduced_dim == 2
    assert trace.replay().rows == trace.reduced_matrix.rows


@given(weight_rows)
@settings(max_examples=60, deadline=None)
def test_stable_reduction_contract(rows):
    from sympquot.bruteforce import rank_oracle

    A = WeightMatrix(tuple(rows))
    trace = stable_reduction(A)
    red = trace.reduced_matrix
    # the witness replays to the same matrix, with a unimodular transform
    assert trace.replay().rows == red.rows
    if trace.row_basis_change:
        from sympy import Matrix

        assert abs(int(Matrix([list(r) for r in trace.row_basis_change]).det())) == 1
    # the reduced module is stable, faithful and has no trivial columns
    assert red.torus_rank == rank_oracle(red.rows)
    rep = largeness_report(red)
    assert rep.stable
    assert rep.faithful_up_to_finite
    assert rep.zero_columns == 0
    # idempotent: reducing again keeps everything
    again = stable_reduction(red)
    assert again.reduced_matrix.rows == red.rows
    assert again.kept_columns == tuple(range(red.module_dim))
    assert again.removed_trivial_columns == 0


def test_largeness_report_pinned():
    rep = largeness_report(WeightMatrix(((1, -1),)))
    assert rep.stable and rep.faithful_up_to_finite and rep.fpig and rep.one_large
    assert rep.max_k_modular == 1
    assert rep.finite_kernel_order == 1
    assert rep.zero_columns == 0

    rep = largeness_report(WeightMatrix(((2,),)))
    assert rep.faithful_up_to_finite and not rep.stable
    assert rep.finite_kernel_order == 2  # kernel is mu_2
    assert rep.max_k_modular == 0

    rep = largeness_report(WeightMatrix(((1, -1), (2, -2))))
    assert not rep.faithful_up_to_finite
    assert rep.finite_kernel_order is None
    assert rep.max_k_modular == -1

    rep = largeness_report(WeightMatrix(((0, 0),)))
    assert rep.stable and not rep.faithful_up_to_finite
    assert rep.zero_columns == 2


def _rank_by_mask(A):
    """rank(A_S) for every column-support bitmask S (list indexed by mask)."""
    ell, n = A.torus_rank, A.module_dim
    cols = A.columns
    ranks = [0] * (1 << n)
    if ell == 0:
        return ranks
    for mask in range(1, 1 << n):
        sub = [cols[j] for j in range(n) if mask >> j & 1]
        ranks[mask] = integer_rank(sub, limit=ell)
    return ranks


def _largeness_by_masks(A):
    """largeness_report from the ranks of all 2^n column supports."""
    ell, n = A.torus_rank, A.module_dim
    ranks = _rank_by_mask(A)
    faithful = (ranks[-1] if n else 0) == ell
    stable = is_stable(A)
    zero_cols = sum(1 for j in range(n) if not any(A.column(j)))
    dims = {}
    for mask in range(1 << n):
        r = ell - ranks[mask]
        dims[r] = max(dims.get(r, -1), mask.bit_count())
    if ell == 0:
        max_k = n
    else:
        max_k = max(min(n - dims[r] - r for r in dims if r >= 1), -1)
    if faithful:
        order = math.prod(elementary_divisors(A.rows)) if ell else 1
    else:
        order = None
    return TorusLargenessReport(
        faithful_up_to_finite=faithful,
        stable=stable,
        fpig=stable and faithful,
        max_k_modular=max_k,
        one_large=stable and faithful,
        dim_bound_ok=ell == 0 or ell + max_k <= n - zero_cols,
        finite_kernel_order=order,
        zero_columns=zero_cols,
    )


def _shell_dims_by_masks(A):
    """(shell_dim, infinite_isotropy_dim) from the stratum dimensions.

    A support I is feasible when no column of I is a coloop of A_I, with
    value |I| - rank(A_I); gm[U] is the best value over feasible I inside
    U, by a subset-max transform.
    """
    ell, n = A.torus_rank, A.module_dim
    ranks = _rank_by_mask(A)
    NEG = -(10**9)
    gm = [NEG] * (1 << n)
    for mask in range(1 << n):
        if all(
            ranks[mask] == ranks[mask & ~(1 << j)]
            for j in range(n)
            if mask >> j & 1
        ):
            gm[mask] = mask.bit_count() - ranks[mask]
    for j in range(n):
        bit = 1 << j
        for mask in range(1 << n):
            if mask & bit and gm[mask ^ bit] > gm[mask]:
                gm[mask] = gm[mask ^ bit]
    shell_dim = n + gm[-1] if n else 0
    iso_dim = max(
        (m.bit_count() + gm[m] for m in range(1 << n) if ranks[m] < ell),
        default=-1,
    )
    return shell_dim, iso_dim


@st.composite
def largeness_matrices(draw):
    """ell <= 4, n <= 10, entries in [-2, 2] with zeros weighted up, some
    rows forced dependent and some columns forced zero."""
    ell = draw(st.integers(0, 4))
    n = draw(st.integers(0, 10))
    entry = st.sampled_from((0, 0, 0, -2, -1, 1, 2))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(ell)]
    if ell and draw(st.integers(0, 4)) == 0:
        others = ell - 1
        coeffs = draw(st.lists(st.integers(-1, 1), min_size=others, max_size=others))
        rows[-1] = [
            sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)
        ]
    if n:
        for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
            for row in rows:
                row[j] = 0
    return WeightMatrix(rows, width=n)


@given(largeness_matrices())
@settings(max_examples=120, deadline=None)
def test_largeness_and_shell_from_flats_match_support_masks(A):
    large = _largeness_by_masks(A)
    assert largeness_report(A) == large
    diag = shell_diagnostics(A)
    shell_dim, iso_dim = _shell_dims_by_masks(A)
    # every other field is decided from these by code both routes share
    assert diag == dataclasses.replace(
        diag,
        largeness=large,
        shell_dim=shell_dim,
        infinite_isotropy_dim=iso_dim,
        singular_locus_dim=iso_dim if diag.zero_modular else None,
    )


def test_largeness_beyond_sixteen_columns():
    # 2^20 supports, but the flats of rank < 2 give f(0) = 0 and f(1) = 8
    cols = [(1, 0)] * 8 + [(0, 1)] * 7 + [(1, 1)] * 5
    diag = shell_diagnostics(WeightMatrix(tuple(zip(*cols))))
    assert diag.largeness.max_k_modular == 11  # min(20 - 0 - 2, 20 - 8 - 1)
    assert diag.shell_dim == 38  # 2n - rank A
    assert diag.infinite_isotropy_dim == 15  # 2 f(1) - 1


def test_largeness_refuses_before_any_rank(monkeypatch):
    # ell = 6, n = 40: sum_{s <= 5} C(40, s) = 760,099 closures
    from sympquot import torus

    def no_rank(*args, **kwargs):
        raise AssertionError("a rank was computed before the cap check")

    monkeypatch.setattr(torus, "integer_rank", no_rank)
    rng = random.Random(6)
    A = WeightMatrix(
        tuple(tuple(rng.randint(-3, 3) for _ in range(40)) for _ in range(6))
    )
    for report in (largeness_report, shell_diagnostics):
        with pytest.raises(CapacityError, match="760099 column subsets"):
            report(A)


# ---------------------------------------------------------------------------
# invariant series


@given(weight_rows)
@settings(max_examples=40, deadline=None)
def test_dp_strategies_agree(rows):
    A = WeightMatrix(tuple(rows))
    state = invariant_series_dp(A, 8, method="state")
    kernel = invariant_series_dp(A, 8, method="kernel")
    assert state.coeffs == kernel.coeffs
    assert state.coeffs[0] == 1
    assert all(c >= 0 for c in state.coeffs)


def test_dp_method_validation():
    with pytest.raises(ValueError):
        invariant_series_dp(WeightMatrix(((1, -1),)), 8, method="guess")


def test_minimal_generators_match_bruteforce():
    rng = random.Random(99)
    for _ in range(25):
        ell = rng.randint(1, 2)
        n = rng.randint(1, 3)
        A = WeightMatrix(
            tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(ell))
        )
        gens = minimal_generators(A, 6)
        brute = minimal_generator_monomials_brute(A, 6)
        assert sorted((g.u, g.v) for g in gens) == sorted(
            (u, v) for u, v in brute
        ), A.rows


def test_minimal_generators_pinned_hyperbolic():
    gens = minimal_generators(WeightMatrix(((1, -1),)), 6)
    assert sorted((g.u, g.v) for g in gens) == [
        ((0, 0), (1, 1)),
        ((0, 1), (0, 1)),
        ((1, 0), (1, 0)),
        ((1, 1), (0, 0)),
    ]
    assert all(g.degree == 2 for g in gens)


# ---------------------------------------------------------------------------
# shell series and diagnostics


def test_shell_hilbert_pinned():
    H = shell_hilbert(WeightMatrix(((1, -1),)))
    assert H.equals(HilbertSeries((1, 0, -1), (1, 1, 1, 1)))
    assert H.a_invariant == -2
    with pytest.raises(ValueError):
        shell_hilbert(WeightMatrix(((0, 0),)))  # zero moment map: not a
        # regular sequence


def test_shell_diagnostics_stable_case():
    diag = shell_diagnostics(WeightMatrix(((1, -1),)))
    assert diag.zero_modular
    assert diag.shell_dim == 3
    assert diag.shell_a_invariant == -2
    assert diag.normal == "yes"
    assert diag.rational_singularities == "yes"
    assert diag.caveats == ()


def test_shell_diagnostics_unreduced_caveat():
    diag = shell_diagnostics(WeightMatrix(((1, 1),)))
    assert diag.zero_modular
    assert diag.normal == "yes"  # still a complete intersection check
    assert diag.rational_singularities == "undetermined"
    assert any("unreduced" in c for c in diag.caveats)


# ---------------------------------------------------------------------------
# quotient series


def test_quotient_series_hyperbolic_pinned():
    q = quotient_series(WeightMatrix(((1, -1),)), 20)
    assert q.series.numerator == (1, 0, 1)
    assert q.series.denominator == (2, 2)
    assert q.verdict.graded_gorenstein
    assert q.generator_degrees == (2,)
    assert q.truncation.coeffs[:5] == (1, 0, 3, 0, 5)


def test_quotient_series_identity_collapses_to_a_point():
    q = quotient_series(WeightMatrix(((1, 0), (0, 1))))
    assert q.series.numerator == (1,)
    assert q.series.denominator == ()
    assert q.verdict.dimension == 0
    assert q.verdict.graded_gorenstein
    assert q.trace.reduced_dim == 0


def test_quotient_series_trivial_action():
    # zero weights: no moment conditions, the quotient is all of V + V*
    q = quotient_series(WeightMatrix(((0, 0),)))
    assert q.series.numerator == (1,)
    assert q.series.denominator == (1, 1, 1, 1)
    assert q.verdict.a_invariant == -4
    assert q.verdict.graded_gorenstein


def test_quotient_series_forced_denominator():
    A = WeightMatrix(((1, -1),))
    q = quotient_series(A, 20, (2, 2))
    assert q.series.numerator == (1, 0, 1)
    assert q.denominator == (2, 2)
    with pytest.raises(ReconstructionError):
        quotient_series(A, 20, (2,))  # wrong pole order cannot fit


def test_quotient_series_rescue_ladder_matches_engine():
    # point_limit=0 disables the cone decomposition; the recurrence ladder
    # must land on the same closed form
    A = WeightMatrix(((1, -1),))
    assert quotient_series(A, point_limit=0).series.equals(
        quotient_series(A).series
    )


def test_quotient_series_invariant_under_reduction_and_row_ops():
    rng = random.Random(7)
    checked = 0
    while checked < 8:
        ell = rng.randint(1, 2)
        n = rng.randint(2, 5)
        A = WeightMatrix(
            tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(ell))
        )
        if stable_reduction(A).reduced_dim == 0:
            continue
        base = quotient_series(A, 16)
        red = quotient_series(base.trace.reduced_matrix, 16)
        m = base.trace.removed_trivial_columns
        lifted = HilbertSeries(
            red.series.numerator, red.series.denominator + (1,) * (2 * m)
        )
        assert base.series.equals(lifted), A.rows
        if ell == 2:
            # unimodular row mix: same kernel lattice, same quotient
            r1, r2 = A.rows
            mixed = WeightMatrix((r1, tuple(a + b for a, b in zip(r1, r2))))
            assert quotient_series(mixed, 16).series.equals(base.series), A.rows
        checked += 1


def test_quotient_series_matches_full_monomial_enumeration():
    # tiny cases where the naive count is feasible: quotient expansion ==
    # enumerated invariants cut by the ell' moment relations
    for rows in [((1, -1),), ((1, -2),), ((2, -3),)]:
        A = WeightMatrix(rows)
        q = quotient_series(A, 16)
        counts = invariant_monomial_counts(A, 10)
        ell_r = q.trace.reduced_rank
        cut = list(counts)
        for _ in range(ell_r):
            cut = [
                c - (cut[d - 2] if d >= 2 else 0) for d, c in enumerate(cut)
            ]
        assert list(q.series.expand(10).coeffs) == cut, rows


def test_torus_reports_refuse_contradictions(monkeypatch):
    # [[1,1],[1,1]] is not 0-modular (shell dimension 3 > 2n - ell = 2) and
    # not stable: a largeness report claiming 0-modularity contradicts the
    # strata, and one claiming 1-largeness contradicts stability
    import dataclasses

    from sympquot import torus

    real = torus.largeness_report
    monkeypatch.setattr(
        torus,
        "largeness_report",
        lambda A: dataclasses.replace(real(A), max_k_modular=0),
    )
    with pytest.raises(RuntimeError, match="please report this input"):
        shell_diagnostics(WeightMatrix([[1, 1], [1, 1]]))
    with pytest.raises(RuntimeError, match="please report this input"):
        dataclasses.replace(real(WeightMatrix([[1, 1], [1, 1]])), one_large=True)
