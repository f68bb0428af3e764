"""Torus analyzer: reduction, largeness, DP, generators, quotient series."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympquot.bruteforce import (
    invariant_monomial_counts,
    lineal_columns_brute,
    minimal_generator_monomials_brute,
)
from sympquot.errors import ReconstructionError
from sympquot.quadforms import MomentForm
from sympquot.series import HilbertSeries
from sympquot.torus import (
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
