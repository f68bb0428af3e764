"""Series layer: polynomial helpers, Hilbert series, and reconstruction.

The round-trip properties (expand a known rational function, then recover
it) are the backbone here, since everything downstream trusts them.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympquot.errors import ReconstructionError
from sympquot.series import (
    HilbertSeries,
    TruncatedSeries,
    binomial_poly_one_minus_t2,
    cyclotomic_multiplicities,
    expand,
    minimal_rational_form,
    one_minus_te_product,
    poly_add,
    poly_divide_one_minus_te,
    poly_exact_div,
    poly_mul,
    poly_mul_truncated,
    poly_trim,
    reconstruct,
    reconstruct_search,
    reduced_fraction,
    staircase_exponents,
    vanishing_order_at_one,
)

# ---------------------------------------------------------------------------
# polynomial helpers


def test_poly_basics():
    assert poly_trim((1, 2, 0, 0)) == (1, 2)
    assert poly_trim((0,)) == ()
    assert poly_add((1, 2), (0, -2, 5)) == (1, 0, 5)
    assert poly_mul((1, 1), (1, -1)) == (1, 0, -1)
    assert poly_mul((), (1, 2)) == ()


def test_one_minus_te_product():
    assert one_minus_te_product(()) == (1,)
    assert one_minus_te_product((2,)) == (1, 0, -1)
    assert one_minus_te_product((1, 1)) == (1, -2, 1)
    assert binomial_poly_one_minus_t2(2) == (1, 0, -2, 0, 1)


def test_poly_divide_one_minus_te():
    assert poly_divide_one_minus_te((1, 0, -1), 2) == (1,)
    assert poly_divide_one_minus_te((1, 1), 2) is None
    assert poly_divide_one_minus_te((1, -1), 1) == (1,)


def test_vanishing_order_at_one():
    assert vanishing_order_at_one((1,)) == 0
    assert vanishing_order_at_one((1, -1)) == 1
    assert vanishing_order_at_one(poly_mul((1, -1), (1, -1))) == 2


def test_poly_exact_div():
    assert poly_exact_div((1, 0, -1), (1, 1)) == (1, -1)
    assert poly_exact_div((1, 1, 1), (1, 1)) is None
    assert poly_exact_div((), (1, 1)) == ()
    with pytest.raises(ZeroDivisionError):
        poly_exact_div((1,), ())


# ---------------------------------------------------------------------------
# TruncatedSeries / HilbertSeries


def test_truncated_series_surface():
    s = TruncatedSeries((1, 0, 3))
    assert s.bound == 2
    assert s.coeff(2) == 3
    with pytest.raises(IndexError):
        s.coeff(3)
    with pytest.raises(ValueError):
        TruncatedSeries(())
    assert s.geometric_mul(1).coeffs == (1, 1, 4)
    assert s.mul_poly((1, 0, -1)).coeffs == (1, 0, 2)
    assert s.truncate(1).coeffs == (1, 0)
    with pytest.raises(ValueError):
        s.truncate(5)


def test_hilbert_series_expand_and_invariants():
    H = HilbertSeries((1, 0, 1), (2, 2))  # (1 + t^2) / (1-t^2)^2
    assert H.expand(6).coeffs == (1, 0, 3, 0, 5, 0, 7)
    assert H.dimension == 2
    assert H.a_invariant == -2
    assert expand(H, 4).coeffs == (1, 0, 3, 0, 5)


def test_hilbert_series_canonical_cancels_shared_factors():
    # (1-t^2)/(1-t)^2 == (1+t)/(1-t)
    H = HilbertSeries((1, 0, -1), (1, 1))
    c = H.canonical()
    assert c.numerator == (1, 1)
    assert c.denominator == (1,)
    assert H.equals(c)
    assert H.a_invariant == c.a_invariant == 0


def test_hilbert_series_equality_ignores_representation():
    H1 = HilbertSeries((1, 0, 1), (2, 2))
    H2 = HilbertSeries(poly_mul((1, 0, 1), (1, 0, 0, -1)), (2, 2, 3))
    assert H1.equals(H2)
    assert H2.a_invariant == H1.a_invariant
    assert H1.expand(9).coeffs == H2.expand(9).coeffs


def test_hilbert_series_validation_and_render():
    with pytest.raises(ValueError):
        HilbertSeries((1,), (0,))
    assert str(HilbertSeries((1, 1))) == "1 + t"
    assert "(1-t^2)^2" in str(HilbertSeries((1, 0, 1), (2, 2)))
    empty = HilbertSeries((0, 0))
    assert empty.numerator == ()
    with pytest.raises(ValueError):
        empty.dimension
    with pytest.raises(ValueError):
        empty.a_invariant


def test_value_at():
    H = HilbertSeries((1, 0, 1), (2, 2))
    from fractions import Fraction

    # (1 + 1/4) / (1 - 1/4)^2 = (5/4) / (9/16) = 20/9
    assert H.value_at(Fraction(1, 2)) == Fraction(20, 9)


# ---------------------------------------------------------------------------
# reconstruction from truncations


def test_reconstruct_recovers_known_series():
    H = HilbertSeries((1, 0, 1), (2, 2))
    closed = reconstruct(H.expand(12), (2, 2), guard=4)
    assert closed.numerator == (1, 0, 1)
    assert closed.denominator == (2, 2)


def test_reconstruct_rejects_wrong_denominator():
    H = HilbertSeries((1, 0, 1), (2, 2))
    trunc = H.expand(12)
    with pytest.raises(ReconstructionError) as exc:
        reconstruct(trunc, (2,), guard=4)
    assert exc.value.truncation is trunc
    assert tuple(exc.value.tried) == ((2,),)


def test_reconstruct_guard_validation():
    trunc = TruncatedSeries((1,) * 13)
    with pytest.raises(ValueError):
        reconstruct(trunc, (2, 2), guard=0)
    with pytest.raises(ValueError):
        reconstruct(TruncatedSeries((1, 1, 1)), (2, 2), guard=4)


def test_reconstruct_search_dimension_filter():
    H = HilbertSeries((1, 1), (1,))
    trunc = H.expand(14)
    closed, used = reconstruct_search(trunc, [(1,), (1, 1)], 4, 1)
    assert used == (1,)
    assert closed.equals(H)
    # the polynomial 1 + t "reconstructs" over (1-t) but with pole order 0,
    # so asking for pole order 1 must reject the spurious fit
    poly = TruncatedSeries((1, 1) + (0,) * 8)
    with pytest.raises(ReconstructionError) as exc:
        reconstruct_search(poly, [(1,)], 4, 1)
    assert (1,) in exc.value.tried
    assert "pole order" in str(exc.value)


den_exponents = st.lists(st.integers(1, 4), min_size=1, max_size=4)
num_coeffs = st.lists(st.integers(-3, 3), min_size=1, max_size=5)


@given(num_coeffs, den_exponents)
@settings(max_examples=120, deadline=None)
def test_reconstruct_roundtrip(num, den):
    H = HilbertSeries(num, den)
    if not H.numerator:
        return
    guard = 4
    bound = len(H.numerator) - 1 + sum(den) + guard
    closed = reconstruct(H.expand(bound), tuple(den), guard=guard)
    assert closed.equals(H)
    assert closed.denominator == tuple(sorted(den))


def full_product_reconstruct(series, den, guard):
    """The whole truncated product, then the guard-window test on it."""
    den = tuple(sorted(den))
    product = poly_mul_truncated(series.coeffs, one_minus_te_product(den), series.bound)
    cutoff = series.bound - guard
    if any(product[cutoff + 1 :]):
        return None
    return HilbertSeries(poly_trim(product[: cutoff + 1]), den)


@st.composite
def truncations_and_candidates(draw):
    """A truncation (of a true series, perhaps with one coefficient moved,
    or of random integers) and a candidate denominator it is tested on."""
    guard = draw(st.integers(1, 5))
    cand = draw(den_exponents)
    num = draw(num_coeffs)
    true_den = draw(st.one_of(st.just(cand), den_exponents))
    bound = len(num) - 1 + max(sum(cand), sum(true_den)) + guard + draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["series", "perturbed", "random"]))
    if kind == "random":
        coeffs = draw(st.lists(st.integers(-5, 5), min_size=bound + 1, max_size=bound + 1))
    else:
        coeffs = list(HilbertSeries(num, true_den).expand(bound).coeffs)
        if kind == "perturbed":
            coeffs[draw(st.integers(0, bound))] += draw(st.sampled_from([-1, 1]))
    return TruncatedSeries(coeffs), cand, guard


@given(truncations_and_candidates())
@settings(max_examples=300, deadline=None)
def test_window_first_reconstruct_matches_full_product(case):
    trunc, cand, guard = case
    expected = full_product_reconstruct(trunc, cand, guard)
    if expected is None:
        with pytest.raises(ReconstructionError):
            reconstruct(trunc, cand, guard=guard)
    else:
        closed = reconstruct(trunc, cand, guard=guard)
        assert closed.numerator == expected.numerator
        assert closed.denominator == expected.denominator


def test_one_minus_te_product_rejects_nonpositive_exponents():
    with pytest.raises(ValueError):
        one_minus_te_product((2, 0))


@given(num_coeffs, den_exponents)
@settings(max_examples=80, deadline=None)
def test_minimal_rational_form_roundtrip(num, den):
    H = HilbertSeries(num, den)
    if not H.numerator:
        return
    bound = len(H.numerator) - 1 + sum(den) + 16
    form = minimal_rational_form(H.expand(bound).coeffs, stability=8)
    assert form is not None
    fnum, fden = form
    # same rational function, possibly in lower terms
    assert poly_mul(fnum, one_minus_te_product(H.denominator)) == poly_mul(
        H.numerator, fden
    )


def test_minimal_rational_form_needs_stability_margin():
    # ten coefficients of 1/(1-t^2)^2 with stability 8 leave no margin: the
    # routine must ask for more data rather than guess
    coeffs = HilbertSeries((1,), (2, 2)).expand(6).coeffs
    assert minimal_rational_form(coeffs, stability=8) is None
    assert minimal_rational_form((0, 0, 0)) == ((), (1,))


def _pair_primitive(r, v):
    """Scale the pair (r, v) to primitive integer lists (same scalar)."""
    den = 1
    for c in r + v:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in r] + [int(c * den) for c in v]
    g = 0
    for c in ints:
        g = math.gcd(g, c)
    g = g or 1
    return (
        [Fraction(int(c * den) // g) for c in r],
        [Fraction(int(c * den) // g) for c in v],
    )


def minimal_rational_form_over_fractions(coeffs, *, stability=8):
    """Reference: the extended Euclidean algorithm over exact rationals,
    each remainder and cofactor scaled to a primitive integer pair."""
    bound = len(coeffs) - 1
    b = [Fraction(c) for c in coeffs]
    while b and not b[-1]:
        b.pop()
    if not b:
        return (), (1,)
    r_prev = [Fraction(0)] * (bound + 1) + [Fraction(1)]
    v_prev = [Fraction(0)]
    r_cur, v_cur = b, [Fraction(1)]
    best = None
    while r_cur:
        total = (len(r_cur) - 1) + (len(v_cur) - 1)
        if v_cur[0] and total + stability <= bound:
            if best is None or total < best[0]:
                best = (total, list(r_cur), list(v_cur))
        q = [Fraction(0)] * (len(r_prev) - len(r_cur) + 1)
        rem = list(r_prev)
        lead = r_cur[-1]
        for k in range(len(q) - 1, -1, -1):
            c = rem[k + len(r_cur) - 1] / lead
            q[k] = c
            if c:
                for j, d in enumerate(r_cur):
                    rem[k + j] -= c * d
        while rem and not rem[-1]:
            rem.pop()
        v_next = list(v_prev) + [Fraction(0)] * max(
            0, len(q) + len(v_cur) - 1 - len(v_prev)
        )
        for i, qc in enumerate(q):
            if qc:
                for j, vc in enumerate(v_cur):
                    v_next[i + j] -= qc * vc
        while len(v_next) > 1 and not v_next[-1]:
            v_next.pop()
        r_prev, v_prev = r_cur, v_cur
        if rem:
            rem, v_next = _pair_primitive(rem, v_next)
        r_cur, v_cur = rem, v_next
    if best is None:
        return None
    _, num, den = best
    scale = den[0]
    num = [c / scale for c in num]
    den = [c / scale for c in den]
    if any(c.denominator != 1 for c in num + den):
        return None
    num = tuple(int(c) for c in num)
    den = tuple(int(c) for c in den)
    check = []
    for k in range(bound + 1):
        acc = num[k] if k < len(num) else 0
        acc -= sum(den[j] * check[k - j] for j in range(1, min(k, len(den) - 1) + 1))
        check.append(acc)
    if check != [int(c) for c in coeffs]:
        return None
    return num, den


@st.composite
def recurrence_inputs(draw):
    """(coefficients, stability): the truncation of a random rational
    function num/den with den(0) = 1 (den not built from (1 - t^e)
    factors, so its leading coefficients are not +-1), random integers,
    or all zeros."""
    stability = draw(st.integers(0, 10))
    kind = draw(st.sampled_from(["rational", "rational", "random", "zero"]))
    if kind == "zero":
        return [0] * draw(st.integers(1, 12)), stability
    if kind == "random":
        return draw(st.lists(st.integers(-6, 6), min_size=1, max_size=30)), stability
    num = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=6))
    den = [1] + draw(st.lists(st.integers(-3, 3), min_size=0, max_size=5))
    bound = draw(st.integers(0, 40))
    coeffs = []
    for k in range(bound + 1):
        acc = num[k] if k < len(num) else 0
        acc -= sum(den[j] * coeffs[k - j] for j in range(1, min(k, len(den) - 1) + 1))
        coeffs.append(acc)
    return coeffs, stability


@given(recurrence_inputs())
@settings(max_examples=300, deadline=None)
def test_fraction_free_minimal_rational_form_matches_the_fraction_one(case):
    coeffs, stability = case
    assert minimal_rational_form(
        coeffs, stability=stability
    ) == minimal_rational_form_over_fractions(coeffs, stability=stability)


def test_fraction_free_minimal_rational_form_pinned_cases():
    for coeffs in ([0], [0, 0, 0, 0], [5], [1, 2, 3, 4, 5] * 6, [2, 0, 0, 0] * 8):
        for stability in (0, 4, 8):
            assert minimal_rational_form(
                coeffs, stability=stability
            ) == minimal_rational_form_over_fractions(coeffs, stability=stability)
    # a leading coefficient 2 throughout: 1 / (1 - 2t) has only integral
    # convergents after pseudo-division
    coeffs = [2**k for k in range(20)]
    assert minimal_rational_form(coeffs) == ((1,), (1, -2))


def test_reduced_fraction():
    # (1+t)/(1-t^2) == 1/(1-t)
    num, den = reduced_fraction((1, 1), (2,))
    assert num == (1,)
    assert den == (1, -1)
    # already reduced: (1+t^2)/(1-t^2)^2 stays put
    num, den = reduced_fraction((1, 0, 1), (2, 2))
    assert num == (1, 0, 1)
    assert den == poly_mul((1, 0, -1), (1, 0, -1))
    assert den[0] == 1


def test_cyclotomic_multiplicities():
    # (1-t)^2 (1+t) (1+t+t^2)
    delta = poly_mul(poly_mul((1, -1), (1, -1)), poly_mul((1, 1), (1, 1, 1)))
    assert cyclotomic_multiplicities(delta) == {1: 2, 2: 1, 3: 1}
    assert cyclotomic_multiplicities(one_minus_te_product((6,))) == {
        1: 1,
        2: 1,
        3: 1,
        6: 1,
    }
    assert cyclotomic_multiplicities((1, -2), index_cap=8) is None
    with pytest.raises(ValueError):
        cyclotomic_multiplicities(())


def test_staircase_exponents():
    assert staircase_exponents({1: 2, 2: 1, 3: 1}) == (1, 6)
    assert staircase_exponents({1: 1}) == (1,)
    assert staircase_exponents({}) == ()
    with pytest.raises(ValueError):
        staircase_exponents({1: 1, 2: 2})
    # the staircase really covers: prod (1-t^e) is divisible by the input
    mult = {1: 3, 2: 2, 4: 1}
    exps = staircase_exponents(mult)
    assert len(exps) == 3
    covered = cyclotomic_multiplicities(one_minus_te_product(exps))
    assert all(covered.get(m, 0) >= s for m, s in mult.items())


@given(den_exponents)
@settings(max_examples=60, deadline=None)
def test_denominator_cyclotomic_factorization_roundtrip(den):
    mult = cyclotomic_multiplicities(one_minus_te_product(den))
    assert mult is not None
    assert mult[1] == len(den)
    exps = staircase_exponents(mult)
    assert len(exps) == len(den)
    # staircase covers the original denominator exactly as a divisor
    assert poly_exact_div(
        one_minus_te_product(exps), one_minus_te_product(den)
    ) is not None
