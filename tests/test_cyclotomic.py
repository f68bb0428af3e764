"""The integer cyclotomic layer of the series module, against oracles.

reduced_fraction, cyclotomic_multiplicities and poly_exact_div work with
integers only.  Here sympy (cyclotomic polynomials, polynomial gcd) and a
Fraction long division serve as independent references; the series module
itself must not import sympy, which a fresh interpreter checks, as it checks
that an analyze request loads neither sympy nor numpy where it needs neither.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Poly, Symbol, ZZ, cyclotomic_poly

import sympquot
from sympquot.series import (
    _cyclotomic,
    _cyclotomic_reduction,
    cyclotomic_multiplicities,
    one_minus_te_product,
    poly_exact_div,
    poly_mul,
    poly_trim,
    reduced_fraction,
)

T = Symbol("t")


def sympy_coeffs(poly):
    """Coefficient tuple (indexed by degree) of a sympy Poly."""
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


def sympy_poly(coeffs):
    return Poly(list(reversed(coeffs)), T, domain=ZZ)


def sympy_reduced_fraction(num, exponents):
    """num / prod (1 - t^e) in lowest terms by a sympy gcd, constant term
    of the denominator +1."""
    pnum = sympy_poly(poly_trim(num))
    pden = sympy_poly(one_minus_te_product(exponents))
    g = pnum.gcd(pden)
    qn = sympy_coeffs(pnum.exquo(g))
    qd = sympy_coeffs(pden.exquo(g))
    if qd[0] < 0:
        qn = tuple(-c for c in qn)
        qd = tuple(-c for c in qd)
    return qn, qd


def fraction_exact_div(num, den):
    """Long division over the rationals; None unless exact and integral."""
    num, den = poly_trim(num), poly_trim(den)
    if not num:
        return ()
    if len(num) < len(den):
        return None
    rem = [Fraction(c) for c in num]
    q = [Fraction(0)] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + len(den) - 1] / den[-1]
        q[k] = c
        for j, d in enumerate(den):
            rem[k + j] -= c * d
    if any(rem) or any(c.denominator != 1 for c in q):
        return None
    return tuple(int(c) for c in q)


def test_cyclotomic_table_matches_sympy():
    for m in range(1, 201):
        assert _cyclotomic(m) == sympy_coeffs(cyclotomic_poly(m, T, polys=True)), m


small_poly = st.lists(st.integers(-4, 4), min_size=1, max_size=5).filter(any)
cyclotomic_indices = st.lists(st.integers(1, 12), max_size=5)
exponent_multisets = st.lists(st.integers(1, 12), max_size=7)


@given(small_poly, cyclotomic_indices, exponent_multisets)
@settings(max_examples=150, deadline=None)
@example([1, 1], [], [2])  # odd count: (1+t)/(1-t^2) = 1/(1-t)
@example([1], [1, 1], [1, 1])  # even count, Phi_1^2 cancels completely
@example([-1], [1, 2, 3], [1, 2, 3])  # odd count, every factor cancels
def test_reduced_fraction_matches_sympy_gcd(base, indices, exponents):
    num = tuple(base)
    for m in indices:
        num = poly_mul(num, _cyclotomic(m))
    got = reduced_fraction(num, exponents)
    assert got == sympy_reduced_fraction(num, exponents)
    assert got[1][0] == 1


@given(small_poly, cyclotomic_indices, exponent_multisets)
@settings(max_examples=150, deadline=None)
@example([1], [1, 1], [1, 1])  # every factor cancels: no multiplicities
def test_reduction_hands_on_the_factoring_of_its_denominator(base, indices, exponents):
    # the multiplicities found while cancelling are those of factoring the
    # reduced denominator again, in the same order
    num = tuple(base)
    for m in indices:
        num = poly_mul(num, _cyclotomic(m))
    rnum, delta, mult = _cyclotomic_reduction(num, exponents)
    assert (rnum, delta) == reduced_fraction(num, exponents)
    again = cyclotomic_multiplicities(delta, index_cap=max(exponents, default=1))
    assert list(mult.items()) == list(again.items())


@given(exponent_multisets.filter(len), cyclotomic_indices)
@settings(max_examples=80, deadline=None)
def test_cyclotomic_multiplicities_of_cyclotomic_products(exponents, indices):
    # any product of cyclotomic factors is recognised, with multiplicities
    delta = one_minus_te_product(exponents)
    for m in indices:
        delta = poly_mul(delta, _cyclotomic(m))
    expected = {}
    for e in exponents:
        for m in range(1, e + 1):
            if e % m == 0:
                expected[m] = expected.get(m, 0) + 1
    for m in indices:
        expected[m] = expected.get(m, 0) + 1
    assert cyclotomic_multiplicities(delta, index_cap=12) == expected


int_poly = st.lists(st.integers(-5, 5), max_size=6)
divisor = st.lists(st.integers(-3, 3), min_size=1, max_size=4).filter(
    lambda p: p[-1] != 0
)


@given(int_poly, divisor, st.lists(st.integers(-2, 2), max_size=3))
@settings(max_examples=300, deadline=None)
@example([], [2, 4], [1, 2])  # (1 + 2t) / (2 + 4t) = 1/2: exact, not integral
@example([1, 1], [1, 2], [])  # non-monic divisor, integral quotient
@example([1, 1], [1, 1], [0, 2])  # nonzero remainder
def test_poly_exact_div_matches_fraction_reference(q, den, rem):
    # num = q * den + rem covers exact, inexact and non-integral cases
    exact = list(poly_mul(tuple(q), tuple(den)))
    exact += [0] * (len(rem) - len(exact))
    num = poly_trim([c + (rem[k] if k < len(rem) else 0) for k, c in enumerate(exact)])
    assert poly_exact_div(num, den) == fraction_exact_div(num, den)
    if poly_trim(q):
        assert poly_exact_div(poly_mul(tuple(q), tuple(den)), den) == poly_trim(q)


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports sympquot from here."""
    src = str(Path(sympquot.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_series_layer_imports_no_sympy():
    run_fresh(
        "import sys\n"
        "from sympquot.series import cyclotomic_multiplicities, "
        "one_minus_te_product, poly_exact_div, reduced_fraction\n"
        "assert reduced_fraction((1, 1), (2, 6)) == ((1,), (1, -1, 0, 0, 0, 0, -1, 1))\n"
        "assert cyclotomic_multiplicities(one_minus_te_product((6, 4)), 512) == "
        "{1: 2, 2: 2, 3: 1, 4: 1, 6: 1}\n"
        "assert poly_exact_div((2, 4), (1, 2)) == (2,)\n"
        "assert 'sympy' not in sys.modules, 'the series layer imported sympy'\n"
    )


def test_analyze_imports_neither_sympy_nor_numpy_unless_used():
    # importing the CLI loads neither; an SL2 request never needs numpy, and
    # a torus request (n = 4, l = 2: Hermite, LLL and the cone route) no sympy
    run_fresh(
        "import sys\n"
        "import sympquot.cli\n"
        "assert 'sympy' not in sys.modules, 'import sympquot.cli loaded sympy'\n"
        "assert 'numpy' not in sys.modules, 'import sympquot.cli loaded numpy'\n"
        "from sympquot.pipeline import parse_request, run\n"
        "sl2 = run(parse_request({'kind': 'sl2', 'irreps': [3]}))\n"
        "assert 'series' in sl2.body['quotient']\n"
        "assert 'numpy' not in sys.modules, 'an SL2 request loaded numpy'\n"
        "torus = run(parse_request({'kind': 'torus', "
        "'weights': [[1, 1, -1, -1], [1, -1, 2, -2]]}))\n"
        "assert torus.body['quotient']['denominator_exponents'] == [4, 6, 6, 8]\n"
        "assert 'sympy' not in sys.modules, 'a torus request loaded sympy'\n"
    )
