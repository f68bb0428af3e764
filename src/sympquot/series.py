"""Exact power-series and Hilbert-series arithmetic over the integers.

Everything here is integer arithmetic on coefficient lists; no floating
point is used anywhere, and no computer-algebra system is imported:
division, reduction to lowest terms and cyclotomic factoring are done by
exact integer long division.  Polynomials are tuples of ints indexed by
degree.  A Hilbert series is stored as an integer numerator polynomial
over a denominator that is a multiset of exponents e, one per factor
(1 - t^e).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import ReconstructionError

# ---------------------------------------------------------------------------
# integer polynomial helpers (tuples indexed by degree)


def poly_trim(p):
    """Drop trailing zero coefficients; the zero polynomial becomes ()."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_add(p, q):
    n = max(len(p), len(q))
    return poly_trim(
        [(p[k] if k < len(p) else 0) + (q[k] if k < len(q) else 0) for k in range(n)]
    )


def poly_mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_mul_truncated(p, q, bound):
    """Product of p and q with all terms of degree > bound discarded."""
    out = [0] * (bound + 1)
    for i, a in enumerate(p):
        if a == 0 or i > bound:
            continue
        for j, b in enumerate(q):
            if i + j > bound:
                break
            out[i + j] += a * b
    return out


def poly_eval_one(p):
    return sum(p)


def poly_divide_one_minus_te(p, e):
    """Exact quotient p / (1 - t^e), or None when the division is not exact.

    Uses the recurrence q_k = p_k + q_{k-e}; the division is exact iff the
    recurrence output vanishes on the top e degrees.
    """
    p = poly_trim(p)
    if not p:
        return ()
    d = len(p) - 1
    if d < e:
        return None
    q = [0] * (d + 1)
    for k in range(d + 1):
        q[k] = p[k] + (q[k - e] if k >= e else 0)
    if any(q[k] != 0 for k in range(d - e + 1, d + 1)):
        return None
    return poly_trim(q[: d - e + 1])


def vanishing_order_at_one(p):
    """Multiplicity of t = 1 as a root of the integer polynomial p."""
    p = poly_trim(p)
    if not p:
        raise ValueError("zero polynomial has no well-defined vanishing order")
    order = 0
    while poly_eval_one(p) == 0:
        p = poly_divide_one_minus_te(p, 1)
        order += 1
    return order


def one_minus_te_product(exponents):
    """Expanded integer polynomial for the product of (1 - t^e), e >= 1,
    multiplying in one factor at a time in place."""
    out = [1]
    for e in exponents:
        if e < 1:
            raise ValueError("exponents of (1 - t^e) factors must be >= 1")
        out.extend([0] * e)
        for k in range(len(out) - 1, e - 1, -1):
            out[k] -= out[k - e]
    return tuple(out)


def binomial_poly_one_minus_t2(ell):
    """(1 - t^2)^ell expanded, via the binomial theorem."""
    return one_minus_te_product([2] * ell)


def render_poly(p, var="t"):
    """Human-readable form of an integer polynomial, e.g. 1 + 4t^2 - t^3."""
    p = poly_trim(p)
    if not p:
        return "0"
    parts = []
    for k, c in enumerate(p):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            term = str(mag)
        else:
            tk = var if k == 1 else f"{var}^{k}"
            term = tk if mag == 1 else f"{mag}*{tk}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series known exactly up to and including degree ``bound``.

    coeffs[k] is the coefficient of t^k; len(coeffs) == bound + 1.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the degree-0 term")

    @property
    def bound(self):
        return len(self.coeffs) - 1

    def coeff(self, k):
        if not 0 <= k <= self.bound:
            raise IndexError(f"coefficient {k} outside known range 0..{self.bound}")
        return self.coeffs[k]

    def mul_poly(self, p):
        """Multiply by an integer polynomial, truncating at the same bound."""
        return TruncatedSeries(tuple(poly_mul_truncated(self.coeffs, p, self.bound)))

    def geometric_mul(self, e):
        """Multiply by 1/(1 - t^e) (prefix-sum with stride e)."""
        c = list(self.coeffs)
        for k in range(e, len(c)):
            c[k] += c[k - e]
        return TruncatedSeries(tuple(c))

    def truncate(self, bound):
        if bound > self.bound:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: bound + 1])

    def __str__(self):
        return f"{render_poly(self.coeffs)} + O(t^{self.bound + 1})"


@dataclass(frozen=True)
class HilbertSeries:
    """numerator(t) / prod_{e in denominator} (1 - t^e), exactly.

    The representation is kept as constructed (no silent cancellation), so a
    series built as (1-t^2)^3/(1-t)^10 prints that way; ``canonical()``
    returns the equivalent representation with every possible (1 - t^e)
    factor cancelled, which is what the numeric invariants are read from.
    """

    numerator: tuple[int, ...]
    denominator: tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "numerator", poly_trim(self.numerator))
        den = tuple(sorted(int(e) for e in self.denominator))
        if any(e < 1 for e in den):
            raise ValueError("denominator exponents must be positive integers")
        object.__setattr__(self, "denominator", den)

    # -- structure ---------------------------------------------------------

    def canonical(self):
        """Cancel (1 - t^e) factors shared with the numerator, greedily.

        Iterates over denominator elements in sorted order and restarts after
        any successful division, so the result does not depend on the input
        representation.
        """
        num = self.numerator
        den = list(self.denominator)
        changed = True
        while changed and num:
            changed = False
            for i, e in enumerate(den):
                q = poly_divide_one_minus_te(num, e)
                if q is not None:
                    num = q
                    del den[i]
                    changed = True
                    break
        return HilbertSeries(num, tuple(den))

    @property
    def dimension(self):
        """Order of the pole at t = 1 (Krull dimension for genuine series)."""
        if not self.numerator:
            raise ValueError("the zero series has no dimension")
        c = self.canonical()
        return len(c.denominator) - vanishing_order_at_one(c.numerator)

    @property
    def a_invariant(self):
        """Degree at infinity: deg(numerator) - sum(denominator exponents).

        Independent of the representation, since multiplying numerator and
        denominator by (1 - t^e) shifts both terms by e.
        """
        if not self.numerator:
            raise ValueError("the zero series has no a-invariant")
        return len(self.numerator) - 1 - sum(self.denominator)

    # -- arithmetic --------------------------------------------------------

    def expand(self, bound):
        """Truncated power-series expansion up to degree ``bound``."""
        if bound < 0:
            raise ValueError("expansion bound must be >= 0")
        c = [0] * (bound + 1)
        for k, a in enumerate(self.numerator[: bound + 1]):
            c[k] = a
        for e in self.denominator:
            for k in range(e, bound + 1):
                c[k] += c[k - e]
        return TruncatedSeries(tuple(c))

    def equals(self, other):
        """Equality as rational functions (cross-multiplication)."""
        left = poly_mul(self.numerator, one_minus_te_product(other.denominator))
        right = poly_mul(other.numerator, one_minus_te_product(self.denominator))
        return left == right

    def value_at(self, t):
        """Exact evaluation at a rational point away from poles."""
        t = Fraction(t)
        num = sum(c * t**k for k, c in enumerate(self.numerator))
        den = Fraction(1)
        for e in self.denominator:
            den *= 1 - t**e
        return Fraction(num, den)

    def __str__(self):
        num = render_poly(self.numerator)
        if not self.denominator:
            return num
        factors = []
        for e, m in sorted(Counter(self.denominator).items()):
            base = "(1-t)" if e == 1 else f"(1-t^{e})"
            factors.append(base if m == 1 else f"{base}^{m}")
        return f"({num}) / {' '.join(factors)}"


def expand(series, bound):
    """Module-level alias for HilbertSeries.expand."""
    return series.expand(bound)


def reconstruct(series, denominator, guard=4):
    """Recover a closed form from a truncated expansion.

    The product of the truncation with prod (1 - t^e) must vanish in the
    guard window, degrees bound - guard + 1 .. bound; then its prefix up to
    bound - guard is the numerator, otherwise the candidate denominator is
    rejected.  Only the guard window's coefficients are computed to decide,
    and the numerator only for an accepted candidate, since a search
    rejects almost every candidate it tries.

    Args:
        series: TruncatedSeries with series.bound >= sum(denominator) + guard.
        denominator: iterable of exponents e, one per (1 - t^e) factor.
        guard: number of trailing degrees that must vanish (>= 1).

    Returns:
        HilbertSeries with exactly the given denominator.

    Raises:
        ValueError: guard < 1 or the truncation is too short to test.
        ReconstructionError: the guard window did not vanish.
    """
    den = tuple(sorted(int(e) for e in denominator))
    if guard < 1:
        raise ValueError("guard must be at least 1")
    if series.bound < sum(den) + guard:
        raise ValueError(
            f"truncation bound {series.bound} too small for denominator degree "
            f"{sum(den)} with guard {guard}"
        )
    coeffs = series.coeffs
    den_poly = one_minus_te_product(den)
    terms = [(j, c) for j, c in enumerate(den_poly) if c]
    cutoff = series.bound - guard
    for k in range(cutoff + 1, series.bound + 1):
        if sum(c * coeffs[k - j] for j, c in terms):
            raise ReconstructionError(
                f"denominator {den} does not reproduce the truncated series",
                truncation=series,
                tried=[den],
            )
    return HilbertSeries(poly_trim(poly_mul_truncated(coeffs, den_poly, cutoff)), den)


def reconstruct_search(series, candidates, guard, expected_dimension):
    """First candidate denominator that reconstructs with the right pole
    order at t = 1.  Returns (HilbertSeries, candidate); raises
    ReconstructionError carrying the truncation when every candidate fails.
    """
    tried = []
    dim_rejected = 0
    for cand in candidates:
        cand = tuple(sorted(cand))
        tried.append(cand)
        try:
            closed = reconstruct(series, cand, guard=guard)
        except ReconstructionError:
            continue
        if closed.dimension != expected_dimension:
            dim_rejected += 1  # spurious fit: wrong pole order at t = 1
            continue
        return closed, cand
    detail = (
        f" ({dim_rejected} reconstructed but with pole order != "
        f"{expected_dimension} at t=1)"
        if dim_rejected
        else ""
    )
    raise ReconstructionError(
        f"no candidate denominator (of {len(tried)}) reproduced the "
        f"degree-{series.bound} truncation with guard {guard}{detail}; "
        f"increase the degree bound or supply denominators",
        truncation=series,
        tried=tried,
    )

# ---------------------------------------------------------------------------
# exact rational reconstruction (minimal linear recurrence)


def _exact_quotient(num, den):
    """num / den for trimmed, nonzero integer polynomials, by long division
    over the integers; None as soon as a quotient coefficient is not an
    integer or when the remainder is nonzero.  Each quotient coefficient
    is stored in the slot of the numerator term it cancels."""
    k = len(den) - 1
    if len(num) <= k:
        return None
    lead = den[-1]
    lower = [(j, d) for j, d in enumerate(den[:k]) if d]
    rem = list(num)
    for i in range(len(num) - 1, k - 1, -1):
        c, r = divmod(rem[i], lead)
        if r:
            return None
        if c:
            rem[i] = c
            base = i - k
            for j, d in lower:
                rem[base + j] -= c * d
    if any(rem[:k]):
        return None
    return tuple(rem[k:])


def poly_exact_div(num, den):
    """Exact quotient of integer polynomials, or None if not divisible.

    The quotient over the rationals is computed top-down, so it is
    integral exactly when every step divides by den's leading coefficient
    without remainder; the first step that does not answers None.
    """
    num, den = poly_trim(num), poly_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if not num:
        return ()
    return _exact_quotient(num, den)


def minimal_rational_form(coeffs, *, stability=8):
    """Smallest rational function num/den matching a truncated expansion.

    Runs the extended Euclidean algorithm on (t^(D+1), sum coeffs[k] t^k);
    every convergent matches all D+1 coefficients, and the one of smallest
    total degree is the minimal linear recurrence the data supports.  It is
    only returned when the data exceed its degrees by at least
    ``stability`` coefficients (so the recurrence is overdetermined, not an
    artifact of short data), den(0) == 1 and both polynomials are integral;
    otherwise None, meaning: extend the series.

    Fraction-free: each step pseudo-divides, multiplying the dividend by
    lead^(delta+1) (lead the divisor's leading coefficient, delta the
    degree gap) so the quotient is integral, and then divides the new pair
    (remainder, cofactor) by the gcd of all its coefficients.  Every pair
    is a nonzero multiple of the convergent over the rationals, which
    leaves the degrees, the test v(0) != 0 and the quotient by v(0)
    unchanged.
    """
    bound = len(coeffs) - 1
    b = [int(c) for c in coeffs]
    while b and not b[-1]:
        b.pop()
    if not b:
        return (), (1,)
    r_prev, v_prev = [0] * (bound + 1) + [1], [0]
    r_cur, v_cur = b, [1]
    best = None
    while r_cur:
        total = (len(r_cur) - 1) + (len(v_cur) - 1)
        if v_cur[0] and total + stability <= bound:
            if best is None or total < best[0]:
                best = (total, r_cur, v_cur)
        # one pseudo-division step: lead^(delta+1) r_prev = q r_cur + rem
        lead = r_cur[-1]
        deg = len(r_cur) - 1
        lower = [(j, d) for j, d in enumerate(r_cur[:deg]) if d]
        q = [0] * (len(r_prev) - deg)
        rem = list(r_prev)
        for k in range(len(q) - 1, -1, -1):
            c = rem[k + deg]
            rem = [lead * a for a in rem[: k + deg]]
            q = [lead * a for a in q]
            if c:
                q[k] = c
                for j, d in lower:
                    rem[k + j] -= c * d
        while rem and not rem[-1]:
            rem.pop()
        scale = lead ** len(q)
        v_next = [scale * a for a in v_prev] + [0] * max(
            0, len(q) + len(v_cur) - 1 - len(v_prev)
        )
        for i, qc in enumerate(q):
            if qc:
                for j, vc in enumerate(v_cur):
                    v_next[i + j] -= qc * vc
        while len(v_next) > 1 and not v_next[-1]:
            v_next.pop()
        if rem:
            g = math.gcd(*rem, *v_next)
            rem = [a // g for a in rem]
            v_next = [a // g for a in v_next]
        r_prev, v_prev = r_cur, v_cur
        r_cur, v_cur = rem, v_next
    if best is None:
        return None
    _, num, den = best
    scale = den[0]
    if any(c % scale for c in num + den):
        return None
    num = tuple(c // scale for c in num)
    den = tuple(c // scale for c in den)
    # replay the recurrence as a final integrity check
    check = []
    for k in range(bound + 1):
        acc = num[k] if k < len(num) else 0
        acc -= sum(den[j] * check[k - j] for j in range(1, min(k, len(den) - 1) + 1))
        check.append(acc)
    if check != [int(c) for c in coeffs]:
        return None
    return num, den


@lru_cache(maxsize=None)
def _totient(m):
    """Euler's phi(m), the degree of the m-th cyclotomic polynomial."""
    out, rest, p = m, m, 2
    while p * p <= rest:
        if rest % p == 0:
            out -= out // p
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        out -= out // rest
    return out


@lru_cache(maxsize=None)
def _cyclotomic(m):
    """The m-th cyclotomic polynomial Phi_m, from t^m - 1 = prod_{d | m} Phi_d.

    Every Phi_d is monic, so the proper divisors are divided out of
    t^m - 1 exactly, over the integers.
    """
    p = (-1,) + (0,) * (m - 1) + (1,)
    for d in range(1, m):
        if m % d == 0:
            p = _exact_quotient(p, _cyclotomic(d))
    return p


def reduced_fraction(num, exponents):
    """Cancel num / prod_e (1 - t^e) to lowest terms over the integers.

    Returns (numerator, denominator) coefficient tuples with the
    denominator normalized to constant term +1.

    Since 1 - t^e = -(t^e - 1) = -prod_{m | e} Phi_m, the only irreducible
    factors the denominator can share with num are the cyclotomic
    polynomials Phi_m with m dividing some exponent, and Phi_m occurs in
    it exactly #{e : m | e} times.  So num is divided by each such Phi_m
    at most that many times (exact monic division), and the reduced
    denominator is the product of the factors left over.  Signs:
    prod (1 - t^e) = (-1)^len(exponents) prod Phi_m puts that sign on the
    numerator; and of all the Phi_m only Phi_1 = t - 1 has constant term
    -1, so when an odd number of Phi_1 are left over, the leftover product
    and the numerator are both negated.
    """
    num, den, _ = _cyclotomic_reduction(num, exponents)
    return num, den


def _cyclotomic_reduction(num, exponents):
    """reduced_fraction(num, exponents) together with the leftover
    multiplicities {m: times Phi_m divides the reduced denominator}, in
    increasing m: what cyclotomic_multiplicities would find in it."""
    num = poly_trim(num)
    if not num:
        return (), (1,), {}
    exponents = [int(e) for e in exponents]
    order = Counter(m for e in exponents for m in range(1, e + 1) if e % m == 0)
    sign = -1 if len(exponents) % 2 else 1
    den = (1,)
    mult = {}
    for m in sorted(order):
        phi = _cyclotomic(m)
        left = order[m]
        while left:
            q = _exact_quotient(num, phi)
            if q is None:
                break
            num, left = q, left - 1
        if left:
            mult[m] = left
        for _ in range(left):
            den = poly_mul(den, phi)
    if den[0] < 0:
        sign = -sign
        den = tuple(-c for c in den)
    return tuple(sign * c for c in num), den, mult


def cyclotomic_multiplicities(delta, index_cap=512):
    """Multiset of cyclotomic factors of an integer polynomial.

    Returns {m: multiplicity of the m-th cyclotomic polynomial} when delta
    factors completely into cyclotomics (up to sign), None otherwise.
    Denominators of Hilbert series always do; the None branch catches a
    reconstruction that produced something else.  Phi_m is tried for
    m = 1 .. index_cap, skipping those of degree phi(m) above what is left
    to factor.  A denominator that divides prod (1 - t^e) can only contain
    Phi_m with m | e (see reduced_fraction), so index_cap = max(e) misses
    nothing there.
    """
    rem = poly_trim(delta)
    if not rem:
        raise ValueError("zero polynomial")
    mult = {}
    for m in range(1, index_cap + 1):
        if len(rem) == 1:
            break
        if _totient(m) > len(rem) - 1:
            continue
        phi = _cyclotomic(m)
        count = 0
        while (q := _exact_quotient(rem, phi)) is not None:
            rem, count = q, count + 1
        if count:
            mult[m] = count
    if len(rem) > 1 or abs(rem[0]) != 1:
        return None
    return mult


def staircase_exponents(mult):
    """Denominator exponents (1 - t^e) covering cyclotomic multiplicities.

    The i-th exponent is lcm{m : mult[m] > i}, giving exactly
    mult[1] factors; each cyclotomic then divides at least as often as
    required, so prod (1 - t^e) is a polynomial multiple of the input
    denominator.  Requires mult[m] <= mult[1] (true for the Hilbert series
    of a graded algebra, where the pole order at any root of unity is at
    most the pole order at t = 1).
    """
    d = mult.get(1, 0)
    if any(s > d for s in mult.values()):
        raise ValueError("pole order at a root of unity exceeds the order at 1")
    exps = []
    for i in range(d):
        exps.append(math.lcm(*[m for m, s in mult.items() if s > i]))
    return tuple(sorted(exps))
