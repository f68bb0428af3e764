"""Checks of sympquot's reports by computations made apart from the program.

Nothing here imports sympquot.  Every expected value is recomputed from the
request itself with plain integer and rational arithmetic (numpy only for
the support-rank table), so a check cannot agree with a wrong answer by
sharing its code.  Each ``check_*`` function returns a list of problems;
an empty list means the report passed.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

import numpy as np

TORUS_CHECK_DEGREE = 10
SL2_CHECK_DEGREE = 16
# Two points for the exact Stanley check; neither is a root of unity.
STANLEY_POINTS = (Fraction(2, 7), Fraction(5, 3))

# SL2 modules (irreps sorted descending) whose three moment components are
# not a regular sequence (R1, R2), and those that are not 1-large (R1,
# 2R1, R2): the classical lists of Herbig-Schwarz-Seaton.
SL2_NOT_COMPLETE_INTERSECTION = {(1,), (2,)}
SL2_NOT_ONE_LARGE = {(1,), (1, 1), (2,)}

# Published closed forms (numerator, denominator exponents).
SL2_PUBLISHED = {
    (2, 2): ((1, 0, 4, 0, 4, 0, 1), (2, 2, 2, 2, 2, 2)),
    (1, 1, 1): ((1, 0, 9, 0, 9, 0, 1), (2, 2, 2, 2, 2, 2)),
    (2, 1): ((1, 0, 2, 3, 2, 2, 3, 2, 0, 1), (2, 2, 3, 6)),
}


# ---------------------------------------------------------------------------
# polynomials and series


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def one_minus_t_powers(exponents):
    out = [1]
    for e in exponents:
        factor = [0] * (e + 1)
        factor[0], factor[e] = 1, -1
        out = poly_mul(out, factor)
    return out


def expand(numerator, exponents, bound):
    """Coefficients 0..bound of numerator / prod (1 - t^e)."""
    c = [0] * (bound + 1)
    for k, a in enumerate(numerator[: bound + 1]):
        c[k] = a
    for e in exponents:
        for k in range(e, bound + 1):
            c[k] += c[k - e]
    return c


def times_one_minus_t2_power(coeffs, ell):
    c = list(coeffs)
    for _ in range(ell):
        c = [a - (c[k - 2] if k >= 2 else 0) for k, a in enumerate(c)]
    return c


def evaluate(numerator, exponents, t):
    num = sum(Fraction(a) * t**k for k, a in enumerate(numerator))
    den = Fraction(1)
    for e in exponents:
        den *= 1 - t**e
    return num / den


def pole_order_at_one(numerator, exponents):
    """Krull dimension of a series: factors minus zeros of the numerator at 1."""
    p = list(numerator)
    zeros = 0
    while p and sum(p) == 0:
        # divide by (1 - t): the quotient's coefficients are prefix sums
        q, acc = [], 0
        for a in p[:-1]:
            acc += a
            q.append(acc)
        p = q
        zeros += 1
    return len(exponents) - zeros


def stanley_problems(numerator, exponents, d):
    """H(1/t) = (-1)^d t^d H(t), decided exactly at two rational points."""
    out = []
    for t in STANLEY_POINTS:
        lhs = evaluate(numerator, exponents, 1 / t)
        rhs = (-1) ** d * t**d * evaluate(numerator, exponents, t)
        if lhs != rhs:
            out.append(f"H(1/t) != (-1)^{d} t^{d} H(t) at t = {t}")
    return out


def same_rational_function(num1, den1, num2, den2):
    return _trim(poly_mul(num1, one_minus_t_powers(den2))) == _trim(
        poly_mul(num2, one_minus_t_powers(den1))
    )


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


# ---------------------------------------------------------------------------
# torus quotients


def weight_zero_counts(rows, bound):
    """Monomials z^u w^v of C[V + V*] with A(u - v) = 0, counted by degree.

    One variable at a time (z_j has weight a_j, w_j has weight -a_j), with
    layers[d] mapping a partial weight to the number of monomials of degree
    d reaching it.  States that the remaining variables can no longer bring
    back to weight zero are dropped.
    """
    ell, n = len(rows), len(rows[0])
    variables = []
    for j in range(n):
        col = tuple(r[j] for r in rows)
        variables.append(col)
        variables.append(tuple(-a for a in col))
    reach = [[0] * ell for _ in range(len(variables) + 1)]
    for i in range(len(variables) - 1, -1, -1):
        reach[i] = [max(reach[i + 1][r], abs(variables[i][r])) for r in range(ell)]

    layers = [defaultdict(int) for _ in range(bound + 1)]
    layers[0][(0,) * ell] = 1
    for i, c in enumerate(variables):
        # multiplying by 1 / (1 - x): new[d] = old[d] + shift(new[d - 1])
        for d in range(1, bound + 1):
            cur = layers[d]
            for w, v in list(layers[d - 1].items()):
                cur[tuple(a + b for a, b in zip(w, c))] += v
        room = reach[i + 1]
        for d in range(bound + 1):
            left = bound - d
            layers[d] = defaultdict(
                int,
                {
                    w: v
                    for w, v in layers[d].items()
                    if all(abs(w[r]) <= left * room[r] for r in range(ell))
                },
            )
    zero = (0,) * ell
    return [layers[d].get(zero, 0) for d in range(bound + 1)]


def check_torus_quotient(rows, body, bound=TORUS_CHECK_DEGREE):
    """Series and truncation against the weight-zero count times
    (1-t^2)^ell, Stanley's equation, d = 2(n - ell) and the graded
    Gorenstein verdict.

    Valid for stable, faithful modules without zero columns, where the
    moment components are a regular sequence of ell quadrics.
    """
    ell, n = len(rows), len(rows[0])
    q = body.get("quotient", {})
    if "series" not in q:
        return [f"no quotient series in the report: {sorted(q)}"]
    num = q["series"]["numerator"]
    den = q["series"]["denominator_exponents"]
    problems = []
    expected = times_one_minus_t2_power(weight_zero_counts(rows, bound), ell)
    got = expand(num, den, bound)
    if got != expected:
        problems.append(f"series expands to {got}, weight-zero count gives {expected}")
    truncation = q.get("truncation")
    if truncation is None or list(truncation[: bound + 1]) != expected:
        problems.append(f"truncation {truncation and truncation[: bound + 1]} != {expected}")
    d = 2 * (n - ell)
    if pole_order_at_one(num, den) != d:
        problems.append(f"series has dimension {pole_order_at_one(num, den)}, not {d}")
    problems += stanley_problems(num, den, d)
    v = q.get("verdict", {})
    if v.get("dimension") != d:
        problems.append(f"verdict dimension {v.get('dimension')} != {d}")
    if v.get("graded_gorenstein") is not True:
        problems.append("verdict is not graded Gorenstein")
    return problems


# ---------------------------------------------------------------------------
# SL2 quotients


def koszul_truncation(irreps, bound):
    """a - t^2 b + t^4 b - t^6 a from a count of q-weights of monomials.

    C[V + V*] = Sym(V + V), V = sum of R_k with weights k, k-2, ..., -k.
    c_d(w) counts degree-d monomials of q-weight w; the trivial and adjoint
    multiplicities are a_d = c_d(0) - c_d(2) and b_d = c_d(2) - c_d(4).
    """
    weights = [w for k in irreps for w in range(-k, k + 1, 2)] * 2
    top = max(abs(w) for w in weights)
    layers = [defaultdict(int) for _ in range(bound + 1)]
    layers[0][0] = 1
    for w in weights:
        for d in range(1, bound + 1):
            cur = layers[d]
            for x, v in list(layers[d - 1].items()):
                cur[x + w] += v
    for d in range(bound + 1):
        layers[d] = {x: v for x, v in layers[d].items() if abs(x) <= 4 + top * (bound - d)}
    c = [[layers[d].get(x, 0) for x in (0, 2, 4)] for d in range(bound + 1)]
    a = [c0 - c2 for c0, c2, _ in c]
    b = [c2 - c4 for _, c2, c4 in c]

    def at(seq, k):
        return seq[k] if k >= 0 else 0

    return [
        at(a, d) - at(b, d - 2) + at(b, d - 4) - at(a, d - 6) for d in range(bound + 1)
    ]


def check_sl2_quotient(irreps, body, bound=SL2_CHECK_DEGREE):
    """Truncation and series against the Koszul count, the gate, the
    published forms, and the Gorenstein verdict with a = -(2n - 6)."""
    key = tuple(sorted((k for k in irreps if k > 0), reverse=True))
    n = sum(k + 1 for k in key)
    q = body.get("quotient", {})
    if key in SL2_NOT_COMPLETE_INTERSECTION:
        if "unavailable" not in q:
            return [f"{key}: the complete-intersection gate should refuse"]
        return []
    if "unavailable" in q:
        return [f"{key}: refused by the gate: {q['unavailable']}"]
    expected = koszul_truncation(key, bound)
    truncation = q.get("truncation")
    problems = []
    if truncation is None or list(truncation[: bound + 1]) != expected:
        problems.append(f"truncation {truncation and truncation[: bound + 1]} != {expected}")
    if "error" in q:
        return problems
    num = q["series"]["numerator"]
    den = q["series"]["denominator_exponents"]
    got = expand(num, den, bound)
    if got != expected:
        problems.append(f"series expands to {got}, Koszul count gives {expected}")
    if key in SL2_PUBLISHED:
        pnum, pden = SL2_PUBLISHED[key]
        if not same_rational_function(num, den, pnum, pden):
            problems.append(f"series differs from the published form {pnum} / {pden}")
    if key not in SL2_NOT_ONE_LARGE:
        d = 2 * n - 6
        if pole_order_at_one(num, den) != d:
            problems.append(f"series has dimension {pole_order_at_one(num, den)}, not {d}")
        problems += stanley_problems(num, den, d)
        v = q.get("verdict", {})
        if v.get("graded_gorenstein") is not True:
            problems.append("1-large module but the verdict is not graded Gorenstein")
        if v.get("a_invariant") != -d:
            problems.append(f"a-invariant {v.get('a_invariant')} != {-d}")
    return problems


# ---------------------------------------------------------------------------
# largeness


PRIME = 2_147_483_647  # 2^31 - 1; products of two residues fit in int64


def _modinv(x):
    """x^(p-2) mod p elementwise (0 stays 0)."""
    result = np.ones_like(x)
    base = x % PRIME
    e = PRIME - 2
    while e:
        if e & 1:
            result = result * base % PRIME
        base = base * base % PRIME
        e >>= 1
    return result


def support_ranks(rows):
    """rank over Q of A_S for every column-support bitmask S.

    Column j is bit j.  Each mask carries a basis of the left annihilator
    of its columns, reduced mod p: adding column a lowers the rank of the
    annihilator by one exactly when some basis vector y has y.a != 0.
    Ranks mod p equal ranks over Q because every minor of A is an integer
    below p in absolute value (Hadamard's bound, asserted).
    """
    ell, n = len(rows), len(rows[0])
    cols = [[r[j] for r in rows] for j in range(n)]
    if ell == 0:
        return np.zeros(1 << n, dtype=np.int64)
    hadamard = 1.0
    for _ in range(ell):
        hadamard *= max(sum(a * a for a in c) for c in cols) ** 0.5
    if hadamard >= PRIME:
        raise ValueError("entries too large for the mod-p rank table")
    Y = np.eye(ell, dtype=np.int64)[None, :, :]
    rank = np.zeros(1, dtype=np.int64)
    for a in cols:
        c = (Y @ np.array(a, dtype=np.int64)) % PRIME
        nonzero = c != 0
        grows = nonzero.any(axis=1)
        idx = np.arange(len(Y))
        piv = nonzero.argmax(axis=1)
        f = c * _modinv(c[idx, piv])[:, None] % PRIME
        pivot_rows = Y[idx, piv]
        reduced = (Y - f[:, :, None] * pivot_rows[:, None, :] % PRIME) % PRIME
        Y = np.concatenate([Y, np.where(grows[:, None, None], reduced, Y)])
        rank = np.concatenate([rank, rank + grows])
    return rank


def largeness_expectations(rows):
    """(max_k_modular, shell_dim) from the support ranks.

    The isotropy dimension of a support S is ell - rank(A_S), and
    dim V_(r) = max{|S| : ell - rank(A_S) = r}; max_k_modular is the
    largest k with codim V_(r) >= r + k for every r >= 1 (-1 when even
    k = 0 fails).  The shell mu^{-1}(0) has dimension
    n + max{|I| - rank(A_I)} over supports I with no coloop.
    """
    ell, n = len(rows), len(rows[0])
    ranks = support_ranks(rows)
    idx = np.arange(1 << n)
    sizes = np.zeros(1 << n, dtype=np.int64)
    for j in range(n):
        sizes += (idx >> j) & 1
    if ell == 0:
        max_k = n
    else:
        iso = ell - ranks
        max_k = min(
            n - int(sizes[iso == r].max()) - r for r in np.unique(iso) if r >= 1
        )
        max_k = max(max_k, -1)
    no_coloop = np.ones(1 << n, dtype=bool)
    for j in range(n):
        bit = 1 << j
        no_coloop &= ((idx & bit) == 0) | (ranks[idx ^ bit] == ranks)
    shell_dim = n + int((sizes - ranks)[no_coloop].max()) if n else 0
    return max_k, shell_dim


def check_largeness(rows, out):
    max_k, shell_dim = largeness_expectations(rows)
    problems = []
    if out.get("max_k_modular") != max_k:
        problems.append(f"max_k_modular {out.get('max_k_modular')} != {max_k}")
    if out.get("shell_dim") != shell_dim:
        problems.append(f"shell_dim {out.get('shell_dim')} != {shell_dim}")
    return problems


# ---------------------------------------------------------------------------
# CLI


def check_cli_call(code, stdout, expected, other_calls):
    """Exit code 0; stdout equal, byte for byte, to the in-process report and
    to every other call of the same request."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if stdout != expected:
        problems.append("stdout differs from pipeline.run(...).to_json()")
    if any(other != stdout for other in other_calls):
        problems.append("stdout differs between two calls of the same request")
    return problems
