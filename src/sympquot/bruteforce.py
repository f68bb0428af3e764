"""Slow, independent reference computations used to cross-check the fast
paths in tests.  Everything here enumerates explicitly and is only meant
for small n / low degree."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .laurent import LaurentCharacter
from .torus import WeightMatrix


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _weight_of(A: WeightMatrix, u, v):
    cols = A.columns
    ell = A.torus_rank
    return tuple(
        sum(cols[j][r] * (u[j] - v[j]) for j in range(A.module_dim))
        for r in range(ell)
    )


def invariant_monomial_counts(A: WeightMatrix, D):
    """Number of invariant monomials z^u w^v per degree, by enumerating
    every monomial of C[V + V*] up to degree D."""
    n = A.module_dim
    counts = []
    for d in range(D + 1):
        c = 0
        for mono in _compositions(d, 2 * n):
            if all(x == 0 for x in _weight_of(A, mono[:n], mono[n:])):
                c += 1
        counts.append(c)
    return counts


def minimal_generator_monomials_brute(A: WeightMatrix, D):
    """Invariant monomials (u, v) of degree 1..D not divisible by a smaller
    nonconstant invariant monomial.  (A divisor of an invariant monomial
    has invariant cofactor automatically.)"""
    n = A.module_dim
    by_degree = [[] for _ in range(D + 1)]
    for d in range(1, D + 1):
        for mono in _compositions(d, 2 * n):
            if all(x == 0 for x in _weight_of(A, mono[:n], mono[n:])):
                by_degree[d].append(mono)
    gens = []
    for d in range(1, D + 1):
        for mono in by_degree[d]:
            divisible = any(
                all(a >= b for a, b in zip(mono, small))
                for dd in range(1, d)
                for small in by_degree[dd]
            )
            if not divisible:
                gens.append((mono[:n], mono[n:]))
    return sorted(gens, key=lambda g: (sum(g[0]) + sum(g[1]), g[0], g[1]))


def _solve_cone_member(cols, target):
    """Coefficients x with sum x_i cols[i] = target, when cols are linearly
    independent; None if dependent or inconsistent."""
    k = len(cols)
    rows = len(target)
    if k == 0:
        return [] if all(x == 0 for x in target) else None
    M = [
        [Fraction(cols[i][r]) for i in range(k)] + [Fraction(target[r])]
        for r in range(rows)
    ]
    pivot_row = {}
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, rows) if M[i][c] != 0), None)
        if pr is None:
            return None
        M[r], M[pr] = M[pr], M[r]
        pv = M[r][c]
        M[r] = [x / pv for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivot_row[c] = r
        r += 1
    for i in range(r, rows):
        if M[i][k] != 0:
            return None
    return [M[pivot_row[c]][k] for c in range(k)]


def lineal_columns_brute(A: WeightMatrix):
    """Columns j admitting c >= 0 with Ac = 0 and c_j = 1, decided by
    Caratheodory: -a_j must be a nonnegative combination of some linearly
    independent subset of columns."""
    cols = A.columns
    n = A.module_dim
    ell = A.torus_rank
    out = []
    for j in range(n):
        if all(x == 0 for x in cols[j]):
            out.append(j)
            continue
        target = tuple(-x for x in cols[j])
        found = False
        for size in range(1, min(ell, n) + 1):
            for S in combinations(range(n), size):
                x = _solve_cone_member([cols[i] for i in S], target)
                if x is not None and all(xi >= 0 for xi in x):
                    found = True
                    break
            if found:
                break
        if found:
            out.append(j)
    return tuple(out)


def rank_oracle(rows):
    """Rank over Q via sympy, as an independent check on the hand-rolled
    elimination.  Only tests call it, so sympy is a test dependency (the
    ``test`` extra), not a dependency of the package."""
    from sympy import Matrix

    if not rows or not rows[0]:
        return 0
    return Matrix([list(r) for r in rows]).rank()


def sl2_sym_character_brute(irreps, d) -> LaurentCharacter:
    """Weight character of Sym^d(V + V*) by listing degree-d monomial
    multisets in weighted variables (independent of Newton's identities)."""
    weights = []
    for dd in irreps:
        weights.extend(range(dd, -dd - 2, -2))
    weights = weights * 2  # V* of a self-dual module: same weight multiset
    char = Counter()
    for combo in combinations_with_replacement(range(len(weights)), d):
        char[sum(weights[i] for i in combo)] += 1
    return LaurentCharacter(char)
