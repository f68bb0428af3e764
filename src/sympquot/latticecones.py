"""Exact rational form for the 1-norm generating function of a lattice.

Given a saturated basis B (k rows, n columns) of a sublattice L of Z^n that
contains a strictly positive vector, computes

    G(t) = sum over m in L of t^(|m|_1)

exactly, as an integer numerator over a product of factors (1 - t^e).  No
truncation or recurrence guessing is involved, so the result is reliable
even when the reduced denominator has very large degree.

Method.  Z^n is the disjoint union over sign patterns eps in {0,1}^n of

    T_eps = {m : m_j >= 1 where eps_j = 1,  m_j <= 0 where eps_j = 0},

and |m|_1 is linear on each piece.  Pulled back to x in Z^k (m = x.B) each
piece is the set of lattice points of a *half-open* pointed cone with apex
at the origin, because m_j >= 1 and m_j > 0 agree on integers.  Every
closed piece cone is triangulated (pulling triangulation, so shared faces
agree), and a single reference point y with y.B < 0 -- it exists exactly
when L contains a strictly positive vector -- turns the triangulations
into a disjoint cover in which each piece's own open/closed facet pattern
comes out right with no lower-dimensional correction terms: a facet of a
simplicial cone is kept iff y lies strictly on its inner side, ties on
interior walls broken by an exact lexicographic perturbation of y.  A
piece whose cone is lower-dimensional is empty outright (positivity forces
one of its strict constraints to vanish identically).  Each half-open
simplicial cone then contributes its fundamental-parallelepiped points
over prod_i (1 - t^lam(v_i)) in the usual Stanley fashion, where lam is
the 1-norm of the image in Z^n.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .errors import CapacityError
from .exactlin import (
    fraction_inverse,
    integer_kernel_basis,
    integer_rank,
    nonnegative_solution,
)
from .series import poly_add, poly_trim

PARALLELEPIPED_LIMIT = 4_000_000
_INT64_SAFE = 1 << 62


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _primitive(vec):
    g = 0
    for v in vec:
        g = math.gcd(g, abs(v))
    return tuple(v // g for v in vec)


def _det(rows):
    """Determinant of a square integer matrix (Bareiss, exact)."""
    n = len(rows)
    m = [[int(v) for v in r] for r in rows]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            piv = next((r for r in range(i + 1, n) if m[r][i]), None)
            if piv is None:
                return 0
            m[i], m[piv] = m[piv], m[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[-1][-1]


def _box_diagonal(V):
    """Diagonal of a triangular row basis of the row lattice of V (square,
    nonsingular); the box prod [0, d_i) then represents Z^k / rowlat(V)."""
    k = len(V)
    m = [[int(v) for v in row] for row in V]
    diag = []
    for col in range(k):
        piv = next(r for r in range(col, k) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        for r in range(col + 1, k):
            while m[r][col]:
                q = m[col][col] // m[r][col]
                m[col] = [a - q * b for a, b in zip(m[col], m[r])]
                m[col], m[r] = m[r], m[col]
        if m[col][col] < 0:
            m[col] = [-a for a in m[col]]
        diag.append(m[col][col])
    return diag


def negative_image_point(basis):
    """A rational y with every coordinate of y.B strictly negative.

    Exists iff the row span of B meets the open positive orthant (take
    -y.B); returns None otherwise.  Found by exact phase-1 simplex on
    y.B <= -1 with y split into nonnegative parts plus slacks.
    """
    k, n = len(basis), len(basis[0])
    rows = []
    for j in range(n):
        col = [int(basis[i][j]) for i in range(k)]
        rows.append(col + [-v for v in col] + [int(i == j) for i in range(n)])
    sol = nonnegative_solution(rows, [-1] * n)
    if sol is None:
        return None
    return tuple(Fraction(sol[i]) - Fraction(sol[k + i]) for i in range(k))


def _extreme_rays(normals, k):
    """Primitive extreme rays of {x in R^k : <u, x> >= 0 for u in normals}.

    The cone must be pointed (normals spanning R^k); rays are found as the
    1-dimensional kernels of rank-(k-1) subsets and kept when the active
    set at the ray has rank exactly k-1.
    """
    normals = sorted(set(map(tuple, normals)))
    rays = set()
    if k == 1:
        for cand in ((1,), (-1,)):
            if all(_dot(u, cand) >= 0 for u in normals):
                rays.add(cand)
        return sorted(rays)
    for subset in combinations(range(len(normals)), k - 1):
        ker = integer_kernel_basis([normals[i] for i in subset], k)
        if len(ker) != 1:
            continue
        r = _primitive(ker[0])
        for cand in (r, tuple(-v for v in r)):
            if all(_dot(u, cand) >= 0 for u in normals):
                active = [u for u in normals if _dot(u, cand) == 0]
                if integer_rank(active) == k - 1:
                    rays.add(cand)
    return sorted(rays)


def _facet_subsets(rays, k):
    """Index sets of the rays lying on each facet of a full-dimensional
    pointed cone; facet normals are the extreme rays of the dual cone."""
    out = set()
    for f in _extreme_rays(rays, k):
        out.add(tuple(i for i, r in enumerate(rays) if _dot(f, r) == 0))
    return sorted(out)


def _tri(idx, vecs, dim):
    """Pulling triangulation; returns tuples of entries of ``idx``.

    The pull vertex at every level is the ray with the smallest global
    index, which keeps the induced triangulations of shared faces equal
    no matter which side they are approached from.
    """
    d = integer_rank(vecs)
    if len(idx) == d:
        return [tuple(sorted(idx))]
    if d < dim:
        ortho = integer_kernel_basis(vecs, dim)
        span = integer_kernel_basis(ortho, dim)
        gram = [[_dot(a, b) for b in span] for a in span]
        ginv = fraction_inverse(gram)
        coords = []
        for r in vecs:
            rhs = [_dot(r, w) for w in span]
            x = [
                sum(Fraction(rhs[s]) * ginv[s][j] for s in range(d))
                for j in range(d)
            ]
            if any(v.denominator != 1 for v in x):
                raise RuntimeError(
                    "a ray has non-integral coordinates in its lattice span; "
                    "please report this input"
                )
            coords.append(tuple(int(v) for v in x))
        return _tri(idx, coords, d)
    pivot = min(range(len(idx)), key=lambda p: idx[p])
    cells = []
    for facet in _facet_subsets(vecs, dim):
        if pivot in facet:
            continue
        sub_idx = [idx[p] for p in facet]
        sub_vecs = [vecs[p] for p in facet]
        cells.extend(
            tuple(sorted((idx[pivot],) + cell))
            for cell in _tri(sub_idx, sub_vecs, dim)
        )
    return cells


def _half_open_flags(V, y):
    """Which facets of the simplicial cone with ray rows V are open.

    Facet i (opposite ray i) has inward normal equal to column i of
    V^-1; it is dropped when the reference point y is strictly on its
    outer side, with ties resolved by perturbing y lexicographically
    along the coordinate directions.
    """
    k = len(V)
    vinv = fraction_inverse(V)
    flags = []
    for i in range(k):
        normal = [vinv[r][i] for r in range(k)]
        s = _dot(normal, y)
        if s == 0:
            s = next(v for v in normal if v != 0)
        flags.append(s < 0)
    return flags


def _cell_series(V, flags, bcols, n):
    """(denominator key, numerator coefficients, point count) for one
    half-open simplicial cone spanned by the rows of V."""
    k = len(V)
    lam_rays = [sum(abs(_dot(v, c)) for c in bcols) for v in V]
    den_key = tuple(sorted(lam_rays))
    det = _det(V)
    if det == 0:
        raise RuntimeError(
            "simplicial cell with linearly dependent rays; please report "
            "this input"
        )
    vinv = fraction_inverse(V)
    adj = [[vinv[i][j] * det for j in range(k)] for i in range(k)]
    if any(e.denominator != 1 for row in adj for e in row):
        raise RuntimeError(
            "adjugate of an integer cell is not integral; please report "
            "this input"
        )
    adj = [[int(e) for e in row] for row in adj]
    if det < 0:
        det = -det
        adj = [[-e for e in row] for row in adj]
    diag = _box_diagonal(V)
    npoints = 1
    for d in diag:
        npoints *= d
    if npoints != det:
        raise RuntimeError(
            f"fundamental domain has {npoints} points, not |det| = {det}; "
            "please report this input"
        )
    bound = sum(lam_rays) + 1
    coeffs = [0] * bound

    max_adj = max(abs(e) for row in adj for e in row)
    max_v = max(abs(v) for row in V for v in row)
    max_b = max((abs(c) for col in bcols for c in col), default=0)
    bound_num = sum((diag[i] - 1) * max_adj for i in range(k)) + 1
    bound_f = bound_num // det + 2
    bound_p = max(diag) + k * bound_f * max_v + 1
    safe = max(bound_num, k * bound_f * max_v, n * bound_p * max_b) < _INT64_SAFE

    if safe and npoints > 64:
        vmat = np.array(V, dtype=np.int64)
        amat = np.array(adj, dtype=np.int64)
        bmat = np.array([list(c) for c in bcols], dtype=np.int64).T  # k x n
        chunk = 1 << 18
        for start in range(0, npoints, chunk):
            idxs = np.arange(start, min(start + chunk, npoints), dtype=np.int64)
            x0 = np.empty((len(idxs), k), dtype=np.int64)
            rem = idxs
            for i in range(k - 1, -1, -1):
                x0[:, i] = rem % diag[i]
                rem = rem // diag[i]
            num = x0 @ amat
            f = num // det
            p = x0 - f @ vmat
            zero = num % det == 0
            for i in range(k):
                if flags[i]:
                    p[zero[:, i]] += vmat[i]
            lam = np.abs(p @ bmat).sum(axis=1)
            hist = np.bincount(lam, minlength=bound)
            for e, c in enumerate(hist):
                if c:
                    coeffs[e] += int(c)
    else:
        for x0 in product(*(range(d) for d in diag)):
            alpha_num = [_dot(x0, [adj[i][j] for i in range(k)]) for j in range(k)]
            p = list(x0)
            for j in range(k):
                fj = alpha_num[j] // det
                if fj:
                    for c in range(k):
                        p[c] -= fj * V[j][c]
                if flags[j] and alpha_num[j] % det == 0:
                    for c in range(k):
                        p[c] += V[j][c]
            lam = sum(abs(_dot(p, col)) for col in bcols)
            coeffs[lam] += 1
    return den_key, coeffs, npoints


def _mul_one_minus_te(poly, e):
    out = list(poly) + [0] * e
    for i, v in enumerate(poly):
        if v:
            out[i + e] -= v
    return out


def _combine(groups):
    """Sum of num/prod(1-t^e) fractions over a common denominator."""
    target = {}
    for den in groups:
        for e, c in Counter(den).items():
            if target.get(e, 0) < c:
                target[e] = c
    total = ()
    for den, num in groups.items():
        poly = list(num)
        have = Counter(den)
        for e, c in sorted(target.items()):
            for _ in range(c - have.get(e, 0)):
                poly = _mul_one_minus_te(poly, e)
        total = poly_add(total, poly)
    den_out = []
    for e, c in sorted(target.items()):
        den_out.extend([e] * c)
    return poly_trim(total), tuple(den_out)


def norm_generating_function(basis, *, point_limit=PARALLELEPIPED_LIMIT):
    """Exact rational form (numerator, denominator exponents) of
    sum_{m in L} t^(|m|_1) for the lattice L spanned by the rows of
    ``basis``.

    The row span must contain a strictly positive vector (ValueError
    otherwise); that is what makes every orthant piece of the lattice a
    genuinely half-open pointed cone with no boundary corrections.
    Raises CapacityError when the total number of fundamental-domain
    points to enumerate exceeds ``point_limit``.
    """
    basis = [tuple(int(v) for v in row) for row in basis]
    if not basis:
        return (1,), ()
    k, n = len(basis), len(basis[0])
    y = negative_image_point(basis)
    if y is None:
        raise ValueError(
            "the lattice has no strictly positive vector; its orthant "
            "pieces are not half-open cones and this routine does not "
            "apply"
        )
    cols = [tuple(basis[i][j] for i in range(k)) for j in range(n)]
    if not all(any(c) for c in cols):
        raise RuntimeError(
            "the lattice basis has a zero column; please report this input"
        )
    groups = {}
    spent = 0
    for eps in product((0, 1), repeat=n):
        normals = [
            col if e else tuple(-v for v in col) for col, e in zip(cols, eps)
        ]
        rays = _extreme_rays(normals, k)
        if not rays or integer_rank(rays) < k:
            # positivity forces some strict constraint of a degenerate
            # piece to vanish identically, so the piece has no points
            if not any(
                e and all(_dot(col, r) == 0 for r in rays)
                for col, e in zip(cols, eps)
            ):
                raise RuntimeError(
                    "degenerate orthant piece with no implicit strict "
                    "constraint; the basis does not span a stable lattice"
                )
            continue
        for cell in _tri(list(range(len(rays))), rays, k):
            V = [rays[i] for i in cell]
            flags = _half_open_flags(V, y)
            den_key, coeffs, npoints = _cell_series(V, flags, cols, n)
            spent += npoints
            if spent > point_limit:
                raise CapacityError(
                    f"cone decomposition needs more than {point_limit} "
                    f"fundamental-domain points"
                )
            if den_key in groups:
                groups[den_key] = poly_add(groups[den_key], coeffs)
            else:
                groups[den_key] = tuple(coeffs)
    return _combine(groups)
