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
the 1-norm of the image in Z^n.  The 1-norm is linear on a cell, so a
parallelepiped point sum_i c_i v_i has norm sum_i c_i lam(v_i), read off
its coordinates with no image vector formed.

Mirrored pairs.  L = -L, so the closed cone of the piece 1 - eps is the
negative of that of eps, and the negated triangulation serves for it.
Seen from y, a cell -V has the flags that V has seen from -y (the
lexicographic perturbation negated along with y): the complement, not f,
of V's own flags f.  The norm is even, and p -> sum_i v_i - p
(c_i -> 1 - c_i) maps the parallelepiped of V with flags f onto the one
with flags not f, taking the norm d to sum_i lam(v_i) - d.  That is the
simplicial case of Stanley's reciprocity for half-open cones (Stanley
1974; Koeppe-Verdoolaege 2008).  So only the pieces with eps_0 = 1 are
triangulated and walked, and each cell's numerator is added together
with its own coefficient reversal.

Exact integers throughout.  The extreme rays of each piece cone and the
facets of each cone being triangulated (the extreme rays of its dual) come
from the double description method, which adds the inequalities one at a
time and joins adjacent rays across each new hyperplane.  Each simplicial
cell gets one fraction-free adjugate adj(V) = det(V) V^-1: its columns are
the facet normals that decide the half-open pattern, its entries give the
fundamental-parallelepiped coordinates of a point, and |det V| is the
cell's point count, checked against the cap before any point is walked.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import product

from .errors import CapacityError
from .exactlin import (
    integer_adjugate,
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
    if g == 0:
        raise RuntimeError(
            "the double description produced a zero ray; please report "
            "this input"
        )
    return tuple(v // g for v in vec)


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


def _independent_rows(rows, k):
    """Indices of the first k linearly independent rows, taken greedily
    in order, or None when the rows do not span Q^k."""
    echelon = []  # (pivot column, reduced row)
    chosen = []
    for i, row in enumerate(rows):
        v = list(row)
        for col, er in echelon:
            c = v[col]
            if c:
                p = er[col]
                v = [p * a - c * b for a, b in zip(v, er)]
        col = next((j for j, a in enumerate(v) if a), None)
        if col is None:
            continue
        echelon.append((col, _primitive(v)))
        chosen.append(i)
        if len(chosen) == k:
            return chosen
    return None


def _extreme_rays(normals, k):
    """Primitive extreme rays of {x in R^k : <u, x> >= 0 for u in normals}.

    The cone must be pointed (normals spanning R^k); it may be
    lower-dimensional, or {0}, which has no rays.  Double description
    (Motzkin et al. 1953; Fukuda-Prodon 1996) in exact integers: the
    cone of k independent normals has the columns of their adjugate
    (times the sign of the determinant) as rays, and each further normal
    u keeps the rays with <u, r> >= 0 and adds, for every pair of a
    positive ray p and a negative ray q that are adjacent, the primitive
    ray <u, p> q - <u, q> p on the hyperplane <u, x> = 0.  Adjacency is
    the combinatorial test on zero sets: no third ray vanishes on every
    normal that both p and q vanish on.  Primitive extreme rays of a
    pointed cone are unique, so the sorted list is that of any other
    exact method.
    """
    normals = sorted({tuple(int(v) for v in u) for u in normals if any(u)})
    start = _independent_rows(normals, k)
    if start is None:
        raise RuntimeError(
            f"the normals do not span Q^{k}, so the cone is not pointed; "
            "please report this input"
        )
    adj, det = integer_adjugate([normals[i] for i in start])
    sign = 1 if det > 0 else -1
    every = 0
    for i in start:
        every |= 1 << i
    # rays as (primitive vector, bitmask of the added normals it lies on)
    rays = [
        (_primitive([sign * adj[r][j] for r in range(k)]), every & ~(1 << i))
        for j, i in enumerate(start)
    ]
    chosen = set(start)
    for t, u in enumerate(normals):
        if t in chosen or not rays:
            continue
        bit = 1 << t
        values = [_dot(u, ray) for ray, _ in rays]
        pos = [i for i, s in enumerate(values) if s > 0]
        neg = [i for i, s in enumerate(values) if s < 0]
        kept = [
            (ray, zeros | bit if s == 0 else zeros)
            for (ray, zeros), s in zip(rays, values)
            if s >= 0
        ]
        for i in pos:
            p, zp = rays[i]
            for j in neg:
                q, zq = rays[j]
                common = zp & zq
                if common.bit_count() < k - 2 or any(
                    common & ~z == 0 and r != i and r != j
                    for r, (_, z) in enumerate(rays)
                ):
                    continue
                sp, sq = values[i], values[j]
                ray = _primitive([sp * b - sq * a for a, b in zip(p, q)])
                kept.append((ray, common | bit))
        rays = kept
    return sorted(ray for ray, _ in rays)


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
        gadj, gdet = integer_adjugate(gram)
        coords = []
        for r in vecs:
            rhs = [_dot(r, w) for w in span]
            x = [sum(rhs[s] * gadj[s][j] for s in range(d)) for j in range(d)]
            if any(v % gdet for v in x):
                raise RuntimeError(
                    "a ray has non-integral coordinates in its lattice span; "
                    "please report this input"
                )
            coords.append(tuple(v // gdet for v in x))
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


def _cell_adjugate(V):
    """(adj, |det|) of the ray rows V of a simplicial cell, with the
    adjugate's sign flipped along with det's, so adj = |det| * V^-1."""
    adj, det = integer_adjugate(V)
    if det == 0:
        raise RuntimeError(
            "simplicial cell with linearly dependent rays; please report "
            "this input"
        )
    if det < 0:
        return [[-e for e in row] for row in adj], -det
    return adj, det


def _half_open_flags(adj, y):
    """Which facets of the simplicial cone with ray rows V are open.

    Facet i (opposite ray i) has inward normal equal to column i of
    V^-1, a positive multiple of column i of ``adj`` (from
    _cell_adjugate); it is dropped when the reference point y (up to a
    positive scale) is strictly on its outer side, with ties resolved by
    perturbing y lexicographically along the coordinate directions.
    """
    k = len(adj)
    flags = []
    for i in range(k):
        normal = [adj[r][i] for r in range(k)]
        s = _dot(normal, y)
        if s == 0:
            s = next(v for v in normal if v != 0)
        flags.append(s < 0)
    return flags


def _cell_series(V, flags, bcols, n, adjugate=None):
    """(denominator key, numerator coefficients) for one half-open
    simplicial cone spanned by the rows of V, the 1-norm taken over the
    columns ``bcols`` (``n`` of them); ``adjugate`` is
    ``_cell_adjugate(V)`` when the caller already has it.

    The parallelepiped point of box vector x0 is sum_j (r_j / det) V_j
    with r_j = (x0 . adj column j) mod det, or det where facet j is open
    and that residue is 0; the 1-norm is linear on the cell, so the
    point's norm is sum_j r_j lam_j / det, lam_j the norm of ray j.
    """
    k = len(V)
    lam_rays = [sum(abs(_dot(v, c)) for c in bcols) for v in V]
    den_key = tuple(sorted(lam_rays))
    adj, det = _cell_adjugate(V) if adjugate is None else adjugate
    diag = _box_diagonal(V)
    npoints = 1
    for d in diag:
        npoints *= d
    if npoints != det:
        raise RuntimeError(
            f"fundamental domain has {npoints} points, not |det| = {det}; "
            "please report this input"
        )
    total = sum(lam_rays)
    coeffs = [0] * (total + 1)

    max_adj = max(abs(e) for row in adj for e in row)
    bound_num = sum((diag[i] - 1) * max_adj for i in range(k)) + 1
    safe = max(bound_num, det * total) < _INT64_SAFE
    open_facets = [j for j in range(k) if flags[j]]

    if safe and npoints > 64:
        import numpy as np

        amat = np.array(adj, dtype=np.int64)
        lam = np.array(lam_rays, dtype=np.int64)
        chunk = 1 << 18
        for start in range(0, npoints, chunk):
            idxs = np.arange(start, min(start + chunk, npoints), dtype=np.int64)
            x0 = np.empty((len(idxs), k), dtype=np.int64)
            rem = idxs
            for i in range(k - 1, -1, -1):
                x0[:, i] = rem % diag[i]
                rem = rem // diag[i]
            r = (x0 @ amat) % det
            for j in open_facets:
                r[r[:, j] == 0, j] = det
            norm, off = np.divmod(r @ lam, det)
            if off.any():
                raise RuntimeError(
                    "a parallelepiped point has a non-integral 1-norm; "
                    "please report this input"
                )
            hist = np.bincount(norm, minlength=total + 1)
            for e, c in enumerate(hist):
                if c:
                    coeffs[e] += int(c)
    else:
        adj_cols = list(zip(*adj))
        for x0 in product(*(range(d) for d in diag)):
            r = [_dot(x0, col) % det for col in adj_cols]
            for j in open_facets:
                if not r[j]:
                    r[j] = det
            norm, off = divmod(_dot(r, lam_rays), det)
            if off:
                raise RuntimeError(
                    "a parallelepiped point has a non-integral 1-norm; "
                    "please report this input"
                )
            coeffs[norm] += 1
    return den_key, coeffs


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
    Raises CapacityError, before enumerating any point, when the number
    of fundamental-domain points walked exceeds ``point_limit``; those are
    the points of the pieces with eps_0 = 1, whose mirrors are never
    walked.
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
    scale = math.lcm(*(v.denominator for v in y))
    y = tuple(int(v * scale) for v in y)
    cols = [tuple(basis[i][j] for i in range(k)) for j in range(n)]
    if not all(any(c) for c in cols):
        raise RuntimeError(
            "the lattice basis has a zero column; please report this input"
        )
    # L = -L, so the piece 1 - eps is the negation of the piece eps with
    # the complementary half-open pattern: only the pieces with eps_0 = 1
    # are triangulated and walked.  Every piece is triangulated first:
    # |det V| is a cell's point count, so the cap on the points walked is
    # checked before any point is enumerated
    cells = []
    spent = 0
    for tail in product((0, 1), repeat=n - 1):
        eps = (1,) + tail
        normals = [
            col if e else tuple(-v for v in col) for col, e in zip(cols, eps)
        ]
        rays = _extreme_rays(normals, k)
        if not rays or integer_rank(rays) < k:
            # positivity forces some strict constraint of a degenerate
            # piece to vanish identically, so the piece has no points; the
            # strict constraints of the mirror piece are those with eps_j = 0
            for strict in (1, 0):
                if not any(
                    e == strict and all(_dot(col, r) == 0 for r in rays)
                    for col, e in zip(cols, eps)
                ):
                    raise RuntimeError(
                        "degenerate orthant piece with no implicit strict "
                        "constraint; the basis does not span a stable lattice"
                    )
            continue
        for cell in _tri(list(range(len(rays))), rays, k):
            V = [rays[i] for i in cell]
            adj, det = _cell_adjugate(V)
            spent += det
            if spent > point_limit:
                raise CapacityError(
                    f"cone decomposition needs more than {point_limit} "
                    f"fundamental-domain points"
                )
            cells.append((V, adj, det))
    groups = {}
    for V, adj, det in cells:
        flags = _half_open_flags(adj, y)
        den_key, coeffs = _cell_series(V, flags, cols, n, (adj, det))
        # the mirror cell -V, whose flags are the complement: p -> sum V_i - p
        # maps its parallelepiped onto this one, and the norm to sum lam - |p|
        coeffs = poly_add(coeffs, coeffs[::-1])
        groups[den_key] = poly_add(groups.get(den_key, ()), coeffs)
    return _combine(groups)
