"""Exact linear algebra over the integers and rationals.

Small dense matrices only (weight matrices, moment-map Jacobians), so the
routines favour clarity and exactness over asymptotics: fraction-free
elimination for ranks and for the adjugate, an extended-gcd row ladder for
unimodular reduction, and a Bland's-rule simplex over Fraction for cone
membership.  The lattice normal forms are exact integer ports: the Hermite
normal form by Cohen's Algorithm 2.4.5 (*A Course in Computational
Algebraic Number Theory*), LLL reduction (Lenstra-Lenstra-Lovasz 1982)
with delta = 3/4 over Fraction, and the Smith form's elementary divisors
by a least-pivot diagonalisation.  No computer-algebra system is imported.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd


def integer_rank(rows, limit=None):
    """Rank over Q of an integer matrix (list of rows), fraction-free.

    ``limit`` allows early exit once the rank reaches the given value.
    """
    m = [list(r) for r in rows if any(r)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        pv = pr[col]
        for i in range(rank + 1, len(m)):
            c = m[i][col]
            if c:
                row = [pv * a - c * b for a, b in zip(m[i], pr)]
                g = 0
                for a in row:
                    g = gcd(g, a)
                m[i] = [a // g for a in row] if g > 1 else row
        rank += 1
        if limit is not None and rank >= limit:
            return rank
        if rank == len(m):
            break
    return rank


def fraction_rank(rows):
    """Rank of a matrix with Fraction/int entries.

    A row of ints goes to ``integer_rank`` as it is; a row with a Fraction
    is scaled by the lcm of its denominators first.
    """
    cleared = []
    for r in rows:
        if all(isinstance(x, int) for x in r):
            cleared.append(r)
            continue
        fr = [Fraction(x) for x in r]
        scale = 1
        for x in fr:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        cleared.append([int(x * scale) for x in fr])
    return integer_rank(cleared)


def fraction_inverse(rows):
    """Exact inverse of a small nonsingular matrix, as Fraction rows."""
    k = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
        for i, row in enumerate(rows)
    ]
    for col in range(k):
        piv = next((i for i in range(col, k) if aug[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(k):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[k:] for row in aug]


def integer_adjugate(rows):
    """(adj, det) of a square integer matrix M, with adj*M = M*adj = det*I.

    Fraction-free (Bareiss) Gauss-Jordan elimination on [M | I]: every
    division is exact, the last pivot is det(PM) for the row permutation P
    of the pivoting, the left block ends as det(PM)*I and the right block
    as det(PM)*M^-1, which is the adjugate up to the sign of P.  Returns
    (None, 0) when M is singular.
    """
    k = len(rows)
    aug = [
        [int(v) for v in row] + [int(i == j) for j in range(k)]
        for i, row in enumerate(rows)
    ]
    sign = 1
    prev = 1
    for col in range(k):
        piv = next((i for i in range(col, k) if aug[i][col]), None)
        if piv is None:
            return None, 0
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            sign = -sign
        pr = aug[col]
        pv = pr[col]
        for i in range(k):
            c = aug[i][col]
            if i != col:
                aug[i] = [(pv * a - c * b) // prev for a, b in zip(aug[i], pr)]
        prev = pv
    return [[sign * v for v in row[k:]] for row in aug], sign * prev


def _exgcd(a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def row_reduce_unimodular(rows, width=None):
    """Integer row echelon form with a recorded unimodular transform.

    Returns (U, H, rank) with U unimodular over Z, H = U * A, the pivot
    columns of H strictly increasing, all rows below ``rank`` zero, and
    pivots positive.  Column operations are never used, so the row space
    (and the change of basis) is exact.
    """
    A = [list(r) for r in rows]
    ell = len(A)
    n = len(A[0]) if ell else (width or 0)
    if any(len(r) != n for r in A):
        raise ValueError("ragged matrix")
    U = [[1 if i == j else 0 for j in range(ell)] for i in range(ell)]
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, ell) if A[i][col]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, ell):
            b = A[i][col]
            if b == 0:
                continue
            a = A[r][col]
            g, x, y = _exgcd(a, b)
            aa, bb = a // g, b // g
            # [[x, y], [-bb, aa]] has determinant (x*a + y*b)/g = 1
            A[r], A[i] = (
                [x * p + y * q for p, q in zip(A[r], A[i])],
                [-bb * p + aa * q for p, q in zip(A[r], A[i])],
            )
            U[r], U[i] = (
                [x * p + y * q for p, q in zip(U[r], U[i])],
                [-bb * p + aa * q for p, q in zip(U[r], U[i])],
            )
        if A[r][col] < 0:
            A[r] = [-v for v in A[r]]
            U[r] = [-v for v in U[r]]
        r += 1
        if r == ell:
            break
    return (
        tuple(tuple(v) for v in U),
        tuple(tuple(v) for v in A),
        r,
    )


def integer_kernel_basis(rows, width):
    """Basis of the saturated lattice {x in Z^width : A x = 0}.

    Row-reduces the transpose with a unimodular transform; the transform
    rows paired with zero rows of the echelon form span the kernel.
    """
    ell = len(rows)
    transpose = [[rows[i][j] for i in range(ell)] for j in range(width)]
    U, _, r = row_reduce_unimodular(transpose, width=ell)
    return [U[i] for i in range(r, width)]


def _gcdex(a, b):
    """``_exgcd`` with y = 0 when a | b, which keeps Hermite entries small."""
    if a and b % a == 0:
        return abs(a), (-1 if a < 0 else 1), 0
    return _exgcd(a, b)


def hermite_normal_form(rows):
    """Hermite basis of the row lattice, as a tuple of rank many rows.

    Cohen's Algorithm 2.4.5 on the transpose, with sympy's conventions:
    the result equals ``hermite_normal_form(Matrix(rows).T).T``.  Columns
    are taken from the last one back.  Each row ends in its pivot, which
    is positive; the pivot columns increase down the rows, the entries
    above a pivot are zero and those below it lie in [0, pivot).  The form
    depends only on the lattice.
    """
    M = [list(r) for r in rows]
    ncols = len(M[0]) if M else 0
    k = len(M)
    for i in range(ncols - 1, -1, -1):
        if k == 0:
            break
        k -= 1
        for j in range(k - 1, -1, -1):
            if M[j][i]:
                d, u, v = _gcdex(M[k][i], M[j][i])
                r, s = M[k][i] // d, M[j][i] // d
                M[k], M[j] = (
                    [u * a + v * b for a, b in zip(M[k], M[j])],
                    [-s * a + r * b for a, b in zip(M[k], M[j])],
                )
        b = M[k][i]
        if b < 0:
            M[k] = [-a for a in M[k]]
            b = -b
        if b == 0:
            k += 1
        else:
            for j in range(k + 1, len(M)):
                q = M[j][i] // b
                if q:
                    M[j] = [a - q * c for a, c in zip(M[j], M[k])]
    return tuple(tuple(r) for r in M[k:])


LLL_DELTA = Fraction(3, 4)


def lll_reduce(rows):
    """LLL-reduced basis (delta = 3/4) of linearly independent integer rows.

    Step for step the rational algorithm of Lenstra, Lenstra and Lovasz
    (1982) as sympy's ``DomainMatrix.lll`` runs it without flint: size
    reduction by the nearest integer floor(mu + 1/2) whenever |mu| > 1/2,
    the Lovasz test g*_k >= (delta - mu_{k,k-1}^2) g*_{k-1}, and the swap
    update of mu and the squared Gram-Schmidt norms g*.  LLL output
    depends on the algorithm, not only on the lattice, so this is the same
    algorithm, not merely an LLL.  Raises ValueError on dependent rows
    where sympy raises its rank error.
    """
    y = [list(r) for r in rows]
    m = len(y)
    if m == 0:
        return ()
    if m > len(y[0]):
        raise ValueError("LLL needs at most as many rows as columns")
    half = Fraction(1, 2)
    mu = [[Fraction(0)] * m for _ in range(m)]
    g_star = [Fraction(0)] * m
    y_star = []
    for i in range(m):
        ys = [Fraction(v) for v in y[i]]
        for j in range(i):
            if not g_star[j]:
                raise ValueError("LLL input rows are linearly dependent")
            mu[i][j] = sum(a * b for a, b in zip(y[i], y_star[j])) / g_star[j]
            ys = [a - mu[i][j] * b for a, b in zip(ys, y_star[j])]
        y_star.append(ys)
        g_star[i] = sum(a * a for a in ys)

    def reduce_row(k, j):
        r = floor(mu[k][j] + half)
        y[k] = [a - r * b for a, b in zip(y[k], y[j])]
        for z in range(j):
            mu[k][z] -= r * mu[j][z]
        mu[k][j] -= r

    k = 1
    while k < m:
        if abs(mu[k][k - 1]) > half:
            reduce_row(k, k - 1)
        if g_star[k] >= (LLL_DELTA - mu[k][k - 1] ** 2) * g_star[k - 1]:
            for j in range(k - 2, -1, -1):
                if abs(mu[k][j]) > half:
                    reduce_row(k, j)
            k += 1
        else:
            nu = mu[k][k - 1]
            alpha = g_star[k] + nu**2 * g_star[k - 1]
            if not alpha:
                raise ValueError("LLL input rows are linearly dependent")
            beta = g_star[k - 1] / alpha
            mu[k][k - 1] = nu * beta
            g_star[k] *= beta
            g_star[k - 1] = alpha
            y[k], y[k - 1] = y[k - 1], y[k]
            mu[k][: k - 1], mu[k - 1][: k - 1] = mu[k - 1][: k - 1], mu[k][: k - 1]
            for i in range(k + 1, m):
                xi = mu[i][k]
                mu[i][k] = mu[i][k - 1] - nu * xi
                mu[i][k - 1] = mu[k][k - 1] * mu[i][k] + xi
            k = max(k - 1, 1)
    return tuple(tuple(r) for r in y)


def elementary_divisors(rows):
    """Nonzero diagonal of the Smith normal form, as positive ints.

    Diagonalise by unimodular row and column operations, always pivoting
    on an entry of least absolute value: a nonzero remainder in the
    pivot's row or column is a smaller pivot for the next pass, so the
    passes end.  The diagonal is then made a divisibility chain by
    replacing pairs with their (gcd, lcm), which keeps the Smith form.
    """
    M = [list(r) for r in rows if any(r)]
    diag = []
    while M:
        _, pi, pj = min(
            (abs(v), i, j) for i, r in enumerate(M) for j, v in enumerate(r) if v
        )
        M[0], M[pi] = M[pi], M[0]
        for r in M:
            r[0], r[pj] = r[pj], r[0]
        top = M[0]
        p = top[0]
        clean = True
        for r in M[1:]:
            q = r[0] // p
            if q:
                r[:] = [a - q * b for a, b in zip(r, top)]
            clean = clean and not r[0]
        for j in range(1, len(top)):
            q = top[j] // p
            if q:
                for r in M:
                    r[j] -= q * r[0]
            clean = clean and not top[j]
        if clean:
            diag.append(abs(p))
            M = [r[1:] for r in M[1:] if any(r[1:])]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


def nonnegative_solution_exists(rows, rhs):
    """Decide whether {x >= 0 : A x = b} is nonempty, exactly."""
    return nonnegative_solution(rows, rhs) is not None


def nonnegative_solution(rows, rhs):
    """A point of {x >= 0 : A x = b}, or None if the set is empty.

    Phase-1 simplex over Fraction with Bland's anticycling rule; feasible
    iff the artificial objective reaches zero, in which case the basic
    solution restricted to the real variables is returned.
    """
    m = len(rows)
    if m == 0:
        return ()
    n = len(rows[0])
    T = []
    b = []
    for row, bi in zip(rows, rhs):
        row = [Fraction(v) for v in row]
        bi = Fraction(bi)
        if bi < 0:
            row = [-v for v in row]
            bi = -bi
        T.append(row)
        b.append(bi)
    # artificial variables n..n+m-1 start basic; minimize their sum
    for i in range(m):
        T[i] = T[i] + [Fraction(int(i == k)) for k in range(m)]
    basis = list(range(n, n + m))
    # reduced-cost row for min(sum of artificials): c_j - z_j, which is
    # -sum_i T[i][j] for the real variables and 0 for the (basic) artificials
    obj = [Fraction(0)] * (n + m)
    obj_val = Fraction(0)
    for i in range(m):
        for j in range(n):
            obj[j] -= T[i][j]
        obj_val -= b[i]
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            if obj_val != 0:
                return None
            x = [Fraction(0)] * n
            for i in range(m):
                if basis[i] < n:
                    x[basis[i]] = b[i]
            return tuple(x)
        leave = None
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = b[i] / T[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            # objective is bounded below by 0, so this cannot happen
            raise RuntimeError("phase-1 simplex detected unbounded objective")
        piv = T[leave][enter]
        T[leave] = [v / piv for v in T[leave]]
        b[leave] /= piv
        for i in range(m):
            if i != leave and T[i][enter]:
                f = T[i][enter]
                T[i] = [v - f * w for v, w in zip(T[i], T[leave])]
                b[i] -= f * b[leave]
        if obj[enter]:
            f = obj[enter]
            obj = [v - f * w for v, w in zip(obj, T[leave])]
            obj_val -= f * b[leave]
        basis[leave] = enter
