"""Torus-module analysis: reduction, largeness, shell and quotient series.

A rank-ell torus acts on C^n through an integer weight matrix A (rows =
torus coordinates, columns = module coordinates); the induced action on
V + V* has weights (A | -A).  Everything below is exact integer or
rational arithmetic.  Column indices are 0-based throughout; rendered
coordinate names (z1, w1, ...) are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

from .certify import GorensteinVerdict, shell_a_invariant, stanley_check
from .errors import CapacityError, ReconstructionError
from .exactlin import (
    elementary_divisors,
    fraction_inverse,
    hermite_normal_form,
    integer_kernel_basis,
    integer_rank,
    lll_reduce,
    nonnegative_solution,
    row_reduce_unimodular,
)
from .latticecones import norm_generating_function
from .quadforms import MomentForm
from .series import (
    HilbertSeries,
    TruncatedSeries,
    _cyclotomic_reduction,
    binomial_poly_one_minus_t2,
    cyclotomic_multiplicities,
    expand,
    minimal_rational_form,
    one_minus_te_product,
    poly_exact_div,
    poly_mul,
    reconstruct_search,
    staircase_exponents,
)

CLOSURE_LIMIT = 1 << 16  # column subsets whose span largeness may close


@dataclass(frozen=True)
class WeightMatrix:
    """Integer weight matrix of a torus module.

    ``rows`` has one row per torus coordinate; ``width`` fixes n even when
    the matrix has no rows (rank-0 torus).
    """

    rows: tuple[tuple[int, ...], ...]
    width: int

    def __init__(self, rows, width=None):
        rows = tuple(tuple(int(a) for a in r) for r in rows)
        if rows:
            if width is None:
                width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged weight matrix")
        elif width is None:
            raise ValueError("width is required for a matrix with no rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "width", int(width))

    @property
    def torus_rank(self):
        return len(self.rows)

    @property
    def module_dim(self):
        return self.width

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    @property
    def columns(self):
        return tuple(self.column(j) for j in range(self.width))

    @property
    def rank(self):
        return integer_rank(self.rows)

    def __str__(self):
        return "[" + "; ".join(" ".join(str(a) for a in r) for r in self.rows) + "]"


def moment_components(A: WeightMatrix):
    """One diagonal form sum_j a_ij z_j w_j per torus coordinate."""
    n = A.module_dim
    return [
        MomentForm({(j, j): row[j] for j in range(n)}, n) for row in A.rows
    ]


# ---------------------------------------------------------------------------
# stability and reduction


@lru_cache(maxsize=64)
def _lineality_columns(A: WeightMatrix):
    """Columns j admitting c >= 0 with A c = 0 and c_j = 1 (exact simplex).

    These are the columns whose weights lie in the lineality part of the
    weight cone; c_j > 0 can be scaled to c_j = 1.  Every column in the
    support of a solution found is lineal by the same token, so the LP of
    a column already in some solution's support is skipped.
    """
    ell, n = A.torus_rank, A.module_dim
    lineal = set()
    for j in range(n):
        if j in lineal:
            continue
        rows = [list(r) for r in A.rows]
        rows.append([int(i == j) for i in range(n)])
        rhs = [0] * ell + [1]
        sol = nonnegative_solution(rows, rhs)
        if sol is not None:
            lineal.update(i for i, c in enumerate(sol) if c)
    return tuple(sorted(lineal))


def is_stable(A: WeightMatrix):
    """Weight cone is a linear subspace <=> every column is lineal."""
    return len(_lineality_columns(A)) == A.module_dim


@dataclass(frozen=True)
class ReductionTrace:
    """Witness of the stable reduction A -> reduced_matrix.

    kept_columns: 0-based indices of the surviving (nonzero, lineal)
    columns; removed_trivial_columns counts the zero columns (trivial
    summands) that were stripped.  row_basis_change is the unimodular U
    with: reduced_matrix = nonzero rows of U * A[:, kept_columns].
    """

    kept_columns: tuple[int, ...]
    removed_trivial_columns: int
    reduced_matrix: WeightMatrix
    row_basis_change: tuple[tuple[int, ...], ...]
    original: WeightMatrix

    @property
    def reduced_rank(self):
        return self.reduced_matrix.torus_rank

    @property
    def reduced_dim(self):
        return self.reduced_matrix.module_dim

    def replay(self):
        """Recompute the reduced matrix from the stored witness data."""
        ell = self.original.torus_rank
        rows = [
            [
                sum(
                    self.row_basis_change[i][t] * self.original.rows[t][j]
                    for t in range(ell)
                )
                for j in self.kept_columns
            ]
            for i in range(ell)
        ]
        nonzero = [tuple(r) for r in rows if any(r)]
        return WeightMatrix(tuple(nonzero), width=len(self.kept_columns))


def _short_row_basis(rows):
    """Canonical short basis of the row lattice of a full-row-rank matrix.

    Hermite normal form first (Cohen's Algorithm 2.4.5, so the result
    depends only on the lattice, keeping the reduction idempotent), then
    LLL with delta = 3/4 to undo the entry blow-up Hermite elimination
    tends to cause.  Returns (new_rows, L) with L integral, unimodular and
    L * rows = new_rows.
    """
    r = len(rows)
    hnf = hermite_normal_form(rows)
    if r > 1:
        hnf = lll_reduce(hnf)
    gram = [[sum(a * b for a, b in zip(r1, r2)) for r2 in rows] for r1 in rows]
    ginv = fraction_inverse(gram)
    # L = new * rows^T * (rows rows^T)^{-1}; exact, must come out integral.
    prod = [
        [sum(a * b for a, b in zip(new_row, old)) for old in rows]
        for new_row in hnf
    ]
    L = []
    for row in prod:
        entries = [sum(row[t] * ginv[t][j] for t in range(r)) for j in range(r)]
        if any(e.denominator != 1 for e in entries):
            raise RuntimeError(
                "row-basis change is not integral; please report this input"
            )
        L.append([int(e) for e in entries])
    if any(
        sum(L[i][t] * rows[t][j] for t in range(r)) != hnf[i][j]
        for i in range(r)
        for j in range(len(rows[0]))
    ):
        raise RuntimeError(
            "row-basis change does not reproduce the reduced basis; please "
            "report this input"
        )
    return hnf, L


def stable_reduction(A: WeightMatrix) -> ReductionTrace:
    """Restrict to the lineality columns and row-reduce to full row rank.

    Zero columns (always lineal) are counted separately as trivial
    summands; the surviving matrix is stable, has no zero columns, and has
    full row rank.  The row basis is canonicalised (Hermite then LLL), so
    the map is idempotent and the reported matrix has small entries.
    """
    lineal = _lineality_columns(A)
    trivial = [j for j in lineal if not any(A.column(j))]
    kept = tuple(j for j in lineal if any(A.column(j)))
    restricted = [[r[j] for j in kept] for r in A.rows]
    U, H, r = row_reduce_unimodular(restricted, width=len(kept))
    if r and kept:
        short, L = _short_row_basis(H[:r])
        ell = len(U)
        full = [
            [
                sum(L[i][t] * U[t][j] for t in range(r)) if i < r else U[i][j]
                for j in range(ell)
            ]
            for i in range(ell)
        ]
        H, U = short, tuple(tuple(row) for row in full)
        reduced = WeightMatrix(tuple(tuple(row) for row in H), width=len(kept))
    else:
        reduced = WeightMatrix(
            tuple(tuple(row) for row in H[:r]), width=len(kept)
        )
    return ReductionTrace(
        kept_columns=kept,
        removed_trivial_columns=len(trivial),
        reduced_matrix=reduced,
        row_basis_change=U,
        original=A,
    )


# ---------------------------------------------------------------------------
# largeness combinatorics


@lru_cache(maxsize=8)
def _flat_sizes(A: WeightMatrix):
    """(rank A, f) with f[s] the size of the largest flat of rank s.

    A flat is a set of columns closed under linear span; s runs over
    0..min(ell - 1, rank A).  The largest set of rank s is a flat, the
    closure of any independent s-subset S: the columns annihilated by
    every vector of the kernel of A_S^T.  For s = 0 that is the zero
    columns.  Before any rank is computed, the number of s-subsets with
    s <= min(ell - 1, n) is checked against CLOSURE_LIMIT: that is the
    number of closures when rank A >= ell - 1, and a bound otherwise.
    """
    ell, n = A.torus_rank, A.module_dim
    top = min(ell - 1, n)
    count = sum(math.comb(n, s) for s in range(top + 1))
    if count > CLOSURE_LIMIT:
        raise CapacityError(
            f"largeness needs the closures of {count} column subsets of size "
            f"< {ell} (n = {n}); refusing more than {CLOSURE_LIMIT}"
        )
    rank = integer_rank(A.rows)
    cols = A.columns
    if ell == 0:
        return rank, ()
    sizes = [sum(1 for c in cols if not any(c))]
    for s in range(1, min(top, rank) + 1):
        best = 0
        for S in combinations(range(n), s):
            kernel = integer_kernel_basis([cols[j] for j in S], ell)
            if len(kernel) != ell - s:
                continue  # S is dependent
            size = sum(
                1
                for c in cols
                if not any(sum(a * b for a, b in zip(y, c)) for y in kernel)
            )
            if size > best:
                best = size
        sizes.append(best)
    return rank, tuple(sizes)


@dataclass(frozen=True)
class TorusLargenessReport:
    faithful_up_to_finite: bool
    stable: bool
    fpig: bool
    max_k_modular: int
    one_large: bool
    dim_bound_ok: bool
    finite_kernel_order: int | None
    zero_columns: int

    def __post_init__(self):
        if self.one_large and not (self.stable and self.fpig):
            raise RuntimeError(
                "largeness report is 1-large but not stable with finite "
                "principal isotropy; please report this input"
            )


def largeness_report(A: WeightMatrix) -> TorusLargenessReport:
    """Isotropy-stratification largeness data, from the lattice of flats.

    The isotropy dimension of a support S is ell - rank(A_S), and
    dim V_(r) = max{|S| : ell - rank(A_S) = r}.  The largest support of
    rank s is a flat, so dim V_(ell - s) = f(s), the size of the largest
    flat of rank s, for s = 0..min(ell - 1, rank A); these are the strata
    with r >= 1.  max_k_modular is the largest k with
    codim V_(r) >= r + k for every such r, or -1 when even 0-modularity
    fails.  For ell = 0 every such condition is vacuous and max_k_modular
    is reported as n.
    """
    ell, n = A.torus_rank, A.module_dim
    rank, flats = _flat_sizes(A)
    faithful = rank == ell
    stable = is_stable(A)
    zero_cols = sum(1 for j in range(n) if not any(A.column(j)))

    if ell == 0:
        max_k = n
    else:
        max_k = min(n - size - (ell - s) for s, size in enumerate(flats))
        if max_k < 0:
            max_k = -1

    order = None
    if faithful and ell > 0:
        order = math.prod(elementary_divisors(A.rows))
    elif faithful:
        order = 1

    if ell == 0:
        bound_ok = True
    else:
        bound_ok = ell + max_k <= n - zero_cols

    return TorusLargenessReport(
        faithful_up_to_finite=faithful,
        stable=stable,
        fpig=stable and faithful,
        max_k_modular=max_k,
        one_large=stable and faithful,
        dim_bound_ok=bound_ok,
        finite_kernel_order=order,
        zero_columns=zero_cols,
    )


def shell_hilbert(A: WeightMatrix) -> HilbertSeries:
    """(1-t^2)^ell / (1-t)^(2n) for the raw matrix.

    Valid exactly when the moment components are a regular sequence, i.e.
    the module is 0-modular; checked via largeness_report.
    """
    ell, n = A.torus_rank, A.module_dim
    if largeness_report(A).max_k_modular < 0:
        raise ValueError(
            "moment components are not a regular sequence (module is not "
            "0-modular); the complete-intersection shell series does not apply"
        )
    return HilbertSeries(binomial_poly_one_minus_t2(ell), (1,) * (2 * n))


# ---------------------------------------------------------------------------
# invariant series DP


KERNEL_ENUM_CAP = 40_000_000  # hard cap on box cells / DFS nodes
KERNEL_BOX_PREFERRED = 3_000_000  # below this the box strategy is chosen


def invariant_series_dp(
    A: WeightMatrix, D, *, state_cap=800_000, method=None
) -> TruncatedSeries:
    """Hilbert series of C[V + V*]^T truncated to degree D.

    Coefficient d counts pairs (u, v) of exponent vectors with
    sum(u) + sum(v) = d and A(u - v) = 0.  Two exact strategies with
    complementary cost:

    * "kernel": each invariant monomial factors uniquely as z^{m+} w^{m-}
      times a monomial in the z_j w_j, for a kernel point m = u - v, so
      the series is (sum_m t^{|m|_1}) / (1-t^2)^n and only kernel points
      with 1-norm <= D need enumerating.  Cheap when the kernel search box
      is small (high weight rank); chosen automatically in that case.

    * "state": fold variables in one at a time (z_j with weight column
      a_j, w_j with -a_j, interleaved); the frontier maps partial weight
      sums to counts, pruned by the exact bound
      |state_r| <= (remaining degree) * (max remaining |entry| in row r).
      ``state_cap`` bounds the live frontier size.
    """
    if D < 0:
        raise ValueError("degree bound must be >= 0")
    ell, n = A.torus_rank, A.module_dim
    if ell == 0:
        if n == 0:
            return TruncatedSeries((1,) + (0,) * D)
        return TruncatedSeries(
            tuple(math.comb(d + 2 * n - 1, 2 * n - 1) for d in range(D + 1))
        )
    if method not in (None, "state", "kernel"):
        raise ValueError('method must be "state", "kernel", or None')
    box = None
    if method != "state":
        basis, bounds, box = _kernel_box_plan(A, D)
        if method == "kernel" and box > KERNEL_ENUM_CAP:
            raise CapacityError(
                f"kernel-box enumeration would visit {box} cells "
                f"(cap {KERNEL_ENUM_CAP}) at degree bound {D} for {A}"
            )
        if method == "kernel" or box <= KERNEL_BOX_PREFERRED:
            return _kernel_norm_series(basis, bounds, n, D)

    try:
        return _state_series(A, D, state_cap)
    except CapacityError:
        # the frontier blew up but the kernel box, while not preferred,
        # may still be enumerable
        if method is None and box is not None and box <= KERNEL_ENUM_CAP:
            return _kernel_norm_series(basis, bounds, n, D)
        raise


def _kernel_norm_series(basis, bounds, n, D):
    """Invariant series from the 1-norm histogram of kernel points."""
    import numpy as np

    counts = np.zeros(D + 1, dtype=np.int64)
    for batch in _kernel_box_batches(basis, bounds, n):
        norms = np.abs(batch).sum(axis=1)
        norms = norms[norms <= D]
        counts += np.bincount(norms, minlength=D + 1)
    series = TruncatedSeries(tuple(int(c) for c in counts))
    for _ in range(n):
        series = series.geometric_mul(2)
    return series


def _state_series(A: WeightMatrix, D, state_cap):
    """Invariant series by folding variables into a pruned weight-sum DP."""
    ell, n = A.torus_rank, A.module_dim
    variables = []
    for j in range(n):
        col = A.column(j)
        variables.append(col)
        variables.append(tuple(-a for a in col))
    # reach[i][r] = max |entry of row r| over variables i..end (inclusive)
    reach = [None] * (len(variables) + 1)
    reach[len(variables)] = (0,) * ell
    for i in range(len(variables) - 1, -1, -1):
        reach[i] = tuple(
            max(abs(variables[i][r]), reach[i + 1][r]) for r in range(ell)
        )

    zero = (0,) * ell
    frontier = [dict() for _ in range(D + 1)]
    frontier[0][zero] = 1
    for i, w in enumerate(variables):
        reach_i = reach[i]
        # drop states that can no longer return to zero with this suffix
        for d in range(D + 1):
            rem = D - d
            f = frontier[d]
            dead = [
                s
                for s in f
                if any(abs(s[r]) > rem * reach_i[r] for r in range(ell))
            ]
            for s in dead:
                del f[s]
        running = len(frontier[0])
        for d in range(1, D + 1):
            rem = D - d
            dst = frontier[d]
            for s, c in frontier[d - 1].items():
                t = tuple(s[r] + w[r] for r in range(ell))
                if any(abs(t[r]) > rem * reach_i[r] for r in range(ell)):
                    continue
                dst[t] = dst.get(t, 0) + c
            # guard inside the fold too: a single pass can overshoot the
            # cap by orders of magnitude before the post-fold check
            running += len(dst)
            if running > 2 * state_cap:
                raise CapacityError(
                    f"invariant-series DP state count passed {running} "
                    f"mid-fold, cap {state_cap} (degree {D}, matrix {A})"
                )
        total = sum(len(f) for f in frontier)
        if total > state_cap:
            raise CapacityError(
                f"invariant-series DP state count {total} exceeds cap "
                f"{state_cap} (degree {D}, matrix {A})"
            )
    return TruncatedSeries(tuple(frontier[d].get(zero, 0) for d in range(D + 1)))


# ---------------------------------------------------------------------------
# minimal generators


@dataclass(frozen=True)
class GeneratorMonomial:
    """Invariant monomial z^u w^v recorded with its total degree."""

    u: tuple[int, ...]
    v: tuple[int, ...]

    @property
    def degree(self):
        return sum(self.u) + sum(self.v)

    def __repr__(self):
        parts = []
        for j, e in enumerate(self.u):
            if e:
                parts.append(f"z{j + 1}" + (f"^{e}" if e > 1 else ""))
        for j, e in enumerate(self.v):
            if e:
                parts.append(f"w{j + 1}" + (f"^{e}" if e > 1 else ""))
        return "*".join(parts) if parts else "1"


def _kernel_points_dfs(A: WeightMatrix, D, node_cap):
    """All nonzero m in ker_Z(A) with |m|_1 <= D, by pruned column DFS.

    Efficient when the kernel is dense (rank close to n); for sparse
    kernels almost every prefix is a dead end and the basis-box
    enumeration below wins.
    """
    ell, n = A.torus_rank, A.module_dim
    cols = A.columns
    reach = [None] * (n + 1)
    reach[n] = (0,) * ell
    for j in range(n - 1, -1, -1):
        reach[j] = tuple(max(abs(cols[j][r]), reach[j + 1][r]) for r in range(ell))

    out = []
    nodes = 0

    def dfs(j, state, budget, prefix):
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise CapacityError(
                f"kernel-point enumeration exceeded {node_cap} nodes at "
                f"degree bound {D}"
            )
        if j == n:
            if all(s == 0 for s in state) and any(prefix):
                out.append(tuple(prefix))
            return
        col = cols[j]
        nxt = reach[j + 1]
        for mj in range(-budget, budget + 1):
            t = tuple(state[r] + mj * col[r] for r in range(ell))
            rem = budget - abs(mj)
            if any(abs(t[r]) > rem * nxt[r] for r in range(ell)):
                continue
            prefix.append(mj)
            dfs(j + 1, t, rem, prefix)
            prefix.pop()

    dfs(0, (0,) * ell, D, [])
    return out


def _reduced_kernel_basis(A: WeightMatrix):
    """Saturated integer kernel basis of A, LLL-reduced for short vectors."""
    basis = integer_kernel_basis(A.rows, A.module_dim)
    if len(basis) > 1:
        basis = lll_reduce(basis)
    return [list(b) for b in basis]


def _kernel_box_plan(A: WeightMatrix, D):
    """Search box for {m in ker_Z(A) : |m|_1 <= D} over a reduced basis.

    Every kernel point is m = x^T B, and x = (B B^T)^{-1} B m, so
    |x_i| <= D * max_j |((B B^T)^{-1} B)_{ij}| bounds each coordinate
    exactly.  Returns (basis, per-coordinate bounds, box cell count).
    """
    basis = _reduced_kernel_basis(A)
    k, n = len(basis), A.module_dim
    if k == 0:
        return basis, [], 1
    gram = [[sum(a * b for a, b in zip(r1, r2)) for r2 in basis] for r1 in basis]
    ginv = fraction_inverse(gram)
    bounds = []
    for i in range(k):
        dual = [
            sum(ginv[i][t] * basis[t][j] for t in range(k)) for j in range(n)
        ]
        bounds.append(int(D * max(abs(f) for f in dual)))
    box = math.prod(2 * X + 1 for X in bounds)
    largest = sum(X * max(abs(x) for x in row) for X, row in zip(bounds, basis))
    if largest >= 2**62:
        raise CapacityError("kernel coordinates exceed the int64 safety bound")
    return basis, bounds, box


def _kernel_box_batches(basis, bounds, n):
    """Numpy batches jointly covering the planned box exactly once each
    (callers filter by 1-norm; the box may overshoot)."""
    import numpy as np

    k = len(basis)
    if k == 0:
        yield np.zeros((1, n), dtype=np.int64)
        return
    B = np.array(basis, dtype=np.int64)
    if k == 1:
        xs = np.arange(-bounds[0], bounds[0] + 1, dtype=np.int64)
        yield xs[:, None] * B[0][None, :]
        return
    r2 = np.arange(-bounds[-1], bounds[-1] + 1, dtype=np.int64)
    chunk = max(1, 4_000_000 // len(r2))
    pairs = []
    full_r1 = np.arange(-bounds[-2], bounds[-2] + 1, dtype=np.int64)
    for lo in range(0, len(full_r1), chunk):
        r1 = full_r1[lo : lo + chunk]
        pairs.append(
            (
                r1[:, None, None] * B[-2][None, None, :]
                + r2[None, :, None] * B[-1][None, None, :]
            ).reshape(-1, n)
        )
    if k == 2:
        yield from pairs
        return
    prefix_ranges = [range(-X, X + 1) for X in bounds[:-2]]
    Bpre = B[:-2]
    for prefix in product(*prefix_ranges):
        base = np.asarray(prefix, dtype=np.int64) @ Bpre
        for pair in pairs:
            yield base[None, :] + pair


def _kernel_points(A: WeightMatrix, D, enum_cap):
    """All nonzero m in ker_Z(A) with |m|_1 <= D.

    Uses the basis-box enumeration when its cell count is affordable
    (sparse kernels have small boxes) and the pruned column DFS otherwise
    (dense kernels waste few prefixes).
    """
    basis, bounds, box = _kernel_box_plan(A, D)
    if box > min(enum_cap, KERNEL_BOX_PREFERRED):
        return _kernel_points_dfs(A, D, enum_cap)
    import numpy as np

    out = []
    for batch in _kernel_box_batches(basis, bounds, A.module_dim):
        norms = np.abs(batch).sum(axis=1)
        keep = batch[(norms <= D) & (norms > 0)]
        out.extend(map(tuple, keep.tolist()))
    return out


def _box_divides(m_small, m_big):
    """True when m_small lies sign-compatibly inside m_big's box."""
    for a, b in zip(m_small, m_big):
        if b >= 0:
            if not 0 <= a <= b:
                return False
        else:
            if not b <= a <= 0:
                return False
    return True


def minimal_generators(A: WeightMatrix, D, *, enum_cap=KERNEL_ENUM_CAP):
    """Minimal generating invariant monomials of degree <= D.

    An invariant monomial z^u w^v is minimal when it is not the product of
    two nonconstant invariant monomials.  Any invariant with u_j, v_j >= 1
    for some j splits off the invariant z_j w_j, so the minimal generators
    are (a) z_j w_j for every nonzero column j, and (b) z^{m+} w^{m-} for
    kernel lattice points m with no smaller kernel point inside the
    sign-box of m.  Zero columns contribute z_j and w_j through the kernel
    points +-e_j.
    """
    if D < 2:
        raise ValueError("generator search needs degree bound D >= 2")
    ell, n = A.torus_rank, A.module_dim
    gens = []
    if ell == 0:
        for j in range(n):
            e = tuple(int(i == j) for i in range(n))
            z = tuple(0 for _ in range(n))
            gens.append(GeneratorMonomial(e, z))
            gens.append(GeneratorMonomial(z, e))
        return sorted(gens, key=lambda g: (g.degree, g.u, g.v))

    points = _kernel_points(A, D, enum_cap)
    points.sort(key=lambda m: (sum(abs(x) for x in m), m))
    minimal: list[tuple[int, ...]] = []
    for m in points:
        if any(_box_divides(p, m) for p in minimal):
            continue
        minimal.append(m)
    for m in minimal:
        u = tuple(x if x > 0 else 0 for x in m)
        v = tuple(-x if x < 0 else 0 for x in m)
        gens.append(GeneratorMonomial(u, v))
    for j in range(n):
        if any(A.column(j)):
            e = tuple(int(i == j) for i in range(n))
            gens.append(GeneratorMonomial(e, e))
    return sorted(gens, key=lambda g: (g.degree, g.u, g.v))


# ---------------------------------------------------------------------------
# quotient series


@dataclass(frozen=True)
class QuotientResult:
    """Closed-form quotient series plus its certification and provenance."""

    series: HilbertSeries
    verdict: GorensteinVerdict
    trace: ReductionTrace
    truncation: TruncatedSeries  # (1-t^2)^ell' * invariant series, reduced part
    denominator: tuple[int, ...]  # reduced-part denominator that reconstructed
    generator_degrees: tuple[int, ...]


def _display_exponents(mult, count, gen_degrees, combo_cap=60_000):
    """Choose denominator exponents covering cyclotomic multiplicities.

    Valid multisets E (|E| = count, each cyclotomic index m dividing at
    least mult[m] members) all represent the same rational function with a
    polynomial numerator; among candidates built from generator degrees
    and their pairwise lcms, the one of smallest total degree reads best.
    Falls back to the always-valid staircase multiset.
    """
    stairs = staircase_exponents(mult)
    pool = set(gen_degrees) | set(stairs)
    for a in tuple(gen_degrees):
        for b in tuple(gen_degrees):
            l = math.lcm(a, b)
            if l <= 64:
                pool.add(l)
    pool = sorted(pool)
    if math.comb(len(pool) + count - 1, count) > combo_cap:
        return stairs
    best = None
    for combo in combinations_with_replacement(pool, count):
        if best is not None and sum(combo) >= best[0]:
            continue
        if all(
            sum(1 for e in combo if e % m == 0) >= s for m, s in mult.items()
        ):
            best = (sum(combo), combo)
    return best[1] if best else stairs


def quotient_series(
    A: WeightMatrix,
    D=24,
    denominators=None,
    *,
    guard=4,
    gen_bound=None,
    state_cap=800_000,
    max_degree=None,
    point_limit=4_000_000,
) -> QuotientResult:
    """Hilbert series of the complex symplectic quotient, certified.

    Applies stable_reduction; on the reduced module (ell', n') the closed
    form is computed exactly by the half-open cone decomposition of the
    kernel lattice (norm_generating_function divided by (1-t^2)^(n'-ell')),
    then cancelled to lowest terms, factored into cyclotomics, and where
    affordable re-expressed over 2(n'-ell') factors (1-t^e) with exponents
    preferring minimal-generator degrees.  The reduction is integer-only:
    the closed form is gnum / prod (1 - t^e), whose denominator has only the
    factors Phi_m with m | e, so gnum is divided by those (each at most as
    often as it occurs in the denominator, as in reduced_fraction), and the
    multiplicities of the Phi_m left over are read off the same pass.  The
    result is cross-checked against the degree-D truncation of the
    invariant-series DP before it is returned, and certified via
    stanley_check.  The reduced module is stable and faithful, hence
    1-large, so the quotient is a Cohen-Macaulay domain and the check is
    caveat-free.

    When the decomposition would walk more than ``point_limit``
    fundamental-domain points (counted as in norm_generating_function,
    which never walks the mirrored half of its cells), the fallback
    reconstructs the minimal linear recurrence the truncation supports
    (with at least max(guard, 8) spare coefficients), escalating D up to
    ``max_degree`` (default max(5*D, 120)).

    Trailing 1/(1-t)^(2m) factors are restored for the m removed trivial
    summands.  Supplying ``denominators`` skips everything else: the
    truncation at D is divided by the given factors directly
    (guard-window validated).

    Raises ReconstructionError (carrying the deepest truncation) when no
    stable closed form emerges; retry with a larger D or supply
    denominators.
    """
    trace = stable_reduction(A)
    red = trace.reduced_matrix
    ell_r, n_r = red.torus_rank, red.module_dim
    m = trace.removed_trivial_columns

    if n_r == 0:
        series = HilbertSeries((1,), (1,) * (2 * m))
        verdict = stanley_check(series, cohen_macaulay_domain=True)
        return QuotientResult(
            series=series,
            verdict=verdict,
            trace=trace,
            truncation=TruncatedSeries((1,) + (0,) * D),
            denominator=(),
            generator_degrees=(),
        )

    den_count = 2 * (n_r - ell_r)

    if denominators is not None:
        dp = invariant_series_dp(red, D, state_cap=state_cap)
        truncation = dp.mul_poly(binomial_poly_one_minus_t2(ell_r))
        candidates = [tuple(sorted(int(e) for e in denominators))]
        closed, used = reconstruct_search(
            truncation, candidates, guard, den_count
        )
        series = HilbertSeries(
            closed.numerator, closed.denominator + (1,) * (2 * m)
        )
        verdict = stanley_check(series, cohen_macaulay_domain=True)
        return QuotientResult(
            series=series,
            verdict=verdict,
            trace=trace,
            truncation=truncation,
            denominator=used,
            generator_degrees=(),
        )

    if max_degree is None:
        max_degree = max(5 * D, 120)
    bound = gen_bound if gen_bound is not None else min(D - guard, 12)
    gens = minimal_generators(red, max(bound, 2))
    gen_degrees = tuple(sorted({g.degree for g in gens}))

    dp = invariant_series_dp(red, D, state_cap=state_cap)
    truncation = dp.mul_poly(binomial_poly_one_minus_t2(ell_r))

    try:
        gnum, gden = norm_generating_function(
            _reduced_kernel_basis(red), point_limit=point_limit
        )
    except CapacityError:
        gnum, gden = None, None

    if gnum is not None:
        qden = tuple(sorted(gden)) + (2,) * (n_r - ell_r)
        num, delta, mult = _cyclotomic_reduction(gnum, qden)
        if mult.get(1, 0) != den_count:
            raise RuntimeError(
                "cone decomposition gave a quotient series whose pole "
                f"order at t=1 is not {den_count}; please report this input"
            )
        used = _display_exponents(
            mult, den_count, gen_degrees + tuple(sorted(set(qden)))
        )
        if sum(used) <= 64 * den_count:
            scale = poly_exact_div(one_minus_te_product(used), delta)
            closed_num = poly_mul(num, scale)
            display = tuple(sorted(used))
        else:
            # re-expressing over den_count factors would need a numerator
            # of enormous degree; keep the decomposition's own factors
            closed_num = gnum
            display = tuple(sorted(qden))
        series = HilbertSeries(closed_num, display + (1,) * (2 * m))
        check = expand(series, truncation.bound)
        if check.coeffs != truncation.coeffs:
            raise RuntimeError(
                "cone decomposition disagrees with the truncated "
                "invariant series; please report this input"
            )
        verdict = stanley_check(series, cohen_macaulay_domain=True)
        return QuotientResult(
            series=series,
            verdict=verdict,
            trace=trace,
            truncation=truncation,
            denominator=display,
            generator_degrees=gen_degrees,
        )

    degree = D
    while True:
        form = minimal_rational_form(
            truncation.coeffs, stability=max(guard, 8)
        )
        if form is not None:
            num, delta = form
            mult = cyclotomic_multiplicities(delta)
            if mult is not None and mult.get(1, 0) == den_count:
                used = _display_exponents(mult, den_count, gen_degrees)
                scale = poly_exact_div(one_minus_te_product(used), delta)
                series = HilbertSeries(
                    poly_mul(num, scale), used + (1,) * (2 * m)
                )
                verdict = stanley_check(series, cohen_macaulay_domain=True)
                return QuotientResult(
                    series=series,
                    verdict=verdict,
                    trace=trace,
                    truncation=truncation,
                    denominator=tuple(sorted(used)),
                    generator_degrees=gen_degrees,
                )
        if degree >= max_degree:
            break
        degree = min(max_degree, degree + (degree + 1) // 2)
        dp = invariant_series_dp(red, degree, state_cap=state_cap)
        truncation = dp.mul_poly(binomial_poly_one_minus_t2(ell_r))
    raise ReconstructionError(
        f"the degree-{degree} truncation does not determine a stable "
        f"rational form with pole order {den_count} at t=1; increase the "
        f"degree bound or supply denominators",
        truncation=truncation,
    )


# ---------------------------------------------------------------------------
# shell diagnostics


@dataclass(frozen=True)
class TorusShellDiagnostics:
    largeness: TorusLargenessReport
    zero_modular: bool
    shell_dim: int
    infinite_isotropy_dim: int  # -1 when that locus is empty
    singular_locus_dim: int | None  # = infinite_isotropy_dim when 0-modular
    shell_a_invariant: int
    normal: str  # "yes" | "no" | "undetermined"
    normal_reason: str
    rational_singularities: str
    rational_reason: str
    caveats: tuple[str, ...]


def shell_diagnostics(A: WeightMatrix) -> TorusShellDiagnostics:
    """Exact singularity bookkeeping for the shell N = mu^{-1}(0).

    Strata of N are indexed by support pairs (P, Q) for (z, w); the
    stratum dimension is |P u Q| + |I| - rank(A_I) with I = P n Q feasible
    (the kernel of A_I meets the open orthant; equivalently no column of I
    is a coloop).  For a support U = P u Q the best feasible I inside U is
    its coloop-free core: dropping a coloop lowers |I| and rank(A_I) by
    one each, and nullity never grows on a subset, so the best value is
    the nullity |U| - rank(A_U).  Hence dim N = n + (n - rank A) =
    2n - rank A.  The infinite-isotropy locus restricts to supports with
    rank(A_U) = s < ell, of dimension 2|U| - s, largest on the largest
    flat of rank s: its dimension is max over s of 2 f(s) - s.  Under
    0-modularity those are exactly the singular points (Jacobian
    criterion); normality is then the codimension->=2 test.
    """
    ell, n = A.torus_rank, A.module_dim
    large = largeness_report(A)
    rank, flats = _flat_sizes(A)
    shell_dim = 2 * n - rank
    iso_dim = max((2 * size - s for s, size in enumerate(flats)), default=-1)

    zero_modular = large.max_k_modular >= 0
    if zero_modular and shell_dim != 2 * n - ell:
        raise RuntimeError(
            f"shell dimension {shell_dim} != 2n - ell = {2 * n - ell} for a "
            "0-modular module: stratum dimensions contradict 0-modularity; "
            "please report this input"
        )
    a_shell = shell_a_invariant(ell, n)

    caveats = []
    reduced_is_raw = large.stable and large.faithful_up_to_finite
    if not reduced_is_raw:
        caveats.append(
            "unreduced: verdicts describe the shell of the raw weight matrix, "
            "which the stable reduction would replace"
        )
    if not zero_modular:
        caveats.append(
            "not 0-modular: the infinite-isotropy locus need not equal the "
            "singular locus, and dimension data is set-theoretic"
        )

    if large.stable:
        normal = "yes"
        normal_reason = (
            "stable module: the shell is normal"
            if large.faithful_up_to_finite
            else "stable module (after dropping dependent rows, which leaves "
            "the shell unchanged): the shell is normal"
        )
    elif zero_modular:
        codim = shell_dim - iso_dim
        if iso_dim < 0 or codim >= 2:
            normal = "yes"
            normal_reason = (
                f"complete intersection with singular locus of codimension "
                f"{'infinity' if iso_dim < 0 else codim} >= 2"
            )
        else:
            normal = "no"
            normal_reason = (
                f"complete intersection singular in codimension {codim} < 2"
            )
    else:
        normal = "undetermined"
        normal_reason = (
            "not stable and not 0-modular: no applicable normality criterion"
        )

    if large.stable and large.faithful_up_to_finite:
        rational = "yes"
        rational_reason = "stable and faithful: the shell has rational singularities"
    elif zero_modular and a_shell >= 0:
        rational = "no"
        rational_reason = (
            f"shell a-invariant {a_shell} >= 0 obstructs rational singularities "
            "for a cone"
        )
    elif normal == "no":
        rational = "no"
        rational_reason = "not normal, hence no rational singularities"
    else:
        rational = "undetermined"
        rational_reason = "no applicable criterion"

    return TorusShellDiagnostics(
        largeness=large,
        zero_modular=zero_modular,
        shell_dim=shell_dim,
        infinite_isotropy_dim=iso_dim,
        singular_locus_dim=iso_dim if zero_modular else None,
        shell_a_invariant=a_shell,
        normal=normal,
        normal_reason=normal_reason,
        rational_singularities=rational,
        rational_reason=rational_reason,
        caveats=tuple(caveats),
    )
