"""Exact norm generating functions of lattices, checked against the DP.

G_L(t) = sum_{m in L} t^{|m|_1} for a sublattice L of Z^n containing a
strictly positive vector.  The cross-check below uses the identity

    Hilb_{C[V+V*]^T}(t) = G_L(t) / (1-t^2)^n,    L = ker(A) in Z^n,

which pairs the decomposition engine with the independent truncated DP.
The double-description ray finder is checked against the subset scan it
replaced, kept here as a reference, and the mirrored half-open
decomposition against the walk over all 2^n orthant pieces with per-point
image vectors that it replaced.
"""

import math
import random
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sympquot.latticecones as latticecones
from sympquot.errors import CapacityError
from sympquot.exactlin import integer_kernel_basis, integer_rank
from sympquot.latticecones import (
    _box_diagonal,
    _cell_adjugate,
    _cell_series,
    _combine,
    _extreme_rays,
    _facet_subsets,
    _half_open_flags,
    _primitive,
    _tri,
    negative_image_point,
    norm_generating_function,
)
from sympquot.series import HilbertSeries, binomial_poly_one_minus_t2, poly_add
from sympquot.torus import (
    WeightMatrix,
    _reduced_kernel_basis,
    invariant_series_dp,
    largeness_report,
    quotient_series,
    stable_reduction,
)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _extreme_rays_by_subsets(normals, k):
    """Reference: the 1-dimensional kernels of the (k-1)-subsets of the
    normals, kept when feasible with an active set of rank k-1."""
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
        g = math.gcd(*ker[0])
        r = tuple(v // g for v in ker[0])
        for cand in (r, tuple(-v for v in r)):
            if all(_dot(u, cand) >= 0 for u in normals):
                active = [u for u in normals if _dot(u, cand) == 0]
                if integer_rank(active) == k - 1:
                    rays.add(cand)
    return sorted(rays)


def _facet_subsets_by_subsets(rays, k):
    return sorted(
        {
            tuple(i for i, r in enumerate(rays) if _dot(f, r) == 0)
            for f in _extreme_rays_by_subsets(rays, k)
        }
    )


@st.composite
def pointed_cones(draw):
    """(normals, k): normals in [-3, 3]^k spanning Q^k, some repeated and
    some negated (which cuts the cone down to a lower-dimensional one, or
    to {0})."""
    k = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    normals = draw(st.lists(st.tuples(*[entry] * k), min_size=k, max_size=k + 3))
    picks = draw(
        st.lists(st.tuples(st.integers(0, len(normals) - 1), st.booleans()), max_size=2)
    )
    for i, negate in picks:
        u = normals[i]
        normals.append(tuple(-v for v in u) if negate else u)
    assume(integer_rank(normals) == k)
    return normals, k


@settings(max_examples=200, deadline=None)
@given(pointed_cones())
def test_extreme_rays_match_the_subset_scan(cone):
    normals, k = cone
    rays = _extreme_rays(normals, k)
    assert rays == _extreme_rays_by_subsets(normals, k), (normals, k)
    if rays and integer_rank(rays) == k:
        assert _facet_subsets(rays, k) == _facet_subsets_by_subsets(rays, k)


def test_extreme_rays_pinned_cases():
    # the positive quadrant, with a duplicate and a positive multiple
    assert _extreme_rays([(1, 0), (0, 1), (1, 0), (2, 0)], 2) == [(0, 1), (1, 0)]
    # a lower-dimensional pointed cone: the ray x = 0, y >= 0
    assert _extreme_rays([(1, 0), (-1, 0), (0, 1)], 2) == [(0, 1)]
    # the cone {0}
    assert _extreme_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], 3) == []
    # k = 1
    assert _extreme_rays([(2,), (3,)], 1) == [(1,)]
    assert _extreme_rays([(2,), (-3,)], 1) == []
    # the dual of the positive orthant cone has the coordinate facets
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert _facet_subsets(rays, 3) == [(0, 1), (0, 2), (1, 2)]


def test_extreme_rays_refuse_a_cone_that_is_not_pointed():
    with pytest.raises(RuntimeError, match="please report"):
        _extreme_rays([(1, 0), (2, 0), (0, 0)], 2)
    with pytest.raises(RuntimeError, match="please report"):
        _extreme_rays([], 1)


def test_zero_ray_is_a_loud_error():
    with pytest.raises(RuntimeError, match="please report"):
        _primitive((0, 0, 0))


def test_empty_basis_is_the_constant_one():
    assert norm_generating_function(()) == ((1,), ())


def test_singular_cell_is_a_loud_error():
    # a cell with dependent rays is an internal fault, and must stay one
    # under python -O
    with pytest.raises(RuntimeError, match="please report"):
        _cell_series(((1, 2), (2, 4)), [False, False], [(1, 0), (0, 1)], 2)


def test_rank_one_diagonal_lattice():
    # L = {(k, k)}: G = 1 + 2 t^2 + 2 t^4 + ... = (1+t^2)/(1-t^2)
    num, den = norm_generating_function(((1, 1),))
    assert HilbertSeries(num, den).equals(HilbertSeries((1, 0, 1), (2,)))


def test_index_two_sublattice_of_z():
    # L = 2Z in Z^1: G = (1+t^2)/(1-t^2)
    num, den = norm_generating_function(((2,),))
    assert HilbertSeries(num, den).equals(HilbertSeries((1, 0, 1), (2,)))


def test_full_lattice_z2():
    # G_{Z^2} = ((1+t)/(1-t))^2
    num, den = norm_generating_function(((1, 0), (0, 1)))
    assert HilbertSeries(num, den).equals(HilbertSeries((1, 2, 1), (1, 1)))


def test_lattice_without_positive_vector_is_rejected():
    with pytest.raises(ValueError):
        norm_generating_function(((1, -1),))


def test_point_limit_triggers_capacity_error():
    # rank-2 lattice whose cone cells have large fundamental domains
    basis = ((7, 5, 0), (-3, 0, 5))
    with pytest.raises(CapacityError):
        norm_generating_function(basis, point_limit=10)
    # the same input goes through at the default limit
    num, den = norm_generating_function(basis)
    assert HilbertSeries(num, den).expand(8).coeffs[0] == 1


def test_point_limit_is_checked_before_enumerating(monkeypatch):
    # the cap is compared with the cells' |det V| before any cell's points
    # are walked
    basis = ((7, 5, 0), (-3, 0, 5))
    seen = []
    real = latticecones._cell_series

    def counting(V, flags, bcols, n, adjugate=None):
        seen.append(adjugate[1])
        return real(V, flags, bcols, n, adjugate)

    monkeypatch.setattr(latticecones, "_cell_series", counting)
    norm_generating_function(basis)
    dets = list(seen)
    for limit in (dets[0] - 1, sum(dets) - 1):
        seen.clear()
        with pytest.raises(CapacityError):
            norm_generating_function(basis, point_limit=limit)
        assert seen == []
    seen.clear()
    norm_generating_function(basis, point_limit=sum(dets))
    assert seen == dets


def test_negative_image_point_contract():
    y = negative_image_point(((1, 1),))
    assert y is not None and len(y) == 1
    assert all(sum(yi * b for yi, b in zip(y, col)) <= -1 for col in [(1,), (1,)])
    assert negative_image_point(((1, -1),)) is None


def test_expansion_is_symmetric_and_nonnegative():
    # G_L counts lattice points, and L = -L
    num, den = norm_generating_function(((3, 1), (1, 2)))
    coeffs = HilbertSeries(num, den).expand(30).coeffs
    assert all(c >= 0 for c in coeffs)
    assert coeffs[0] == 1


def test_against_dp_on_random_stable_matrices():
    rng = random.Random(515)
    checked = 0
    while checked < 15:
        ell = rng.randint(1, 2)
        n = rng.randint(ell + 1, 5)
        A = WeightMatrix(
            tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(ell))
        )
        rep = largeness_report(A)
        if not (rep.stable and rep.faithful_up_to_finite and rep.zero_columns == 0):
            continue
        red = stable_reduction(A).reduced_matrix
        if red.module_dim == 0:
            continue
        basis = _reduced_kernel_basis(red)
        num, den = norm_generating_function(basis)
        series = HilbertSeries(num, den + (2,) * red.module_dim)
        dp = invariant_series_dp(red, 12)
        assert series.expand(12).coeffs == dp.coeffs, A.rows
        checked += 1


def test_against_dp_on_hard_wide_matrix():
    # 3 x 7 with rank-4 kernel: exercises lower-dimensional orthant pieces,
    # triangulation, and the open-facet shifts in one go
    A = WeightMatrix(
        (
            (1, 3, 3, 3, 1, 3, -3),
            (0, 0, 0, -3, 0, 0, 1),
            (-2, -2, 3, 0, -2, 0, 2),
        )
    )
    red = stable_reduction(A).reduced_matrix
    basis = _reduced_kernel_basis(red)
    num, den = norm_generating_function(basis)
    series = HilbertSeries(num, den + (2,) * red.module_dim)
    dp = invariant_series_dp(red, 14)
    assert series.expand(14).coeffs == dp.coeffs


def test_n8_module_takes_the_cone_route(monkeypatch):
    # a stable faithful n = 8 module whose decomposition fits under the
    # default point limit; the recurrence fallback must not run
    A = WeightMatrix(
        ((1, 3, 2, -2, -3, 1, 1, 2), (-2, -1, -3, 1, 2, -3, 1, -3))
    )

    def no_fallback(*args, **kwargs):
        raise AssertionError("the recurrence fallback ran")

    monkeypatch.setattr("sympquot.torus.minimal_rational_form", no_fallback)
    result = quotient_series(A)
    red = stable_reduction(A).reduced_matrix
    dp = invariant_series_dp(red, 12).mul_poly(binomial_poly_one_minus_t2(2))
    assert result.series.expand(12).coeffs == dp.coeffs
    assert result.verdict.graded_gorenstein
    assert result.verdict.dimension == 12


# ---------------------------------------------------------------------------
# the mirrored decomposition against the full walk it replaced


def cell_series_by_images(V, flags, bcols):
    """Reference: every parallelepiped point p formed in Z^k, and its
    1-norm taken from its image p.B in Z^n."""
    k = len(V)
    lam_rays = [sum(abs(_dot(v, c)) for c in bcols) for v in V]
    adj, det = _cell_adjugate(V)
    diag = _box_diagonal(V)
    coeffs = [0] * (sum(lam_rays) + 1)
    adj_cols = list(zip(*adj))
    for x0 in product(*(range(d) for d in diag)):
        alpha_num = [_dot(x0, col) for col in adj_cols]
        p = list(x0)
        for j in range(k):
            fj = alpha_num[j] // det
            if fj:
                for c in range(k):
                    p[c] -= fj * V[j][c]
            if flags[j] and alpha_num[j] % det == 0:
                for c in range(k):
                    p[c] += V[j][c]
        coeffs[sum(abs(_dot(p, col)) for col in bcols)] += 1
    return tuple(sorted(lam_rays)), coeffs


def norm_generating_function_by_all_pieces(basis):
    """Reference: every one of the 2^n orthant pieces triangulated and
    walked on its own."""
    k, n = len(basis), len(basis[0])
    y = negative_image_point(basis)
    scale = math.lcm(*(v.denominator for v in y))
    y = tuple(int(v * scale) for v in y)
    cols = [tuple(basis[i][j] for i in range(k)) for j in range(n)]
    groups = {}
    for eps in product((0, 1), repeat=n):
        normals = [col if e else tuple(-v for v in col) for col, e in zip(cols, eps)]
        rays = _extreme_rays(normals, k)
        if not rays or integer_rank(rays) < k:
            assert any(
                e and all(_dot(col, r) == 0 for r in rays) for col, e in zip(cols, eps)
            )
            continue
        for cell in _tri(list(range(len(rays))), rays, k):
            V = [rays[i] for i in cell]
            flags = _half_open_flags(_cell_adjugate(V)[0], y)
            den_key, coeffs = cell_series_by_images(V, flags, cols)
            groups[den_key] = poly_add(groups.get(den_key, ()), coeffs)
    return _combine(groups)


@st.composite
def norm_linear_cells(draw):
    """(V, flags, bcols): a nonsingular cell with k = 1..4 rays and columns
    on which every ray has an image of one sign, so that the 1-norm is
    linear on the cell.  A column is sign * adj(V) w with w >= 0: since
    V adj(V) = |det V| I, ray i has the image sign * |det V| * w_i there.
    Half the time the first ray is stretched 65-fold, so the cell has more
    than 64 points and takes the vectorised branch."""
    k = draw(st.integers(1, 4))
    V = [list(draw(st.tuples(*[st.integers(-3, 3)] * k))) for _ in range(k)]
    assume(integer_rank(V) == k)
    if draw(st.booleans()):
        V[0] = [65 * v for v in V[0]]
    adj, det = _cell_adjugate(V)
    n = draw(st.integers(1, 4))
    bcols = []
    for _ in range(n):
        w = draw(st.tuples(*[st.integers(0, 2)] * k).filter(any))
        sign = draw(st.sampled_from([1, -1]))
        bcols.append(tuple(sign * sum(adj[r][i] * w[i] for i in range(k)) for r in range(k)))
    flags = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    return [tuple(r) for r in V], flags, bcols


@settings(max_examples=120, deadline=None)
@given(norm_linear_cells())
def test_complemented_flags_reverse_the_cell_numerator(cell):
    V, flags, bcols = cell
    key, coeffs = _cell_series(V, flags, bcols, len(bcols))
    mirror_key, mirror = _cell_series(V, [not f for f in flags], bcols, len(bcols))
    assert mirror_key == key
    assert mirror == coeffs[::-1]
    assert (key, coeffs) == cell_series_by_images(V, flags, bcols)


def test_mirror_lemma_reaches_both_branches():
    # 4 points walk the loop, 130 the vectorised branch; the columns are
    # left and right multiples of adj so every ray image has one sign
    for V in (((2, 0), (1, 2)), ((2, 0), (65, 65))):
        adj, det = _cell_adjugate(V)
        bcols = [tuple(adj[r][0] for r in range(2)), tuple(-adj[r][1] for r in range(2))]
        for flags in ([False, False], [True, False], [True, True]):
            key, coeffs = _cell_series(V, flags, bcols, 2)
            assert sum(coeffs) == det
            assert _cell_series(V, [not f for f in flags], bcols, 2) == (key, coeffs[::-1])
            assert (key, coeffs) == cell_series_by_images(V, flags, bcols)


@st.composite
def stable_bases(draw):
    """A basis of k <= 4 rows and n <= 6 columns with no zero column whose
    row span meets the open positive orthant; a column may be repeated or
    doubled, which makes the pieces that split the two columns'
    signs lower-dimensional.  The mirrored decomposition walks at most 2000
    points, so that the reference's walk of twice as many stays quick."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 6))
    cols = [draw(st.tuples(*[st.integers(-3, 3)] * k).filter(any)) for _ in range(n)]
    if n < 6 and draw(st.booleans()):
        c = draw(st.sampled_from(cols))
        cols.append(tuple(draw(st.sampled_from([1, 2])) * v for v in c))
    basis = [tuple(c[i] for c in cols) for i in range(k)]
    assume(integer_rank(basis) == k)
    assume(negative_image_point(basis) is not None)
    try:
        norm_generating_function(basis, point_limit=2000)
    except CapacityError:
        assume(False)
    return basis


@settings(max_examples=40, deadline=None)
@given(stable_bases())
def test_mirrored_decomposition_matches_the_full_walk(basis):
    got = HilbertSeries(*norm_generating_function(basis))
    expected = HilbertSeries(*norm_generating_function_by_all_pieces(basis))
    assert got.equals(expected), basis
