"""SL2-module analysis: characters, Koszul quotient series, classification.

An SL2 module is a multiset of irreducibles R_d (binary forms of degree d,
dimension d+1).  Hilbert-series work happens on the weight characters of
the diagonal torus.  The table of each Sym^d(V + V*) over the weights
-dW..dW is one Python int, packed by Kronecker substitution in limbs of
B = bit_length(C(D + 2n - 1, 2n - 1)) + 1 bits: that binomial is
dim Sym^D(C^2n), which bounds every entry of every row, so no limb
carries and each limb's top bit stays clear.  Moment components and
Jacobian probes use the explicit integer matrices of the (e, f, h) action
on each R_d.

The quotient series is found from its truncation by trying candidate
denominators, multisets of guessed generator degrees, in increasing
(sum, multiset) order.  They are generated lazily, and their number is
checked against CANDIDATE_LIMIT before the search starts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .certify import GorensteinVerdict, stanley_check
from .errors import CapacityError
from .laurent import LaurentCharacter
from .quadforms import (
    MomentForm,
    jacobian_rank,
    on_shell,
    shell_point_from_kernel,
)
from .series import HilbertSeries, TruncatedSeries, reconstruct_search

ADJOINT_DIM = 3  # dim sl2; the shell is cut by three quadratic components
# Most candidate denominators one search may try; the SL2 ladder and R8,
# R6+R2, R4+R3, R5+R2 at degrees <= 56 need at most 13,702.
CANDIDATE_LIMIT = 250_000
# Trials of the Koszul gate's Jacobian probe; the evidence text quotes them.
KOSZUL_PROBE_TRIALS = 4


@dataclass(frozen=True)
class SL2Module:
    """Multiset of irrep labels d >= 0, stored sorted descending.

    n is the complex dimension sum(d_i + 1); trivial summands (d = 0) are
    legal and are stripped/re-multiplied by the series pipeline.
    """

    irreps: tuple[int, ...]

    def __init__(self, irreps):
        irreps = tuple(sorted((int(d) for d in irreps), reverse=True))
        if any(d < 0 for d in irreps):
            raise ValueError("irrep labels must be >= 0")
        object.__setattr__(self, "irreps", irreps)

    @property
    def n(self):
        return sum(d + 1 for d in self.irreps)

    @property
    def trivial_summands(self):
        return sum(1 for d in self.irreps if d == 0)

    def nontrivial_part(self):
        return SL2Module(tuple(d for d in self.irreps if d > 0))

    def __str__(self):
        if not self.irreps:
            return "0"
        from collections import Counter

        parts = []
        for d, m in sorted(Counter(self.irreps).items(), reverse=True):
            parts.append(f"{m}R{d}" if m > 1 else f"R{d}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# characters


def character(d) -> LaurentCharacter:
    """q^d + q^(d-2) + ... + q^(-d), the weight character of R_d."""
    if d < 0:
        raise ValueError("irrep label must be >= 0")
    return LaurentCharacter({m: 1 for m in range(-d, d + 1, 2)})


def module_character(V: SL2Module) -> LaurentCharacter:
    out = LaurentCharacter()
    for d in V.irreps:
        out = out + character(d)
    return out


def _sym_power_rows(V: SL2Module, D):
    """Packed weight tables of Sym^d(V + V*) for d = 0..D, and the limb width.

    Returns (rows, B).  Row d is an int whose limb dW + m, B bits wide, is
    the dimension of the weight-m space, for the weights -dW..dW, W the top
    weight of V.  Sym(V + V*) has character prod_w 1/(1 - t q^w)^2 over the
    weights w of V (every R_d is self-dual), so each weight, taken twice,
    updates the rows in increasing d by row_d += q^w row_(d-1): one shift
    by w + W limbs and one add.  B is one bit more than dim Sym^D(C^2n)
    needs, which bounds every entry of every partial fold.
    """
    if D < 0:
        raise ValueError("degree bound must be >= 0")
    W = max(V.irreps, default=0)
    n = V.n
    # dim Sym^D(C^0) is at most 1 (and math.comb(D - 1, -1) would raise)
    bound = math.comb(D + 2 * n - 1, 2 * n - 1) if n else 1
    B = bound.bit_length() + 1
    rows = [1] + [0] * D
    for w, count in module_character(V).items():
        shift = B * (w + W)
        for _ in range(2 * count):
            for d in range(1, D + 1):
                rows[d] += rows[d - 1] << shift
    return rows, B


def _unpack(row, width, B):
    """The first ``width`` B-bit limbs of ``row``, lowest first."""
    bits = format(row, "b").zfill(width * B)
    top = len(bits)
    return [int(bits[top - (j + 1) * B : top - j * B], 2) for j in range(width)]


def sym_power_characters(V: SL2Module, D):
    """Characters of Sym^d(V + V*) for d = 0..D, unpacked from the weight
    tables of ``_sym_power_rows``."""
    W = max(V.irreps, default=0)
    rows, B = _sym_power_rows(V, D)
    return [
        LaurentCharacter(
            {m - d * W: v for m, v in enumerate(_unpack(row, 2 * d * W + 1, B)) if v}
        )
        for d, row in enumerate(rows)
    ]


def multiplicity(chi: LaurentCharacter, m) -> int:
    """Number of R_m summands in a module with weight character chi."""
    if not chi.is_symmetric():
        raise ValueError("multiplicity needs a symmetric character")
    return chi.coeff(m) - chi.coeff(m + 2)


@dataclass(frozen=True)
class ABSeries:
    """Per-degree multiplicities in C[V + V*]: a = trivial, b = adjoint."""

    a: TruncatedSeries
    b: TruncatedSeries


def _tile(block, period, total):
    """``block`` repeated every ``period`` bits, over at least ``total`` bits."""
    while period < total:
        block |= block << period
        period *= 2
    return block


def _reversal_masks(width, B):
    """masks[s] keeps the low 2^s limbs (B bits each) of every block of
    2^(s+1) limbs, for the stages of ``_reverse_limbs`` up to ``width``."""
    k = (width - 1).bit_length() if width > 1 else 0
    return [_tile((1 << (B << s)) - 1, B << (s + 1), B << k) for s in range(k)]


def _reverse_limbs(x, width, B, masks):
    """x, an int of at most ``width`` B-bit limbs, with the limb order
    reversed: the halves of every block of 2^(s+1) limbs swap places, for
    each s below k = ceil(log2(width)), then the 2^k - width empty limbs
    are shifted out.  ``masks`` comes from ``_reversal_masks`` for a width
    at least this one."""
    k = (width - 1).bit_length() if width > 1 else 0
    for s in range(k - 1, -1, -1):
        shift, mask = B << s, masks[s]
        x = ((x & mask) << shift) | ((x >> shift) & mask)
    return x >> B * ((1 << k) - width)


def ab_series(V: SL2Module, D) -> ABSeries:
    """Multiplicities of R_0 and R_2 in Sym^d(V + V*) for d = 0..D.

    With c_m the weight-m limb of row d of ``_sym_power_rows``,
    a_d = c_0 - c_2 and b_d = c_2 - c_4, read by shift and mask.  Every row
    is first checked in full: it has no limb past its 2dW + 1, no limb with
    its top bit set (an entry no fold can reach, so also no negative entry
    borrowing from the next), and the limbs below weight 0 reversed equal
    those above it.
    """
    W = max(V.irreps, default=0)
    rows, B = _sym_power_rows(V, D)
    masks = _reversal_masks(D * W, B)
    top_bits = _tile(1 << (B - 1), B, B * (2 * D * W + 1))
    limb = (1 << B) - 1
    a, b = [], []
    for d, row in enumerate(rows):
        mid = d * W  # the limb of weight 0
        if (
            row < 0
            or row >> B * (2 * mid + 1)
            or row & top_bits
            or _reverse_limbs(row >> B * (mid + 1), mid, B, masks)
            != row & ((1 << B * mid) - 1)
        ):
            raise RuntimeError(
                f"weight table of Sym^{d}({V} + dual) is not a palindrome of "
                f"{2 * mid + 1} entries in [0, 2^{B - 1}); please report this input"
            )
        # limbs past the top weight dW are zero, so c_2 and c_4 need no bound
        window = row >> B * mid
        c0, c2, c4 = ((window >> B * m) & limb for m in (0, 2, 4))
        a.append(c0 - c2)
        b.append(c2 - c4)
    if a[0] != 1 or b[0] != 0 or min(a) < 0 or min(b) < 0:
        raise RuntimeError(
            f"trivial/adjoint multiplicities of Sym({V} + dual) are not a "
            "module's (a_0 = 1, b_0 = 0, all >= 0); please report this input"
        )
    return ABSeries(a=TruncatedSeries(a), b=TruncatedSeries(b))


# ---------------------------------------------------------------------------
# classification

# Modules (no trivial summands, sorted descending) that are not 2-large.
NON_TWO_LARGE = {
    (1,),
    (1, 1),
    (1, 1, 1),
    (2,),
    (2, 2),
    (2, 1),
    (3,),
    (4,),
}
# Among those, the ones that are not even 1-large.
NOT_ONE_LARGE = {(1,), (1, 1), (2,)}
# Quotients graded regularly symplectomorphic to linear symplectic orbifolds.
ORBIFOLD_CASES = {(1,), (1, 1), (2,), (3,), (4,)}
# Modules whose moment components fail to be a regular sequence: the shell
# of R_1 is the union of V x 0 and 0 x V* (dimension 2 > 1) and the shell
# of R_2 is the 4-dimensional commuting variety (> 3).  Every other
# nontrivial module is 1-large or, for 2R_1, has shell dimension exactly
# 2n-3 (points with all four components on a line form a 5-dim set).
NOT_ZERO_MODULAR = {(1,), (2,)}


@dataclass(frozen=True)
class SL2Classification:
    module: SL2Module
    two_large: bool
    one_large: bool
    orbifold_case: bool
    zero_modular: bool

    def __post_init__(self):
        if self.two_large and not (self.one_large and self.zero_modular):
            raise RuntimeError(
                f"{self.module} is classified 2-large but not 1-large and "
                "0-modular; please report this input"
            )


def classify_largeness(V: SL2Module) -> SL2Classification:
    """Largeness flags from the finite exceptional lists.

    Requires a nonzero module with trivial summands already stripped.
    """
    if not V.irreps:
        raise ValueError("the zero module has no largeness classification")
    if V.trivial_summands:
        raise ValueError(
            "strip trivial summands before classification (they are handled "
            "by the series pipeline)"
        )
    key = V.irreps
    two = key not in NON_TWO_LARGE
    return SL2Classification(
        module=V,
        two_large=two,
        one_large=two or key not in NOT_ONE_LARGE,
        orbifold_case=key in ORBIFOLD_CASES,
        zero_modular=key not in NOT_ZERO_MODULAR,
    )


# ---------------------------------------------------------------------------
# explicit action matrices and moment components


def rep_matrices(d):
    """(e, f, h) acting on the basis v_0..v_d of R_d, as integer matrices.

    e v_k = k v_{k-1}, f v_k = (d-k) v_{k+1}, h v_k = (d-2k) v_k; v_k has
    h-weight d-2k, so v_0 is the highest-weight vector.
    """
    if d < 0:
        raise ValueError("irrep label must be >= 0")
    size = d + 1
    e = [[0] * size for _ in range(size)]
    f = [[0] * size for _ in range(size)]
    h = [[0] * size for _ in range(size)]
    for k in range(size):
        if k > 0:
            e[k - 1][k] = k
        if k < d:
            f[k + 1][k] = d - k
        h[k][k] = d - 2 * k
    as_t = lambda M: tuple(tuple(r) for r in M)
    return as_t(e), as_t(f), as_t(h)


def module_rep_matrices(V: SL2Module):
    """Block-diagonal (e, f, h) for the whole module, blocks in irrep order."""
    n = V.n
    out = []
    for idx in range(3):
        M = [[0] * n for _ in range(n)]
        off = 0
        for d in V.irreps:
            block = rep_matrices(d)[idx]
            for i in range(d + 1):
                for j in range(d + 1):
                    M[off + i][off + j] = block[i][j]
            off += d + 1
        out.append(tuple(tuple(r) for r in M))
    return tuple(out)


def moment_components_sl2(V: SL2Module):
    """The three quadratic moment components mu^e, mu^f, mu^h on (z, w),
    where mu^A(z, w) = w(A z)."""
    return [MomentForm.from_matrix_action(M) for M in module_rep_matrices(V)]


# ---------------------------------------------------------------------------
# Jacobian probe


@dataclass(frozen=True)
class JacobianProbe:
    """Exact ranks of d(mu) at pseudo-random integer points.

    probabilistic: ranks are maxima over sampled points, so they are lower
    bounds on the generic ranks; shell_dim_estimate = 2n - on_shell_rank
    equals 2n - 3 exactly when full rank is attained on the shell.
    on_shell_ranks[k - 1] is the on-shell rank after the first k trials,
    which is what a probe with the same seed and k trials reports.  trials
    is the number asked for, also when the probe stopped early: the trials
    it skipped could not have changed either rank.
    """

    on_shell_rank: int
    off_shell_rank: int
    shell_dim_estimate: int
    trials: int
    seed: int
    on_shell_ranks: tuple[int, ...]
    probabilistic: bool = True


def jacobian_rank_probe(V: SL2Module, trials=12, *, seed=0) -> JacobianProbe:
    """Ranks of d(mu) over up to ``trials`` pseudo-random points from ``seed``.

    The Jacobian has one row per moment component, so neither rank can
    exceed len(forms) = ADJOINT_DIM.  Once both maxima reach it the probe
    stops, and the on-shell ranks of the trials left are that rank: the
    result equals that of drawing all ``trials`` points.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    forms = moment_components_sl2(V)
    n = V.n
    full = len(forms)
    rng = random.Random(seed)
    on_rank = 0
    off_rank = 0
    running = []
    for _ in range(trials):
        z = [rng.randint(-9, 9) for _ in range(n)]
        w = [rng.randint(-9, 9) for _ in range(n)]
        r = jacobian_rank(forms, z, w)
        if on_shell(forms, z, w):
            on_rank = max(on_rank, r)
        else:
            off_rank = max(off_rank, r)
        # (z, 0) is always on the shell; richer on-shell points come from
        # the exact kernel of w -> mu(z, w)
        on_rank = max(on_rank, jacobian_rank(forms, z, [0] * n))
        wk = shell_point_from_kernel(forms, z, rng)
        if wk is not None and on_shell(forms, z, wk):
            on_rank = max(on_rank, jacobian_rank(forms, z, wk))
        running.append(on_rank)
        if on_rank == off_rank == full:
            running += [full] * (trials - len(running))
            break
    return JacobianProbe(
        on_shell_rank=on_rank,
        off_shell_rank=off_rank,
        shell_dim_estimate=2 * n - on_rank,
        trials=trials,
        seed=seed,
        on_shell_ranks=tuple(running),
    )


# ---------------------------------------------------------------------------
# Koszul quotient series


NAIVE_QUOTIENT_CAVEAT = (
    "module is not 1-large: this is the Hilbert series of the naive quotient "
    "C[V+V*]^G/(mu)^G, which may differ from the complex symplectic quotient"
)


@dataclass(frozen=True)
class SL2QuotientResult:
    series: HilbertSeries
    verdict: GorensteinVerdict
    truncation: TruncatedSeries  # alternating Koszul sum, nontrivial part
    denominator: tuple[int, ...]
    classification: SL2Classification | None
    ci_evidence: str
    caveats: tuple[str, ...]


def _detect_generator_degrees(a_coeffs, limit):
    """Degrees where the invariant count exceeds what existing generators
    explain (free-monoid count); an underestimate in the presence of
    relations, so callers should augment with lcms."""
    size = min(limit + 1, len(a_coeffs))  # ways is read below ``size`` only
    ways = [1] + [0] * (size - 1)
    degrees = []
    for k in range(1, size):
        gap = a_coeffs[k] - ways[k]
        for _ in range(max(gap, 0)):
            degrees.append(k)
            for i in range(k, len(ways)):
                ways[i] += ways[i - k]
    return degrees


def _count_multisets(pool, k, cap):
    """Number of k-multisets from the distinct values in pool with sum <= cap,
    by a DP over (size, sum)."""
    if k < 0 or cap < 0:
        return 0
    ways = [[1] + [0] * cap] + [[0] * (cap + 1) for _ in range(k)]
    for x in pool:
        for j in range(1, k + 1):
            prev, cur = ways[j - 1], ways[j]
            for s in range(x, cap + 1):
                cur[s] += prev[s - x]
    return sum(ways[k])


def _multisets_by_sum(pool, k, cap):
    """The k-multisets of the sorted distinct values in pool with sum <= cap,
    as sorted tuples in increasing (sum, tuple) order, generated lazily.

    The same sequence as sorting the filtered combinations_with_replacement,
    without walking the multisets whose sum is over cap.
    """
    if k < 0:
        raise ValueError("multiset size must be >= 0")
    if k == 0:
        if cap >= 0:
            yield ()
        return
    if not pool:
        return
    top = pool[-1]
    out = [0] * k

    def fill(pos, start, total, target):
        left = k - pos
        for i in range(start, len(pool)):
            x = pool[i]
            if total + x * left > target:
                break
            if total + x + top * (left - 1) < target:
                continue
            out[pos] = x
            if left == 1:
                yield tuple(out)
            else:
                yield from fill(pos + 1, i, total + x, target)

    for target in range(k * pool[0], cap + 1):
        yield from fill(0, 0, 0, target)


def koszul_quotient_series(
    V: SL2Module, D=24, denominators=None, *, guard=4, probe_seed=0, probe=None
) -> SL2QuotientResult:
    """Quotient Hilbert series via the Koszul alternating sum.

    For a complete-intersection shell (three quadratic components forming a
    regular sequence), H(t) = a(t) - t^2 b(t) + t^4 b(t) - t^6 a(t), using
    Lambda^2(sl2) = sl2 and Lambda^3(sl2) trivial.  Trivial summands are
    stripped first and re-multiplied as 1/(1-t)^(2m).  The gate combines
    the exact classification list with a Jacobian rank probe and reports
    which evidence was used.

    Without ``denominators`` the candidates are the multisets of 2n - 6
    exponents, from the guessed generator degrees and their lcms, with sum
    at most D - guard; more than CANDIDATE_LIMIT of them raise
    CapacityError before any is tried.

    The gate's probe has KOSZUL_PROBE_TRIALS trials with seed
    ``probe_seed``.  A caller that has already probed the nontrivial part
    with that seed and at least as many trials passes it as ``probe``; its
    first trials draw the same points, so no second probe is run.
    """
    m0 = V.trivial_summands
    core = V.nontrivial_part()
    if not core.irreps:
        series = HilbertSeries((1,), (1,) * (2 * m0))
        return SL2QuotientResult(
            series=series,
            verdict=stanley_check(series, cohen_macaulay_domain=True),
            truncation=TruncatedSeries((1,) + (0,) * D),
            denominator=(),
            classification=None,
            ci_evidence="trivial module: no moment conditions",
            caveats=(),
        )

    cls = classify_largeness(core)
    if probe is None:
        probe = jacobian_rank_probe(
            core, trials=KOSZUL_PROBE_TRIALS, seed=probe_seed
        )
    elif probe.seed != probe_seed or probe.trials < KOSZUL_PROBE_TRIALS:
        raise ValueError(
            f"the gate needs a probe with seed {probe_seed} and at least "
            f"{KOSZUL_PROBE_TRIALS} trials, not seed {probe.seed} with "
            f"{probe.trials}"
        )
    on_rank = probe.on_shell_ranks[KOSZUL_PROBE_TRIALS - 1]
    consistent = on_rank == ADJOINT_DIM
    evidence = (
        f"classification list (exact): {core} is "
        f"{'0-modular' if cls.zero_modular else 'not 0-modular'}; "
        f"jacobian probe (probabilistic, seed {probe_seed}): on-shell rank "
        f"{on_rank} ({'consistent' if consistent == cls.zero_modular else 'tension — trusting the exact list'})"
    )
    if not cls.zero_modular:
        raise ValueError(
            f"moment components of {core} do not form a regular sequence; "
            f"the Koszul alternating sum does not apply [{evidence}]"
        )

    ab = ab_series(core, D)
    a, b = ab.a.coeffs, ab.b.coeffs

    def at(seq, k):
        return seq[k] if 0 <= k < len(seq) else 0

    trunc = TruncatedSeries(
        tuple(
            at(a, d) - at(b, d - 2) + at(b, d - 4) - at(a, d - 6)
            for d in range(D + 1)
        )
    )

    den_count = 2 * core.n - 6
    if denominators is not None:
        candidates = [tuple(sorted(int(e) for e in denominators))]
    else:
        cap = D - guard
        pool = sorted(set(_detect_generator_degrees(a, min(cap, 16))))
        extra = {math.lcm(x, y) for x in pool for y in pool if math.lcm(x, y) <= cap}
        if pool and math.lcm(*pool) <= cap:
            extra.add(math.lcm(*pool))
        pool = sorted(set(pool) | extra)
        count = _count_multisets(pool, den_count, cap)
        if count > CANDIDATE_LIMIT:
            raise CapacityError(
                f"{count} candidate denominators of {den_count} exponents from "
                f"{pool} with sum <= {cap} exceed the limit {CANDIDATE_LIMIT}; "
                "supply denominators"
            )
        candidates = _multisets_by_sum(pool, den_count, cap)

    closed, used = reconstruct_search(trunc, candidates, guard, den_count)
    series = HilbertSeries(closed.numerator, closed.denominator + (1,) * (2 * m0))

    caveats = []
    if not cls.one_large:
        caveats.append(NAIVE_QUOTIENT_CAVEAT)
    # 1-large => the quotient is a Cohen-Macaulay domain; the only
    # non-1-large module passing the gate is 2R_1, known non-CM.
    cm = True if cls.one_large else False
    verdict = stanley_check(series, cohen_macaulay_domain=cm)
    return SL2QuotientResult(
        series=series,
        verdict=verdict,
        truncation=trunc,
        denominator=used,
        classification=cls,
        ci_evidence=evidence,
        caveats=tuple(caveats),
    )
