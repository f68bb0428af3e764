"""SL2 analyzer: characters, classification, Koszul quotient series."""

import random
from collections import Counter
from itertools import combinations_with_replacement
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympquot import sl2
from sympquot.bruteforce import sl2_sym_character_brute
from sympquot.certify import CM_FAILS_CAVEAT
from sympquot.errors import CapacityError
from sympquot.laurent import LaurentCharacter
from sympquot.quadforms import (
    MomentForm,
    jacobian_rank,
    on_shell,
    shell_point_from_kernel,
)
from sympquot.sl2 import (
    NAIVE_QUOTIENT_CAVEAT,
    JacobianProbe,
    SL2Classification,
    SL2Module,
    ab_series,
    character,
    classify_largeness,
    jacobian_rank_probe,
    koszul_quotient_series,
    module_character,
    module_rep_matrices,
    moment_components_sl2,
    multiplicity,
    rep_matrices,
    sym_power_characters,
)

# ---------------------------------------------------------------------------
# modules and characters


def test_module_basics():
    V = SL2Module((1, 2, 1))
    assert V.irreps == (2, 1, 1)
    assert V.n == 7
    assert str(V) == "R2 + 2R1"
    assert str(SL2Module(())) == "0"
    W = SL2Module((0, 3, 0))
    assert W.trivial_summands == 2
    assert W.nontrivial_part().irreps == (3,)
    with pytest.raises(ValueError):
        SL2Module((1, -1))


def test_character_pinned():
    assert character(0) == LaurentCharacter({0: 1})
    assert character(2) == LaurentCharacter({-2: 1, 0: 1, 2: 1})
    assert character(2).is_symmetric()
    with pytest.raises(ValueError):
        character(-1)


def test_multiplicity_requires_symmetric():
    assert multiplicity(character(2) + character(0), 0) == 1
    assert multiplicity(character(2) + character(0), 2) == 1
    with pytest.raises(ValueError):
        multiplicity(LaurentCharacter({1: 1}), 0)


irreps_strategy = st.lists(st.integers(1, 3), min_size=1, max_size=2)


@given(irreps_strategy, st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_sym_powers_match_multiset_enumeration(irreps, d):
    V = SL2Module(irreps)
    newton = sym_power_characters(V, d)[d]
    assert newton == sl2_sym_character_brute(V.irreps, d)


# modules of dimension <= 6, trivial summands included
small_modules = st.lists(st.integers(0, 5), min_size=1, max_size=6).filter(
    lambda irreps: sum(d + 1 for d in irreps) <= 6
)


@given(small_modules, st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_sym_power_characters_match_brute_force_small_modules(irreps, D):
    V = SL2Module(irreps)
    chars = sym_power_characters(V, D)
    assert len(chars) == D + 1
    for d, chi in enumerate(chars):
        assert chi == sl2_sym_character_brute(V.irreps, d)


def newton_sym_powers(V, D):
    """Characters of Sym^d(V + V*) by Newton's identity d h_d = sum_k p_k
    h_(d-k) over weight dicts, with p_k the character of V + V* at q^k."""
    chi = Counter()
    for m, v in module_character(V).items():
        chi[m] += 2 * v
    h = [{0: 1}]
    for d in range(1, D + 1):
        acc = Counter()
        for k in range(1, d + 1):
            for m1, v1 in chi.items():
                for m2, v2 in h[d - k].items():
                    acc[k * m1 + m2] += v1 * v2
        row = {}
        for m, v in acc.items():
            q, r = divmod(v, d)
            assert r == 0
            if q:
                row[m] = q
        h.append(row)
    return [LaurentCharacter(c) for c in h]


@pytest.mark.parametrize("irreps", [(1,), (2,), (3,), (4,), (5,), (6,), (7,), (5, 5)])
def test_sym_power_characters_match_newton_identity(irreps):
    V = SL2Module(irreps)
    assert sym_power_characters(V, 30) == newton_sym_powers(V, 30)


# the SL2 ladder of the benchmark corpus
LADDER = [
    (1,), (2,), (3,), (4,), (5,), (6,), (7,),
    (1, 1), (1, 1, 1), (1, 1, 1, 1), (2, 1), (2, 2), (2, 2, 2),
    (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 4),
    (2, 1, 1), (3, 1, 1), (2, 2, 1), (5, 1), (5, 5), (3, 3, 1),
]


@pytest.mark.parametrize("irreps", LADDER)
def test_ab_series_reads_multiplicities_of_the_characters(irreps):
    V = SL2Module(irreps)
    chars = sym_power_characters(V, 40)
    ab = ab_series(V, 40)
    assert ab.a.coeffs == tuple(multiplicity(c, 0) for c in chars)
    assert ab.b.coeffs == tuple(multiplicity(c, 2) for c in chars)


def list_fold_rows(V, D):
    """The weight tables of Sym^d(V + V*) as lists over the weights
    -dW..dW, folded one weight at a time over list slices: the reference
    for the packed rows."""
    W = max(V.irreps, default=0)
    rows = [[1]] + [[0] * (2 * d * W + 1) for d in range(1, D + 1)]
    for w, count in module_character(V).items():
        for _ in range(2 * count):
            lo = W + w
            for d in range(1, D + 1):
                prev, cur = rows[d - 1], rows[d]
                hi = lo + len(prev)
                cur[lo:hi] = map(add, cur[lo:hi], prev)
    return rows


def check_against_list_fold(V, D):
    """ab_series and sym_power_characters against the list fold; returns
    its largest entry."""
    W = max(V.irreps, default=0)
    rows = list_fold_rows(V, D)
    chars = sym_power_characters(V, D)
    assert chars == [
        LaurentCharacter({m - d * W: v for m, v in enumerate(row) if v})
        for d, row in enumerate(rows)
    ]
    at = lambda row, k: row[k] if k < len(row) else 0
    a = tuple(at(row, d * W) - at(row, d * W + 2) for d, row in enumerate(rows))
    b = tuple(at(row, d * W + 2) - at(row, d * W + 4) for d, row in enumerate(rows))
    ab = ab_series(V, D)
    assert (ab.a.coeffs, ab.b.coeffs) == (a, b)
    return max(max(row) for row in rows)


@pytest.mark.parametrize("irreps", LADDER)
def test_packed_rows_match_the_list_fold_on_the_ladder(irreps):
    check_against_list_fold(SL2Module(irreps), 40)


# 2R5 at 56 has limbs past 64 bits but entries below 2^64 (at most 60 bits);
# R7 and R8 at the a-priori denominator's degrees have entries past 2^64
@pytest.mark.parametrize(
    "irreps, D, past_64", [((5, 5), 56, False), ((7,), 248, True), ((8,), 200, True)]
)
def test_packed_rows_match_the_list_fold_past_64_bits(irreps, D, past_64):
    V = SL2Module(irreps)
    assert sl2._sym_power_rows(V, D)[1] > 64  # limbs wider than a machine word
    assert (check_against_list_fold(V, D) >= 2**64) == past_64


def test_packed_rows_edge_cases():
    # n = 0: no weights to fold, and no binomial C(D - 1, -1) is formed
    for D in (0, 1, 5):
        assert check_against_list_fold(SL2Module(()), D) == 1
        assert ab_series(SL2Module(()), D).a.coeffs == (1,) + (0,) * D
    rows, B = sl2._sym_power_rows(SL2Module((3,)), 0)
    assert rows == [1] and B >= 2
    with pytest.raises(ValueError):
        sl2._sym_power_rows(SL2Module(()), -1)


def test_sym_power_characters_degree_validation():
    for fn in (sym_power_characters, ab_series):
        with pytest.raises(ValueError):
            fn(SL2Module((1,)), -1)
    assert sym_power_characters(SL2Module(()), 2) == [
        LaurentCharacter({0: 1}), LaurentCharacter(), LaurentCharacter()
    ]


def negate_weight_zero(rows, B):
    """The packed rows of R2 + R1 with the weight-0 entry of every row
    d >= 1 negated in place: that limb borrows from the one above it."""
    out = rows[:1]
    for d, row in enumerate(rows[1:], start=1):
        mid = 2 * d  # the weight-0 limb; W = 2
        c0 = (row >> B * mid) & ((1 << B) - 1)
        out.append(row - (2 * c0 << B * mid))
    return out, B


@pytest.mark.parametrize(
    "corrupt",
    [
        # one more at the lowest weight (limb 0), away from the weights
        # 0, 2, 4 that are read
        lambda rows, B: (rows[:3] + [row + 1 for row in rows[3:]], B),
        lambda rows, B: ([2] + rows[1:], B),
        lambda rows, B: ([-row if d else row for d, row in enumerate(rows)], B),
        negate_weight_zero,
        # the top bit of the weight-0 limb: an entry past the bound, in a
        # row that is still a palindrome
        lambda rows, B: (
            rows[:1] + [row + (1 << B * (2 * d + 1) - 1) for d, row in enumerate(rows[1:], 1)],
            B,
        ),
    ],
    ids=["asymmetric", "a0", "negative", "negative-weight-0", "past-the-bound"],
)
def test_ab_series_refuses_a_corrupt_weight_table(monkeypatch, corrupt):
    real = sl2._sym_power_rows
    monkeypatch.setattr(sl2, "_sym_power_rows", lambda V, D: corrupt(*real(V, D)))
    with pytest.raises(RuntimeError, match="please report this input"):
        ab_series(SL2Module((2, 1)), 6)


def test_ab_series_pinned_r2():
    # R2 + R2* is two copies of the SO(3) vector rep: the invariants are
    # the three pairwise dot products and the ring is free on them
    ab = ab_series(SL2Module((2,)), 6)
    assert ab.a.coeffs == (1, 0, 3, 0, 6, 0, 10)
    assert ab.b.coeffs[0] == 0 and ab.b.coeffs[1] == 2  # z, w copies of sl2=R2


# ---------------------------------------------------------------------------
# classification


def test_classify_largeness_gate_errors():
    with pytest.raises(ValueError):
        classify_largeness(SL2Module(()))
    with pytest.raises(ValueError):
        classify_largeness(SL2Module((2, 0)))


def test_classify_largeness_pinned():
    cls = classify_largeness(SL2Module((1,)))
    assert not cls.two_large and not cls.one_large and not cls.zero_modular
    assert cls.orbifold_case

    cls = classify_largeness(SL2Module((1, 1)))
    assert not cls.two_large and not cls.one_large and cls.zero_modular

    cls = classify_largeness(SL2Module((2,)))
    assert not cls.two_large and not cls.one_large and not cls.zero_modular
    assert cls.orbifold_case

    cls = classify_largeness(SL2Module((2, 2)))
    assert not cls.two_large and cls.one_large and cls.zero_modular
    assert not cls.orbifold_case

    cls = classify_largeness(SL2Module((5,)))
    assert cls.two_large and cls.one_large and cls.zero_modular


def test_classification_rejects_inconsistent_flags():
    with pytest.raises(RuntimeError, match="please report this input"):
        SL2Classification(
            module=SL2Module((5,)),
            two_large=True,
            one_large=False,
            orbifold_case=False,
            zero_modular=True,
        )


# ---------------------------------------------------------------------------
# action matrices, moment components, probe


def test_rep_matrices_commutators():
    def mul(X, Y):
        return tuple(
            tuple(sum(X[i][k] * Y[k][j] for k in range(len(Y))) for j in range(len(Y[0])))
            for i in range(len(X))
        )

    def sub(X, Y):
        return tuple(tuple(a - b for a, b in zip(rx, ry)) for rx, ry in zip(X, Y))

    def smul(c, X):
        return tuple(tuple(c * a for a in r) for r in X)

    for d in range(0, 7):
        e, f, h = rep_matrices(d)
        assert sub(mul(e, f), mul(f, e)) == h
        assert sub(mul(h, e), mul(e, h)) == smul(2, e)
        assert sub(mul(h, f), mul(f, h)) == smul(-2, f)
    e, f, h = module_rep_matrices(SL2Module((1, 1)))
    assert sub(mul(e, f), mul(f, e)) == h


def test_moment_components_r1_pinned():
    # R1 with coordinates (z0, z1): e z = (z1, 0), so mu^e = w(e z) = z1 w0;
    # likewise mu^f = z0 w1 and mu^h = z0 w0 - z1 w1
    mu_e, mu_f, mu_h = moment_components_sl2(SL2Module((1,)))
    assert mu_e == MomentForm({(1, 0): 1}, 2)
    assert mu_f == MomentForm({(0, 1): 1}, 2)
    assert mu_h == MomentForm({(0, 0): 1, (1, 1): -1}, 2)


def test_jacobian_probe_deterministic_and_full_rank():
    p1 = jacobian_rank_probe(SL2Module((2, 2)), trials=4, seed=3)
    p2 = jacobian_rank_probe(SL2Module((2, 2)), trials=4, seed=3)
    assert p1 == p2
    assert p1.on_shell_rank == 3  # 0-modular: generic shell point is regular
    assert p1.shell_dim_estimate == 2 * 6 - 3
    assert p1.probabilistic
    with pytest.raises(ValueError):
        jacobian_rank_probe(SL2Module((2,)), trials=0)


def full_trial_probe(V, trials, seed):
    """The probe's loop with no early stop: every trial is drawn."""
    forms = moment_components_sl2(V)
    n = V.n
    rng = random.Random(seed)
    on_rank = off_rank = 0
    running = []
    for _ in range(trials):
        z = [rng.randint(-9, 9) for _ in range(n)]
        w = [rng.randint(-9, 9) for _ in range(n)]
        r = jacobian_rank(forms, z, w)
        if on_shell(forms, z, w):
            on_rank = max(on_rank, r)
        else:
            off_rank = max(off_rank, r)
        on_rank = max(on_rank, jacobian_rank(forms, z, [0] * n))
        wk = shell_point_from_kernel(forms, z, rng)
        if wk is not None and on_shell(forms, z, wk):
            on_rank = max(on_rank, jacobian_rank(forms, z, wk))
        running.append(on_rank)
    return JacobianProbe(
        on_shell_rank=on_rank,
        off_shell_rank=off_rank,
        shell_dim_estimate=2 * n - on_rank,
        trials=trials,
        seed=seed,
        on_shell_ranks=tuple(running),
    )


@pytest.mark.parametrize("irreps", LADDER)
def test_early_stopping_probe_equals_the_full_trial_loop(irreps):
    V = SL2Module(irreps)
    for seed in (0, 1, 7):
        for trials in (4, 8):
            assert jacobian_rank_probe(V, trials, seed=seed) == full_trial_probe(
                V, trials, seed
            )


def test_probe_of_a_zero_modular_module_stops_after_one_trial(monkeypatch):
    calls = []
    real = sl2.jacobian_rank
    monkeypatch.setattr(
        sl2, "jacobian_rank", lambda *args: calls.append(1) or real(*args)
    )
    for irreps in LADDER:
        if irreps in sl2.NOT_ZERO_MODULAR:
            continue
        for seed in (0, 1, 7):
            calls.clear()
            probe = jacobian_rank_probe(SL2Module(irreps), trials=8, seed=seed)
            assert probe.on_shell_ranks == (3,) * 8
            assert len(calls) <= 3, (irreps, seed)


def test_probe_stops_only_when_both_ranks_are_full(monkeypatch):
    # the first point is counted on the shell, so after trial 1 the on-shell
    # rank is 3 and the off-shell rank 0; the probe must go on, as the full
    # loop does, to the off-shell points of the later trials
    real = on_shell

    def first_call_on_shell():
        calls = []

        def fake(*args):
            calls.append(args)
            return len(calls) == 1 or real(*args)

        return fake

    V = SL2Module((3,))
    monkeypatch.setattr(sl2, "on_shell", first_call_on_shell())
    probe = jacobian_rank_probe(V, trials=4, seed=1)
    monkeypatch.undo()
    monkeypatch.setitem(globals(), "on_shell", first_call_on_shell())
    assert probe == full_trial_probe(V, 4, 1)
    assert probe.off_shell_rank == 3


def test_koszul_reuses_a_longer_probe_with_the_same_seed(monkeypatch):
    # the first 4 of 8 trials draw the points a 4-trial probe draws, so the
    # gate can read its evidence from a longer probe with the same seed
    def no_probe(*args, **kwargs):
        raise AssertionError("the gate ran a second probe")

    for irreps in [(2, 2), (1, 1), (2, 1)]:
        V = SL2Module(irreps)
        for seed in (0, 7):
            longer = jacobian_rank_probe(V, trials=8, seed=seed)
            assert longer.on_shell_ranks[-1] == longer.on_shell_rank
            assert longer.on_shell_ranks[3] == (
                jacobian_rank_probe(V, trials=4, seed=seed).on_shell_rank
            )
            own = koszul_quotient_series(V, 24, probe_seed=seed)
            with monkeypatch.context() as m:
                m.setattr(sl2, "jacobian_rank_probe", no_probe)
                reused = koszul_quotient_series(
                    V, 24, probe_seed=seed, probe=longer
                )
            assert reused == own
    V = SL2Module((2, 2))
    for probe in (
        jacobian_rank_probe(V, trials=3, seed=0),
        jacobian_rank_probe(V, trials=8, seed=1),
    ):
        with pytest.raises(ValueError, match="probe with seed 0"):
            koszul_quotient_series(V, 24, probe=probe)


def test_pipeline_probes_each_sl2_request_once(monkeypatch):
    from sympquot import pipeline

    calls = []

    def counted(real):
        def probe(*args, **kwargs):
            calls.append(kwargs.get("trials"))
            return real(*args, **kwargs)

        return probe

    for module in (pipeline, sl2):
        monkeypatch.setattr(
            module, "jacobian_rank_probe", counted(module.jacobian_rank_probe)
        )
    report = pipeline.run(
        pipeline.parse_request({"kind": "sl2", "irreps": [2, 2], "seed": 7})
    )
    assert calls == [8]
    assert "seed 7): on-shell rank 3 (consistent)" in (
        report.body["quotient"]["complete_intersection_evidence"]
    )


# ---------------------------------------------------------------------------
# Koszul quotient series


def test_koszul_trivial_module():
    q = koszul_quotient_series(SL2Module((0, 0)), 8)
    assert q.series.numerator == (1,)
    assert q.series.denominator == (1, 1, 1, 1)
    assert q.verdict.a_invariant == -4
    assert q.verdict.graded_gorenstein
    assert q.classification is None
    assert "no moment conditions" in q.ci_evidence


def test_koszul_refuses_non_zero_modular():
    for irreps in [(1,), (2,)]:
        with pytest.raises(ValueError) as exc:
            koszul_quotient_series(SL2Module(irreps), 12)
        assert "regular sequence" in str(exc.value)


def test_koszul_mixed_with_trivial_summands():
    # R2 + R2 + 2 trivials: same core series times 1/(1-t)^4
    q = koszul_quotient_series(SL2Module((2, 2, 0, 0)), 24)
    assert q.series.numerator == (1, 0, 4, 0, 4, 0, 1)
    assert q.series.denominator == (1, 1, 1, 1, 2, 2, 2, 2, 2, 2)
    assert q.verdict.a_invariant == -10
    assert q.verdict.graded_gorenstein
    assert q.caveats == ()


def test_koszul_2r1_naive_caveat():
    q = koszul_quotient_series(SL2Module((1, 1)), 16)
    assert NAIVE_QUOTIENT_CAVEAT in q.caveats
    assert q.verdict.caveat == CM_FAILS_CAVEAT
    assert not q.verdict.graded_gorenstein
    # the one gate-passing module without the caveat-free guarantee
    assert not q.classification.one_large


def test_koszul_truncation_is_alternating_sum():
    V = SL2Module((2, 2))
    q = koszul_quotient_series(V, 24)
    ab = ab_series(V, 24)
    a, b = ab.a.coeffs, ab.b.coeffs

    def at(seq, k):
        return seq[k] if 0 <= k < len(seq) else 0

    expected = tuple(
        at(a, d) - at(b, d - 2) + at(b, d - 4) - at(a, d - 6) for d in range(25)
    )
    assert q.truncation.coeffs == expected
    assert q.series.expand(24).coeffs == expected


# ---------------------------------------------------------------------------
# candidate denominators


def sorted_multisets(pool, k, cap):
    """The reference order: every k-multiset, filtered by sum, then sorted."""
    combos = [c for c in combinations_with_replacement(pool, k) if sum(c) <= cap]
    return sorted(combos, key=lambda c: (sum(c), c))


pools = st.sets(st.integers(1, 12), max_size=6).map(sorted)


@given(pools, st.integers(0, 5), st.integers(-3, 40))
@settings(max_examples=200, deadline=None)
def test_lazy_candidates_match_sorted_filtered_combinations(pool, k, cap):
    expected = sorted_multisets(pool, k, cap)
    assert list(sl2._multisets_by_sum(pool, k, cap)) == expected
    assert sl2._count_multisets(pool, k, cap) == len(expected)


def test_lazy_candidates_edge_cases():
    assert list(sl2._multisets_by_sum([], 0, 5)) == [()]
    assert list(sl2._multisets_by_sum([], 3, 5)) == []
    assert list(sl2._multisets_by_sum([2, 3], 0, 0)) == [()]
    assert list(sl2._multisets_by_sum([2, 3], 0, -1)) == []
    assert list(sl2._multisets_by_sum([2, 3], 3, 5)) == []  # cap < 3 * 2
    assert list(sl2._multisets_by_sum([2, 3], 2, 5)) == [(2, 2), (2, 3)]
    assert sl2._count_multisets([], 0, 5) == 1
    assert sl2._count_multisets([2, 3], 3, 5) == 0


def test_candidate_count_is_capped_before_the_search(monkeypatch):
    V = SL2Module((3, 2))
    q = koszul_quotient_series(V, 40)
    tried = []
    real_search = sl2.reconstruct_search
    monkeypatch.setattr(
        sl2, "reconstruct_search", lambda *a: tried.append(a) or real_search(*a)
    )
    monkeypatch.setattr(sl2, "CANDIDATE_LIMIT", 5)
    with pytest.raises(CapacityError, match=r"exceed the limit 5"):
        koszul_quotient_series(V, 40)
    assert not tried  # refused before any candidate was tried
    # user-supplied denominators are not capped
    forced = koszul_quotient_series(V, 40, denominators=q.denominator)
    assert forced.series == q.series
