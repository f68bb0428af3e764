"""Workload corpora, made from the workload seed.

Run as its own process (``python3 corpus.py WORKLOAD SEED ROUNDS [--tiny]``)
so that nothing computed while picking modules warms the caches of the
timed process; it prints one JSON object: the warm-up request, and the
requests of each of the ROUNDS rounds.  Only ``cli-cold`` imports
sympquot here, to compute the reports the CLI must reproduce.
"""

from __future__ import annotations

import json
import random
import sys

# The stream of test_07 (random.Random(2024): ell in 1..3, n in ell+1..7,
# entries in [-3, 3], stable, faithful, finite kernel order 1, no zero
# columns), first 40 modules, leaving out the 10 whose request took more
# than 4.5 s (5.6 s to over 25 s each: one would fill a run by itself).
# The 30 kept take 3 ms to 4.2 s each, 16.5 s in all, on a 2-vCPU Xeon.
TORUS_BASE = [
    [[-2, 2, 3, 2, 0, -1, 0], [1, 2, 1, -2, -1, 1, 2]],
    [[3, 0, -3, 3, -1], [2, 0, 0, -3, 2], [2, -2, 3, -1, 0]],
    [[-3, 2, -2]],
    [[3, 1, -1, 3]],
    [[3, -3, -1, -1], [-1, -2, 1, 2]],
    [[-3, -2, 1]],
    [[1, 3, 1, 2, -3, 1]],
    [[-2, 1, 2, -1, -3, -3]],
    [[1, 3, -3, 0, -1, -3, 1], [-1, 1, -1, 2, 2, -2, -2], [1, -3, 3, 3, 3, 0, -3]],
    [[-3, 3, -1]],
    [[1, 2, -3, -3], [2, 0, -3, 3]],
    [[-3, -1, 1, 3], [1, -2, -2, 1]],
    [[3, -1, 1, -1, 0, 2], [-3, 0, 0, 3, -1, -1], [1, 1, -2, -2, 3, 3]],
    [[-1, 0, 1, -2, 2], [-1, -1, 2, 1, 3], [-2, 3, -3, 1, -2]],
    [[3, 3, 0, -2, -2], [2, 0, 3, -1, -3], [0, -3, -3, 1, -1]],
    [[1, 3, 3, -2, -3, 1], [-1, 0, -2, 1, -1, -2], [1, 3, -1, -2, 1, -2]],
    [[0, -1, -1, 0, 2], [1, 0, 1, 2, -3]],
    [[-2, 0, 2, 0, 2, -1], [1, 0, -1, -2, -3, 1], [2, 1, -1, -2, -2, 0]],
    [[1, -3, -2, 2, -3], [0, -3, -1, 3, 2]],
    [[-1, -3, -2, 1, 1], [3, 1, -1, -1, -1]],
    [[3, -1, -2, -2, -1, 3], [0, 1, -3, -2, -3, 3], [0, 2, -1, 0, -3, 0]],
    [[-3, -1, 3, 1], [0, -1, -3, 2]],
    [[2, 2, 3, 0, -2, -2, 3], [-3, 1, 2, 0, 0, 0, 0], [0, 2, -2, -3, 3, 2, 0]],
    [[-2, -2, 1, -1], [3, -3, -2, 3]],
    [[3, -1, -3, 1]],
    [[1, -3, -2, 0, 2, 1], [0, -1, -1, 1, 2, -1]],
    [[-2, -3, 1]],
    [[2, 2, 0, -2, -3], [2, -3, -1, -2, 2]],
    [[3, 0, 1, 3, -2], [2, 1, -1, -3, 1]],
    [[0, 0, -1, 1, -3], [-3, -1, -3, 0, 3]],
]

# Six of them go once more through torus.quotient_series with
# point_limit=0, so the cone decomposition gives up at once and the
# recurrence fallback (minimal_rational_form on the DP truncation,
# escalating the DP degree) answers: 1.1 s in all, with 3 to 5 DP calls
# each.  At the default point limit only modules that take minutes reach
# it.  The fallback fails on 14 of the 30 (see CHANGES.md), so these are
# picked among those it answers.
TORUS_FALLBACK = (3, 4, 11, 16, 21, 24)

SL2_LADDER = [
    [1], [2], [3], [4], [5], [6], [7],
    [1, 1], [1, 1, 1], [1, 1, 1, 1], [2, 1], [2, 2], [2, 2, 2],
    [3, 1], [3, 2], [3, 3], [4, 1], [4, 2], [4, 4],
    [2, 1, 1], [3, 1, 1], [2, 2, 1], [5, 1], [5, 5], [3, 3, 1],
]
SL2_DEGREES = (40, 48, 56)

# (ell, n) per largeness round; the cost is set by 2^n support masks.
LARGENESS_SHAPES = [(2, 12), (5, 12), (3, 13), (4, 14), (5, 14), (2, 15), (5, 15), (3, 16)]

# SL2 modules of dimension <= 6.  R5 needs degree 40: at the default 24 the
# CLI exits 3 (no candidate denominator reconstructs).
CLI_SL2 = [
    {"irreps": [1]}, {"irreps": [2]}, {"irreps": [3]}, {"irreps": [4]},
    {"irreps": [5], "degree": 40}, {"irreps": [1, 1]}, {"irreps": [1, 1, 1]},
    {"irreps": [2, 1]}, {"irreps": [2, 2]}, {"irreps": [3, 1]},
]
# Six torus modules of the test_07 stream above with n <= 4 (ell = 1 and 2).
# A fixed set, presented anew by each seed: a seed drawing its own modules
# would change the work of a run (one n = 4 draw costs twice the others).
CLI_TORUS = (2, 3, 4, 10, 11, 21)


def _rng(workload, seed, *tags):
    return random.Random(":".join(str(x) for x in (workload, seed) + tags))


def present(rows, rng):
    """The same module in other coordinates: columns permuted, torus
    coordinates permuted and inverted (a signed permutation in GL(ell, Z))."""
    n = len(rows[0])
    perm = rng.sample(range(n), n)
    out = []
    for row in rows:
        sign = rng.choice((1, -1))
        out.append([sign * row[j] for j in perm])
    rng.shuffle(out)
    return out


def torus_quotient(seed, count, tiny):
    picks = [("torus", i) for i in ((2, 3, 5, 9) if tiny else range(len(TORUS_BASE)))]
    picks += [("torus-fallback", i) for i in ((3,) if tiny else TORUS_FALLBACK)]
    rounds, labels = [], []
    for r in range(count):
        rng = _rng("torus-quotient", seed, r)
        order = rng.sample(picks, len(picks))
        rounds.append([{"kind": k, "weights": present(TORUS_BASE[i], rng)} for k, i in order])
        labels.append([f"{k}:base{i}" for k, i in order])
    warmup = {"kind": "torus", "weights": [[1, -1]]}
    return {"warmup": warmup, "rounds": rounds, "labels": labels}


def sl2_quotient(seed, count, tiny):
    if tiny:
        pairs = [(m, 40) for m in ([1], [3], [2, 1], [7])]
    else:
        pairs = [(m, d) for m in SL2_LADDER for d in SL2_DEGREES]
    rounds, labels = [], []
    for r in range(count):
        order = _rng("sl2-quotient", seed, r).sample(pairs, len(pairs))
        rounds.append([{"kind": "sl2", "irreps": m, "degree": d, "seed": seed} for m, d in order])
        labels.append([f"{m}@{d}" for m, d in order])
    warmup = {"kind": "sl2", "irreps": [3], "degree": 24, "seed": seed}
    return {"warmup": warmup, "rounds": rounds, "labels": labels}


def random_module(ell, n, rng):
    """Entries in [-3, 3], no zero column."""
    cols = []
    while len(cols) < n:
        col = [rng.randint(-3, 3) for _ in range(ell)]
        if any(col):
            cols.append(col)
    return [[c[i] for c in cols] for i in range(ell)]


def torus_largeness(seed, count, tiny):
    # The modules are the same for every seed, which draws their
    # presentations: a module's cost varies with its entries, so a seed
    # drawing its own modules would change the work of a run.
    shapes = [(2, 8), (3, 9)] if tiny else LARGENESS_SHAPES
    modules = [
        random_module(ell, n, _rng("torus-largeness", "modules", ell, n)) for ell, n in shapes
    ]
    rounds, labels = [], []
    for r in range(count):
        rng = _rng("torus-largeness", seed, r)
        order = rng.sample(range(len(shapes)), len(shapes))
        rounds.append([{"weights": present(modules[i], rng)} for i in order])
        labels.append([f"ell{shapes[i][0]}n{shapes[i][1]}" for i in order])
    warmup = {"weights": [[1, -1, 2], [0, 1, -1]]}
    return {"warmup": warmup, "rounds": rounds, "labels": labels}


def cli_cold(seed, count, tiny):
    from sympquot.pipeline import parse_request, run

    rng = _rng("cli-cold", seed)
    torus = [
        {"kind": "torus", "weights": present(TORUS_BASE[i], rng), "seed": seed}
        for i in (CLI_TORUS[:1] if tiny else CLI_TORUS)
    ]
    sl2 = [dict(kind="sl2", seed=seed, **r) for r in (CLI_SL2[2:4] if tiny else CLI_SL2)]
    texts = [json.dumps(r) for r in torus + sl2]
    expected = [run(parse_request(json.loads(t))).to_json() for t in texts]
    # every round calls every request once, in its own order
    rounds = []
    for r in range(count):
        order = list(range(len(texts)))
        _rng("cli-cold", seed, r).shuffle(order)
        rounds.append(order)
    return {"requests": texts, "expected": expected, "rounds": rounds}


WORKLOADS = {
    "torus-quotient": torus_quotient,
    "sl2-quotient": sl2_quotient,
    "torus-largeness": torus_largeness,
    "cli-cold": cli_cold,
}


if __name__ == "__main__":
    name, seed, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    json.dump(WORKLOADS[name](seed, count, "--tiny" in sys.argv[4:]), sys.stdout)
    sys.stdout.write("\n")
