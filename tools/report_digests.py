"""One SHA-1 per machine report, to show that a change leaves answers alone.

    python3 tools/report_digests.py [--src DIR] > digests.txt

Each line is ``<label> <sha1>``, where the digest is taken over the
report's machine format (``AnalysisReport.to_json``, what ``analyze
--format machine`` prints).  The requests:

- ``test07:<i>``: the 50 torus modules of test_07 (the ``random.Random(2024)``
  stream of tests/test_acceptance.py) at the default degree;
- ``sl2@<degree>:<irreps>``: the SL2 ladder of perfbench/corpus.py at
  degrees 24, 40, 48 and 56;
- ``sl2-oracle:<irreps>``: the ladder at degree 40 with ``"oracle": true``,
  which checks the characters against the brute-force enumeration;
- ``sl2-extra:<irreps>``: R4+R3, R6+R1 and R5+R2 at degree 40, which end
  in a ``ReconstructionError`` report after a long candidate search;
- ``sl2-seed<s>:<irreps>``: the ladder at degree 24 with ``"seed": s`` for
  s = 1 ... 5, since the Jacobian probe draws its points from the seed;
- ``cli-torus:<i>``: the six torus requests of the ``cli-cold`` workload,
  presented as seed 1 presents them;
- ``n8``: a stable faithful n = 8 torus module (``N8_MODULE``) that goes
  through the cone decomposition.

A request that ends in ``CapacityError`` is digested as its message.  Then
one ``largeness:ell<ell>n<n>`` line per module of the ``torus-largeness``
workload (drawn as ``corpus.torus_largeness`` draws them, unpresented)
digests ``repr(shell_diagnostics(A))``, which holds the largeness report
too.  Last, one ``series:<label>`` line per torus request digests its
quotient series in lowest terms: numerator and denominator with
denominator constant term 1, reduced by this script's own polynomial gcd
(``lowest_terms``), never by sympquot's.  A change that only
re-expresses a series over other factors (1 - t^e) changes the report's
line and leaves its ``series:`` line alone.  The package is imported
from ``--src`` (default: this checkout's ``src``), so running the script
once with each of two checkouts' ``src`` and diffing the outputs
compares their reports.  It takes about 20 s on a 2-vCPU host, most of
it in the test_07 modules; the n = 8 module takes about 2 s of it, but
about two minutes with a cone decomposition that finds extreme rays by
scanning subsets of normals.  The largeness lines take about 1 s, but
about 8 s where largeness ranks all 2^n column subsets.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

N8_MODULE = [[1, 3, 2, -2, -3, 1, 1, 2], [-2, -1, -3, 1, 2, -3, 1, -3]]


def test07_modules():
    """The 50 weight matrices test_07 draws, in its order."""
    from sympquot.torus import WeightMatrix, largeness_report

    rng = random.Random(2024)
    cases = []
    while len(cases) < 50:
        ell = rng.randint(1, 3)
        n = rng.randint(ell + 1, 7)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(ell)]
        rep = largeness_report(WeightMatrix(rows))
        if (
            rep.stable
            and rep.faithful_up_to_finite
            and rep.finite_kernel_order == 1
            and rep.zero_columns == 0
        ):
            cases.append(rows)
    return cases


def requests():
    """(label, request object) pairs, in a fixed order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus

    out = [
        (f"test07:{i}", {"kind": "torus", "weights": rows})
        for i, rows in enumerate(test07_modules())
    ]
    label = lambda irreps: "+".join(map(str, irreps))
    out += [
        (f"sl2@{degree}:{label(irreps)}", {"kind": "sl2", "irreps": irreps, "degree": degree})
        for degree in (24, 40, 48, 56)
        for irreps in corpus.SL2_LADDER
    ]
    out += [
        (f"sl2-oracle:{label(irreps)}", {"kind": "sl2", "irreps": irreps, "degree": 40, "oracle": True})
        for irreps in corpus.SL2_LADDER
    ]
    out += [
        (f"sl2-extra:{label(irreps)}", {"kind": "sl2", "irreps": irreps, "degree": 40})
        for irreps in ([4, 3], [6, 1], [5, 2])
    ]
    out += [
        (f"sl2-seed{seed}:{label(irreps)}", {"kind": "sl2", "irreps": irreps, "degree": 24, "seed": seed})
        for seed in range(1, 6)
        for irreps in corpus.SL2_LADDER
    ]
    # as corpus.cli_cold draws them, without computing its expected reports
    rng = corpus._rng("cli-cold", 1)
    out += [
        (f"cli-torus:{i}", {"kind": "torus", "weights": corpus.present(corpus.TORUS_BASE[i], rng), "seed": 1})
        for i in corpus.CLI_TORUS
    ]
    out.append(("n8", {"kind": "torus", "weights": N8_MODULE}))
    return out


def _pseudo_remainder(a, b):
    """Remainder of lead(b)^(deg a - deg b + 1) a on division by b, for
    integer coefficient lists indexed by degree, b with a nonzero top."""
    rem = list(a)
    lead, deg = b[-1], len(b) - 1
    for k in range(len(a) - 1 - deg, -1, -1):
        c = rem[k + deg]
        rem = [lead * x for x in rem[: k + deg]]
        for j in range(deg):
            rem[k + j] -= c * b[j]
    while rem and not rem[-1]:
        rem.pop()
    return rem


def _primitive(p):
    g = math.gcd(*p)
    return [x // g for x in p]


def _gcd_poly(a, b):
    """gcd over the rationals, as a primitive integer polynomial: Euclid's
    algorithm with each remainder made primitive, which keeps the
    coefficients small where a remainder sequence over Fractions grows
    them with every step."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _pseudo_remainder(a, b)
        if b:
            b = _primitive(b)
    return a


def _exact_div(num, den):
    """num / den for integer polynomials, den with top coefficient +-1;
    the remainder is required to vanish."""
    rem = list(num)
    lead, deg = den[-1], len(den) - 1
    lower = [(j, d) for j, d in enumerate(den[:deg]) if d]
    for k in range(len(num) - 1 - deg, -1, -1):
        c = rem[k + deg] * lead
        rem[k + deg] = c
        if c:
            for j, d in lower:
                rem[k + j] -= c * d
    if any(rem[:deg]):
        raise ArithmeticError("inexact polynomial division")
    return rem[deg:]


def _mul_poly(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def lowest_terms(numerator, exponents):
    """numerator / prod (1 - t^e) in lowest terms, denominator constant
    term 1.  Each factor 1 - t^e is square-free, so cancelling its gcd
    with what is left of the numerator, one factor at a time, leaves no
    common factor; the numerator is folded modulo t^e - 1 first, which
    keeps every gcd at degree below e.  A primitive gcd of two integer
    polynomials that divides 1 - t^e has top coefficient +-1 (Gauss's
    lemma), so every division stays over the integers."""
    num = list(numerator)
    while num and not num[-1]:
        num.pop()
    if not num:
        return [], [1]
    den = [1]
    for e in exponents:
        factor = [1] + [0] * (e - 1) + [-1]
        folded = [sum(num[i::e]) for i in range(e)]
        while folded and not folded[-1]:
            folded.pop()
        g = _gcd_poly(factor, folded) if folded else factor
        num = _exact_div(num, g)
        den = _mul_poly(den, _exact_div(factor, g))
    return [c * den[0] for c in num], [c * den[0] for c in den]


def series_digest(body):
    """SHA-1 of a torus report's quotient series in lowest terms."""
    series = body.get("quotient", {}).get("series")
    if series is None:
        text = "no series"
    else:
        num, den = lowest_terms(series["numerator"], series["denominator_exponents"])
        text = repr((num, den))
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def largeness_modules():
    """(label, weight rows) of the torus-largeness modules, in corpus order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus

    return [
        (
            f"largeness:ell{ell}n{n}",
            corpus.random_module(ell, n, corpus._rng("torus-largeness", "modules", ell, n)),
        )
        for ell, n in corpus.LARGENESS_SHAPES
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding the sympquot package")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # the reports are compared under the hash seed the benchmark uses
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__] + sys.argv[1:], env)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from sympquot.errors import CapacityError
    from sympquot.pipeline import parse_request, run
    from sympquot.torus import WeightMatrix, shell_diagnostics

    series_lines = []
    for label, obj in requests():
        body = {}
        try:
            report = run(parse_request(obj))
            body, text = report.body, report.to_json()
        except CapacityError as exc:
            text = f"CapacityError: {exc}"
        print(label, hashlib.sha1(text.encode("utf-8")).hexdigest(), flush=True)
        if obj["kind"] == "torus":
            series_lines.append(f"series:{label} {series_digest(body)}")
    for label, rows in largeness_modules():
        text = repr(shell_diagnostics(WeightMatrix(rows)))
        print(label, hashlib.sha1(text.encode("utf-8")).hexdigest(), flush=True)
    for line in series_lines:
        print(line, flush=True)


if __name__ == "__main__":
    main()
