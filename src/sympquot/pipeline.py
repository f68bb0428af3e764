"""Request parsing and report assembly shared by the CLI and tests.

A request is a single JSON object:

    {"kind": "torus", "weights": [[1, -1]], "degree": 20}
    {"kind": "sl2", "irreps": [2, 1], "degree": 30, "denominators": [2,2,3,6]}

Optional fields: degree (default 24), denominators, oracle (bool), seed.
``run`` produces an AnalysisReport whose dict form is JSON-ready and fully
deterministic for a given request + seed (no wall-clock content).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .bruteforce import invariant_monomial_counts, sl2_sym_character_brute
from .certify import shell_a_invariant
from .errors import ReconstructionError, SchemaError
from .series import HilbertSeries, binomial_poly_one_minus_t2
from .sl2 import (
    SL2Module,
    classify_largeness,
    jacobian_rank_probe,
    koszul_quotient_series,
    multiplicity,
    sym_power_characters,
)
from .torus import (
    WeightMatrix,
    invariant_series_dp,
    quotient_series,
    shell_diagnostics,
    shell_hilbert,
    stable_reduction,
)

DEFAULT_DEGREE = 24
GUARD = 4
TORUS_ORACLE_DIM_LIMIT = 3
TORUS_ORACLE_DEGREE = 8
SL2_ORACLE_DEGREE = 4

_ALLOWED_KEYS = {"kind", "weights", "irreps", "degree", "denominators", "oracle", "seed"}


@dataclass(frozen=True)
class AnalysisRequest:
    kind: str
    weights: tuple | None
    irreps: tuple | None
    degree: int
    denominators: tuple | None
    oracle: bool
    seed: int


def _require_int(value, field, minimum=None):
    if type(value) is not int:  # bools are ints; reject them too
        raise SchemaError("expected an integer", field=field)
    if minimum is not None and value < minimum:
        raise SchemaError(f"must be >= {minimum}", field=field)
    return value


def parse_request(obj) -> AnalysisRequest:
    """Validate a decoded request object; SchemaError names the bad field."""
    if not isinstance(obj, dict):
        raise SchemaError("request must be a JSON object")
    for key in obj:
        if key not in _ALLOWED_KEYS:
            raise SchemaError("unknown field", field=key)

    kind = obj.get("kind")
    if kind not in ("torus", "sl2"):
        raise SchemaError('must be "torus" or "sl2"', field="kind")

    weights = irreps = None
    if kind == "torus":
        if "irreps" in obj:
            raise SchemaError('not allowed when kind is "torus"', field="irreps")
        raw = obj.get("weights")
        if not isinstance(raw, list) or not raw:
            raise SchemaError("must be a non-empty list of rows", field="weights")
        rows = []
        for i, row in enumerate(raw):
            if not isinstance(row, list) or not row:
                raise SchemaError(
                    f"row {i} must be a non-empty list of integers", field="weights"
                )
            for x in row:
                _require_int(x, "weights")
            rows.append(tuple(row))
        if len({len(r) for r in rows}) != 1:
            raise SchemaError("rows must all have the same length", field="weights")
        weights = tuple(rows)
    else:
        if "weights" in obj:
            raise SchemaError('not allowed when kind is "sl2"', field="weights")
        raw = obj.get("irreps")
        if not isinstance(raw, list):
            raise SchemaError("must be a list of integers >= 0", field="irreps")
        for x in raw:
            _require_int(x, "irreps", minimum=0)
        irreps = tuple(raw)

    degree = _require_int(obj.get("degree", DEFAULT_DEGREE), "degree", minimum=0)

    denominators = None
    if obj.get("denominators") is not None:
        raw = obj["denominators"]
        if not isinstance(raw, (list, tuple)) or not raw:
            raise SchemaError(
                "must be a non-empty list of exponents >= 1", field="denominators"
            )
        for e in raw:
            _require_int(e, "denominators", minimum=1)
        denominators = tuple(raw)
        if degree < sum(denominators) + GUARD:
            raise SchemaError(
                f"degree {degree} is too small for denominators of total degree "
                f"{sum(denominators)} with guard {GUARD}",
                field="degree",
            )

    oracle = obj.get("oracle", False)
    if type(oracle) is not bool:
        raise SchemaError("must be true or false", field="oracle")
    seed = _require_int(obj.get("seed", 0), "seed")

    return AnalysisRequest(
        kind=kind,
        weights=weights,
        irreps=irreps,
        degree=degree,
        denominators=denominators,
        oracle=oracle,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# report assembly


def _series_dict(H: HilbertSeries):
    return {
        "numerator": list(H.numerator),
        "denominator_exponents": list(H.denominator),
        "display": str(H),
    }


def _verdict_dict(v):
    return {
        "dimension": v.dimension,
        "a_invariant": v.a_invariant,
        "functional_equation_holds": v.functional_equation_holds,
        "graded_gorenstein": v.graded_gorenstein,
        "caveat": v.caveat,
    }


def _reconstruction_error_dict(exc):
    return {
        "error": str(exc),
        "truncation": (
            list(exc.truncation.coeffs) if exc.truncation is not None else None
        ),
        "tried_denominators": [list(t) for t in exc.tried],
    }


@dataclass
class AnalysisReport:
    kind: str
    body: dict
    reconstruction_failed: bool = False

    def to_dict(self):
        return self.body

    def to_json(self):
        return json.dumps(self.body, sort_keys=True, indent=2) + "\n"

    def render_text(self):
        if self.kind == "torus":
            lines = _torus_text(self.body)
        else:
            lines = _sl2_text(self.body)
        return "\n".join(lines) + "\n"


def run(request: AnalysisRequest) -> AnalysisReport:
    """Dispatch a validated request; CapacityError propagates to the caller,
    ReconstructionError is embedded (truncation preserved) and flagged."""
    if request.kind == "torus":
        return _run_torus(request)
    return _run_sl2(request)


def _run_torus(req: AnalysisRequest) -> AnalysisReport:
    A = WeightMatrix(req.weights)
    caveats = []
    body = {
        "kind": "torus",
        "degree": req.degree,
        "seed": req.seed,
        "input": {
            "weights": [list(r) for r in A.rows],
            "torus_rank": A.torus_rank,
            "module_dim": A.module_dim,
        },
    }

    trace = stable_reduction(A)
    body["reduction"] = {
        "kept_columns": list(trace.kept_columns),
        "removed_trivial_columns": trace.removed_trivial_columns,
        "reduced_weights": [list(r) for r in trace.reduced_matrix.rows],
        "reduced_rank": trace.reduced_rank,
        "reduced_dim": trace.reduced_dim,
    }

    diag = shell_diagnostics(A)
    large = diag.largeness
    body["largeness"] = {
        "stable": large.stable,
        "faithful_up_to_finite": large.faithful_up_to_finite,
        "fpig": large.fpig,
        "max_k_modular": large.max_k_modular,
        "one_large": large.one_large,
        "dim_bound_ok": large.dim_bound_ok,
        "finite_kernel_order": large.finite_kernel_order,
        "zero_columns": large.zero_columns,
    }

    if diag.zero_modular:
        shell = shell_hilbert(A)
        body["shell"] = {
            "series": _series_dict(shell),
            "a_invariant": diag.shell_a_invariant,
            "dimension": diag.shell_dim,
        }
    else:
        body["shell"] = {
            "omitted": (
                "moment components are not a regular sequence "
                "(module is not 0-modular)"
            ),
            "dimension": diag.shell_dim,
        }

    body["singularities"] = {
        "zero_modular": diag.zero_modular,
        "shell_dim": diag.shell_dim,
        "infinite_isotropy_dim": diag.infinite_isotropy_dim,
        "singular_locus_dim": diag.singular_locus_dim,
        "normal": diag.normal,
        "normal_reason": diag.normal_reason,
        "rational_singularities": diag.rational_singularities,
        "rational_reason": diag.rational_reason,
    }
    caveats.extend(diag.caveats)

    failed = False
    try:
        q = quotient_series(A, req.degree, req.denominators)
        body["quotient"] = {
            "series": _series_dict(q.series),
            "verdict": _verdict_dict(q.verdict),
            "denominator_exponents": list(q.denominator),
            "generator_degrees": list(q.generator_degrees),
            "truncation": list(q.truncation.coeffs),
        }
        if q.verdict.caveat:
            caveats.append(q.verdict.caveat)
    except ReconstructionError as exc:
        failed = True
        body["quotient"] = _reconstruction_error_dict(exc)

    if req.oracle:
        body["oracle"] = _torus_oracle(A, req.degree)

    body["caveats"] = sorted(set(caveats))
    return AnalysisReport("torus", body, failed)


def _torus_oracle(A: WeightMatrix, degree):
    if A.module_dim > TORUS_ORACLE_DIM_LIMIT:
        return {
            "skipped": (
                f"brute-force monomial enumeration limited to "
                f"n <= {TORUS_ORACLE_DIM_LIMIT}"
            )
        }
    d = min(degree, TORUS_ORACLE_DEGREE)
    brute = invariant_monomial_counts(A, d)
    dp = invariant_series_dp(A, d)
    return {
        "degree": d,
        "invariant_counts_enumerated": brute,
        "invariant_counts_dp": list(dp.coeffs),
        "agree": brute == list(dp.coeffs),
    }


def _run_sl2(req: AnalysisRequest) -> AnalysisReport:
    V = SL2Module(req.irreps)
    caveats = []
    body = {
        "kind": "sl2",
        "degree": req.degree,
        "seed": req.seed,
        "input": {
            "irreps": list(V.irreps),
            "module": str(V),
            "dim": V.n,
            "trivial_summands": V.trivial_summands,
        },
    }

    core = V.nontrivial_part()
    zero_modular = None
    probe = None
    if core.irreps:
        cls = classify_largeness(core)
        zero_modular = cls.zero_modular
        body["classification"] = {
            "module": str(core),
            "two_large": cls.two_large,
            "one_large": cls.one_large,
            "orbifold_case": cls.orbifold_case,
            "zero_modular": cls.zero_modular,
        }
        probe = jacobian_rank_probe(core, trials=8, seed=req.seed)
        body["jacobian_probe"] = {
            "on_shell_rank": probe.on_shell_rank,
            "off_shell_rank": probe.off_shell_rank,
            "shell_dim_estimate": probe.shell_dim_estimate,
            "trials": probe.trials,
            "seed": probe.seed,
            "probabilistic": probe.probabilistic,
        }
    else:
        body["classification"] = {"note": "module has no nontrivial summands"}

    if zero_modular:
        shell = HilbertSeries(binomial_poly_one_minus_t2(3), (1,) * (2 * V.n))
        body["shell"] = {
            "series": _series_dict(shell),
            "a_invariant": shell_a_invariant(3, V.n),
            "dimension": 2 * V.n - 3,
        }
    elif core.irreps:
        body["shell"] = {
            "omitted": (
                "moment components are not a regular sequence "
                "(module is not 0-modular)"
            )
        }
    else:
        body["shell"] = {
            "series": _series_dict(HilbertSeries((1,), (1,) * (2 * V.n))),
            "note": "zero moment map: the shell is all of V + V*",
        }

    failed = False
    try:
        q = koszul_quotient_series(
            V, req.degree, req.denominators, probe_seed=req.seed, probe=probe
        )
        body["quotient"] = {
            "series": _series_dict(q.series),
            "verdict": _verdict_dict(q.verdict),
            "denominator_exponents": list(q.denominator),
            "truncation": list(q.truncation.coeffs),
            "complete_intersection_evidence": q.ci_evidence,
        }
        caveats.extend(q.caveats)
        if q.verdict.caveat:
            caveats.append(q.verdict.caveat)
    except ValueError as exc:
        # the complete-intersection gate refused; still a valid report
        body["quotient"] = {"unavailable": str(exc)}
    except ReconstructionError as exc:
        failed = True
        body["quotient"] = _reconstruction_error_dict(exc)

    if req.oracle:
        body["oracle"] = _sl2_oracle(V, req.degree)

    body["caveats"] = sorted(set(caveats))
    return AnalysisReport("sl2", body, failed)


def _sl2_oracle(V: SL2Module, degree):
    d = min(degree, SL2_ORACLE_DEGREE)
    chars = sym_power_characters(V, d)
    per_degree = []
    ok = True
    for k in range(d + 1):
        agree = sl2_sym_character_brute(V.irreps, k) == chars[k]
        ok = ok and agree
        per_degree.append(
            {
                "degree": k,
                "trivial_multiplicity": multiplicity(chars[k], 0),
                "adjoint_multiplicity": multiplicity(chars[k], 2),
                "agree": agree,
            }
        )
    return {"degree": d, "per_degree": per_degree, "agree": ok}


# ---------------------------------------------------------------------------
# text rendering


def _yn(flag):
    return "yes" if flag else "no"


def _matrix_lines(rows, indent="  "):
    if not rows:
        return [indent + "(empty)"]
    width = max(len(str(x)) for r in rows for x in r) if rows[0] else 1
    return [
        indent + "[ " + "  ".join(str(x).rjust(width) for x in r) + " ]"
        for r in rows
    ]


def _series_lines(sd, indent="  "):
    return [f"{indent}series: {sd['display']}"]


def _quotient_lines(q):
    lines = ["quotient:"]
    if "unavailable" in q:
        lines.append(f"  not computed: {q['unavailable']}")
        return lines
    if "error" in q:
        lines.append(f"  reconstruction failed: {q['error']}")
        if q.get("truncation") is not None:
            lines.append(f"  truncated coefficients: {q['truncation']}")
        return lines
    lines.extend(_series_lines(q["series"]))
    v = q["verdict"]
    lines.append(
        f"  dimension: {v['dimension']}    a-invariant: {v['a_invariant']}"
    )
    lines.append(
        f"  functional equation: {_yn(v['functional_equation_holds'])}    "
        f"graded Gorenstein: {_yn(v['graded_gorenstein'])}"
    )
    if v["caveat"]:
        lines.append(f"  caveat: {v['caveat']}")
    if q.get("generator_degrees"):
        lines.append(
            "  generator degrees: "
            + " ".join(str(d) for d in q["generator_degrees"])
        )
    if q.get("complete_intersection_evidence"):
        lines.append(f"  gate evidence: {q['complete_intersection_evidence']}")
    return lines


def _shell_lines(shell):
    lines = ["shell:"]
    if "omitted" in shell:
        lines.append(f"  omitted: {shell['omitted']}")
    else:
        lines.extend(_series_lines(shell["series"]))
        if "a_invariant" in shell:
            lines.append(f"  a-invariant: {shell['a_invariant']}")
    if "dimension" in shell:
        lines.append(f"  dimension: {shell['dimension']}")
    if "note" in shell:
        lines.append(f"  note: {shell['note']}")
    return lines


def _oracle_lines(o):
    lines = ["oracle:"]
    if "skipped" in o:
        lines.append(f"  skipped: {o['skipped']}")
        return lines
    lines.append(
        f"  cross-check to degree {o['degree']}: "
        + ("agree" if o["agree"] else "DISAGREE")
    )
    if "invariant_counts_enumerated" in o:
        lines.append(f"  enumerated: {o['invariant_counts_enumerated']}")
        lines.append(f"  dp:         {o['invariant_counts_dp']}")
    return lines


def _caveat_lines(caveats):
    if not caveats:
        return ["caveats: none"]
    return ["caveats:"] + [f"  - {c}" for c in caveats]


def _torus_text(b):
    lines = [f"torus analysis (degree {b['degree']}, seed {b['seed']})"]
    inp = b["input"]
    lines.append(
        f"weight matrix (rank {inp['torus_rank']}, n = {inp['module_dim']}):"
    )
    lines.extend(_matrix_lines(inp["weights"]))
    lines.append("")

    red = b["reduction"]
    lines.append("reduction:")
    kept = " ".join(str(j + 1) for j in red["kept_columns"]) or "(none)"
    lines.append(f"  kept columns: {kept}")
    lines.append(f"  removed trivial columns: {red['removed_trivial_columns']}")
    lines.append(
        f"  reduced matrix (rank {red['reduced_rank']}, "
        f"n = {red['reduced_dim']}):"
    )
    lines.extend(_matrix_lines(red["reduced_weights"]))
    lines.append("")

    lg = b["largeness"]
    lines.append("largeness:")
    lines.append(
        f"  stable: {_yn(lg['stable'])}    faithful (up to finite kernel): "
        f"{_yn(lg['faithful_up_to_finite'])}    fpig: {_yn(lg['fpig'])}"
    )
    lines.append(
        f"  max k-modular: {lg['max_k_modular']}    1-large: "
        f"{_yn(lg['one_large'])}    dim bound ok: {_yn(lg['dim_bound_ok'])}"
    )
    order = lg["finite_kernel_order"]
    lines.append(
        f"  finite kernel order: {order if order is not None else 'n/a'}    "
        f"zero columns: {lg['zero_columns']}"
    )
    lines.append("")

    lines.extend(_shell_lines(b["shell"]))
    lines.append("")

    s = b["singularities"]
    lines.append("singularities:")
    lines.append(
        f"  0-modular: {_yn(s['zero_modular'])}    shell dim: {s['shell_dim']}"
        f"    infinite-isotropy dim: {s['infinite_isotropy_dim']}"
    )
    sing = s["singular_locus_dim"]
    lines.append(
        f"  singular locus dim: {sing if sing is not None else 'n/a'}"
    )
    lines.append(f"  normal: {s['normal']}  ({s['normal_reason']})")
    lines.append(
        f"  rational singularities: {s['rational_singularities']}  "
        f"({s['rational_reason']})"
    )
    lines.append("")

    lines.extend(_quotient_lines(b["quotient"]))
    if "oracle" in b:
        lines.append("")
        lines.extend(_oracle_lines(b["oracle"]))
    lines.append("")
    lines.extend(_caveat_lines(b["caveats"]))
    return lines


def _sl2_text(b):
    lines = [f"sl2 analysis (degree {b['degree']}, seed {b['seed']})"]
    inp = b["input"]
    lines.append(
        f"module: {inp['module']}  (dim {inp['dim']}, "
        f"{inp['trivial_summands']} trivial summands)"
    )
    lines.append("")

    c = b["classification"]
    lines.append("classification:")
    if "note" in c:
        lines.append(f"  {c['note']}")
    else:
        lines.append(
            f"  2-large: {_yn(c['two_large'])}    1-large: "
            f"{_yn(c['one_large'])}    orbifold case: "
            f"{_yn(c['orbifold_case'])}    0-modular: "
            f"{_yn(c['zero_modular'])}"
        )
    if "jacobian_probe" in b:
        p = b["jacobian_probe"]
        lines.append(
            f"  jacobian probe (seed {p['seed']}, {p['trials']} trials, "
            f"probabilistic): on-shell rank {p['on_shell_rank']}, off-shell "
            f"rank {p['off_shell_rank']}, shell dim estimate "
            f"{p['shell_dim_estimate']}"
        )
    lines.append("")

    lines.extend(_shell_lines(b["shell"]))
    lines.append("")

    lines.extend(_quotient_lines(b["quotient"]))
    if "oracle" in b:
        lines.append("")
        lines.extend(_oracle_lines(b["oracle"]))
    lines.append("")
    lines.extend(_caveat_lines(b["caveats"]))
    return lines
