"""Benchmark of sympquot: four workloads, end-to-end metrics or a layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package is taken from src/ there.
Workloads and metrics are listed in BENCHMARK.json and explained in
perfbench/README.md.  With --trace 0 the run serves S // ROUND_S[workload]
whole rounds of the workload's corpus (at least MIN_ROUNDS), so that the
work of a run depends on S alone, and reports the end-to-end metrics; with
--trace 1 it serves one round untraced and the same round traced, and
reports the per-layer metrics.  Every output is checked by perfbench/oracle.py.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; a readable summary goes to stderr, and the
result and the full trace are written under perfbench/out/.  ``--tiny``
runs a small corpus of every workload (the self-tests use it).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("torus-quotient", "sl2-quotient", "torus-largeness", "cli-cold")
RUN_LIMIT_S = 170.0  # every process still running past this is killed
# Seconds a round takes at the reference host speed, rounded up.
ROUND_S = {"torus-quotient": 21, "sl2-quotient": 24, "torus-largeness": 10, "cli-cold": 8}
# cli-cold compares the second call of each request with the first.
MIN_ROUNDS = {"torus-quotient": 1, "sl2-quotient": 1, "torus-largeness": 1, "cli-cold": 2}
# setup_s is the median of this many cold set-ups, each in a fresh process.
SETUP_LAUNCHES = 5
DEADLINE = time.monotonic() + RUN_LIMIT_S


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _watchdog(proc):
    """Kill proc if it outlives the run's deadline."""
    timer = threading.Timer(max(DEADLINE - time.monotonic(), 0.0), proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def run_child(cmd, stdin_text):
    """(exit code, stdout, stderr, wall_s, rusage) of one process, fed stdin_text."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
    )
    timer = _watchdog(proc)
    try:
        proc.stdin.write(stdin_text.encode())
        proc.stdin.close()
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), err.decode(), wall, usage


def rounds_for(workload, seconds):
    return max(MIN_ROUNDS[workload], int(seconds // ROUND_S[workload]))


def make_corpus(workload, seed, rounds, tiny):
    cmd = [sys.executable, str(HERE / "corpus.py"), workload, str(seed), str(rounds)]
    code, out, err, _, _ = run_child(cmd + (["--tiny"] if tiny else []), "")
    if code != 0:
        raise BenchError(f"corpus generation failed ({code}):\n{err}")
    return json.loads(out)


# ---------------------------------------------------------------------------
# in-process workloads


def run_worker(workload, corpus, trace):
    """Start a worker, time its set-up (launch to "ready"), collect its rounds."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, "1" if trace else "0"]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True
    )
    timer = _watchdog(proc)
    try:
        proc.stdin.write(json.dumps(corpus) + "\n")
        proc.stdin.close()
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"{workload} worker exited with code {code}")
    result = json.loads(rest.splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def check_round(workload, reqs, outputs):
    problems = []
    for req, out in zip(reqs, outputs):
        if workload == "torus-quotient":
            found = oracle.check_torus_quotient(req["weights"], out)
        elif workload == "sl2-quotient":
            found = oracle.check_sl2_quotient(req["irreps"], out)
        else:
            found = oracle.check_largeness(req["weights"], out)
        problems += [f"{json.dumps(req)}: {p}" for p in found]
    return problems


def failed_requests(workload, reqs, failed):
    if workload == "sl2-quotient":
        return sorted(f"{r['irreps']}@{r['degree']}" for r, f in zip(reqs, failed) if f)
    return sorted(json.dumps(r) for r, f in zip(reqs, failed) if f)


def in_process(workload, seed, seconds, trace, tiny, summary):
    corpus = make_corpus(workload, seed, 1 if trace else rounds_for(workload, seconds), tiny)
    rounds_in = corpus["rounds"]
    runs = [run_worker(workload, corpus, False)]
    if trace:
        runs.append(run_worker(workload, corpus, True))
    problems, failed_names = [], []
    attempted = failed = 0
    for result in runs:
        for reqs, rnd in zip(rounds_in, result["rounds"]):
            problems += check_round(workload, reqs, rnd["outputs"])
            attempted += len(reqs)
            failed += sum(rnd["failed"])
            failed_names.append(failed_requests(workload, reqs, rnd["failed"]))
    plain = runs[0]
    setups = [plain]
    if not trace:
        setup_only = dict(corpus, rounds=[])
        setups += [run_worker(workload, setup_only, False) for _ in range(SETUP_LAUNCHES - 1)]
    summary.update(
        rounds=len(plain["rounds"]),
        raw_setup_s=[r["setup_s"] for r in setups],
        raw_round_wall_s=[r["wall_s"] for r in plain["rounds"]],
        raw_request_p50_s=statistics.median(t for r in plain["rounds"] for t in r["times"]),
        request_s=[
            dict(zip(labels, rnd["ref_times"]))
            for labels, rnd in zip(corpus["labels"], plain["rounds"])
        ],
        failed_requests=failed_names[0],
        same_failures_every_round=all(f == failed_names[0] for f in failed_names),
    )
    metrics = {
        "setup_s": statistics.median(
            hostspeed.at_reference(r["setup_s"], r["setup_speed"]) for r in setups
        ),
        "wall_s": statistics.fmean(r["ref_wall_s"] for r in plain["rounds"]),
        "request_p50_s": statistics.median(t for r in plain["rounds"] for t in r["ref_times"]),
        "peak_rss_mb": plain["maxrss_kb"] / 1024.0,
    }
    if trace:
        traced = runs[1]
        warmup = dict(corpus["warmup"], kind=corpus["warmup"].get("kind", "torus"))
        startup = cold_call("analyze", json.dumps(warmup))["startup_s"]
        metrics = layer_metrics(
            traced["trace"],
            {
                "process.cpu_s": plain["cpu_s"],
                "cli.startup_s": startup,
                "trace.overhead_s": traced["rounds"][0]["ref_wall_s"]
                - plain["rounds"][0]["ref_wall_s"],
            },
        )
        summary["layers"] = traced["trace"]
    return attempted, failed, problems, metrics


# ---------------------------------------------------------------------------
# cli-cold


def cold_call(mode, text="", trace=False):
    """One cold.py process (mode "import" or "analyze"): its exit code,
    stdout, wall time (less the process's own calibrations, raw and at the
    reference host speed), resource use and trace."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"cold-{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "cold.py"), str(path), mode]
    if mode == "analyze":
        cmd += (["--trace"] if trace else []) + ["--format", "machine", "-"]
    code, out, err, wall, usage = run_child(cmd, text)
    if not path.is_file():
        raise BenchError(f"cold.py {mode} wrote no result ({code}):\n{err}")
    inside = json.loads(path.read_text(encoding="utf-8"))
    path.unlink()
    raw = wall - inside["own_s"]
    elapsed = [line for line in err.splitlines() if line.startswith("elapsed:")]
    inner = float(elapsed[-1].split()[1]) / 1000.0 if elapsed else float("nan")
    return {
        "code": code,
        "stdout": out,
        "raw_s": raw,
        "wall_s": hostspeed.at_reference(raw, inside["speed"]),
        "startup_s": raw - inner,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "trace": inside.get("trace"),
    }


def cli_cold(seed, seconds, trace, tiny, summary):
    corpus = make_corpus("cli-cold", seed, rounds_for("cli-cold", seconds), tiny)
    texts, expected = corpus["requests"], corpus["expected"]

    start = time.perf_counter()
    setups = [cold_call("import") for _ in range(1 if trace else SETUP_LAUNCHES)]
    if any(c["code"] != 0 for c in setups):
        raise BenchError("import sympquot failed")

    rounds = []  # per round: list of (request index, call)
    traced_round = None
    if trace:
        rounds.append([(i, cold_call("analyze", texts[i])) for i in corpus["rounds"][0]])
        traced_round = [(i, cold_call("analyze", texts[i], True)) for i in corpus["rounds"][1]]
    else:
        for order in corpus["rounds"]:
            rounds.append([(i, cold_call("analyze", texts[i])) for i in order])
    all_rounds = rounds + ([traced_round] if traced_round else [])

    problems = []
    by_request = {}
    for rnd in all_rounds:
        for i, call in rnd:
            by_request.setdefault(i, []).append(call["stdout"])
    for rnd in all_rounds:
        for i, call in rnd:
            found = oracle.check_cli_call(call["code"], call["stdout"], expected[i], by_request[i])
            problems += [f"{texts[i]}: {p}" for p in found]
    calls = [c for rnd in all_rounds for _, c in rnd]
    attempted = len(calls)
    failed = sum(1 for c in calls if c["code"] != 0)
    plain_calls = [c for rnd in rounds for _, c in rnd]
    round_walls = [sum(c["wall_s"] for _, c in rnd) for rnd in rounds]
    summary.update(
        rounds=len(rounds),
        raw_setup_s=[c["raw_s"] for c in setups],
        raw_round_wall_s=[sum(c["raw_s"] for _, c in rnd) for rnd in rounds],
        request_s=[{i: c["wall_s"] for i, c in rnd} for rnd in rounds],
    )
    metrics = {
        "setup_s": statistics.median(c["wall_s"] for c in setups),
        "wall_s": statistics.fmean(round_walls),
        "request_p50_s": statistics.median(c["wall_s"] for c in plain_calls),
        "peak_rss_mb": max(c["maxrss_kb"] for c in plain_calls) / 1024.0,
    }
    if trace:
        merged = merge_traces([c["trace"] for _, c in traced_round])
        metrics = layer_metrics(
            merged,
            {
                "process.cpu_s": sum(c["cpu_s"] for c in plain_calls),
                "cli.startup_s": statistics.median(c["startup_s"] for c in plain_calls),
                "trace.overhead_s": sum(c["wall_s"] for _, c in traced_round) - round_walls[0],
            },
        )
        summary["layers"] = merged
    summary["elapsed_s"] = time.perf_counter() - start
    return attempted, failed, problems, metrics


def merge_traces(traces):
    functions, sites = {}, {}
    for t in traces:
        for k, v in t["functions"].items():
            acc = functions.setdefault(k, {"calls": 0, "returns": 0, "self_s": 0.0})
            for field in acc:
                acc[field] += v[field]
        for k, v in t["site_calls"].items():
            sites[k] = sites.get(k, 0) + v
    return {"functions": functions, "site_calls": sites}


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(trace, measured):
    """`<function>.self_s` and `.calls` for every traced function, the
    counters derived from them, and the figures measured beside the trace."""
    values = {}
    for key, v in trace["functions"].items():
        values[f"{key}.self_s"] = v["self_s"]
        values[f"{key}.calls"] = v["calls"]
    values["latticecones.kernel_solves"] = trace["site_calls"].get(
        "latticecones:exactlin.integer_kernel_basis", 0
    )
    # successes over candidate denominators tried; 0 when none was tried
    rec = trace["functions"]["series.reconstruct"]
    values["series.reconstruct.hit_ratio"] = rec["returns"] / rec["calls"] if rec["calls"] else 0.0
    values.update(measured)
    return values


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small corpora, for the self-tests")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (SRC / "sympquot" / "__init__.py").is_file():
        raise BenchError(f"no sympquot package under {SRC}; run from a checkout's root")

    ref_s = statistics.median(hostspeed.calibrate() for _ in range(5))
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.workload == "cli-cold":
        attempted, failed, problems, values = cli_cold(
            args.seed, args.seconds, args.trace, args.tiny, summary
        )
    else:
        attempted, failed, problems, values = in_process(
            args.workload, args.seed, args.seconds, args.trace, args.tiny, summary
        )
    values["host.reference_loop_s"] = ref_s

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace = summary.pop("layers", None)
    (OUT / f"result-{stem}.json").write_text(
        json.dumps(dict(result, problems=problems, summary=summary), indent=1) + "\n",
        encoding="utf-8",
    )
    if trace is not None:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(trace, indent=1) + "\n", encoding="utf-8")
    for line in problems[:20]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    brief = {k: v for k, v in summary.items() if k != "request_s"}
    print(json.dumps(brief), file=sys.stderr)
    print(f"host.reference_loop_s {ref_s:.4f}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
