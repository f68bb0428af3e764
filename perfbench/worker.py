"""The timed process of the in-process workloads.

    python3 worker.py WORKLOAD TRACE < corpus.json

Reads the corpus (one JSON line) from stdin, imports sympquot, serves the
warm-up request and prints "ready".  Then it serves every round of the
corpus, one request at a time; a corpus with no rounds times the set-up
alone.  A "torus-fallback" request goes through torus.quotient_series
with point_limit=0, which sends it down the recurrence fallback.  The last
line it prints is one JSON object: per-round wall times, per-request times (raw,
and at the reference host speed, see hostspeed.py) and outputs, CPU time,
peak RSS and, when TRACE is 1, the layer trace of the rounds (the warm-up
is not traced).
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

import hostspeed


def main():
    workload, trace = sys.argv[1:3]
    corpus = json.loads(sys.stdin.readline())
    sampler = hostspeed.Sampler()
    sampler.record(3)

    from sympquot import pipeline, torus
    from sympquot.errors import CapacityError, ReconstructionError

    tracer = None
    if trace == "1":
        import layers

        tracer = layers.install()

    def serve(req):
        """(output, failed) for one request."""
        if workload == "torus-largeness":
            A = torus.WeightMatrix(req["weights"])
            rep = torus.largeness_report(A)
            diag = torus.shell_diagnostics(A)
            return {"max_k_modular": rep.max_k_modular, "shell_dim": diag.shell_dim}, False
        if req["kind"] == "torus-fallback":
            try:
                q = torus.quotient_series(torus.WeightMatrix(req["weights"]), point_limit=0)
            except (CapacityError, ReconstructionError) as exc:
                return {"error": str(exc)}, True
            series = {
                "numerator": list(q.series.numerator),
                "denominator_exponents": list(q.series.denominator),
            }
            verdict = {
                "dimension": q.verdict.dimension,
                "graded_gorenstein": q.verdict.graded_gorenstein,
            }
            body = {"series": series, "verdict": verdict, "truncation": list(q.truncation.coeffs)}
            return {"quotient": body}, False
        try:
            report = pipeline.run(pipeline.parse_request(req))
        except CapacityError as exc:
            return {"capacity_error": str(exc)}, True
        return report.to_dict(), report.reconstruction_failed

    serve(corpus["warmup"])
    sampler.record(3)
    setup_speed = statistics.median(sampler.values)
    if tracer is not None:
        tracer.reset()
    print("ready", flush=True)

    rounds, spans = [], []
    clock = time.perf_counter
    sampler.start()
    cpu_start = time.process_time()
    for reqs in corpus["rounds"]:
        times, outputs, failed = [], [], []
        round_start = clock()
        for req in reqs:
            t0, spent = clock(), sampler.spent
            out, fail = serve(req)
            t1 = clock()
            times.append(t1 - t0 - (sampler.spent - spent))
            spans.append((t0, t1))
            outputs.append(out)
            failed.append(fail)
        rounds.append(
            {"wall_s": clock() - round_start, "times": times, "outputs": outputs, "failed": failed}
        )
    cpu_s = time.process_time() - cpu_start
    sampler.stop()
    sampler.record(3)
    spans = iter(spans)
    for rnd in rounds:
        rnd["ref_times"] = [
            hostspeed.at_reference(t, sampler.speed(*next(spans))) for t in rnd["times"]
        ]
        rnd["ref_wall_s"] = sum(rnd["ref_times"])
    result = {
        "setup_speed": setup_speed,
        "rounds": rounds,
        "cpu_s": cpu_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
