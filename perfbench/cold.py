"""A cold sympquot process that measures the host's speed from inside.

    python3 cold.py RESULT_FILE import
    python3 cold.py RESULT_FILE analyze [--trace] [analyze arguments...]

``import`` only imports sympquot: the set-up of ``cli-cold``.  ``analyze``
behaves as the analyze CLI (same stdout, stderr and exit code); with
``--trace`` it installs the layer trace first.  Around its work the process
calibrates the host's speed (hostspeed.calibrate, four times before and
four after) and writes to RESULT_FILE, as JSON: ``speed``, the median
calibration less the first one, which runs cold; ``own_s``, the seconds
the calibrations and their imports took, for the caller to take out of the
process's wall time; and, with ``--trace``, the trace of the call.
"""

import time

start = time.perf_counter()

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import hostspeed  # noqa: E402


def calibrations(count=4):
    return [hostspeed.calibrate() for _ in range(count)]


def main():
    path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    before = calibrations()
    own_s = time.perf_counter() - start
    tracer = None
    code = 0
    if mode == "import":
        import sympquot  # noqa: F401
    else:
        if argv[:1] == ["--trace"]:
            import layers

            argv = argv[1:]
            tracer = layers.install()
        from sympquot import cli

        code = cli.main(argv)
    after_start = time.perf_counter()
    after = calibrations()
    own_s += time.perf_counter() - after_start
    result = {"speed": statistics.median(before[1:] + after), "own_s": own_s}
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
