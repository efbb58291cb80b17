"""One timed run of the mfcache command line, in a fresh interpreter.

Usage: child.py RESULT_JSON TRACE_DIR|- RUN_ID -- <mfcache arguments>

Set-up ends once ``mfcache`` is imported and the scenario file has been
loaded and validated; the parent measures it from the moment it started this
process, on the shared monotonic clock. The command's wall time is the call
to ``mfcache.cli.main``, from argument parsing until the last file is
written. ``calibrate`` is timed just before and just after the command, so
the parent can scale both times to a reference host speed. With a trace
directory, every layer is wrapped by ``tracer`` before the command runs, and
the spans and layer metrics are written there at exit.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


CALIBRATION_ROUNDS = 3000


def calibrate() -> float:
    """Seconds taken by a fixed mix of small numpy operations and interpreter
    work, the same kind of work as the command's. It is timed next to the
    command in the same process, so it sees the host's speed of that moment;
    it uses nothing from ``mfcache``, so no change to the program moves it."""
    import numpy as np

    grid = np.linspace(0.0, 1.0, 441).reshape(21, 21)
    started = time.perf_counter()
    acc = 0.0
    for i in range(CALIBRATION_ROUNDS):
        acc += float(np.clip(grid * 0.5 + i * 1e-3, 0.0, 1.0).sum())
        acc += sum(range(60))
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    """High-water resident set of this process image (``VmHWM``).
    ``getrusage``'s ``ru_maxrss`` would also hold the parent's resident set at
    the fork, which Linux carries across ``exec``."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    result_path, trace_dir, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT TRACE_DIR|- RUN_ID -- ARGS...")
    import mfcache.cli
    from mfcache.scenario import load_scenario

    load_scenario(argv[argv.index("--scenario") + 1])
    setup_end = time.monotonic()

    tracer = None
    if trace_dir != "-":
        import tracer as tracing
        tracer = tracing.Tracer(run_id)
        tracing.install(tracer)
    cal_before = calibrate()
    started = time.perf_counter()
    if tracer is None:
        code = mfcache.cli.main(argv)
    else:
        code = tracer.call(tracing.ROOT, mfcache.cli.main, (argv,), {})
    wall = time.perf_counter() - started
    cal_after = calibrate()

    result = {
        "exit": code,
        "setup_end": setup_end,
        "wall_s": wall,
        "calibration_s": [cal_before, cal_after],
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = tracing.summarize(tracer)
        tracer.write_spans(os.path.join(trace_dir, "spans.csv"))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
