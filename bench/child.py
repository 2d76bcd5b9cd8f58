"""Run one wristkit CLI call in this fresh interpreter and time it from inside.

Usage: python3 child.py LAUNCH_MONOTONIC TRACE_PATH [CLI ARG ...]

LAUNCH_MONOTONIC is the parent's time.monotonic() just before it started
this process (CLOCK_MONOTONIC is shared by all processes on the host).
TRACE_PATH is ``-`` for an untraced call, else the file the spans are
written to.  With no CLI arguments the process only imports wristkit, to
sample set-up time.  The last line on stdout is a JSON record; the exit
code is the CLI's.
"""

import time

t_enter = time.monotonic()
import numpy  # noqa: E402,F401  (timed apart from wristkit's own imports)

t_numpy = time.monotonic()
import wristkit.cli  # noqa: E402

t_ready = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def _peak_rss_mb():
    """This program's peak RSS.  Not ru_maxrss: Linux carries the parent's
    peak into it across fork and exec, so it would measure the bench."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    launched, trace_path, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    record = {"setup_s": t_ready - launched,
              "import_numpy_s": t_numpy - t_enter,
              "import_wristkit_s": t_ready - t_numpy}
    rc = 0
    if argv:
        tracer = None
        if trace_path != "-":
            from pathlib import Path
            from tracer import Tracer
            tracer = Tracer(run_id=Path(trace_path).stem)
            tracer.install()
        start = time.perf_counter()
        rc = wristkit.cli.main(argv)
        record["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.write(trace_path)
    record["rc"] = rc
    record["peak_rss_mb"] = _peak_rss_mb()
    sys.stdout.flush()
    print(json.dumps(record))
    return rc


if __name__ == "__main__":
    sys.exit(main())
