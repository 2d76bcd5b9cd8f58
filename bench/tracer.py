"""Outside-in tracer: spans around wristkit's public functions, from outside the package.

:meth:`Tracer.install` replaces every public module-level function of
every loaded ``wristkit`` module with a timing wrapper, at each module
attribute that callers look it up through.  ``biomech.sweep_torque_curve``
and ``cli.sweep_torque_curve`` (bound by ``from .biomech import ...``) are
separate attributes and are both wrapped; ``cli.cmd_*`` are wrapped before
``cli.main`` builds its parser, so ``set_defaults`` binds the wrappers.
A span is named after the function's defining module, whichever alias
was called.

One tracer covers one CLI call, its run id.  Spans are kept in memory
and written out with the run id by :meth:`Tracer.write`:
``[name, start, end, parent index, error type or None]`` with
``time.perf_counter`` stamps.  Counts that need a function's arguments or
result are gathered by small hooks that run after the span has ended.
:func:`summarize` turns spans into per-function calls, errors, total and
self time, where self time is a span's duration minus its child spans'.
"""

import json
import os
import sys
import time
import types
from collections import Counter


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _read_trial_log(counts, args, result, error):
    counts["fileio.bytes_read"] += _file_size(args[0])
    if error is None:
        counts["fileio.rows_read"] += len(result)


def _parse_trial_filename(counts, args, result, error):
    if error is None and result is None:
        counts["fileio.files_skipped_by_name"] += 1


def _clean_interpolate(counts, args, result, error):
    if error is None:
        counts["trials.samples_interpolated"] += round(result[1] * len(args[0]))


def _write_report(counts, args, result, error):
    if error is None:
        counts["fileio.report_bytes"] += _file_size(args[0])


def _write_torque_curve(counts, args, result, error):
    if error is None:
        counts["fileio.curve_rows"] += len(args[1].angles)


def _read_torque_curve(counts, args, result, error):
    if error is None:
        counts["fileio.curve_rows"] += len(result.angles)


COUNTS = ("fileio.rows_read", "fileio.bytes_read", "fileio.files_skipped_by_name",
          "trials.samples_interpolated", "fileio.report_bytes", "fileio.curve_rows")
FN_STATS = ("calls", "errors", "total_s", "self_s")

HOOKS = {
    "fileio.read_trial_log": _read_trial_log,
    "fileio.parse_trial_filename": _parse_trial_filename,
    "trials.clean_interpolate": _clean_interpolate,
    "fileio.write_report": _write_report,
    "fileio.write_torque_curve": _write_torque_curve,
    "fileio.read_torque_curve": _read_torque_curve,
}


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter(dict.fromkeys(COUNTS, 0))
        self.names = set()
        self._stack = []

    def install(self):
        for module_name, module in list(sys.modules.items()):
            if module_name != "wristkit" and not module_name.startswith("wristkit."):
                continue
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or not fn.__module__.startswith("wristkit.")):
                    continue          # wrappers belong to this module, so none is wrapped twice
                name = f"{fn.__module__.removeprefix('wristkit.')}.{fn.__name__}"
                self.names.add(name)
                setattr(module, attr, self._wrap(name, fn))

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            result = error = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if hook is not None:
                    hook(counts, args, result, error)

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id, "spans": self.spans, "counts": self.counts,
                       "names": sorted(self.names)}, handle)


def summarize(spans):
    """{name: {"calls", "errors", "total_s", "self_s"}} plus the root spans' time.

    ``total_s`` sums the durations of spans with no same-named ancestor,
    so recursion is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    root_s = 0.0
    for i, (name, start, end, parent, error) in enumerate(spans):
        entry = stats.setdefault(name, dict.fromkeys(FN_STATS, 0))
        entry["calls"] += 1
        entry["errors"] += error is not None
        entry["self_s"] += end - start - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["total_s"] += end - start
        if parent < 0:
            root_s += end - start
    return stats, root_s
