"""wristkit benchmark: seeded CLI workloads, timed end to end and traced per module.

Usage (from the repository root):

    python3 bench/run.py --workload analyze-study --seed 1 --seconds 45 --trace 0

``--workload all`` runs every workload in turn.  Each run generates its
inputs from the seed under ``.bench_work/``, samples set-up time in a few
import-only interpreters, runs one untimed warm-up repetition, then
repeats the workload's CLI calls until ``--seconds`` have been measured,
with more import-only interpreters after each repetition.
Every CLI call runs in a fresh interpreter (``child.py``), as a user's
shell would start it, and every repetition's outputs are checked.

With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced
repetitions and holds the per-layer metrics.  The last stdout line is
one JSON object: ``correct``, ``attempted`` and ``failed`` (CLI calls)
and ``metrics``.  The exit code is 1 when any check failed, 2 when the
checkout cannot be benchmarked.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import FN_STATS, summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_REPS = 3             # timed repetitions per run, however long they take
MIN_TRACED_PAIRS = 2
SETUP_PROBES = 4         # import-only interpreters before the warm-up, for setup_s
PROBES_PER_REP = 2       # and after each timed repetition, so they span the run
RUN_BUDGET_S = 150       # a run stops starting CLI calls after this, so it exits well within 180 s
LAYERS = ("cli", "config", "fileio", "trials", "stats", "biomech", "springs", "transmission")


class Session:
    """The CLI calls of one workload run, their checks and their samples."""

    def __init__(self, workload, run_dir):
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.workload = workload
        self.run_dir = run_dir
        self.attempted = self.failed = 0
        self.problems = []
        self.setup = {"setup_s": [], "import_numpy_s": [], "import_wristkit_s": []}
        self.digests = {}
        self.passes = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        # One process and no threads: keep numpy's BLAS from starting a pool.
        self.env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def _child(self, argv, trace_path="-"):
        """Run child.py once; (record, problems)."""
        launched = time.monotonic()
        if launched > self.deadline:
            return None, [f"not started: the run is past its {RUN_BUDGET_S} s budget"]
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), repr(launched), trace_path, *argv],
                cwd=self.run_dir, env=self.env, capture_output=True, text=True,
                timeout=self.deadline - launched)
        except subprocess.TimeoutExpired:
            return None, [f"no result within the run's {RUN_BUDGET_S} s budget"]
        try:
            record = json.loads(proc.stdout.splitlines()[-1])
            samples = {key: float(record[key]) for key in self.setup}
        except (IndexError, ValueError, KeyError, TypeError):
            return None, [f"exit {proc.returncode} without a result: {proc.stderr.strip()[-400:]}"]
        for key, value in samples.items():
            self.setup[key].append(value)
        problems = [] if record["rc"] == 0 else [
            f"exit code {record['rc']}: {proc.stderr.strip()[-400:]}"]
        return record, problems

    def probe_setup(self, n):
        for _ in range(n):
            _, problems = self._child([])
            self.problems += problems

    def _digest(self, k, job):
        """Outputs must be byte-identical in every repetition, traced or not."""
        h = hashlib.sha256()
        for rel in job.outputs:
            path = self.run_dir / rel
            h.update(rel.encode() + b"\0" + (path.read_bytes() if path.is_file() else b"-"))
        first = self.digests.setdefault(k, h.hexdigest())
        return [] if first == h.hexdigest() else ["outputs differ from the first repetition"]

    def repetition(self, traced=False):
        """One pass over the workload's CLI calls; (wall_s, peak_rss_mb, trace)."""
        shutil.rmtree(self.run_dir / "out", ignore_errors=True)
        self.passes += 1
        wall = rss = 0.0
        trace = {"stats": {}, "counts": Counter(), "root_s": 0.0, "names": set()}
        for k, job in enumerate(self.workload.jobs):
            trace_path = self.run_dir / f"{self.workload.name}-pass{self.passes}-call{k}.json"
            record, problems = self._child(job.argv, str(trace_path) if traced else "-")
            self.attempted += 1
            if record is not None:
                problems += job.check(self.run_dir) + self._digest(k, job)
                wall += record.get("wall_s", 0.0)
                rss = max(rss, record["peak_rss_mb"])
                if traced:
                    _merge_trace(trace, trace_path)
            if problems:
                self.failed += 1
                self.problems += [f"{self.workload.name} call {k} ({job.argv}): {p}"
                                  for p in problems]
        return wall, rss, trace


def _merge_trace(trace, path):
    data = json.loads(path.read_text(encoding="utf-8"))
    stats, root_s = summarize(data["spans"])
    for name, entry in stats.items():
        into = trace["stats"].setdefault(name, dict.fromkeys(FN_STATS, 0))
        for key in FN_STATS:
            into[key] += entry[key]
    trace["counts"].update(data["counts"])
    trace["root_s"] += root_s
    trace["names"].update(data["names"])


def _layer_values(trace, wall):
    """Every per-layer value one traced repetition offers, by metric name."""
    stats = trace["stats"]
    values = {f"{name}.{key}": stats.get(name, {}).get(key, 0)
              for name in trace["names"] for key in FN_STATS}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(e["self_s"] for n, e in stats.items()
                                        if n.startswith(layer + "."))
    values.update(trace["counts"])
    accepted = (values.get("trials.trial_metrics.calls", 0)
                - values.get("trials.trial_metrics.errors", 0))
    rejected = (values.get("trials.clean_interpolate.errors", 0)
                + values.get("fileio.read_trial_log.errors", 0))
    values["trials.accepted"] = accepted
    values["trials.rejected"] = rejected
    values["trials.accept_ratio"] = accepted / (accepted + rejected) if accepted + rejected else 0.0
    values["trace.unattributed_s"] = wall - trace["root_s"]
    return values


def run_workload(name, seed, seconds, trace, spec):
    """Measure one workload; (session, metrics, timed repetitions)."""
    run_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        session = Session(WORKLOADS[name](run_dir, seed), run_dir)
        session.probe_setup(SETUP_PROBES)
        session.repetition()                       # warm-up: caches, bytecode; not timed
        plain, traced = [], []
        start = time.monotonic()
        while True:
            began = time.monotonic()
            if trace:
                traced.append(session.repetition(traced=True))
            plain.append(session.repetition())
            session.probe_setup(PROBES_PER_REP)
            took = time.monotonic() - began
            enough = len(traced) >= MIN_TRACED_PAIRS if trace else len(plain) >= MIN_REPS
            if (enough and time.monotonic() - start + took > seconds
                    or time.monotonic() > session.deadline):
                break
        median = statistics.median
        if not trace:
            values = {"wall_s": median(w for w, _, _ in plain),
                      "setup_s": median(session.setup["setup_s"]),
                      "peak_rss_mb": median(r for _, r, _ in plain)}
            wanted = spec["end_to_end"]
        else:
            per_rep = [_layer_values(t, w) for w, _, t in traced]
            values = {}
            for key in per_rep[0]:
                samples = [v.get(key, 0) for v in per_rep]
                if key.endswith("_s"):
                    values[key] = median(samples)
                    continue
                if len(set(samples)) > 1:
                    session.problems.append(f"{name}: count {key} differs between runs: {samples}")
                values[key] = samples[0]
            values["setup.import_numpy_s"] = median(session.setup["import_numpy_s"])
            values["setup.import_wristkit_s"] = median(session.setup["import_wristkit_s"])
            values["trace.overhead_s"] = (median(w for w, _, _ in traced)
                                          - median(w for w, _, _ in plain))
            wanted = spec["per_layer"]
        unknown = [m["name"] for m in wanted if m["name"] not in values]
        if unknown:
            raise SystemExit(f"BENCHMARK.json names metrics this bench does not make: {unknown}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
        reps = len(traced) + len(plain)
        return session, metrics, reps
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wristkit" / "cli.py").is_file():
        print(f"bench: no wristkit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    problems, metrics = [], {}
    for name in names:
        session, got, reps = run_workload(name, args.seed, seconds, args.trace, spec)
        attempted += session.attempted
        failed += session.failed
        problems += session.problems
        print(f"{name} (seed {args.seed}, {reps} timed repetitions, "
              f"{session.attempted} CLI calls)")
        for metric, entry in got.items():
            print(f"  {metric:<36} {entry['value']:.6g} {entry['unit']}")
        print(f"  {'failed_frac':<36} {session.failed / session.attempted:.6g} "
              f"({session.failed}/{session.attempted} CLI calls)")
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + metric: entry for metric, entry in got.items()})
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
