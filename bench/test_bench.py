"""Self-tests of the benchmark.  Run with: python3 -m pytest bench -q

They run the CLI through the bench's own child processes, so they need
the repository's ``src`` and ``tests`` directories next to ``bench``.
"""

import dataclasses
import hashlib
import json
import sys

import pytest

import run
import workloads
from tracer import summarize

sys.path.insert(0, str(run.ROOT / "tests"))
import corpus  # noqa: E402  (the release gate's independent oracle)

SMALL = {
    "analyze-study": dict(participants=3, rejects=2),
    "design-sweep": dict(samples=50, customs=1),
}


def _generate(name, run_dir, seed):
    return workloads.WORKLOADS[name](run_dir, seed, **SMALL[name])


def _input_digest(workload, root):
    """The generated files and the CLI calls (design-sweep's seed is in the argv)."""
    h = hashlib.sha256(json.dumps([job.argv for job in workload.jobs]).encode())
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def test_analyze_path_reproduces_the_gate_corpus_report(tmp_path):
    (tmp_path / "trials").mkdir()
    corpus.build(tmp_path / "trials")
    job = dataclasses.replace(workloads._analyze_job([], "trials"), check=lambda d: [])
    session = run.Session(workloads.Workload("corpus", [job]), tmp_path)
    session.repetition()
    untraced = (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
    session.repetition(traced=True)
    assert session.problems == []
    assert untraced == corpus.expected_report_text()
    assert (tmp_path / "out" / "report.json").read_text(encoding="utf-8") == untraced


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks_traced_and_untraced(tmp_path, name):
    session = run.Session(_generate(name, tmp_path, 3), tmp_path)
    session.repetition()
    _, _, trace = session.repetition(traced=True)
    assert session.problems == []
    assert session.failed == 0 and session.attempted == 2 * len(session.workload.jobs)
    values = run._layer_values(trace, 0.0)
    assert values["cli.main.calls"] == len(session.workload.jobs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(tmp_path, name):
    digests = []
    for seed, where in ((5, "a"), (5, "b"), (6, "c")):
        workload = _generate(name, tmp_path / where, seed)
        digests.append(_input_digest(workload, tmp_path / where))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_checks_catch_a_wrong_report(tmp_path):
    session = run.Session(_generate("analyze-study", tmp_path, 4), tmp_path)
    session.repetition()
    check = session.workload.jobs[0].check
    path = tmp_path / "out" / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    assert check(tmp_path) == []

    report["trials"][0]["rom_total_deg"] *= 1.0001
    path.write_text(json.dumps(report), encoding="utf-8")
    assert any("rom_total_deg" in p for p in check(tmp_path))

    report["trials"][0]["rom_total_deg"] /= 1.0001
    report["rejected"] = report["rejected"][1:]
    path.write_text(json.dumps(report), encoding="utf-8")
    assert any("rejected" in p for p in check(tmp_path))


def test_self_time_excludes_child_spans():
    spans = [["a.f", 0.0, 10.0, -1, None],
             ["b.g", 2.0, 5.0, 0, None],
             ["a.f", 3.0, 4.0, 1, "DataError"],
             ["b.g", 6.0, 7.0, 0, None]]
    stats, root_s = summarize(spans)
    assert root_s == 10.0
    assert stats["a.f"] == {"calls": 2, "errors": 1, "total_s": 10.0, "self_s": 6.0 + 1.0}
    assert stats["b.g"] == {"calls": 2, "errors": 0, "total_s": 4.0, "self_s": 2.0 + 1.0}
