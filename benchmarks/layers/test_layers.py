"""Smoke test of the layer benchmark: ``pytest benchmarks/layers``.

Runs every workload at ``--smoke`` size, untraced and traced at once,
and checks what BENCHMARK.json declares against what is printed.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE = ["--smoke", "--seconds", "0.5"]


def _cmd(*args):
    return [sys.executable, str(HERE / "run.py"), *SMOKE, *args]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One untraced and one traced invocation of every workload."""
    span_dir = tmp_path_factory.mktemp("spans")
    procs = {
        "untraced": subprocess.Popen(
            _cmd(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        ),
        "traced": subprocess.Popen(
            _cmd("--trace", "1", "--trace-dir", str(span_dir)), cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ),
    }
    out = {}
    for mode, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        out[mode] = _last_json(stdout)
    out["span_dir"] = span_dir
    return out


def _check_declared(result: dict, declared: list, positive: bool) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0  # error_rate 0 on every workload
    assert result["attempted"] > 0
    for workload in WORKLOADS:
        for metric in declared:
            entry = result["metrics"][f"{workload}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert math.isfinite(entry["value"])
            if positive:
                assert entry["value"] > 0, (workload, metric["name"])


def test_every_end_to_end_metric_is_printed(runs):
    _check_declared(runs["untraced"], SPEC["end_to_end"], positive=True)


def test_every_per_layer_metric_is_printed(runs):
    _check_declared(runs["traced"], SPEC["per_layer"], positive=False)
    names = {m["name"] for m in SPEC["per_layer"]}
    printed = {key.split(".", 1)[1] for key in runs["traced"]["metrics"]}
    assert printed == names


def test_spans_nest(runs):
    for workload in WORKLOADS:
        doc = json.loads((runs["span_dir"] / f"{workload}.spans.json").read_text())
        assert doc["id"], workload
        where = {sid: i for i, sid in enumerate(doc["id"])}
        for i, parent in enumerate(doc["parent"]):
            assert doc["start_us"][i] <= doc["end_us"][i]
            assert doc["self_us"][i] >= -1e-3
            if parent:
                j = where[parent]
                assert doc["start_us"][j] <= doc["start_us"][i] + 1e-3
                assert doc["end_us"][i] <= doc["end_us"][j] + 1e-3


def test_wrong_answer_exits_nonzero(tmp_path):
    script = tmp_path / "corrupt.py"
    script.write_text(
        "import runpy, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "from repro.core.nncell_index import NNCellIndex\n"
        "original = NNCellIndex.nearest\n"
        "def nearest(self, query):\n"
        "    pid, dist, info = original(self, query)\n"
        "    return (pid + 1) % self.points.shape[0], dist, info\n"
        "NNCellIndex.nearest = nearest\n"
        f"sys.argv = ['run.py', '--workload', 'query', *{SMOKE!r}]\n"
        f"runpy.run_path({str(HERE / 'run.py')!r}, run_name='__main__')\n"
    )
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode != 0
    result = _last_json(proc.stdout)
    assert result["correct"] is False and result["failed"] > 0


class _Handle:
    def __init__(self, outcome):
        self.outcome = outcome

    def result(self):
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome


class _FakeService:
    """Answers every request, except those ``fail(i)`` picks."""

    def __init__(self, fail):
        self.fail, self.sent = fail, 0
        self.answer = SimpleNamespace(point_id=0, distance=0.0)

    def submit_async(self, point):
        i, self.sent = self.sent, self.sent + 1
        return _Handle(self.fail(i) or self.answer)


@pytest.fixture()
def openloop():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import openloop

        yield openloop
    finally:
        del sys.path[:2]


def test_failed_requests_stay_unanswered_and_counted(openloop):
    from repro.serve.errors import DeadlineExceeded

    pool = np.zeros((8, 2))
    fail = lambda i: DeadlineExceeded() if i % 3 == 0 else None
    step = openloop.open_loop(_FakeService(fail), pool, rate=2000.0, seconds=0.01)
    assert step.errors == 7 and step.rejected == 0
    assert np.isnan(step.done).sum() == step.errors
    step = openloop.saturate(_FakeService(fail), pool, outstanding=4, seconds=0.01)
    assert np.isnan(step.done).sum() == step.errors > 0


def test_a_collector_crash_is_raised(openloop):
    fail = lambda i: RuntimeError("boom") if i == 5 else None
    with pytest.raises(RuntimeError, match="boom"):
        openloop.open_loop(_FakeService(fail), np.zeros((8, 2)), rate=2000.0,
                           seconds=0.01)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "query", *SMOKE], cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
