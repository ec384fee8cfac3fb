"""The runtime needs numpy only: scipy is a test dependency.

HiGHS (``scipy.optimize.linprog``) is the test suite's LP oracle; the
package solves every LP with its own simplex.  A fresh interpreter runs
each runtime path once and must finish without scipy ever imported.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = """
import os, sys, tempfile
import numpy as np
from repro.core.nncell_index import BuildConfig, NNCellIndex
from repro.core.persistence import load_index, save_index
from repro.serve import QueryService

points = np.random.default_rng(5).random((100, 6))
serial = NNCellIndex.build(points)
parallel = NNCellIndex.build(points, BuildConfig(workers=2))
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "idx.npz")
    save_index(parallel, path)
    index = load_index(path)
q = np.full(6, 0.5)
assert index.nearest(q)[:2] == serial.nearest(q)[:2]
index.insert(np.full(6, 0.25))
index.delete(3)
with QueryService(index) as service:
    answer = service.submit(np.full(6, 0.1))
assert answer.point_id == index.nearest(np.full(6, 0.1))[0]
assert "scipy" not in sys.modules, "a runtime path imported scipy"
"""


def test_runtime_paths_never_import_scipy():
    """Build (serial and two workers), save, load, query, insert,
    delete and serve one request without importing scipy."""
    path = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr


def test_no_source_file_imports_scipy():
    offenders = [
        str(p.relative_to(SRC))
        for p in sorted(SRC.rglob("*.py"))
        if any(
            line.lstrip().startswith(("import scipy", "from scipy"))
            for line in p.read_text().splitlines()
        )
    ]
    assert not offenders, offenders
