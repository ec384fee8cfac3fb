"""Property-based proof of the serving layer's correctness contract.

For *any* interleaving of concurrent submissions — any thread count, any
per-thread workload split, any micro-batching configuration — every
result a :class:`QueryService` returns must be identical (same id,
bit-identical distance) to the serial ``index.nearest`` answer for that
point.  Hypothesis drives the workload shapes; real threads drive the
interleavings.
"""

import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nncell_index import NNCellIndex
from repro.data import uniform_points
from repro.serve import QueryService, ServeConfig

# One module-level index: hypothesis runs many examples, the solution
# space is the (expensive) constant, the workload is the variable.
_INDEX = NNCellIndex.build(uniform_points(35, 3, seed=47))


@st.composite
def workloads(draw):
    """(queries, n_threads, config) — one concurrent serving scenario."""
    n_queries = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2 ** 31))
    rng = np.random.default_rng(seed)
    # Queries both inside the data space and slightly outside it (the
    # fallback path must satisfy the same parity contract).
    queries = rng.uniform(-0.1, 1.1, size=(n_queries, 3))
    n_threads = draw(st.integers(1, 6))
    config = ServeConfig(max_batch_size=draw(st.integers(1, 16)))
    return queries, n_threads, config


@settings(max_examples=20, deadline=None)
@given(workload=workloads())
def test_concurrent_results_identical_to_serial_query(workload):
    queries, n_threads, config = workload
    n = queries.shape[0]
    results = [None] * n
    errors = []

    with QueryService(_INDEX, config) as service:
        def client(thread_idx):
            for i in range(thread_idx, n, n_threads):
                try:
                    results[i] = service.submit(queries[i])
                except Exception as err:  # pragma: no cover - must not happen
                    errors.append((i, repr(err)))

        threads = [
            threading.Thread(target=client, args=(t,))
            for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    assert not errors, errors
    for i in range(n):
        expected_id, expected_dist, __ = _INDEX.nearest(queries[i])
        assert results[i].point_id == expected_id, i
        # Bit-identical, not approximately equal: the service routes
        # through the same float64 arithmetic as the serial path.
        assert results[i].distance == expected_dist, i
