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

import numpy as np

from repro import BuildConfig, NNCellIndex, SelectorKind, uniform_points

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
    index.data_tree.validate()
    print("index structural invariants: OK")


if __name__ == "__main__":
    main()
