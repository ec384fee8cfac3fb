"""Serving-layer throughput: micro-batched service vs unbatched clients.

Four closed-loop client threads issue one query at a time.  The direct
baseline calls ``index.nearest`` per query; the service coalesces
concurrent submissions into ``query_batch`` calls, which amortises page
reads across the batch.  The batching win is checked as that page
amortisation, which is deterministic, not as wall-clock throughput,
which is scheduler noise on a loaded box.

Checked shapes: the service answers every query (zero errors), its mean
batch size exceeds 1, and it reads fewer pages per query than the
baseline.
"""

from bench_common import publish, scaled

from repro.core.nncell_index import NNCellIndex
from repro.data import query_points, uniform_points
from repro.eval.loadgen import serving_throughput_table
from repro.serve import ServeConfig


def bench_serve_throughput(benchmark):
    def run():
        dim = 8
        index = NNCellIndex.build(uniform_points(scaled(400), dim, seed=171))
        queries = query_points(scaled(200), dim, seed=172)
        table = serving_throughput_table(
            index,
            queries,
            n_threads=4,
            config=ServeConfig(max_batch_size=64),
        )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = {row["mode"]: row for row in table.rows}
    assert rows["service"]["errors"] == 0
    assert rows["service"]["mean_batch_size"] > 1.0
    assert rows["service"]["pages_per_query"] < rows["direct"]["pages_per_query"]
    publish(table, "serve_throughput")
