"""The five workloads: inputs from the seed, set-up, timed region, checks.

Every input comes from ``--seed``; the program under test only sees the
generated arrays.  Archives are built once per invocation with the code
under test, before anything is timed, and are never reused.

Each workload's :meth:`run` measures the same metrics, each with a
meaning fixed per workload (README.md has the table): ``setup_s`` and,
added by the runner, ``peak_rss_mb`` are the gated end-to-end metrics;
``op_p50_ms`` and ``throughput_qps`` are reported with the per-layer
metrics, because their run-to-run spread on a shared machine is wider
than the 10% a regression bound may be.  Read tails (p90, p99) and the
archive's amplification are kept as facts for the per-layer report.

Set-up time is the fastest set-up of a run and throughput the best pass:
interference from the rest of the machine only ever slows them down, so
the best is the closest to what the program can do.

Every answer is checked against a brute-force linear scan computed
outside the timed regions, and the paths that must agree bit for bit
(serial and batched, built and reloaded, served and direct, sharded and
unsharded) are compared exactly.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from openloop import open_loop, saturate
from repro.core import persistence
from repro.core.nncell_index import NNCellIndex
from repro.serve import QueryService, ServeConfig
from repro.serve.config import TelemetryConfig
from repro.serve.telemetry import TelemetrySession
from repro.shard import ShardConfig, ShardedNNCellIndex

__all__ = ["FULL", "SMOKE", "WORKLOADS", "Result", "Sizes"]

_clock = time.perf_counter

#: Share of ``--seconds`` given to each serving step: light open loop,
#: busy open loop, then five saturation passes.
_LIGHT, _BUSY, _SAT_PASS, _SAT_PASSES = 0.4, 0.2, 0.08, 5

#: Read rounds after each build; its read metrics are their medians.
_BUILD_READ_ROUNDS = 3

#: Queries per call in the untimed checks: small, so that their
#: temporaries do not set the process's peak memory.
_CHECK_CHUNK = 256


@dataclass(frozen=True)
class Sizes:
    """Input sizes and rates of one benchmark scale."""

    n: int  # points of the read archive and of each build
    dim: int
    update_n: int
    update_dim: int
    pool: int  # distinct queries per workload (requests cycle through it)
    read_pass: int  # queries per read pass of build and query
    reads_per_write: int
    chunk: int  # query_batch chunk: ServeConfig's default max_batch_size
    light_rate: float
    # The busy rates stay under half the slowest saturation throughput
    # measured on a shared 2-vCPU machine, so that a slow spell of the
    # machine does not fill the service's queue and get requests rejected.
    busy_rate: float
    sharded_busy_rate: float
    outstanding: int
    setups: int  # set-ups before and again after the timed region
    min_ops: int  # fewest builds / passes / write cycles per run


FULL = Sizes(
    n=100, dim=6, update_n=150, update_dim=3, pool=10_000, read_pass=2000,
    reads_per_write=200, chunk=32, light_rate=1000.0, busy_rate=3000.0,
    sharded_busy_rate=1500.0, outstanding=128, setups=11, min_ops=3,
)
SMOKE = Sizes(
    n=40, dim=4, update_n=40, update_dim=3, pool=400, read_pass=200,
    reads_per_write=50, chunk=32, light_rate=400.0, busy_rate=1500.0,
    sharded_busy_rate=800.0, outstanding=32, setups=1, min_ops=2,
)


@dataclass
class Result:
    """One measured run of one workload."""

    metrics: Dict[str, float]
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Raw observations the per-layer reduction needs.
    facts: Dict[str, Any] = field(default_factory=dict)

    def check_answers(self, wrong: int, total: int, label: str) -> None:
        self.attempted += total
        if wrong:
            self.failed += wrong
            self.problems.append(f"{label}: {wrong} of {total} answers wrong")

    def check_identical(self, label: str, a_ids, a_dists, b_ids, b_dists) -> None:
        """Bit-identical answers on two paths (ids and float64 bits)."""
        a_ids, b_ids = np.asarray(a_ids), np.asarray(b_ids)
        a_d = np.asarray(a_dists, dtype=np.float64)
        b_d = np.asarray(b_dists, dtype=np.float64)
        differ = (a_ids != b_ids) | (a_d.view(np.int64) != b_d.view(np.int64))
        if differ.any():
            self.failed += int(differ.sum())
            self.problems.append(
                f"{label}: {int(differ.sum())} answers not bit-identical"
            )


# ----------------------------------------------------------------------
# Inputs and the oracle
# ----------------------------------------------------------------------

def data_points(seed: int, n: int, dim: int, stream: int = 0) -> np.ndarray:
    """Uniform points in the unit cube."""
    return np.random.default_rng([seed, stream]).random((n, dim))


def query_pool(seed: int, m: int, dim: int, stream: int = 1) -> np.ndarray:
    """Uniform queries; 2% shifted by +1.05 to land outside the data
    space, which sends them down the branch-and-bound fallback."""
    rng = np.random.default_rng([seed, stream])
    queries = rng.random((m, dim))
    outside = rng.choice(m, size=max(1, round(0.02 * m)), replace=False)
    queries[outside] += 1.05
    return queries


def brute_best(points: np.ndarray, active: np.ndarray, queries: np.ndarray):
    """Exact nearest distance of each query over the active points."""
    live = points[active]
    best = np.empty(queries.shape[0])
    for lo in range(0, queries.shape[0], _CHECK_CHUNK):
        q = queries[lo:lo + _CHECK_CHUNK]
        diff = live[None, :, :] - q[:, None, :]
        best[lo:lo + _CHECK_CHUNK] = np.sqrt(
            np.min(np.sum(diff * diff, axis=2), axis=1)
        )
    return best


def count_wrong(
    points: np.ndarray,
    active: np.ndarray,
    queries: np.ndarray,
    ids: np.ndarray,
    dists: np.ndarray,
    best: np.ndarray,
    tol: float = 1e-9,
) -> int:
    """Answers that are not a nearest active point at its true distance.

    An id is right when it is active, its distance to the query is the
    brute-force optimum (ties may go to any tied point) and the reported
    distance matches it, all within ``tol``.
    """
    ids = np.asarray(ids, dtype=np.int64)
    valid = (ids >= 0) & (ids < points.shape[0])
    safe = np.where(valid, ids, 0)
    valid &= active[safe]
    diff = points[safe] - queries
    true_d = np.sqrt(np.sum(diff * diff, axis=1))
    ok = (
        valid
        & (np.abs(np.asarray(dists) - true_d) <= tol)
        & (true_d <= best + tol)
    )
    return int(np.sum(~ok))


# ----------------------------------------------------------------------
# Shared timing helpers
# ----------------------------------------------------------------------

def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _take(tracer) -> list:
    """Spans closed so far (the set-up's), kept apart from the timed ones."""
    return tracer.take() if tracer is not None else []


def _serial(index, queries: np.ndarray):
    """Answer each query with ``nearest``; per-call latency in ms."""
    m = queries.shape[0]
    ids = np.empty(m, dtype=np.int64)
    dists = np.empty(m)
    lat = np.empty(m)
    nearest = index.nearest
    for i in range(m):
        t0 = _clock()
        ids[i], dists[i], __ = nearest(queries[i])
        lat[i] = _clock() - t0
    return ids, dists, 1e3 * lat


def _batched(index, queries: np.ndarray, chunk: int):
    """Answer through ``query_batch`` in chunks; returns q/s too."""
    ids = np.empty(queries.shape[0], dtype=np.int64)
    dists = np.empty(queries.shape[0])
    t0 = _clock()
    for lo in range(0, queries.shape[0], chunk):
        ids[lo:lo + chunk], dists[lo:lo + chunk], __ = index.query_batch(
            queries[lo:lo + chunk]
        )
    return ids, dists, queries.shape[0] / (_clock() - t0)


def _tails(rounds) -> "Dict[str, float]":
    """Median over rounds of each round's p90 and p99 latency."""
    return {
        f"read_p{q}_ms": statistics.median(
            float(np.percentile(r, q)) for r in rounds
        )
        for q in (90, 99)
    }


def _setup_round(
    res: "Result", tracer, k: int, setup: Callable[[], Any],
    release: Callable[[Any], None],
):
    """Run ``setup`` ``k`` times and keep the last state.

    Each workload runs one round before its timed region and one after.
    ``setup_s`` is the fastest set-up of both rounds.  On a shared
    machine a set-up takes one of two times, the slow one about 1.6x the
    fast one, in spells of a few seconds; the share of slow set-ups in a
    run ranged from 0 to 0.95, so the median jumped between the two.
    Interference only slows a set-up down, and a slower program moves
    every set-up, the fastest too.  The set-up's spans go to
    ``res.facts["setup_spans"]``.
    """
    times = res.facts.setdefault("setup_times", [])
    state = None
    for __ in range(k):
        if state is not None:
            release(state)
        gc.collect()
        t0 = _clock()
        state = setup()
        times.append(_clock() - t0)
    res.metrics["setup_s"] = min(times)
    res.facts.setdefault("setup_spans", []).extend(_take(tracer))
    return state


def _load_round(res: "Result", tracer, k: int, path: Path, query: np.ndarray):
    """A set-up round that loads the archive at ``path`` and answers
    ``query``; returns the last index."""

    def setup():
        index = persistence.load_index(path)
        index.nearest(query)
        return index

    return _setup_round(res, tracer, k, setup, lambda index: None)


def _archive(path: Path, points: np.ndarray) -> "Dict[str, float]":
    """Size of the archive at ``path`` and its ratio to the raw points."""
    files = path.iterdir() if path.is_dir() else [path]
    size = sum(p.stat().st_size for p in files)
    return {"archive_bytes": size, "archive_amplification": size / points.nbytes}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Workload:
    """One workload: inputs made in ``__init__``, archives in
    :meth:`prepare`, set-up and timed region in :meth:`run`."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.sizes = sizes

    def prepare(self) -> None:
        """Untimed: build what the set-up loads."""

    def run(self, seconds: float, tracer=None) -> Result:
        raise NotImplementedError


class BuildWorkload(Workload):
    """Points -> NNCellIndex.build -> save_index -> load_index."""

    name = "build"

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.points = data_points(seed, sizes.n, sizes.dim)
        self.queries = query_pool(seed, sizes.read_pass, sizes.dim)
        self.best = brute_best(
            self.points, np.ones(sizes.n, dtype=bool), self.queries
        )
        self.path = workdir / "build.npz"

    def _op(self):
        built = NNCellIndex.build(self.points)
        persistence.save_index(built, self.path)
        return built, persistence.load_index(self.path)

    def prepare(self):
        # The first build of a process is the slowest: it also pays for
        # the solver's and the allocator's warm-up.  Keep it untimed.
        __, loaded = self._op()
        _serial(loaded, self.queries)
        _batched(loaded, self.queries, self.sizes.chunk)

    def run(self, seconds, tracer=None):
        s = self.sizes
        res = Result(metrics={})
        _load_round(res, tracer, s.setups, self.path, self.queries[0])
        active = np.ones(s.n, dtype=bool)
        ops, qps, rounds = [], [], []
        started = _clock()
        while len(ops) < s.min_ops or _clock() - started < seconds:
            gc.collect()
            with _span(tracer, "bench.op"):
                t0 = _clock()
                built, loaded = self._op()
                ops.append(_clock() - t0)
            res.attempted += 1
            for __ in range(_BUILD_READ_ROUNDS):
                gc.collect()
                with _span(tracer, "bench.read"):
                    ids, dists, lat = _serial(loaded, self.queries)
                    b_ids, b_dists, rate = _batched(loaded, self.queries, s.chunk)
                rounds.append(lat)
                qps.append(rate)
                res.check_identical("serial vs batched", ids, dists, b_ids, b_dists)
            res.check_answers(
                count_wrong(self.points, active, self.queries, ids, dists,
                            self.best),
                len(ids), "reloaded index vs linear scan",
            )
            c_ids, c_dists, __ = _serial(built, self.queries)
            res.check_identical("built vs reloaded", c_ids, c_dists, ids, dists)
        res.facts["spans"] = _take(tracer)
        _load_round(res, tracer, s.setups, self.path, self.queries[0])
        res.metrics.update(
            op_p50_ms=1e3 * statistics.median(ops),
            throughput_qps=max(qps),
        )
        res.facts.update(ops=len(ops), **_archive(self.path, self.points),
                         **_tails(rounds))
        return res


class QueryWorkload(Workload):
    """Closed loop, one caller, telemetry off: serial then batched."""

    name = "query"

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.points = data_points(seed, sizes.n, sizes.dim)
        self.queries = query_pool(seed, sizes.pool, sizes.dim)
        self.active = np.ones(sizes.n, dtype=bool)
        self.best = brute_best(self.points, self.active, self.queries)
        self.path = workdir / "read.npz"

    def prepare(self):
        persistence.save_index(NNCellIndex.build(self.points), self.path)

    def run(self, seconds, tracer=None):
        s = self.sizes
        res = Result(metrics={})
        index = _load_round(res, tracer, s.setups, self.path, self.queries[0])
        p50, rounds, qps = [], [], []
        started = _clock()
        while len(p50) < s.min_ops or _clock() - started < seconds:
            # Short passes through successive slices of the pool, so a
            # slow spell of the machine spoils few of them.
            lo = (len(p50) * s.read_pass) % s.pool
            q = slice(lo, lo + s.read_pass)
            gc.collect()
            with _span(tracer, "bench.read"):
                ids, dists, lat = _serial(index, self.queries[q])
                b_ids, b_dists, rate = _batched(index, self.queries[q], s.chunk)
            p50.append(float(np.percentile(lat, 50)))
            rounds.append(lat)
            qps.append(rate)
            res.check_answers(
                count_wrong(self.points, self.active, self.queries[q], ids,
                            dists, self.best[q]),
                len(ids), "serial vs linear scan",
            )
            res.check_identical("serial vs batched", ids, dists, b_ids, b_dists)
        res.facts["spans"] = _take(tracer)
        _load_round(res, tracer, s.setups, self.path, self.queries[0])
        res.metrics.update(
            op_p50_ms=statistics.median(p50),
            throughput_qps=max(qps),
        )
        res.facts.update(ops=len(p50), **_archive(self.path, self.points),
                         **_tails(rounds))
        return res


class ServeWorkload(Workload):
    """QueryService with operator telemetry, driven open loop."""

    name = "serve"
    sharded = False

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.points = data_points(seed, sizes.n, sizes.dim)
        self.queries = query_pool(seed, sizes.pool, sizes.dim)
        self.active = np.ones(sizes.n, dtype=bool)
        self.best = brute_best(self.points, self.active, self.queries)
        self.busy_rate = sizes.busy_rate
        self.path = workdir / "read.npz"

    def prepare(self):
        persistence.save_index(NNCellIndex.build(self.points), self.path)

    def _load(self):
        return persistence.load_index(self.path)

    def run(self, seconds, tracer=None):
        s = self.sizes
        res = Result(metrics={})

        def setup():
            index = self._load()
            session = TelemetrySession(
                TelemetryConfig(metrics_port=0, analytics=True)
            )
            batch_fn = None
            if tracer is not None:
                batch_fn = tracer.timed(
                    index.query_batch, "serve.flush", _note_flush,
                    adopt=self.sharded,
                )
            service = QueryService(index, ServeConfig(), batch_fn=batch_fn)
            service.submit(self.queries[0])
            return index, session, service

        def release(state):
            index, session, service = state
            service.close()
            session.close()
            if self.sharded:
                index.close()

        state = _setup_round(res, tracer, s.setups, setup, release)
        index, __, service = state
        steps: "List[tuple]" = []
        try:
            offset = 0
            for label, rate, share in (
                ("light", s.light_rate, _LIGHT),
                ("busy", self.busy_rate, _BUSY),
            ):
                gc.collect()
                with _span(tracer, "bench.step"):
                    step = open_loop(
                        service, self.queries, rate, share * seconds, offset
                    )
                steps.append((label, step))
                offset += step.ids.size
            for __ in range(_SAT_PASSES):
                gc.collect()
                with _span(tracer, "bench.step"):
                    step = saturate(
                        service, self.queries, s.outstanding,
                        _SAT_PASS * seconds, offset,
                    )
                steps.append(("saturation", step))
                offset += step.ids.size
            direct = _batched(index, self.queries, _CHECK_CHUNK)
        finally:
            release(state)
        res.facts["spans"] = _take(tracer)
        release(_setup_round(res, tracer, s.setups, setup, release))

        for label, step in steps:
            answered = ~np.isnan(step.done)
            # Rejected at submission, or accepted and never answered.
            lost = int(np.sum(~answered))
            if lost:
                res.failed += lost
                res.attempted += lost
                res.problems.append(
                    f"{label}: {step.rejected} rejected, "
                    f"{lost - step.rejected} accepted but not answered"
                )
            rows = step.pool_index[answered]
            res.check_answers(
                count_wrong(self.points, self.active, self.queries[rows],
                            step.ids[answered], step.dists[answered],
                            self.best[rows]),
                int(answered.sum()), f"served {label} vs linear scan",
            )
        for label, step in steps:
            answered = ~np.isnan(step.done)
            rows = step.pool_index[answered]
            res.check_identical(
                f"served {label} vs direct query_batch",
                step.ids[answered], step.dists[answered],
                direct[0][rows], direct[1][rows],
            )
        if self.sharded:
            flat = _batched(self.unsharded, self.queries, _CHECK_CHUNK)
            res.check_identical("sharded vs unsharded", *direct[:2], *flat[:2])

        light = steps[0][1]
        sat = [st for label, st in steps if label == "saturation"]
        res.metrics.update(
            op_p50_ms=float(np.percentile(light.latency_ms, 50)),
            throughput_qps=max(
                st.completed_in_window / (st.ended - st.started) for st in sat
            ),
        )
        lag = np.concatenate([st.lag_ms for label, st in steps[:2]])
        res.facts.update(
            ops=1, steps=steps, **_archive(self.path, self.points),
            **_tails([light.latency_ms]),
            busy_p50_ms=float(np.percentile(steps[1][1].latency_ms, 50)),
            lag_p99_ms=float(np.percentile(lag, 99)),
            queries=int(sum(st.ids.size for __, st in steps)),
        )
        return res


class ShardedServeWorkload(ServeWorkload):
    """As ``serve``, over a 4-shard Hilbert-partitioned archive."""

    name = "serve_sharded"
    sharded = True

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.busy_rate = sizes.sharded_busy_rate
        self.path = workdir / "sharded"
        self.unsharded: "Optional[NNCellIndex]" = None  # parity reference

    def prepare(self):
        # Hilbert shards have spatial locality, so scatter pruning can
        # show on them; hash shards each span the whole space.
        self.unsharded = NNCellIndex.build(self.points)
        with ShardedNNCellIndex.build(
            self.points, ShardConfig(n_shards=4, partitioner="hilbert")
        ) as sharded:
            persistence.save_sharded_index(sharded, self.path)

    def _load(self):
        return persistence.load_any_index(self.path)


class UpdateWorkload(Workload):
    """Inserts and deletes on a d=3 index, each followed by reads."""

    name = "update"

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        d = sizes.update_dim
        self.points = data_points(seed, sizes.update_n, d, stream=2)
        self.inserts = data_points(seed, 4 * sizes.update_n, d, stream=3)
        self.victims = np.random.default_rng([seed, 4]).permutation(
            sizes.update_n
        )
        self.queries = query_pool(seed, sizes.pool, d, stream=5)
        self.path = workdir / "update.npz"

    def prepare(self):
        persistence.save_index(NNCellIndex.build(self.points), self.path)

    def run(self, seconds, tracer=None):
        s = self.sizes
        res = Result(metrics={})
        index = _load_round(res, tracer, s.setups, self.path, self.queries[0])
        points = self.points.copy()
        active = np.ones(points.shape[0], dtype=bool)
        cycles, inserts, deletes, read_lat, qps, changed = [], [], [], [], [], []
        window = 0
        limit = min(self.victims.size, self.inserts.shape[0]) - 1
        started = _clock()

        def reads():
            nonlocal window
            span = self.queries.shape[0] - s.reads_per_write
            lo = (window * s.reads_per_write) % span
            window += 1
            q = self.queries[lo:lo + s.reads_per_write]
            with _span(tracer, "bench.read"):
                ids, dists, lat = _serial(index, q)
                b_ids, b_dists, rate = _batched(index, q, s.chunk)
            read_lat.append(lat)
            qps.append(rate)
            res.check_answers(
                count_wrong(points, active, q, ids, dists,
                            brute_best(points, active, q)),
                len(ids), "reads after a write vs linear scan",
            )
            res.check_identical("serial vs batched", ids, dists, b_ids, b_dists)

        while (
            len(cycles) < s.min_ops or _clock() - started < seconds
        ) and len(cycles) < limit:
            k = len(cycles)
            gc.collect()
            before = _cells(index) if tracer is not None else None
            with _span(tracer, "bench.op"):
                t0 = _clock()
                new_id = index.insert(self.inserts[k])
                inserts.append(_clock() - t0)
            points = np.vstack([points, self.inserts[k][None, :]])
            active = np.append(active, True)
            res.attempted += 1
            if new_id != points.shape[0] - 1:
                res.failed += 1
                res.problems.append(f"insert returned id {new_id}")
            if before is not None:
                changed.append(("insert", _changed(before, _cells(index))))
            reads()
            victim = int(self.victims[k])
            before = _cells(index) if tracer is not None else None
            with _span(tracer, "bench.op"):
                t0 = _clock()
                index.delete(victim)
                deletes.append(_clock() - t0)
            active[victim] = False
            res.attempted += 1
            if before is not None:
                changed.append(("delete", _changed(before, _cells(index))))
            reads()
            cycles.append(inserts[-1] + deletes[-1])
        res.facts["spans"] = _take(tracer)
        _load_round(res, tracer, s.setups, self.path, self.queries[0])
        res.metrics.update(
            op_p50_ms=1e3 * statistics.median(cycles),
            throughput_qps=max(qps),
        )
        res.facts.update(
            ops=2 * len(cycles), changed=changed,
            **_archive(self.path, self.points),
            **_tails([np.concatenate(read_lat)]),
            insert_p50_ms=1e3 * statistics.median(inserts),
            delete_p50_ms=1e3 * statistics.median(deletes),
        )
        return res


def _cells(index) -> "Dict[int, List[bytes]]":
    """Every cell's rectangles as bytes, to see which ones a write moved."""
    cells: "Dict[int, List[bytes]]" = {}
    for owner, rect in index.all_cell_rectangles():
        cells.setdefault(owner, []).append(rect.low.tobytes() + rect.high.tobytes())
    return cells


def _changed(before, after) -> int:
    """Cells alive before and after a write whose rectangles differ."""
    return sum(1 for owner in before.keys() & after.keys()
               if before[owner] != after[owner])


def _note_flush(span, args, result) -> None:
    span.attrs = {"n": len(args[0]), "dists": result[1]}


WORKLOADS = {
    cls.name: cls
    for cls in (
        BuildWorkload, QueryWorkload, ServeWorkload, ShardedServeWorkload,
        UpdateWorkload,
    )
}
