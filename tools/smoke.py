#!/usr/bin/env python
"""End-to-end smoke test: every CLI and serving surface, one leg each.

Runs its legs in order inside one temporary directory — serve, build,
shard, chaos, telemetry and analytics — and exits 1 at the first failed
check, naming the leg.  Each leg's docstring says what it proves.  Every
``repro serve`` child is killed and reaped on the way out, pass or fail.
Run it from a checkout with no arguments::

    python tools/smoke.py
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import traceback
import urllib.request
from pathlib import Path

import numpy as np

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
if str(REPO_SRC) not in sys.path:  # allow running without installation
    sys.path.insert(0, str(REPO_SRC))

# tools/ is sys.path[0] when this file runs as a script.
from compare_archives import compare_archives  # noqa: E402

from repro import BuildConfig, NNCellIndex  # noqa: E402
from repro.chaos import FaultPlan, ShardFaults, run_drill  # noqa: E402
from repro.core.persistence import (  # noqa: E402
    is_sharded_archive,
    load_any_index,
    save_index,
)
from repro.data import query_points, uniform_points  # noqa: E402
from repro.eval.replay import replay  # noqa: E402
from repro.obs import metrics  # noqa: E402
from repro.obs.export import load_profile  # noqa: E402
from repro.obs.promexport import MetricsServer, parse_exposition  # noqa: E402
from repro.obs.timeseries import DEFAULT_WINDOWS  # noqa: E402
from repro.obs.workload import load_workload  # noqa: E402
from repro.serve import QueryService, ServeConfig, ServiceOverloaded  # noqa: E402
from repro.shard import ResilienceConfig, ShardConfig, ShardedNNCellIndex  # noqa: E402
from repro.shard.sharded import _INLINE_ROWS_PER_SHARD  # noqa: E402

#: Every child ``repro`` process gets this environment, with ``src``
#: first on ``PYTHONPATH`` so an uninstalled checkout runs.
ENV = dict(os.environ)
ENV["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(REPO_SRC), ENV.get("PYTHONPATH")])
)

N_QUERIES = 200
N_THREADS = 4

#: Chaos leg.  Shard 0 spikes half its probes to 40 ms: past the hedge
#: threshold, inside the probe timeout, so hedges race and never
#: abandon.  Shard 2 raises on 85% of attempts; with 2 retries a query
#: loses it with probability 0.85^3 ~ 0.61, so the drill sees both exact
#: (parity-checked) and degraded answers.
SLOW_SHARD, FAILING_SHARD = 0, 2
CHAOS_PLAN = FaultPlan(
    shards={
        SLOW_SHARD: ShardFaults(slow_p=0.5, slow_ms=40.0),
        FAILING_SHARD: ShardFaults(fail_p=0.85),
    },
    seed=41,
)
CHAOS_POLICY = ResilienceConfig(
    probe_timeout_ms=250.0,
    max_retries=2,
    backoff_base_ms=1.0,
    hedge_after_ms=20.0,
    allow_partial=True,
)

#: Analytics leg: every query lands within this noise of a point the hot
#: shard owns, so that shard does the candidate-scan work.
HOT_SHARD = 0
NOISE_SIGMA = 0.002

_ENDPOINT = re.compile(r"metrics endpoint: (http://127\.0\.0\.1:\d+)/metrics")
_TRACE_ID = re.compile(r"^[0-9a-f]{16}$")
_EXPLAIN_PATHS = ("cell", "cell_retry", "empty_point_query", "outside_data_space")


class SmokeFailure(Exception):
    """A check failed; the message says which."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def repro(*args: object, status: int = 0, stdin: str = "") -> str:
    """Run ``python -m repro ARGS``; fail unless it exits ``status``.
    Returns its stdout."""
    return repro_run(*args, status=status, stdin=stdin).stdout


def repro_run(
    *args: object, status: int = 0, stdin: str = ""
) -> subprocess.CompletedProcess:
    """As :func:`repro`, but returns the finished process."""
    argv = [str(arg) for arg in args]
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=ENV,
    )
    check(
        proc.returncode == status,
        f"`repro {' '.join(argv)}` exited {proc.returncode}, expected {status}:"
        f" {proc.stderr.strip()[-500:]}",
    )
    return proc


def build(out: Path, n: int, dim: int, *flags: str) -> Path:
    """``repro build`` over the uniform dataset."""
    repro("build", "--dataset", "uniform", "--n", n, "--dim", dim, "--out", out, *flags)
    return out


@contextlib.contextmanager
def serving(index: Path, *flags: str):
    """Run ``repro serve INDEX --metrics-port 0 FLAGS``; yields ``(proc,
    base_url)`` once the endpoint is announced, and kills and reaps the
    child on the way out.

    Stderr is drained on a thread: the announcement arrives before any
    response, and an unread pipe would deadlock shutdown.
    """
    command = [sys.executable, "-m", "repro", "serve", str(index)]
    command += ["--metrics-port", "0", *flags]
    lines: "list[str]" = []
    announced = threading.Event()
    with subprocess.Popen(
        command,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=ENV,
    ) as proc:

        def read_stderr() -> None:
            for line in proc.stderr:
                lines.append(line)
                if _ENDPOINT.search(line):
                    announced.set()
            announced.set()  # EOF: stop the wait even on a failed start

        reader = threading.Thread(target=read_stderr, daemon=True)
        reader.start()
        try:
            check(announced.wait(timeout=60.0), "no metrics endpoint announced")
            match = next(filter(None, map(_ENDPOINT.search, lines)), None)
            check(match is not None, f"endpoint line not in stderr: {lines}")
            yield proc, match.group(1)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            reader.join(timeout=5)


def get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=10) as response:
        check(response.status == 200, f"GET {url} returned {response.status}")
        return response.read()


def get_json(url: str) -> dict:
    return json.loads(get(url))


def scrape(base_url: str) -> "dict[str, float]":
    """``GET /metrics`` through the strict exposition parser."""
    text = get(f"{base_url}/metrics").decode()
    try:
        return parse_exposition(text)
    except ValueError as err:
        raise SmokeFailure(f"/metrics did not parse strictly: {err}") from None


def poll(fetch, ready, seconds: float):
    """Call ``fetch`` until ``ready(value)`` or ``seconds`` pass; returns
    the last value either way."""
    deadline = time.monotonic() + seconds
    while True:
        value = fetch()
        if ready(value) or time.monotonic() >= deadline:
            return value
        time.sleep(0.1)


def pool_threads() -> set:
    """The live scatter-pool threads of this process."""
    return {
        thread.ident
        for thread in threading.enumerate()
        if thread.name.startswith("repro-shard")
    }


def served_parity(index, reference) -> dict:
    """200 queries from 4 client threads through one ``QueryService``
    over ``index``: no errors, and every answer bit-identical to
    ``reference.nearest``.  Returns the service stats."""
    queries = query_points(N_QUERIES, index.dim, seed=13)
    results: list = [None] * N_QUERIES
    errors: list = []
    with QueryService(index) as service:

        def client(first: int) -> None:
            for i in range(first, N_QUERIES, N_THREADS):
                try:
                    results[i] = service.submit(queries[i])
                except Exception as err:  # any error fails the check below
                    errors.append((i, repr(err)))

        threads = [threading.Thread(target=client, args=(t,)) for t in range(N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = service.stats()
    check(not errors, f"{len(errors)} client errors, first: {errors[:1]}")
    check(stats["completed"] == N_QUERIES, f"completed {stats['completed']}")
    wrong = sum(
        (result.point_id, result.distance) != reference.nearest(q)[:2]
        for result, q in zip(results, queries)
    )
    check(wrong == 0, f"{wrong}/{N_QUERIES} served answers differ")
    return stats


def leg_serve(workdir: Path) -> str:
    """Served answers equal serial ``nearest`` and really batch; a
    failing batch engine and a full queue degrade into typed, counted
    outcomes; ``repro serve --stats`` round-trips JSONL, answering a
    malformed timeout and an integer coordinate past the float range
    ``bad_request`` without going down."""
    index = NNCellIndex.build(uniform_points(120, 4, seed=5))
    mid = np.full(index.dim, 0.5)
    with metrics.collecting(fresh=True) as registry:
        stats = served_parity(index, index)
        mean = stats["mean_batch_size"]
        check(mean > 1.0, f"mean batch size {mean:.2f} <= 1")
        mean = registry.histogram("serve.batch.size").summary()["mean"]
        check(mean > 1.0, f"serve.batch.size mean {mean:.2f} <= 1")

        def broken_batch(points, batch_size=None):
            raise RuntimeError("induced LP failure")

        with QueryService(index, batch_fn=broken_batch) as service:
            result = service.submit(mid)
        same = (result.point_id, result.distance) == index.nearest(mid)[:2]
        check(same, "fallback answer differs from serial nearest")
        check(result.source == "serial", f"fallback source {result.source!r}")
        batch_key = 'serve.fallback{stage="batch"}'
        check(registry.counter(batch_key).value >= 1, f"{batch_key} not counted")

        stall = threading.Event()

        def stalled_batch(points, batch_size=None):
            stall.wait(5.0)
            return index.query_batch(points)

        config = ServeConfig(max_queue_depth=1, admission="reject")
        rejected = 0
        with QueryService(index, config, batch_fn=stalled_batch) as service:
            handles = [service.submit_async(mid)]
            for __ in range(50):  # fill the one queue slot, then overflow it
                try:
                    handles.append(service.submit_async(np.full(index.dim, 0.25)))
                except ServiceOverloaded:
                    rejected += 1
            stall.set()
            for handle in handles:
                handle.result()
        check(rejected > 0, "no submission was rejected at queue depth 1")
        counted = registry.counter("serve.rejected").value
        check(counted == rejected, f"serve.rejected {counted:.0f} != {rejected}")

    # A malformed timeout or coordinate is answered bad_request; the
    # process serves on.
    archive = build(workdir / "serve50.nnc", 50, 3)
    requests = (
        "[0.5, 0.5, 0.5]\n"
        '{"id": 2, "point": [0.5, 0.5, 0.5], "timeout_ms": "5"}\n'
        '{"id": 3, "point": [0.5, 0.5, 0.5], "timeout_ms": Infinity}\n'
        f'{{"id": 4, "point": [1{"0" * 400}, 0.5, 0.5]}}\n'
        '{"id": 1, "point": [0.1, 0.2, 0.3]}\n'
    )
    out = repro("serve", archive, "--stats", stdin=requests)
    lines = [json.loads(line) for line in out.splitlines()]
    oks = [r["ok"] for r in lines]
    check(oks == [True, False, False, False, True], f"JSONL: {lines}")
    bad = [(r["id"], r["error"]) for r in lines[1:4]]
    check(
        bad == [(2, "bad_request"), (3, "bad_request"), (4, "bad_request")],
        f"JSONL: {lines}",
    )
    check(lines[4]["id"] == 1, f"request id not echoed: {lines[4]}")
    return f"mean batch {stats['mean_batch_size']:.2f}, {rejected} rejections"


def leg_build(workdir: Path) -> str:
    """A decomposed ``--workers 2`` build writes the serial archive's
    bytes, the archive loads back with the build config it was made
    with and saves the same bytes again, an insert into the loaded index
    saves what the same insert into a fresh build saves (a loaded
    index's constraint normals are derived from the points), an index
    written with 3 insert/delete pairs then reloaded takes one more pair
    to the written index's archive (both lay out their snapshots from
    the same points and columns), a truncated copy is refused with an
    ``error:`` line and no traceback, and a ``--profile`` build
    documents its cells and ``build.nncell`` span."""
    flags = ("--decompose", "--k-max", "8")
    serial = build(workdir / "serial.nnc", 60, 3, *flags)
    parallel = build(workdir / "parallel.nnc", 60, 3, *flags, "--workers", "2")
    diffs = compare_archives(serial, parallel)
    check(not diffs, f"workers=2 archive differs from serial: {diffs}")
    loaded = load_any_index(serial)
    config = loaded.config
    check(
        config.decompose and config.decomposition.k_max == 8,
        f"reloaded build config is not the one built: {config}",
    )
    save_index(loaded, workdir / "resaved.nnc")
    diffs = compare_archives(serial, workdir / "resaved.nnc")
    check(not diffs, f"a load then a save changed the archive: {diffs}")
    built_insert, loaded_insert = workdir / "built+1.nnc", workdir / "loaded+1.nnc"
    fresh = NNCellIndex.build(loaded.points, config)
    for index, path in ((fresh, built_insert), (loaded, loaded_insert)):
        index.insert([0.31, 0.62, 0.47])
        save_index(index, path)
    diffs = compare_archives(built_insert, loaded_insert)
    check(not diffs, f"an insert saves other cells loaded than built: {diffs}")
    written_equals_reloaded(workdir)
    damaged = workdir / "truncated.nnc"
    damaged.write_bytes(serial.read_bytes()[:-100])
    stderr = repro_run("query", damaged, "--point", "0.5,0.5,0.5", status=1).stderr
    check(
        stderr.startswith("error:") and "Traceback" not in stderr,
        f"`repro query` on a truncated archive printed: {stderr.strip()[-500:]}",
    )

    # The telemetry leg serves this archive (same dataset, n, dim, seed).
    profile = workdir / "profile.json"
    build(workdir / "idx40.nnc", 40, 3, "--profile", str(profile))
    document = load_profile(profile)
    cells = document["metrics"]["counters"].get("build.cells")
    check(cells == 40, f"profile counts build.cells={cells}, not 40")
    names = [span["name"] for span in document["trace"]]
    check("build.nncell" in names, f"no build.nncell span: {names}")
    return (
        "workers=2 archive identical, build config reloaded, reload and "
        "insert archives identical, written index writes its reload's "
        "archive, truncated archive refused, profile OK"
    )


def written_equals_reloaded(workdir: Path) -> None:
    """Small pages give the data snapshot many leaves, so the Sphere
    selector's leaf queries see where each write put its point: 3
    insert/delete pairs, a save and a load, then one more pair on the
    written index and on its reload must save the same archive."""
    rng = np.random.default_rng(7)
    index = NNCellIndex.build(
        rng.uniform(size=(80, 2)), BuildConfig(page_size=256)
    )
    for __ in range(3):
        index.insert(rng.uniform(size=2))
        index.delete(int(rng.choice(index.active_ids)))
    save_index(index, workdir / "written.nnc")
    reloaded = load_any_index(workdir / "written.nnc")
    point, victim = rng.uniform(size=2), int(index.active_ids[7])
    paths = []
    for name, target in (("written", index), ("reloaded", reloaded)):
        target.insert(point)
        target.delete(victim)
        paths.append(workdir / f"{name}+1.nnc")
        save_index(target, paths[-1])
    diffs = compare_archives(*paths)
    check(not diffs, f"a written index and its reload write apart: {diffs}")


def leg_shard(workdir: Path) -> str:
    """A CLI-built 4-shard archive is the same directory with ``--workers
    2``, loads back, serves the 200-query loop bit-identically to an
    unsharded index with a real fan-out and no scatter-pool thread,
    answers a batch above the break-even bit-identically through the
    pool, and works with ``repro query`` and ``repro info``."""
    fleet = workdir / "fleet"
    flags = ("--seed", "5", "--shards", "4", "--partitioner", "hilbert")
    build(fleet, 120, 4, *flags)
    check(is_sharded_archive(fleet), f"{fleet} is not a sharded archive")
    parallel = build(workdir / "fleet_workers2", 120, 4, *flags, "--workers", "2")
    archives = sorted(path.name for path in fleet.glob("*.nnc"))
    others = sorted(path.name for path in parallel.glob("*.nnc"))
    check("global.nnc" in archives, f"fleet has no global.nnc: {archives}")
    check(archives == others, f"workers=2 fleet has {others}, not {archives}")
    for name in archives:
        diffs = compare_archives(fleet / name, parallel / name)
        check(not diffs, f"workers=2 {name} differs from serial: {diffs}")
    same = (fleet / "manifest.json").read_bytes() == (
        parallel / "manifest.json"
    ).read_bytes()
    check(same, "workers=2 manifest.json differs from serial")
    index = load_any_index(fleet)
    try:
        kind = type(index).__name__
        check(isinstance(index, ShardedNNCellIndex), f"load_any_index gave {kind}")
        check(index.n_shards == 4, f"archive has {index.n_shards} shards, not 4")
        check(len(index) == 120, f"archive holds {len(index)} points, not 120")
        flat = NNCellIndex.build(index.points, index.config)
        before = pool_threads()
        with metrics.collecting(fresh=True) as registry:
            served_parity(index, flat)
        fanout = registry.histogram("shard.fanout").summary()
        started = pool_threads() - before
        check(not started, f"served loop started {len(started)} pool threads")
        check(index._pool is None, "served loop made the scatter pool")
        # One batch above the break-even goes through the pool.
        rows = 4 * _INLINE_ROWS_PER_SHARD + 1
        batch = query_points(rows, index.dim, seed=17)
        got, want = index.query_batch(batch), flat.query_batch(batch)
        same = all(np.array_equal(g, w) for g, w in zip(got[:2], want[:2]))
        check(same, f"a {rows}-row sharded batch differs from the flat index")
        check(index._pool is not None, f"a {rows}-row batch made no pool")
    finally:
        index.close()
    check(fanout["count"] > 0, "no shard.fanout observations recorded")
    check(fanout["mean"] > 1.0, f"shard.fanout mean {fanout['mean']:.2f} <= 1")

    out = repro("query", fleet, "--point", "0.5,0.5,0.5,0.5", "-k", "3")
    check("neighbor" in out or "id" in out, f"query output: {out[:200]!r}")
    info = repro("info", fleet)
    check("sharding" in info, f"info output lacks a sharding line: {info[:300]!r}")
    return (
        f"workers=2 fleet identical, 0 mismatches, mean fan-out "
        f"{fanout['mean']:.2f}, served without the pool, {rows} rows through it"
    )


def leg_chaos(workdir: Path) -> str:
    """Under one slow and one failing shard every answer is bit-identical
    or explicitly degraded, retries and hedges both fire, and their
    counters survive a strict ``/metrics`` scrape; the ``repro chaos``
    CLI drill exits 0."""
    points = uniform_points(300, 4, seed=97)
    truth = NNCellIndex.build(points)
    fleet = ShardedNNCellIndex.build(points, ShardConfig(n_shards=4))
    fleet.set_resilience(CHAOS_POLICY)
    try:
        report = run_drill(fleet, CHAOS_PLAN, N_QUERIES, N_THREADS, truth=truth)
    finally:
        fleet.close()
    outcomes, counters = report.outcomes, report.counters
    ok, degraded = outcomes.get("ok", 0), report.degraded
    check(report.untyped_errors == 0, f"raw exceptions reached clients: {outcomes}")
    check(report.errors == 0, f"typed errors leaked: {outcomes}")
    check(report.mismatches == 0, f"{report.mismatches} exact answers were wrong")
    unnamed = report.unaccounted_degraded
    check(unnamed == 0, f"{unnamed} degraded answers named no shards")
    check(ok + degraded == N_QUERIES, f"lost answers: {outcomes}")
    check(degraded > 0, "failing shard never degraded an answer")
    check(ok > 0, "no fully-answered queries to parity-check")
    blamed = report.faulted_shards
    check(blamed == [FAILING_SHARD], f"degraded answers blamed shards {blamed}")
    counted = counters.get("serve.degraded_answers", 0)
    check(counted == degraded, f"serve.degraded_answers {counted} != {degraded}")
    check(counters.get("shard.retry", 0) > 0, "failing shard produced no retries")
    check(counters.get("shard.hedge", 0) > 0, "slow shard produced no hedges")
    kinds = (f"shard{SLOW_SHARD}.slow", f"shard{FAILING_SHARD}.fail")
    fired = all(report.injected.get(kind, 0) > 0 for kind in kinds)
    check(fired, f"fault plan never fired: {report.injected}")

    # The drill's registry is the process-wide one and keeps its counts;
    # each shard counter scrapes as one child sample per shard= label.
    with MetricsServer() as server:
        samples = scrape(f"http://127.0.0.1:{server.port}")
    for counter in ("shard.retry", "shard.hedge", "serve.degraded_answers"):
        sample = counter.replace(".", "_") + "_total"
        scraped, seen = metrics.sum_labeled(samples, sample), counters.get(counter)
        check(scraped == seen, f"{sample}={scraped} on /metrics, drill saw {seen}")

    archive = build(workdir / "chaos200.nnc", 200, 4)
    repro(
        *["chaos", archive, "--shards", "4"],
        *["--slow-shard", "0", "--slow-p", "0.3", "--slow-ms", "20"],
        *["--fail-shard", "2", "--fail-p", "1.0"],
        *["--shard-timeout-ms", "100", "--hedge-after-ms", "5", "--allow-partial"],
        *["--queries", "200", "--threads", "4"],
    )
    retries, hedges = counters["shard.retry"], counters["shard.hedge"]
    return f"ok {ok}, degraded {degraded}, retries {retries:.0f}, hedges {hedges:.0f}"


def leg_telemetry(workdir: Path) -> str:
    """``repro serve --metrics-port 0`` serves a strict ``/metrics``, the
    standard ``/telemetry`` windows, ``/healthz`` and an explain echo;
    under ``--tracing --slo`` every response carries a distinct trace id
    and every latency exemplar resolves with >= 95% critical-path
    coverage; ``repro trace export`` writes Chrome trace-event JSON."""
    index = workdir / "idx40.nnc"  # built by the build leg
    with serving(index) as (proc, url):
        # Responses stream once decided, at the latest on stdin EOF, so
        # the scrapes below see the traffic while the process serves.
        proc.stdin.write("[0.5, 0.5, 0.5]\n")
        proc.stdin.write('{"point": [0.25, 0.5, 0.75], "explain": true}\n')
        proc.stdin.write('{"point": [1.5, 0.5, 0.5], "explain": true}\n')
        proc.stdin.flush()
        samples = poll(
            lambda: scrape(url),
            lambda s: s.get("serve_latency_ms_count", 0.0) >= 3.0,
            30.0,
        )
        check("serve_latency_ms_count" in samples, f"scrape: {sorted(samples)[:8]}")
        count = samples["serve_latency_ms_count"]
        check(count >= 3.0, f"latency count {count} < 3")
        windows = get_json(f"{url}/telemetry")["windows"]
        expected = sorted(str(s) for s in DEFAULT_WINDOWS)
        check(sorted(windows) == expected, f"unexpected windows: {sorted(windows)}")
        in_60s = windows["60"].get("serve.latency_ms", {})
        check(in_60s.get("count", 0) >= 3, f"60s window missed traffic: {in_60s}")
        check(get(f"{url}/healthz") == b"ok\n", "healthz not ok")

        proc.stdin.close()
        plain = json.loads(proc.stdout.readline())
        check(plain.get("ok") is True, f"plain request failed: {plain}")
        check("explain" not in plain, "unsolicited explain payload")
        paths = []
        for __ in range(2):
            explained = json.loads(proc.stdout.readline())
            check(explained.get("ok") is True, f"explain request failed: {explained}")
            echo = explained.get("explain")
            check(isinstance(echo, dict), f"missing explain echo: {explained}")
            agrees = (echo["nearest_id"], echo["nearest_distance"]) == (
                explained["point_id"], explained["distance"]
            )
            check(agrees, f"explain echo disagrees with the served answer: {explained}")
            paths.append(echo["path"])
        check(paths[0] in _EXPLAIN_PATHS, f"explain path {paths[0]!r}")
        check(paths[1] == "outside_data_space", f"out-of-box explain path {paths[1]!r}")
        check(proc.wait(timeout=30) == 0, f"serve exited {proc.returncode}")

    with serving(index, "--tracing", "--slo") as (proc, url):
        for i in range(N_QUERIES):
            t = (i + 0.5) / N_QUERIES
            proc.stdin.write(json.dumps([t, 1.0 - t, 0.5]) + "\n")
        proc.stdin.flush()

        # One consistent snapshot once the 60s window holds every query.
        def latency(document: dict) -> dict:
            return document["windows"]["60"].get("serve.latency_ms", {})

        document = poll(
            lambda: get_json(f"{url}/telemetry"),
            lambda doc: latency(doc).get("count", 0) >= N_QUERIES,
            60.0,
        )
        window = latency(document)
        count = window.get("count", 0)
        check(count >= N_QUERIES, f"60s window missed traced traffic: {window}")
        exemplars = window.get("exemplars", [])
        check(len(exemplars) > 0, "no latency exemplars surfaced under tracing")
        for exemplar in exemplars:
            trace_id = exemplar.get("trace_id", "")
            check(bool(_TRACE_ID.match(trace_id)), f"bad exemplar: {exemplar}")
            trace = get_json(f"{url}/trace/{trace_id}")
            check(trace.get("trace_id") == trace_id, f"/trace/{trace_id}: {trace}")
            path = trace.get("critical_path", {})
            covered = path.get("coverage", 0.0) >= 0.95
            check(covered, f"critical path of {trace_id} covers < 0.95: {path}")
        traces = document.get("traces", {})
        check(traces.get("stored", 0) > 0, f"trace store retained nothing: {traces}")
        slo = document.get("slo", {})
        check(slo.get("state") in ("ok", "warn"), f"watchdog escalated: {slo}")
        check(get(f"{url}/healthz") == b"ok\n", "healthz not ok under healthy load")

        proc.stdin.close()
        seen = set()
        for i in range(N_QUERIES):
            response = json.loads(proc.stdout.readline())
            check(response.get("ok") is True, f"traced query {i}: {response}")
            trace_id = response.get("trace_id", "")
            check(bool(_TRACE_ID.match(trace_id)), f"bad trace id: {response}")
            seen.add(trace_id)
        check(len(seen) == N_QUERIES, f"trace ids not distinct: {len(seen)}")
        check(proc.wait(timeout=30) == 0, f"traced serve exited {proc.returncode}")

    out = workdir / "trace.json"
    repro("trace", index, "export", "--queries", "50", "--out", out)
    events = json.loads(out.read_text()).get("traceEvents", [])
    check(len(events) > 0, "Chrome trace export is empty")
    phases = {event.get("ph") for event in events}
    check(phases <= {"M", "X"}, f"unexpected phases: {sorted(map(str, phases))}")
    spans = [event for event in events if event.get("ph") == "X"]
    names = {span.get("name") for span in spans}
    check("serve.request" in names, f"no serve.request spans: {sorted(names)[:8]}")
    for span in spans:
        timed = span.get("ts", -1) >= 0 and span.get("dur", -1) >= 0
        check(timed, f"negative timing in trace event: {span}")
    return f"{len(exemplars)} exemplars resolved, {len(events)} trace events"


def leg_analytics(workdir: Path) -> str:
    """200 skewed queries at a 4-shard ``serve --analytics --capture``
    process: ``/analytics`` convicts the hot shard, the capture replays
    bit-identically and ``repro analyze`` exits 2 naming the shard."""
    archive, capture = workdir / "skewed", workdir / "capture.jsonl"
    build(archive, 1000, 4, "--shards", "4", "--partitioner", "hilbert")
    # Scatter probes every shard, so probe counts are uniform by design;
    # queries clustered on one shard's own points skew its work instead.
    index = load_any_index(archive)
    try:
        anchors = index.points[index._globals[HOT_SHARD]]
    finally:
        index.close()
    rng = np.random.default_rng(1234)
    picks = anchors[np.arange(N_QUERIES) % anchors.shape[0]]
    queries = np.clip(picks + rng.normal(0.0, NOISE_SIGMA, picks.shape), 0.0, 1.0)

    with serving(archive, "--analytics", "--capture", str(capture)) as (proc, url):
        for q in queries:
            proc.stdin.write(json.dumps([round(x, 12) for x in q]) + "\n")
        proc.stdin.flush()
        # Header plus one row per query: every query answered and recorded.
        rows = poll(
            lambda: len(capture.read_text().splitlines()) if capture.exists() else 0,
            lambda n: n >= N_QUERIES + 1,
            120.0,
        )
        check(rows >= N_QUERIES + 1, f"capture stalled at {rows - 1} records")
        report = get_json(f"{url}/analytics")
        shards, verdict = report.get("shards", {}), report.get("verdict", {})
        check(sorted(shards) == ["0", "1", "2", "3"], f"shards: {sorted(shards)}")
        check(verdict.get("balanced") is False, f"reported balanced: {verdict}")
        hot = verdict.get("hot_shards", [])
        check(HOT_SHARD in hot, f"shard {HOT_SHARD} not named hot: {verdict}")
        shares = {int(s): row["load_share"] for s, row in shards.items()}
        top = max(shares, key=shares.get)
        check(top == HOT_SHARD, f"shard {top} carries the top work share: {shares}")
        cells = report.get("hot_cells", {})
        tracked = cells.get("tracked", 0) > 0 and bool(cells.get("top"))
        check(tracked, f"hot-cell heatmap is empty: {cells}")
        check(report.get("total_probes", 0) > 0, "no probes recorded")

        proc.stdin.close()
        for i in range(N_QUERIES):
            answer = json.loads(proc.stdout.readline())
            check(answer.get("ok") is True, f"query {i} failed: {answer}")
        check(proc.wait(timeout=60) == 0, f"serve exited {proc.returncode}")

    workload = load_workload(capture)
    check(len(workload) == N_QUERIES, f"capture holds {len(workload)} queries")
    index = load_any_index(archive)
    try:
        for mode in ("serial", "batch"):
            replayed = replay(index, workload, mode=mode)
            found = replayed.as_dict(max_mismatches=3)
            check(replayed.bit_identical, f"{mode} replay mismatches: {found}")
    finally:
        index.close()

    out = repro("analyze", archive, "--workload", capture, "--json", status=2)
    hot = json.loads(out)["verdict"]["hot_shards"]
    check(HOT_SHARD in hot, f"analyze verdict missed shard {HOT_SHARD}: {hot}")
    return f"shard {HOT_SHARD} hot with {shares[HOT_SHARD]:.1%} of the work"


LEGS = (
    ("serve", leg_serve),
    ("build", leg_build),
    ("shard", leg_shard),
    ("chaos", leg_chaos),
    ("telemetry", leg_telemetry),
    ("analytics", leg_analytics),
)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        for name, leg in LEGS:
            started = time.monotonic()
            try:
                summary = leg(Path(tmp))
            except SmokeFailure as failure:
                print(f"smoke FAILED in the {name} leg: {failure}", file=sys.stderr)
                return 1
            except Exception:  # a crash fails the leg it happened in
                traceback.print_exc()
                print(f"smoke FAILED in the {name} leg: crashed", file=sys.stderr)
                return 1
            print(f"{name} leg OK ({time.monotonic() - started:.1f} s): {summary}")
    print("smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
