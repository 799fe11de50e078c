"""The three benchmark workloads.

Each workload builds its inputs from the seed, writes the database as
FASTA and hands the program only that file and query strings.  A run is
split into parts — whole passes over the workload's operations, or one
server process each for ``serve_mixed`` — until ``--seconds`` of part
time is measured.  Set-up is timed again before every part, so its
median spans the whole run.  Every returned hit list is checked against
the oracle (:mod:`gate`), which is computed after the timed parts.

On a shared host the speed changes in stretches of several seconds.
Rates are totals over all parts and typical latencies are means over all
operations, because a total or a mean averages over those stretches
where a median would pick one of them.  Only the tail, ``latency_ms_p90``,
is a percentile.

With ``trace`` set a workload spends half of ``--seconds`` on untraced
parts (the overhead reference) and half on traced parts, and returns the
per-layer figures.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gate
import layers

from repro import (
    BLOSUM62,
    PAPER_QUERIES,
    PROTEIN,
    GapModel,
    MetricsRegistry,
    SearchClient,
    SearchOptions,
    SearchPipeline,
    SearchRequest,
    SequenceDatabase,
    SyntheticSwissProt,
    Tracer,
    get_tracer,
    make_query_set,
    preprocess_database,
    use_tracer,
    write_fasta,
)
from repro.db.fasta import FastaRecord
from repro.db.mutate import mutate, plant_homologs
from repro.exceptions import ReproError, ServiceOverloaded
from repro.serve import wire

#: The paper's scoring scheme, pinned for the program and the oracle.
MATRIX = BLOSUM62
GAPS = GapModel(10, 2)
TOP_K = 10
#: Set-ups timed before each part (and once more after the last).
SETUP_REPS = 5
#: Processes that compute the oracle; the host has two cores.
ORACLE_WORKERS = 2

perf = time.perf_counter


@dataclass
class Run:
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    #: The per-layer metric names ``BENCHMARK.json`` lists.
    layer_names: list


@dataclass
class Part:
    """One timed stretch of operations: a pass, or one server process."""

    window_s: float = 0.0
    ok: int = 0
    cells: int = 0
    start: float = 0.0


@dataclass
class Tally:
    """Outcomes of the measured parts of one run."""

    attempted: int = 0
    wrong: int = 0
    errors: int = 0
    shed: int = 0
    problems: list = field(default_factory=list)
    base_ms: list = field(default_factory=list)
    heavy_ms: list = field(default_factory=list)
    recalls: list = field(default_factory=list)
    parts: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.wrong + self.errors + self.shed

    @property
    def measured_s(self) -> float:
        return sum(p.window_s for p in self.parts)

    def record(self, part: Part, problem: str | None, heavy: bool, ms: float,
               cells: int, recall: float) -> None:
        """One completed operation and its gate verdict."""
        self.attempted += 1
        if problem is not None:
            self.wrong += 1
            self.problems.append(problem)
            return
        (self.heavy_ms if heavy else self.base_ms).append(ms)
        part.ok += 1
        part.cells += cells
        self.recalls.append(recall)

    def error(self, exc: Exception) -> None:
        self.attempted += 1
        if isinstance(exc, ServiceOverloaded):
            self.shed += 1
        else:
            self.errors += 1
        self.problems.append(f"{type(exc).__name__}: {exc}")

    def end_to_end(self, setup_s: list, rss_mb: float) -> dict:
        if not self.base_ms or not self.heavy_ms:
            raise RuntimeError(
                "no successful operation of each kind to measure: "
                + "; ".join(self.problems[:3])
            )
        return {
            "gcups": sum(p.cells for p in self.parts) / self.measured_s / 1e9,
            "rps": sum(p.ok for p in self.parts) / self.measured_s,
            "latency_ms_mean": float(np.mean(self.base_ms)),
            "latency_ms_p90": float(np.percentile(self.base_ms, 90)),
            "heavy_latency_ms_mean": float(np.mean(self.heavy_ms)),
            "recall_at_10": float(np.mean(self.recalls)),
            "success_frac": (self.attempted - self.failed) / self.attempted,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": rss_mb,
        }

    def raw(self) -> dict:
        """Every sample behind the metrics, for the run's result record."""
        return {
            "base_ms": self.base_ms,
            "heavy_ms": self.heavy_ms,
            "parts": [[p.window_s, p.ok, p.cells] for p in self.parts],
        }

    def summary(self) -> str:
        return (f"ops={self.attempted} failed={self.failed} "
                f"(wrong={self.wrong} errors={self.errors} shed={self.shed}) "
                f"parts={len(self.parts)} base_samples={len(self.base_ms)} "
                f"heavy_samples={len(self.heavy_ms)} "
                f"measured_s={self.measured_s:.3f}")


@dataclass
class Outcome:
    tally: Tally
    metrics: dict
    notes: list


def write_db(db: SequenceDatabase, path: Path) -> None:
    write_fasta(
        (FastaRecord(h, PROTEIN.decode(s))
         for h, s in zip(db.headers, db.sequences)),
        path,
    )


def _oracle_search(db: SequenceDatabase, query: str):
    with SearchPipeline(
        SearchOptions(kernel="python", matrix=MATRIX, gaps=GAPS)
    ) as oracle:
        return oracle.search(query, db).scores


def oracle_scores(db: SequenceDatabase, queries: dict) -> dict:
    """Full score vectors from the python-kernel exhaustive search.

    The oracle runs after the timed parts and is the slowest step of a
    ``paper_sweep`` run, so the queries are spread, longest first, over
    ``ORACLE_WORKERS`` forked processes, which have all ended on return.
    """
    order = sorted(queries, key=lambda name: -len(queries[name]))
    with ProcessPoolExecutor(ORACLE_WORKERS,
                             mp_context=multiprocessing.get_context("fork")
                             ) as pool:
        futures = {name: pool.submit(_oracle_search, db, queries[name])
                   for name in order}
        return {name: futures[name].result() for name in queries}


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def program_env(run: Run) -> dict:
    """Environment for a child process that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(run.root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


class Setup:
    """In-process set-up: load the FASTA and, for exact searches, pack it.

    The first load is the database the operations search, under
    ``db.load``/``db.preprocess`` spans.  :meth:`repeat` times the same
    steps again between parts; ``setup_s`` is the median of those times.
    """

    def __init__(self, fasta: Path, pack_lanes: int | None):
        self.fasta, self.lanes = fasta, pack_lanes
        self.total: list = []
        tracer = get_tracer()
        with tracer.span("db.load"):
            self.db = SequenceDatabase.from_fasta(fasta)
        self.pre = None
        if pack_lanes is not None:
            with tracer.span("db.preprocess"):
                self.pre = preprocess_database(self.db, lanes=pack_lanes)

    def repeat(self) -> None:
        for _ in range(SETUP_REPS):
            t0 = perf()
            db = SequenceDatabase.from_fasta(self.fasta)
            if self.lanes is not None:
                preprocess_database(db, lanes=self.lanes)
            self.total.append(perf() - t0)


def measure_passes(seconds: float, ops: list, tally: Tally,
                   between=None) -> list:
    """Closed loop of whole passes over ``ops`` for about ``seconds``.

    Passes go on while another one brings the measured time nearer to
    ``seconds``, so a run of long passes ends within half a pass of it.
    ``ops`` are ``(name, heavy, call)``; ``between`` runs before each
    pass, outside the timed parts.  Returns ``(part, name, heavy, ms,
    result)`` per completed operation.
    """
    results = []
    while not tally.parts or (
            tally.measured_s + tally.measured_s / len(tally.parts) / 2
            < seconds):
        if between is not None:
            between()
        part = Part()
        with get_tracer().span("bench.pass"):
            part.start = perf()
            for name, heavy, call in ops:
                t0 = perf()
                try:
                    r = call()
                except ReproError as exc:
                    tally.error(exc)
                    continue
                results.append((part, name, heavy, (perf() - t0) * 1e3, r))
            part.window_s = perf() - part.start
        tally.parts.append(part)
    return results


def windows(tally: Tally) -> list:
    return [(p.start, p.start + p.window_s) for p in tally.parts]


def trace_overhead(traced: Tally, plain: Tally) -> float:
    """Traced vs untraced throughput of the same operations."""
    return traced.measured_s / traced.attempted / (
        plain.measured_s / plain.attempted) - 1.0


def trace_notes(run: Run, tracer, workload: str, plain: Tally) -> list:
    path = run.work / f"trace-{workload}-seed{run.seed}.json"
    problem = layers.write_trace(
        tracer, path, run.root, {"workload": workload, "seed": run.seed}
    )
    if problem is not None:
        raise RuntimeError(f"chrome trace {path} fails validation: {problem}")
    return [f"untraced reference: {plain.summary()}",
            f"chrome trace: {path.relative_to(run.root)} "
            f"({len(tracer.collector)} spans, validated)"]


# ----------------------------------------------------------------------
# paper_sweep
# ----------------------------------------------------------------------
SWEEP_SCALE = 0.001
SWEEP_QUERIES = ("P02232", "P01008", "P27895", "P04775")
SWEEP_HEAVY = "P04775"


def paper_sweep(run: Run) -> Outcome:
    db0 = SyntheticSwissProt(seed=run.seed).generate(scale=SWEEP_SCALE)
    fasta = run.work / f"paper_sweep-{run.seed}.fasta"
    write_db(db0, fasta)
    specs = tuple(s for s in PAPER_QUERIES if s.accession in SWEEP_QUERIES)
    queries = {
        acc: PROTEIN.decode(codes)
        for acc, codes in make_query_set(specs, seed=run.seed).items()
    }
    pipe = SearchPipeline(
        SearchOptions(kernel="numpy", matrix=MATRIX, gaps=GAPS, top_k=TOP_K)
    )
    tracer = Tracer()
    with use_tracer(tracer if run.trace else get_tracer()):
        setup = Setup(fasta, pipe.lanes)
    db, pre = setup.db, setup.pre
    pipe.search(queries[SWEEP_QUERIES[0]], db, preprocessed=pre)  # warm-up
    ops = [
        (acc, acc == SWEEP_HEAVY,
         lambda acc=acc, q=q: pipe.search(q, db, query_name=acc,
                                          preprocessed=pre))
        for acc, q in queries.items()
    ]

    def check(tally: Tally, results: list, scores: dict) -> None:
        for part, acc, heavy, ms, r in results:
            tally.record(
                part, gate.check_exact(r.hits, scores[acc], TOP_K), heavy, ms,
                r.cells, gate.recall(r.hits, scores[acc], TOP_K),
            )

    tally = Tally()
    if not run.trace:
        results = measure_passes(run.seconds, ops, tally, setup.repeat)
        setup.repeat()
        rss = peak_rss_mb()
        check(tally, results, oracle_scores(db, queries))
        return Outcome(tally, tally.end_to_end(setup.total, rss), [])

    plain = Tally()
    plain_results = measure_passes(run.seconds / 2, ops, plain)
    stats = getattr(pipe.engine, "stats", None)
    sweeps0 = (stats.narrow_sweeps, stats.wide_sweeps) if stats else (0, 0)
    with use_tracer(tracer):
        results = measure_passes(run.seconds / 2, ops, tally)
    scores = oracle_scores(db, queries)
    check(plain, plain_results, scores)
    check(tally, results, scores)

    spans = layers.SpanSet(tracer.collector.spans())
    wins = windows(tally)
    m = dict.fromkeys(run.layer_names, 0.0)
    m["db.load_s"] = spans.total("db.load")
    m["preprocess.s"] = spans.total("db.preprocess")
    m.update(layers.padding(pre))
    m.update(layers.kernel_layer(spans, wins, m["preprocess.padded_cells"],
                                 m["preprocess.real_cells"]))
    if stats:
        m["kernel.narrow_sweeps"] = stats.narrow_sweeps - sweeps0[0]
        m["kernel.wide_sweeps"] = stats.wide_sweeps - sweeps0[1]
    m["rank.s"] = spans.total("pipeline.rank")
    m["trace.unattributed_frac"] = spans.unattributed_frac(wins)
    m["trace.overhead_frac"] = trace_overhead(tally, plain)
    return Outcome(tally, m, trace_notes(run, tracer, "paper_sweep", plain))


# ----------------------------------------------------------------------
# tiered_homologs
# ----------------------------------------------------------------------
#: The 150-residue fixture query of benchmarks/bench_tiered_recall.py.
TIERED_QUERY = (
    "YMFWKSTCREQWYAITNSNITEEQPQVHILKKLVTSPMEVICTDWMNAHANLVITYTMHLQIGCVA"
    "RDVFWCPGIAMTFDLQVWDLYTPMAPIRCLPLMWFGMKNRFGKECDGTHGKVGKHMHMLFVDKHGC"
    "RHTRHVVCAFAEIWRFLN"
)
#: A third of paper_sweep's scale, so a run holds many passes: one
#: sensitive search over scale 0.001 takes 3-5 s.
TIERED_SCALE = 0.0003
TIERED_RATE = 0.3
TIERED_HOMOLOGS = 10
#: One pass: the heavy sensitive search, then fast searches.  Fast runs
#: several times so its latency percentiles rest on seconds of samples.
TIERED_PASS = ("sensitive", "fast", "fast", "fast", "fast")


def tiered_homologs(run: Run) -> Outcome:
    background = SyntheticSwissProt(seed=run.seed).generate(scale=TIERED_SCALE)
    db0, _ = plant_homologs(
        background, {"bench-query": PROTEIN.encode(TIERED_QUERY)},
        [TIERED_RATE], per_rate=TIERED_HOMOLOGS, seed=run.seed,
    )
    fasta = run.work / f"tiered_homologs-{run.seed}.fasta"
    write_db(db0, fasta)
    tracer = Tracer()
    with use_tracer(tracer if run.trace else get_tracer()):
        setup = Setup(fasta, None)
    db = setup.db
    pipes = {
        mode: SearchPipeline(SearchOptions(
            kernel="numpy", matrix=MATRIX, gaps=GAPS, top_k=TOP_K, mode=mode,
        ))
        for mode in set(TIERED_PASS)
    }
    pipes["fast"].search(TIERED_QUERY, db)  # warm-up
    ops = [
        (mode, mode == "sensitive",
         lambda mode=mode: pipes[mode].search(TIERED_QUERY, db,
                                              query_name=mode))
        for mode in TIERED_PASS
    ]
    exhaustive_cells = len(TIERED_QUERY) * db.total_residues

    def check(tally: Tally, results: list, scores) -> None:
        for part, mode, heavy, ms, r in results:
            tally.record(
                part, gate.check_exact(r.hits, scores, TOP_K), heavy, ms,
                exhaustive_cells, gate.recall(r.hits, scores, TOP_K),
            )

    tally = Tally()
    if not run.trace:
        results = measure_passes(run.seconds, ops, tally, setup.repeat)
        setup.repeat()
        rss = peak_rss_mb()
        scores = oracle_scores(db, {"q": TIERED_QUERY})["q"]
        check(tally, results, scores)
        return Outcome(tally, tally.end_to_end(setup.total, rss), [])

    plain = Tally()
    plain_results = measure_passes(run.seconds / 2, ops, plain)
    with use_tracer(tracer):
        results = measure_passes(run.seconds / 2, ops, tally)
    scores = oracle_scores(db, {"q": TIERED_QUERY})["q"]
    check(plain, plain_results, scores)
    check(tally, results, scores)

    spans = layers.SpanSet(tracer.collector.spans())
    wins = windows(tally)
    m = dict.fromkeys(run.layer_names, 0.0)
    m["db.load_s"] = spans.total("db.load")
    stage = {name: spans.named(f"tiered.{name}")
             for name in ("seed", "verify", "rescore")}
    for name, group in stage.items():
        m[f"tiered.{name}_s"] = sum(s.wall_seconds for s in group)
        m[f"tiered.{name}_cells"] = layers.attr_sum(group, "cells")
    m["tiered.seed_survivor_frac"] = (
        layers.attr_sum(stage["seed"], "survivors")
        / layers.attr_sum(stage["seed"], "candidates"))
    m["tiered.verify_survivor_frac"] = (
        layers.attr_sum(stage["verify"], "survivors")
        / max(1, layers.attr_sum(stage["verify"], "candidates")))
    m["tiered.exact_cell_reduction"] = (
        exhaustive_cells * len(stage["rescore"])
        / max(1, m["tiered.rescore_cells"]))
    m["rank.s"] = sum(spans.self_seconds(s) for s in spans.named("tiered.search"))
    m["trace.unattributed_frac"] = spans.unattributed_frac(wins)
    m["trace.overhead_frac"] = trace_overhead(tally, plain)
    return Outcome(tally, m, trace_notes(run, tracer, "tiered_homologs", plain))


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
SERVE_SCALE = 0.0003
SERVE_CLIENTS = 2
#: Server processes per run; the measured seconds are split among them.
SERVE_PARTS = 5
#: One block of the request mix: query lengths at 60/30/10 %.  The
#: traceback request of each block is one of its 60-residue queries.
SERVE_BLOCK = (30,) * 6 + (60,) * 3 + (150,)
SERVE_POOL = 8  # distinct queries per length
SERVE_MUTATION = 0.2
SERVER_START_TIMEOUT = 60.0
#: Server counters summed over the server processes of a traced run.
SERVER_COUNTERS = ("serve.shed", "service.preprocess_cache.hits",
                   "service.preprocess_cache.misses")


def serve_query_pool(db: SequenceDatabase, seed: int) -> dict:
    """Mutated windows of median-length database proteins, per length.

    Every query has a real homolog, so its top hit (and the traceback a
    request may ask for) is against a typical-length protein rather than
    whichever long-tail sequence a random query happens to match best.
    """
    rng = np.random.default_rng(seed)
    order = np.argsort(db.lengths, kind="stable")
    band = order[len(order) * 2 // 5: len(order) * 3 // 5]
    pool = {}
    for length in sorted(set(SERVE_BLOCK)):
        for k in range(SERVE_POOL):
            src = db.sequences[int(rng.choice(band))]
            start = int(rng.integers(0, len(src) - length + 1))
            piece = mutate(src[start:start + length], SERVE_MUTATION, rng=rng)
            pool[f"q{length}-{k}"] = PROTEIN.decode(piece)
    return pool


class Schedule:
    """The seeded request sequence both clients draw from, in order."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.pending: list = []
        self.deadline = 0.0

    def next(self):
        """``(length, pool index, traceback?)``, or ``None`` once time is up.

        Called under the caller's lock: blocks are drawn whole, so every
        run sees the mix in the same proportions.
        """
        if perf() >= self.deadline:
            return None
        if not self.pending:
            block = [int(n) for n in self.rng.permutation(SERVE_BLOCK)]
            tb = int(self.rng.choice([i for i, n in enumerate(block) if n == 60]))
            self.pending = [
                (n, int(self.rng.integers(SERVE_POOL)), i == tb)
                for i, n in enumerate(block)
            ]
        return self.pending.pop(0)


class Server:
    """``repro serve`` in its own process; ``setup_s`` is start to healthy."""

    def __init__(self, run: Run, fasta: Path):
        t0 = perf()
        self.log = open(run.work / "server.log", "a", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--db-fasta", str(fasta), "--port", "0", "--kernel", "numpy",
             "--matrix", "BLOSUM62", "--gap-open", str(GAPS.open),
             "--gap-extend", str(GAPS.extend), "--top", str(TOP_K)],
            cwd=run.root, env=program_env(run), stdout=subprocess.PIPE,
            stderr=self.log, text=True,
        )
        try:
            self.url = self._read_url(t0 + SERVER_START_TIMEOUT)
            self._wait_healthy(t0 + SERVER_START_TIMEOUT)
        except BaseException:
            self.stop()
            raise
        self.setup_s = perf() - t0

    def _read_url(self, deadline: float) -> str:
        while perf() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if " at http://" in line:
                    return line.split(" at ", 1)[1].split()[0]
        raise RuntimeError("repro serve did not report its URL "
                           f"(exit code {self.proc.poll()})")

    def _wait_healthy(self, deadline: float) -> None:
        while perf() < deadline:
            try:
                with urllib.request.urlopen(self.url + "/v1/healthz",
                                            timeout=2.0) as resp:
                    if resp.status == 200:
                        return
            except (urllib.error.URLError, ConnectionError, OSError):
                time.sleep(0.005)
        raise RuntimeError("repro serve never answered /v1/healthz")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def serve_window(clients: list, pool: dict, sched: Schedule, seconds: float,
                 tally: Tally) -> list:
    """Closed loop of ``clients`` threads for ``seconds``: one part."""
    lock = threading.Lock()
    part = Part()
    results: list = []

    def loop(client):
        while True:
            with lock:
                item = sched.next()
            if item is None:
                return
            length, k, tb = item
            name = f"q{length}-{k}"
            req = SearchRequest(
                query=pool[name], name=("tb-" if tb else "") + name,
                top_k=1 if tb else TOP_K, traceback=tb,
            )
            t0 = perf()
            try:
                outcome = client.search(req)
            except ReproError as exc:
                with lock:
                    tally.error(exc)
                continue
            with lock:
                results.append((part, name, tb, (perf() - t0) * 1e3, outcome))

    with get_tracer().span("bench.window"):
        part.start = perf()
        sched.deadline = part.start + seconds
        with ThreadPoolExecutor(max_workers=len(clients)) as threads:
            for future in [threads.submit(loop, c) for c in clients]:
                future.result()
        part.window_s = perf() - part.start
    tally.parts.append(part)
    return results


def serve_mixed(run: Run) -> Outcome:
    db0 = SyntheticSwissProt(seed=run.seed).generate(scale=SERVE_SCALE)
    fasta = run.work / f"serve_mixed-{run.seed}.fasta"
    write_db(db0, fasta)
    tracer = Tracer()
    with use_tracer(tracer if run.trace else get_tracer()):
        with tracer.span("db.load"):
            db = SequenceDatabase.from_fasta(fasta)
    pool = serve_query_pool(db, run.seed)
    sched = Schedule(np.random.default_rng(run.seed + 1))
    # A traced run splits each server's share between its two windows.
    seconds = run.seconds / SERVE_PARTS / (2 if run.trace else 1)
    tally, plain = Tally(), Tally()
    results, plain_results, setup_s, all_clients = [], [], [], []
    server_counts = dict.fromkeys(SERVER_COUNTERS, 0)
    for _ in range(SERVE_PARTS):
        server = Server(run, fasta)
        try:
            setup_s.append(server.setup_s)
            clients = [
                SearchClient(server.url, metrics=MetricsRegistry(), timeout=60.0)
                for _ in range(SERVE_CLIENTS)
            ]
            all_clients += clients
            with use_tracer(tracer if run.trace else get_tracer()):
                for client in clients:  # warm-up: the first request packs
                    for length in sorted(set(SERVE_BLOCK)):
                        client.search(SearchRequest(query=pool[f"q{length}-0"]))
            if run.trace:
                plain_results += serve_window(clients, pool, sched, seconds, plain)
                with use_tracer(tracer):
                    results += serve_window(clients, pool, sched, seconds, tally)
                snapshot = clients[0].server_metrics()
                for name in SERVER_COUNTERS:
                    server_counts[name] += snapshot.get(name, 0)
            else:
                results += serve_window(clients, pool, sched, seconds, tally)
        finally:
            server.stop()
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    scores = oracle_scores(db, pool)

    def check(tally: Tally, results: list) -> None:
        for part, name, tb, ms, outcome in results:
            k = 1 if tb else TOP_K
            problem = gate.check_exact(outcome.hits, scores[name], k)
            if problem is None and tb:
                hit = outcome.hits[0]
                problem = gate.check_alignment(
                    hit, pool[name], PROTEIN.decode(db.sequences[hit.index]),
                    MATRIX, GAPS,
                )
            tally.record(part, problem, tb, ms,
                         len(pool[name]) * db.total_residues,
                         gate.recall(outcome.hits, scores[name], k))

    check(tally, results)
    if not run.trace:
        return Outcome(tally, tally.end_to_end(setup_s, rss), [])
    check(plain, plain_results)
    with use_tracer(tracer):
        wire_ms = wire_replay([r[4] for r in results])
    m = serve_layers(
        run.layer_names, layers.SpanSet(tracer.collector.spans()),
        windows(tally), db, pool, results, server_counts, all_clients,
    )
    m.update(wire_ms)
    m["trace.overhead_frac"] = trace_overhead(tally, plain)
    notes = ["kernel.narrow_sweeps/wide_sweeps: not observable outside the "
             "server process (read 0)"]
    return Outcome(tally, m,
                   notes + trace_notes(run, tracer, "serve_mixed", plain))


def serve_layers(names, spans, wins, db, pool, results, server_counts,
                 clients) -> dict:
    """Per-layer figures of the traced ``serve_mixed`` parts."""
    m = dict.fromkeys(names, 0.0)
    m["db.load_s"] = spans.total("db.load")
    searches = spans.named("pipeline.search")
    lanes = int(searches[0].attributes["lanes"])
    m.update(layers.padding(preprocess_database(db, lanes=lanes)))
    misses = [s for s in spans.named("cache.get") if not s.attributes.get("hit")]
    m["preprocess.s"] = statistics.median(s.wall_seconds for s in misses)
    m.update(layers.kernel_layer(spans, wins, m["preprocess.padded_cells"],
                                 m["preprocess.real_cells"]))
    m["rank.s"] = sum(s.wall_seconds for s in spans.named("pipeline.rank")
                      if layers.inside(s, wins))
    tb_searches = [s for s in searches if layers.inside(s, wins)
                   and str(s.attributes.get("query_name")).startswith("tb-")]
    m["traceback.s"] = sum(spans.self_seconds(s) for s in tb_searches)
    tb_done = [(name, o) for _, name, tb, _, o in results if tb and o.hits]
    m["traceback.calls"] = sum(
        1 for _, o in tb_done for h in o.hits if h.alignment is not None)
    m["traceback.cells"] = sum(len(pool[name]) * o.hits[0].length
                               for name, o in tb_done)
    if m["traceback.s"]:
        m["traceback.cells_per_s"] = m["traceback.cells"] / m["traceback.s"]
    handled = [s for s in spans.named("serve.request") if layers.inside(s, wins)]
    m["service.handle_ms_p50"] = 1e3 * statistics.median(
        s.wall_seconds for s in handled)
    hits = server_counts["service.preprocess_cache.hits"]
    lookups = hits + server_counts["service.preprocess_cache.misses"]
    m["service.cache_hit_frac"] = hits / lookups
    overhead = []
    for rpc in spans.named("serve.client.request"):
        inner = spans.find_child(rpc, "serve.request")
        if inner is not None and layers.inside(rpc, wins):
            overhead.append(rpc.wall_seconds - inner.wall_seconds)
    m["http.overhead_ms_p50"] = 1e3 * statistics.median(overhead)
    for key, counter in (("http.errors", "serve.client.errors"),
                         ("http.retries", "serve.client.retries")):
        m[key] = sum(c.metrics.snapshot().get(counter, 0) for c in clients)
    m["http.shed"] = server_counts["serve.shed"]
    m["trace.unattributed_frac"] = spans.unattributed_frac(wins)
    return m


def wire_replay(outcomes: list) -> dict:
    """Time the wire codec on the outcomes the clients received."""
    tracer = get_tracer()
    enc, dec, size = [], [], []
    for outcome in outcomes:
        t0 = perf()
        with tracer.span("wire.encode"):
            doc = wire.encode_outcome(outcome)
        t1 = perf()
        body = json.dumps(wire.envelope("outcome", {"outcome": doc}))
        t2 = perf()
        with tracer.span("wire.decode"):
            wire.decode_outcome(doc)
        t3 = perf()
        enc.append(t1 - t0)
        dec.append(t3 - t2)
        size.append(len(body.encode("utf-8")))
    return {
        "wire.encode_ms": 1e3 * statistics.median(enc),
        "wire.decode_ms": 1e3 * statistics.median(dec),
        "wire.response_bytes": statistics.median(size),
    }


WORKLOADS = {
    "paper_sweep": paper_sweep,
    "tiered_homologs": tiered_homologs,
    "serve_mixed": serve_mixed,
}
