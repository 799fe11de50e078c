"""Fault-tolerant Algorithm 2: retry, watchdog, host-reclaim.

:class:`ResilientHybridExecutor` wraps the static-split
:class:`~repro.runtime.hybrid.HybridExecutor` with the failure handling
a production offload deployment needs.  The device share is cut into
chunks; each chunk runs through its own asynchronous offload region
under a watchdog deadline.  A failed or timed-out chunk is retried with
capped exponential backoff (virtual time), a circuit breaker trips a
device that keeps failing, and when a chunk exhausts its retries it is
**reclaimed**: re-executed on the host after the host's own share —
graceful degradation all the way down to host-only operation, never a
wrong or missing result.

With no injector (or a null fault plan) the executor takes the exact
single-region path of :class:`HybridExecutor` — zero overhead, identical
timings — so resilience is free until something actually goes wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..exceptions import CircuitOpen, DeviceTimeout, FaultInjected, PipelineError
from ..faults.injection import FaultInjector
from ..faults.policy import CircuitBreaker, RetryPolicy, Timeout
from ..metrics.counters import METRICS
from ..obs.tracer import get_tracer
from ..perfmodel.model import DevicePerformanceModel, RunConfig, Workload
from .hybrid import HybridExecutor, HybridResult, require_work
from .offload import OffloadRegion
from .pcie import PCIE_GEN2_X16, PCIeLink

__all__ = [
    "AttemptRecord",
    "ResilientResult",
    "ResilientSearchOutcome",
    "ResilientHybridExecutor",
]

#: Per-region fixed input payload: query + substitution matrix (bytes).
_REGION_FIXED_IN = 24 * 24 * 4


@dataclass(frozen=True)
class AttemptRecord:
    """One entry of the per-attempt timeline of a resilient run."""

    unit: int
    attempt: int
    start: float
    end: float
    outcome: str  # "ok" | fault kind | "timeout" | "circuit-open"

    @property
    def ok(self) -> bool:
        """True when this attempt completed the chunk."""
        return self.outcome == "ok"


@dataclass(frozen=True)
class ResilientResult:
    """Timing, degradation and fault accounting of one resilient run."""

    device_fraction: float
    total_seconds: float
    host_seconds: float
    device_seconds: float   # device-side timeline end (faults included)
    reclaim_seconds: float  # host time re-running abandoned device chunks
    cells: int
    reclaimed_cells: int
    chunks: int
    chunks_reclaimed: int
    faults_injected: int
    timeline: tuple[AttemptRecord, ...]
    baseline_seconds: float  # fault-free HybridExecutor total

    @property
    def degraded(self) -> bool:
        """True when any device chunk had to be reclaimed by the host."""
        return self.chunks_reclaimed > 0

    @property
    def mode(self) -> str:
        """Degradation mode: healthy / recovered / degraded / host-only."""
        if self.chunks_reclaimed == 0:
            return "healthy" if self.faults_injected == 0 else "recovered"
        if self.chunks_reclaimed == self.chunks:
            return "host-only"
        return "degraded"

    @property
    def gcups(self) -> float:
        """Achieved throughput including all fault handling."""
        return self.cells / self.total_seconds / 1e9

    @property
    def baseline_gcups(self) -> float:
        """Throughput the fault-free static split would have reached."""
        return self.cells / self.baseline_seconds / 1e9

    @property
    def gcups_lost(self) -> float:
        """Effective throughput surrendered to faults and their handling."""
        return max(self.baseline_gcups - self.gcups, 0.0)


@dataclass(frozen=True)
class ResilientSearchOutcome:
    """A real (score-exact) resilient search plus its fault accounting."""

    result: Any  # SearchResult — untyped to avoid a search<->runtime cycle
    resilience: ResilientResult


class ResilientHybridExecutor:
    """Runs the hybrid search and survives an unreliable coprocessor.

    Parameters
    ----------
    host, device:
        Performance models of the two sides (as for
        :class:`HybridExecutor`).
    injector:
        Optional fault injector.  Without one (or with a null plan) runs
        are byte-identical to :class:`HybridExecutor`.
    retry:
        Backoff ladder for failed chunks (default: 3 retries).
    timeout:
        Optional per-chunk watchdog; without it a hung chunk is only
        detected when the hang elapses (``FaultPlan.hang_seconds``).
    breaker:
        Circuit-breaker *prototype*; each run gets a fresh breaker with
        the same thresholds so repeated runs stay deterministic.
    chunks:
        Number of pieces the device share is cut into when a fault plan
        is active.
    """

    def __init__(
        self,
        host: DevicePerformanceModel,
        device: DevicePerformanceModel,
        *,
        link: PCIeLink = PCIE_GEN2_X16,
        host_lanes: int | None = None,
        device_lanes: int | None = None,
        injector: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        timeout: Timeout | None = None,
        breaker: CircuitBreaker | None = None,
        chunks: int = 8,
    ) -> None:
        if chunks < 1:
            raise PipelineError(f"chunk count must be positive, got {chunks}")
        self._inner = HybridExecutor(
            host, device, link=link,
            host_lanes=host_lanes, device_lanes=device_lanes,
        )
        self.injector = injector
        self.retry = retry or RetryPolicy()
        self.timeout = timeout
        self._breaker_prototype = breaker or CircuitBreaker()
        self.chunks = chunks

    # ------------------------------------------------------------------
    @property
    def host(self) -> DevicePerformanceModel:
        """The host-side performance model."""
        return self._inner.host

    @property
    def device(self) -> DevicePerformanceModel:
        """The device-side performance model."""
        return self._inner.device

    @staticmethod
    def _record_fault_metrics(faults: int, reclaimed: int) -> None:
        if faults:
            METRICS.increment("resilient.faults.injected", faults)
        if reclaimed:
            METRICS.increment("resilient.chunks.reclaimed", reclaimed)

    def _fresh_breaker(self) -> CircuitBreaker:
        proto = self._breaker_prototype
        return CircuitBreaker(
            failure_threshold=proto.failure_threshold,
            cooldown_seconds=proto.cooldown_seconds,
        )

    def _faulty(self) -> bool:
        return self.injector is not None and not self.injector.plan.is_null

    # ------------------------------------------------------------------
    def run(
        self,
        lengths: np.ndarray,
        query_len: int,
        device_fraction: float,
        config: RunConfig | None = None,
    ) -> ResilientResult:
        """One resilient Algorithm 2 execution at a fixed split fraction."""
        cfg = config or RunConfig()
        arr = require_work(lengths, what="database length distribution")
        baseline = self._inner.run(arr, query_len, device_fraction, cfg)
        if not self._faulty():
            return self._wrap_healthy(baseline)

        with get_tracer().span("resilient.run") as root:
            if root:
                root.set_attributes(
                    device_fraction=device_fraction, chunks=self.chunks
                )
            host_l, dev_l = self._inner_split(arr, device_fraction)
            host_s = self._side_seconds(
                self.host, host_l, self._inner.host_lanes, query_len, cfg
            )
            chunk_lengths = self._chunked(dev_l)
            device_end, _, reclaimed, timeline, faults = (
                self._device_timeline(
                    chunk_lengths, query_len, cfg, kernels=None
                )
            )
            reclaimed_l = (
                np.concatenate([chunk_lengths[i] for i in reclaimed])
                if reclaimed else np.empty(0, dtype=np.int64)
            )
            reclaim_s = self._side_seconds(
                self.host, reclaimed_l, self._inner.host_lanes, query_len, cfg
            )
            total = max(host_s, device_end) + reclaim_s
            self._record_fault_metrics(faults, len(reclaimed))
            if root:
                root.set_virtual(0.0, total)
        return ResilientResult(
            device_fraction=device_fraction,
            total_seconds=total,
            host_seconds=host_s,
            device_seconds=device_end,
            reclaim_seconds=reclaim_s,
            cells=int(query_len) * int(arr.sum()),
            reclaimed_cells=int(query_len) * int(reclaimed_l.sum()),
            chunks=len(chunk_lengths),
            chunks_reclaimed=len(reclaimed),
            faults_injected=faults,
            timeline=tuple(timeline),
            baseline_seconds=baseline.total_seconds,
        )

    def search(
        self,
        query,
        database,
        *,
        device_fraction: float = 0.55,
        query_name: str = "query",
        top_k: int = 10,
        matrix=None,
        gaps=None,
    ) -> ResilientSearchOutcome:
        """A real resilient search: scores exact no matter what fails.

        The device share is split into sub-databases, each scored inside
        a faultable offload region; abandoned chunks are re-scored on
        the host.  The merged scores are byte-identical to a fault-free
        :class:`~repro.search.SearchPipeline` run over the whole
        database.
        """
        from ..alphabet import PROTEIN
        from ..core.engine import as_codes
        from ..db.preprocess import split_indices
        from ..search.api import SearchOptions
        from ..search.pipeline import SearchPipeline
        from ..search.result import SearchResult
        from ..search.topk import rank_hits

        if len(database) == 0:
            raise PipelineError("cannot search an empty database")
        alphabet = getattr(database, "alphabet", PROTEIN)
        q = as_codes(query, alphabet)
        cfg = RunConfig()
        opts = SearchOptions(matrix=matrix, gaps=gaps, alphabet=alphabet)
        host_pipe = SearchPipeline(opts.merged(lanes=self.host.spec.lanes32))
        device_pipe = SearchPipeline(
            opts.merged(lanes=self.device.spec.lanes32)
        )

        tracer = get_tracer()
        with tracer.span("resilient.search") as root:
            if root:
                root.set_attributes(
                    query_name=query_name, database=database.name,
                    device_fraction=device_fraction, chunks=self.chunks,
                )
            host_idx, dev_idx = split_indices(
                database.lengths, device_fraction
            )
            host_db = database.subset(host_idx, name=f"{database.name}-cpu")
            dev_db = database.subset(dev_idx, name=f"{database.name}-mic")
            baseline = self._inner.run(database.lengths, len(q),
                                       device_fraction, cfg)

            # --- host share (overlapped in Algorithm 2) ---------------
            host_s = self._side_seconds(self.host, host_db.lengths,
                                        self._inner.host_lanes, len(q), cfg)
            parts: list[tuple[Any, np.ndarray]] = []
            wall = 0.0
            if len(host_db):
                with tracer.span("resilient.host", worker="host") as sp:
                    host_result = host_pipe.search(
                        q, host_db, query_name=query_name, top_k=0
                    )
                    if sp:
                        sp.set_attributes(sequences=len(host_db))
                        sp.set_virtual(0.0, host_s)
                wall += host_result.wall_seconds
                parts.append((host_idx, host_result.scores))

            # --- device share, chunked through faultable regions ------
            chunk_indices = (
                [c for c in np.array_split(np.arange(len(dev_db)),
                                           min(self.chunks, len(dev_db)))
                 if c.size]
                if len(dev_db) else []
            )
            chunk_dbs = [
                dev_db.subset(idx.astype(np.int64), name=f"{dev_db.name}-c{k}")
                for k, idx in enumerate(chunk_indices)
            ]
            kernels = [
                (lambda cdb=cdb: device_pipe.search(
                    q, cdb, query_name=query_name, top_k=0
                ))
                for cdb in chunk_dbs
            ]
            device_end, results, reclaimed, timeline, faults = (
                self._device_timeline(
                    [cdb.lengths for cdb in chunk_dbs], len(q), cfg,
                    kernels=kernels,
                )
            )
            for i, chunk_result in results.items():
                wall += chunk_result.wall_seconds
                parts.append((dev_idx[chunk_indices[i]], chunk_result.scores))

            # --- host reclaim of abandoned chunks ---------------------
            reclaimed_l = (
                np.concatenate([chunk_dbs[i].lengths for i in reclaimed])
                if reclaimed else np.empty(0, dtype=np.int64)
            )
            reclaim_s = self._side_seconds(self.host, reclaimed_l,
                                           self._inner.host_lanes, len(q),
                                           cfg)
            if reclaimed:
                with tracer.span("resilient.reclaim", worker="host") as sp:
                    if sp:
                        sp.set_attributes(chunks=len(reclaimed))
                        sp.set_virtual(
                            max(host_s, device_end),
                            max(host_s, device_end) + reclaim_s,
                        )
                    for i in reclaimed:
                        redo = host_pipe.search(q, chunk_dbs[i],
                                                query_name=query_name,
                                                top_k=0)
                        wall += redo.wall_seconds
                        parts.append((dev_idx[chunk_indices[i]], redo.scores))

            # --- merge (step 4): scatter back by database index ------
            with tracer.span("resilient.merge"):
                scores = np.zeros(len(database), dtype=np.int64)
                for idx, part_scores in parts:
                    scores[idx] = part_scores
                hits = rank_hits(scores, database, top_k)
            total = max(host_s, device_end) + reclaim_s
            self._record_fault_metrics(faults, len(reclaimed))
            result = SearchResult(
                query_name=query_name,
                query_length=len(q),
                database_name=database.name,
                scores=scores,
                hits=hits,
                cells=len(q) * database.total_residues,
                wall_seconds=wall,
                modeled_seconds=total,
            )
            if root:
                root.set_virtual(0.0, total)
                root.set_attributes(
                    faults_injected=faults, chunks_reclaimed=len(reclaimed)
                )
                result.trace = {"span_id": root.span_id, "span": root.name}
            resilience = ResilientResult(
                device_fraction=device_fraction,
                total_seconds=total,
                host_seconds=host_s,
                device_seconds=device_end,
                reclaim_seconds=reclaim_s,
                cells=result.cells,
                reclaimed_cells=int(len(q)) * int(reclaimed_l.sum()),
                chunks=len(chunk_dbs),
                chunks_reclaimed=len(reclaimed),
                faults_injected=faults,
                timeline=tuple(timeline),
                baseline_seconds=baseline.total_seconds,
            )
            return ResilientSearchOutcome(result=result, resilience=resilience)

    # ------------------------------------------------------------------
    def _inner_split(
        self, arr: np.ndarray, device_fraction: float
    ) -> tuple[np.ndarray, np.ndarray]:
        from .hybrid import split_lengths

        return split_lengths(arr, device_fraction)

    def _side_seconds(
        self,
        model: DevicePerformanceModel,
        lengths: np.ndarray,
        lanes: int,
        query_len: int,
        cfg: RunConfig,
    ) -> float:
        if lengths.size == 0:
            return 0.0
        wl = Workload.from_lengths(lengths, lanes)
        return model.run_seconds(wl, query_len, cfg)

    def _chunked(self, dev_l: np.ndarray) -> list[np.ndarray]:
        if dev_l.size == 0:
            return []
        return [
            c for c in np.array_split(dev_l, min(self.chunks, dev_l.size))
            if c.size
        ]

    def _device_timeline(
        self,
        chunk_lengths: list[np.ndarray],
        query_len: int,
        cfg: RunConfig,
        *,
        kernels: list[Callable[[], Any]] | None,
    ) -> tuple[float, dict[int, Any], list[int], list[AttemptRecord], int]:
        """Simulate the chunked device share under faults, in virtual time.

        Returns ``(device_end, results, reclaimed, timeline, faults)``
        where ``results`` maps completed chunk index to its kernel
        payload and ``reclaimed`` lists chunks abandoned to the host.
        """
        tracer = get_tracer()
        breaker = self._fresh_breaker()
        timeline: list[AttemptRecord] = []
        results: dict[int, Any] = {}
        reclaimed: list[int] = []
        faults = 0
        t = 0.0
        # Chunks are consecutive slices of one streamed device share, so
        # each is priced as its cells' share of the whole-share sustained
        # rate plus the per-offload fixed overhead.  Pricing a chunk as a
        # standalone Workload would re-simulate the OpenMP schedule on a
        # tiny group count and charge an imbalance penalty that real
        # chunked streaming never pays.
        rate = 0.0
        if chunk_lengths:
            all_lengths = np.concatenate(chunk_lengths)
            wl = Workload.from_lengths(all_lengths, self._inner.device_lanes)
            rate = self.device.rate(wl, cfg)
        for i, chunk in enumerate(chunk_lengths):
            compute = (
                self.device.cal.fixed_run_seconds
                + query_len * int(chunk.sum()) / rate
            )
            in_bytes = int(chunk.sum()) + query_len + _REGION_FIXED_IN
            out_bytes = 4 * len(chunk)
            kernel = kernels[i] if kernels is not None else None
            attempt = 0
            done = False
            chunk_start = t
            with tracer.span("resilient.chunk", worker="device") as sp:
                if sp:
                    sp.set_attributes(chunk=i, sequences=len(chunk))
                while True:
                    try:
                        breaker.check(t)
                    except CircuitOpen:
                        timeline.append(
                            AttemptRecord(i, attempt, t, t, "circuit-open")
                        )
                        if sp:
                            sp.add_event(
                                "fault", kind="circuit-open", attempt=attempt
                            )
                        break
                    region = OffloadRegion(
                        self._inner.link, injector=self.injector
                    )
                    handle = region.run_async(
                        start_at=t, in_bytes=in_bytes, out_bytes=out_bytes,
                        compute_seconds=compute, kernel=kernel,
                        unit=i, attempt=attempt,
                    )
                    deadline = (
                        self.timeout.deadline(t)
                        if self.timeout is not None else None
                    )
                    try:
                        end = region.wait(handle, now=t, deadline=deadline)
                    except DeviceTimeout as exc:
                        fail_at, outcome = float(exc.at), "timeout"
                    except FaultInjected as exc:
                        fail_at, outcome = float(exc.at), str(exc.kind)
                    else:
                        timeline.append(AttemptRecord(i, attempt, t, end, "ok"))
                        results[i] = handle.result
                        breaker.record_success(end)
                        t = end
                        done = True
                        break
                    faults += 1
                    timeline.append(
                        AttemptRecord(i, attempt, t, fail_at, outcome)
                    )
                    if sp:
                        sp.add_event("fault", kind=outcome, attempt=attempt)
                    breaker.record_failure(fail_at)
                    t = fail_at
                    attempt += 1
                    if not self.retry.allows(attempt):
                        break
                    t += self.retry.backoff(attempt)
                if not done:
                    reclaimed.append(i)
                    if sp:
                        sp.add_event("chunk.reclaimed")
                if sp:
                    sp.set_attributes(attempts=attempt + 1, ok=done)
                    sp.set_virtual(chunk_start, t)
        return t, results, reclaimed, timeline, faults

    def _wrap_healthy(self, base: HybridResult) -> ResilientResult:
        """Package a fault-free single-region run (no overhead path)."""
        return ResilientResult(
            device_fraction=base.device_fraction,
            total_seconds=base.total_seconds,
            host_seconds=base.host_seconds,
            device_seconds=base.device_seconds,
            reclaim_seconds=0.0,
            cells=base.cells,
            reclaimed_cells=0,
            chunks=1,
            chunks_reclaimed=0,
            faults_injected=0,
            timeline=(),
            baseline_seconds=base.total_seconds,
        )
