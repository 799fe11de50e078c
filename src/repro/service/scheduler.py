"""The executing twin of the work-queue schedule.

:func:`repro.perfmodel.plan_work_queue` decides, in virtual time, which
database chunks each side of the heterogeneous pair pulls;
:class:`WorkQueueScheduler` *runs* that plan: host chunks go through a
host-lane :class:`~repro.search.SearchPipeline`, device chunks through a
device-lane pipeline inside an asynchronous offload region (kernel
deferred to ``wait()``, like every device computation in this library),
and the per-chunk scores scatter back into one ranking.  Because every
path computes exact Smith-Waterman scores, the merged result is
byte-identical to the static split's and to a plain whole-database
search — the schedule only moves *where* and *when* work happens.

The outcome carries the dynamic plan next to the static split's
reference makespan, so the paper's hand-tuned ratio can be compared
against untuned dynamic scheduling on the same search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.engine import as_codes
from ..db.database import SequenceDatabase
from ..exceptions import ParallelError, PipelineError
from ..metrics.counters import METRICS, MetricsRegistry
from ..obs.tracer import get_tracer
from ..perfmodel.model import DevicePerformanceModel
from ..perfmodel.scheduling import WorkQueuePlan, plan_work_queue
from ..runtime.hybrid import HybridExecutor
from ..runtime.offload import OffloadRegion
from ..runtime.pcie import PCIE_GEN2_X16, PCIeLink
from ..search.api import SearchOptions
from ..search.pipeline import SearchPipeline
from ..search.result import Hit, SearchResult
from ..search.topk import rank_hits

__all__ = ["QueueSearchOutcome", "WorkQueueScheduler"]


@dataclass
class QueueSearchOutcome:
    """A dynamically-scheduled search plus both modelled makespans."""

    result: SearchResult
    plan: WorkQueuePlan
    static_fraction: float
    static_modeled_makespan: float

    @property
    def modeled_makespan(self) -> float:
        """The dynamic schedule's makespan (the slower worker)."""
        return self.plan.makespan

    @property
    def modeled_gcups(self) -> float:
        """Throughput under the dynamic schedule."""
        return self.result.cells / self.plan.makespan / 1e9

    @property
    def static_modeled_gcups(self) -> float:
        """Throughput the static split would have achieved."""
        return self.result.cells / self.static_modeled_makespan / 1e9

    # -- SearchOutcome protocol ----------------------------------------
    @property
    def hits(self) -> list[Hit]:
        """Ranked hits of the merged search."""
        return self.result.hits

    def best_score(self) -> int:
        """Highest alignment score across all chunks."""
        return self.result.best_score()

    @property
    def gcups(self) -> float:
        """Headline throughput: the dynamic schedule's modelled GCUPS."""
        return self.modeled_gcups

    @property
    def provenance(self) -> dict:
        """Identifying fields (:class:`~repro.search.SearchOutcome`)."""
        return {
            **self.result.provenance,
            "kind": "work-queue",
            "scheduler": "queue",
            "chunks": len(self.plan.assignments),
            "device_fraction": self.plan.device_residue_fraction,
        }


class WorkQueueScheduler:
    """Dynamic host/device distribution with real execution.

    Parameters
    ----------
    host_model, device_model:
        The two sides' performance models (paper: dual Xeon + Phi).
    options:
        Shared :class:`~repro.search.SearchOptions`; ``lanes``, when
        set, pins both sides, otherwise each runs its native width.
    link:
        PCIe model device chunks cross (both directions, per chunk).
    chunks:
        Queue granularity — residue-balanced units on the shared queue.
    static_fraction:
        Device share of the *reference* static split reported next to
        the dynamic makespan (the knob the paper hand-tunes; the queue
        itself has no such knob).
    metrics:
        Registry receiving the ``queue.*`` metrics; defaults to the
        process-wide one and is forwarded to both per-side pipelines.
    workers:
        With ``workers > 1``, the planned chunks are drained by a real
        process pool (:class:`repro.parallel.ProcessPoolBackend`): each
        assignment becomes one subset task, re-packed worker-side at its
        side's lane width exactly like the serial per-chunk pipeline, so
        the merged scores — and the fault-injection redo counts — are
        identical to serial draining.  The virtual-time plan (and the
        modelled offload accounting) is unchanged; only the real
        execution moves onto the pool.  Falls back to serial draining if
        the pool cannot run.
    parallel_broadcast:
        Broadcast strategy forwarded to the pool (``"auto"``, ``"shm"``
        or ``"pickle"``).
    """

    def __init__(
        self,
        host_model: DevicePerformanceModel,
        device_model: DevicePerformanceModel,
        options: SearchOptions | None = None,
        *,
        link: PCIeLink = PCIE_GEN2_X16,
        chunks: int = 24,
        static_fraction: float = 0.55,
        metrics: MetricsRegistry | None = None,
        workers: int | None = None,
        parallel_broadcast: str = "auto",
    ) -> None:
        if not 0.0 <= static_fraction <= 1.0:
            raise PipelineError(
                f"static fraction must be within [0, 1], got {static_fraction}"
            )
        if workers is not None and int(workers) < 1:
            raise PipelineError(
                f"worker count must be positive, got {workers}"
            )
        opts = options if options is not None else SearchOptions()
        self.options = opts
        self.host_model = host_model
        self.device_model = device_model
        self.link = link
        self.chunks = chunks
        self.static_fraction = static_fraction
        self.alphabet = opts.alphabet
        self.metrics = metrics if metrics is not None else METRICS
        self._pipes = {
            "host": SearchPipeline(
                opts.merged(
                    lanes=opts.resolved_lanes(host_model.spec.lanes32)
                ),
                metrics=self.metrics,
            ),
            "device": SearchPipeline(
                opts.merged(
                    lanes=opts.resolved_lanes(device_model.spec.lanes32)
                ),
                metrics=self.metrics,
            ),
        }
        self.workers = int(workers) if workers is not None else 1
        self.parallel_broadcast = parallel_broadcast
        self._backend = None
        self._backend_key: tuple | None = None

    # ------------------------------------------------------------------
    def _ensure_backend(self, database: SequenceDatabase):
        """The worker pool bound to ``database`` (re-broadcast on change)."""
        from ..db.preprocess import preprocess_database
        from ..parallel.backend import ProcessPoolBackend

        key = (database.fingerprint(),)
        if (
            self._backend is not None
            and not self._backend.closed
            and self._backend_key == key
        ):
            return self._backend
        self.close()
        # Broadcast lane width is irrelevant for subset tasks (workers
        # re-pack at each task's own width); use the host side's.
        pre = preprocess_database(database, lanes=self._pipes["host"].lanes)
        self._backend = ProcessPoolBackend(
            pre,
            workers=self.workers,
            broadcast=self.parallel_broadcast,
            metrics=self.metrics,
        )
        self._backend_key = key
        return self._backend

    def _drain_parallel(self, q, database: SequenceDatabase, plan, tracer):
        """Drain every planned assignment on the process pool.

        Returns ``(scores, wall_seconds)`` in original database order,
        or ``None`` when the pool cannot run (caller drains serially).
        Each assignment ships its sequences in assignment order, so the
        worker's stable length sort packs the exact lane groups — and
        replays the exact chunk-local fault-unit decisions — of the
        serial per-chunk pipeline.
        """
        from ..parallel.worker import ChunkTask, EngineConfig

        try:
            backend = self._ensure_backend(database)
        except ParallelError as exc:
            self.metrics.increment("parallel.fallback")
            tracer.event(
                "parallel.fallback", reason=f"{type(exc).__name__}: {exc}"
            )
            return None
        order = database.length_order()
        inv = np.empty(len(database), dtype=np.int64)
        inv[order] = np.arange(len(database), dtype=np.int64)
        fault_plan = (
            self.options.injector.plan
            if self.options.injector is not None
            else None
        )
        tasks = []
        for a in plan.assignments:
            pipe = self._pipes[a.worker]
            tasks.append(ChunkTask(
                chunk_id=a.chunk_id,
                kind="subset",
                query=q,
                matrix=pipe.matrix,
                gaps=pipe.gaps,
                engine=EngineConfig(
                    lanes=pipe.lanes,
                    profile=pipe.engine.profile.value,
                    block_cols=pipe.engine.block_cols,
                    saturate_bits=pipe.engine.saturate_bits,
                    kernel=pipe.kernel,
                ),
                positions=tuple(int(p) for p in inv[a.indices]),
                plan=fault_plan,
            ))
        try:
            results = backend.submit_subsets(tasks)
        except ParallelError as exc:
            self.metrics.increment("parallel.fallback")
            tracer.event(
                "parallel.fallback", reason=f"{type(exc).__name__}: {exc}"
            )
            return None
        sorted_scores = np.zeros(len(database), dtype=np.int64)
        wall = 0.0
        for a, res in zip(plan.assignments, results):
            sorted_scores[res.positions] = res.scores
            wall += res.compute_seconds
            with tracer.span("queue.chunk") as sp:
                if sp:
                    sp.set_attributes(
                        chunk=a.chunk_id, worker=a.worker,
                        sequences=len(a.indices), residues=a.residues,
                        worker_pid=res.pid, executor="process",
                    )
                    sp.set_virtual(a.start_seconds, a.end_seconds)
            self.metrics.increment(f"queue.chunks.{a.worker}")
            self.metrics.observe("queue.chunk.seconds", a.seconds)
        scores = np.zeros(len(database), dtype=np.int64)
        scores[order] = sorted_scores
        return scores, wall

    def close(self) -> None:
        """Shut down the parallel worker pool, if one is running."""
        backend, self._backend = self._backend, None
        self._backend_key = None
        if backend is not None:
            backend.close()

    def __enter__(self) -> "WorkQueueScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def plan(self, lengths: np.ndarray, query_len: int) -> WorkQueuePlan:
        """The virtual-time schedule alone (no alignment computed)."""
        return plan_work_queue(
            self.host_model, self.device_model, lengths, query_len,
            chunks=self.chunks, link=self.link,
        )

    def search(
        self,
        query,
        database: SequenceDatabase,
        *,
        query_name: str = "query",
        top_k: int | None = None,
    ) -> QueueSearchOutcome:
        """Plan the queue, execute every chunk on its worker, merge.

        The schedule is deterministic (stable chunking, deterministic
        pulls), so repeated calls assign identical chunks and return
        identical scores.
        """
        if len(database) == 0:
            raise PipelineError("cannot search an empty database")
        if top_k is None:
            top_k = self.options.top_k
        q = as_codes(query, self.alphabet)
        tracer = get_tracer()
        with tracer.span("queue.search") as root:
            if root:
                root.set_attributes(
                    query_name=query_name, database=database.name,
                    scheduler="queue", sequences=len(database),
                )
            with tracer.span("queue.plan") as sp:
                plan = self.plan(database.lengths, len(q))
                if sp:
                    sp.set_attributes(
                        chunks=len(plan.assignments),
                        device_fraction=plan.device_residue_fraction,
                        makespan=plan.makespan,
                    )

            drained = (
                self._drain_parallel(q, database, plan, tracer)
                if self.workers > 1
                else None
            )
            if drained is not None:
                scores, wall = drained
                if root:
                    root.set_attributes(
                        executor="process", workers=self.workers
                    )
                return self._finish(
                    q, database, plan, scores, wall,
                    query_name=query_name, top_k=top_k,
                    tracer=tracer, root=root,
                )

            scores = np.zeros(len(database), dtype=np.int64)
            wall = 0.0
            for a in plan.assignments:
                chunk_db = database.subset(
                    a.indices, name=f"{database.name}-wq{a.chunk_id}"
                )
                pipe = self._pipes[a.worker]
                with tracer.span("queue.chunk") as sp:
                    if sp:
                        sp.set_attributes(
                            chunk=a.chunk_id, worker=a.worker,
                            sequences=len(chunk_db), residues=a.residues,
                        )
                        sp.set_virtual(a.start_seconds, a.end_seconds)
                    if a.worker == "device":
                        region = OffloadRegion(self.link)
                        handle = region.run_async(
                            in_bytes=a.residues + len(q),
                            out_bytes=4 * len(chunk_db),
                            compute_seconds=a.seconds,
                            kernel=lambda cdb=chunk_db: pipe.search(
                                q, cdb, query_name=query_name, top_k=0
                            ),
                            unit=a.chunk_id,
                        )
                        region.wait(handle)
                        part = handle.result
                    else:
                        part = pipe.search(
                            q, chunk_db, query_name=query_name, top_k=0
                        )
                self.metrics.increment(f"queue.chunks.{a.worker}")
                self.metrics.observe("queue.chunk.seconds", a.seconds)
                wall += part.wall_seconds
                # part.scores follow chunk_db order == a.indices order.
                scores[a.indices] = part.scores

            return self._finish(
                q, database, plan, scores, wall,
                query_name=query_name, top_k=top_k,
                tracer=tracer, root=root,
            )

    def _finish(
        self, q, database, plan, scores, wall,
        *, query_name, top_k, tracer, root,
    ) -> QueueSearchOutcome:
        """Rank merged scores and attach the static reference makespan."""
        with tracer.span("queue.merge"):
            hits = rank_hits(scores, database, top_k)
        static = HybridExecutor(
            self.host_model, self.device_model, link=self.link
        ).run(database.lengths, len(q), self.static_fraction)
        self.metrics.set_gauge(
            "queue.device_fraction", plan.device_residue_fraction
        )
        result = SearchResult(
            query_name=query_name,
            query_length=len(q),
            database_name=database.name,
            scores=scores,
            hits=hits,
            cells=len(q) * database.total_residues,
            wall_seconds=wall,
            modeled_seconds=plan.makespan,
        )
        if root:
            result.trace = {"span_id": root.span_id, "span": root.name}
        return QueueSearchOutcome(
            result=result,
            plan=plan,
            static_fraction=self.static_fraction,
            static_modeled_makespan=static.total_seconds,
        )
