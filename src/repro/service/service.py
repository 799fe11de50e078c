"""The batched search front-end.

One object, one ``run()`` — where callers previously picked between
four entrypoints with inconsistent kwargs, :class:`SearchService`
accepts a batch of :class:`~repro.search.SearchRequest` and routes it
through one of three executors:

``local``
    Algorithm 1 on the host pipeline.  The whole batch shares one
    sort/lane-pack through :class:`~repro.service.PreprocessCache`
    (keyed on database fingerprint + lane count), so N queries pay for
    one ``preprocess_database`` instead of N.
``static``
    Algorithm 2 at a fixed host/device split per query (the paper's
    scheme, ratio hand-tuned via ``static_fraction``).
``queue``
    The dynamic work-queue scheduler — no ratio to tune; each outcome
    reports its makespan next to the static reference.

Every outcome satisfies the :class:`~repro.search.SearchOutcome`
protocol and is score-identical to the corresponding single-query path.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from ..db.database import SequenceDatabase
from ..exceptions import PipelineError, ServiceOverloaded
from ..metrics.counters import METRICS, MetricsRegistry
from ..obs.tracer import Tracer, get_tracer, use_tracer
from ..perfmodel.model import DevicePerformanceModel
from ..runtime.pcie import PCIE_GEN2_X16, PCIeLink
from ..search.api import SearchOptions, SearchOutcome, SearchRequest
from ..search.hybrid_pipeline import HybridSearchPipeline
from ..search.pipeline import SearchPipeline
from ..search.result import Hit
from ..search.sharded import DEFAULT_SHARD_RESIDUES
from .cache import PreprocessCache
from .scheduler import WorkQueueScheduler

__all__ = ["ServiceBatchResult", "SearchService"]

SCHEDULERS = ("local", "static", "queue")
EXECUTORS = ("inprocess", "process", "sharded")


@dataclass
class ServiceBatchResult:
    """Outcomes of one batch, in request order, plus serving stats."""

    requests: tuple[SearchRequest, ...]
    outcomes: tuple[SearchOutcome, ...]
    scheduler: str
    database_name: str
    cache_stats: dict

    def __post_init__(self) -> None:
        if len(self.requests) != len(self.outcomes):
            raise PipelineError(
                f"{len(self.requests)} requests but "
                f"{len(self.outcomes)} outcomes"
            )

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    @property
    def results(self) -> dict[str, SearchOutcome]:
        """Request name -> outcome (last wins on duplicate names)."""
        return {
            req.name: out for req, out in zip(self.requests, self.outcomes)
        }

    @property
    def total_cells(self) -> int:
        """DP cells across the whole batch."""
        return sum(o.result.cells if hasattr(o, "result") else o.cells
                   for o in self.outcomes)

    # -- SearchOutcome protocol ----------------------------------------
    @property
    def hits(self) -> list[Hit]:
        """All outcomes' hits, re-ranked by score (request order ties)."""
        merged = [
            (hit, k)
            for k, out in enumerate(self.outcomes)
            for hit in out.hits
        ]
        merged.sort(key=lambda pair: (-pair[0].score, pair[1], pair[0].index))
        return [hit for hit, _ in merged]

    def best_score(self) -> int:
        """Highest alignment score across the batch."""
        return max((o.best_score() for o in self.outcomes), default=0)

    @property
    def gcups(self) -> float:
        """Mean of the outcomes' headline throughputs."""
        if not self.outcomes:
            return 0.0
        return sum(o.gcups for o in self.outcomes) / len(self.outcomes)

    @property
    def provenance(self) -> dict:
        """Identifying fields (:class:`~repro.search.SearchOutcome`)."""
        return {
            "kind": "service-batch",
            "scheduler": self.scheduler,
            "database_name": self.database_name,
            "queries": [r.name for r in self.requests],
            "cache": dict(self.cache_stats),
        }

    def summary(self) -> str:
        """One line per request, for the CLI."""
        lines = []
        for req, out in zip(self.requests, self.outcomes):
            top = out.hits[0] if out.hits else None
            lines.append(
                f"  {req.name:<12s} best {out.best_score():>6d}"
                + (f"  {top.accession}" if top else "  (no hits)")
                + f"  {out.gcups:8.2f} GCUPS"
            )
        return "\n".join(lines)


class SearchService:
    """Unified, batched front door over the search entrypoints.

    Parameters
    ----------
    options:
        Shared :class:`~repro.search.SearchOptions` for every request
        (per-request ``top_k``/``traceback`` still apply).
    scheduler:
        ``"local"``, ``"static"`` or ``"queue"`` (see module docstring).
    executor:
        ``"inprocess"`` (default) runs everything on this process;
        ``"process"`` scores on a persistent pool of ``workers`` real
        OS processes (``local`` searches through
        ``SearchPipeline(workers=N)``, ``queue`` drains its chunk queue
        through the same pool).  ``"sharded"`` (``local`` scheduler
        only) streams databases larger than ``shard_residues`` through
        the bounded-memory sharded scan on the worker pool instead of
        preprocessing them whole — the out-of-core path; smaller
        databases (and traceback requests, which need the resident
        pipeline) still take the cached-preprocess route.  Scores are
        identical every way; a pool that cannot start falls back to
        in-process execution.  The ``static`` scheduler is a purely
        modelled split and has no process executor.
    workers:
        Pool size for the process/sharded executors; defaults to the
        CPU count.  Passing ``workers > 1`` implies
        ``executor="process"`` when no executor was chosen.
    shard_residues:
        Sharded-executor knob: databases above this many residues
        stream through shards of (at most) this size; others go
        through the resident pipeline.
    host_model, device_model:
        Device pair for the heterogeneous schedulers; defaults to the
        paper's dual Xeon + Xeon Phi when needed.
    cache_capacity:
        :class:`PreprocessCache` size (local scheduler).
    chunks, static_fraction, link:
        Heterogeneous knobs forwarded to the executor.
    max_queue_depth:
        Admission cap: a batch larger than this is rejected whole with
        :class:`~repro.exceptions.ServiceOverloaded` (counted in
        ``service.load_shed``) before any work starts — shedding load
        early beats missing every deadline in the batch.  ``None``
        (default) admits any batch size.
    metrics:
        Registry every layer under this service reports into — the
        cache *and* the pipelines/schedulers it drives.  Pass an
        isolated :class:`MetricsRegistry` and the process-wide
        :data:`METRICS` stays untouched.
    tracer:
        Optional :class:`~repro.obs.Tracer` activated (via
        :func:`~repro.obs.use_tracer`) for the duration of every
        :meth:`search`/:meth:`run` call, so one batch yields a full
        span tree without touching global tracer state outside the
        call.  ``None`` (default) leaves whatever tracer is already
        active in place.
    """

    def __init__(
        self,
        options: SearchOptions | None = None,
        *,
        scheduler: str = "local",
        executor: str = "inprocess",
        workers: int | None = None,
        host_model: DevicePerformanceModel | None = None,
        device_model: DevicePerformanceModel | None = None,
        cache_capacity: int = 8,
        chunks: int = 24,
        static_fraction: float = 0.55,
        shard_residues: int = DEFAULT_SHARD_RESIDUES,
        max_queue_depth: int | None = None,
        link: PCIeLink = PCIE_GEN2_X16,
        metrics: MetricsRegistry = METRICS,
        tracer: Tracer | None = None,
    ) -> None:
        if scheduler not in SCHEDULERS:
            raise PipelineError(
                f"scheduler must be one of {SCHEDULERS}, got {scheduler!r}"
            )
        if executor not in EXECUTORS:
            raise PipelineError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        if workers is not None:
            if int(workers) < 1:
                raise PipelineError(
                    f"worker count must be positive, got {workers}"
                )
            if int(workers) > 1 and executor == "inprocess":
                executor = "process"
        if shard_residues < 1:
            raise PipelineError(
                f"shard_residues must be positive, got {shard_residues}"
            )
        if max_queue_depth is not None and max_queue_depth < 1:
            raise PipelineError(
                f"max_queue_depth must be positive, got {max_queue_depth}"
            )
        if executor == "sharded" and scheduler != "local":
            raise PipelineError(
                "the sharded executor streams through the local pipeline "
                f"only; scheduler {scheduler!r} does not support it"
            )
        if executor in ("process", "sharded"):
            if scheduler == "static":
                raise PipelineError(
                    "the static scheduler is purely modelled and has no "
                    "process executor; use 'local' or 'queue'"
                )
            if workers is None:
                workers = os.cpu_count() or 2
        self.executor = executor
        self.workers = int(workers) if workers is not None else 1
        self.options = options if options is not None else SearchOptions()
        if self.options.mode != "exact" and scheduler != "local":
            raise PipelineError(
                f"tiered mode {self.options.mode!r} runs on the local "
                f"scheduler only; the {scheduler!r} scheduler is a "
                f"modelled heterogeneous split and stays exact"
            )
        self.scheduler = scheduler
        self.metrics = metrics
        self.tracer = tracer
        self.cache = PreprocessCache(cache_capacity, metrics=metrics)
        if scheduler != "local" and (host_model is None or device_model is None):
            from ..devices import XEON_E5_2670_DUAL, XEON_PHI_57XX

            if host_model is None:
                host_model = DevicePerformanceModel(XEON_E5_2670_DUAL)
            if device_model is None:
                device_model = DevicePerformanceModel(XEON_PHI_57XX)
        self.host_model = host_model
        self.device_model = device_model
        self.shard_residues = int(shard_residues)
        self.max_queue_depth = (
            int(max_queue_depth) if max_queue_depth is not None else None
        )
        pool_workers = self.workers if executor == "process" else None
        if scheduler == "local":
            self._pipe = SearchPipeline(
                self.options, metrics=metrics, workers=pool_workers
            )
            if executor == "sharded":
                from ..search.streaming import StreamingSearch

                self._stream = StreamingSearch(
                    self.options, metrics=metrics,
                    workers=self.workers,
                    shard_residues=self.shard_residues,
                )
        elif scheduler == "static":
            self._hybrid = HybridSearchPipeline(
                host_model, device_model, self.options, link=link,
                metrics=metrics,
            )
            self._static_fraction = static_fraction
        else:
            self._queue = WorkQueueScheduler(
                host_model, device_model, self.options,
                link=link, chunks=chunks, static_fraction=static_fraction,
                metrics=metrics, workers=pool_workers,
            )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the process executor's worker pool, if any."""
        pipe = getattr(self, "_pipe", None)
        if pipe is not None:
            pipe.close()
        stream = getattr(self, "_stream", None)
        if stream is not None:
            stream.close()
        queue = getattr(self, "_queue", None)
        if queue is not None:
            queue.close()

    def __enter__(self) -> "SearchService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    @staticmethod
    def _normalize(
        requests: Iterable[SearchRequest | str] | SearchRequest | str,
    ) -> tuple[SearchRequest, ...]:
        """Accept one request, a bare sequence string, or any mix."""
        if isinstance(requests, (SearchRequest, str)):
            requests = [requests]
        out = []
        for k, req in enumerate(requests):
            if isinstance(req, str):
                req = SearchRequest(query=req, name=f"query-{k}")
            out.append(req)
        return tuple(out)

    def _trace_scope(self):
        """Activate this service's tracer, if it has one."""
        return (
            use_tracer(self.tracer) if self.tracer is not None
            else nullcontext()
        )

    def _deadline_targets(self) -> list:
        """Every live executor whose options can carry a deadline."""
        stream = getattr(self, "_stream", None)
        return [
            obj
            for obj in (
                getattr(self, "_pipe", None),
                stream,
                getattr(stream, "_sharded", None),
                getattr(self, "_hybrid", None),
                getattr(self, "_queue", None),
            )
            if obj is not None and hasattr(obj, "options")
        ]

    @contextmanager
    def _deadline_scope(self, deadline):
        """Pin a per-request deadline onto every live executor.

        Executors read :attr:`SearchOptions.deadline` at search time,
        so swapping their (frozen) options object in and back out is
        enough to scope the request's deadline to exactly this call.

        An executor built lazily *during* the scoped call — the sharded
        driver on its first request — is constructed from the
        deadline-bearing options and is not in the entry snapshot, so
        the exit path re-enumerates the executors and strips the scoped
        deadline from any it did not see on entry.  Without that, the
        first deadline-carrying request would pin its (soon expired)
        deadline onto every later request through that executor.
        """
        if deadline is None:
            yield
            return
        targets = self._deadline_targets()
        saved = [(obj, obj.options) for obj in targets]
        for obj in targets:
            obj.options = replace(obj.options, deadline=deadline)
        try:
            yield
        finally:
            entered = {id(obj) for obj, _ in saved}
            for obj, opts in saved:
                obj.options = opts
            for obj in self._deadline_targets():
                if id(obj) not in entered:
                    obj.options = replace(
                        obj.options, deadline=self.options.deadline
                    )

    def _run_one(
        self, req: SearchRequest, database: SequenceDatabase
    ) -> SearchOutcome:
        self.metrics.increment("service.requests")
        with get_tracer().span("service.request") as sp, \
                self.metrics.timer("service.request.seconds").time(), \
                self._deadline_scope(req.deadline):
            if sp:
                sp.set_attributes(
                    request=req.name, scheduler=self.scheduler,
                    database=database.name,
                )
            if self.scheduler == "local":
                if (
                    self.executor == "sharded"
                    and not req.traceback
                    and database.total_residues > self.shard_residues
                ):
                    # Out-of-core route: never preprocess/cache the
                    # whole database, stream it in bounded shards.
                    return self._stream.search_database(
                        req.query, database, query_name=req.name,
                        top_k=req.top_k,
                    )
                # Tiered modes never consume a lane-pack; skip the
                # preprocess cache rather than building an unused one.
                pre = (
                    self.cache.get(database, lanes=self._pipe.lanes)
                    if self.options.mode == "exact" else None
                )
                return self._pipe.search(
                    req.query, database, query_name=req.name,
                    top_k=req.top_k, traceback=req.traceback,
                    preprocessed=pre,
                )
            if self.scheduler == "static":
                return self._hybrid.search(
                    req.query, database, query_name=req.name,
                    top_k=req.top_k,
                    device_fraction=self._static_fraction,
                )
            return self._queue.search(
                req.query, database, query_name=req.name, top_k=req.top_k
            )

    def search(
        self, request: SearchRequest | str, database: SequenceDatabase
    ) -> SearchOutcome:
        """One request through the configured executor."""
        (req,) = self._normalize(request)
        with self._trace_scope():
            return self._run_one(req, database)

    def run(
        self,
        requests: Sequence[SearchRequest | str],
        database: SequenceDatabase,
    ) -> ServiceBatchResult:
        """The whole batch, amortising pre-processing across requests."""
        reqs = self._normalize(requests)
        if not reqs:
            raise PipelineError("the request batch is empty")
        self.metrics.set_gauge("service.queue.depth", float(len(reqs)))
        if (
            self.max_queue_depth is not None
            and len(reqs) > self.max_queue_depth
        ):
            self.metrics.increment("service.load_shed")
            get_tracer().event(
                "service.load_shed", requests=len(reqs),
                max_queue_depth=self.max_queue_depth,
            )
            raise ServiceOverloaded(
                f"batch of {len(reqs)} requests exceeds the admission cap "
                f"of {self.max_queue_depth}; rejected whole (load shed)"
            )
        with self._trace_scope():
            with get_tracer().span("service.batch") as root:
                if root:
                    root.set_attributes(
                        scheduler=self.scheduler, database=database.name,
                        requests=len(reqs),
                    )
                outcomes = tuple(self._run_one(r, database) for r in reqs)
        self.metrics.increment("service.batches")
        return ServiceBatchResult(
            requests=reqs,
            outcomes=outcomes,
            scheduler=self.scheduler,
            database_name=database.name,
            cache_stats=self.cache.stats(),
        )
