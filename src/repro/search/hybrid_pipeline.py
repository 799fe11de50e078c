"""Heterogeneous search pipeline — Algorithm 2 with real alignments.

Where :class:`repro.runtime.HybridExecutor` models Algorithm 2's *timing*
over bare length distributions, this pipeline *executes* it: the
database is split at the workload fraction (step 2), the device share
runs through an asynchronous offload region carrying a real inter-task
kernel at the device's lane width (step 3, MIC side), the host share
runs concurrently in host lane width (step 3, CPU side), and the two
score sets merge into one ranking (step 4).  Wall time is real Python;
device time is modelled per side — so the result both *is* a correct
search and *says* what the paper's machine would have taken.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.engine import as_codes
from ..db.database import SequenceDatabase
from ..db.preprocess import split_indices
from ..exceptions import PipelineError
from ..metrics.counters import MetricsRegistry
from ..obs.tracer import get_tracer
from ..perfmodel.model import DevicePerformanceModel, RunConfig, Workload
from ..runtime.offload import OffloadRegion
from ..runtime.pcie import PCIE_GEN2_X16, PCIeLink
from .api import SearchOptions, unify_options
from .pipeline import SearchPipeline
from .result import Hit, SearchResult
from .topk import rank_hits

__all__ = ["HybridSearchResult", "HybridSearchPipeline"]


@dataclass
class HybridSearchResult:
    """A merged search result plus the per-side modelled timing."""

    result: SearchResult
    device_fraction: float
    host_modeled_seconds: float
    device_modeled_seconds: float  # transfers included
    scheduler: str = "static"
    #: Static-split reference makespan, set when the dynamic work-queue
    #: scheduler produced this result (for tuned-vs-untuned comparison).
    static_modeled_makespan: float | None = None

    @property
    def modeled_makespan(self) -> float:
        """Algorithm 2's wall time: the slower of the two sides."""
        return max(self.host_modeled_seconds, self.device_modeled_seconds)

    @property
    def modeled_gcups(self) -> float:
        """Combined modelled throughput (the paper's Fig. 8 quantity)."""
        return self.result.cells / self.modeled_makespan / 1e9

    # -- SearchOutcome protocol ----------------------------------------
    @property
    def hits(self) -> list[Hit]:
        """Ranked hits of the merged search."""
        return self.result.hits

    def best_score(self) -> int:
        """Highest alignment score across both sides."""
        return self.result.best_score()

    @property
    def gcups(self) -> float:
        """Headline throughput: the modelled heterogeneous GCUPS."""
        return self.modeled_gcups

    @property
    def provenance(self) -> dict:
        """Identifying fields (:class:`~repro.search.SearchOutcome`)."""
        return {
            **self.result.provenance,
            "kind": "hybrid",
            "scheduler": self.scheduler,
            "device_fraction": self.device_fraction,
        }


class HybridSearchPipeline:
    """Runs Algorithm 2 for real across two modelled devices.

    ``scheduler`` selects how the database is distributed: ``"static"``
    is the paper's fixed split at ``device_fraction``; ``"queue"``
    replaces it with the dynamic work-queue scheduler
    (:class:`repro.service.WorkQueueScheduler`) — chunks are pulled by
    whichever side is free, no per-workload ratio tuning, and
    ``device_fraction`` only positions the static reference makespan
    reported next to the dynamic one.  Scores are identical either way.
    """

    def __init__(
        self,
        host_model: DevicePerformanceModel,
        device_model: DevicePerformanceModel,
        options: SearchOptions | None = None,
        *,
        link: PCIeLink = PCIE_GEN2_X16,
        scheduler: str = "static",
        chunks: int = 24,
        metrics: MetricsRegistry | None = None,
        **legacy,
    ) -> None:
        opts = unify_options(options, legacy, owner="HybridSearchPipeline")
        if scheduler not in ("static", "queue"):
            raise PipelineError(
                f"scheduler must be 'static' or 'queue', got {scheduler!r}"
            )
        self.options = opts
        self.host_model = host_model
        self.device_model = device_model
        self.link = link
        self.scheduler = scheduler
        self.chunks = chunks
        self.alphabet = opts.alphabet
        self.metrics = metrics
        # One real pipeline per side, each at its device's lane width
        # (unless the options pin an explicit width).
        self._host_pipe = SearchPipeline(
            opts.merged(lanes=opts.resolved_lanes(host_model.spec.lanes32)),
            metrics=metrics,
        )
        self._device_pipe = SearchPipeline(
            opts.merged(lanes=opts.resolved_lanes(device_model.spec.lanes32)),
            metrics=metrics,
        )

    def search(
        self,
        query,
        database: SequenceDatabase,
        *,
        device_fraction: float = 0.55,
        query_name: str = "query",
        top_k: int | None = None,
    ) -> HybridSearchResult:
        """One Algorithm 2 execution: split, offload, compute, merge."""
        if len(database) == 0:
            raise PipelineError("cannot search an empty database")
        if top_k is None:
            top_k = self.options.top_k
        if self.scheduler == "queue":
            return self._search_queue(
                query, database, device_fraction=device_fraction,
                query_name=query_name, top_k=top_k,
            )
        q = as_codes(query, self.alphabet)
        tracer = get_tracer()
        with tracer.span("hybrid.search") as root:
            if root:
                root.set_attributes(
                    query_name=query_name, database=database.name,
                    scheduler="static", device_fraction=device_fraction,
                )
            host_idx, dev_idx = split_indices(
                database.lengths, device_fraction
            )
            host_db = database.subset(host_idx, name=f"{database.name}-cpu")
            dev_db = database.subset(dev_idx, name=f"{database.name}-mic")

            # --- device side: async offload region with a real kernel -
            dev_seconds = 0.0
            dev_result: SearchResult | None = None
            if len(dev_db):
                with tracer.span(
                    "hybrid.offload", worker="device"
                ) as sp:
                    wl = Workload.from_lengths(
                        dev_db.lengths, self.device_model.spec.lanes32
                    )
                    compute = self.device_model.run_seconds(
                        wl, len(q), RunConfig()
                    )
                    region = OffloadRegion(self.link)
                    handle = region.run_async(
                        in_bytes=dev_db.total_residues + len(q),
                        out_bytes=4 * len(dev_db),
                        compute_seconds=compute,
                        kernel=lambda: self._device_pipe.search(
                            q, dev_db, query_name=query_name, top_k=0
                        ),
                    )
                    dev_seconds = region.wait(handle)
                    dev_result = handle.result
                    if sp:
                        sp.set_attributes(
                            sequences=len(dev_db),
                            modeled_seconds=dev_seconds,
                        )
                        sp.set_virtual(0.0, dev_seconds)

            # --- host side (overlapped in Algorithm 2) ----------------
            host_seconds = 0.0
            host_result: SearchResult | None = None
            if len(host_db):
                with tracer.span("hybrid.host", worker="host") as sp:
                    wl = Workload.from_lengths(
                        host_db.lengths, self.host_model.spec.lanes32
                    )
                    host_seconds = self.host_model.run_seconds(
                        wl, len(q), RunConfig()
                    )
                    host_result = self._host_pipe.search(
                        q, host_db, query_name=query_name, top_k=0
                    )
                    if sp:
                        sp.set_attributes(
                            sequences=len(host_db),
                            modeled_seconds=host_seconds,
                        )
                        sp.set_virtual(0.0, host_seconds)

            # --- merge (step 4) ---------------------------------------
            with tracer.span("hybrid.merge"):
                merged = self._merge(
                    query_name, q, database,
                    ((host_idx, host_result), (dev_idx, dev_result)), top_k,
                )
            if root:
                merged.trace = {"span_id": root.span_id, "span": root.name}
            return HybridSearchResult(
                result=merged,
                device_fraction=device_fraction,
                host_modeled_seconds=host_seconds,
                device_modeled_seconds=dev_seconds,
            )

    # ------------------------------------------------------------------
    def _search_queue(
        self, query, database, *, device_fraction, query_name, top_k,
    ) -> HybridSearchResult:
        """Dynamic path: delegate to the work-queue scheduler."""
        # Imported lazily: repro.service builds on this module.
        from ..service.scheduler import WorkQueueScheduler

        outcome = WorkQueueScheduler(
            self.host_model, self.device_model,
            options=self.options, link=self.link, chunks=self.chunks,
            static_fraction=device_fraction, metrics=self.metrics,
        ).search(query, database, query_name=query_name, top_k=top_k)
        return HybridSearchResult(
            result=outcome.result,
            device_fraction=outcome.plan.device_residue_fraction,
            host_modeled_seconds=outcome.plan.host_seconds,
            device_modeled_seconds=outcome.plan.device_seconds,
            scheduler="queue",
            static_modeled_makespan=outcome.static_modeled_makespan,
        )

    # ------------------------------------------------------------------
    def _merge(
        self, query_name, q, database, parts, top_k,
    ) -> SearchResult:
        """Scatter each side's scores back by database index and rank."""
        scores = np.zeros(len(database), dtype=np.int64)
        wall = 0.0
        for idx, part_result in parts:
            if part_result is None:
                continue
            wall += part_result.wall_seconds
            scores[idx] = part_result.scores
        return SearchResult(
            query_name=query_name,
            query_length=len(q),
            database_name=database.name,
            scores=scores,
            hits=rank_hits(scores, database, top_k),
            cells=len(q) * database.total_residues,
            wall_seconds=wall,
        )
