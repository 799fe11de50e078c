"""Tiered heuristic search: seed -> banded verify -> exact SW rescore.

The exhaustive scan pays ``O(m * n)`` for every database sequence; at
"millions of users" scale that asymptotic is the bottleneck, not the
constant.  This module composes the existing building blocks into the
index-then-verify architecture of the INRIA fine-grained similarity
search report (PAPERS.md): a k-mer/neighbourhood seed stage
(:mod:`repro.heuristic.kmer`) prunes the candidate set, the banded
engine (:mod:`repro.core.banded`, via
:func:`repro.heuristic.extend.gapped_extend`) verifies survivors, and
only the final candidates are rescored with the exact kernel-selected
Smith-Waterman engines.

The contract: every *reported* score is an exact SW score — stage 3
rescoring is per-sequence independent, so a returned hit's score is
bit-identical to what the exhaustive scan reports for that sequence —
but low-similarity sequences can be pruned before rescoring and miss
the ranking.  The sensitivity/speed trade is selected with
``SearchOptions.mode``:

========== ===================================================
mode       semantics
========== ===================================================
exact      exhaustive scan (the default; no tiering at all)
sensitive  classic BLASTP-flavoured seeding, wide verify band
fast       two-hit seeding, stricter thresholds, narrow band
========== ===================================================

Recall of each mode versus exhaustive search is a *measured* quantity:
``benchmarks/bench_tiered_recall.py`` sweeps mutated-homolog databases
(:mod:`repro.db.mutate`) across divergence levels and records recall@k
with GCUPS-equivalent throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from ..core.engine import as_codes
from ..core.traceback import align_pair
from ..core.vectorized import DEFAULT_LANES, make_intertask_engine
from ..db.database import SequenceDatabase
from ..db.shards import encode_record
from ..exceptions import PipelineError
from ..heuristic.extend import Seed, gapped_extend, ungapped_extend
from ..heuristic.kmer import KmerWordCoder, build_query_word_table
from ..metrics.counters import METRICS, MetricsRegistry
from ..obs.tracer import get_tracer
from .api import SearchOptions, unify_options
from .gcups import Stopwatch
from .result import SearchResult
from .streaming import StreamingResult, _chunked, finish_stream
from .topk import TopK, rank_hits

__all__ = [
    "TIER_PRESETS",
    "TierPreset",
    "TierStats",
    "TieredFilter",
    "TieredSearch",
    "TieredSearchResult",
]


@dataclass(frozen=True)
class TierPreset:
    """Stage thresholds realising one ``SearchOptions.mode``.

    Stage 1 (seed): neighbourhood word hits (word size ``k``, score
    threshold ``threshold``) are extended ungapped with X-drop
    ``x_drop``; a sequence survives when its best ungapped HSP reaches
    ``seed_min_score``.  ``two_hit`` gates extension on a second
    non-overlapping same-diagonal hit within ``two_hit_window``.

    Stage 2 (verify): the best HSP is refined with a banded gapped
    extension (half-width ``band``, window ``window``); survivors need
    ``verify_min_score``.

    Stage 3 (rescore) has no knobs: survivors get full exact SW.
    """

    k: int = 3
    threshold: int = 11
    x_drop: int = 16
    two_hit: bool = False
    two_hit_window: int = 40
    seed_min_score: int = 20
    band: int = 12
    window: int = 64
    verify_min_score: int = 42


#: The measured sensitivity/speed points behind ``SearchOptions.mode``.
#: "sensitive" keeps the classic BLASTP seeding surface (k=3, T=11) and
#: a wide verify band; "fast" demands two-hit diagonals and prunes much
#: harder before paying for verification.
TIER_PRESETS: dict[str, TierPreset] = {
    "sensitive": TierPreset(
        k=3, threshold=11, x_drop=16, two_hit=False,
        seed_min_score=20, band=12, window=64, verify_min_score=42,
    ),
    "fast": TierPreset(
        k=3, threshold=12, x_drop=16, two_hit=True, two_hit_window=40,
        seed_min_score=24, band=6, window=48, verify_min_score=45,
    ),
}


@dataclass
class TierStats:
    """Per-stage funnel and cell accounting of one tiered search."""

    mode: str
    candidates: int = 0         # sequences entering stage 1
    seed_survivors: int = 0     # sequences passing the seed stage
    verify_survivors: int = 0   # sequences rescored with exact SW
    seed_cells: int = 0         # ungapped-extension DP cells
    verify_cells: int = 0       # banded-verification DP cells
    rescore_cells: int = 0      # exact SW cells actually computed
    exhaustive_cells: int = 0   # what a full exact scan would compute

    @property
    def total_cells(self) -> int:
        """All DP cells the tiered search computed, every stage."""
        return self.seed_cells + self.verify_cells + self.rescore_cells

    @property
    def exact_cell_reduction(self) -> float:
        """Exhaustive exact-SW cells per exact-SW cell actually paid."""
        if self.rescore_cells == 0:
            return float("inf") if self.exhaustive_cells else 1.0
        return self.exhaustive_cells / self.rescore_cells

    @property
    def cells_saved(self) -> float:
        """Fraction of the exhaustive scan's work skipped (all stages)."""
        if self.exhaustive_cells == 0:
            return 0.0
        return 1.0 - self.total_cells / self.exhaustive_cells

    def to_dict(self) -> dict:
        """Plain-JSON form (rides in result provenance and the wire)."""
        return {
            "mode": self.mode,
            "candidates": self.candidates,
            "seed_survivors": self.seed_survivors,
            "verify_survivors": self.verify_survivors,
            "seed_cells": self.seed_cells,
            "verify_cells": self.verify_cells,
            "rescore_cells": self.rescore_cells,
            "exhaustive_cells": self.exhaustive_cells,
            "exact_cell_reduction": (
                None if self.rescore_cells == 0
                else round(self.exact_cell_reduction, 3)
            ),
            "cells_saved": round(self.cells_saved, 6),
        }


@dataclass
class TieredSearchResult(SearchResult):
    """A :class:`SearchResult` whose ranking came from the tiered path.

    ``scores`` holds the exact SW score for every rescored survivor and
    0 for pruned sequences; ``hits`` contains only rescored sequences,
    so every reported score is exact.  ``cells`` counts the cells
    actually computed across all three stages (honest GCUPS);
    :attr:`tier` breaks the funnel down per stage.
    """

    mode: str = "sensitive"
    tier: TierStats | None = None

    @property
    def provenance(self) -> dict:
        prov = SearchResult.provenance.fget(self)  # type: ignore[attr-defined]
        prov["mode"] = self.mode
        if self.tier is not None:
            prov["tiered"] = self.tier.to_dict()
        return prov


class TieredFilter:
    """Stages 1 and 2 for one query: deterministic per sequence.

    The query word table (with neighbourhoods) is built once; each
    database sequence is then classified independently — the filter
    decision for a sequence never depends on its neighbours, so any
    chunking or sharding of the stream leaves the survivor set (and
    therefore the final ranking) unchanged.
    """

    def __init__(
        self,
        query: np.ndarray,
        matrix,
        gaps,
        preset: TierPreset,
        *,
        alphabet,
    ) -> None:
        if len(query) < preset.k:
            raise PipelineError(
                f"query shorter than the tiered word size "
                f"({len(query)} < {preset.k}) — use mode='exact'"
            )
        self.query = query
        self.matrix = matrix
        self.gaps = gaps
        self.preset = preset
        self.alphabet = alphabet
        self.table = build_query_word_table(
            query, matrix, k=preset.k, threshold=preset.threshold
        )
        self.coder = KmerWordCoder(preset.k, alphabet)

    # ------------------------------------------------------------------
    def seed(self, seq: np.ndarray) -> tuple[object | None, Seed | None, int]:
        """Stage 1: best ungapped HSP of ``seq`` (or ``None``), plus cells.

        Mirrors :class:`~repro.heuristic.MiniBlast` seeding: per-diagonal
        de-duplication, optional two-hit gating, X-drop extension of
        every qualifying seed.
        """
        p = self.preset
        q = self.query
        words = self.coder.words_of(seq)
        best = None
        best_seed = None
        cells = 0
        covered: dict[int, int] = {}
        last_hit: dict[int, int] = {}
        for j in range(len(words)):
            qpos_list = self.table.get(int(words[j]))
            if not qpos_list:
                continue
            for i in qpos_list:
                diag = j - i
                if covered.get(diag, -1) >= j:
                    continue
                if p.two_hit:
                    prev = last_hit.get(diag)
                    last_hit[diag] = j
                    if prev is None or not (
                        p.k <= j - prev <= p.two_hit_window
                    ):
                        continue
                seed = Seed(qpos=i, dpos=j, length=p.k)
                ext = ungapped_extend(q, seq, seed, self.matrix,
                                      x_drop=p.x_drop)
                cells += ext.cells
                covered[diag] = ext.dend
                if best is None or ext.score > best.score:
                    best = ext
                    best_seed = seed
        if best is not None and best.score < p.seed_min_score:
            best = best_seed = None
        return best, best_seed, cells

    def verify(self, seq: np.ndarray, seed: Seed, ungapped) -> tuple[int, int]:
        """Stage 2: banded gapped score around the best HSP, plus cells."""
        p = self.preset
        window = max(p.window, ungapped.length + 2 * p.band)
        ext = gapped_extend(
            self.query, seq, seed, self.matrix, self.gaps,
            window=window, band=p.band,
        )
        return ext.score, ext.cells

    def survives(self, seq: np.ndarray) -> tuple[bool, int, int]:
        """Both stages for one sequence.

        Returns ``(rescore?, seed_cells, verify_cells)`` — the one-call
        form the streaming drivers use per record.
        """
        best, best_seed, seed_cells = self.seed(seq)
        if best is None:
            return False, seed_cells, 0
        score, verify_cells = self.verify(seq, best_seed, best)
        return score >= self.preset.verify_min_score, seed_cells, verify_cells


class TieredSearch:
    """The tiered executor behind ``SearchOptions.mode != "exact"``.

    Accepts the same :class:`~repro.search.SearchOptions` vocabulary as
    every other entrypoint; ``mode`` selects the preset.  Fault
    injection is an exhaustive-path feature (faults are keyed on lane
    groups the tiered path never forms) and is rejected up front.
    """

    def __init__(
        self,
        options: SearchOptions | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        **legacy,
    ) -> None:
        opts = unify_options(options, legacy, owner="TieredSearch")
        if opts.mode == "exact":
            raise PipelineError(
                "TieredSearch requires mode='sensitive' or 'fast'; "
                "mode='exact' is the exhaustive SearchPipeline"
            )
        if opts.injector is not None:
            raise PipelineError(
                "fault injection is not supported on the tiered path — "
                "use mode='exact'"
            )
        self.options = opts
        self.mode = opts.mode
        self.preset = TIER_PRESETS[opts.mode]
        self.matrix = opts.resolved_matrix()
        self.gaps = opts.resolved_gaps()
        self.alphabet = opts.alphabet
        self.kernel = opts.resolved_kernel()
        self.metrics = metrics if metrics is not None else METRICS
        self.engine = make_intertask_engine(
            self.kernel,
            alphabet=opts.alphabet,
            lanes=opts.resolved_lanes(DEFAULT_LANES[self.kernel]),
            profile=opts.profile,
        )

    # ------------------------------------------------------------------
    def _filter_for(self, q: np.ndarray) -> TieredFilter:
        return TieredFilter(
            q, self.matrix, self.gaps, self.preset, alphabet=self.alphabet
        )

    def _record_metrics(self, stats: TierStats, seconds: float) -> None:
        m = self.metrics
        m.increment("tiered.searches")
        m.increment("tiered.candidates", stats.candidates)
        m.increment("tiered.seed.survivors", stats.seed_survivors)
        m.increment("tiered.verify.survivors", stats.verify_survivors)
        m.increment("tiered.seed.cells", stats.seed_cells)
        m.increment("tiered.verify.cells", stats.verify_cells)
        m.increment("tiered.rescore.cells", stats.rescore_cells)
        m.observe("tiered.search.seconds", seconds)
        m.set_gauge("tiered.last.cells_saved", stats.cells_saved)

    # ------------------------------------------------------------------
    def search(
        self,
        query,
        database: SequenceDatabase,
        *,
        query_name: str = "query",
        top_k: int | None = None,
        traceback: bool = False,
    ) -> TieredSearchResult:
        """Tiered scan of a resident database.

        Ranking follows the :mod:`~repro.search.topk` contract over the
        rescored survivors only, so two survivors order exactly as they
        would in the exhaustive ranking and no pruned sequence is ever
        reported with a fabricated score.
        """
        if len(database) == 0:
            raise PipelineError("cannot search an empty database")
        if top_k is None:
            top_k = self.options.top_k
        q = as_codes(query, self.alphabet)
        filt = self._filter_for(q)
        deadline = self.options.deadline
        stats = TierStats(mode=self.mode, candidates=len(database))
        stats.exhaustive_cells = len(q) * database.total_residues
        tracer = get_tracer()
        watch = Stopwatch()

        with tracer.span("tiered.search") as root:
            if root:
                root.set_attributes(
                    query_name=query_name, query_length=len(q),
                    database=database.name, sequences=len(database),
                    mode=self.mode,
                )
            with watch:
                # Stage 1: seed every sequence.
                survivors: list[tuple[int, Seed, object]] = []
                with tracer.span("tiered.seed") as sp:
                    for idx, seq in enumerate(database.sequences):
                        if deadline is not None and idx % 256 == 0:
                            deadline.check("tiered seed stage")
                        best, best_seed, cells = filt.seed(seq)
                        stats.seed_cells += cells
                        if best is not None:
                            survivors.append((idx, best_seed, best))
                    stats.seed_survivors = len(survivors)
                    if sp:
                        sp.set_attributes(
                            candidates=stats.candidates,
                            survivors=stats.seed_survivors,
                            cells=stats.seed_cells,
                        )
                # Stage 2: banded verification of seed survivors.
                finalists: list[int] = []
                with tracer.span("tiered.verify") as sp:
                    for idx, seed, best in survivors:
                        if deadline is not None:
                            deadline.check("tiered verify stage")
                        score, cells = filt.verify(
                            database.sequences[idx], seed, best
                        )
                        stats.verify_cells += cells
                        if score >= self.preset.verify_min_score:
                            finalists.append(idx)
                    stats.verify_survivors = len(finalists)
                    if sp:
                        sp.set_attributes(
                            candidates=stats.seed_survivors,
                            survivors=stats.verify_survivors,
                            cells=stats.verify_cells,
                        )
                # Stage 3: exact SW rescoring of the final candidates.
                scores = np.zeros(len(database), dtype=np.int64)
                with tracer.span("tiered.rescore") as sp:
                    if finalists:
                        if deadline is not None:
                            deadline.check("tiered rescore stage")
                        batch = self.engine.score_batch(
                            q,
                            [database.sequences[i] for i in finalists],
                            self.matrix, self.gaps,
                        )
                        scores[finalists] = batch.scores
                        stats.rescore_cells = batch.cells
                    if sp:
                        sp.set_attributes(
                            candidates=stats.verify_survivors,
                            cells=stats.rescore_cells,
                        )

                # Only rescored sequences may appear as hits.
                hits = rank_hits(scores, database, top_k, among=finalists)
                if traceback:
                    hits = [
                        replace(hit, alignment=align_pair(
                            q, database.sequences[hit.index], self.matrix,
                            self.gaps, alphabet=self.alphabet,
                        ))
                        for hit in hits
                    ]

            self._record_metrics(stats, watch.seconds)
            result = TieredSearchResult(
                query_name=query_name,
                query_length=len(q),
                database_name=database.name,
                scores=scores,
                hits=hits,
                cells=stats.total_cells,
                wall_seconds=watch.seconds,
                mode=self.mode,
                tier=stats,
            )
            if root:
                root.set_attributes(
                    seed_survivors=stats.seed_survivors,
                    verify_survivors=stats.verify_survivors,
                    cells_saved=round(stats.cells_saved, 4),
                    best_score=result.best_score(),
                )
                result.trace = {"span_id": root.span_id, "span": root.name}
            return result

    # ------------------------------------------------------------------
    def search_records(
        self,
        query,
        records: Iterable,
        *,
        query_name: str = "query",
        database_name: str = "<stream>",
        top_k: int | None = None,
        total_records: int | None = None,
    ) -> StreamingResult:
        """Tiered scan over a record stream (bounded memory).

        Chunking mirrors :class:`~repro.search.StreamingSearch`; because
        the filter is per-sequence deterministic the survivor set — and
        so the top-k — is chunking- and sharding-invariant.  Survivor
        density after verification is typically a few percent, so the
        exact rescoring batches are small and run in-driver; a worker
        pool would idle on the pruned 90+%.  On deadline expiry a
        :class:`~repro.search.PartialResult` over the merged prefix is
        returned, exactly like the exhaustive streaming drivers.
        """
        if top_k is None:
            top_k = self.options.top_k
        deadline = self.options.deadline
        q = as_codes(query, self.alphabet)
        filt = self._filter_for(q)
        chunk_size = self.options.chunk_size
        stats = TierStats(mode=self.mode)
        top = TopK(top_k)
        scanned = 0
        chunks = 0
        watch = Stopwatch()
        tracer = get_tracer()

        with tracer.span("tiered.streaming.search") as root:
            if root:
                root.set_attributes(
                    query_name=query_name, query_length=len(q),
                    database=database_name, chunk_size=chunk_size,
                    top_k=top_k, mode=self.mode,
                )
            expired = False
            with watch:
                for chunk in _chunked(records, chunk_size):
                    if deadline is not None and deadline.expired:
                        expired = True
                        break
                    chunks += 1
                    with tracer.span("tiered.chunk") as sp:
                        pairs = [
                            encode_record(item, self.alphabet)
                            for item in chunk
                        ]
                        base = scanned
                        scanned += len(pairs)
                        stats.candidates += len(pairs)
                        finalists: list[int] = []
                        for off, (_, seq) in enumerate(pairs):
                            ok, seed_cells, verify_cells = filt.survives(seq)
                            stats.seed_cells += seed_cells
                            if verify_cells:
                                stats.seed_survivors += 1
                                stats.verify_cells += verify_cells
                            if ok:
                                finalists.append(off)
                        stats.verify_survivors += len(finalists)
                        if finalists:
                            batch = self.engine.score_batch(
                                q, [pairs[off][1] for off in finalists],
                                self.matrix, self.gaps,
                            )
                            stats.rescore_cells += batch.cells
                            headers, seqs = zip(*pairs)
                            top.push(
                                base + np.asarray(finalists), batch.scores,
                                headers, seqs, base=base,
                            )
                        stats.exhaustive_cells += len(q) * sum(
                            len(s) for _, s in pairs
                        )
                        if sp:
                            sp.set_attributes(
                                chunk=chunks - 1, records=len(pairs),
                                rescored=len(finalists),
                            )

            if root:
                root.set_attributes(
                    seed_survivors=stats.seed_survivors,
                    verify_survivors=stats.verify_survivors,
                    cells_saved=round(stats.cells_saved, 4),
                )
            result = finish_stream(
                top, where="streaming.tiered", expired=expired,
                metrics=self.metrics, root=root,
                total_records=total_records, query_name=query_name,
                query_length=len(q), database_name=database_name,
                sequences_scanned=scanned, cells=stats.total_cells,
                chunks=chunks, wall_seconds=watch.seconds,
            )
            self._record_metrics(stats, watch.seconds)
            return result

    def search_database(
        self, query, database, *, query_name: str = "query",
        top_k: int | None = None,
    ) -> StreamingResult:
        """Tiered streamed scan of a resident database."""
        return self.search_records(
            query,
            zip(database.headers, database.sequences),
            query_name=query_name,
            database_name=database.name,
            top_k=top_k,
            total_records=len(database),
        )
