"""End-to-end tracing through the search/service/runtime layers."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import (
    XEON_E5_2670_DUAL,
    XEON_PHI_57XX,
    DevicePerformanceModel,
    FaultInjector,
    FaultPlan,
    HybridSearchPipeline,
    MetricsRegistry,
    ResilientHybridExecutor,
    SearchOptions,
    SearchPipeline,
    SearchRequest,
    SearchService,
    SequenceDatabase,
    StreamingSearch,
    Tracer,
    use_tracer,
)
from repro.db import preprocess_database
from repro.db.fasta import FastaRecord
from repro.faults.policy import RetryPolicy

from tests.conftest import random_protein


@pytest.fixture
def db(rng) -> SequenceDatabase:
    return SequenceDatabase.from_records(
        [
            FastaRecord(f"sp|O{k:04d}|OBS{k}",
                        random_protein(rng, int(rng.integers(40, 150))))
            for k in range(18)
        ],
        name="obs-db",
    )


@pytest.fixture
def query(rng) -> str:
    return random_protein(rng, 70)


def models():
    return (
        DevicePerformanceModel(XEON_E5_2670_DUAL),
        DevicePerformanceModel(XEON_PHI_57XX),
    )


class TestPipelineTracing:
    def test_search_produces_expected_span_tree(self, db, query):
        tracer = Tracer()
        with use_tracer(tracer):
            result = SearchPipeline(SearchOptions(top_k=3)).search(query, db)
        col = tracer.collector
        (root,) = col.roots()
        assert root.name == "pipeline.search"
        child_names = {s.name for s in col.children(root)}
        assert child_names == {
            "pipeline.preprocess", "pipeline.score", "pipeline.rank",
        }
        assert root.attributes["database"] == "obs-db"
        assert root.attributes["best_score"] == result.best_score()

    @pytest.mark.parametrize("reuse", [False, True])
    def test_preprocess_span_reports_padding(self, db, query, reuse):
        pipe = SearchPipeline(SearchOptions(top_k=3))
        pre = preprocess_database(db, lanes=pipe.lanes)
        tracer = Tracer()
        with use_tracer(tracer):
            pipe.search(query, db, preprocessed=pre if reuse else None)
        (span,) = tracer.collector.find("pipeline.preprocess")
        assert span.attributes["reused"] is reuse
        assert span.attributes["real_cells"] == pre.total_residues
        assert span.attributes["padded_cells"] == pre.padded_residues
        assert pre.padded_residues >= pre.total_residues == db.total_residues

    def test_trace_provenance_links_result_to_root_span(self, db, query):
        tracer = Tracer()
        with use_tracer(tracer):
            result = SearchPipeline().search(query, db)
        (root,) = tracer.collector.roots()
        assert result.trace == {
            "span_id": root.span_id, "span": "pipeline.search",
        }
        assert result.provenance["trace"]["span_id"] == root.span_id

    def test_untraced_search_has_no_trace_field(self, db, query):
        result = SearchPipeline().search(query, db)
        assert result.trace is None
        assert "trace" not in result.provenance

    def test_traced_and_untraced_scores_identical(self, db, query):
        untraced = SearchPipeline(SearchOptions(top_k=5)).search(query, db)
        tracer = Tracer()
        with use_tracer(tracer):
            traced = SearchPipeline(SearchOptions(top_k=5)).search(query, db)
        assert np.array_equal(traced.scores, untraced.scores)
        assert [h.score for h in traced.hits] == [
            h.score for h in untraced.hits
        ]

    def test_corrupt_redo_emits_span_event(self, db, query):
        injector = FaultInjector(FaultPlan(seed=3, corrupt_rate=0.6))
        tracer = Tracer()
        with use_tracer(tracer):
            result = SearchPipeline(
                SearchOptions(top_k=3, injector=injector)
            ).search(query, db)
        assert result.corrupted_redone > 0
        score_span = tracer.collector.find("pipeline.score")[0]
        redo_events = [
            e for e in score_span.events if e.name == "fault.corrupt.redo"
        ]
        assert len(redo_events) == result.corrupted_redone
        assert all(e.attributes["kind"] == "corrupt" for e in redo_events)
        injected = [
            e for e in score_span.events if e.name == "fault.injected"
        ]
        assert injected, "the injector's own events should surface too"


class TestStreamingTracing:
    def test_chunk_spans_nest_under_search(self, rng, query):
        records = [
            FastaRecord(f"S{k}", random_protein(rng, 45)) for k in range(10)
        ]
        tracer = Tracer()
        with use_tracer(tracer):
            result = StreamingSearch(
                SearchOptions(chunk_size=4, top_k=3)
            ).search_records(query, iter(records))
        col = tracer.collector
        (root,) = col.roots()
        assert root.name == "streaming.search"
        chunk_spans = col.find("streaming.chunk")
        assert len(chunk_spans) == result.chunks == 3
        assert all(s.parent_id == root.span_id for s in chunk_spans)
        assert root.attributes["sequences"] == 10


class TestQueueSchedulerTracing:
    def test_every_chunk_exactly_once_under_the_search_span(self, db, query):
        host, phi = models()
        sched = repro.WorkQueueScheduler(host, phi, chunks=5)
        tracer = Tracer()
        with use_tracer(tracer):
            outcome = sched.search(query, db)
        col = tracer.collector
        (root,) = col.roots()
        assert root.name == "queue.search"
        chunk_spans = col.find("queue.chunk")
        # Exactly one span per planned chunk, all under this search.
        assert len(chunk_spans) == len(outcome.plan.assignments)
        assert all(s.parent_id == root.span_id for s in chunk_spans)
        seen = sorted(s.attributes["chunk"] for s in chunk_spans)
        assert seen == sorted(
            a.chunk_id for a in outcome.plan.assignments
        )
        assert len(set(seen)) == len(seen)

    def test_chunk_spans_carry_the_plan_virtual_interval(self, db, query):
        host, phi = models()
        sched = repro.WorkQueueScheduler(host, phi, chunks=4)
        tracer = Tracer()
        with use_tracer(tracer):
            outcome = sched.search(query, db)
        by_chunk = {
            s.attributes["chunk"]: s
            for s in tracer.collector.find("queue.chunk")
        }
        for a in outcome.plan.assignments:
            span = by_chunk[a.chunk_id]
            assert span.virtual_start == pytest.approx(a.start_seconds)
            assert span.virtual_end == pytest.approx(a.end_seconds)
            assert span.attributes["worker"] == a.worker


class TestHybridTracing:
    def test_static_sides_and_merge(self, db, query):
        host, phi = models()
        tracer = Tracer()
        with use_tracer(tracer):
            HybridSearchPipeline(host, phi).search(query, db, top_k=3)
        col = tracer.collector
        (root,) = col.roots()
        assert root.name == "hybrid.search"
        names = {s.name for s in col.children(root)}
        assert {"hybrid.offload", "hybrid.host", "hybrid.merge"} <= names
        (offload,) = col.find("hybrid.offload")
        assert offload.attributes["worker"] == "device"
        assert offload.virtual_seconds is not None


class TestResilientTracing:
    def test_retries_surface_as_fault_events_with_kind(self, db, query):
        host, phi = models()
        injector = FaultInjector(
            FaultPlan(seed=11, transfer_fail_rate=0.5)
        )
        rex = ResilientHybridExecutor(
            host, phi, injector=injector,
            retry=RetryPolicy(max_retries=2), chunks=4,
        )
        tracer = Tracer()
        with use_tracer(tracer):
            outcome = rex.search(query, db, device_fraction=0.5)
        res = outcome.resilience
        assert res.faults_injected > 0
        chunk_spans = tracer.collector.find("resilient.chunk")
        assert len(chunk_spans) == res.chunks
        fault_events = [
            e for s in chunk_spans for e in s.events if e.name == "fault"
        ]
        failed_attempts = [r for r in res.timeline if not r.ok]
        assert len(fault_events) == len(failed_attempts)
        assert sorted(e.attributes["kind"] for e in fault_events) == sorted(
            r.outcome for r in failed_attempts
        )

    def test_reclaimed_chunks_flagged(self, db, query):
        host, phi = models()
        # From unit 0 onward the device is dead: every chunk reclaims.
        injector = FaultInjector(FaultPlan(seed=1, outage_unit=0))
        rex = ResilientHybridExecutor(
            host, phi, injector=injector,
            retry=RetryPolicy(max_retries=1), chunks=3,
        )
        tracer = Tracer()
        with use_tracer(tracer):
            outcome = rex.search(query, db, device_fraction=0.5)
        assert outcome.resilience.chunks_reclaimed == 3
        chunk_spans = tracer.collector.find("resilient.chunk")
        reclaim_events = [
            e for s in chunk_spans for e in s.events
            if e.name == "chunk.reclaimed"
        ]
        assert len(reclaim_events) == 3
        assert all(not s.attributes["ok"] for s in chunk_spans)
        (root,) = tracer.collector.roots()
        assert root.attributes["chunks_reclaimed"] == 3


class TestServiceTracing:
    def test_batch_span_tree_and_score_identity(self, db, query, rng):
        q2 = random_protein(rng, 50)
        requests = [
            SearchRequest(query=query, name="q0"),
            SearchRequest(query=q2, name="q1"),
        ]
        untraced = SearchService(SearchOptions(top_k=3)).run(requests, db)

        tracer = Tracer()
        registry = MetricsRegistry()
        service = SearchService(
            SearchOptions(top_k=3), metrics=registry, tracer=tracer
        )
        traced = service.run(requests, db)

        # Score-identical to the untraced run.
        for t, u in zip(traced.outcomes, untraced.outcomes):
            assert np.array_equal(t.scores, u.scores)

        col = tracer.collector
        (root,) = col.roots()
        assert root.name == "service.batch"
        request_spans = col.find("service.request")
        assert len(request_spans) == 2
        assert all(s.parent_id == root.span_id for s in request_spans)
        # Each request span contains one full pipeline subtree.
        for req_span in request_spans:
            below = {s.name for s in col.descendants(req_span)}
            assert {"cache.get", "pipeline.search", "pipeline.score"} <= below

    def test_service_tracer_does_not_leak_globally(self, db, query):
        from repro.obs import NULL_TRACER, get_tracer

        service = SearchService(
            SearchOptions(top_k=2),
            metrics=MetricsRegistry(), tracer=Tracer(),
        )
        service.run([SearchRequest(query=query, name="q")], db)
        assert get_tracer() is NULL_TRACER

    def test_queue_service_nests_scheduler_spans(self, db, query):
        host, phi = models()
        tracer = Tracer()
        service = SearchService(
            SearchOptions(top_k=2), scheduler="queue",
            host_model=host, device_model=phi, chunks=3,
            metrics=MetricsRegistry(), tracer=tracer,
        )
        service.run([SearchRequest(query=query, name="q")], db)
        col = tracer.collector
        (req_span,) = col.find("service.request")
        below = {s.name for s in col.descendants(req_span)}
        assert {"queue.search", "queue.plan", "queue.chunk"} <= below
