"""Regression tests for the result/top-k correctness sweep.

Four audited bugs: stale preprocessed databases silently scoring the
wrong content, ``Hit.accession`` crashing on empty headers, top-k=0
being rejected in one place and relied on in another, and zero-duration
GCUPS blowing up after a successful search.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.db import SequenceDatabase, preprocess_database
from repro.db.synthetic import SyntheticSwissProt
from repro.exceptions import PipelineError
from repro.search import (
    Hit,
    SearchOptions,
    SearchPipeline,
    SearchRequest,
    SearchResult,
    StreamingSearch,
)
from repro.search.streaming import StreamingResult
from repro.service import SearchService

QUERY = "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ"


@pytest.fixture(scope="module")
def db() -> SequenceDatabase:
    return SyntheticSwissProt(seed=5).generate(scale=0.0003)


class TestPreprocessedFingerprint:
    def test_matching_preprocessed_is_accepted(self, db):
        pipe = SearchPipeline(SearchOptions(top_k=5))
        pre = preprocess_database(db, lanes=pipe.lanes)
        direct = pipe.search(QUERY, db)
        reused = pipe.search(QUERY, db, preprocessed=pre)
        assert [h.score for h in reused.hits] == [
            h.score for h in direct.hits
        ]

    def test_same_shape_different_content_rejected(self, db, rng):
        # Same entry count, same lengths even — but different residues.
        other = SequenceDatabase(
            name="evil-twin",
            sequences=[
                rng.integers(0, 20, len(s)).astype(np.uint8)
                for s in db.sequences
            ],
            headers=list(db.headers),
        )
        pipe = SearchPipeline(SearchOptions(top_k=5))
        pre = preprocess_database(other, lanes=pipe.lanes)
        with pytest.raises(PipelineError, match="fingerprint"):
            pipe.search(QUERY, db, preprocessed=pre)

    def test_hand_built_preprocessed_skips_the_check(self, db):
        # A PreprocessedDatabase without provenance (source_fingerprint
        # None) keeps the legacy shape-only validation.
        from repro.db import PreprocessedDatabase

        pipe = SearchPipeline(SearchOptions(top_k=5))
        pre = preprocess_database(db, lanes=pipe.lanes)
        bare = PreprocessedDatabase(
            database=pre.database, groups=pre.groups, lanes=pre.lanes
        )
        result = pipe.search(QUERY, db, preprocessed=bare)
        assert result.hits

    def test_service_cache_path_still_works(self, db):
        with SearchService(SearchOptions(top_k=4)) as service:
            first = service.search(SearchRequest(query=QUERY), db)
            second = service.search(SearchRequest(query=QUERY), db)
        assert [h.score for h in first.hits] == [
            h.score for h in second.hits
        ]
        assert service.cache.stats()["hits"] >= 1


class TestEmptyHeaderAccession:
    @pytest.mark.parametrize("header", ["", "   ", "\t"])
    def test_accession_placeholder(self, header):
        hit = Hit(index=0, header=header, length=4, score=11)
        assert hit.accession == "<unnamed>"

    def test_normal_header_unchanged(self):
        hit = Hit(index=0, header="sp|P1 some description", length=4,
                  score=11)
        assert hit.accession == "sp|P1"

    def test_reports_survive_empty_headers(self, rng):
        # An otherwise-successful search must format its reports even
        # when the database carried blank headers.
        db = SequenceDatabase(
            name="anon",
            sequences=[rng.integers(0, 20, 30).astype(np.uint8)
                       for _ in range(6)],
            headers=[""] * 6,
        )
        result = SearchPipeline(SearchOptions(top_k=3)).search(QUERY, db)
        assert "<unnamed>" in result.to_tsv()
        assert "<unnamed>" in result.summary()


class TestTopKZero:
    def test_options_allow_zero(self):
        assert SearchOptions(top_k=0).top_k == 0
        with pytest.raises(PipelineError, match="non-negative"):
            SearchOptions(top_k=-1)

    def test_request_allows_zero(self):
        assert SearchRequest(query=QUERY, top_k=0).top_k == 0

    def test_pipeline_scores_only(self, db):
        result = SearchPipeline(SearchOptions(top_k=0)).search(QUERY, db)
        assert result.hits == []
        assert len(result.scores) == len(db)
        assert result.best_score() > 0

    @pytest.mark.parametrize("search", [
        lambda db: SearchPipeline().search(QUERY, db, top_k=-1),
        lambda db: StreamingSearch().search_database(QUERY, db, top_k=-1),
        lambda db: SearchPipeline(SearchOptions(mode="fast")).search(
            QUERY, db, top_k=-1
        ),
        lambda db: StreamingSearch(SearchOptions(mode="fast")).search_database(
            QUERY, db, top_k=-1
        ),
    ], ids=["resident", "streamed", "tiered", "tiered-streamed"])
    def test_negative_per_call_top_k_rejected(self, db, search):
        with pytest.raises(PipelineError, match="top_k must be non-negative"):
            search(db)

    def test_streaming_scores_only(self, db):
        result = StreamingSearch(SearchOptions(top_k=0)).search_database(
            QUERY, db
        )
        assert result.hits == []
        assert result.sequences_scanned == len(db)

    def test_service_request_override(self, db):
        with SearchService(SearchOptions(top_k=5)) as service:
            outcome = service.search(
                SearchRequest(query=QUERY, top_k=0), db
            )
        assert outcome.hits == []


class TestZeroWallTimeGcups:
    def test_search_result_degrades_to_zero(self):
        result = SearchResult(
            query_name="q", query_length=10, database_name="d",
            scores=np.array([3], dtype=np.int64),
            hits=[Hit(index=0, header="h", length=5, score=3)],
            cells=50, wall_seconds=0.0,
        )
        assert result.wall_gcups == 0.0
        assert result.gcups == 0.0
        assert "0.0000 GCUPS" in result.summary()

    def test_streaming_result_degrades_to_zero(self):
        result = StreamingResult(
            query_name="q", query_length=10, hits=[],
            sequences_scanned=1, cells=50, chunks=1, wall_seconds=0.0,
        )
        assert result.wall_gcups == 0.0
        assert result.gcups == 0.0
        assert result.summary()

    def test_negative_time_still_raises(self):
        result = StreamingResult(
            query_name="q", query_length=10, hits=[],
            sequences_scanned=1, cells=50, chunks=1, wall_seconds=-1.0,
        )
        with pytest.raises(PipelineError):
            result.wall_gcups


class TestTopKMerger:
    def test_journal_heap_layout_round_trips(self):
        # A journal heap as a heapq-based merger wrote it (any valid
        # min-heap order on (score, -index)) loads into the same ranking,
        # and what TopK packs is again a valid min-heap.
        import heapq

        from repro.search.topk import TopK

        heap = [
            [s, -i, {"index": i, "header": f"h{i}", "length": 10 + i,
                     "score": s}]
            for i, s in enumerate([5, 9, 9, 1, 7])
        ]
        heapq.heapify(heap)
        top = TopK.load(5, heap)
        assert [(h.index, h.score) for h in top.ranked()] == [
            (1, 9), (2, 9), (4, 7), (0, 5), (3, 1),
        ]
        packed = top.pack()
        keys = [tuple(e[:2]) for e in packed]
        assert all(keys[(i - 1) // 2] <= keys[i] for i in range(1, len(keys)))
        assert TopK.load(5, packed).ranked() == top.ranked()

    def test_pushes_must_follow_stream_order(self):
        from repro.search.topk import TopK

        top = TopK(2)
        top.push([3, 4], [1, 2], ["a", "b"], ["AC", "ACD"], base=3)
        with pytest.raises(PipelineError, match="stream order"):
            top.push([4], [9], ["b"], ["ACD"], base=4)
        assert [(h.index, h.length) for h in top.ranked()] == [(4, 3), (3, 2)]
