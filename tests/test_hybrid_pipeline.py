"""Tests for the real-compute heterogeneous search pipeline."""

import numpy as np
import pytest

from repro.db import SyntheticSwissProt
from repro.devices import XEON_E5_2670_DUAL, XEON_PHI_57XX
from repro.exceptions import PipelineError
from repro.perfmodel import DevicePerformanceModel
from repro.search import SearchPipeline
from repro.search.hybrid_pipeline import HybridSearchPipeline
from tests.conftest import random_protein


@pytest.fixture(scope="module")
def pipeline():
    return HybridSearchPipeline(
        DevicePerformanceModel(XEON_E5_2670_DUAL),
        DevicePerformanceModel(XEON_PHI_57XX),
    )


@pytest.fixture(scope="module")
def db():
    return SyntheticSwissProt().generate(scale=0.0002)


class TestCorrectness:
    def test_merged_scores_equal_whole_database_search(self, pipeline, db, rng):
        q = random_protein(rng, 40)
        hybrid = pipeline.search(q, db, device_fraction=0.55)
        whole = SearchPipeline().search(q, db)
        assert np.array_equal(hybrid.result.scores, whole.scores)

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
    def test_any_fraction_same_scores(self, pipeline, db, rng, fraction):
        q = random_protein(rng, 25)
        hybrid = pipeline.search(q, db, device_fraction=fraction)
        whole = SearchPipeline().search(q, db)
        assert np.array_equal(hybrid.result.scores, whole.scores)

    def test_hits_ranked(self, pipeline, db, rng):
        q = random_protein(rng, 30)
        hybrid = pipeline.search(q, db, top_k=8)
        scores = [h.score for h in hybrid.result.hits]
        assert scores == sorted(scores, reverse=True)
        for h in hybrid.result.hits:
            assert db.headers[h.index] == h.header

    def test_duplicate_headers_rank_like_whole_database(self, pipeline):
        # Headers are labels, not keys: the merge scatters by index.
        from repro.alphabet import PROTEIN
        from repro.db import SequenceDatabase
        from repro.runtime import ResilientHybridExecutor

        db = SequenceDatabase(
            name="dups",
            sequences=[PROTEIN.encode(s) for s in (
                "MKTAYIAKQRQISFVKSHFSRQ", "GGGGGGGGGGGG", "MKTAYIAKQR",
            )],
            headers=["dup", "uniq", "dup"],
        )
        query = "MKTAYIAKQRQISF"
        whole = SearchPipeline().search(query, db, top_k=3)
        hybrid = pipeline.search(query, db, device_fraction=0.5, top_k=3)
        resilient = ResilientHybridExecutor(
            pipeline.host_model, pipeline.device_model
        ).search(query, db, device_fraction=0.5, top_k=3)

        def key(result):
            return [(h.index, h.header, h.score) for h in result.hits]

        for merged in (hybrid.result, resilient.result):
            assert key(merged) == key(whole)
            assert np.array_equal(merged.scores, whole.scores)

    def test_empty_database_rejected(self, pipeline):
        from repro.db import SequenceDatabase

        with pytest.raises(PipelineError):
            pipeline.search("ACDEF", SequenceDatabase("e", [], []))


class TestModeledTiming:
    def test_both_sides_report_time(self, pipeline, db, rng):
        q = random_protein(rng, 30)
        hybrid = pipeline.search(q, db, device_fraction=0.5)
        assert hybrid.host_modeled_seconds > 0
        assert hybrid.device_modeled_seconds > 0
        assert hybrid.modeled_makespan == max(
            hybrid.host_modeled_seconds, hybrid.device_modeled_seconds
        )

    def test_host_only_run(self, pipeline, db, rng):
        q = random_protein(rng, 20)
        hybrid = pipeline.search(q, db, device_fraction=0.0)
        assert hybrid.device_modeled_seconds == 0.0
        assert hybrid.modeled_makespan == hybrid.host_modeled_seconds

    def test_gcups_accounting(self, pipeline, db, rng):
        q = random_protein(rng, 20)
        hybrid = pipeline.search(q, db, device_fraction=0.5)
        assert hybrid.modeled_gcups == pytest.approx(
            hybrid.result.cells / hybrid.modeled_makespan / 1e9
        )
