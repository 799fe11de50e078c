"""Differential conformance: every engine computes identical scores.

The registered engines (scalar, diagonal, striped, scan, intertask,
vectorized) and the banded engine with a band covering the whole matrix
all implement the same local-alignment recurrences (paper Eq. 6); on
any input their scores must agree exactly.  The scalar engine is the
reference — it is the most literal transcription of the recurrences —
and everything else is checked against it over a seeded grid of random
databases, queries, substitution matrices and gap models, plus the
awkward edge cases.

The kernel harness (:class:`TestKernelDifferential`) additionally pins
the two ``SearchOptions.kernel`` realisations of the inter-task scheme
to each other *through the pipeline*: not just equal scores but
identical Hit ordering (including stable tie-breaks) and identical
GCUPS cell accounting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.alphabet import PROTEIN
from repro.core.banded import BandedEngine
from repro.core.engine import available_engines, get_engine
from repro.core.vectorized import KERNEL_NAMES, make_intertask_engine
from repro.scoring import GapModel, get_matrix
from tests.conftest import random_protein

MATRIX_NAMES = ("BLOSUM62", "BLOSUM50", "PAM250", "PAM70")
GAP_MODELS = (GapModel(10, 2), GapModel(5, 1))
GAP_IDS = ("gaps10-2", "gaps5-1")


def reference_scores(query, seqs, matrix, gaps) -> np.ndarray:
    """Scalar-engine scores: the conformance ground truth."""
    return get_engine("scalar", PROTEIN).score_batch(
        query, seqs, matrix, gaps
    ).scores


def assert_all_engines_agree(query, seqs, matrix, gaps) -> None:
    """Every registered engine (and a covering band) matches scalar."""
    ref = reference_scores(query, seqs, matrix, gaps)
    for name in available_engines():
        if name == "scalar":
            continue
        got = get_engine(name, PROTEIN).score_batch(
            query, seqs, matrix, gaps
        ).scores
        np.testing.assert_array_equal(
            got, ref,
            err_msg=f"engine {name!r} diverges from scalar "
                    f"({matrix.name}, open={gaps.open} ext={gaps.extend})",
        )
    # The banded engine is exact when the band covers the full matrix.
    longest = max((len(s) for s in seqs), default=1)
    banded = BandedEngine(PROTEIN, width=max(len(query), longest))
    got = banded.score_batch(query, seqs, matrix, gaps).scores
    np.testing.assert_array_equal(
        got, ref, err_msg="covering-band engine diverges from scalar"
    )


class TestRandomGrid:
    @pytest.mark.parametrize("matrix_name", MATRIX_NAMES)
    @pytest.mark.parametrize("gaps", GAP_MODELS, ids=GAP_IDS)
    def test_engines_agree_on_random_inputs(self, rng, matrix_name, gaps):
        matrix = get_matrix(matrix_name)
        for _ in range(2):
            seqs = [
                random_protein(rng, int(n))
                for n in rng.integers(1, 46, size=9)
            ]
            query = random_protein(rng, int(rng.integers(4, 33)))
            assert_all_engines_agree(query, seqs, matrix, gaps)

    def test_engines_agree_across_lane_widths(self, rng, blosum62, gaps):
        # Lane width only changes packing, never scores (intertask).
        seqs = [random_protein(rng, int(n)) for n in rng.integers(2, 40, 11)]
        query = random_protein(rng, 25)
        ref = reference_scores(query, seqs, blosum62, gaps)
        for lanes in (1, 3, 8, 16):
            got = get_engine("intertask", PROTEIN, lanes=lanes).score_batch(
                query, seqs, blosum62, gaps
            ).scores
            np.testing.assert_array_equal(
                got, ref, err_msg=f"intertask lanes={lanes}"
            )


class TestEdgeCases:
    def test_empty_database(self, blosum62, gaps):
        for name in available_engines():
            batch = get_engine(name, PROTEIN).score_batch(
                "ACDEFG", [], blosum62, gaps
            )
            assert batch.scores.shape == (0,), name
        banded = BandedEngine(PROTEIN, width=8)
        assert banded.score_batch("ACDEFG", [], blosum62, gaps).scores.shape \
            == (0,)

    def test_length_one_sequences(self, blosum62, gaps):
        seqs = ["A", "W", "C", "K", "A"]
        assert_all_engines_agree("A", seqs, blosum62, gaps)
        assert_all_engines_agree("WCKA", seqs, blosum62, gaps)
        # Exact single-residue match scores the diagonal matrix entry.
        scores = reference_scores("A", seqs, blosum62, gaps)
        a = PROTEIN.encode("A")[0]
        assert scores[0] == blosum62.data[a, a]

    def test_all_identical_residues(self, blosum62, gaps):
        seqs = ["L" * n for n in (1, 2, 7, 19, 40)]
        assert_all_engines_agree("L" * 12, seqs, blosum62, gaps)
        # A homopolymer alignment never gaps: score is match * overlap.
        scores = reference_scores("L" * 12, seqs, blosum62, gaps)
        ll = int(blosum62.data[PROTEIN.encode("L")[0], PROTEIN.encode("L")[0]])
        expected = [ll * min(12, n) for n in (1, 2, 7, 19, 40)]
        np.testing.assert_array_equal(scores, expected)

    @pytest.mark.parametrize("gaps", GAP_MODELS, ids=GAP_IDS)
    def test_ambiguity_codes(self, rng, blosum62, gaps):
        # X (unknown), B/Z (ambiguous) and * (stop) are real alphabet
        # members with real matrix rows; engines must not special-case
        # them.
        seqs = [
            "XXXX",
            "BZXB*",
            "AXRNX",
            "*" * 3,
            random_protein(rng, 20) + "XBZ*",
        ]
        assert_all_engines_agree("ARNXBZ*", seqs, blosum62, gaps)
        assert_all_engines_agree("XXX", seqs, blosum62, gaps)

    def test_query_of_length_one(self, rng, blosum62, gaps):
        seqs = [random_protein(rng, int(n)) for n in rng.integers(1, 30, 7)]
        assert_all_engines_agree("W", seqs, blosum62, gaps)


EDGE_DATABASES = {
    "empty-ish": ["A"],
    "length-one": ["A", "W", "C", "K", "A"],
    "homopolymer": ["L" * n for n in (1, 2, 7, 19, 40)],
    "ambiguity": ["XXXX", "BZXB*", "AXRNX", "***", "ARNDCQXBZ*"],
}


class TestKernelDifferential:
    """The two SearchOptions kernels are bit-identical end to end.

    ``kernel="python"`` (InterTaskEngine) and ``kernel="numpy"``
    (VectorizedEngine) must be indistinguishable by any observable:
    scores, Hit order under score ties, and the cell counts that feed
    GCUPS.  Engine-level equality runs the full matrix/gap grid; the
    pipeline-level check exercises ranking and accounting.
    """

    @pytest.mark.parametrize("matrix_name", MATRIX_NAMES)
    @pytest.mark.parametrize("gaps", GAP_MODELS, ids=GAP_IDS)
    def test_kernels_match_scalar_on_grid(self, rng, matrix_name, gaps):
        matrix = get_matrix(matrix_name)
        seqs = [
            random_protein(rng, int(n)) for n in rng.integers(1, 60, 13)
        ]
        query = random_protein(rng, int(rng.integers(5, 40)))
        ref = reference_scores(query, seqs, matrix, gaps)
        for kernel in KERNEL_NAMES:
            got = make_intertask_engine(kernel, alphabet=PROTEIN).score_batch(
                query, seqs, matrix, gaps
            ).scores
            np.testing.assert_array_equal(
                got, ref,
                err_msg=f"kernel {kernel!r} diverges from scalar "
                        f"({matrix_name}, open={gaps.open} "
                        f"ext={gaps.extend})",
            )

    @pytest.mark.parametrize("name", sorted(EDGE_DATABASES))
    @pytest.mark.parametrize("gaps", GAP_MODELS, ids=GAP_IDS)
    def test_kernels_match_on_edge_databases(self, name, gaps, blosum62):
        seqs = EDGE_DATABASES[name]
        for query in ("W", "ARNXBZ*", "L" * 12):
            ref = reference_scores(query, seqs, blosum62, gaps)
            for kernel in KERNEL_NAMES:
                got = make_intertask_engine(
                    kernel, alphabet=PROTEIN
                ).score_batch(query, seqs, blosum62, gaps).scores
                np.testing.assert_array_equal(
                    got, ref, err_msg=f"kernel {kernel!r} on {name!r}"
                )

    def test_kernels_agree_on_empty_database(self, blosum62, gaps):
        for kernel in KERNEL_NAMES:
            batch = make_intertask_engine(
                kernel, alphabet=PROTEIN
            ).score_batch("ACDEFG", [], blosum62, gaps)
            assert batch.scores.shape == (0,), kernel
            assert batch.cells == 0, kernel

    def test_pipeline_hits_and_cells_identical(self, rng):
        # End-to-end: same DB, same query, both kernels.  Hits must
        # match pairwise — index, score, AND position in the ranking
        # (the stable argsort tie-break) — and the GCUPS denominator
        # (cells) must be identical, not merely close.
        from repro.db import SyntheticSwissProt
        from repro.search import SearchOptions, SearchPipeline

        db = SyntheticSwissProt(seed=11).generate(scale=0.0004)
        query = random_protein(rng, 48)
        results = {}
        for kernel in KERNEL_NAMES:
            results[kernel] = SearchPipeline(
                SearchOptions(kernel=kernel, top_k=25)
            ).search(query, db)
        py, vec = results["python"], results["numpy"]
        np.testing.assert_array_equal(vec.scores, py.scores)
        assert [(h.index, h.score, h.header) for h in vec.hits] \
            == [(h.index, h.score, h.header) for h in py.hits]
        assert vec.cells == py.cells
        # Score ties exist in a DB this size; the ordering check above
        # is only meaningful if some scores repeat.
        top_scores = [h.score for h in py.hits]
        assert len(set(top_scores)) < len(top_scores), \
            "workload produced no ties; grow the database"


class TestModeExactConformance:
    """``mode="exact"`` is the exhaustive path, hit for hit.

    The tiered executor only engages for ``sensitive``/``fast``; with
    ``mode="exact"`` every entry point (serial pipeline, parallel
    pipeline, streaming, sharded streaming) must produce output
    indistinguishable from the same entry point with no mode set —
    identical scores, identical Hit ranking under the stable tie-break,
    identical cell accounting.  The hybrid merges (static, queue,
    resilient) must rank like the whole-database pipeline, and a tiered
    scan must rank the same resident or streamed.
    """

    @pytest.fixture(scope="class")
    def workload(self):
        from repro.db import SyntheticSwissProt

        rng = np.random.default_rng(0xBEEF)
        db = SyntheticSwissProt(seed=11).generate(scale=0.0004)
        query = random_protein(rng, 48)
        return query, db

    @staticmethod
    def _key(result):
        return (
            [(h.index, h.score, h.header) for h in result.hits],
            result.cells,
        )

    def test_serial_pipeline_identical(self, workload):
        from repro.search import (
            SearchOptions, SearchPipeline, TieredSearchResult,
        )

        query, db = workload
        default = SearchPipeline(SearchOptions(top_k=25)).search(query, db)
        exact = SearchPipeline(
            SearchOptions(mode="exact", top_k=25)
        ).search(query, db)
        assert not isinstance(exact, TieredSearchResult)
        assert self._key(exact) == self._key(default)
        np.testing.assert_array_equal(exact.scores, default.scores)
        # Ties must exist for the ordering comparison to bite.
        top_scores = [h.score for h in default.hits]
        assert len(set(top_scores)) < len(top_scores)

    def test_parallel_pipeline_identical(self, workload):
        from repro.search import SearchOptions, SearchPipeline

        query, db = workload
        serial = SearchPipeline(SearchOptions(top_k=25)).search(query, db)
        with SearchPipeline(
            SearchOptions(mode="exact", top_k=25), workers=2
        ) as pipe:
            parallel = pipe.search(query, db)
        assert self._key(parallel) == self._key(serial)

    def test_streaming_identical(self, workload):
        from repro.search import SearchOptions, StreamingSearch

        query, db = workload
        default = StreamingSearch(
            SearchOptions(top_k=25, chunk_size=32)
        ).search_database(query, db)
        exact = StreamingSearch(
            SearchOptions(mode="exact", top_k=25, chunk_size=32)
        ).search_database(query, db)
        assert [(h.index, h.score) for h in exact.hits] \
            == [(h.index, h.score) for h in default.hits]
        assert exact.cells == default.cells

    def test_sharded_identical(self, workload):
        from repro.search import SearchOptions, StreamingSearch

        query, db = workload
        serial = StreamingSearch(
            SearchOptions(top_k=25, chunk_size=32)
        ).search_database(query, db)
        with StreamingSearch(
            SearchOptions(mode="exact", top_k=25, chunk_size=32),
            workers=2, shard_residues=4_000,
        ) as sharded:
            result = sharded.search_database(query, db)
        assert [(h.index, h.score) for h in result.hits] \
            == [(h.index, h.score) for h in serial.hits]

    @pytest.mark.parametrize("top_k", [0, 1, "all"])
    @pytest.mark.parametrize("path", ["static", "queue", "resilient"])
    def test_hybrid_paths_identical(self, workload, path, top_k):
        from repro.devices import XEON_E5_2670_DUAL, XEON_PHI_57XX
        from repro.perfmodel import DevicePerformanceModel
        from repro.runtime import ResilientHybridExecutor
        from repro.search import (
            HybridSearchPipeline, SearchOptions, SearchPipeline,
        )

        query, db = workload
        k = len(db) + 5 if top_k == "all" else top_k
        host = DevicePerformanceModel(XEON_E5_2670_DUAL)
        phi = DevicePerformanceModel(XEON_PHI_57XX)
        if path == "resilient":
            merged = ResilientHybridExecutor(host, phi).search(
                query, db, top_k=k
            )
        else:
            merged = HybridSearchPipeline(host, phi, scheduler=path).search(
                query, db, top_k=k
            )
        whole = SearchPipeline(SearchOptions(top_k=k)).search(query, db)
        assert self._key(merged.result) == self._key(whole)

    @pytest.fixture(scope="class")
    def homologs(self, workload):
        # Planted copies of the query survive the tiered filter; the
        # unmutated ones tie at the top (in "sensitive" mode — "fast"
        # keeps only the mutated copies).
        from repro.db.mutate import plant_homologs

        query, db = workload
        planted, _ = plant_homologs(
            db, {"q": PROTEIN.encode(query)}, [0.0, 0.2], per_rate=3, seed=5
        )
        return query, planted

    @pytest.mark.parametrize("top_k", [0, 1, "all"])
    @pytest.mark.parametrize("mode", ["sensitive", "fast"])
    def test_tiered_resident_matches_streamed(self, homologs, mode, top_k):
        from repro.search import SearchOptions, SearchPipeline, StreamingSearch

        query, db = homologs
        k = len(db) + 5 if top_k == "all" else top_k
        opts = SearchOptions(mode=mode, top_k=k, chunk_size=32)
        resident = SearchPipeline(opts).search(query, db)
        streamed = StreamingSearch(opts).search_database(query, db)
        assert self._key(streamed) == self._key(resident)
        assert len(resident.hits) == min(k, resident.tier.verify_survivors)
        if top_k == "all" and mode == "sensitive":
            top_scores = [h.score for h in resident.hits]
            assert len(set(top_scores)) < len(top_scores)

    def test_tiered_modes_return_tiered_result(self, workload):
        from repro.search import (
            SearchOptions, SearchPipeline, TieredSearchResult,
        )

        query, db = workload
        for mode in ("sensitive", "fast"):
            result = SearchPipeline(
                SearchOptions(mode=mode, top_k=25)
            ).search(query, db)
            assert isinstance(result, TieredSearchResult), mode
