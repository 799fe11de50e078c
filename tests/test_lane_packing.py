"""Lane packing contract: the cost-model cut of ``build_lane_groups``.

Every packing path (``preprocess_database``, ``score_batch`` for stream
chunks and tiered finalists, the worker ``subset`` repack) goes through
one function, which cuts the length-ordered sequences into contiguous
groups of at most ``lanes`` lanes minimising
``sum_g GROUP_COST_CELLS + width_g * n_max_g``.  These tests pin that
contract, and check that the kernels stay bit-identical to the scalar
oracle on the long-tail groups it produces.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.alphabet import PROTEIN
from repro.core import intertask, vectorized
from repro.core.engine import get_engine
from repro.core.intertask import GROUP_COST_CELLS, build_lane_groups
from repro.core.vectorized import KERNEL_NAMES, make_intertask_engine
from repro.db import SequenceDatabase, SyntheticSwissProt, preprocess_database
from repro.faults import FaultInjector, FaultPlan
from repro.metrics import MetricsRegistry
from repro.parallel import worker
from repro.parallel.shared import PackedDatabase
from repro.parallel.worker import ChunkTask, EngineConfig, run_chunk
from repro.scoring import BLOSUM62, paper_gap_model
from repro.search import SearchOptions, SearchPipeline

GAPS = paper_gap_model()


def dummy_seqs(lengths) -> list[np.ndarray]:
    return [np.zeros(int(n), dtype=np.uint8) for n in lengths]


def widths(groups) -> list[int]:
    return [g.lanes for g in groups]


def packing_cost(groups) -> int:
    return sum(GROUP_COST_CELLS + g.lanes * g.n_max for g in groups)


def brute_force_cost(lengths, lanes: int) -> int:
    """Cheapest cut of ``lengths`` (in the given order), by enumeration."""
    n = len(lengths)
    best = None
    for cuts in itertools.product((False, True), repeat=n - 1):
        bounds = [0] + [k + 1 for k, cut in enumerate(cuts) if cut] + [n]
        runs = [lengths[a:b] for a, b in zip(bounds, bounds[1:])]
        if any(len(run) > lanes for run in runs):
            continue
        cost = sum(GROUP_COST_CELLS + len(run) * max(run) for run in runs)
        best = cost if best is None else min(best, cost)
    return best


def spy_on(monkeypatch, module) -> list:
    """Record the groups every ``module.build_lane_groups`` call returns."""
    calls = []

    def spy(*args, **kwargs):
        groups = build_lane_groups(*args, **kwargs)
        calls.append(groups)
        return groups

    monkeypatch.setattr(module, "build_lane_groups", spy)
    return calls


class TestPartition:
    @pytest.mark.parametrize("lanes", [1, 3, 8, 128])
    def test_every_index_once_contiguous_and_capped(self, rng, lanes):
        lengths = rng.integers(1, 4000, size=300)
        groups = build_lane_groups(dummy_seqs(lengths), lanes)
        packed = np.concatenate([g.indices for g in groups])
        # Contiguous runs of the stable length order, each index once.
        assert np.array_equal(packed, np.argsort(lengths, kind="stable"))
        assert all(1 <= g.lanes <= lanes for g in groups)
        for g in groups:
            assert np.array_equal(g.lengths, lengths[g.indices])
            assert g.n_max == g.lengths.max()

    def test_unsorted_packing_keeps_input_order(self, rng):
        lengths = rng.integers(1, 4000, size=200)
        groups = build_lane_groups(
            dummy_seqs(lengths), 16, sort_by_length=False
        )
        packed = np.concatenate([g.indices for g in groups])
        assert np.array_equal(packed, np.arange(len(lengths)))
        assert max(widths(groups)) <= 16

    def test_same_input_same_cuts(self, rng):
        lengths = rng.integers(1, 4000, size=400)
        first = build_lane_groups(dummy_seqs(lengths), 64)
        again = build_lane_groups(dummy_seqs(lengths), 64)
        assert [g.indices.tolist() for g in first] == [
            g.indices.tolist() for g in again
        ]

    @pytest.mark.parametrize("lanes", [2, 3, 5, 12])
    def test_cost_is_optimal_against_brute_force(self, rng, lanes):
        for _ in range(6):
            n = int(rng.integers(1, 13))
            # Lengths spread widely enough that cutting sometimes pays.
            lengths = np.sort(rng.integers(1, 3 * GROUP_COST_CELLS, size=n))
            groups = build_lane_groups(dummy_seqs(lengths), lanes)
            assert packing_cost(groups) == brute_force_cost(
                lengths.tolist(), lanes
            )

    def test_unsorted_cost_is_optimal_against_brute_force(self, rng):
        for _ in range(6):
            n = int(rng.integers(1, 13))
            lengths = rng.integers(1, 3 * GROUP_COST_CELLS, size=n)
            groups = build_lane_groups(
                dummy_seqs(lengths), 4, sort_by_length=False
            )
            assert packing_cost(groups) == brute_force_cost(
                lengths.tolist(), 4
            )

    def test_uniform_micro_batch_stays_in_two_groups(self, rng):
        # The `repro bench` kernel micro workload: 256 x 30-80 residues.
        lengths = rng.integers(30, 81, size=256)
        assert widths(build_lane_groups(dummy_seqs(lengths), 128)) == [
            128, 128,
        ]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_swissprot_law_padding_budget(self, seed):
        db = SyntheticSwissProt(seed=seed).generate(scale=0.001)
        pre = preprocess_database(db, lanes=128)
        assert pre.padded_residues / pre.total_residues <= 1.25
        assert 1.0 - pre.padding_fraction == pytest.approx(
            pre.total_residues / pre.padded_residues
        )


class TestOnePacker:
    """Every packing path cuts a given length order the same way."""

    @pytest.fixture(scope="class")
    def db(self):
        return SyntheticSwissProt(seed=5).generate(scale=0.0003)

    LANES = 64

    def test_paths_agree(self, db, monkeypatch):
        pre = preprocess_database(db, lanes=self.LANES)
        expected = widths(pre.groups)
        assert len(expected) > -(-len(db) // self.LANES)  # the tail is cut
        query = PROTEIN.encode("MKTAYIAKQRQ")

        batch_calls = spy_on(monkeypatch, vectorized)
        make_intertask_engine("numpy", lanes=self.LANES).score_batch(
            query, db.sequences, BLOSUM62, GAPS
        )
        python_calls = spy_on(monkeypatch, intertask)
        make_intertask_engine("python", lanes=self.LANES).score_batch(
            query, db.sequences, BLOSUM62, GAPS
        )
        subset_calls = spy_on(monkeypatch, worker)
        run_chunk(
            ChunkTask(
                chunk_id=0, kind="subset", query=query, matrix=BLOSUM62,
                gaps=GAPS, engine=EngineConfig(lanes=self.LANES),
                positions=tuple(range(len(db))),
            ),
            db=PackedDatabase.from_preprocessed(pre), engines={}, pid=0,
        )
        for calls in (batch_calls, python_calls, subset_calls):
            (groups,) = calls
            assert widths(groups) == expected


# ---------------------------------------------------------------------------
# long-tail differential: kernels vs the scalar oracle under the new cuts
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def long_tail():
    """The law's six longest sequences plus a sample of the rest.

    A 24-residue query is planted verbatim in the longest sequence and
    in a short one, so forced int8 lanes saturate in both a tail group
    and a bulk group.
    """
    full = SyntheticSwissProt(seed=1).generate(scale=0.001)
    order = full.length_order()
    keep = np.sort(np.concatenate([order[-6:], order[:-6:12]]))
    seqs = [full.sequences[k].copy() for k in keep]
    query = full.sequences[int(order[300])][10:34].copy()
    lengths = [len(s) for s in seqs]
    seqs[int(np.argmax(lengths))][4000:4024] = query
    seqs[int(np.argsort(lengths)[20])][5:29] = query
    db = SequenceDatabase(
        name="long-tail", sequences=seqs,
        headers=[full.headers[k] for k in keep], alphabet=PROTEIN,
    )
    ref = get_engine("scalar", PROTEIN).score_batch(
        query, db.sequences, BLOSUM62, GAPS
    ).scores
    return db, query, ref


def ranked(scores: np.ndarray) -> list[tuple[int, int]]:
    order = sorted(range(len(scores)), key=lambda k: (-scores[k], k))
    return [(int(scores[k]), k) for k in order]


def hit_key(result) -> list[tuple[int, int]]:
    return [(h.score, h.index) for h in result.hits]


class TestLongTailDifferential:
    def test_tail_is_cut_into_narrow_groups(self, long_tail):
        db, _, _ = long_tail
        assert max(db.lengths) == 9624
        pre = preprocess_database(db, lanes=128)
        assert len(pre.groups) > 1
        assert pre.groups[-1].lanes < len(db)

    @pytest.mark.parametrize("bits", [8, 16])
    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_score_batch_matches_scalar(self, long_tail, kernel, bits):
        db, query, ref = long_tail
        engine = make_intertask_engine(kernel, saturate_bits=bits)
        batch = engine.score_batch(query, db.sequences, BLOSUM62, GAPS)
        np.testing.assert_array_equal(batch.scores, ref)
        assert batch.cells == len(query) * db.total_residues
        if bits == 8:
            assert len(batch.saturated) >= 2
        if kernel == "numpy":
            moved = engine.stats.redo_lanes
            assert moved == len(batch.saturated)
            assert (moved > 0) == (bits == 8)

    @pytest.mark.parametrize("bits", [8, 16])
    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_pipeline_hits_match_scalar(self, long_tail, kernel, bits):
        db, query, ref = long_tail
        result = SearchPipeline(
            SearchOptions(kernel=kernel, top_k=len(db)), saturate_bits=bits
        ).search(query, db)
        np.testing.assert_array_equal(result.scores, ref)
        assert hit_key(result) == ranked(ref)
        assert result.cells == len(query) * db.total_residues

    def test_parallel_and_chaos_match_fault_free(self, long_tail):
        db, query, ref = long_tail
        options = SearchOptions(kernel="numpy", top_k=12)
        serial = SearchPipeline(options, saturate_bits=8).search(query, db)
        np.testing.assert_array_equal(serial.scores, ref)
        with SearchPipeline(
            options, saturate_bits=8, workers=2, parallel_chunk_size=1,
        ) as pipe:
            par = pipe.search(query, db)
        chaos = SearchOptions(
            kernel="numpy", top_k=12,
            injector=FaultInjector(FaultPlan(seed=3, worker_kill_units=(1,))),
        )
        registry = MetricsRegistry()
        with SearchPipeline(
            chaos, saturate_bits=8, workers=2, parallel_chunk_size=1,
            metrics=registry,
        ) as pipe:
            healed = pipe.search(query, db)
        assert registry.snapshot()["pool.heal.count"] >= 1
        for result in (par, healed):
            np.testing.assert_array_equal(result.scores, serial.scores)
            assert hit_key(result) == hit_key(serial)
            assert result.cells == serial.cells
