"""Unit tests for database pre-processing (Algorithm 1/2 step 2)."""

import numpy as np
import pytest

from repro.db import SyntheticSwissProt, preprocess_database, split_database
from repro.exceptions import DatabaseError


@pytest.fixture(scope="module")
def small_db():
    return SyntheticSwissProt().generate(scale=0.0005)


class TestPreprocess:
    def test_database_sorted(self, small_db):
        pre = preprocess_database(small_db, lanes=8)
        lengths = pre.database.lengths
        assert np.array_equal(lengths, np.sort(lengths))

    def test_residues_conserved(self, small_db):
        pre = preprocess_database(small_db, lanes=8)
        assert pre.total_residues == small_db.total_residues

    def test_group_count(self, small_db):
        # ``lanes`` caps the group width; the cost model may cut earlier,
        # so the fixed-width count is a lower bound, not the answer.
        pre = preprocess_database(small_db, lanes=8)
        assert len(pre.groups) >= -(-len(small_db) // 8)
        assert max(g.lanes for g in pre.groups) <= 8
        order = np.concatenate([g.indices for g in pre.groups])
        assert np.array_equal(order, np.arange(len(small_db)))

    def test_padding_small_after_sorting(self, small_db):
        pre = preprocess_database(small_db, lanes=8)
        assert pre.padding_fraction < 0.5

    def test_group_cells_scale_with_query(self, small_db):
        pre = preprocess_database(small_db, lanes=8)
        c1 = pre.group_cells(100)
        c2 = pre.group_cells(200)
        assert np.array_equal(2 * c1, c2)
        assert c1.sum() == 100 * small_db.total_residues


class TestSplit:
    def test_partition_is_exact(self, small_db):
        host, dev = split_database(small_db, 0.55)
        assert len(host) + len(dev) == len(small_db)
        assert host.total_residues + dev.total_residues == small_db.total_residues

    def test_fraction_respected_by_residues(self, small_db):
        host, dev = split_database(small_db, 0.55)
        frac = dev.total_residues / small_db.total_residues
        assert abs(frac - 0.55) < 0.02

    @pytest.mark.parametrize("fraction", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_various_fractions(self, small_db, fraction):
        host, dev = split_database(small_db, fraction)
        frac = dev.total_residues / small_db.total_residues
        assert abs(frac - fraction) < 0.05

    def test_zero_fraction_all_host(self, small_db):
        host, dev = split_database(small_db, 0.0)
        assert len(dev) == 0
        assert len(host) == len(small_db)

    def test_full_fraction_all_device(self, small_db):
        host, dev = split_database(small_db, 1.0)
        assert len(host) == 0
        assert len(dev) == len(small_db)

    def test_no_sequence_duplicated(self, small_db):
        host, dev = split_database(small_db, 0.4)
        host_h = set(host.headers)
        dev_h = set(dev.headers)
        assert not host_h & dev_h
        assert host_h | dev_h == set(small_db.headers)

    def test_invalid_fraction(self, small_db):
        with pytest.raises(DatabaseError):
            split_database(small_db, 1.5)
        with pytest.raises(DatabaseError):
            split_database(small_db, -0.1)

    def test_both_sides_get_long_sequences(self, small_db):
        # The greedy walk interleaves long entries so both halves keep a
        # similar length profile (the paper's balanced static split).
        host, dev = split_database(small_db, 0.5)
        assert host.max_length > 0.3 * small_db.max_length
        assert dev.max_length > 0.3 * small_db.max_length
