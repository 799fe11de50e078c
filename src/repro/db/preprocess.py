"""Database pre-processing — step (2) of the paper's Algorithms 1 and 2.

Two operations live here:

* :func:`preprocess_database` — sort by length and pack into lane groups
  (the paper's ``sort_by_length`` plus the vector-group construction its
  inter-task kernel consumes).  Sorting makes consecutive alignment
  tasks take similar time, which is what lets the OpenMP dynamic
  schedule balance well (paper Section IV), and keeps each lane group's
  lengths close.  Groups hold at most ``lanes`` sequences and are cut
  early where padding would cost more than one more group (see
  :func:`~repro.core.intertask.build_lane_groups`); the long tail of
  the length law still pads, about 1.15x real cells on Swiss-Prot.

* :func:`split_database` — the ``sort_and_split`` of Algorithm 2: divide
  the database between host and coprocessor at a given workload
  fraction.  The paper varies this fraction in Figure 8; the split is by
  *residues* (cells of work), not sequence count, because that is what
  the GCUPS workload is proportional to.  A largest-remainder greedy
  over the length-sorted entries keeps both halves' length distributions
  similar, mirroring the static distribution the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.intertask import LaneGroup, build_lane_groups
from ..exceptions import DatabaseError
from .database import SequenceDatabase

__all__ = ["PreprocessedDatabase", "preprocess_database", "split_database"]


@dataclass
class PreprocessedDatabase:
    """A length-sorted database packed into inter-task lane groups.

    ``database`` is the *sorted* copy; ``source_fingerprint`` pins the
    original (pre-sort) database this preprocess was built from, so
    consumers handed both can verify content — not just shape — still
    matches (``None`` on hand-built instances skips that check).
    """

    database: SequenceDatabase
    groups: list[LaneGroup]
    lanes: int
    source_fingerprint: int | None = None

    @property
    def total_residues(self) -> int:
        """Residues across all groups (padding excluded)."""
        return int(sum(g.lengths.sum() for g in self.groups))

    @property
    def padded_residues(self) -> int:
        """Lane slots across all groups, padding included."""
        return int(sum(g.n_max * g.lanes for g in self.groups))

    @property
    def padding_fraction(self) -> float:
        """Overall fraction of padded lane slots — low after sorting."""
        padded = self.padded_residues
        return 1.0 - self.total_residues / padded if padded else 0.0

    def group_cells(self, query_length: int) -> np.ndarray:
        """DP cells each group contributes for a query of this length.

        This is the per-iteration workload array the OpenMP scheduler
        simulation distributes (the paper's parallel-for loop iterates
        over groups of database sequences).
        """
        return np.asarray(
            [query_length * int(g.lengths.sum()) for g in self.groups],
            dtype=np.int64,
        )


def preprocess_database(
    db: SequenceDatabase, *, lanes: int = 8
) -> PreprocessedDatabase:
    """Sort by length and pack into lane groups (Algorithm 1, line 4)."""
    sorted_db = db.sorted_by_length()
    groups = build_lane_groups(sorted_db.sequences, lanes, sort_by_length=False)
    return PreprocessedDatabase(
        database=sorted_db, groups=groups, lanes=lanes,
        source_fingerprint=db.fingerprint(),
    )


def split_indices(
    lengths: np.ndarray, device_fraction: float
) -> tuple[np.ndarray, np.ndarray]:
    """Static host/device split of entries at ``device_fraction`` of residues.

    Returns ``(host_indices, device_indices)``, each ascending.  The
    fraction is the share of total residues assigned to the coprocessor
    — the x-axis of the paper's Figure 8.  Entries are walked in
    descending length order and each is assigned to whichever side is
    furthest below its target share, so both sides end within one
    sequence length of their target.
    """
    if not 0.0 <= device_fraction <= 1.0:
        raise DatabaseError(
            f"device fraction must be in [0, 1], got {device_fraction}"
        )
    lengths = np.asarray(lengths, dtype=np.int64)
    to_dev = np.full(len(lengths), device_fraction == 1.0)
    if 0.0 < device_fraction < 1.0:
        total = int(lengths.sum())
        target_dev = device_fraction * total
        target_host = total - target_dev
        dev_sum = host_sum = 0
        for k in np.argsort(lengths, kind="stable")[::-1]:  # longest first
            n = int(lengths[k])
            # Assign to the side with the larger relative deficit.
            dev_deficit = (target_dev - dev_sum) / target_dev
            host_deficit = (target_host - host_sum) / target_host
            if dev_deficit >= host_deficit:
                to_dev[k] = True
                dev_sum += n
            else:
                host_sum += n
    return np.flatnonzero(~to_dev), np.flatnonzero(to_dev)


def split_database(
    db: SequenceDatabase, device_fraction: float
) -> tuple[SequenceDatabase, SequenceDatabase]:
    """Static host/device split at ``device_fraction`` of the residues.

    Returns ``(host_db, device_db)``, the two :func:`split_indices`
    subsets in database order.
    """
    host, device = split_indices(db.lengths, device_fraction)
    return (
        db.subset(host, name=f"{db.name}-cpu"),
        db.subset(device, name=f"{db.name}-mic"),
    )
