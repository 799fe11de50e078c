"""Inter-task (SWIPE-style) Smith-Waterman engine — the paper's scheme.

One vector register's worth of lanes processes ``L`` *different* database
sequences against the same query simultaneously (paper Section IV, after
Rognes [4]).  Because the lanes are independent alignments there are no
intra-alignment data dependences to break, which is why the paper's
inter-task code outperforms intra-task vectorisation on short sequences.

Three of the paper's optimisations are implemented faithfully:

* **Length-sorted lane packing** (:func:`build_lane_groups`) — grouping
  consecutive sequences of the pre-sorted database into lanes keeps lane
  lengths similar, like the paper's pre-processing step (2); groups are
  cut where padding would cost more than dispatching one more group.
* **QP vs SP addressing** (``profile=``) — query-profile mode gathers
  each DP row's scores through the database residues (the non-contiguous
  access that hurts on gather-less AVX); sequence-profile mode
  pre-expands per-group contiguous score planes (paper Section IV).
* **Cache blocking** (``block_cols=``) — the DP is tiled over database
  columns with carried boundary state (H column, prefix-scan carry) so
  the working set per pass fits a target cache; results are bit-identical
  to the unblocked computation, which the test suite verifies.

Narrow SIMD elements are emulated with ``saturate_bits``: scores clamp at
the element maximum like real saturating vector arithmetic, saturated
lanes are flagged, and :meth:`InterTaskEngine.score_batch` recomputes
them at full width — the SWIPE/SSW recompute strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..alphabet import PROTEIN, Alphabet
from ..exceptions import EngineError
from ..scoring.gaps import GapModel
from ..scoring.matrices import SubstitutionMatrix
from .engine import AlignmentEngine, as_codes, register_engine
from .profiles import ProfileKind
from .types import AlignmentResult, BatchResult

__all__ = ["LaneGroup", "build_lane_groups", "InterTaskEngine"]

_NEG = np.int64(-(1 << 40))
_PAD_SCORE = np.int64(-(1 << 30))

#: Kernel cost of one more lane group, in padded DP cells per query row.
#: Each group pays a fixed chain of array dispatches per query row on top
#: of its ``width * n_max`` cells; :func:`build_lane_groups` trades one
#: against the other.  Set by a 2048..16384 sweep on the paper's length
#: law and on short serving queries (DESIGN.md §15).
GROUP_COST_CELLS = 4096


@dataclass(frozen=True)
class LaneGroup:
    """``L`` database sequences packed into the lanes of one vector task.

    Attributes
    ----------
    codes:
        ``(n_max, L)`` residue-code array; column ``l`` holds sequence
        ``l`` padded at the tail with the out-of-alphabet pad code
        (``alphabet.size``).
    lengths:
        True (unpadded) length of each lane.
    indices:
        Position of each lane's sequence in the caller's original batch,
        so scores can be scattered back after sorted packing.
    """

    codes: np.ndarray
    lengths: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        if self.codes.ndim != 2:
            raise EngineError(f"lane group codes must be 2-D, got {self.codes.shape}")
        if not (len(self.lengths) == len(self.indices) == self.codes.shape[1]):
            raise EngineError("lane group metadata does not match lane count")

    @property
    def lanes(self) -> int:
        """Number of lanes (including empty padding lanes, if any)."""
        return int(self.codes.shape[1])

    @property
    def n_max(self) -> int:
        """Padded common length of the group."""
        return int(self.codes.shape[0])

    @property
    def mask(self) -> np.ndarray:
        """``(n_max, L)`` bool array marking real (non-pad) positions."""
        return np.arange(self.n_max)[:, None] < self.lengths[None, :]

    @property
    def cells_per_query_row(self) -> int:
        """Real DP cells per query row (sum of lane lengths)."""
        return int(self.lengths.sum())

    @property
    def padding_fraction(self) -> float:
        """Fraction of the padded rectangle that is wasted padding."""
        total = self.n_max * self.lanes
        return 1.0 - self.cells_per_query_row / total if total else 0.0


def _group_bounds(lengths: np.ndarray, lanes: int) -> list[int]:
    """End offsets of the cheapest cut of ``lengths`` into lane groups.

    Exact dynamic program over contiguous runs of at most ``lanes``
    entries minimising ``sum_g GROUP_COST_CELLS + width_g * n_max_g``:
    ``best[j] = min_{j-lanes <= i < j} best[i] + C + max(len[i:j]) * (j-i)``.
    ``argmin`` keeps the earliest ``i`` on ties, so the cut is a pure
    function of the length sequence.
    """
    n = len(lengths)
    best = np.zeros(n + 1, dtype=np.int64)
    start = [0] * (n + 1)
    offsets = np.arange(n + 1, dtype=np.int64)
    as_ints = lengths.tolist()
    ascending = bool((lengths[1:] >= lengths[:-1]).all())
    for j in range(1, n + 1):
        lo = max(0, j - lanes)
        if ascending:
            n_max = as_ints[j - 1]
        else:  # run maxima max(len[i:j]) for every candidate start i
            n_max = np.maximum.accumulate(lengths[lo:j][::-1])[::-1]
        cost = best[lo:j] + n_max * (j - offsets[lo:j])
        k = int(cost.argmin())
        best[j] = cost[k] + GROUP_COST_CELLS
        start[j] = lo + k
    bounds = []
    j = n
    while j > 0:
        bounds.append(j)
        j = start[j]
    return bounds[::-1]


def build_lane_groups(
    db_seqs: list[np.ndarray],
    lanes: int,
    *,
    sort_by_length: bool = True,
) -> list[LaneGroup]:
    """Pack database sequences into :class:`LaneGroup` batches.

    With ``sort_by_length`` (the paper's pre-processing optimisation)
    sequences are packed in ascending length order so each group's lanes
    have near-equal lengths; scores are later scattered back through
    ``indices`` so callers always see original order.

    ``lanes`` is the *maximum* group width.  The packing order is cut
    into contiguous groups where the padding a longer run would add
    costs more than :data:`GROUP_COST_CELLS` — see :func:`_group_bounds`.
    """
    if lanes < 1:
        raise EngineError(f"lane count must be positive, got {lanes}")
    if not db_seqs:
        return []
    seqs = [np.asarray(s) for s in db_seqs]
    lengths = np.fromiter(
        (len(s) for s in seqs), dtype=np.int64, count=len(seqs)
    )
    order = (
        np.argsort(lengths, kind="stable")
        if sort_by_length
        else np.arange(len(seqs), dtype=np.int64)
    )
    groups: list[LaneGroup] = []
    lo = 0
    for hi in _group_bounds(lengths[order], lanes):
        chunk = order[lo:hi]
        lo = hi
        group_lengths = lengths[chunk]
        # Pad code is one past the alphabet: engines extend their score
        # tables with a poison column at this index.
        codes = np.full(
            (int(group_lengths.max()), len(chunk)), 255, dtype=np.uint8
        )
        for l, k in enumerate(chunk):
            codes[: group_lengths[l], l] = seqs[k]
        groups.append(
            LaneGroup(codes=codes, lengths=group_lengths, indices=chunk)
        )
    return groups


@register_engine
class InterTaskEngine(AlignmentEngine):
    """Lane-parallel multi-sequence engine (paper Section IV).

    Parameters
    ----------
    lanes:
        Vector width in elements, e.g. 8 for AVX/int32 or 16 for
        MIC-512/int32 (the paper's two targets); the widest lane group
        :func:`build_lane_groups` packs.
    profile:
        ``"query"`` (QP) or ``"sequence"`` (SP) score addressing.
    block_cols:
        Database-column tile width for cache blocking; ``None`` disables
        blocking.  Results are identical either way.
    saturate_bits:
        Emulate saturating arithmetic of this element width (8 or 16);
        ``None`` computes exactly in wide integers.
    """

    name = "intertask"
    #: Kernel family for ``SearchOptions.kernel`` selection: this is the
    #: instruction-faithful Python-loop kernel ("python"); the
    #: array-parallel sibling in ``repro.core.vectorized`` is "numpy".
    kernel = "python"

    def __init__(
        self,
        alphabet: Alphabet | None = None,
        lanes: int = 8,
        profile: ProfileKind | str = ProfileKind.SEQUENCE,
        block_cols: int | None = None,
        saturate_bits: int | None = None,
    ) -> None:
        super().__init__(alphabet or PROTEIN)
        if lanes < 1:
            raise EngineError(f"lane count must be positive, got {lanes}")
        if block_cols is not None and block_cols < 1:
            raise EngineError(f"block_cols must be positive, got {block_cols}")
        if saturate_bits not in (None, 8, 16):
            raise EngineError(
                f"saturate_bits must be None, 8 or 16, got {saturate_bits}"
            )
        self.lanes = lanes
        self.profile = ProfileKind.parse(profile)
        self.block_cols = block_cols
        self.saturate_bits = saturate_bits

    # ------------------------------------------------------------------
    # public batched API
    # ------------------------------------------------------------------
    def score_batch(
        self,
        query,
        db_seqs,
        matrix: SubstitutionMatrix,
        gaps: GapModel,
        *,
        recompute_saturated: bool = True,
    ) -> BatchResult:
        """Score a whole database batch through lane groups.

        Saturated lanes (narrow-element mode) are recomputed exactly with
        the scan engine and reported in ``BatchResult.saturated``.  Pass
        ``recompute_saturated=False`` to leave them clamped — callers
        running their own precision ladder (the adaptive engine) escalate
        them to a wider element width instead.
        """
        q = as_codes(query, self.alphabet)
        self._check_matrix(matrix)
        encoded = [as_codes(s, self.alphabet) for s in db_seqs]
        groups = build_lane_groups(encoded, self.lanes)
        scores = np.zeros(len(encoded), dtype=np.int64)
        cells = 0
        saturated: list[int] = []
        # The extended table (and the QP gather of it) depend only on
        # the query and matrix — build them once for the whole batch
        # instead of once per lane group.
        prepared = self._prepare(q, matrix)
        for group in groups:
            g_scores, g_sat = self.score_group(
                q, group, matrix, gaps, _prepared=prepared
            )
            scores[group.indices] = g_scores
            cells += len(q) * group.cells_per_query_row
            saturated.extend(int(group.indices[l]) for l in g_sat)
        if saturated and recompute_saturated:
            from .scan import ScanEngine

            exact = ScanEngine(self.alphabet)
            for k in saturated:
                scores[k] = exact.score_pair(q, encoded[k], matrix, gaps).score
        return BatchResult(scores=scores, cells=cells, saturated=sorted(saturated))

    def _prepare(
        self, query: np.ndarray, matrix: SubstitutionMatrix
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Batch-invariant tables: (extended matrix, QP rows or None)."""
        ext = self._extended_table(matrix)
        qp = (
            ext[query.astype(np.intp)]
            if self.profile is ProfileKind.QUERY
            else None
        )
        return ext, qp

    def score_group(
        self,
        query: np.ndarray,
        group: LaneGroup,
        matrix: SubstitutionMatrix,
        gaps: GapModel,
        *,
        _prepared: tuple[np.ndarray, np.ndarray | None] | None = None,
    ) -> tuple[np.ndarray, list[int]]:
        """Score one lane group; returns per-lane scores and saturated lanes.

        This is the paper's Algorithm 1 inner loop: for each query residue
        (outer loop, line 26) every lane's database row is advanced with
        vector operations (the ``omp simd`` loop, line 28), here realised
        as numpy operations over the ``(n_max, L)`` lane plane with the
        horizontal-gap recurrence resolved by a prefix scan.
        """
        m = len(query)
        L = group.lanes
        n_max = group.n_max
        sat_limit = (
            np.int64((1 << (self.saturate_bits - 1)) - 1)
            if self.saturate_bits
            else None
        )

        # Extended score table: a poison row/column at index
        # ``alphabet.size..255`` is represented by clamping pad codes to a
        # single extra column filled with a large negative score.
        ext, qp = _prepared if _prepared is not None else self._prepare(
            query, matrix
        )
        codes = np.minimum(group.codes, self.alphabet.size).astype(np.intp)

        if self.profile is ProfileKind.SEQUENCE:
            # SP: contiguous (n_max, L) plane per query letter, built once
            # per group (cannot be pre-processed, as the paper notes).
            sp = ext[:, codes]  # (A+1, n_max, L)
            get_row = lambda qc: sp[qc]  # noqa: E731 - tight closure
        else:
            # QP: per-row gather through database residues.
            get_row = None  # handled inline with codes gather

        go = np.int64(gaps.first_gap_cost)
        qo = np.int64(gaps.open)
        ge = np.int64(gaps.extend)
        mask = group.mask

        if self.block_cols is None or self.block_cols >= n_max:
            best = self._sweep(
                query, codes, mask, get_row,
                qp if self.profile is ProfileKind.QUERY else None,
                m, n_max, L, qo, go, ge, sat_limit,
            )
        else:
            best = self._sweep_blocked(
                query, codes, mask, get_row,
                qp if self.profile is ProfileKind.QUERY else None,
                m, n_max, L, qo, go, ge, sat_limit, self.block_cols,
            )

        sat_lanes = (
            [int(l) for l in np.flatnonzero(best >= sat_limit)]
            if sat_limit is not None
            else []
        )
        return best, sat_lanes

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def _sweep(
        self, query, codes, mask, get_row, qp,
        m, n_max, L, qo, go, ge, sat_limit,
    ) -> np.ndarray:
        """Unblocked lane sweep over all query rows."""
        h_prev = np.zeros((n_max + 1, L), dtype=np.int64)
        f_prev = np.full((n_max, L), _NEG, dtype=np.int64)
        t = np.empty((n_max, L), dtype=np.int64)
        src_w = (np.arange(n_max, dtype=np.int64) * ge)[:, None]
        col_w = (np.arange(1, n_max + 1, dtype=np.int64) * ge)[:, None]
        best = np.zeros(L, dtype=np.int64)

        for i in range(m):
            v = get_row(int(query[i])) if get_row else qp[i][codes]
            f = np.maximum(h_prev[1:] - go, f_prev - ge)
            h_tilde = np.maximum(h_prev[:-1] + v, f)
            np.maximum(h_tilde, 0, out=h_tilde)
            t[0] = 0
            np.add(h_tilde[:-1], src_w[1:], out=t[1:])
            np.maximum.accumulate(t, axis=0, out=t)
            h = np.maximum(h_tilde, t - qo - col_w)
            if sat_limit is not None:
                np.minimum(h, sat_limit, out=h)
            np.maximum(best, (h * mask).max(axis=0), out=best)
            h_prev[1:] = h
            f_prev = f
        return best

    def _sweep_blocked(
        self, query, codes, mask, get_row, qp,
        m, n_max, L, qo, go, ge, sat_limit, width,
    ) -> np.ndarray:
        """Column-tiled sweep with carried boundary state.

        Per tile we carry: ``col_h`` — the H values of the column just
        left of the tile for every query row; ``carry`` — the prefix-scan
        running maximum over all sources left of the tile.  Both make the
        tiled computation bit-identical to :meth:`_sweep`.
        """
        best = np.zeros(L, dtype=np.int64)
        # Boundary H column: col_in[i] = H[i, u0] from the previous tile;
        # col_out collects H[i, u1] for the next tile.  Separate arrays —
        # writing in place would clobber values still to be read.
        col_in = np.zeros((m + 1, L), dtype=np.int64)
        col_out = np.zeros((m + 1, L), dtype=np.int64)
        carry = np.zeros((m, L), dtype=np.int64)  # k=0 source: H[i,0]=0

        for u0 in range(0, n_max, width):
            u1 = min(u0 + width, n_max)
            w = u1 - u0
            codes_t = codes[u0:u1]
            mask_t = mask[u0:u1]
            src_w = (np.arange(u0 + 1, u1, dtype=np.int64) * ge)[:, None]
            col_w = (np.arange(u0 + 1, u1 + 1, dtype=np.int64) * ge)[:, None]
            h_prev = np.zeros((w, L), dtype=np.int64)  # H[i-1, u0+1..u1]
            f_prev = np.full((w, L), _NEG, dtype=np.int64)
            tt = np.empty((w, L), dtype=np.int64)

            for i in range(m):
                if get_row:
                    v = get_row(int(query[i]))[u0:u1]
                else:
                    v = qp[i][codes_t]
                f = np.maximum(h_prev - go, f_prev - ge)
                diag = np.concatenate((col_in[i : i + 1], h_prev[:-1]), axis=0)
                h_tilde = np.maximum(diag + v, f)
                np.maximum(h_tilde, 0, out=h_tilde)
                # Prefix scan seeded with the carried left-of-tile maximum.
                tt[0] = carry[i]
                if w > 1:
                    np.add(h_tilde[:-1], src_w, out=tt[1:])
                np.maximum.accumulate(tt, axis=0, out=tt)
                h = np.maximum(h_tilde, tt - qo - col_w)
                if sat_limit is not None:
                    np.minimum(h, sat_limit, out=h)
                np.maximum(best, (h * mask_t).max(axis=0), out=best)
                # Carry out: fold in the tile's last source column u1.
                carry[i] = np.maximum(tt[-1], h_tilde[-1] + np.int64(u1) * ge)
                col_out[i + 1] = h[-1]
                h_prev = h
                f_prev = f
            col_in, col_out = col_out, col_in
        return best

    # ------------------------------------------------------------------
    # single-pair path and helpers
    # ------------------------------------------------------------------
    def _score_pair_codes(
        self, query: np.ndarray, db: np.ndarray, matrix, gaps
    ) -> AlignmentResult:
        group = build_lane_groups([db], lanes=1)[0]
        scores, sat = self.score_group(query, group, matrix, gaps)
        score = int(scores[0])
        if sat:
            from .scan import ScanEngine

            score = ScanEngine(self.alphabet).score_pair(
                query, db, matrix, gaps
            ).score
        return AlignmentResult(score=score, cells=len(query) * len(db))

    def _extended_table(self, matrix: SubstitutionMatrix) -> np.ndarray:
        """Score table with one poison column appended for the pad code."""
        a = matrix.data.astype(np.int64)
        pad = np.full((a.shape[0], 1), _PAD_SCORE, dtype=np.int64)
        return np.ascontiguousarray(np.concatenate((a, pad), axis=1))
