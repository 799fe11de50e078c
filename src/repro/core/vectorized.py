"""Array-vectorised inter-task Smith-Waterman kernel (the ``numpy`` kernel).

:class:`InterTaskEngine` realises the paper's inter-task scheme but still
walks the DP in Python loops — the SIMD layer only *counts* what a vector
unit would do.  This module is the genuinely array-parallel version:
database sequences are packed into ``(n_max, L)`` lane matrices (reusing
:func:`~repro.core.intertask.build_lane_groups` length-sorted packing) and
every DP anti-step is one numpy operation across the whole lane group —
``np.maximum`` / ``np.add`` over all ``L`` sequences at once, with the
horizontal-gap recurrence resolved by a single ``np.maximum.accumulate``
prefix scan per query row.  No Python loop over database position remains.

Two-tier width strategy (the SWIPE / SSW recompute path):

* Scores are computed in a narrow element type (int16 by default,
  optionally int8) with values *clamped* at a saturation limit, exactly
  like saturating SIMD arithmetic.
* A lane whose running maximum reaches the limit is flagged, and only the
  flagged lanes are redone at full int64 width.  Unflagged lanes are
  provably exact (clamping can only lower values, and the first clamped
  real cell pins that lane's maximum at the limit).

To keep int16/int8 intermediates in range the column prefix scan is tiled
and *rebased*: each tile uses local gap-length weights ``1..w`` and carries
a running maximum rebased to the tile boundary, floored at zero.  The
floor is score-safe because a floored carry can only produce a gap score
``-open - len*extend < 0``, which never beats the zero floor of ``H``.
Likewise ``F`` is kept zero-floored (``max(F, 0)``), which is exact
because ``H >= 0`` makes ``max(d+v, F, 0) == max(d+v, max(F, 0), 0)``.

Scores are bit-identical to :class:`~repro.core.scalar.ScalarEngine`; the
conformance and fuzz suites assert this across matrices, gap models and
forced-saturation inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..alphabet import PROTEIN, Alphabet
from ..exceptions import EngineError
from ..scoring.gaps import GapModel
from ..scoring.matrices import SubstitutionMatrix
from .engine import AlignmentEngine, as_codes, register_engine
from .intertask import InterTaskEngine, LaneGroup, build_lane_groups
from .profiles import ProfileKind
from .types import AlignmentResult, BatchResult

__all__ = [
    "VectorizedEngine",
    "KernelStats",
    "make_intertask_engine",
    "KERNEL_NAMES",
    "DEFAULT_LANES",
]

#: Valid values of ``SearchOptions.kernel``.
KERNEL_NAMES = ("python", "numpy")

#: Default lane width per kernel.  The numpy kernel amortises dispatch
#: over many more lanes than the 8-lane AVX emulation.
DEFAULT_LANES = {"python": 8, "numpy": 128}

_WIDTH_DTYPES = {8: np.int8, 16: np.int16}

# Wide-path pad poison (same role as InterTaskEngine's): pads are tail
# padding so they can never feed a real cell, the poison just keeps their
# scores from mattering numerically.
_PAD_SCORE_WIDE = np.int64(-(1 << 30))


@dataclass
class KernelStats:
    """Counters for the two-tier width strategy (engine-local).

    ``redo_lanes`` is the counter the overflow tests assert on: it only
    moves when a saturated lane was actually redone at full width.
    """

    narrow_sweeps: int = 0
    wide_sweeps: int = 0
    redo_groups: int = 0
    redo_lanes: int = 0

    def reset(self) -> None:
        self.narrow_sweeps = self.wide_sweeps = 0
        self.redo_groups = self.redo_lanes = 0


@dataclass(frozen=True)
class _Prepared:
    """Query/matrix-dependent tables shared across lane groups."""

    ext_wide: np.ndarray
    qp_wide: np.ndarray | None
    ext_narrow: np.ndarray | None
    qp_narrow: np.ndarray | None
    vmax: int


@register_engine
class VectorizedEngine(AlignmentEngine):
    """Lane-parallel engine with array-vectorised DP steps.

    Parameters
    ----------
    lanes:
        Most database sequences processed per lane group.  Unlike the
        SIMD emulation this is not a hardware width: packing cuts
        narrower groups where padding would cost more than one more
        group (:func:`~repro.core.intertask.build_lane_groups`).
    profile:
        ``"query"`` (QP) or ``"sequence"`` (SP) score addressing, as in
        :class:`InterTaskEngine`.
    block_cols:
        Optional cap on the database-column tile width.  Results are
        identical for any value.
    saturate_bits:
        Narrow compute width: 16 (default, also chosen for ``None``),
        8, or 64 to disable the narrow tier and compute everything at
        full width.
    """

    name = "vectorized"
    kernel = "numpy"

    def __init__(
        self,
        alphabet: Alphabet | None = None,
        lanes: int | None = None,
        profile: ProfileKind | str = ProfileKind.SEQUENCE,
        block_cols: int | None = None,
        saturate_bits: int | None = None,
    ) -> None:
        super().__init__(alphabet or PROTEIN)
        if lanes is None:
            lanes = DEFAULT_LANES["numpy"]
        if lanes < 1:
            raise EngineError(f"lane count must be positive, got {lanes}")
        if block_cols is not None and block_cols < 1:
            raise EngineError(f"block_cols must be positive, got {block_cols}")
        if saturate_bits not in (None, 8, 16, 64):
            raise EngineError(
                f"saturate_bits must be None, 8, 16 or 64, got {saturate_bits}"
            )
        self.lanes = lanes
        self.profile = ProfileKind.parse(profile)
        self.block_cols = block_cols
        self.saturate_bits = 16 if saturate_bits is None else saturate_bits
        self.stats = KernelStats()

    # ------------------------------------------------------------------
    # public batched API (mirrors InterTaskEngine)
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
        """Score a whole database batch through wide lane groups.

        ``BatchResult.saturated`` lists sequences whose narrow-width lane
        saturated; with ``recompute_saturated`` (default) their scores
        were redone exactly at full width, otherwise they stay clamped.
        """
        q = as_codes(query, self.alphabet)
        self._check_matrix(matrix)
        encoded = [as_codes(s, self.alphabet) for s in db_seqs]
        groups = build_lane_groups(encoded, self.lanes)
        scores = np.zeros(len(encoded), dtype=np.int64)
        cells = 0
        saturated: list[int] = []
        prepared = self._prepare(q, matrix) if groups else None
        for group in groups:
            g_scores, g_sat = self._score_group_raw(q, group, gaps, prepared)
            if g_sat and recompute_saturated:
                self._redo_wide(q, group, gaps, prepared, g_sat, g_scores)
            scores[group.indices] = g_scores
            cells += len(q) * group.cells_per_query_row
            saturated.extend(int(group.indices[l]) for l in g_sat)
        return BatchResult(scores=scores, cells=cells, saturated=sorted(saturated))

    def score_group(
        self,
        query: np.ndarray,
        group: LaneGroup,
        matrix: SubstitutionMatrix,
        gaps: GapModel,
        *,
        _prepared: _Prepared | None = None,
    ) -> tuple[np.ndarray, list[int]]:
        """Score one lane group; returns per-lane scores and saturated lanes.

        Same contract as :meth:`InterTaskEngine.score_group`: saturated
        lanes stay clamped and are *reported*, so the caller-side exact
        recompute pass (pipeline, pool workers) — and its
        ``saturated_recomputed`` accounting — behaves identically under
        either kernel.  :meth:`score_batch` is the entry point that
        redoes saturated lanes internally (vectorised, at full width).
        """
        prep = _prepared if _prepared is not None else self._prepare(query, matrix)
        return self._score_group_raw(query, group, gaps, prep)

    def _prepare(self, query: np.ndarray, matrix: SubstitutionMatrix) -> _Prepared:
        """Batch-invariant tables: wide + (if representable) narrow."""
        a = matrix.data.astype(np.int64)
        qidx = query.astype(np.intp)
        pad_w = np.full((a.shape[0], 1), _PAD_SCORE_WIDE, dtype=np.int64)
        ext_w = np.ascontiguousarray(np.concatenate((a, pad_w), axis=1))
        qp_w = ext_w[qidx] if self.profile is ProfileKind.QUERY else None
        ext_n = qp_n = None
        if self.saturate_bits != 64:
            dtype = _WIDTH_DTYPES[self.saturate_bits]
            info = np.iinfo(dtype)
            clamp = (int(info.max) * 3) // 4
            vmax = int(a.max())
            vmin = int(a.min())
            # The matrix itself must be representable next to clamped H
            # values; otherwise fall back to the wide tier silently.
            if vmax <= int(info.max) - clamp and vmin >= -clamp:
                pad_n = np.full((a.shape[0], 1), -clamp, dtype=np.int64)
                ext_n = np.ascontiguousarray(
                    np.concatenate((a, pad_n), axis=1).astype(dtype)
                )
                qp_n = ext_n[qidx] if self.profile is ProfileKind.QUERY else None
        return _Prepared(
            ext_wide=ext_w,
            qp_wide=qp_w,
            ext_narrow=ext_n,
            qp_narrow=qp_n,
            vmax=int(a.max()),
        )

    # ------------------------------------------------------------------
    # two-tier dispatch
    # ------------------------------------------------------------------
    def _score_group_raw(
        self,
        query: np.ndarray,
        group: LaneGroup,
        gaps: GapModel,
        prep: _Prepared,
    ) -> tuple[np.ndarray, list[int]]:
        """Narrow-tier sweep with saturation flags (no redo)."""
        codes = np.minimum(group.codes, self.alphabet.size).astype(np.intp)
        mask = group.mask
        qo, go, ge = int(gaps.open), int(gaps.first_gap_cost), int(gaps.extend)
        if prep.ext_narrow is not None:
            dtype = _WIDTH_DTYPES[self.saturate_bits]
            info = np.iinfo(dtype)
            clamp = (int(info.max) * 3) // 4
            width = self._narrow_tile_width(
                group.n_max, qo, ge, prep.vmax, int(info.max), clamp
            )
            if width is not None:
                best = self._lane_sweep(
                    query, codes, mask, prep.ext_narrow, prep.qp_narrow,
                    qo, go, ge, dtype, clamp, width,
                )
                self.stats.narrow_sweeps += 1
                sat = [int(l) for l in np.flatnonzero(best >= clamp)]
                return best.astype(np.int64), sat
        best = self._lane_sweep(
            query, codes, mask, prep.ext_wide, prep.qp_wide,
            qo, go, ge, np.int64, None,
            min(self.block_cols or group.n_max, group.n_max),
        )
        self.stats.wide_sweeps += 1
        return best, []

    def _narrow_tile_width(
        self, n_max: int, qo: int, ge: int, vmax: int, info_max: int, clamp: int
    ) -> int | None:
        """Largest column-tile width keeping narrow intermediates in range.

        Bounds enforced: ``h~ + w*ge <= info_max`` for the rebased scan
        carry (``h~ <= clamp + vmax``) and ``qo + w*ge <= info_max`` for
        the gap-cost subtraction.  ``None`` means the gap model cannot be
        computed narrowly at all.
        """
        if qo + ge > info_max:
            return None
        if ge == 0:
            width = n_max
        else:
            width = min(
                (info_max - clamp - vmax) // ge,
                (info_max - qo) // ge,
            )
            if width < 1:
                return None
        if self.block_cols is not None:
            width = min(width, self.block_cols)
        return max(1, min(width, n_max))

    def _redo_wide(
        self,
        query: np.ndarray,
        group: LaneGroup,
        gaps: GapModel,
        prep: _Prepared,
        sat: list[int],
        scores: np.ndarray,
    ) -> None:
        """Recompute saturated lanes at full int64 width, in place."""
        lanes = np.asarray(sat, dtype=np.intp)
        n_sub = int(group.lengths[lanes].max())
        codes = np.minimum(
            group.codes[:n_sub, lanes], self.alphabet.size
        ).astype(np.intp)
        mask = np.arange(n_sub)[:, None] < group.lengths[lanes][None, :]
        qo, go, ge = int(gaps.open), int(gaps.first_gap_cost), int(gaps.extend)
        best = self._lane_sweep(
            query, codes, mask, prep.ext_wide, prep.qp_wide,
            qo, go, ge, np.int64, None, min(self.block_cols or n_sub, n_sub),
        )
        scores[lanes] = best
        self.stats.wide_sweeps += 1
        self.stats.redo_groups += 1
        self.stats.redo_lanes += len(sat)

    # ------------------------------------------------------------------
    # the kernel
    # ------------------------------------------------------------------
    def _lane_sweep(
        self, query, codes, mask, table, qp, qo, go, ge, dtype, clamp, width
    ) -> np.ndarray:
        """Tiled lane sweep; one numpy op chain per query row per tile.

        ``table`` is the extended (pad-column) score table in ``dtype``;
        ``qp`` its query-profile gather for QP mode.  ``clamp`` enables
        saturating semantics (narrow tier); ``None`` computes exactly.
        Boundary state carried between tiles: the H column left of the
        tile (``col_in``/``col_out``) and the rebased prefix-scan carry,
        making tiling bit-identical to a single full-width pass.
        """
        m = len(query)
        n_max, L = codes.shape
        sp = table[:, codes] if self.profile is ProfileKind.SEQUENCE else None
        qidx = query.astype(np.intp)
        best = np.zeros(L, dtype=dtype)
        multi = width < n_max
        if multi:
            col_in = np.zeros((m + 1, L), dtype=dtype)
            col_out = np.zeros((m + 1, L), dtype=dtype)
            carry = np.zeros((m, L), dtype=dtype)
            crow = np.empty(L, dtype=dtype)

        for u0 in range(0, n_max, width):
            u1 = min(u0 + width, n_max)
            w = u1 - u0
            mask_t = mask[u0:u1]
            full = bool(mask_t.all())
            codes_t = codes[u0:u1] if sp is None else None
            # Broadcast constants pre-tiled to (w, L): full-array ufunc
            # calls vectorise better than column-vector broadcasts.
            src_w = np.broadcast_to(
                (np.arange(1, w, dtype=np.int64) * ge).astype(dtype)[:, None],
                (max(w - 1, 0), L),
            ).copy()
            ecost = np.broadcast_to(
                (qo + np.arange(1, w + 1, dtype=np.int64) * ge)
                .astype(dtype)[:, None],
                (w, L),
            ).copy()
            wexit = dtype(w * ge)
            shifts = []
            s = 1
            while s < w:
                shifts.append(s)
                s <<= 1
            # ha/hb hold [H[i-1, u0-1], H[i-1, u0..u1-1]] so both the
            # diagonal (hp[:-1]) and the up-neighbour (hp[1:]) are views.
            ha = np.zeros((w + 1, L), dtype=dtype)
            hb = np.zeros((w + 1, L), dtype=dtype)
            fp = np.zeros((w, L), dtype=dtype)
            s1 = np.empty((w, L), dtype=dtype)
            t = np.empty((w, L), dtype=dtype)
            t2 = np.empty((w, L), dtype=dtype)
            colmax = np.zeros((w, L), dtype=dtype)

            for i in range(m):
                v = sp[qidx[i], u0:u1] if sp is not None else qp[i][codes_t]
                hp, hn = ha, hb
                # f = max(H_up - go, f_prev - ge, 0)  — zero-floored F
                np.subtract(fp, ge, out=fp)
                np.subtract(hp[1:], go, out=s1)
                np.maximum(fp, s1, out=fp)
                np.maximum(fp, 0, out=fp)
                # h~ = max(diag + v, f); f >= 0 supplies the zero floor
                np.add(hp[:-1], v, out=s1)
                np.maximum(s1, fp, out=s1)
                # E via rebased prefix scan: t[j] covers sources < u0+j.
                # The scan is a double-buffered log-shift (Hillis-Steele):
                # ``np.maximum.accumulate`` falls back to a scalar inner
                # loop, and in-place shifted maxima trigger numpy's
                # overlap buffering — two ping-pong buffers keep every
                # step a full-speed non-overlapping ufunc call.
                t[0] = carry[i] if multi else 0
                if w > 1:
                    np.add(s1[:-1], src_w, out=t[1:])
                for s in shifts:
                    np.maximum(t[s:], t[:-s], out=t2[s:])
                    t2[:s] = t[:s]
                    t, t2 = t2, t
                if multi:
                    # carry out of the tile, rebased to u1, zero-floored
                    np.add(s1[-1], wexit, out=crow)
                    np.maximum(crow, t[-1], out=crow)
                    np.subtract(crow, wexit, out=crow)
                    np.maximum(crow, 0, out=crow)
                    carry[i] = crow
                # H = max(h~, t - (qo + len*ge)), saturating if narrow
                h = hn[1:]
                np.subtract(t, ecost, out=h)
                np.maximum(h, s1, out=h)
                if clamp is not None:
                    np.minimum(h, clamp, out=h)
                np.maximum(colmax, h, out=colmax)
                if multi:
                    hn[0] = col_in[i + 1]
                    col_out[i + 1] = h[-1]
                ha, hb = hb, ha
            if not full:
                colmax = np.where(mask_t, colmax, 0)
            np.maximum(best, colmax.max(axis=0), out=best)
            if multi:
                col_in, col_out = col_out, col_in
        return best

    # ------------------------------------------------------------------
    # single-pair path
    # ------------------------------------------------------------------
    def _score_pair_codes(
        self, query: np.ndarray, db: np.ndarray, matrix, gaps
    ) -> AlignmentResult:
        group = build_lane_groups([db], lanes=1)[0]
        prep = self._prepare(query, matrix)
        scores, sat = self._score_group_raw(query, group, gaps, prep)
        if sat:
            self._redo_wide(query, group, gaps, prep, sat, scores)
        return AlignmentResult(score=int(scores[0]), cells=len(query) * len(db))


def make_intertask_engine(
    kernel: str,
    *,
    alphabet: Alphabet | None = None,
    lanes: int | None = None,
    profile: ProfileKind | str = ProfileKind.SEQUENCE,
    block_cols: int | None = None,
    saturate_bits: int | None = None,
) -> AlignmentEngine:
    """Construct the lane-parallel engine backing a kernel name.

    ``"python"`` is the instruction-faithful SIMD emulation
    (:class:`InterTaskEngine`); ``"numpy"`` the array-vectorised kernel
    (:class:`VectorizedEngine`).  ``lanes=None`` picks the kernel's
    default width from :data:`DEFAULT_LANES`.
    """
    if kernel not in KERNEL_NAMES:
        raise EngineError(
            f"unknown kernel {kernel!r}; available: {sorted(KERNEL_NAMES)}"
        )
    if lanes is None:
        lanes = DEFAULT_LANES[kernel]
    cls = InterTaskEngine if kernel == "python" else VectorizedEngine
    return cls(
        alphabet=alphabet,
        lanes=lanes,
        profile=profile,
        block_cols=block_cols,
        saturate_bits=saturate_bits,
    )
