"""The one ranking policy (Algorithm 1 step 4, Algorithm 2 merge).

Every search path ends the same way: score the candidates, then rank
them.  This module owns that decision so no path restates it:

* hits are ordered by ``(-score, index)`` — descending score, ties to
  the earlier database record;
* only scored candidates may appear as hits (the tiered path ranks its
  rescored finalists, never a placeholder score of a pruned sequence);
* ``top_k`` must be a non-negative count; ``0`` means scores-only
  accounting with no ranked hits.

:func:`rank_hits` ranks a resident score array; :class:`TopK` merges a
record stream in bounded memory and round-trips through the scan
journal's heap layout.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import PipelineError
from .result import Hit


def check_top_k(top_k: int) -> int:
    """Validate a hit count; returns it unchanged."""
    if top_k < 0:
        raise PipelineError(f"top_k must be non-negative, got {top_k}")
    return top_k


def _best_first(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` best scores; the stable sort sends ties to
    the earlier position, so callers keep positions in record order."""
    return np.argsort(-scores, kind="stable")[:k]


def rank_hits(scores, database, top_k: int, *, among=None) -> list[Hit]:
    """The best ``top_k`` hits of a score array over ``database``.

    ``scores`` is in database order.  ``among`` restricts the ranking to
    the given candidate indices (the sequences that were actually
    scored); by default every entry is a candidate.
    """
    scores = np.asarray(scores)
    indices = (
        np.arange(len(scores)) if among is None
        else np.sort(np.asarray(among, dtype=np.int64))
    )
    top = TopK(top_k)
    top.push(indices, scores[indices], database.headers, database.sequences)
    return top.ranked()


class TopK:
    """Bounded top-k merger for a record stream.

    Records arrive in stream order: each :meth:`push` carries strictly
    ascending indices, all after every earlier push.  :attr:`hits` holds
    the retained hits best first, so one stable sort of "retained, then
    new" keeps ``(-score, index)`` order, and the result does not depend
    on how the stream was cut into pushes.
    """

    def __init__(self, k: int) -> None:
        self.k = check_top_k(k)
        self.hits: list[Hit] = []
        self._last = -1

    def push(self, indices, scores, headers, sequences, *, base=0) -> None:
        """Offer scored records; a :class:`Hit` is built only if kept.

        ``indices`` and ``scores`` are parallel; record ``i`` has header
        ``headers[i - base]`` and sequence ``sequences[i - base]``.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return
        if indices[0] <= self._last or (np.diff(indices) <= 0).any():
            raise PipelineError("records must be pushed in stream order")
        self._last = int(indices[-1])
        held = len(self.hits)
        pool = np.concatenate([
            np.asarray([h.score for h in self.hits], dtype=np.int64),
            np.asarray(scores, dtype=np.int64),
        ])
        kept = []
        for p in _best_first(pool, self.k).tolist():
            if p < held:
                kept.append(self.hits[p])
                continue
            i = int(indices[p - held])
            kept.append(Hit(
                index=i, header=headers[i - base],
                length=len(sequences[i - base]), score=int(pool[p]),
            ))
        self.hits = kept

    def ranked(self) -> list[Hit]:
        """Retained hits, best first."""
        return list(self.hits)

    def pack(self) -> list:
        """The journal v2 heap: ``[score, -index, hit-dict]`` entries.

        Emitted weakest first, which is a valid min-heap on
        ``(score, -index)``.
        """
        return [
            [hit.score, -hit.index, {
                "index": hit.index, "header": hit.header,
                "length": hit.length, "score": hit.score,
            }]
            for hit in reversed(self.hits)
        ]

    @classmethod
    def load(cls, k: int, packed: list) -> "TopK":
        """A merger resumed from a journal heap (any valid heap order)."""
        top = cls(k)
        hits = sorted(
            (
                Hit(index=int(h["index"]), header=h["header"],
                    length=int(h["length"]), score=int(h["score"]))
                for _, _, h in packed
            ),
            key=lambda hit: hit.index,
        )
        scores = np.asarray([h.score for h in hits], dtype=np.int64)
        top.hits = [hits[p] for p in _best_first(scores, top.k).tolist()]
        top._last = hits[-1].index if hits else -1
        return top
