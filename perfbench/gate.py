"""Correctness gate: every returned hit list is checked against an oracle.

The oracle is the ``python``-kernel exhaustive search (the instruction-
faithful SIMD emulation), run once per workload outside the timed region.
It yields the full per-sequence score vector; the expected ranking is a
stable descending sort of it, which is the documented tie order of every
search path (equal scores rank by database position).

Two checks:

* :func:`check_exact` — a search, exhaustive or tiered, must return
  exactly the oracle's top-k: same indices, same scores, same order.  A
  tiered search that misses one of the top-k fails; :func:`recall`
  measures how much of the top-k it did return.
* :func:`check_alignment` — a traceback must be a real local alignment of
  the query and the hit sequence whose rescored value equals the score.

:func:`self_test` perturbs a correct hit list in every way the gate must
notice and fails if any perturbation passes.
"""

from __future__ import annotations

import numpy as np

GAP = "-"


def expected_top(scores: np.ndarray, k: int) -> list[tuple[int, int]]:
    """The oracle's ``(index, score)`` top-k in tie order."""
    ranked = np.argsort(-np.asarray(scores), kind="stable")[:k]
    return [(int(i), int(scores[i])) for i in ranked]


def hit_pairs(hits) -> list[tuple[int, int]]:
    return [(int(h.index), int(h.score)) for h in hits]


def check_exact(hits, scores: np.ndarray, k: int) -> str | None:
    """``None`` when ``hits`` is exactly the oracle top-k, else why not."""
    got = hit_pairs(hits)
    want = expected_top(scores, k)
    if got != want:
        for rank, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return f"rank {rank}: got (index, score) {g}, oracle {w}"
        return f"got {len(got)} hits, oracle has {len(want)}"
    return None


def recall(hits, scores: np.ndarray, k: int) -> float:
    """Share of the oracle's top-k that ``hits`` returned."""
    want = {i for i, _ in expected_top(scores, k)}
    return len(want & {int(h.index) for h in hits}) / len(want)


def rescore_alignment(aligned_q: str, aligned_d: str, matrix, gaps) -> int:
    """Affine-gap score of an alignment given as two gapped strings."""
    letters = matrix.alphabet.letters
    code = {c: n for n, c in enumerate(letters)}
    total = 0
    run = None  # which side the current gap run is in: "q", "d" or None
    for a, b in zip(aligned_q, aligned_d):
        if a == GAP and b == GAP:
            raise ValueError("column gapped on both sides")
        if a == GAP or b == GAP:
            side = "q" if a == GAP else "d"
            total -= gaps.extend if run == side else gaps.first_gap_cost
            run = side
        else:
            total += int(matrix.data[code[a], code[b]])
            run = None
    return total


def check_alignment(hit, query: str, db_seq: str, matrix, gaps) -> str | None:
    """The hit's traceback is a valid local alignment scoring ``hit.score``."""
    a = hit.alignment
    if a is None:
        return "traceback requested but no alignment returned"
    if a.score != hit.score:
        return f"alignment score {a.score} != hit score {hit.score}"
    if a.aligned_query.replace(GAP, "") != query[a.start_query - 1:a.end_query]:
        return "aligned query residues do not match the query segment"
    if a.aligned_db.replace(GAP, "") != db_seq[a.start_db - 1:a.end_db]:
        return "aligned database residues do not match the hit segment"
    try:
        rescored = rescore_alignment(a.aligned_query, a.aligned_db, matrix, gaps)
    except (KeyError, ValueError) as exc:
        return f"alignment does not rescore: {exc}"
    if rescored != hit.score:
        return f"alignment rescores to {rescored}, hit score {hit.score}"
    return None


class _Hit:
    """Minimal hit record for the self-test (index, score, alignment)."""

    def __init__(self, index, score, alignment=None):
        self.index, self.score, self.alignment = index, score, alignment


class _Alignment:
    def __init__(self, score, aq, ad, sq, eq, sd, ed):
        self.score, self.aligned_query, self.aligned_db = score, aq, ad
        self.start_query, self.end_query = sq, eq
        self.start_db, self.end_db = sd, ed


def self_test(matrix, gaps) -> list[str]:
    """Perturbed outputs the gate must reject; returns the ones it missed."""
    # Ties at 30 (indices 1, 4) and 12 (indices 0, 5) exercise tie order.
    scores = np.array([12, 30, 7, 41, 30, 12, 3, 25])
    good = [_Hit(i, s) for i, s in expected_top(scores, 6)]
    missed = []
    if check_exact(good, scores, 6):
        missed.append("the correct hit list was rejected")

    def swapped(a, b):
        out = list(good)
        out[a], out[b] = out[b], out[a]
        return out

    perturbed = {
        "score changed by one": (
            [good[0], _Hit(good[1].index, good[1].score + 1)] + good[2:]),
        "tie order reversed": swapped(1, 2),
        "ranks swapped": swapped(0, 3),
        "wrong index": [_Hit(6, good[0].score)] + good[1:],
        "hit dropped": good[:-1],
        "hit duplicated": good[:-1] + [good[0]],
    }
    for name, hits in perturbed.items():
        if check_exact(hits, scores, 6) is None:
            missed.append(f"gate passed: {name}")

    # Alignment of "WCHKM" inside "GGWCH-KMGG": one gap in the query.
    query, db_seq = "AAWCHKMAA", "GGWCHRKMGG"
    aq, ad = "WCH-KM", "WCHRKM"
    score = rescore_alignment(aq, ad, matrix, gaps)

    def aligned(**changes):
        fields = dict(score=score, aq=aq, ad=ad, sq=3, eq=7, sd=3, ed=8)
        fields.update(changes)
        return _Hit(0, fields["score"], _Alignment(**fields))

    if check_alignment(aligned(), query, db_seq, matrix, gaps):
        missed.append("the correct alignment was rejected")
    bad_alignments = {
        "alignment score off by one": aligned(score=score + 1),
        "residue changed": aligned(ad="WCHRKW"),
        "coordinates shifted": aligned(sq=2, eq=6),
        "gap moved": aligned(aq="WC-HKM"),
    }
    for name, hit in bad_alignments.items():
        if check_alignment(hit, query, db_seq, matrix, gaps) is None:
            missed.append(f"alignment gate passed: {name}")
    return missed
