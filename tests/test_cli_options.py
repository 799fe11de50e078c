"""The CLI's option surface: one declaration per search flag, one builder.

``search``, ``serve``, ``batch``, ``stream`` and ``trace`` take the same
search flags with the same defaults, and ``--lanes`` defaults to ``None``
so the chosen kernel decides the group width.  The golden table pins the
:class:`~repro.search.SearchOptions` every build site produces for a few
argv lists.  It was recorded from the handlers before they shared
:func:`repro.cli.options_from_args`.  The one recorded difference is
``lanes``: ``search``, ``serve`` and ``stream`` pinned 8 when ``--lanes``
was absent.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import cli
from repro.alphabet import PROTEIN
from repro.cli import build_parser, main, options_from_args
from repro.core import DEFAULT_LANES
from repro.faults import FaultPlan
from repro.search import SearchPipeline

SEARCH_FLAGS = {
    "matrix": "BLOSUM62", "gap_open": 10, "gap_extend": 2,
    "lanes": None, "kernel": None, "mode": "exact",
}

MINIMAL_ARGV = {
    "search": ["search"],
    "serve": ["serve"],
    "batch": ["batch"],
    "stream": ["stream", "--db-fasta", "db.fasta"],
    "trace": ["trace"],
}


@pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
class TestSearchFlagSurface:
    def test_same_defaults(self, command):
        args = build_parser().parse_args(MINIMAL_ARGV[command])
        assert {k: getattr(args, k) for k in SEARCH_FLAGS} == SEARCH_FLAGS
        assert args.lanes is None

    def test_same_flags_accepted(self, command):
        args = build_parser().parse_args(MINIMAL_ARGV[command] + [
            "--matrix", "BLOSUM50", "--gap-open", "11", "--gap-extend", "1",
            "--lanes", "16", "--kernel", "numpy", "--mode", "fast",
        ])
        assert {k: getattr(args, k) for k in SEARCH_FLAGS} == {
            "matrix": "BLOSUM50", "gap_open": 11, "gap_extend": 1,
            "lanes": 16, "kernel": "numpy", "mode": "fast",
        }


def test_serve_numpy_runs_at_the_kernel_width():
    args = build_parser().parse_args(["serve", "--kernel", "numpy"])
    pipeline = SearchPipeline(options_from_args(args, profile=args.profile))
    assert pipeline.lanes == DEFAULT_LANES["numpy"]


#: The options a bare ``search`` built; each row lists what differs.
BASE = {
    "matrix": "BLOSUM62", "gaps": (10, 2), "lanes": None, "kernel": None,
    "profile": "sequence", "mode": "exact", "schedule": "dynamic",
    "threads": 4, "top_k": 10, "chunk_size": 512,
    "alphabet": PROTEIN.letters, "injector": None, "deadline": False,
}

DB = ["--synthetic-scale", "0.0001"]
SERVER = ["--server", "http://127.0.0.1:9"]
STREAM_DB = ["--db-fasta", "db.fasta"]

#: (argv, fields that differ from BASE as the pre-refactor handlers built
#: them).  ``lanes: 8`` marks a width pinned by the old default.
GOLDEN = {
    "search": (["search", "--query", "MKV", *DB], {"lanes": 8}),
    "search-flags": (
        ["search", "--query", "MKV", *DB, "--matrix", "BLOSUM50",
         "--gap-open", "11", "--gap-extend", "1", "--lanes", "16",
         "--kernel", "numpy", "--profile", "query", "--mode", "fast",
         "--top", "3"],
        {"matrix": "BLOSUM50", "gaps": (11, 1), "lanes": 16,
         "kernel": "numpy", "profile": "query", "mode": "fast", "top_k": 3},
    ),
    "search-faults": (
        ["search", "--query", "MKV", *DB, "--fault-plan", "seed=3,corrupt=0.2"],
        {"lanes": 8, "injector": {"seed": 3, "corrupt_rate": 0.2}},
    ),
    "search-server": (["search", "--query", "MKV", *SERVER], {"lanes": 8}),
    "search-server-flags": (
        ["search", "--query", "MKV", *SERVER, "--kernel", "numpy",
         "--mode", "sensitive", "--top", "4", "--lanes", "32",
         "--profile", "query"],
        {"lanes": 32, "kernel": "numpy", "profile": "query",
         "mode": "sensitive", "top_k": 4},
    ),
    "serve": (["serve", *DB], {"lanes": 8}),
    "serve-flags": (
        ["serve", *DB, "--kernel", "numpy", "--mode", "sensitive",
         "--top", "7", "--gap-open", "12"],
        {"gaps": (12, 2), "lanes": 8, "kernel": "numpy",
         "mode": "sensitive", "top_k": 7},
    ),
    "batch": (["batch", *DB], {"top_k": 5}),
    "batch-flags": (
        ["batch", *DB, "--lanes", "4", "--kernel", "numpy", "--mode", "fast",
         "--top", "2", "--matrix", "PAM250"],
        {"matrix": "PAM250", "lanes": 4, "kernel": "numpy", "mode": "fast",
         "top_k": 2},
    ),
    "stream": (["stream", "--query", "MKV", *STREAM_DB], {"lanes": 8}),
    "stream-flags": (
        ["stream", "--query", "MKV", *STREAM_DB, "--chunk-size", "64",
         "--lanes", "16", "--kernel", "numpy", "--top", "0",
         "--deadline", "5", "--fault-plan", "seed=1,corrupt=0.1"],
        {"lanes": 16, "kernel": "numpy", "top_k": 0, "chunk_size": 64,
         "injector": {"seed": 1, "corrupt_rate": 0.1}, "deadline": True},
    ),
    "trace": (["trace", *DB], {"top_k": 5}),
    "trace-flags": (
        ["trace", *DB, "--query", "MKV", "--matrix", "BLOSUM50",
         "--gap-open", "12", "--gap-extend", "3", "--top", "4"],
        {"matrix": "BLOSUM50", "gaps": (12, 3), "top_k": 4},
    ),
}


def _plan_overrides(plan: FaultPlan) -> dict:
    return {
        f.name: getattr(plan, f.name)
        for f in dataclasses.fields(plan)
        if getattr(plan, f.name) != f.default
    }


def _fields(opts) -> dict:
    return {
        "matrix": opts.matrix.name,
        "gaps": (opts.gaps.open, opts.gaps.extend),
        "lanes": opts.lanes,
        "kernel": opts.kernel,
        "profile": opts.profile,
        "mode": opts.mode,
        "schedule": getattr(opts.schedule, "value", opts.schedule),
        "threads": opts.threads,
        "top_k": opts.top_k,
        "chunk_size": opts.chunk_size,
        "alphabet": opts.alphabet.letters,
        "injector": (
            None if opts.injector is None
            else _plan_overrides(opts.injector.plan)
        ),
        "deadline": opts.deadline is not None,
    }


class _Built(Exception):
    """Stops a handler right after it built its options."""


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_options(case, monkeypatch):
    argv, overrides = GOLDEN[case]
    built = []

    def capture(args, **extra):
        built.append(options_from_args(args, **extra))
        raise _Built

    monkeypatch.setattr(cli, "options_from_args", capture)
    with pytest.raises(_Built):
        main(argv)
    assert len(built) == 1
    expected = {**BASE, **overrides}
    if "--lanes" not in argv:
        assert expected["lanes"] in (None, 8)
        expected["lanes"] = None
    assert _fields(built[0]) == expected
