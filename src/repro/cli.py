"""Command-line interface: ``repro-sw`` / ``python -m repro``.

Subcommands
-----------
``search``
    Run a Smith-Waterman database search (Algorithm 1) against a FASTA
    file or a synthetic Swiss-Prot sample and print the ranked hits.
    With ``--server URL`` the query goes to a running ``repro serve``
    instance instead and the hits come back bit-identical.
``serve``
    Serve a database over HTTP (:mod:`repro.serve`): versioned JSON
    wire protocol, admission control, typed errors.
``batch``
    Serve many queries through :class:`repro.SearchService` — shared
    pre-processing cache, selectable scheduler (``local``/``static``/
    ``queue``), dynamic-vs-static makespan comparison.
``stream``
    Out-of-core streaming search over a FASTA file: only one chunk (or
    bounded shard, with ``--workers``) is resident at a time, so the
    database never needs to fit in memory.
``align``
    Align two sequences (local / global / semi-global) with traceback.
``trace``
    Run a traced batch and export the span tree as Chrome trace-event
    JSON (loadable in Perfetto / ``chrome://tracing``) and/or JSONL.
``blast``
    Run the seed-and-extend heuristic search and report its work savings.
``model``
    Print the modelled GCUPS grid for the paper's devices and variants.
``hybrid``
    Sweep the host/coprocessor split (Figure 8) and report the optimum.
``bench``
    Run the curated perf suite (:mod:`repro.bench`), write a dated
    ``BENCH_<date>.json`` trajectory snapshot, and optionally gate on
    regressions against a baseline snapshot (``--compare``).
``validate``
    Re-derive every number the paper reports and check it reproduces.
``report``
    Generate the live paper-vs-measured reproduction report (markdown).
``info``
    List bundled matrices, engines and device specifications.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
from typing import Any

from . import __version__
from .bench import _NO_COMPARE as _BENCH_NO_COMPARE
from .core import DEFAULT_LANES
from .exceptions import ReproError
from .search import SearchOptions, SearchRequest
from .search.sharded import DEFAULT_SHARD_RESIDUES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser.

    Flags several subcommands share with one meaning are declared once,
    in a parent parser: ``scoring`` (matrix and gaps), ``search``
    (scoring plus lanes, kernel and mode: what :func:`options_from_args`
    reads), ``database``, ``profile``, ``metrics`` and ``scheduler``.
    ``--top``, ``--workers``, ``--query`` and ``--fault-plan`` stay per
    subcommand: their defaults or help differ.
    """
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--matrix", default="BLOSUM62")
    scoring.add_argument("--gap-open", type=int, default=10)
    scoring.add_argument("--gap-extend", type=int, default=2)

    search = argparse.ArgumentParser(add_help=False, parents=[scoring])
    search.add_argument(
        "--lanes", type=int, default=None,
        help="maximum lane-group width (default: the kernel's width, "
             f"python {DEFAULT_LANES['python']} / numpy "
             f"{DEFAULT_LANES['numpy']}; each device's native width "
             "under the static and queue schedulers)",
    )
    search.add_argument("--kernel", choices=("python", "numpy"), default=None,
                        help="inter-task scoring kernel (default: "
                             "$REPRO_KERNEL or python; scores are identical)")
    search.add_argument("--mode", choices=("exact", "sensitive", "fast"),
                        default="exact",
                        help="search tier: exact = exhaustive SW; "
                             "sensitive/fast = seed + banded verify, exact "
                             "SW only on survivors (returned scores stay "
                             "bit-identical; distant hits may be missed)")

    database = argparse.ArgumentParser(add_help=False)
    database.add_argument("--db-fasta", help="database FASTA file")
    database.add_argument(
        "--synthetic-scale", type=float, default=None,
        help="use a synthetic Swiss-Prot at this scale (e.g. 0.0005)",
    )

    profile = argparse.ArgumentParser(add_help=False)
    profile.add_argument("--profile", choices=("query", "sequence"),
                         default="sequence")

    metrics = argparse.ArgumentParser(add_help=False)
    metrics.add_argument("--metrics", action="store_true",
                         help="print the command's metrics (counters, "
                              "gauges, latency percentiles) from an "
                              "isolated registry")

    scheduler = argparse.ArgumentParser(add_help=False)
    scheduler.add_argument("--scheduler", choices=("local", "static", "queue"),
                           default="local",
                           help="local pipeline, static host/device split, "
                                "or the dynamic work queue (--mode "
                                "sensitive/fast need the local scheduler)")
    scheduler.add_argument("--chunks", type=int, default=24,
                           help="work-queue granularity (queue scheduler)")
    scheduler.add_argument("--static-fraction", type=float, default=0.55,
                           help="device share of the static reference split")

    p = argparse.ArgumentParser(
        prog="repro-sw",
        description="Smith-Waterman on heterogeneous systems (CLUSTER'14 reproduction)",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("search", help="run a database search",
                       parents=[search, database, profile, metrics])
    s.add_argument("--query", help="query sequence (residue letters)")
    s.add_argument("--query-fasta", help="FASTA file; first record is the query")
    s.add_argument("--top", type=int, default=10)
    s.add_argument("--traceback", action="store_true",
                   help="print alignments for the top hits")
    s.add_argument("--evalues", action="store_true",
                   help="report E-values and bit scores for the hits")
    s.add_argument("--tsv", action="store_true",
                   help="print hits as tab-separated values (outfmt-6 style)")
    s.add_argument("--fault-plan", metavar="SPEC",
                   help='inject faults, e.g. "seed=7,corrupt=0.2" '
                        "(scores stay exact via the checksum guard)")
    s.add_argument("--workers", type=int, default=1,
                   help="score on a pool of real worker processes "
                        "(scores identical to --workers 1)")
    s.add_argument("--server", metavar="URL",
                   help="query a running 'repro serve' instance instead "
                        "of searching locally (hits are bit-identical); "
                        "the scoring flags above are sent for "
                        "verification and a mismatch is rejected")

    sv = sub.add_parser(
        "serve",
        help="serve a database over HTTP (the repro.serve wire protocol)",
        description="Serve a database over HTTP. Every client gets the "
                    "--mode and scoring flags given here; clients sending "
                    "options must match them.",
        parents=[search, database, profile],
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=0,
                    help="bind port (0 = ephemeral; the bound URL is "
                         "printed on startup)")
    sv.add_argument("--top", type=int, default=10)
    sv.add_argument("--max-inflight", type=int, default=None,
                    help="admission cap: concurrent requests admitted "
                         "before shedding with HTTP 429 (0 sheds "
                         "everything — a load-shed drill)")
    sv.add_argument("--max-requests", type=int, default=None,
                    help="shut down cleanly after this many API requests "
                         "(CI smoke; default: serve forever)")
    sv.add_argument("--workers", type=int, default=1,
                    help="score on a pool of real worker processes")

    bt = sub.add_parser("batch", help="serve a batch of queries",
                        parents=[search, database, scheduler, metrics])
    bt.add_argument("--queries", type=int, default=4,
                    help="number of paper benchmark queries to serve")
    bt.add_argument("--query-fasta",
                    help="FASTA file; every record becomes a request")
    bt.add_argument("--top", type=int, default=5)
    bt.add_argument("--workers", type=int, default=1,
                    help="drain the batch on a pool of real worker "
                         "processes (local and queue schedulers)")

    st = sub.add_parser(
        "stream",
        help="out-of-core streaming search (database never fully loaded)",
        parents=[search, metrics],
    )
    st.add_argument("--query", help="query sequence (residue letters)")
    st.add_argument("--query-fasta",
                    help="FASTA file; first record is the query")
    st.add_argument("--db-fasta", required=True,
                    help="database FASTA file to stream")
    st.add_argument("--chunk-size", type=int, default=SearchOptions.chunk_size,
                    help="records scored per batch")
    st.add_argument("--top", type=int, default=10,
                    help="ranked hits kept (0 = scores only)")
    st.add_argument("--workers", type=int, default=1,
                    help="score shards on a pool of real worker processes "
                         "(results identical to --workers 1)")
    st.add_argument("--shard-residues", type=int,
                    default=DEFAULT_SHARD_RESIDUES,
                    help="max residues resident per shard (--workers > 1)")
    st.add_argument("--shard-records", type=int, default=None,
                    help="max records resident per shard (--workers > 1)")
    st.add_argument("--fault-plan", metavar="SPEC",
                    help='inject faults, e.g. "seed=7,corrupt=0.2" or '
                         '"seed=7,worker-kill=0.1" (scores stay exact: '
                         "checksums catch corruption, the pool self-heals)")
    st.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                    help="wall-clock budget for the whole scan; on expiry "
                         "the merged prefix is reported and the exit "
                         "status is 1")
    st.add_argument("--journal", metavar="PATH",
                    help="journal per-shard merge state here so an "
                         "interrupted scan can be resumed (--workers > 1)")
    st.add_argument("--resume", action="store_true",
                    help="resume a journalled scan instead of restarting")
    st.add_argument("--chunk-timeout", type=float, default=None,
                    help="seconds before an unresponsive worker chunk is "
                         "declared hung and the pool is healed")

    t = sub.add_parser(
        "trace",
        help="run a traced batch and export the span tree",
        parents=[search, database, scheduler, metrics],
    )
    t.add_argument("--query", help="query sequence (residue letters)")
    t.add_argument("--query-fasta",
                   help="FASTA file; every record becomes a request")
    t.add_argument("--queries", type=int, default=1,
                   help="number of paper benchmark queries to serve "
                        "(when no explicit query is given)")
    t.add_argument("--top", type=int, default=5)
    t.add_argument("--output", default="trace.json",
                   help="Chrome trace-event JSON output path "
                        "(open in Perfetto / chrome://tracing)")
    t.add_argument("--jsonl", metavar="PATH",
                   help="also write the flat JSONL span log here")
    t.add_argument("--tree", action="store_true",
                   help="print the span tree to stdout")

    a = sub.add_parser("align", help="align two sequences with traceback",
                       parents=[scoring])
    a.add_argument("sequence_a", help="query residue letters")
    a.add_argument("sequence_b", help="target residue letters")
    a.add_argument("--mode", choices=("local", "global", "semiglobal"),
                   default="local")

    b = sub.add_parser("blast", help="seed-and-extend heuristic search",
                       parents=[database])
    b.add_argument("--query", required=True)
    b.add_argument("--word-size", type=int, default=3)
    b.add_argument("--threshold", type=int, default=11)
    b.add_argument("--top", type=int, default=10)

    m = sub.add_parser("model", help="modelled GCUPS for the paper's variant grid")
    m.add_argument("--query-length", type=int, default=5478)
    m.add_argument("--scale", type=float, default=1.0,
                   help="database scale for the length distribution")

    h = sub.add_parser("hybrid", help="Figure 8 hybrid split sweep")
    h.add_argument("--query-length", type=int, default=5478)
    h.add_argument("--step", type=float, default=0.05)
    h.add_argument("--fault-plan", metavar="SPEC",
                   help="run the best split under injected faults, e.g. "
                        '"seed=7,fail=0.15,outage=12"')
    h.add_argument("--retries", type=int, default=3,
                   help="retries per device chunk before host reclaim")
    h.add_argument("--device-timeout", type=float, default=None,
                   help="per-chunk watchdog deadline in virtual seconds")
    h.add_argument("--chunks", type=int, default=8,
                   help="device-share chunks under a fault plan")

    bn = sub.add_parser(
        "bench",
        help="run the curated perf suite and gate on regressions",
    )
    bn.add_argument("--quick", action="store_true",
                    help="shrunken workloads for CI-smoke time; snapshots "
                         "record their mode and only compare like-for-like")
    bn.add_argument("--dir", default="bench_history",
                    help="snapshot directory (default: bench_history/); "
                         "new snapshots land here and --compare without a "
                         "baseline picks the latest one in it")
    bn.add_argument("--out", metavar="PATH", default=None,
                    help="explicit snapshot output path (default: "
                         "<dir>/BENCH_<date>.json)")
    bn.add_argument("--tags", nargs="+", metavar="TAG", default=None,
                    help="run only bench cases carrying any of these tags "
                         "(engine, parallel, memory, sharded, serve)")
    bn.add_argument("--compare", nargs="?", metavar="BASELINE",
                    default=_BENCH_NO_COMPARE,
                    help="gate against BASELINE (or, with no value, the "
                         "latest snapshot in --dir); exit 1 on any metric "
                         "regressing beyond its tolerance")
    bn.add_argument("--candidate", metavar="PATH", default=None,
                    help="compare this existing snapshot instead of "
                         "running the suite")
    bn.add_argument("--benchmarks-dir", metavar="DIR", default=None,
                    help="where the benchmark scripts live (default: "
                         "./benchmarks, falling back to the source tree)")

    v = sub.add_parser("validate",
                       help="check every paper target against the model")

    r = sub.add_parser("report", help="generate the reproduction report")
    r.add_argument("--output", help="write markdown to this file")
    r.add_argument("--query-length", type=int, default=5478)

    sub.add_parser("info", help="list engines, matrices and devices")
    return p


class _UsageError(Exception):
    """A missing input or bad flag combination: exit status 2."""


def _check_usage(args: argparse.Namespace) -> None:
    """Reject the flag combinations no handler can run (exit status 2)."""
    if getattr(args, "server", None):
        unsupported = [
            (args.fault_plan, "--fault-plan (fault injection is server-side)"),
            (args.workers > 1, "--workers (scoring happens on the server)"),
            (args.db_fasta or args.synthetic_scale,
             "--db-fasta/--synthetic-scale (the server owns its database)"),
            (args.evalues, "--evalues (needs the full score distribution, "
                           "which stays server-side)"),
            (args.tsv, "--tsv"),
        ]
        for flagged, what in unsupported:
            if flagged:
                raise _UsageError(f"{what} cannot be combined with --server")
        return
    if getattr(args, "workers", 1) < 1:
        raise _UsageError("--workers must be positive")
    tiered = getattr(args, "mode", "exact") != "exact"
    if getattr(args, "fault_plan", None) and tiered:
        raise _UsageError("--fault-plan needs --mode exact (faults target "
                          "the lane groups the tiered path never forms)")
    if args.command == "batch" and args.workers > 1 and args.scheduler == "static":
        raise _UsageError("--workers needs the local or queue scheduler "
                          "(the static split is purely modelled)")
    if args.command == "stream":
        if args.resume and not args.journal:
            raise _UsageError("--resume needs --journal")
        if (args.journal or args.resume) and args.workers == 1:
            raise _UsageError("--journal/--resume need --workers > 1 (only "
                              "the sharded scan journals its merge state)")
        if args.deadline is not None and args.deadline <= 0:
            raise _UsageError("--deadline must be positive")


def options_from_args(args: argparse.Namespace, **extra: Any) -> SearchOptions:
    """The :class:`SearchOptions` the search and scoring flags describe.

    ``extra`` carries the fields only some subcommands set (``profile``,
    ``chunk_size``, ``injector``, ``deadline``).  ``lanes`` stays ``None``
    unless ``--lanes`` is given, so the chosen kernel picks its width.
    """
    from .scoring import GapModel, get_matrix

    return SearchOptions(
        matrix=get_matrix(args.matrix),
        gaps=GapModel(args.gap_open, args.gap_extend),
        lanes=args.lanes,
        kernel=args.kernel,
        mode=args.mode,
        top_k=args.top,
        **extra,
    )


def _load_database(args: argparse.Namespace):
    """The database ``--db-fasta`` or ``--synthetic-scale`` names."""
    from .db import SequenceDatabase, SyntheticSwissProt

    if args.db_fasta:
        return SequenceDatabase.from_fasta(args.db_fasta)
    if args.synthetic_scale:
        return SyntheticSwissProt().generate(scale=args.synthetic_scale)
    raise _UsageError("provide --db-fasta or --synthetic-scale")


def _load_requests(
    args: argparse.Namespace, *, first_only: bool = False
) -> list[SearchRequest]:
    """The queries ``--query`` / ``--query-fasta`` name, as requests.

    Without either, subcommands that take ``--queries`` serve that many
    of the paper's benchmark queries.  ``first_only`` reads just the
    first FASTA record (single-query subcommands).
    """
    from .db import PAPER_QUERIES, make_query_set, read_fasta

    if getattr(args, "query", None):
        return [SearchRequest(query=args.query, name="cmdline-query")]
    if args.query_fasta:
        records = read_fasta(args.query_fasta)
        records = itertools.islice(records, 1 if first_only else None)
        requests = [
            SearchRequest(query=rec.sequence, name=rec.accession)
            for rec in records
        ]
    elif hasattr(args, "queries"):
        specs = PAPER_QUERIES[: max(args.queries, 1)]
        queries = make_query_set(specs)
        requests = [
            SearchRequest(query=queries[s.accession], name=s.accession)
            for s in specs
        ]
    else:
        raise _UsageError("provide --query or --query-fasta")
    if not requests:
        raise _UsageError("no queries to serve")
    return requests


def _fault_injector(args: argparse.Namespace):
    """The injector ``--fault-plan`` asks for, or ``None``."""
    if not args.fault_plan:
        return None
    from .faults import FaultInjector, FaultPlan

    return FaultInjector(FaultPlan.parse(args.fault_plan))


def _metrics_registry(args: argparse.Namespace):
    """An isolated registry when ``--metrics`` is given, else ``None``.

    Every layer the command drives reports here, never into the global
    ``METRICS``, so what gets printed is exactly this command's work.
    """
    if not args.metrics:
        return None
    from .metrics import MetricsRegistry

    return MetricsRegistry()


def _print_metrics(registry) -> None:
    if registry is not None:
        print("\nmetrics:")
        print(registry.render())


def _print_alignments(result, top: int) -> None:
    for hit in result.top(top):
        if hit.alignment and hit.alignment.score > 0:
            print(f"\n>{hit.header}")
            print(hit.alignment.pretty())


def _cmd_search(args: argparse.Namespace) -> int:
    from .search import SearchPipeline

    request = _load_requests(args, first_only=True)[0]
    if args.server:
        return _search_remote(args, request)
    db = _load_database(args)
    injector = _fault_injector(args)
    registry = _metrics_registry(args)
    pipeline = SearchPipeline(
        options_from_args(args, profile=args.profile, injector=injector),
        metrics=registry, workers=args.workers,
    )
    try:
        result = pipeline.search(
            request.query, db, query_name=request.name,
            traceback=args.traceback,
        )
    finally:
        pipeline.close()
    if args.tsv:
        print(result.to_tsv())
        return 0
    print(result.summary())
    if injector is not None:
        print(
            f"fault injection: {result.corrupted_redone} corrupted group "
            "transmissions detected by checksum and recomputed; "
            "scores are exact"
        )
    if args.evalues:
        from .metrics import format_table
        from .search.stats import attach_statistics

        stats = attach_statistics(result)
        print()
        print(format_table(
            ["hit", "score", "bits", "E-value"],
            [
                (h.accession, h.score, round(bits, 1), f"{e:.2e}")
                for h, e, bits in stats
            ],
            title="hit statistics (Gumbel fit from the score distribution)",
        ))
    if args.traceback:
        _print_alignments(result, args.top)
    _print_metrics(registry)
    return 0


def _search_remote(args: argparse.Namespace, request: SearchRequest) -> int:
    """The ``search --server URL`` path: same flags, remote execution."""
    from .serve import SearchClient

    client = SearchClient(
        args.server, options=options_from_args(args, profile=args.profile)
    )
    result = client.search(
        dataclasses.replace(request, traceback=args.traceback)
    )
    print(result.summary())
    if args.traceback:
        _print_alignments(result, args.top)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .serve import SearchServer

    db = _load_database(args)
    server = SearchServer(
        db,
        options_from_args(args, profile=args.profile),
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_requests=args.max_requests,
        workers=args.workers if args.workers > 1 else None,
    )
    # SIGTERM (docker stop, CI kill) shuts down as cleanly as Ctrl-C.
    def _graceful(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _graceful)
    try:
        server._bind()
        limits = []
        if args.max_inflight is not None:
            limits.append(f"max_inflight={args.max_inflight}")
        if args.max_requests is not None:
            limits.append(f"max_requests={args.max_requests}")
        print(
            f"serving {db.name} ({len(db)} sequences) at {server.url}"
            + (f" [{', '.join(limits)}]" if limits else ""),
            flush=True,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.close()
    print("server stopped")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from .service import SearchService

    db = _load_database(args)
    requests = _load_requests(args)
    registry = _metrics_registry(args)
    service = SearchService(
        options_from_args(args),
        scheduler=args.scheduler,
        workers=args.workers if args.workers > 1 else None,
        chunks=args.chunks,
        static_fraction=args.static_fraction,
        **({} if registry is None else {"metrics": registry}),
    )
    try:
        batch = service.run(requests, db)
    finally:
        service.close()
    print(
        f"served {len(batch)} queries against {db.name} "
        f"({len(db)} sequences) with the {batch.scheduler!r} scheduler:"
    )
    print(batch.summary())
    if args.scheduler == "local":
        cs = batch.cache_stats
        print(
            f"preprocess cache: {cs['hits']} hits / "
            f"{cs['hits'] + cs['misses']} lookups "
            f"(hit rate {cs['hit_rate']:.0%})"
        )
    elif args.scheduler == "queue":
        dyn = sum(o.modeled_makespan for o in batch.outcomes)
        static = sum(o.static_modeled_makespan for o in batch.outcomes)
        print(
            f"modelled makespan: dynamic queue {dyn:.3f}s vs static split "
            f"at {args.static_fraction:.0%} {static:.3f}s "
            f"({static / dyn:.2f}x)" if dyn > 0 else
            "modelled makespan: degenerate (zero-cost workload)"
        )
    _print_metrics(registry)
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .faults import Deadline
    from .search import PartialResult, StreamingSearch

    request = _load_requests(args, first_only=True)[0]
    injector = _fault_injector(args)
    registry = _metrics_registry(args)
    search = StreamingSearch(
        options_from_args(
            args, chunk_size=args.chunk_size, injector=injector,
            deadline=(Deadline.after(args.deadline)
                      if args.deadline is not None else None),
        ),
        metrics=registry,
        workers=args.workers,
        shard_residues=args.shard_residues,
        shard_records=args.shard_records,
        journal=args.journal,
        resume=args.resume,
        chunk_timeout=args.chunk_timeout,
    )
    try:
        result = search.search_fasta(
            request.query, args.db_fasta, query_name=request.name
        )
    finally:
        search.close()
    print(result.summary())
    if injector is not None:
        print(
            f"fault injection: {result.corrupted_redone} corrupted chunk "
            "transmissions detected by checksum and recomputed; "
            "scores are exact"
        )
    _print_metrics(registry)
    if isinstance(result, PartialResult):
        frac = result.completion()
        pct = f" ({frac:.0%} of the scan)" if frac is not None else ""
        where = (
            f"; resume with --journal {args.journal} --resume"
            if args.journal else ""
        )
        print(
            f"error: deadline expired after {result.sequences_scanned} "
            f"sequences{pct}{where}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .metrics import MetricsRegistry
    from .obs import Tracer, write_chrome_trace, write_jsonl
    from .service import SearchService

    db = _load_database(args)
    requests = _load_requests(args)
    tracer = Tracer()
    registry = MetricsRegistry()
    service = SearchService(
        options_from_args(args),
        scheduler=args.scheduler,
        chunks=args.chunks,
        static_fraction=args.static_fraction,
        metrics=registry,
        tracer=tracer,
    )
    batch = service.run(requests, db)

    trace = write_chrome_trace(
        tracer.collector, args.output,
        metadata={
            "database": db.name,
            "sequences": len(db),
            "scheduler": args.scheduler,
            "queries": [r.name for r in requests],
        },
    )
    print(
        f"traced {len(batch)} request(s) against {db.name} "
        f"({len(db)} sequences, {args.scheduler!r} scheduler): "
        f"{len(tracer.collector)} spans"
    )
    print(
        f"wrote {len(trace['traceEvents'])} trace events to {args.output} "
        "(open in https://ui.perfetto.dev or chrome://tracing)"
    )
    if args.jsonl:
        count = write_jsonl(tracer.collector, args.jsonl)
        print(f"wrote {count} span records to {args.jsonl}")
    if args.tree:
        print("\nspan tree:")
        print(tracer.collector.render_tree())
    _print_metrics(registry if args.metrics else None)
    return 0


def _cmd_align(args: argparse.Namespace) -> int:
    from .core import align_pair
    from .core.global_align import global_align, semiglobal_align
    from .scoring import GapModel, get_matrix

    matrix = get_matrix(args.matrix)
    gaps = GapModel(args.gap_open, args.gap_extend)
    mode = {
        "local": align_pair,
        "global": global_align,
        "semiglobal": semiglobal_align,
    }[args.mode]
    tb = mode(args.sequence_a, args.sequence_b, matrix, gaps)
    print(f"{args.mode} alignment ({matrix.name}, gaps "
          f"{args.gap_open}/{args.gap_extend}):")
    if tb.length:
        print(tb.pretty())
        print(f"CIGAR: {tb.cigar()}")
    else:
        print("no alignment with positive score")
    return 0


def _cmd_blast(args: argparse.Namespace) -> int:
    from .heuristic import MiniBlast

    db = _load_database(args)
    result = MiniBlast(k=args.word_size, threshold=args.threshold).search(
        args.query, db
    )
    print(
        f"heuristic search of {len(db)} sequences: "
        f"{result.seeds_found} seeds, {result.gapped_extensions} gapped "
        f"refinements, {result.cell_savings:.1%} of exact-SW work skipped"
    )
    for rank, hit in enumerate(result.top(args.top), start=1):
        print(f"  #{rank:<2d} score {hit.score:>6d}  {hit.header.split()[0]} "
              f"q[{hit.qstart}-{hit.qend}] d[{hit.dstart}-{hit.dend}]")
    if not result.hits:
        print("  no hits above the seeding threshold")
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    from .db import SyntheticSwissProt
    from .devices import XEON_E5_2670_DUAL, XEON_PHI_57XX
    from .metrics import format_table
    from .perfmodel import DevicePerformanceModel, RunConfig, Workload

    lengths = SyntheticSwissProt().lengths(scale=args.scale)
    rows = []
    for spec in (XEON_E5_2670_DUAL, XEON_PHI_57XX):
        model = DevicePerformanceModel(spec)
        wl = Workload.from_lengths(lengths, spec.lanes32)
        for vec in ("novec", "simd", "intrinsic"):
            profiles = ("sequence",) if vec == "novec" else ("query", "sequence")
            for prof in profiles:
                cfg = RunConfig(vectorization=vec, profile=prof)
                rows.append(
                    (spec.name, cfg.label,
                     model.gcups(wl, args.query_length, cfg))
                )
    print(format_table(
        ["device", "variant", "GCUPS"], rows,
        title=f"modelled GCUPS (query length {args.query_length})",
    ))
    return 0


def _cmd_hybrid(args: argparse.Namespace) -> int:
    from .db import SyntheticSwissProt
    from .devices import XEON_E5_2670_DUAL, XEON_PHI_57XX
    from .metrics import format_series
    from .perfmodel import DevicePerformanceModel
    from .runtime import HybridExecutor

    lengths = SyntheticSwissProt().lengths()
    ex = HybridExecutor(
        DevicePerformanceModel(XEON_E5_2670_DUAL),
        DevicePerformanceModel(XEON_PHI_57XX),
    )
    # Validate fault options up front — the sweep below takes a while
    # and a bad flag should fail before it, not after.
    injector = _fault_injector(args)
    retry = timeout = None
    if injector is not None:
        from .faults import RetryPolicy, Timeout

        retry = RetryPolicy(max_retries=args.retries)
        timeout = (
            Timeout(args.device_timeout)
            if args.device_timeout is not None else None
        )
    steps = int(round(1.0 / args.step))
    fractions = [round(k * args.step, 4) for k in range(steps + 1)]
    sweep = ex.sweep(lengths, args.query_length, fractions)
    print(format_series(
        {f: r.gcups for f, r in sweep.items()},
        x_label="phi-share", title="hybrid GCUPS vs workload distribution (Fig. 8)",
    ))
    best = max(sweep.values(), key=lambda r: r.gcups)
    print(f"\nbest split: {best.device_fraction:.0%} on the Phi -> "
          f"{best.gcups:.1f} GCUPS (paper: ~55% -> 62.6)")

    if injector is not None:
        from .runtime import ResilientHybridExecutor

        rex = ResilientHybridExecutor(
            ex.host, ex.device,
            injector=injector,
            retry=retry,
            timeout=timeout,
            chunks=args.chunks,
        )
        r = rex.run(lengths, args.query_length, best.device_fraction)
        outcomes: dict[str, int] = {}
        for rec in r.timeline:
            outcomes[rec.outcome] = outcomes.get(rec.outcome, 0) + 1
        print(f"\nresilient run at the best split under plan '{args.fault_plan}':")
        print(f"  mode: {r.mode} (degraded={r.degraded})")
        print(f"  achieved {r.gcups:.1f} GCUPS vs {r.baseline_gcups:.1f} "
              f"fault-free ({r.gcups_lost:.1f} lost to faults)")
        print(f"  chunks: {r.chunks} total, {r.chunks_reclaimed} reclaimed "
              f"by the host ({r.reclaimed_cells / 1e9:.2f} Gcells)")
        print("  attempts: " + ", ".join(
            f"{k}={v}" for k, v in sorted(outcomes.items())
        ))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import run_bench

    return run_bench(args)


def _cmd_validate(_: argparse.Namespace) -> int:
    from .metrics import format_table
    from .perfmodel import validate_against_paper

    record = validate_against_paper()
    rows = [
        (v["section"], v["description"], v["target"], v["measured"],
         "OK" if v["ok"] else "FAIL")
        for v in record.values()
    ]
    print(format_table(
        ["section", "experiment", "paper", "measured", "status"],
        rows,
        title="paper-target validation",
    ))
    failures = sum(1 for v in record.values() if not v["ok"])
    print(f"\n{len(record) - failures}/{len(record)} targets reproduced")
    return 0 if failures == 0 else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .metrics import generate_report

    text = generate_report(query_len=args.query_length)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_info(_: argparse.Namespace) -> int:
    from .core import available_engines
    from .devices import paper_devices
    from .scoring import available_matrices

    print("engines:   " + ", ".join(available_engines()))
    print("matrices:  " + ", ".join(available_matrices()))
    print("devices:")
    for short, spec in paper_devices().items():
        print(
            f"  {short:5s} {spec.name}: {spec.cores} cores x "
            f"{spec.threads_per_core} threads @ {spec.clock_ghz} GHz, "
            f"{spec.isa.register_bits}-bit SIMD"
            f"{' (gather)' if spec.isa.has_gather else ''}, "
            f"TDP {spec.tdp_watts:.0f} W"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        _check_usage(args)
        return globals()[f"_cmd_{args.command}"](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
