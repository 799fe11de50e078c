#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_sweep --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` makes a
separate traced run and prints every per-layer metric, and writes a
Chrome trace under ``.bench_work/``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines above it are
for people.  ``--self-test`` only checks that the correctness gate
rejects perturbed outputs.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=("paper_sweep", "tiered_homologs", "serve_mixed"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that the gate rejects perturbed outputs")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    return args


def listed_units(trace: bool) -> dict:
    """``BENCHMARK.json``'s metrics, name to unit, for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import gate
    from repro import BLOSUM62, GapModel

    missed = gate.self_test(BLOSUM62, GapModel(10, 2))
    if missed:
        print("error: correctness gate self-test failed: " + "; ".join(missed),
              file=sys.stderr)
        return 3
    if args.self_test:
        print("gate self-test: every perturbed output was rejected")
        return 0

    import workloads

    units = listed_units(bool(args.trace))
    WORK.mkdir(exist_ok=True)
    run = workloads.Run(ROOT, WORK, args.seed, args.seconds, bool(args.trace),
                        list(units))
    outcome = workloads.WORKLOADS[args.workload](run)
    tally = outcome.tally
    if set(outcome.metrics) != set(units):
        print("error: metrics produced differ from BENCHMARK.json's: "
              f"{sorted(set(outcome.metrics) ^ set(units))}", file=sys.stderr)
        return 2
    metrics = {}
    for name, unit in units.items():
        value = outcome.metrics[name]
        value = value.item() if hasattr(value, "item") else value  # numpy
        metrics[name] = {"value": value, "unit": unit}
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(tally.summary())
    for problem in tally.problems[:10]:
        print(f"  failed: {problem}")
    for note in outcome.notes:
        print(note)
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}")
    record = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, **result,
         "samples": tally.raw()}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
