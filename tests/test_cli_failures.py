"""CLI failure paths: wrong inputs exit non-zero with one clean line.

Every failure mode a scripted caller can hit — missing files, malformed
fault plans, expired deadlines — must produce a non-zero exit status and
a single ``error:`` line on stderr, never a traceback.
"""

from __future__ import annotations

import pytest

from repro.alphabet import PROTEIN
from repro.cli import main
from repro.db import SyntheticSwissProt, write_fasta
from repro.db.fasta import FastaRecord

QUERY = "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ"


@pytest.fixture(scope="module")
def fasta_path(tmp_path_factory):
    db = SyntheticSwissProt(seed=29).generate(scale=0.0003)
    records = [
        FastaRecord(h, PROTEIN.decode(s))
        for h, s in zip(db.headers, db.sequences)
    ]
    path = tmp_path_factory.mktemp("clifail") / "db.fasta"
    write_fasta(records, path)
    return str(path)


def assert_clean_failure(capsys, code, expect_code=1):
    """Non-zero exit, one-line error on stderr, no traceback."""
    captured = capsys.readouterr()
    assert code == expect_code
    err_lines = [ln for ln in captured.err.splitlines() if ln]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error:")
    assert "Traceback" not in captured.err
    return captured


class TestStreamFailures:
    def test_nonexistent_fasta(self, capsys, tmp_path):
        code = main([
            "stream", "--query", QUERY,
            "--db-fasta", str(tmp_path / "does-not-exist.fasta"),
        ])
        assert_clean_failure(capsys, code)

    def test_malformed_fault_plan(self, capsys, fasta_path):
        code = main([
            "stream", "--query", QUERY, "--db-fasta", fasta_path,
            "--fault-plan", "explode=1.0",
        ])
        captured = assert_clean_failure(capsys, code)
        assert "fault-plan" in captured.err

    def test_fault_plan_value_not_a_number(self, capsys, fasta_path):
        code = main([
            "stream", "--query", QUERY, "--db-fasta", fasta_path,
            "--fault-plan", "worker-kill=lots",
        ])
        assert_clean_failure(capsys, code)

    def test_deadline_expired_exits_nonzero(self, capsys, fasta_path):
        # A microscopic budget expires before the first chunk: the scan
        # reports the (empty) partial result and exits 1.
        code = main([
            "stream", "--query", QUERY, "--db-fasta", fasta_path,
            "--deadline", "0.000001",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "deadline expired" in captured.err
        assert "Traceback" not in captured.err
        assert "PARTIAL" in captured.out

    def test_negative_deadline_rejected(self, capsys, fasta_path):
        code = main([
            "stream", "--query", QUERY, "--db-fasta", fasta_path,
            "--deadline", "-5",
        ])
        assert_clean_failure(capsys, code, expect_code=2)

    def test_resume_without_journal_rejected(self, capsys, fasta_path):
        code = main([
            "stream", "--query", QUERY, "--db-fasta", fasta_path,
            "--resume",
        ])
        captured = assert_clean_failure(capsys, code, expect_code=2)
        assert "--journal" in captured.err

    def test_journal_needs_workers(self, capsys, fasta_path, tmp_path):
        code = main([
            "stream", "--query", QUERY, "--db-fasta", fasta_path,
            "--journal", str(tmp_path / "j.json"),
        ])
        captured = assert_clean_failure(capsys, code, expect_code=2)
        assert "--workers" in captured.err

    def test_missing_query_rejected(self, capsys, fasta_path):
        code = main(["stream", "--db-fasta", fasta_path])
        assert_clean_failure(capsys, code, expect_code=2)


class TestSearchFailures:
    def test_nonexistent_query_fasta(self, capsys, tmp_path):
        code = main([
            "search", "--query-fasta", str(tmp_path / "nope.fasta"),
            "--synthetic-scale", "0.0001",
        ])
        assert_clean_failure(capsys, code)

    def test_unknown_matrix(self, capsys):
        code = main([
            "search", "--query", QUERY,
            "--synthetic-scale", "0.0001", "--matrix", "BLOSUM999",
        ])
        assert_clean_failure(capsys, code)


class TestStreamResilienceFlags:
    """The happy paths of the new flags drive the real machinery."""

    def test_deadline_roomy_scan_completes(self, capsys, fasta_path):
        code = main([
            "stream", "--query", QUERY, "--db-fasta", fasta_path,
            "--deadline", "3600",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "PARTIAL" not in captured.out

    def test_chaos_scan_matches_clean_scan(self, capsys, fasta_path):
        code = main([
            "stream", "--query", QUERY, "--db-fasta", fasta_path,
            "--workers", "2", "--chunk-size", "32",
        ])
        clean = capsys.readouterr()
        assert code == 0
        code = main([
            "stream", "--query", QUERY, "--db-fasta", fasta_path,
            "--workers", "2", "--chunk-size", "32",
            "--fault-plan", "seed=3,kill-units=1",
        ])
        chaos = capsys.readouterr()
        assert code == 0
        ranks = lambda out: [  # noqa: E731
            ln for ln in out.splitlines() if ln.strip().startswith("#")
        ]
        assert ranks(chaos.out) == ranks(clean.out)
        assert ranks(clean.out)  # the scan actually ranked hits


class TestUsageErrors:
    """Bad flag combinations exit 2 before any work (or connection)."""

    @pytest.mark.parametrize("argv, needle", [
        (["batch", "--synthetic-scale", "0.0001", "--workers", "2",
          "--scheduler", "static"], "--workers"),
        (["serve"], "--db-fasta"),
        (["trace"], "--db-fasta"),
        (["search", "--query", QUERY, "--synthetic-scale", "0.0001",
          "--fault-plan", "seed=1,corrupt=0.1", "--mode", "fast"],
         "--mode exact"),
        (["search", "--query", QUERY, "--synthetic-scale", "0.0001",
          "--workers", "0"], "--workers must be positive"),
        (["search", "--query", QUERY, "--server", "http://127.0.0.1:9",
          "--tsv"], "--server"),
    ], ids=["batch-static-workers", "serve-no-db", "trace-no-db",
            "search-faults-tiered", "search-zero-workers", "search-server-tsv"])
    def test_exits_2(self, capsys, argv, needle):
        captured = assert_clean_failure(capsys, main(argv), expect_code=2)
        assert needle in captured.err
        assert captured.out == ""
