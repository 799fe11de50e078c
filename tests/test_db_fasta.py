"""Unit tests for FASTA I/O."""

import io

import pytest

from repro.db import FastaRecord, parse_fasta_text, read_fasta, write_fasta
from repro.exceptions import FastaError


class TestParsing:
    def test_basic_two_records(self):
        recs = parse_fasta_text(">a desc one\nMKV\nLLL\n>b\nACD\n")
        assert len(recs) == 2
        assert recs[0].header == "a desc one"
        assert recs[0].sequence == "MKVLLL"
        assert recs[1].accession == "b"

    def test_wrapped_lines_joined(self):
        recs = parse_fasta_text(">x\nAC\nDE\nFG\n")
        assert recs[0].sequence == "ACDEFG"

    def test_blank_lines_skipped(self):
        recs = parse_fasta_text("\n>x\n\nACDE\n\n>y\nMK\n")
        assert [r.sequence for r in recs] == ["ACDE", "MK"]

    def test_crlf_handled(self):
        recs = parse_fasta_text(">x\r\nACDE\r\n")
        assert recs[0].sequence == "ACDE"

    def test_data_before_header_rejected(self):
        with pytest.raises(FastaError, match="before any"):
            parse_fasta_text("ACDE\n>x\nMK\n")

    def test_empty_header_rejected(self):
        with pytest.raises(FastaError, match="empty FASTA header"):
            parse_fasta_text(">\nACDE\n")

    def test_record_without_sequence_rejected(self):
        with pytest.raises(FastaError, match="empty sequence"):
            parse_fasta_text(">x\n>y\nMK\n")

    def test_empty_input_yields_nothing(self):
        assert parse_fasta_text("") == []

    def test_internal_whitespace_stripped(self):
        recs = parse_fasta_text(">x\n  ACDE  \n")
        assert recs[0].sequence == "ACDE"


class TestRecord:
    def test_len(self):
        assert len(FastaRecord("h", "ACDE")) == 4

    def test_accession_first_token(self):
        assert FastaRecord("sp|P1234|NAME description", "MK").accession == "sp|P1234|NAME"

    def test_whitespace_in_sequence_rejected(self):
        with pytest.raises(FastaError, match="whitespace"):
            FastaRecord("h", "AC DE")

    @pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\x1c"])
    def test_unicode_whitespace_in_sequence_rejected(self, space):
        # Every str.isspace() code point counts, not just ASCII blanks.
        with pytest.raises(FastaError, match="whitespace"):
            FastaRecord("h", f"AC{space}DE")

    def test_blank_header_rejected(self):
        with pytest.raises(FastaError, match="non-empty header"):
            FastaRecord("   ", "ACDE")


class TestWriting:
    def test_roundtrip_through_buffer(self):
        recs = [FastaRecord("a one", "MKVLLL"), FastaRecord("b", "ACD")]
        buf = io.StringIO()
        count = write_fasta(recs, buf)
        assert count == 2
        assert parse_fasta_text(buf.getvalue()) == recs

    def test_wrapping_width(self):
        buf = io.StringIO()
        write_fasta([FastaRecord("x", "A" * 130)], buf, width=60)
        lines = buf.getvalue().splitlines()
        assert [len(l) for l in lines[1:]] == [60, 60, 10]

    def test_width_zero_single_line(self):
        buf = io.StringIO()
        write_fasta([FastaRecord("x", "A" * 130)], buf, width=0)
        assert len(buf.getvalue().splitlines()) == 2

    def test_negative_width_rejected(self):
        with pytest.raises(FastaError):
            write_fasta([], io.StringIO(), width=-1)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "db.fasta"
        recs = [FastaRecord(f"seq{i}", "ACDEFGHIKL" * (i + 1)) for i in range(5)]
        write_fasta(recs, path)
        assert list(read_fasta(path)) == recs
