"""CLI tests (python -m repro ...)."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestCli:
    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 4" in out

    def test_workload_listing(self, capsys):
        assert main(["workload"]) == 0
        out = capsys.readouterr().out
        assert "Q20" in out and "datatype casting" in out

    def test_query_native(self, capsys):
        assert main(["query", "Q5", "dcmd", "--units", "20"]) == 0
        out = capsys.readouterr().out
        assert "item(s) in" in out and "collection()/order" in out

    def test_query_relational_engine(self, capsys):
        assert main(["query", "Q8", "dcsd", "--engine", "xcollection",
                     "--units", "20"]) == 0
        assert "Xcollection" in capsys.readouterr().out

    def test_query_lowercase_qid(self, capsys):
        assert main(["query", "q5", "dcmd", "--units", "10"]) == 0

    def test_query_wrong_class_errors(self, capsys):
        assert main(["query", "Q4", "dcsd", "--units", "10"]) == 1
        assert "not defined" in capsys.readouterr().err

    def test_profile_wrong_class_errors(self, capsys, tmp_path):
        assert main(["profile", "--divisor", "5000", "--classes", "dcmd",
                     "--queries", "Q2", "--obs-out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "error: Q2 is not defined for dcmd" in captured.err
        assert not any(tmp_path.iterdir())      # nothing was run

    def test_query_unsupported_engine_class(self, capsys):
        # Xcolumn cannot hold single-document classes.
        assert main(["query", "Q8", "dcsd", "--engine", "xcolumn",
                     "--units", "10"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_stats(self, capsys):
        assert main(["stats", "tcmd", "--units", "12"]) == 0
        out = capsys.readouterr().out
        assert "text ratio" in out

    def test_generate(self, tmp_path, capsys):
        assert main(["generate", "dcmd", "--units", "5",
                     "--out", str(tmp_path)]) == 0
        files = list((tmp_path / "dcmd").glob("*.xml"))
        assert len(files) >= 6          # orders + flat side documents
        assert (tmp_path / "dcmd" / "order1.xml").exists()

    def test_suite_small(self, capsys):
        assert main(["suite", "--divisor", "20000",
                     "--scales", "small", "--classes", "tcmd"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out and "Table 9" in out

    def test_updates(self, capsys):
        assert main(["updates", "dcmd", "--units", "20",
                     "--count", "10"]) == 0
        out = capsys.readouterr().out
        assert "update stream" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCliExtensions:
    def test_schema_dtd(self, capsys):
        assert main(["schema", "tcmd", "--format", "dtd"]) == 0
        assert "<!ELEMENT article" in capsys.readouterr().out

    def test_path_command(self, capsys):
        assert main(["path", "tcsd",
                     "/dictionary/entry[hw = 'word_1']/pos",
                     "--units", "40"]) == 0
        out = capsys.readouterr().out
        assert "structural joins" in out and "<pos>" in out

    def test_path_command_rejects_flwor(self, capsys):
        assert main(["path", "tcsd",
                     "for $x in /a return $x", "--units", "5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_multiuser_command(self, capsys):
        assert main(["multiuser", "dcmd", "--units", "20",
                     "--streams", "2", "--queries", "3",
                     "--mode", "interleaved"]) == 0
        out = capsys.readouterr().out
        assert "2 streams" in out and "q/s" in out

    def test_verify_single_class(self, capsys):
        assert main(["verify", "dcmd", "--divisor", "10000"]) == 0
        out = capsys.readouterr().out
        assert "Verification matrix" in out

    def test_workload_full(self, capsys):
        assert main(["workload", "--full"]) == 0
        out = capsys.readouterr().out
        assert "canonical class" in out and "[dcsd]" in out
