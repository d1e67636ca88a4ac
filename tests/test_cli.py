"""Tests for the command-line interface."""

import pathlib
import re
import shlex

import pytest

from repro.cli import main


class TestListing:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "<Lin, Synch>" in out and out.count("\n") == 5

    def test_configs(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        assert "MINOS-O" in out and "offload, batching, broadcast" in out


class TestVerify:
    def test_verify_passes(self, capsys):
        code = main(["verify", "--model", "event", "--arch", "MINOS-B"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_offload(self, capsys):
        code = main(["verify", "--model", "synch", "--arch", "MINOS-O",
                     "--writes", "1"])
        assert code == 0


class TestExperiment:
    def test_experiment_prints_metrics(self, capsys):
        code = main(["experiment", "--nodes", "3", "--records", "30",
                     "--requests", "10", "--clients", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "write latency" in out and "breakdown" in out

    def test_unknown_arch_fails_loudly(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            main(["experiment", "--arch", "MINOS-X"])


class TestTrace:
    def test_trace_timeline(self, capsys):
        code = main(["trace", "--nodes", "2", "--arch", "MINOS-O"])
        assert code == 0
        out = capsys.readouterr().out
        assert "write:start" in out
        assert "node 1" in out

    def test_trace_export_writes_valid_chrome_trace(self, capsys,
                                                    tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        trace_path = tmp_path / "write.json"
        jsonl_path = tmp_path / "write.jsonl"
        code = main(["trace", "--nodes", "3", "--arch", "MINOS-O",
                     "--export", str(trace_path),
                     "--jsonl", str(jsonl_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote {trace_path}" in out
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) == []
        write_events = [e for e in payload["traceEvents"]
                        if e.get("ph") == "X" and "op," in e.get("cat", "")]
        assert write_events, "export contains no operation spans"
        assert jsonl_path.is_file()
        for line in jsonl_path.read_text().splitlines():
            json.loads(line)


class TestProfile:
    def test_profile_prints_phase_breakdown(self, capsys):
        code = main(["profile", "--nodes", "3", "--records", "30",
                     "--requests", "10", "--clients", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase" in out
        assert "ack_wait" in out and "inv_fanout" in out

    def test_profile_json_and_export(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "profile.json"
        code = main(["profile", "--nodes", "3", "--records", "30",
                     "--requests", "10", "--clients", "1",
                     "--arch", "MINOS-O", "--json",
                     "--export", str(trace_path)])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[:out.rindex("}") + 1])
        assert payload["spans"] > 0
        assert "ack_wait" in payload["phases"]
        assert trace_path.is_file()


class TestFigure:
    def test_fig13_smoke(self, capsys):
        code = main(["figure", "fig13", "--scale", "smoke"])
        assert code == 0
        assert "unlimited" in capsys.readouterr().out

    def test_tab1(self, capsys):
        code = main(["figure", "tab1"])
        assert code == 0
        assert capsys.readouterr().out.count("PASS") == 10

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestSweep:
    def test_sweep_command(self, capsys):
        code = main(["sweep", "config=MINOS-B,MINOS-O", "--records", "20",
                     "--requests", "8", "--clients", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MINOS-B" in out and "MINOS-O" in out and "wlat_us" in out


class TestReport:
    def test_report_assembles_tables(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig99_demo.txt").write_text("col\n---\n42\n")
        out_file = tmp_path / "report.md"
        code = main(["report", "--results-dir", str(results),
                     "--output", str(out_file)])
        assert code == 0
        text = out_file.read_text()
        assert "## fig99_demo" in text and "42" in text

    def test_report_without_results(self, tmp_path):
        assert main(["report", "--results-dir",
                     str(tmp_path / "nope")]) == 1


class TestJsonExport:
    def test_experiment_json(self, capsys):
        import json
        code = main(["experiment", "--nodes", "2", "--records", "20",
                     "--requests", "8", "--clients", "1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"].startswith("MINOS-B")
        assert payload["write_latency"]["count"] > 0
        assert payload["counters"]["writes_completed"] > 0
        assert 0 <= payload["communication_fraction"] <= 1


class TestDocCommands:
    """Every ``python -m repro ...`` line in a fenced code block of the
    README or ``docs/*.md`` parses against the real CLI (parse only,
    nothing runs), so a renamed or deleted command or flag cannot leave
    a stale example behind."""

    COMMAND = re.compile(
        r"^(?:\$\s+)?(?:\w+=\S*\s+)*python3? -m repro\b(?P<argv>.*)$")

    @classmethod
    def doc_commands(cls):
        """``(file name, argv text)`` per documented command, with
        backslash continuations joined."""
        root = pathlib.Path(__file__).resolve().parents[1]
        commands = []
        for path in [root / "README.md", *sorted(root.glob("docs/*.md"))]:
            fenced = False
            for line in path.read_text().replace("\\\n", " ").splitlines():
                line = line.strip()
                if line.startswith("```"):
                    fenced = not fenced
                elif fenced and (match := cls.COMMAND.match(line)):
                    commands.append((path.name, match["argv"]))
        return commands

    def test_every_documented_command_parses(self):
        from repro.cli import _build_parser

        commands = self.doc_commands()
        assert len(commands) >= 20
        parser = _build_parser()
        for where, text in commands:
            try:
                parser.parse_args(shlex.split(text, comments=True))
            except SystemExit:
                pytest.fail(f"{where}: `python -m repro{text}` does not "
                            "parse")
