"""End-to-end ``repro lint``: CLI behavior, JSON payload, import
hygiene, and the acceptance gates the CI job relies on."""

import ast
import json
import os
import subprocess
import sys
import textwrap

from repro.analysis import find_project_root
from repro.cli import main

ROOT = find_project_root()


def _run_lint(*argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        cwd=cwd or ROOT, env=env, capture_output=True, text=True)


class TestRepoIsClean:
    def test_lint_exits_zero_on_tree(self):
        proc = _run_lint()
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 findings" in proc.stdout

    def test_json_payload_shape(self):
        proc = _run_lint("--json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["schema"] == "repro-lint/1"
        assert payload["findings"] == []
        assert payload["files_checked"] > 50

    def test_access_table_covers_every_engine_handler(self):
        proc = _run_lint("--json")
        payload = json.loads(proc.stdout)
        engines = payload["metadata_access"]["engines"]
        for engine_name, rel in (
                ("BaselineEngine", "src/repro/core/baseline/engine.py"),
                ("OffloadEngine", "src/repro/core/offload/engine.py")):
            tree = ast.parse((ROOT / rel).read_text())
            class_node = next(
                node for node in tree.body
                if isinstance(node, ast.ClassDef)
                and node.name == engine_name)
            methods = {stmt.name for stmt in class_node.body
                       if isinstance(stmt, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))}
            assert set(engines[engine_name]) == methods
            # The protocol's commit points must be visible in the table.
            writers = {h for h, d in engines[engine_name].items()
                       if "glb_durable_ts" in d["writes"]}
            assert writers, f"no glb_durable_ts writers in {engine_name}"

    def test_lint_does_not_import_simulator(self):
        code = textwrap.dedent("""
            import sys
            import repro.cli
            import repro.analysis
            bad = [m for m in sys.modules
                   if m.startswith(('repro.sim', 'repro.core',
                                    'repro.hw', 'repro.api'))]
            sys.exit(1 if bad else 0)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestSeededViolation:
    def _scratch(self, tmp_path, source):
        (tmp_path / "pyproject.toml").write_text("")
        pkg = tmp_path / "src" / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "kernel.py").write_text(textwrap.dedent(source))
        return tmp_path

    def test_violation_fails_with_rule_and_line(self, tmp_path, capsys):
        root = self._scratch(tmp_path, """
            import time

            def now():
                return time.time()
        """)
        code = main(["lint", str(root / "src" / "repro"),
                     "--no-baseline"])
        out = capsys.readouterr().out
        assert code == 1
        assert "no-wallclock" in out
        assert "kernel.py:5" in out

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        root = self._scratch(tmp_path, """
            import time

            def now():
                return time.time()
        """)
        baseline = root / "lint-baseline.json"
        assert main(["lint", str(root / "src" / "repro"),
                     "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        capsys.readouterr()
        assert baseline.is_file()
        assert main(["lint", str(root / "src" / "repro"),
                     "--baseline", str(baseline)]) == 0
        assert "1 baseline-suppressed" in capsys.readouterr().out


class TestRuleSelection:
    def test_only_runs_requested_rule(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text("")
        pkg = tmp_path / "src" / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "kernel.py").write_text(
            "import time\n\n\nclass Fresh:\n"
            "    def now(self):\n        return time.time()\n")
        assert main(["lint", str(pkg), "--no-baseline",
                     "--rule", "slots"]) == 1
        out = capsys.readouterr().out
        assert "slots-required" in out
        assert "no-wallclock" not in out


class TestExitCodes:
    """The contract CI scripts rely on: 0 clean, 1 findings, 2 usage or
    internal analyzer error."""

    def _violating_tree(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("")
        pkg = tmp_path / "src" / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "kernel.py").write_text(
            "import time\n\n\ndef now():\n    return time.time()\n")
        return tmp_path

    def test_findings_exit_one(self, tmp_path, capsys):
        root = self._violating_tree(tmp_path)
        assert main(["lint", str(root / "src" / "repro"),
                     "--no-baseline"]) == 1
        capsys.readouterr()

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        root = self._violating_tree(tmp_path)
        code = main(["lint", str(root / "src" / "repro"),
                     "--no-baseline", "--rule", "no-such-rule"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown rule" in captured.err
        assert "no-such-rule" in captured.err

    def test_internal_error_exits_two(self, tmp_path, capsys):
        """A crash inside the analyzer (here: an unreadable baseline)
        must be distinguishable from 'findings present'."""
        root = self._violating_tree(tmp_path)
        bad = root / "lint-baseline.json"
        bad.write_text("{not json")
        code = main(["lint", str(root / "src" / "repro"),
                     "--baseline", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert "internal analyzer error" in captured.err


class TestJsonContract:
    """Pin the ``repro-lint/1`` payload: downstream tooling parses it."""

    def test_payload_keys_and_finding_shape(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text("")
        pkg = tmp_path / "src" / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "kernel.py").write_text(
            "import time\n\n\ndef now():\n    return time.time()\n")
        assert main(["lint", str(pkg), "--no-baseline", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-lint/1"
        assert set(payload) >= {"schema", "files_checked", "findings",
                                "suppressed", "metadata_access", "tables"}
        (finding,) = [f for f in payload["findings"]
                      if f["rule"] == "no-wallclock"]
        assert set(finding) >= {"rule", "path", "line", "symbol",
                                "message", "severity"}
        assert finding["path"].endswith("kernel.py")
        assert isinstance(finding["line"], int)

    def test_flow_rules_are_registered(self):
        from repro.analysis import available_rules

        assert {"flow-unhandled-message", "flow-send-without-timeout",
                "flow-durable-order",
                "flow-meta-race"} <= set(available_rules())


class TestBaselineStability:
    def test_update_baseline_is_sorted_and_stable(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text("")
        pkg = tmp_path / "src" / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "b.py").write_text(
            "import time\n\n\ndef later():\n    return time.time()\n")
        (pkg / "a.py").write_text(
            "import time\n\n\ndef earlier():\n    return time.time()\n")
        baseline = tmp_path / "lint-baseline.json"
        assert main(["lint", str(pkg), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        capsys.readouterr()
        first = baseline.read_text()
        payload = json.loads(first)
        keys = [(s["rule"], s["path"], s["symbol"])
                for s in payload["suppressions"]]
        assert keys == sorted(keys), "baseline must be written sorted"
        assert main(["lint", str(pkg), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        capsys.readouterr()
        assert baseline.read_text() == first, \
            "re-updating an unchanged tree must be byte-stable"

    def test_shipped_baseline_is_empty(self):
        payload = json.loads((ROOT / "lint-baseline.json").read_text())
        assert payload["schema"] == "repro-lint-baseline/1"
        assert payload["suppressions"] == []
