"""Tests for the self-contained PEP 517 build backend.

The backend exists so `pip install -e .` works offline (no `wheel`
package); these tests build real artifacts into a temp dir and inspect
them.
"""

import sys
import zipfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "_build"))
import repro_build_backend as backend  # noqa: E402


def _declared_dependencies():
    """``[project] dependencies`` as pyproject.toml declares them (read
    with tomllib where the interpreter has it)."""
    text = (backend.ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ImportError:  # Python 3.10
        return backend._fallback_parse(text)["project"]["dependencies"]
    return tomllib.loads(text)["project"]["dependencies"]


class TestEditableWheel:
    def test_contains_pth_pointing_at_src(self, tmp_path):
        name = backend.build_editable(str(tmp_path))
        assert name.endswith(".whl")
        with zipfile.ZipFile(tmp_path / name) as wheel:
            names = wheel.namelist()
            pth = [n for n in names if n.endswith(".pth")]
            assert len(pth) == 1
            target = wheel.read(pth[0]).decode().strip()
            assert target.endswith("src")
            assert (Path(target) / "repro" / "__init__.py").exists()

    def test_dist_info_complete(self, tmp_path):
        name = backend.build_editable(str(tmp_path))
        with zipfile.ZipFile(tmp_path / name) as wheel:
            names = wheel.namelist()
            for required in ("METADATA", "WHEEL", "RECORD",
                             "top_level.txt"):
                assert any(n.endswith(required) for n in names), required
            metadata = next(wheel.read(n).decode() for n in names
                            if n.endswith("METADATA"))
            assert "Name: repro" in metadata
            requires = [line.split(": ", 1)[1]
                        for line in metadata.splitlines()
                        if line.startswith("Requires-Dist: ")]
            assert requires == _declared_dependencies()

    def test_fallback_parser_reads_the_declared_dependencies(self):
        """The Python 3.10 path (no tomllib) must agree with the real
        TOML parser on this project's dependency list."""
        text = (backend.ROOT / "pyproject.toml").read_text()
        parsed = backend._fallback_parse(text)["project"]
        assert parsed["dependencies"] == _declared_dependencies()


class TestRegularWheel:
    def test_packages_whole_library(self, tmp_path):
        name = backend.build_wheel(str(tmp_path))
        with zipfile.ZipFile(tmp_path / name) as wheel:
            names = wheel.namelist()
            assert "repro/__init__.py" in names
            assert "repro/core/baseline/engine.py" in names
            assert not any(n.endswith(".pyc") for n in names)

    def test_record_hashes_every_file(self, tmp_path):
        name = backend.build_wheel(str(tmp_path))
        with zipfile.ZipFile(tmp_path / name) as wheel:
            record_name = next(n for n in wheel.namelist()
                               if n.endswith("RECORD"))
            record = wheel.read(record_name).decode().strip().splitlines()
            listed = {line.split(",")[0] for line in record}
            assert set(wheel.namelist()) == listed
            for line in record:
                path, digest, size = line.split(",")
                if path == record_name:
                    assert digest == "" and size == ""
                else:
                    assert digest.startswith("sha256=")


class TestHooks:
    def test_requires_hooks_are_empty(self):
        assert backend.get_requires_for_build_wheel() == []
        assert backend.get_requires_for_build_editable() == []
        assert backend.get_requires_for_build_sdist() == []

    def test_prepare_metadata(self, tmp_path):
        dist_info = backend.prepare_metadata_for_build_wheel(str(tmp_path))
        assert (tmp_path / dist_info / "METADATA").exists()

    def test_sdist(self, tmp_path):
        name = backend.build_sdist(str(tmp_path))
        assert (tmp_path / name).exists()
        import tarfile
        with tarfile.open(tmp_path / name) as tar:
            names = tar.getnames()
            assert any("pyproject.toml" in n for n in names)
            assert any("src/repro/__init__.py" in n for n in names)


class TestEntryPoints:
    def test_console_script_declared(self, tmp_path):
        name = backend.build_editable(str(tmp_path))
        with zipfile.ZipFile(tmp_path / name) as wheel:
            entry = next(wheel.read(n).decode() for n in wheel.namelist()
                         if n.endswith("entry_points.txt"))
        assert "[console_scripts]" in entry
        assert "repro = repro.cli:main" in entry
