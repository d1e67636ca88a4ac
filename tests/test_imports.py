"""Every ``repro`` module imports cleanly as the first ``repro`` import.

An import cycle only bites when the process enters it at the wrong
module (``import repro.kv`` first once failed: ``kv.log`` ->
``core.timestamp`` -> ``core/__init__`` -> ``core.engine`` ->
``kv.store`` -> the half-initialised ``kv.log``), so the suite's own
import order can hide it.  Each worker below starts a fresh interpreter
and, per module, drops every ``repro`` module from ``sys.modules`` before
importing it, which re-enters the package exactly as a first import
would.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent

#: Fresh interpreters sharing the module list (the check is ~2 s serial).
WORKERS = 2

_WORKER = """
import importlib, sys
failures = []
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as error:
        failures.append(f"{name}: {error!r}")
print("\\n".join(failures))
sys.exit(1 if failures else 0)
"""


def module_names():
    names = []
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__main__":
            continue  # runs the CLI on import
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def test_every_module_imports_first():
    names = module_names()
    assert len(names) > 50 and "repro.kv" in names
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    workers = [subprocess.Popen(
        [sys.executable, "-c", _WORKER, *names[index::WORKERS]],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env) for index in range(WORKERS)]
    failures = []
    for worker in workers:
        out, _ = worker.communicate(timeout=60)
        if worker.returncode:
            failures.append(out)
    assert not failures, "".join(failures)
