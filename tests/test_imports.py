"""Import boundaries: each entry point loads only the modules it runs.

Every check runs in a fresh interpreter, because this test session has
long since imported everything.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

#: Standard-library machinery no simulation needs.
PROCESS_AND_IO = ("multiprocessing", "concurrent.futures", "asyncio", "subprocess")


def modules_loaded_by(statement: str) -> set:
    """The modules ``statement`` adds to ``sys.modules`` in a new interpreter."""
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def loaded_under(modules: set, *packages: str) -> list:
    return sorted(
        name
        for name in modules
        if any(name == package or name.startswith(package + ".") for package in packages)
    )


def test_import_repro_loads_no_submodule():
    loaded = modules_loaded_by("import repro")
    assert loaded_under(loaded, "repro") == ["repro"]
    assert loaded_under(loaded, *PROCESS_AND_IO) == []


def test_every_public_name_resolves():
    loaded = modules_loaded_by(
        "import repro\n"
        "missing = [n for n in repro.__all__ if getattr(repro, n, None) is None]\n"
        "assert not missing, missing\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "assert set(repro.__all__) <= set(namespace), set(repro.__all__) - set(namespace)\n"
    )
    assert "repro.harness.simulator" in loaded


def test_unknown_top_level_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        repro.no_such_name  # noqa: B018


def test_simulator_loads_no_process_or_live_machinery():
    loaded = modules_loaded_by("import repro.harness.simulator")
    assert loaded_under(loaded, *PROCESS_AND_IO, "repro.live") == []


def test_cli_parser_loads_no_simulator():
    loaded = modules_loaded_by("from repro.cli import build_parser\nbuild_parser()")
    assert loaded_under(loaded, "repro.harness", "repro.core") == []


def test_live_server_loads_no_harness():
    loaded = modules_loaded_by("import repro.live.server")
    assert loaded_under(loaded, "repro.harness", "multiprocessing") == []


def test_version_matches_pyproject():
    text = PYPROJECT.read_text(encoding="utf-8")
    if sys.version_info >= (3, 11):
        import tomllib

        version = tomllib.loads(text)["project"]["version"]
    else:
        project = text.split("[project]", 1)[1].split("\n[", 1)[0]
        version = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M).group(1)
    assert repro.__version__ == version


@pytest.mark.parametrize(
    "package",
    sorted(
        path.parent.name
        for path in (SRC / "repro").glob("*/__init__.py")
        if path.parent.name not in ("obs", "faults")
    ),
)
def test_subpackage_import_loads_none_of_its_modules(package):
    # Only repro.obs and repro.faults keep package-level names; every
    # other sub-package is a docstring, imported through its modules.
    loaded = modules_loaded_by(f"import repro.{package}")
    assert loaded_under(loaded, f"repro.{package}") == [f"repro.{package}"]
