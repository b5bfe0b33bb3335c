"""Import-surface guards.

Package ``__init__``s export their names lazily (:mod:`repro._lazy`), so
a process that runs one cell loads only the modules a cell uses.  The
first guard runs each entry point in a fresh interpreter and checks
that none of the layers a cell never touches was loaded; the second
checks that every exported name still resolves the three ways an eager
import would have provided it.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

# layers and libraries a cell never uses: the service, QoS,
# scheduling, scenarios, analysis beyond table formatting, the bench
# basket, the flit-level network, and the service's network stack
FORBIDDEN_PREFIXES = ("repro.service", "repro.qos", "repro.sched",
                      "repro.scenarios", "repro.bench")
FORBIDDEN_MODULES = ("repro.interconnect.network", "asyncio", "http.client")
ALLOWED_ANALYSIS = ("repro.analysis", "repro.analysis.report")

ENTRY_POINTS = {
    "import repro": "import repro",
    "import repro.core.experiment": "import repro.core.experiment",
    "import repro.cli": "import repro.cli",
    "repro run (one cold cell)": (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['run', '--mix', 'mix1', '--refs', '300',\n"
        "                 '--seed', '1']) == 0"),
}


def _loaded_modules(statement: str) -> list:
    """Names in ``sys.modules`` after ``statement`` runs in a fresh
    interpreter."""
    script = f"{statement}\nimport sys\nprint('\\n'.join(sorted(sys.modules)))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.split()


def _forbidden(name: str) -> bool:
    if name.startswith(FORBIDDEN_PREFIXES) or name in FORBIDDEN_MODULES:
        return True
    return name.startswith("repro.analysis") and name not in ALLOWED_ANALYSIS


@pytest.mark.parametrize("statement", list(ENTRY_POINTS.values()),
                         ids=list(ENTRY_POINTS))
def test_cell_path_loads_no_unused_layer(statement):
    loaded = _loaded_modules(statement)
    assert "repro" in loaded
    assert [name for name in loaded if _forbidden(name)] == []


def _packages() -> list:
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg]
    return [importlib.import_module(name) for name in names]


@pytest.mark.parametrize("package", _packages(),
                         ids=lambda package: package.__name__)
def test_every_export_resolves(package):
    exported = set(package.__all__)
    assert len(exported) == len(package.__all__), "duplicate names"
    submodules = {info.name for info in pkgutil.iter_modules(package.__path__)}
    assert exported & submodules == set(), "an export shadows a submodule"
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(namespace) - {"__builtins__"} == exported
    for name in exported:
        assert getattr(package, name) is namespace[name], name
    assert exported <= set(dir(package))
    with pytest.raises(AttributeError):
        getattr(package, "no_such_name")
