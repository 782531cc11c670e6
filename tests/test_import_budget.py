"""Import budget: a run loads only the ``repro`` modules it uses.

Every package ``__init__`` exports lazily through one name-to-submodule
map (:mod:`repro._lazy`), so importing a package loads none of its
submodules.  The subprocess cases start a fresh interpreter, run one
import block and read ``sys.modules``: the module sets are exact and do
not depend on the host.  The last case checks each package's map
against the names it serves.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The import block of benchmarks/e2e/driver.py, plus its model build.
DRIVER_IMPORTS = """
import numpy as np

from repro import chaos, planning, workloads
from repro.analysis import report
from repro.core.types import GIB
from repro.experiments import figures, runner
from repro.models.zoo import build
from repro.requests import ReplaySchedule
from repro.resilience import ResiliencePolicy
from repro.serving import ServingConfig
from repro.tracing import TraceMode

build("DRM1")
"""

#: Modules the benchmark driver's set-up must not load: subsystems no
#: paper-sweep or open-loop run uses.
DRIVER_UNUSED_PREFIXES = (
    "repro.chaos.",
    "repro.planning.",
    "repro.lint",
    "repro.compression",
)
DRIVER_UNUSED = {
    "repro.core.dlrm",
    "repro.core.operators",
    "repro.core.graph",
    "repro.core.executor",
    "repro.core.embedding",
    "repro.sharding.auto",
    "repro.sharding.distributed",
    "repro.sharding.serialization",
    "repro.serving.paging",
    "repro.requests.access_trace",
    "repro.analysis.caching",
    "repro.models.growth",
    "repro.tracing.visualize",
    "repro.workloads.workload",
}

#: ``python -m repro lint --help``, run in-process so that the module
#: set can be read after argparse exits.
LINT_HELP = """
import contextlib, io, runpy
sys.argv = ["repro", "lint", "--help"]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit:
        pass
"""

SIMULATOR_PREFIXES = ("repro.simulation", "repro.serving", "repro.experiments")


def _loaded(code: str) -> set[str]:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    script = (
        "import sys\n"
        + code
        + "\nimport json\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=60,
        check=True,
    )
    return set(json.loads(completed.stdout.splitlines()[-1]))


def test_import_repro_loads_only_the_package_and_its_helper():
    assert _loaded("import repro") == {"repro", "repro._lazy"}


def test_benchmark_driver_setup_skips_unused_subsystems():
    loaded = _loaded(DRIVER_IMPORTS)
    assert "repro.serving.simulator" in loaded  # the block did run
    unused = sorted(
        name for name in loaded
        if name in DRIVER_UNUSED or name.startswith(DRIVER_UNUSED_PREFIXES)
    )
    assert unused == []


@pytest.mark.parametrize(
    "code, entry",
    [("import repro.lint", "repro.lint"), (LINT_HELP, "repro.cli")],
    ids=["import", "cli-help"],
)
def test_lint_loads_no_simulator(code, entry):
    loaded = _loaded(code)
    assert entry in loaded  # the block did run
    assert sorted(m for m in loaded if m.startswith(SIMULATOR_PREFIXES)) == []


PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


def test_every_package_is_checked():
    assert len(PACKAGES) == 16


@pytest.mark.parametrize("name", PACKAGES)
def test_package_exports_match_their_map(name):
    package = importlib.import_module(name)
    exports = package._EXPORTS
    assert package.__all__ == list(exports)
    for export, origin in exports.items():
        module = importlib.import_module(origin)
        # A name that is its submodule's own name exports the submodule.
        expected = module if origin.endswith("." + export) else getattr(module, export)
        assert getattr(package, export) is expected, export
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(package.__all__)
