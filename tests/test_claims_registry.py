"""The claims registry covers every committed benchmark artifact once.

Loads ``benchmarks/claims.py`` by path and runs no simulation.  A
``results/*.txt`` file that no entry writes any more would otherwise sit
unchanged in the repository, and CI's byte-identity diff could not see it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def entries():
    spec = importlib.util.spec_from_file_location(
        "benchmark_claims", ROOT / "benchmarks" / "claims.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves string annotations through sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.ENTRIES


def test_entry_and_artifact_names_are_unique(entries):
    names = [entry.name for entry in entries]
    artifacts = [entry.artifact for entry in entries]
    assert len(set(names)) == len(names)
    assert len(set(artifacts)) == len(artifacts)


def test_entries_write_every_committed_artifact_but_the_examples(entries):
    # The examples write results/example_*.txt; CI reruns them separately.
    committed = {
        path.name
        for path in (ROOT / "results").glob("*.txt")
        if not path.name.startswith("example_")
    }
    assert {entry.artifact for entry in entries} == committed


def test_every_entry_has_claims_with_unique_names(entries):
    for entry in entries:
        names = [claim.name for claim in entry.claims]
        assert names, entry.name
        assert len(set(names)) == len(names), entry.name
