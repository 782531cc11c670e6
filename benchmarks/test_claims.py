"""One benchmark per committed paper artifact (see ``claims.py``).

Times each entry's reducer (a sweep once, with ``pedantic``), prints the
artifact with its paper-number and diagnostic lines, saves it under
``results/``, and fails listing every claim whose margin misses.
"""

import pytest

from claims import ENTRIES, evaluate
from repro.analysis import save_artifact


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: entry.name)
def test_claims(benchmark, suites, entry):
    if entry.sweep:
        run = lambda reduce: benchmark.pedantic(reduce, rounds=1, iterations=1)
    else:
        run = benchmark
    artifact, margins = evaluate(entry, suites, run)
    print("\n" + artifact.text)
    for note in artifact.notes:
        print(note)
    save_artifact(entry.artifact, artifact.text)

    missed = [
        f"{claim.name}: margin {margins[claim.name]!r} "
        f"(holds iff {'>' if claim.strict else '>='} 0)"
        for claim in entry.claims
        if not claim.holds(margins[claim.name])
    ]
    assert not missed, f"{entry.name} claims missed:\n" + "\n".join(missed)
