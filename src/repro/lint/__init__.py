"""Static enforcement of the determinism contract (``repro lint``).

Every result this repository reproduces rests on the contract documented
in :mod:`repro.core.rng`: byte-identical replays across serial/parallel
sweeps, kernels, and chaos-on/chaos-off baselines.
The regression tests enforce that contract *dynamically* -- they catch a
violation only on the inputs they happen to replay.  This package
enforces it *statically*: an ``ast``-based pass (no third-party
dependencies) that rejects known determinism hazards at review time,
before a sweep can silently diverge.

The rule set (see :data:`repro.lint.rules.RULES` for the registry):

======  ==============================================================
DET000  malformed ``detlint`` suppression comment / unparseable file
DET001  stdlib ``random`` or ``np.random`` global-state draws
DET002  unseeded ``np.random.default_rng()`` / ``Generator`` outside
        :func:`repro.core.rng.substream`
DET003  wall-clock reads (``time.time``, ``perf_counter``,
        ``datetime.now``, ...) in replayed code
DET004  RNG draws / ``substream()`` derivation inside iteration over
        unordered collections (set literals, un-``sorted`` dict views,
        ``os.listdir`` / ``glob``)
DET005  builtin salted ``hash()`` used where a seed or substream key
        could flow (use :func:`repro.core.rng.derive_seed`)
DET006  two call sites deriving the *same* fully-constant substream
        key path (whole-repo registry; cross-file)
DET007  ``os.environ`` / ``os.getenv`` reads inside the simulation
        core (``repro.simulation``, ``repro.serving``, ``repro.chaos``)
======  ==============================================================

Findings can be silenced two ways, both auditable:

* a path-scoped allowlist entry (:class:`repro.lint.config.AllowRule`),
  e.g. the default ``DET003 -> benchmarks/*`` entry -- the perf harness
  times wall-clock by design; or
* an inline ``# detlint: disable=DETnnn -- <reason>`` comment on the
  offending line.  The reason is *mandatory*: a suppression without one
  is itself reported (DET000) and does not suppress anything.

Entry points: :func:`lint_paths` (library), ``repro lint [paths]``
(CLI; exit 1 on findings), and the self-lint gate in
``tests/test_lint.py`` which keeps ``src/`` clean in CI.
"""

from __future__ import annotations

from repro.lint.config import AllowRule, DEFAULT_ALLOWLIST, LintConfig
from repro.lint.findings import Finding
from repro.lint.reporters import render_json, render_text
from repro.lint.rules import RULES, Rule
from repro.lint.runner import LintReport, discover_files, lint_paths, lint_source

__all__ = [
    "AllowRule",
    "DEFAULT_ALLOWLIST",
    "Finding",
    "LintConfig",
    "LintReport",
    "RULES",
    "Rule",
    "discover_files",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
]
