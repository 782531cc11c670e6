"""Path-scoped allowlists for the determinism linter.

An :class:`AllowRule` exempts one rule id under one ``fnmatch`` glob
(matched against the ``/``-normalized path the linter reports).  Unlike
an inline ``# detlint: disable`` comment -- which vouches for one line
-- an allowlist entry vouches for a whole subtree, so it is reserved for
code that is *categorically* outside the replayed world.

The default allowlist ships exactly one entry: DET003 (wall-clock reads)
under ``benchmarks/*``.  The perf harness times real elapsed seconds by
design; everything else that reads a clock must justify itself inline
(see the reasoned suppression of ``--profile``'s timer in
``repro/cli.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase


@dataclass(frozen=True)
class AllowRule:
    """Exempt ``rule`` for every path matching the ``pattern`` glob."""

    rule: str
    pattern: str

    @staticmethod
    def parse(spec: str) -> "AllowRule":
        """Parse the CLI spelling ``DETnnn:<glob>``."""
        rule, sep, pattern = spec.partition(":")
        if not sep or not rule.strip() or not pattern.strip():
            raise ValueError(
                f"bad --allow spec {spec!r}: expected 'DETnnn:<path glob>'"
            )
        return AllowRule(rule.strip(), pattern.strip())


DEFAULT_ALLOWLIST: tuple[AllowRule, ...] = (
    # The benchmarks measure real wall-clock by definition.
    AllowRule("DET003", "benchmarks/*"),
)


@dataclass(frozen=True)
class LintConfig:
    """Linter configuration: which findings are allowlisted away."""

    allowlist: tuple[AllowRule, ...] = DEFAULT_ALLOWLIST

    def allows(self, rule: str, path: str) -> bool:
        """True when ``rule`` at ``path`` is exempted by the allowlist."""
        return any(
            entry.rule == rule and fnmatchcase(path, entry.pattern)
            for entry in self.allowlist
        )

    def with_extra(self, extra: tuple[AllowRule, ...]) -> "LintConfig":
        return LintConfig(allowlist=self.allowlist + extra)
