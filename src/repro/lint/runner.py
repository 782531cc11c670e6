"""File discovery and the lint pipeline (``lint_paths``).

The runner is itself held to the contract it enforces: file discovery
walks directories in sorted order (``os.walk`` with sorted ``dirs`` /
``files``), so the finding list -- and therefore the CI artifact -- is
byte-identical no matter what order the filesystem returns entries in.

Pipeline per file: parse -> index suppressions -> run the per-module
rules -> collect DET006 key sites.  Then, across all files: resolve
DET006 collisions, drop allowlisted findings, drop findings with a
valid same-line suppression, and sort.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.registry import collision_findings
from repro.lint.rules import (
    KNOWN_RULE_IDS,
    ModuleContext,
    SubstreamKeySite,
    check_module,
)
from repro.lint.suppress import META_RULE, parse_suppressions


@dataclass
class LintReport:
    """Outcome of one lint run: surviving findings + what was scanned."""

    findings: list[Finding] = field(default_factory=list)
    files: list[str] = field(default_factory=list)

    @property
    def counts(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for finding in self.findings:
            totals[finding.rule] = totals.get(finding.rule, 0) + 1
        return dict(sorted(totals.items()))


def _normalize(path: str) -> str:
    return os.path.normpath(path).replace(os.sep, "/")


def discover_files(paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    found: list[str] = []
    seen: set[str] = set()
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if not d.startswith(".") and d != "__pycache__"
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        candidate = _normalize(os.path.join(root, name))
                        if candidate not in seen:
                            seen.add(candidate)
                            found.append(candidate)
        else:
            candidate = _normalize(path)
            if candidate not in seen:
                seen.add(candidate)
                found.append(candidate)
    return found


def _lint_module(
    source: str, path: str
) -> tuple[list[Finding], list[SubstreamKeySite], dict[int, frozenset[str]]]:
    """Single-file pass: findings (suppressions applied, allowlist not),
    DET006 key sites, and the line -> suppressed-rules map (so the
    cross-file pass can honour suppressions on DET006 sites too)."""
    normalized = _normalize(path)
    suppressions = parse_suppressions(source, normalized, KNOWN_RULE_IDS)
    try:
        tree = ast.parse(source, filename=normalized)
    except SyntaxError as error:
        parse_failure = Finding(
            rule=META_RULE,
            path=normalized,
            line=error.lineno or 0,
            col=(error.offset or 1) - 1,
            message=f"file does not parse: {error.msg}",
            suggestion="fix the syntax error so the file can be checked",
        )
        return [parse_failure, *suppressions.errors], [], {}
    ctx = ModuleContext.from_tree(tree, normalized)
    findings, sites = check_module(tree, ctx)
    kept = [finding for finding in findings if not suppressions.suppresses(finding)]
    kept.extend(suppressions.errors)
    return kept, sites, suppressions.by_line


def lint_source(
    source: str, path: str, config: LintConfig | None = None
) -> tuple[list[Finding], list[SubstreamKeySite]]:
    """Lint one module's source text (single-file rules only).

    Returns the per-module findings (suppressions applied, allowlist
    applied when a ``config`` is given) and the module's DET006 key
    sites for cross-file resolution.
    """
    kept, sites, _ = _lint_module(source, path)
    if config is not None:
        kept = [f for f in kept if not config.allows(f.rule, f.path)]
    return kept, sites


def lint_paths(paths: list[str], config: LintConfig | None = None) -> LintReport:
    """Lint files/directories; the public entry point behind ``repro lint``."""
    config = config or LintConfig()
    report = LintReport(files=discover_files(paths))
    all_sites: list[SubstreamKeySite] = []
    suppressed_lines: dict[str, dict[int, frozenset[str]]] = {}
    for path in report.files:
        try:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as error:
            report.findings.append(
                Finding(
                    rule=META_RULE, path=path, line=0, col=0,
                    message=f"cannot read file: {error}",
                    suggestion="check the path passed to repro lint",
                )
            )
            continue
        findings, sites, by_line = _lint_module(source, path)
        suppressed_lines[path] = by_line
        report.findings.extend(findings)
        all_sites.extend(sites)
    # Cross-file DET006 pass: collisions honour the same suppression and
    # allowlist machinery as every single-file rule.
    for finding in collision_findings(all_sites):
        if finding.rule in suppressed_lines.get(finding.path, {}).get(
            finding.line, frozenset()
        ):
            continue
        report.findings.append(finding)
    report.findings = [
        finding
        for finding in report.findings
        if not config.allows(finding.rule, finding.path)
    ]
    report.findings.sort(key=Finding.sort_key)
    return report
