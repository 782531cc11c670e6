"""Text and JSON renderings of a :class:`~repro.lint.runner.LintReport`.

Both reporters consume the same sorted finding list, so the terminal
output and the CI artifact always agree.  The JSON payload is versioned
(``"version": 1``) and key-sorted, making it diffable across commits.
"""

from __future__ import annotations

import json

from repro.lint.runner import LintReport
from repro.lint.rules import RULES


def render_text(report: LintReport) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.render() for finding in report.findings]
    if report.findings:
        lines.append("")
        for rule_id, count in report.counts.items():
            title = RULES[rule_id].title if rule_id in RULES else "unknown rule"
            lines.append(f"{rule_id} ({title}): {count}")
        lines.append(
            f"{len(report.findings)} finding(s) in {len(report.files)} file(s)"
        )
    else:
        lines.append(
            f"determinism lint clean: {len(report.files)} file(s), 0 findings"
        )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable report (the ``--format json`` / CI artifact form)."""
    payload = {
        "version": 1,
        "files_linted": len(report.files),
        "counts": report.counts,
        "findings": [finding.to_dict() for finding in report.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
