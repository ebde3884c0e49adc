"""Structured findings shared by every ``repro check`` analyzer.

A :class:`CheckFinding` is one defect at one place — a (file, line,
rule, severity, message) record the linter, the graph validator, the
race detector, and the allocator checker all emit, so one report
format (text or JSON) and one CI gate cover all four. Deliberate
exceptions are written down next to the code they excuse with an
inline ``# repro: allow(<rule>)`` comment, which the analyzers honor
and count instead of silently dropping.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

#: finding severities, in gate order
SEVERITIES = ("error", "warning")

#: inline suppression: ``# repro: allow(rule-a, rule-b)`` or ``allow(*)``
SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\(([^)]*)\)")


@dataclass
class CheckFinding:
    """One defect: where, which rule, how bad, and what happened."""

    rule: str
    severity: str
    message: str
    file: str = "<runtime>"
    line: int = 0
    check: str = ""  #: originating analyzer: lint|graph|races|leaks

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}, "
                             f"got {self.severity!r}")

    def format(self) -> str:
        where = f"{self.file}:{self.line}" if self.line else self.file
        return f"{where}: {self.severity}: [{self.rule}] {self.message}"

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "check": self.check,
        }


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number (1-based) -> rule names allowed on that line.

    The wildcard ``*`` allows every rule on its line.
    """
    out: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = SUPPRESS_RE.search(text)
        if m:
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            if rules:
                out[lineno] = rules
    return out


def is_suppressed(
    finding: CheckFinding, suppressions: Dict[int, Set[str]]
) -> bool:
    allowed = suppressions.get(finding.line, set())
    return finding.rule in allowed or "*" in allowed


def call_site(skip_substrings: Iterable[str] = ("repro/check/",)) -> tuple:
    """(file, line) of the nearest caller outside the check package.

    Runtime analyzers (races, leaks) attribute findings to the code
    that performed the offending access, not to the shim observing it.
    """
    frame = sys._getframe(1)
    while frame is not None:
        fname = frame.f_code.co_filename.replace("\\", "/")
        if not any(s in fname for s in skip_substrings):
            return fname, frame.f_lineno
        frame = frame.f_back
    return "<unknown>", 0


@dataclass
class CheckReport:
    """All findings of one ``repro check`` invocation."""

    findings: List[CheckFinding] = field(default_factory=list)
    suppressed: int = 0
    meta: Dict[str, object] = field(default_factory=dict)

    def extend(self, findings: Iterable[CheckFinding], check: str = "") -> None:
        for f in findings:
            if check and not f.check:
                f.check = check
            self.findings.append(f)

    def merge(self, other: "CheckReport") -> None:
        self.findings.extend(other.findings)
        self.suppressed += other.suppressed
        self.meta.update(other.meta)

    @property
    def errors(self) -> List[CheckFinding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[CheckFinding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def exit_code(self) -> int:
        """The CI gate: any non-suppressed finding fails the check."""
        return 1 if self.findings else 0

    def render_text(self) -> str:
        lines: List[str] = []
        for f in sorted(
            self.findings, key=lambda f: (f.check, f.file, f.line, f.rule)
        ):
            lines.append(f.format())
        lines.append(
            f"{len(self.findings)} finding(s) "
            f"({len(self.errors)} error(s), {len(self.warnings)} warning(s)), "
            f"{self.suppressed} suppressed"
        )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "findings": [f.as_dict() for f in self.findings],
            "counts": {
                "total": len(self.findings),
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "suppressed": self.suppressed,
            },
            "meta": self.meta,
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
