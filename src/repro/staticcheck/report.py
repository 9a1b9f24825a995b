"""The static checker's report: rule violations in the shared format.

A run produces one :class:`Violation` per finding and folds them into a
:class:`StaticReport` — the static mirror of
:class:`~repro.core.litmus.LitmusReport`, built on the same
:class:`~repro.core.report.CheckResult`/:class:`~repro.core.report.Report`
types so CI and tests consume both checkers' output identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..core.errors import LitmusFailure
from ..core.report import CheckResult, Report

ERROR = "error"
WARNING = "warning"

#: Every rule the checker knows, in report order, with the litmus test
#: it statically mirrors.
ALL_RULES: tuple[tuple[str, str], ...] = (
    ("layer-order", "T1"),
    ("import-cycle", "T1"),
    ("state-reach", "T3"),
    ("foreign-header-field", "T3"),
    ("undeclared-primitive", "T2"),
    ("interface-width", "T2"),
)

#: The symbolic data-plane rules (``--flow``): reachability properties
#: (no-escape, blackhole-freedom, loop-freedom) roll up under T4,
#: tenant isolation under T5.
FLOW_RULES: tuple[tuple[str, str], ...] = (
    ("flow-reachability", "T4"),
    ("flow-isolation", "T5"),
)


@dataclass(frozen=True)
class Violation:
    """One static finding, anchored to a source location."""

    rule: str
    severity: str  # ERROR or WARNING
    module: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        location = f"{self.path}:{self.line}" if self.line else self.path
        return f"{location}: {self.severity}: [{self.rule}] {self.message}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "module": self.module,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


@dataclass
class StaticReport(Report):
    """Per-rule results plus the flat violation list."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def errors(self) -> list[Violation]:
        return [v for v in self.violations if v.severity == ERROR]

    @property
    def warnings(self) -> list[Violation]:
        return [v for v in self.violations if v.severity == WARNING]

    def require(self) -> None:
        """Raise :class:`LitmusFailure` on the first failed rule."""
        for r in self.results:
            if not r.passed:
                raise LitmusFailure(r.name, "; ".join(r.details) or "failed")

    def to_dict(self) -> dict[str, Any]:
        data = super().to_dict()
        data["violations"] = [v.to_dict() for v in self.violations]
        return data

    def as_dict(self) -> dict[str, Any]:
        """Canonical machine-readable form (the ``--format json`` payload).

        Deterministically ordered: rules in declaration order, violations
        sorted by (rule, path, line) — diff-clean across runs.
        """
        return {
            "passed": self.passed,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "results": [r.to_dict() for r in self.results],
            "violations": [v.to_dict() for v in self.violations],
        }

    def text(self) -> str:
        """Human-readable emitter: one line per violation, then summary."""
        lines = [v.format() for v in self.violations]
        lines.append(self.summary())
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )
        return "\n".join(lines)

    def github(self) -> str:
        """GitHub Actions workflow-command emitter (``--format github``).

        One ``::error``/``::warning`` annotation per violation — the
        Checks UI pins each finding to its file and line — plus a
        ``::notice`` summary so a clean run still leaves a mark.
        """
        lines = []
        for v in self.violations:
            command = "error" if v.severity == ERROR else "warning"
            location = f"file={v.path}" + (f",line={v.line}" if v.line else "")
            lines.append(
                f"::{command} {location},title=staticcheck {v.rule}::"
                f"{_escape_property(v.message)}"
            )
        passing = sum(1 for r in self.results if r.passed)
        lines.append(
            f"::notice title=staticcheck::{passing}/{len(self.results)} "
            f"rules passed — {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        )
        return "\n".join(lines)


def build_report(
    violations: list[Violation],
    checked_modules: int,
    strict: bool = False,
    base_dir: str | Path | None = None,
    rules: tuple[tuple[str, str], ...] = ALL_RULES,
) -> StaticReport:
    """Fold violations into per-rule :class:`CheckResult` entries.

    A rule fails on any error-severity violation (or any violation at
    all under ``strict``).  ``base_dir`` relativises paths for stable,
    machine-independent output.  ``rules`` is the set reported on —
    ``ALL_RULES`` plus ``FLOW_RULES`` when the flow analyzer ran.
    """
    if base_dir is not None:
        violations = [_relativize(v, Path(base_dir)) for v in violations]
    ordered = sorted(violations, key=lambda v: (v.rule, v.path, v.line))
    results: list[CheckResult] = []
    for rule, litmus in rules:
        mine = [v for v in ordered if v.rule == rule]
        failing = [
            v for v in mine if v.severity == ERROR or (strict and mine)
        ]
        results.append(
            CheckResult(
                name=rule,
                passed=not failing,
                details=[v.format() for v in mine],
                metrics={
                    "litmus": litmus,
                    "errors": sum(1 for v in mine if v.severity == ERROR),
                    "warnings": sum(1 for v in mine if v.severity == WARNING),
                    "checked_modules": checked_modules,
                },
            )
        )
    return StaticReport(results=results, violations=ordered)


def _escape_property(value: str) -> str:
    """Escape a workflow-command property value (GitHub's own rules)."""
    return (
        value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def _relativize(violation: Violation, base: Path) -> Violation:
    try:
        relative = Path(violation.path).resolve().relative_to(base.resolve())
    except ValueError:
        return violation
    return Violation(
        rule=violation.rule,
        severity=violation.severity,
        module=violation.module,
        path=str(relative),
        line=violation.line,
        message=violation.message,
    )
