"""Run reports: per-case verdicts, totals, and emission as JSON or a table."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass
class CaseResult:
    id: str
    suite: str
    category: str
    verdict: str
    measured: dict = field(default_factory=dict)
    reason: str = ""


@dataclass
class TestReport:
    __test__ = False  # not a pytest class, despite the name

    suite: str
    cases: list[CaseResult] = field(default_factory=list)
    wall_time_s: float = 0.0
    sim_time_ns: int = 0
    infrastructure_error: str = ""

    @property
    def totals(self) -> dict:
        counts = {PASS: 0, FAIL: 0, SKIP: 0}
        for case in self.cases:
            counts[case.verdict] += 1
        return counts

    @property
    def failed(self) -> list[CaseResult]:
        return [c for c in self.cases if c.verdict == FAIL]

    def exit_code(self) -> int:
        if self.infrastructure_error:
            return 2
        return 1 if self.totals[FAIL] else 0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": [asdict(c) for c in self.cases],
            "totals": self.totals,
            "wall_time_s": self.wall_time_s,
            "sim_time_ns": self.sim_time_ns,
            "infrastructure_error": self.infrastructure_error,
        }


def emit_report(report: TestReport, format: str = "table") -> str:
    if format == "json":
        return json.dumps(report.to_dict(), indent=2)
    if format != "table":
        raise ValueError(f"unknown report format {format!r}")

    lines = []
    if report.infrastructure_error:
        lines.append(f"INFRASTRUCTURE ERROR: {report.infrastructure_error}")
    width = max([len(c.id) for c in report.cases], default=10)
    for c in report.cases:
        line = f"{c.id:<{width}}  {c.category:<14} {c.verdict.upper()}"
        if c.reason:
            line += f"  ({c.reason})"
        lines.append(line)
    totals = report.totals
    lines.append(
        f"{totals['pass']} passed, {totals['fail']} failed, {totals['skip']} skipped"
        f"  [wall {report.wall_time_s:.2f} s, sim {report.sim_time_ns / 1e6:.2f} ms]"
    )
    return "\n".join(lines)
