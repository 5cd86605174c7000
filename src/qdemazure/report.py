"""Pass/fail reports for identity sweeps, shared by the verify suites and CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Counterexample:
    inputs: tuple
    lhs: str
    rhs: str

    def to_dict(self) -> dict:
        return {"inputs": list(self.inputs), "lhs": self.lhs, "rhs": self.rhs}


@dataclass
class VerifyReport:
    suite: str
    params: dict
    checks: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_dict(self, timestamp: bool = True) -> dict:
        out = {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "params": self.params,
            "passed": self.passed,
            "checks": self.checks,
            "counterexamples": [c.to_dict() for c in self.counterexamples],
        }
        if timestamp:
            out["timestamp"] = datetime.now(timezone.utc).isoformat()
        return out

    def to_json(self, timestamp: bool = True) -> str:
        return json.dumps(self.to_dict(timestamp=timestamp), indent=2, sort_keys=True)

    def render_text(self, max_counterexamples: int = 20) -> str:
        status = "PASS" if self.passed else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        lines = [f"{status} {self.suite} ({self.checks} checks{', ' + params if params else ''})"]
        for ce in self.counterexamples[:max_counterexamples]:
            lines.append(f"  inputs={ce.inputs}  lhs={ce.lhs}  rhs={ce.rhs}")
        extra = len(self.counterexamples) - max_counterexamples
        if extra > 0:
            lines.append(f"  ... and {extra} more counterexamples")
        return "\n".join(lines)


class Recorder:
    """Accumulates equality checks and their counterexamples for one suite."""

    def __init__(self) -> None:
        self.checks = 0
        self.counterexamples: list[Counterexample] = []

    def eq(self, inputs: tuple, lhs, rhs) -> None:
        self.checks += 1
        if lhs != rhs:
            self.counterexamples.append(Counterexample(inputs, str(lhs), str(rhs)))

    def ok(self, inputs: tuple, condition: bool, detail: str = "") -> None:
        self.checks += 1
        if not condition:
            self.counterexamples.append(Counterexample(inputs, detail or "condition", "violated"))

    def merge(self, other: Recorder | VerifyReport) -> None:
        """Add the checks and counterexamples of a sub-sweep."""
        self.checks += other.checks
        self.counterexamples.extend(other.counterexamples)

    def report(self, suite: str, params: dict) -> VerifyReport:
        ces = sorted(self.counterexamples, key=lambda c: tuple(map(str, c.inputs)))
        return VerifyReport(suite=suite, params=params, checks=self.checks, counterexamples=ces)
