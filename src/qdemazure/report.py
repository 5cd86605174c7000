"""The pass/fail report of an identity sweep: each suite records its checks
into the VerifyReport it returns, and the CLI formats it."""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone

SCHEMA_VERSION = 1

# counterexamples listed by render_text; the rest are only counted
MAX_SHOWN = 20


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

    def eq(self, inputs: tuple, lhs, rhs) -> None:
        self.checks += 1
        if lhs != rhs:
            self.counterexamples.append(Counterexample(inputs, str(lhs), str(rhs)))

    def ok(self, inputs: tuple, condition: bool, detail: str = "") -> None:
        self.checks += 1
        if not condition:
            self.counterexamples.append(Counterexample(inputs, detail or "condition", "violated"))

    def merge(self, other: VerifyReport) -> None:
        """Add the checks and counterexamples of a sub-sweep."""
        self.checks += other.checks
        self.counterexamples.extend(other.counterexamples)

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

    def render_text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        lines = [f"{status} {self.suite} ({self.checks} checks{', ' + params if params else ''})"]
        for ce in self.counterexamples[:MAX_SHOWN]:
            lines.append(f"  inputs={ce.inputs}  lhs={ce.lhs}  rhs={ce.rhs}")
        extra = len(self.counterexamples) - MAX_SHOWN
        if extra > 0:
            lines.append(f"  ... and {extra} more counterexamples")
        return "\n".join(lines)
