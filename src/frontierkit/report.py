"""Structured pass/fail reports emitted by the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass
class Check:
    check_id: str
    passed: bool
    worst_violation: float = 0.0
    location: str = ""
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"[{status}] {self.check_id}"
        if self.worst_violation:
            out += f"  worst={self.worst_violation:.3e}"
        if self.location:
            out += f"  at {self.location}"
        if self.note:
            out += f"  ({self.note})"
        return out


@dataclass
class VerificationReport:
    suite: str
    checks: list[Check] = field(default_factory=list)

    def add(
        self,
        check_id: str,
        passed: bool,
        worst_violation: float = 0.0,
        location: str = "",
        note: str = "",
    ) -> None:
        self.checks.append(
            Check(check_id, bool(passed), float(worst_violation), location, note)
        )

    def extend(self, prefix: str, sub: VerificationReport) -> None:
        """Add every check of ``sub``, its id prefixed with ``prefix``."""
        self.checks += [replace(c, check_id=prefix + c.check_id) for c in sub.checks]

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, check_id: str) -> Check:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)

    def render(self) -> str:
        lines = [f"suite: {self.suite}"]
        lines += [c.line() for c in sorted(self.checks, key=lambda c: c.check_id)]
        lines.append(f"overall: {'PASS' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines)
