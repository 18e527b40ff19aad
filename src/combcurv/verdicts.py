"""Pass/fail results carrying explicit combinatorial witnesses.

Every checker in the package returns a :class:`Verdict` rather than a bare
boolean: a failing verdict always names the offending configuration (a
cycle, a wheel, a dwheel, a simplex, or a condition-instance record) so it
can be re-validated independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


def witness_json(obj: Any) -> Any:
    """Best-effort JSON form of a witness object."""
    if obj is None:
        return None
    to_json = getattr(obj, "to_json", None)
    if callable(to_json):
        return to_json()
    if isinstance(obj, (list, tuple)):
        return [witness_json(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): witness_json(v) for k, v in obj.items()}
    return obj


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check.

    ``witness`` is present whenever ``passed`` is False.  It names the
    least offender in a fixed order, so it depends on the complex alone and
    not on the layout of its sets.  ``stats`` holds counts gathered during
    the check (enumerated objects, instances tried).

    An aggregate report (``build_cover``, ``sd_prime``,
    ``validate_closed_3manifold``) carries no witness of its own: its
    witness lives in its parts, the failing verdicts it holds.
    """

    check: str
    passed: bool
    detail: str = ""
    witness: Any = None
    stats: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def __bool__(self) -> bool:
        return self.passed

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "detail": self.detail,
            "witness": witness_json(self.witness),
            "stats": dict(self.stats),
        }


def passed(check: str, detail: str = "", **stats) -> Verdict:
    return Verdict(check=check, passed=True, detail=detail, stats=stats)


def failed(check: str, witness: Any, detail: str = "", **stats) -> Verdict:
    return Verdict(check=check, passed=False, detail=detail, witness=witness, stats=stats)

