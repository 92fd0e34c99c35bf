"""Pass/fail records for the statistical verification checks."""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field

import numpy

__all__ = ["CheckResult", "Report"]


def _versions() -> dict:
    """Versions of circkrig, numpy, scipy and python, for reports."""
    # Imported here, not with the module, so that importing circkrig
    # loads no scipy: only a linear solve needs it.
    import scipy

    from . import __version__  # the package defines it after its imports
    return {"circkrig": __version__, "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version()}


@dataclass(frozen=True)
class CheckResult:
    """One named check: a statistic compared against a threshold.

    ``passed`` is authoritative; for most checks it means
    ``statistic <= threshold``, but some checks (sample-size guards,
    negative controls) compare the other way and say so in ``detail``.
    """

    name: str
    statistic: float
    threshold: float
    passed: bool
    detail: str = ""

    def to_record(self) -> dict:
        rec = {
            "check_name": self.name,
            "statistic": float(self.statistic),
            "threshold": float(self.threshold),
            "pass": bool(self.passed),
        }
        if self.detail:
            rec["detail"] = self.detail
        return rec

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (f"{status}  {self.name}: statistic {self.statistic:.6g} "
               f"vs threshold {self.threshold:.6g}")
        if self.detail:
            out += f" ({self.detail})"
        return out


@dataclass
class Report:
    """An ordered collection of check results."""

    results: list[CheckResult] = field(default_factory=list)
    # Free-form diagnostic payload (raw statistics, sample moments);
    # never serialized.
    context: dict = field(default_factory=dict)
    # Wall seconds per suite name, as run by ``run_verification``.
    seconds: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def extend(self, other: "Report", prefix: str = "") -> None:
        for r in other.results:
            if prefix:
                r = CheckResult(f"{prefix}{r.name}", r.statistic,
                                r.threshold, r.passed, r.detail)
            self.results.append(r)

    def to_records(self) -> list[dict]:
        return [r.to_record() for r in self.results]

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pass": self.passed, "versions": _versions(),
                       "seconds": self.seconds,
                       "checks": self.to_records()}, fh, indent=2)
            fh.write("\n")
