"""Structured verification reports.

A report is a list of named checks, each carrying the max and mean of a
residual field, the sample point where the max occurred, the tolerance in
force, and the resulting verdict, plus global facts about the run (chart,
grid, certified rank range of the shape operator, the resolved deformation
sign, wall time).

Serialization is line-oriented ``key: value`` text designed to be byte
stable: two runs of the same scene produce identical bytes except for the
``wall_time_s`` line.  ``to_json_dict`` gives the same content as a plain
dict for machine consumption.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .record import Record

PASS = "pass"
FAIL = "FAIL"
SKIP = "skip"


class CheckResult(Record):
    """Outcome of one named residual check."""

    __slots__ = ("suite", "name", "max_residual", "mean_residual", "worst_point",
                 "tolerance", "verdict", "note")
    _key = lambda self: tuple(getattr(self, k) for k in self.__slots__)

    def __init__(self, suite: str, name: str, max_residual: float, mean_residual: float,
                 worst_point: Optional[Tuple[float, ...]], tolerance: float, verdict: str,
                 note: str = ""):
        self.suite, self.name, self.verdict, self.note = suite, name, verdict, note
        self.max_residual, self.mean_residual = max_residual, mean_residual
        self.worst_point, self.tolerance = worst_point, tolerance


def check_from_field(
    suite: str,
    name: str,
    residual_field: np.ndarray,
    points: Optional[np.ndarray],
    tolerance: float,
    note: str = "",
) -> CheckResult:
    """Reduce a per-point residual field to a CheckResult.

    ``points`` has one row per field entry; argmax picks the first worst
    point so reports are deterministic.
    """
    flat = np.asarray(residual_field, dtype=float).reshape(-1)
    idx = int(np.argmax(flat))
    worst = None
    if points is not None:
        pts = np.asarray(points, dtype=float).reshape(len(flat), -1)
        worst = tuple(float(x) for x in pts[idx])
    mx = float(flat[idx])
    verdict = PASS if mx <= tolerance else FAIL
    return CheckResult(suite, name, mx, float(flat.mean()), worst, tolerance, verdict, note)


def check_skipped(
    suite: str, name: str, tolerance: float, note: str
) -> CheckResult:
    return CheckResult(suite, name, math.nan, math.nan, None, tolerance, SKIP, note)


class VerificationReport:
    """Everything a verification run asserts, in one serializable object."""

    def __init__(self, chart_label: str, n: int, ambient_dim: int, grid: Tuple[int, ...],
                 order: int, suites: Tuple[str, ...], rank_min: int, rank_max: int,
                 sign: Optional[int], warnings: Tuple[str, ...], checks: List[CheckResult],
                 wall_time: float):
        self.chart_label, self.n, self.ambient_dim, self.grid = chart_label, n, ambient_dim, grid
        self.order, self.suites, self.rank_min, self.rank_max = order, suites, rank_min, rank_max
        self.sign, self.warnings, self.checks, self.wall_time = sign, warnings, checks, wall_time

    @property
    def failed(self) -> List[CheckResult]:
        return [c for c in self.checks if c.verdict == FAIL]

    @property
    def passed(self) -> bool:
        return not self.failed

    def find(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r}")

    def to_text(self) -> str:
        lines = [
            "report: isodeform",
            f"chart: {self.chart_label}",
            f"n: {self.n}",
            f"ambient: {self.ambient_dim}",
            "grid: " + ",".join(str(g) for g in self.grid),
            f"order: {self.order}",
            "suites: " + ",".join(self.suites),
            f"rank_A: {self.rank_min}..{self.rank_max}",
            f"sign: {_fmt_sign(self.sign)}",
            f"warnings: {len(self.warnings)}",
        ]
        lines += [f"warning: {w}" for w in self.warnings]
        for c in self.checks:
            lines += [
                "",
                f"check: {c.name}",
                f"suite: {c.suite}",
                f"max_residual: {_fmt_res(c.max_residual)}",
                f"mean_residual: {_fmt_res(c.mean_residual)}",
                f"worst_point: {_fmt_point(c.worst_point)}",
                f"tolerance: {c.tolerance:.1e}",
                f"verdict: {c.verdict}",
            ]
            if c.note:
                lines.append(f"note: {c.note}")
        lines += [
            "",
            f"checks: {len(self.checks)}",
            f"failed: {len(self.failed)}",
            f"result: {PASS if self.passed else FAIL}",
            f"wall_time_s: {self.wall_time:.3f}",
        ]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "chart": self.chart_label,
            "n": self.n,
            "ambient": self.ambient_dim,
            "grid": list(self.grid),
            "order": self.order,
            "suites": list(self.suites),
            "rank_A": [self.rank_min, self.rank_max],
            "sign": self.sign,
            "warnings": list(self.warnings),
            "checks": [
                {
                    "name": c.name,
                    "suite": c.suite,
                    "max_residual": _json_num(c.max_residual),
                    "mean_residual": _json_num(c.mean_residual),
                    "worst_point": (
                        list(c.worst_point) if c.worst_point is not None else None
                    ),
                    "tolerance": c.tolerance,
                    "verdict": c.verdict,
                    "note": c.note,
                }
                for c in self.checks
            ],
            "result": PASS if self.passed else FAIL,
            "wall_time_s": self.wall_time,
        }


def _fmt_sign(sign: Optional[int]) -> str:
    if sign is None:
        return "-"
    return f"{sign:+d}"


def _fmt_res(v: float) -> str:
    if math.isnan(v):
        return "-"
    return f"{v:.6e}"


def _fmt_point(p: Optional[Sequence[float]]) -> str:
    if p is None:
        return "-"
    return ",".join(f"{x:.6f}" for x in p)


def _json_num(v: float) -> Optional[float]:
    return None if math.isnan(v) else v
