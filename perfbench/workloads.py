"""The benchmark's workloads: scene text drawn from a seed, and the expected
result each op is checked against.

Seed 0 gives the reference scenes exactly.  Any other seed draws the free
parameters uniformly from a fixed range; every scene in those ranges passes
with the same checks, sign, rank range and mesh size, so one expected table
per workload covers every seed.

Every workload's Q is Id - t*A, so F is the parallel hypersurface f + t*N
up to a translation.  ``deformed`` gives that from the mesh's f vertices
with the normal written out by hand, a reference for the exported F that
shares no code with isodeform.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Tuple

import numpy as np

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    reference: Dict[str, float]
    ranges: Dict[str, Tuple[float, float]]
    render: Callable[[Dict[str, str]], str]
    mesh_slice: str
    # (params, f vertices (m, 3)) -> F vertices up to a translation
    deformed: Callable[[Dict[str, str], np.ndarray], np.ndarray]

    def params(self, seed: int) -> Dict[str, str]:
        """Scene parameters as the text written into the scene."""
        if seed == 0:
            return {k: f"{v:g}" for k, v in self.reference.items()}
        rng = random.Random(f"{self.name}:{seed}")
        return {
            k: f"{rng.uniform(lo, hi):.4f}" for k, (lo, hi) in self.ranges.items()
        }

    def scene_text(self, seed: int) -> str:
        return self.render(self.params(seed))


def _pointwise(p: Dict[str, str]) -> str:
    return (
        "[chart]\ncatalog=sphcyl4\n"
        f"r={p['r']}\n"
        "[codazzi]\nvariant=parallel\n"
        f"t={p['t']}\n"
        "[run]\ngrid=7\norder=4\nsuites=geometry,codazzi\n"
    )


def _grid_pair(p: Dict[str, str]) -> str:
    return (
        "[chart]\ncatalog=sphere3\n"
        f"r={p['r']}\n"
        "[codazzi]\nvariant=parallel\n"
        f"t={p['t']}\n"
        "[run]\ngrid=9\nsuites=geometry,codazzi,deformation,roundtrip\n"
    )


def _explicit(p: Dict[str, str]) -> str:
    # Q = Id - t*A of the graph of u1^2 + 2 u2^2 + 3 u3^2, written entrywise:
    # Q^k_j = d_kj + t (d_kj - p_k p_j / W^2) h_j / W
    t = p["t"]
    w = "(sqrt(1 + 4*u1^2 + 16*u2^2 + 36*u3^2))"
    grad = ("(2*u1)", "(4*u2)", "(6*u3)")
    hess = ("2", "4", "6")
    lines = ["[chart]", "catalog=graph3", "[codazzi]", "variant=explicit"]
    for k in range(3):
        for j in range(3):
            d = "1" if k == j else "0"
            lines.append(
                f"q{k + 1}{j + 1} = {d} + {t}*({d} - {grad[k]}*{grad[j]}/{w}^2)"
                f"*{hess[j]}/{w}"
            )
    lines += ["[run]", "grid=9", "suites=geometry,codazzi,deformation"]
    return "\n".join(lines) + "\n"


def _sphere_parallel(p: Dict[str, str], f: np.ndarray) -> np.ndarray:
    # the first three coordinates lie on the round sphere of radius r about
    # the origin, whose outward normal there is f / r
    return f * (1.0 + float(p["t"]) / float(p["r"]))


def _graph_parallel(p: Dict[str, str], f: np.ndarray) -> np.ndarray:
    # f = (u, phi(u)) with grad phi = (2u1, 4u2, 6u3); the normal below the
    # graph is (grad phi, -1) / W
    grad = f * np.array([2.0, 4.0, 6.0])
    w = np.sqrt(1.0 + (grad * grad).sum(axis=-1, keepdims=True))
    return f + float(p["t"]) * grad / w


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="pointwise",
            why="order-4 jet products at batch 2401, frames and per-point "
            "SVD loops; no quadrature, no DSL parsing",
            reference={"r": 1.0, "t": 0.3},
            ranges={"r": (0.8, 1.5), "t": (0.2, 0.4)},
            render=_pointwise,
            mesh_slice="u3=0.75,u4=0",
            deformed=_sphere_parallel,
        ),
        Workload(
            name="grid_pair",
            why="shared-prefix staircase quadrature over grid lines plus the "
            "closed-form F and the pointwise deformation checks",
            reference={"r": 2.0, "t": 1.0},
            ranges={"r": (1.5, 2.5), "t": (0.5, 1.5)},
            render=_grid_pair,
            mesh_slice="u3=0.75",
            deformed=_sphere_parallel,
        ),
        Workload(
            name="explicit",
            why="F only through quadrature: single-point path integrals, DSL "
            "re-parsing per integrand call, small-batch jets, per-vertex mesh",
            reference={"t": 0.05},
            ranges={"t": (0.03, 0.07)},
            render=_explicit,
            mesh_slice="u3=0.1",
            deformed=_graph_parallel,
        ),
    )
}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def report_signature(report) -> dict:
    """The part of a report every op of a workload must reproduce."""
    return {
        "checks": [[c.suite, c.name, c.verdict] for c in report.checks],
        "sign": report.sign,
        "rank_A": [report.rank_min, report.rank_max],
    }
