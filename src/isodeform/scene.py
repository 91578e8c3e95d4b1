"""Scene files: a small line-oriented description of one verification run.

A scene selects a chart (a catalog entry or inline DSL components), a
Codazzi operator, and run settings.  The format is ``key=value`` lines
grouped under ``[section]`` headers; blank lines and lines starting with
``#`` are skipped, and values may be wrapped in double quotes::

    [chart]
    catalog=sphere3
    r=2

    [codazzi]
    variant=parallel
    t=1

    [run]
    grid=9
    order=4
    suites=geometry,codazzi,deformation,roundtrip
    tol_metric=1e-8

Inline charts replace ``catalog`` with ``n``, components ``f1``..``f{n+1}``
and one ``domain{k}=lo,hi`` interval per coordinate.  The codazzi variants
are ``parallel`` (key ``t``), ``gh`` (keys ``g``, ``h``), ``minusA`` (no
keys) and ``explicit`` (keys ``q11``..``q{n}{n}``).  ``[run]`` is optional;
so is ``[codazzi]`` when only the geometry suite is requested.  Every DSL
string is parsed, and every ``tol_`` override checked, at load time so
malformed scenes fail before any numerics run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from . import expr as exprmod
from .catalog import build as build_catalog
from .codazzi import Explicit, GHPair, MinusA, Parallel, Source, self_adjoint_violation
from .errors import SceneError
from .geometry import Chart, ValueFrame, chart_jets, make_chart
from .suites import resolve_tolerances

SUITES = ("geometry", "codazzi", "deformation", "roundtrip")

# suites that need a Codazzi operator to exist at all
_NEEDS_CODAZZI = ("codazzi", "deformation", "roundtrip")

_SECTIONS = ("chart", "codazzi", "run")

# catalog parameters that stay strings; everything else is numeric
_STRING_PARAMS = ("phi",)

_CENTER_SELF_ADJOINT_TOL = 1e-8
MIN_GRID = 3  # smallest grid resolution per axis


@dataclass(frozen=True)
class Scene:
    """A parsed, validated verification run; a dataclass, for ``dataclasses.replace``."""

    chart: Chart
    spec: Optional[Source]
    grid: Tuple[int, ...]
    order: int
    suites: Tuple[str, ...]
    tol: Mapping[str, float] = field(default_factory=dict)
    project: Optional[Tuple[int, ...]] = None
    warnings: Tuple[str, ...] = ()


def _strip_quotes(value: str) -> str:
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
        return value[1:-1]
    return value


def _split_sections(text: str) -> Dict[str, Dict[str, str]]:
    sections: Dict[str, Dict[str, str]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not (line.endswith("]") and len(line) > 2):
                raise SceneError(f"line {lineno}: malformed section header {line!r}")
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise SceneError(f"line {lineno}: unknown section: {name}")
            if name in sections:
                raise SceneError(f"line {lineno}: duplicate section: {name}")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise SceneError(f"line {lineno}: expected key=value, got {line!r}")
        if current is None:
            raise SceneError(f"line {lineno}: key outside any section: {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = _strip_quotes(value.strip())
        if not key:
            raise SceneError(f"line {lineno}: empty key")
        if key in sections[current]:
            raise SceneError(f"line {lineno}: duplicate key: {key}")
        sections[current][key] = value
    return sections


def _as_float(section: str, key: str, value: str, finite: bool = True) -> float:
    try:
        out = float(value)
    except ValueError:
        raise SceneError(f"[{section}] {key}: expected a number, got {value!r}")
    if finite and not np.isfinite(out):
        raise SceneError(f"[{section}] {key}: non-finite value {value!r}")
    return out


def _as_int(section: str, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise SceneError(f"[{section}] {key}: expected an integer, got {value!r}")


def _parse_chart(body: Dict[str, str]) -> Chart:
    if "catalog" in body:
        name = body["catalog"]
        params: Dict[str, object] = {}
        for key, value in body.items():
            if key == "catalog":
                continue
            if key in _STRING_PARAMS:
                params[key] = value
            else:
                params[key] = _as_float("chart", key, value)
        try:
            return build_catalog(name, **params)
        except KeyError as e:
            raise SceneError(str(e.args[0])) from e
        except (TypeError, ValueError) as e:
            raise SceneError(f"[chart] catalog {name}: {e}") from e

    if "n" not in body:
        raise SceneError("[chart] needs either catalog=<name> or n=<dim>")
    n = _as_int("chart", "n", body["n"])
    if n < 2:
        raise SceneError(f"[chart] n must be at least 2, got {n}")
    comps = []
    for k in range(1, n + 2):
        key = f"f{k}"
        if key not in body:
            raise SceneError(f"missing key in [chart]: {key}")
        comps.append(body[key])
    domain = []
    for k in range(1, n + 1):
        key = f"domain{k}"
        if key not in body:
            raise SceneError(f"missing key in [chart]: {key}")
        parts = body[key].split(",")
        if len(parts) != 2:
            raise SceneError(f"[chart] {key}: expected lo,hi")
        domain.append(
            (_as_float("chart", key, parts[0]), _as_float("chart", key, parts[1]))
        )
    known = {"n"} | {f"f{k}" for k in range(1, n + 2)}
    known |= {f"domain{k}" for k in range(1, n + 1)}
    for key in body:
        if key not in known:
            raise SceneError(f"unknown key in [chart]: {key}")
    return make_chart(comps, domain)


def _parse_dsl(section: str, key: str, src: str, n: int) -> None:
    # eager syntax check so bad scenes die at load time with a location
    try:
        exprmod.parse(src, n)
    except exprmod.ExprError as e:
        raise SceneError(f"[{section}] {key}: {e}") from e


def _require_keys(section: str, body: Dict[str, str], keys: set) -> None:
    for key in sorted(keys - set(body)):
        raise SceneError(f"missing key in [{section}]: {key}")
    for key in body:
        if key not in keys:
            raise SceneError(f"unknown key in [{section}]: {key}")


def _parse_codazzi(body: Dict[str, str], chart: Chart, warnings: list) -> Source:
    if "variant" not in body:
        raise SceneError("missing key in [codazzi]: variant")
    variant = body["variant"]
    n = chart.n
    if variant == "parallel":
        _require_keys("codazzi", body, {"variant", "t"})
        return Parallel(_as_float("codazzi", "t", body["t"]))
    if variant == "gh":
        _require_keys("codazzi", body, {"variant", "g", "h"})
        _parse_dsl("codazzi", "g", body["g"], n)
        _parse_dsl("codazzi", "h", body["h"], n)
        spec = GHPair(body["g"], body["h"])
        spec.asts(n)  # parsed here, so a run parses nothing
        return spec
    if variant == "minusA":
        _require_keys("codazzi", body, {"variant"})
        return MinusA()
    if variant == "explicit":
        keys = {f"q{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)}
        _require_keys("codazzi", body, {"variant"} | keys)
        for key in sorted(keys):
            _parse_dsl("codazzi", key, body[key], n)
        spec = Explicit(tuple(
            tuple(body[f"q{i}{j}"] for j in range(1, n + 1))
            for i in range(1, n + 1)
        ))
        # only a warning: the grid run performs the full check and errors
        # out, but a plainly asymmetric operator is caught at load time
        center = chart.center()
        Q = np.reshape(exprmod.eval_values(spec.asts(n), center, spec.shared), (n, n))
        g = ValueFrame(chart_jets(chart, center, order=2)).g[..., 0]
        resid = self_adjoint_violation(g, Q, _CENTER_SELF_ADJOINT_TOL)
        if resid is not None:
            warnings.append(
                f"explicit Q is not g-self-adjoint at the domain center "
                f"(residual {resid:.3e}); the grid run will reject it"
            )
        return spec
    raise SceneError(
        f"[codazzi] variant must be parallel, gh, minusA or explicit, "
        f"got {variant!r}"
    )


def _parse_grid(value: str, n: int) -> Tuple[int, ...]:
    parts = value.split(",")
    if len(parts) == 1:
        grid = (
            _as_int("run", "grid", parts[0]),
        ) * n
    elif len(parts) == n:
        grid = tuple(_as_int("run", "grid", p) for p in parts)
    else:
        raise SceneError(
            f"[run] grid: expected one value or {n} comma-separated values"
        )
    for g in grid:
        if g < MIN_GRID:
            raise SceneError(f"[run] grid: resolution must be >= {MIN_GRID}, got {g}")
    return grid


def _parse_suites(value: str) -> Tuple[str, ...]:
    names = [p.strip() for p in value.split(",") if p.strip()]
    if not names:
        raise SceneError("[run] suites: empty list")
    for name in names:
        if name not in SUITES:
            raise SceneError(
                f"[run] suites: unknown suite {name!r} (known: "
                f"{', '.join(SUITES)})"
            )
    # canonical order keeps reports deterministic regardless of spelling
    return tuple(s for s in SUITES if s in names)


def _parse_project(value: str, ambient_dim: int, where: str) -> Tuple[int, ...]:
    """Three distinct 1-based ambient coordinates for mesh export.

    ``where`` names the value's origin in messages: ``[run] project`` in a
    scene file, ``--project`` on the command line.
    """
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 3:
        raise SceneError(f"{where}: expected three coordinate indices")
    idx = []
    for p in parts:
        try:
            idx.append(int(p))
        except ValueError:
            raise SceneError(f"{where}: expected an integer, got {p!r}") from None
    if len(set(idx)) != 3:
        raise SceneError(f"{where}: indices must be distinct")
    for i in idx:
        if not (1 <= i <= ambient_dim):
            raise SceneError(f"{where}: index {i} outside 1..{ambient_dim}")
    return tuple(idx)


def _parse_run(
    body: Dict[str, str], chart: Chart
) -> Tuple[Tuple[int, ...], int, Tuple[str, ...], Dict[str, float], Optional[Tuple[int, ...]]]:
    grid: Tuple[int, ...] = (9,) * chart.n
    order = 4
    suites = SUITES
    tol: Dict[str, float] = {}
    project: Optional[Tuple[int, ...]] = None
    for key, value in body.items():
        if key == "grid":
            grid = _parse_grid(value, chart.n)
        elif key == "order":
            order = _as_int("run", "order", value)
            if order not in (2, 3, 4):
                raise SceneError(f"[run] order must be 2, 3 or 4, got {order}")
        elif key == "suites":
            suites = _parse_suites(value)
        elif key == "project":
            project = _parse_project(value, chart.ambient_dim, "[run] project")
        elif key.startswith("tol_"):
            # resolve_tolerances gates the value, as it does for --tol
            tol[key[len("tol_"):]] = _as_float("run", key, value, finite=False)
        else:
            raise SceneError(f"unknown key in [run]: {key}")
    resolve_tolerances(tol)  # names and values checked at load
    return grid, order, suites, tol, project


def parse_scene(text: str) -> Scene:
    """Parse scene text into a validated Scene (raises SceneError)."""
    sections = _split_sections(text)
    if "chart" not in sections:
        raise SceneError("missing section: chart")
    chart = _parse_chart(sections["chart"])

    warnings: list = []
    spec: Optional[Source] = None
    if "codazzi" in sections:
        spec = _parse_codazzi(sections["codazzi"], chart, warnings)

    grid, order, suites, tol, project = _parse_run(
        sections.get("run", {}), chart
    )
    if spec is None:
        needed = [s for s in suites if s in _NEEDS_CODAZZI]
        if needed:
            raise SceneError(
                f"missing section: codazzi (required by suites: "
                f"{', '.join(needed)})"
            )
    return Scene(
        chart=chart,
        spec=spec,
        grid=grid,
        order=order,
        suites=suites,
        tol=tol,
        project=project,
        warnings=tuple(warnings),
    )


def load_scene(path: str) -> Scene:
    """Read a scene file from disk and parse it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise SceneError(f"cannot read scene file {path}: {e}") from e
    return parse_scene(text)


def write_output(path: str, text: str) -> None:
    """Write a report or mesh; an unwritable path is unusable input."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise SceneError(f"cannot write output file {path}: {e}") from e
