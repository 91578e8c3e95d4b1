"""Command-line front end.

Subcommands:

* ``verify <scene>`` parses a scene file, runs the requested check suites,
  prints the report to stdout, and exits with the contract code.
* ``mesh <scene> --out file.obj`` exports the surface pair (f and F) as a
  Wavefront OBJ file, slicing down to two free coordinates if needed.
* ``selftest`` runs the built-in acceptance suite, one line per criterion.

Exit codes: 0 when every check passes, 2 when one FAILs; otherwise the code
of the error kind raised (``ERROR_KINDS``), whose message goes to stderr as
one line after its prefix: 2 ``verification failure:``, 3 ``hypothesis
violated:``, 4 ``scene error:`` (usage errors included).  Numpy's
floating-point warnings are off while a command runs: the gates refuse
non-finite values themselves.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .errors import HypothesisError, SceneError, VerificationError
from .mesh import export_mesh
from .scene import MIN_GRID, _parse_project, load_scene, write_output
from .suites import run_suites

EXIT_PASS = 0
EXIT_FAIL = 2

# each error kind: its exit code and stderr prefix
ERROR_KINDS = (
    (VerificationError, EXIT_FAIL, "verification failure"),
    (HypothesisError, 3, "hypothesis violated"),
    (SceneError, 4, "scene error"),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error is unusable input
        raise SceneError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="isodeform",
        description="verify Codazzi-operator metric deformations of hypersurfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run check suites over a scene file")
    verify.add_argument("scene", help="path to a scene file")
    verify.add_argument("--json", metavar="OUT", help="also write the report as JSON")
    verify.add_argument(
        "--point",
        metavar="U1,U2,...",
        help="check a single chart point instead of the grid",
    )
    verify.add_argument(
        "--grid",
        type=int,
        metavar="N",
        help="override the scene grid resolution (same N on every axis)",
    )
    verify.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override one check tolerance (repeatable)",
    )
    verify.set_defaults(func=_cmd_verify)

    mesh = sub.add_parser("mesh", help="export the surface pair as Wavefront OBJ")
    mesh.add_argument("scene", help="path to a scene file")
    mesh.add_argument("--out", required=True, metavar="FILE", help="output OBJ path")
    mesh.add_argument(
        "--slice",
        metavar="SPEC",
        help='fix all but two coordinates, e.g. "u3=0.7" or "u3=0.5,u4=0.4"',
    )
    mesh.add_argument(
        "--project",
        metavar="I,J,K",
        help="1-based ambient coordinates to keep as x,y,z (default 1,2,3)",
    )
    mesh.set_defaults(func=_cmd_mesh)

    selftest = sub.add_parser("selftest", help="run the built-in acceptance suite")
    selftest.set_defaults(func=_cmd_selftest)
    return parser


def _parse_point(text: str, n: int) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise SceneError(f"--point: expected {n} comma-separated values, got {len(parts)}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise SceneError(f"--point: bad value in {text!r}") from None


def _parse_tols(pairs: list[str]) -> dict[str, float]:
    tols: dict[str, float] = {}
    for pair in pairs:
        name, eq, value = pair.partition("=")
        name = name.strip()
        if not eq or not name:
            raise SceneError(f"--tol: expected name=value, got {pair!r}")
        try:
            tols[name] = float(value)
        except ValueError:
            raise SceneError(f"--tol: bad value in {pair!r}") from None
    return tols


def _cmd_verify(args: argparse.Namespace) -> int:
    scene = load_scene(args.scene)
    if args.grid is not None:
        if args.grid < MIN_GRID:
            raise SceneError(f"--grid: resolution must be >= {MIN_GRID}, got {args.grid}")
        scene = dataclasses.replace(scene, grid=(args.grid,) * scene.chart.n)
    if args.tol:
        scene = dataclasses.replace(scene, tol={**scene.tol, **_parse_tols(args.tol)})
    point = _parse_point(args.point, scene.chart.n) if args.point else None
    report = run_suites(scene, point=point)
    sys.stdout.write(report.to_text())
    if args.json:
        blob = json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
        write_output(args.json, blob + "\n")
    return EXIT_PASS if not report.failed else EXIT_FAIL


def _cmd_mesh(args: argparse.Namespace) -> int:
    scene = load_scene(args.scene)
    project = None
    if args.project:
        project = _parse_project(args.project, scene.chart.ambient_dim, "--project")
    nverts, nquads = export_mesh(scene, args.out, slice_spec=args.slice, project=project)
    print(f"wrote {args.out}: 2 objects, {nverts} vertices and {nquads} quads each")
    return EXIT_PASS


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest

    return EXIT_PASS if run_selftest() else EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        with np.errstate(all="ignore"):
            return args.func(args)
    except tuple(kind for kind, _, _ in ERROR_KINDS) as exc:
        code, prefix = next((c, p) for k, c, p in ERROR_KINDS if isinstance(exc, k))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
