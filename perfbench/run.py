"""isodeform benchmark: one workload per call, closed loop, one op at a time.

    python3 perfbench/run.py --workload pointwise|grid_pair|explicit|all
                             [--seed N] [--seconds S] [--trace 0|1]

An op is one verify (``run_suites``, then ``to_text`` and ``to_json_dict``)
followed by ``export_mesh`` on a two-coordinate slice, repeated until the
op has MESH_MIN_EXPORTS exports that add up to MESH_BUDGET_S.  Every op is
checked against the workload's expected table (``expected.json``) and
every exported F against the parallel hypersurface f + t*N
(workloads.py); an op that raises or differs is counted as failed and its
times are not used.  Ops run back to back in one warm process until the
next one would end more than half of its length past ``--seconds``, with
at least MIN_OPS ops.  The BLAS thread count is pinned to BLAS_THREADS
before numpy loads.

``--trace 0`` reports the end-to-end metrics.  verify_s and mesh_s are
medians of wall times, each scaled by the host speed factor sampled while
it ran (calibration.py).  setup_s is the median over SETUP_PROBES fresh
interpreters, run a few before each op, of the set-up's CPU time scaled
by the same interpreter's numpy import (setup_probe.py).  The medians as
measured are printed beside them and kept in the record.  ``--trace 1``
alternates untraced and traced ops and reports the per-layer metrics of
the traced ones (see layertrace.py).  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the full
record (seed, scene text, commit, environment, every sample, and in traced
runs the spans) goes to perfbench/out/.  ``--workload all`` runs every
workload in its own process.
"""

import os

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
from dataclasses import dataclass  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from calibration import CAL_REF_S, Calibrator  # noqa: E402
from workloads import WORKLOADS, Workload, load_expected, report_signature  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 2
SETUP_PROBES = 12
SETUP_PROBES_PER_OP = 4
# about the CPU seconds of `import numpy` in a fresh interpreter on a quiet
# shared 2-core virtual machine; it sets the scale of setup_s
NUMPY_IMPORT_REF_S = 0.1
# a closed-form mesh takes about 10 ms and a path-integrated one seconds;
# both get several samples per run
MESH_MIN_EXPORTS = 2
MESH_BUDGET_S = 0.5
# largest deviation, per coordinate, of an exported F vertex from the
# parallel-hypersurface reference after both are moved to agree at the
# first vertex; the OBJ file keeps 8 decimals
MESH_TOL = 1e-6
MICRO_BATCH = 1024
MICRO_SPACES = ((3, 2), (3, 4), (4, 2), (4, 4))

UNITS = {
    "verify_s": "s",
    "mesh_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "margin_digits": "digits",
}


# ------------------------------------------------------------ bookkeeping


@dataclass
class Case:
    """What every op of a run works on."""

    iso: object  # the isodeform module
    wl: Workload
    params: dict
    scene: object
    scene_path: Path
    mesh_path: Path
    expected: dict


def git_commit(root: Path):
    """HEAD of the checkout; None when it is not a git repository of its
    own or git is missing."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, which identifies the code measured
    also where there is no commit."""
    h = hashlib.sha256()
    for path in sorted((src / "isodeform").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "platform": platform.platform(),
    }


def median(xs):
    return statistics.median(xs) if xs else None


def tail_percentile(xs):
    """Highest of p99..p50 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(xs) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(xs, n=100, method="inclusive")[p - 1]
    return None


def margin_digits(report) -> float:
    """min over non-skipped checks of log10(tolerance / max_residual); an
    exactly zero residual has no finite margin and is left out."""
    return min(
        math.log10(c.tolerance / c.max_residual)
        for c in report.checks
        if c.verdict != "skip" and c.max_residual > 0
    )


def without_wall_time(text: str) -> str:
    return "".join(
        line for line in text.splitlines(True) if not line.startswith("wall_time_s:")
    )


# -------------------------------------------------------------------- ops


def verify_op(case: Case, scene, taken=()) -> dict:
    """run_suites plus rendering, timed; checked against the expected table.
    `taken` is the calibration sample list the kernel appends to meanwhile,
    whose time is left out."""
    n0, t0 = len(taken), time.perf_counter()
    report = case.iso.run_suites(scene)
    text = report.to_text()
    report.to_json_dict()
    seconds = time.perf_counter() - t0 - sum(taken[n0:])
    sig = report_signature(report)
    want = {k: case.expected[k] for k in sig}
    errors = [f"{k}: got {sig[k]}, expected {want[k]}" for k in sig if sig[k] != want[k]]
    return {
        "seconds": seconds,
        "text": text,
        "margin_digits": margin_digits(report),
        "errors": errors,
    }


def mesh_errors(case: Case, counts) -> list:
    """The exported file against the expected counts, and its F vertices
    against the parallel-hypersurface reference."""
    if list(counts) != case.expected["mesh"]:
        return [f"mesh: got {list(counts)}, expected {case.expected['mesh']}"]
    lines = case.mesh_path.read_text().splitlines()
    nverts, nquads = counts
    nfaces = sum(1 for ln in lines if ln.startswith("f "))
    verts = np.array([ln.split()[1:] for ln in lines if ln.startswith("v ")], dtype=float)
    if verts.shape != (2 * nverts, 3) or nfaces != 2 * nquads:
        return [f"mesh file: {verts.shape} vertex coordinates and {nfaces} face lines"]
    f, F = verts[:nverts], verts[nverts:]
    off = F - case.wl.deformed(case.params, f)
    dev = float(np.abs(off - off[0]).max())
    if not dev <= MESH_TOL:
        return [f"mesh: F is {dev:.3g} off f + t*N, more than {MESH_TOL}"]
    return []


def mesh_op(case: Case, scene, taken=()) -> dict:
    """One export_mesh, timed as verify_op is; counts, file and F vertices
    checked."""
    n0, t0 = len(taken), time.perf_counter()
    counts = case.iso.export_mesh(scene, str(case.mesh_path), slice_spec=case.wl.mesh_slice)
    seconds = time.perf_counter() - t0 - sum(taken[n0:])
    return {"seconds": seconds, "errors": mesh_errors(case, counts)}


def run_op(case: Case, min_exports, mesh_budget, cal=None) -> dict:
    """One op: a verify, then at least min_exports mesh exports, and more
    until they add up to mesh_budget seconds.  With a calibrator, the kernel
    is sampled all through the op, and the verify and the exports each get
    the host speed factor of their own samples."""
    op = {"verify_s": None, "mesh_s": [], "margin_digits": None, "errors": []}
    t0 = time.perf_counter()
    try:
        with cal.sampling() if cal else contextlib.nullcontext([]) as taken:
            v = verify_op(case, case.scene, taken)
            op.update(verify_s=v["seconds"], margin_digits=v["margin_digits"], text=v["text"])
            op["errors"] += v["errors"]
            n_verify = len(taken)
            while True:
                m = mesh_op(case, case.scene, taken)
                op["mesh_s"].append(m["seconds"])
                op["errors"] += m["errors"]
                if len(op["mesh_s"]) >= min_exports and sum(op["mesh_s"]) >= mesh_budget:
                    break
        if cal:
            op["verify_factor"] = cal.factor(taken[:n_verify])
            op["mesh_factor"] = cal.factor(taken[n_verify:])
    except Exception:  # a raising op is a failed op: record it, keep measuring
        op["errors"].append(traceback.format_exc())
    op["seconds"] = time.perf_counter() - t0
    return op


def closed_loop(seconds: float, min_ops: int, op_fn) -> list:
    """Run ops back to back while the next one is expected to end no more
    than half its length past the window, and at least min_ops times."""
    ops = []
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        ops.append(op_fn())
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if len(ops) >= min_ops and elapsed + 0.5 * last > seconds:
            return ops


def warm_up(case: Case):
    """The pointwise suites and the mesh on the 3^n version of the scene:
    they fill the jet-space caches and first-call paths, the mesh through
    quadrature too, in well under a second."""
    scene = case.scene
    small = dataclasses.replace(
        scene,
        grid=(3,) * scene.chart.n,
        suites=tuple(s for s in scene.suites if s in ("geometry", "codazzi")),
    )
    case.iso.run_suites(small).to_text()
    case.iso.export_mesh(small, str(case.mesh_path), slice_spec=case.wl.mesh_slice)


def setup_probe(case: Case) -> tuple:
    """One fresh-interpreter set-up: (wall seconds as measured, scaled
    seconds).  The scaled time is the set-up's CPU time in units of the same
    interpreter's numpy import, times NUMPY_IMPORT_REF_S: a slow or busy
    host stretches both alike, so the ratio stays, while a slower
    isodeform import or load_scene moves only the numerator."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(case.scene_path)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    numpy_cpu, cpu, wall = (float(x) for x in proc.stdout.split())
    return wall, cpu / numpy_cpu * NUMPY_IMPORT_REF_S


def jet_micro(seed: int) -> dict:
    """Microseconds of one jet product at batch MICRO_BATCH, per (n, K)."""
    from isodeform.jet import JetScalar, jet_space

    rng = np.random.default_rng(seed)
    out = {}
    for n, k in MICRO_SPACES:
        sp = jet_space(n, k)
        a = JetScalar(sp, rng.standard_normal((sp.size, MICRO_BATCH)))
        b = JetScalar(sp, rng.standard_normal((sp.size, MICRO_BATCH)))
        reps = []
        for _ in range(7):
            t0 = time.perf_counter()
            for _ in range(20):
                a * b
            reps.append((time.perf_counter() - t0) / 20)
        out[f"jet.mul_us.n{n}k{k}"] = statistics.median(reps) * 1e6
    return out


# ------------------------------------------------------------------- runs


def end_to_end(case: Case, seconds):
    cal = Calibrator()
    probes = []

    def probes_then_op():
        for _ in range(min(SETUP_PROBES_PER_OP, SETUP_PROBES - len(probes))):
            probes.append(setup_probe(case))
        return run_op(case, MESH_MIN_EXPORTS, MESH_BUDGET_S, cal)

    warm_up(case)
    ops = closed_loop(seconds, MIN_OPS, probes_then_op)
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(case))
    valid = [o for o in ops if not o["errors"]]
    samples = {
        "verify_s": [o["verify_s"] for o in valid],
        "mesh_s": [t for o in valid for t in o["mesh_s"]],
        "setup_s": [wall for wall, _ in probes],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
        "margin_digits": [o["margin_digits"] for o in valid],
    }
    calibrated = {
        "verify_s": [o["verify_s"] * o["verify_factor"] for o in valid],
        "mesh_s": [t * o["mesh_factor"] for o in valid for t in o["mesh_s"]],
        "setup_s": [scaled for _, scaled in probes],
    }
    wall = {name: median(xs) for name, xs in samples.items()}
    metrics = {name: median(calibrated.get(name, xs)) for name, xs in samples.items()}
    return ops, metrics, samples, {
        "wall": wall, "calibrated": calibrated, "calibration_s": cal.samples,
    }


def traced_layers(case: Case, seconds, seed):
    from layertrace import Recorder, layer_metrics, traced

    warm_up(case)
    untraced, layer_runs, recorders = [], [], []

    def pair():
        plain = run_op(case, 1, 0.0)
        untraced.append(plain)
        op = {"verify_s": None, "mesh_s": [], "margin_digits": None, "errors": []}
        rec_setup, rec_verify, rec_mesh = Recorder(), Recorder(), Recorder()
        try:
            with traced(rec_setup):
                traced_scene = case.iso.load_scene(str(case.scene_path))
            with traced(rec_verify):
                v = verify_op(case, traced_scene)
            with traced(rec_mesh):
                m = mesh_op(case, traced_scene)
            op.update(verify_s=v["seconds"], mesh_s=[m["seconds"]],
                      margin_digits=v["margin_digits"])
            op["errors"] += v["errors"] + m["errors"]
            if "text" in plain and without_wall_time(v["text"]) != without_wall_time(plain["text"]):
                op["errors"].append("traced report text differs from the untraced one")
            layer_runs.append(layer_metrics(rec_verify, rec_setup, rec_mesh))
            recorders.append({p: r.to_json() for p, r in
                              (("setup", rec_setup), ("verify", rec_verify), ("mesh", rec_mesh))})
        except Exception:  # a raising op is a failed op: record it, keep measuring
            op["errors"].append(traceback.format_exc())
        return op

    ops = closed_loop(seconds, 1, pair)
    metrics = {name: median([run[name] for run in layer_runs]) for name in
               (layer_runs[0] if layer_runs else {})}
    traced_v = [o["verify_s"] for o in ops if o["verify_s"] is not None]
    plain_v = [o["verify_s"] for o in untraced if o["verify_s"] is not None]
    metrics["trace.overhead_s"] = (
        median(traced_v) - median(plain_v) if traced_v and plain_v else None
    )
    metrics.update(jet_micro(seed))
    samples = {"traced_verify_s": traced_v, "untraced_verify_s": plain_v}
    return ops + untraced, metrics, samples, {"recorders": recorders}


def print_table(metrics, samples, units, wall):
    """One line per metric; `wall` holds the medians as measured, before
    calibration, and the tail is that of the measured samples."""
    print(f"  {'metric':34s} {'value':>14s}  {'unit':7s} samples {'wall median':>12s}  wall tail")
    for name, value in metrics.items():
        xs = samples.get(name, [])
        tail = tail_percentile(xs) if len(xs) > 1 else None
        tail_txt = f"p{tail[0]}={tail[1]:.6g}" if tail else "-"
        shown = "-" if value is None else f"{value:.6g}"
        measured = wall.get(name)
        measured = "-" if measured is None else f"{measured:.6g}"
        print(f"  {name:34s} {shown:>14s}  {units(name):7s} {len(xs) or '-':>7} "
              f"{measured:>12s}  {tail_txt}")


def layer_unit(name: str) -> str:
    if name.startswith("jet.mul_us."):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def run_workload(args) -> int:
    import isodeform as iso

    if not Path(iso.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"isodeform was imported from {iso.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    scene_text = wl.scene_text(args.seed)
    scene_path = OUT / f"{stem}.scene"
    scene_path.write_text(scene_text)
    case = Case(
        iso=iso, wl=wl, params=wl.params(args.seed),
        scene=iso.load_scene(str(scene_path)), scene_path=scene_path,
        mesh_path=OUT / f"{stem}.obj", expected=load_expected()[wl.name],
    )

    if args.trace:
        ops, metrics, samples, extra = traced_layers(case, args.seconds, args.seed)
    else:
        ops, metrics, samples, extra = end_to_end(case, args.seconds)
    failed = sum(1 for o in ops if o["errors"])
    correct = failed == 0 and all(v is not None for v in metrics.values())
    units = layer_unit if args.trace else UNITS.get

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": case.params,
        "scene": scene_text,
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(SRC),
        "environment": environment(),
        "attempted": len(ops),
        "failed": failed,
        "error_rate": failed / len(ops),
        "metrics": metrics,
        "samples": samples,
        "ops": [{k: v for k, v in o.items() if k != "text"} for o in ops],
        **extra,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(f"isodeform benchmark: workload={wl.name} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds}")
    print(f"commit={record['commit']} source_sha256={record['source_sha256'][:16]}")
    print(f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas_threads={BLAS_THREADS}")
    print("scene:")
    print("".join(f"  | {line}\n" for line in scene_text.splitlines()), end="")
    print(f"ops: attempted={len(ops)} failed={failed} error_rate={record['error_rate']:.3f}")
    for o in ops:
        for err in o["errors"]:
            print(f"op error: {err}", file=sys.stderr)
    if "calibration_s" in extra:
        print(f"calibration kernel: median {median(extra['calibration_s']):.4f} s, "
              f"reference {CAL_REF_S} s")
    print("metrics:")
    print_table(metrics, samples, units, extra.get("wall", {}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units(name)} for name, value in metrics.items()
        },
    }))
    return 0


def run_all(args) -> int:
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        ok = ok and proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "isodeform" / "__init__.py").is_file():
        print(f"no isodeform source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
