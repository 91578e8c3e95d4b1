"""Paired benchmark runs: a parent checkout against a change, alternately.

    python3 tools/bench_pairs.py --parent DIR [--pairs N] [--out FILE]

For every workload that this checkout's BENCHMARK.json declares, runs
``perfbench/run.py --workload W`` with its own defaults, of the parent
checkout DIR and of this checkout, ``--pairs`` times each (default 10),
in alternating order (parent first in even pairs, change first in odd
ones), one process at a time, so slow phases of a shared host fall on
both sides alike.  Each run's end-to-end metrics are read from the last
line of its stdout; ``verify_s`` and ``mesh_s`` there are already scaled
by the host speed factor sampled while they ran.  The summary (``--out``,
default BENCH.json) holds, per workload and metric, the median and
quartiles on each side, the median ratio change/parent, and how many
pairs the change won by the metric's direction in BENCHMARK.json; with
the CPU count, the numpy version, both commits and every sample.  A pair
in which either run failed is counted under ``failed_pairs`` and not
compared.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(xs):
    """(q1, median, q3) of the samples, by linear interpolation."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def benchmark(checkout: Path) -> dict:
    """The checkout's BENCHMARK.json."""
    return json.loads((checkout / "BENCHMARK.json").read_text())


def directions(spec: dict) -> dict:
    """metric -> "lower" or "higher", from a BENCHMARK.json."""
    return {m["name"]: m.get("better", "lower") for m in spec.get("end_to_end", [])}


def summarize(pairs, better: dict) -> dict:
    """Per metric, both sides' quartiles and the pairs the change won.

    ``pairs`` is a list of (parent metrics, change metrics), each a dict
    name -> value, or None for a failed run; ``better`` maps a metric to
    "lower" or "higher" (default "lower").  A tie is not a win.
    """
    good = [(p, c) for p, c in pairs if p is not None and c is not None]
    out = {"pairs": len(pairs), "failed_pairs": len(pairs) - len(good), "metrics": {}}
    names = sorted({k for p, c in good for k in p} & {k for p, c in good for k in c})
    for name in names:
        both = [(p[name], c[name]) for p, c in good
                if p.get(name) is not None and c.get(name) is not None]
        if not both:
            continue
        lower = better.get(name, "lower") == "lower"
        side = {}
        for key, xs in (("parent", [p for p, _ in both]), ("change", [c for _, c in both])):
            q1, q2, q3 = quartiles(xs)
            side[key] = {"median": q2, "q1": q1, "q3": q3}
        won = sum((c < p) if lower else (c > p) for p, c in both)
        base = side["parent"]["median"]
        ratio = side["change"]["median"] / base if base else None
        out["metrics"][name] = {
            "better": "lower" if lower else "higher",
            **side,
            "ratio": ratio,
            "change_won": won,
            "compared": len(both),
        }
    return out


def run_once(checkout: Path, workload: str):
    """The end-to-end metrics of one ``perfbench/run.py`` run, or None."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    last = json.loads(lines[-1])
    if not last.get("correct"):
        return None
    return {name: m["value"] for name, m in last["metrics"].items()}


def commit(checkout: Path):
    """HEAD of the checkout, "+dirty" when its tracked files differ from it;
    None when it is no git checkout."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), ROOT
    spec = benchmark(change)
    better = directions(spec)
    import numpy

    report = {
        "protocol": (
            "perfbench/run.py --workload W with its defaults, parent and change "
            f"alternately, {args.pairs} pairs per workload, one process at a time"
        ),
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "parent_commit": commit(parent),
        "change_commit": commit(change),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = []
        for i in range(args.pairs):
            order = [("parent", parent), ("change", change)]
            got = {side: run_once(path, workload)
                   for side, path in (order if i % 2 == 0 else order[::-1])}
            pairs.append((got["parent"], got["change"]))
            print(f"{workload} pair {i + 1}/{args.pairs}: "
                  + " ".join(f"{k}={v and v.get('verify_s')}" for k, v in got.items()),
                  file=sys.stderr)
        report["workloads"][workload] = {
            **summarize(pairs, better),
            "samples": [{"parent": p, "change": c} for p, c in pairs],
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
