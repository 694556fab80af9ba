"""Run the benchmark in two checkouts in alternating pairs and record every run.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload NAME \
        --pairs N [--seed 300] [--label LABEL] [--out DIR]

Pair i runs ``bench/run.py`` once in each checkout, both with seed
``--seed`` + i; even pairs run the parent first and odd pairs the change
first, so a slow phase of a shared machine does not fall on one side only.
Every run is its own process, started as ``BENCHMARK.json`` starts it
(``bench/run.py`` from the checkout's root, for its ``run_seconds``), with
this interpreter.  After the N pairs come three traced pairs (``--trace 1``),
with seeds ``--seed`` + N, N + 1 and N + 2 and the same alternation; every
traced run's per-layer metrics are kept, with each side's per-layer medians.

The results go to ``BENCH_<label>.json`` in ``--out`` (created if missing)
under ``workloads.<NAME>``, rewritten after every pair, so an interrupted set
keeps the pairs it finished; workloads already in that file are kept, so one
file can hold several workloads run one after another.  Per workload it
records the machine (cores, Python, numpy), each checkout's commit (or, for a
checkout that is not a git work tree, a SHA-256 of its ``src/`` files),
every run's metrics, and per end-to-end metric each side's median and
quartiles, the relative median change, and the number of pairs the change won.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np


def _commit(root: Path) -> str:
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True).stdout.strip()

    if not (root / ".git").exists():
        return "src-sha256:" + _tree_hash(root / "src")
    head = git("rev-parse", "--short", "HEAD") or "unknown"
    return head + ("+uncommitted" if git("status", "--porcelain", "--untracked-files=no")
                   else "")


def _tree_hash(src: Path) -> str:
    """SHA-256 of the relative paths and contents of the files under ``src``,
    in sorted order, leaving out ``__pycache__``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` process; its last stdout line, parsed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    if not out["correct"] or out["failed"]:
        raise SystemExit(f"{workload} seed {seed} in {root}: correct={out['correct']}, "
                         f"failed={out['failed']}:\n{proc.stderr[-2000:]}")
    return {"seed": seed, "correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"q1": q1, "median": med, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], better: dict) -> dict:
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        old = [p["parent"]["metrics"][name] for p in pairs]
        new = [p["change"]["metrics"][name] for p in pairs]
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        qo, qn = quartiles(old), quartiles(new)
        out[name] = {
            "parent": qo,
            "change": qn,
            "median_change": (qn["median"] - qo["median"]) / qo["median"],
            "change_wins": sum(sign * (b - a) > 0 for a, b in zip(old, new)),
            "pairs": len(pairs),
            "median_gap_exceeds_parent_iqr": abs(qn["median"] - qo["median"]) > qo["iqr"],
        }
    return out


#: traced (``--trace 1``) pairs after the timed ones; their medians attribute a change
TRACED_PAIRS = 3


def run_pairs(sides: dict, workload: str, seed: int, count: int, seconds: float,
              trace: int):
    """Yield ``count`` pairs, pair i with seed ``seed`` + i and the parent first for even i."""
    for i in range(count):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_bench(sides[side], workload, seed + i, seconds, trace)
            print(f"{'traced ' * trace}pair {i + 1}/{count} {side}: {pair[side]['metrics']}",
                  file=sys.stderr)
        yield pair


def layer_medians(pairs: list[dict], side: str) -> dict:
    return {name: statistics.median(p[side]["metrics"][name] for p in pairs)
            for name in pairs[0][side]["metrics"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=300)
    ap.add_argument("--label", default="pairs")
    ap.add_argument("--out", type=Path, default=Path("."))
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.label}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    doc["machine"] = {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,  # bench/run.py pins them
    }
    doc["command"] = "python3 bench/run.py --workload W --seed S --seconds T --trace 0|1"
    doc["commits"] = {side: _commit(root) for side, root in sides.items()}
    pairs, traced = [], []
    entry = doc["workloads"][args.workload] = {"seconds": seconds, "runs": pairs}

    def save() -> None:
        entry["summary"] = summarize(pairs, better)
        if traced:
            entry["traced"] = {"runs": traced,
                               "median": {side: layer_medians(traced, side) for side in sides}}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        tmp.replace(path)

    for pair in run_pairs(sides, args.workload, args.seed, args.pairs, seconds, 0):
        pairs.append(pair)
        save()
    for pair in run_pairs(sides, args.workload, args.seed + args.pairs, TRACED_PAIRS,
                          seconds, 1):
        traced.append(pair)
        save()
    for name, s in entry["summary"].items():
        print(f"{args.workload} {name}: parent {s['parent']['median']:.4g} "
              f"change {s['change']['median']:.4g} ({s['median_change']:+.1%}), "
              f"change won {s['change_wins']}/{s['pairs']}")
    medians = entry["traced"]["median"]
    for name, old in medians["parent"].items():
        print(f"{args.workload} {name} (traced median): parent {old:.4g} "
              f"change {medians['change'][name]:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
