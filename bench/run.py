"""Run one benchmark workload against the rdeq sources of this checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up imports ``rdeq`` from ``src/`` and builds the workload's inputs from
the seed.  The run then repeats the workload's job list (a round) while
another round brings the expected end of the run nearer to ``--seconds``;
at least one round always runs.  Afterwards the first round's outputs are
checked (see ``checks``) and every later round must reproduce them exactly.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones:

* ``wall_s``: mean wall time of a round (the rounds' total over their count);
* ``setup_s``: from the interpreter's start to the end of set-up (the
  start-up before this file runs is counted by its CPU time);
* ``cpu_s``: mean user + system CPU of a round, this process and its pool
  workers together;
* ``peak_rss_mib``: peak resident memory of this process plus the largest
  peak of its workers, read before the checks run.

Round times are means over the whole run, not medians of its few rounds: on
a shared host the processor's speed can change by a factor near two for
tens of seconds at a time, and a mean over the run averages those phases
where a median of three or four rounds takes one of them.

With ``--trace 1`` the untraced rounds run first, then one traced round of
the job list, the probes of the other workloads (so that every layer is
measured), and a seeded batch of ``inner_bound_point`` calls; the metrics
are the per-layer ones from ``tracing``.  The spans go to ``bench/out/``.

BLAS threads are pinned to one.  Exit code 0 when a result is printed, 2
when the arguments are bad or ``rdeq`` cannot be imported from ``src/``.
"""

from __future__ import annotations

import time

_STARTUP_CPU = time.process_time()
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("region_search", "binary_example")
INNER_BOUND_SYSTEMS = 1000


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_program():
    """Import rdeq from this checkout's src/; None if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import rdeq
    except ImportError as err:
        print(f"cannot import rdeq from {SRC}: {err}", file=sys.stderr)
        return None
    if Path(rdeq.__file__).resolve().parent.parent != SRC:
        print(f"rdeq was imported from {rdeq.__file__}, not from {SRC}", file=sys.stderr)
        return None
    return rdeq


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Round:
    """One pass over a job list: wall time, CPU time, outputs and failures."""

    def __init__(self, ops) -> None:
        self.outputs: dict = {}
        self.failed = 0
        c0, t0 = _cpu_s(), time.perf_counter()
        for op in ops:
            try:
                self.outputs[op.label] = op.call()
            except Exception:  # one failed operation must not end the run
                self.failed += 1
                print(f"operation {op.label} failed:\n{traceback.format_exc()}", file=sys.stderr)
        self.wall_s = time.perf_counter() - t0
        self.cpu_s = _cpu_s() - c0
        print(f"round: wall {self.wall_s:.3f} s, cpu {self.cpu_s:.3f} s", file=sys.stderr)


def run_rounds(ops, seconds: float) -> list[Round]:
    """Rounds while the next one is expected to end nearer to ``seconds`` than now.

    The rounds then span ``seconds`` give or take half a round, so a run
    measures about the same time whatever the machine's speed.
    """
    start = time.perf_counter()
    rounds = [Round(ops)]
    while time.perf_counter() - start + mean_of(rounds, "wall_s") / 2 <= seconds:
        rounds.append(Round(ops))
    return rounds


def mean_of(rounds, attr: str) -> float:
    return sum(getattr(r, attr) for r in rounds) / len(rounds)


def repeat_failures(rounds, fingerprint) -> list[str]:
    """Outputs of later rounds that differ from the first round's."""
    first = {k: fingerprint(v) for k, v in rounds[0].outputs.items()}
    out = []
    for i, r in enumerate(rounds[1:], start=2):
        for label, value in r.outputs.items():
            if label in first and fingerprint(value) != first[label]:
                out.append(f"round {i}: {label} differs from round 1")
    return out


def inner_bound_us(workloads) -> float:
    """Mean microseconds per inner_bound_point over a seeded batch of caps-(2,2,2)
    systems on source_b."""
    import numpy as np
    from rdeq import probability, regions

    rng = np.random.default_rng(2024)
    source = workloads.load_source("source_b")

    def channel():
        rows = rng.exponential(size=(2, 2))
        return probability.Channel(rows / rows.sum(axis=1, keepdims=True))

    systems = [regions.AuxiliarySystem(channel(), channel(), channel(),
                                       rng.integers(0, 2, size=(2, 2)))
               for _ in range(INNER_BOUND_SYSTEMS)]
    t0 = time.perf_counter()
    for s in systems:
        regions.inner_bound_point(source, workloads.HAMMING2, s)
    return 1e6 * (time.perf_counter() - t0) / len(systems)


def traced_run(wl, workloads, tracing, untraced, seed: int):
    """One traced round, the other workloads' probes and the inner-bound batch.

    Returns the per-layer metrics, the problems found and the traced round.
    """
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    problems = []
    try:
        span = tracer.open(f"round/{wl.name}")
        traced = Round(wl.operations())
        tracer.close(span)
        for name, cls in workloads.WORKLOADS.items():
            if name == wl.name:
                continue
            span = tracer.open(f"probe/{name}")
            for op in cls(seed).probe():
                try:
                    op.call()
                except Exception:
                    problems.append(f"probe {op.label} failed:\n{traceback.format_exc()}")
            tracer.close(span)
        span = tracer.open("regions.inner_bound_point batch")
        per_call_us = inner_bound_us(workloads)
        tracer.close(span)
    finally:
        restore()
    problems += [f"traced {p}" for p in repeat_failures([untraced[0], traced],
                                                        workloads.fingerprint)]
    base = mean_of(untraced, "wall_s")
    ratio = traced.wall_s / base
    path = workloads.OUT / f"spans-{wl.name}-seed{seed}.json"
    tracer.write(path, {"workload": wl.name, "seed": seed, "untraced_wall_s": base,
                        "traced_wall_s": traced.wall_s})
    print(f"spans: {path.relative_to(HERE.parent)} ({len(tracer.spans)} spans)")
    print(f"tracing overhead: traced round {traced.wall_s:.3f} s against untraced "
          f"{base:.3f} s ({100 * (ratio - 1):+.1f}%)")
    metrics = tracing.layer_metrics(tracer.spans, per_call_us, ratio)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    return metrics, problems, traced


def main(argv=None) -> int:
    args = _parse(argv)
    if _import_program() is None:
        return 2
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    ops = wl.operations()
    setup_s = _STARTUP_CPU + time.perf_counter() - _T0

    rounds = run_rounds(ops, args.seconds)
    peak = _peak_rss_mib()
    problems = wl.check(rounds[0].outputs) + repeat_failures(rounds, workloads.fingerprint)
    attempted = len(ops) * len(rounds)
    failed = sum(r.failed for r in rounds)

    if args.trace:
        metrics, more, traced = traced_run(wl, workloads, tracing, rounds, args.seed)
        problems += more
        attempted += len(ops)
        failed += traced.failed
    else:
        metrics = {
            "wall_s": {"value": mean_of(rounds, "wall_s"), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "cpu_s": {"value": mean_of(rounds, "cpu_s"), "unit": "s"},
            "peak_rss_mib": {"value": peak, "unit": "MiB"},
        }
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} round(s), {attempted} operations, {failed} failed, "
          f"{len(problems)} check failure(s)", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
