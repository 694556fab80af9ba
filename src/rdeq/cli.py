"""Command-line front end.

Subcommands: binary and gaussian closed-form sweeps, generic and lossless
frontier searches, the finite-blocklength simulator, and reproduction of the
reference numbers (the achievable-tuples table and the equivocation-vs-
distortion curves).

Exit codes: 0 success, 2 validation error, 3 infeasible request,
4 budget refusal, 5 reproduction-tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import BudgetError, ValidationError
from .probability import (Channel, DistortionMeasure, JointSource, _malformed_json_is_invalid,
                          h2, h2_inv, make_bec_bsc_source)
from .optimize import (
    RegionConstraints,
    binary_frontier,
    binary_merge_threshold,
    generic_inner_frontier,
    lossless_frontier,
)
from .regions import (
    AuxiliarySystem,
    GaussianParams,
    gaussian_inner,
    gaussian_optimal_no_eve_si,
)
from .simulate import CodeConfig, run_experiment

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4
EXIT_REPRODUCTION = 5

DEFAULT_SEED = 20120815

# acceptance tolerances for the reproduction pipelines
TABLE_VALUE_TOL = 0.002
TABLE_PARAM_TOL = 0.003
MERGE_TOL = 0.003

# reference values per table column; "equivocation" and "delta" are both Delta
TABLE_REFERENCE = {
    "lossless": {"rate": 0.469, "distortion": 0.0, "equivocation": 0.039, "alpha": 0.0,
                 "beta": 0.078},
    "capped": {"rate": 0.375, "distortion": 0.015, "equivocation": 0.133, "alpha": 0.031,
               "beta": 0.050},
    "capped single-layer": {"delta": 0.126},
}


# argparse ``type=`` parsers: text they reject is a usage error (exit 2)

def _eps_arg(text: str) -> float | str:
    """``--eps``: a number, or 'h2p' for eps = h2(p)."""
    return text if text == "h2p" else float(text)


def _int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers."""
    return tuple(int(x) for x in text.split(","))


def _float_list(text: str) -> list[float]:
    """Comma-separated numbers."""
    return [float(x) for x in text.split(",")]


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _write_table(args, header: dict, columns: list[str], rows: list[dict]) -> None:
    """``rows`` as JSON (``header`` plus the rows, full precision) or as CSV of
    ``columns``: a missing or None value is a blank cell, any other is ``.6g``."""
    if args.format == "json":
        _emit(json.dumps({**header, "rows": rows}, sort_keys=True), args.out)
    else:
        lines = [",".join(columns)]
        lines += [",".join("" if r.get(c) is None else f"{r[c]:.6g}" for c in columns)
                  for r in rows]
        _emit("\n".join(lines), args.out)


def _log_grid(lo: float, hi: float, points: int) -> list[float]:
    if not 0 < lo < hi < math.inf or points < 2:
        raise ValidationError("need 0 < d-min < d-max < inf and at least 2 points")
    return [float(x) for x in np.geomspace(lo, hi, points)]


def _d_grid(args) -> list[float]:
    """``--d`` as given, or the log grid of ``--d-min``, ``--d-max`` and
    ``--points`` (each defaulting to ``args.grid_defaults``); ``--d`` with any
    of those three flags is a validation error."""
    log_flags = {"--d-min": args.d_min, "--d-max": args.d_max, "--points": args.points}
    if args.d is not None:
        given = [flag for flag, value in log_flags.items() if value is not None]
        if given:
            raise ValidationError(f"--d sets the grid; it cannot be given with {', '.join(given)}")
        return [float(x) for x in args.d]
    lo, hi, points = (default if value is None else value
                      for value, default in zip(log_flags.values(), args.grid_defaults))
    return _log_grid(lo, hi, points)


# ---------------------------------------------------------------------------
# binary
# ---------------------------------------------------------------------------

def cmd_binary(args) -> int:
    p = args.p
    eps = h2(p) if args.eps == "h2p" else args.eps
    grid = sorted(_d_grid(args))
    opt = binary_frontier(p, eps, grid, rate_cap=args.rate_cap)
    wz = binary_frontier(p, eps, grid, rate_cap=args.rate_cap, force_beta_zero=True)
    rows = []
    for po, pw in zip(opt.points, wz.points):
        if not po.feasible:
            rows.append({"D": po.sweep, "feasible": False})
            continue
        rows.append({
            "D": po.sweep,
            "feasible": True,
            "Delta_opt": po.point.delta,
            "Delta_wz": pw.point.delta if pw.feasible else None,
            "alpha": po.params["alpha"],
            "beta": po.params["beta"],
            "R_A": po.point.r_a,
        })
    if not any(r.get("feasible") for r in rows):
        print("no feasible point on the requested grid", file=sys.stderr)
        return EXIT_INFEASIBLE
    _write_table(args, {"p": p, "eps": eps, "rate_cap": args.rate_cap},
                 ["D", "Delta_opt", "Delta_wz", "alpha", "beta"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gaussian
# ---------------------------------------------------------------------------

def cmd_gaussian(args) -> int:
    params = GaussianParams(rho_c=args.rho_c, rho_e=args.rho_e)
    d_values = _d_grid(args)
    exact = args.rho_e == 0.0
    rows = []
    for rc in args.rc:
        for d in d_values:
            b = gaussian_inner(params, rc, d)
            if exact:
                ref = gaussian_optimal_no_eve_si(args.rho_c, rc, d)
                if abs(ref.r_a_min - b.r_a_min) > 1e-9 or abs(ref.delta_max - b.delta_max) > 1e-9:
                    raise RuntimeError("inner bound does not match the exact region at rho_e = 0")
            rows.append({"R_C": rc, "D": d, "R_A_min": b.r_a_min,
                         "Delta_max": b.delta_max, "exact": exact})
    _write_table(args, {"rho_c": args.rho_c, "rho_e": args.rho_e},
                 ["R_C", "D", "R_A_min", "Delta_max", "exact"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# generic region and lossless frontiers
# ---------------------------------------------------------------------------

def cmd_region(args) -> int:
    source = JointSource.from_json_file(args.source)
    na, nc, _ = source.alphabet_sizes
    d = DistortionMeasure.hamming(na)
    # identity-sized auxiliaries by default; pass --caps for larger searches
    caps = args.caps or (na, na, nc)
    constraints = [
        RegionConstraints(max_r_a=args.max_ra, max_r_c=args.max_rc, max_d=float(x))
        for x in args.max_d
    ]
    res = generic_inner_frontier(
        source, d, caps, constraints,
        n_starts=args.starts, seed=args.seed, workers=args.workers,
    )
    if not any(pt.feasible for pt in res.points):
        print("all constraint settings infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    _emit(res.to_json() if args.format == "json" else res.to_csv(), args.out)
    return EXIT_OK


def cmd_lossless(args) -> int:
    source = JointSource.from_json_file(args.source)
    res = lossless_frontier(source, args.rc_grid, n_starts=args.starts, seed=args.seed,
                            workers=args.workers)
    if not any(pt.feasible for pt in res.points):
        print("every helper rate below H(C|A); nothing feasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    _emit(res.to_json() if args.format == "json" else res.to_csv(), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _load_sim_config(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValidationError(f"simulate config {path} is not valid JSON: {err}") from None
    with _malformed_json_is_invalid("simulate config"):
        src_spec = obj["source"]
        if "bec_bsc" in src_spec:
            bec_bsc = src_spec["bec_bsc"]
            p, eps = float(bec_bsc["p"]), bec_bsc["eps"]
            source = make_bec_bsc_source(p, h2(p) if eps == "h2p" else float(eps))
        else:
            source = JointSource.from_json(json.dumps(src_spec))
        sys_spec = obj["system"]
        system = AuxiliarySystem(
            **{key: Channel.from_json(json.dumps(sys_spec[key]))
               for key in ("u_given_v", "v_given_a", "w_given_c")},
            reconstruction=sys_spec["reconstruction"],
        )
        code = CodeConfig(**obj["code"])
        dist_spec = obj.get("distortion", "hamming")
        if dist_spec == "hamming":
            d = DistortionMeasure.hamming(source.alphabet_sizes[0])
        else:
            d = DistortionMeasure(np.asarray(dist_spec["table"], dtype=float))
        trials = obj.get("trials", 0)
        equiv = obj.get("compute_equivocation", True)
    if type(trials) is not int or trials < 0:
        raise ValidationError(f"simulate config 'trials' must be a non-negative integer, "
                              f"got {trials!r}")
    if type(equiv) is not bool:
        raise ValidationError(f"simulate config 'compute_equivocation' must be true or false, "
                              f"got {equiv!r}")
    return source, system, d, code, trials, equiv


def cmd_simulate(args) -> int:
    source, system, d, code, trials, equiv = _load_sim_config(args.config)
    report = run_experiment(
        source, system, d, code, trials,
        workers=args.workers, compute_equivocation=equiv, trace_path=args.trace,
    )
    _emit(report.to_json(), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def _check(name: str, got: float, want: float, tol: float, failures: list) -> str:
    ok = abs(got - want) <= tol
    if not ok:
        failures.append(name)
    return f"{name:28s} computed={got:9.6f}  reference={want:9.6f}  |diff|={abs(got - want):.2e}  {'ok' if ok else 'FAIL'}"


def reproduce_table3() -> tuple[list[str], list[str]]:
    p = 0.1
    eps = h2(p)
    # lossless column: D = 0 pins alpha = 0, the helper layer is free; the
    # capped columns cap the rate to 80% of the lossless rate and pin the
    # distortion to the level the cap induces
    cap = 0.8 * eps
    d_induced = eps * h2_inv(1.0 - cap / eps)
    points = {
        "lossless": binary_frontier(p, eps, [0.0]).points[0],
        "capped": binary_frontier(p, eps, [d_induced], rate_cap=cap).points[0],
        "capped single-layer": binary_frontier(p, eps, [d_induced], rate_cap=cap,
                                               force_beta_zero=True).points[0],
    }
    lines, failures = [], []
    for column, refs in TABLE_REFERENCE.items():
        pt = points[column]
        got = {"rate": pt.point.r_a, "distortion": pt.point.d, "equivocation": pt.point.delta,
               "delta": pt.point.delta, **pt.params}
        for name, want in refs.items():
            tol = TABLE_PARAM_TOL if name in pt.params else TABLE_VALUE_TOL
            lines.append(_check(f"{column} {name}", got[name], want, tol, failures))
    return lines, failures


def reproduce_fig10() -> tuple[list[str], list[str]]:
    p = 0.1
    eps = h2(p)
    grid = _log_grid(1e-4, 0.2, 60)
    opt = binary_frontier(p, eps, grid)
    wz = binary_frontier(p, eps, grid, force_beta_zero=True)
    d_opt = opt.deltas()
    d_wz = wz.deltas()
    lines, failures = [], []

    dominated = bool(np.all(d_opt >= d_wz - 1e-12))
    if not dominated:
        failures.append("dominance")
    lines.append(f"optimal curve dominates single-layer curve everywhere: "
                 f"{'ok' if dominated else 'FAIL'}")

    high = [abs(a - b) for g, a, b in zip(grid, d_opt, d_wz) if g >= 0.039]
    coincide = max(high) <= 1e-3
    if not coincide:
        failures.append("coincide_above_0.039")
    lines.append(f"curves coincide within 1e-3 for D >= 0.039 (max gap {max(high):.2e}): "
                 f"{'ok' if coincide else 'FAIL'}")

    low = [a - b for g, a, b in zip(grid, d_opt, d_wz) if g < 0.01]
    separated = max(low) > 5e-3
    if not separated:
        failures.append("separation_below_0.01")
    lines.append(f"curves differ by > 5e-3 below D = 0.01 (max gap {max(low):.2e}): "
                 f"{'ok' if separated else 'FAIL'}")

    nondecr = bool(np.all(np.diff(d_opt) >= -1e-9))
    if not nondecr:
        failures.append("monotonicity")
    lines.append(f"optimal curve nondecreasing in D: {'ok' if nondecr else 'FAIL'}")

    merge = binary_merge_threshold(p, eps)
    lines.append(_check("merge threshold", merge, 0.036, MERGE_TOL, failures))
    return lines, failures


def cmd_reproduce(args) -> int:
    if args.which == "table3":
        lines, failures = reproduce_table3()
    else:
        lines, failures = reproduce_fig10()
    _emit("\n".join(lines), args.out)
    if failures:
        print(f"reproduction failures: {', '.join(failures)}", file=sys.stderr)
        return EXIT_REPRODUCTION
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rdeq",
                                 description="rate-distortion-equivocation regions")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("binary", help="binary BEC/BSC equivocation-distortion curves")
    b.add_argument("--p", type=float, required=True)
    b.add_argument("--eps", type=_eps_arg, required=True, help="erasure probability or 'h2p'")
    b.add_argument("--rate-cap", type=float, default=None)
    b.set_defaults(func=cmd_binary)

    g = sub.add_parser("gaussian", help="Gaussian closed-form region sweep")
    g.add_argument("--rho-c", type=float, required=True)
    g.add_argument("--rho-e", type=float, required=True)
    g.add_argument("--rc", type=float, nargs="+", default=[1.0],
                   help="helper rates in bits; 'inf' for uncoded side information")
    g.set_defaults(func=cmd_gaussian)

    r = sub.add_parser("region", help="generic discrete-source frontier search")
    r.add_argument("--source", required=True, help="JointSource JSON file")
    r.add_argument("--max-d", type=float, nargs="+", required=True)
    r.add_argument("--max-ra", type=float, default=math.inf)
    r.add_argument("--max-rc", type=float, default=math.inf)
    r.add_argument("--caps", type=_int_list, default=None, help="|U|,|V|,|W|")
    r.add_argument("--starts", type=int, default=64)
    r.set_defaults(func=cmd_region)

    lo = sub.add_parser("lossless", help="distributed lossless frontier search")
    lo.add_argument("--source", required=True)
    lo.add_argument("--rc-grid", type=_float_list, required=True, help="comma-separated helper rates")
    lo.add_argument("--starts", type=int, default=64)
    lo.set_defaults(func=cmd_lossless)

    s = sub.add_parser("simulate", help="finite-blocklength binning simulation")
    s.add_argument("--config", required=True, help="experiment JSON file")
    s.add_argument("--trace", default=None, help="per-trial CSV trace path")
    s.set_defaults(func=cmd_simulate)

    rep = sub.add_parser("reproduce", help="reproduce reference numbers")
    rep.add_argument("which", choices=["table3", "fig10"])
    rep.set_defaults(func=cmd_reproduce)

    # each subcommand takes only the flags it reads
    for sp, (d_lo, d_hi, points) in ((b, (1e-4, 0.2, 60)), (g, (0.05, 1.0, 20))):
        sp.set_defaults(grid_defaults=(d_lo, d_hi, points))
        sp.add_argument("--d-min", type=float, help=f"log grid low end (default {d_lo:g})")
        sp.add_argument("--d-max", type=float, help=f"log grid high end (default {d_hi:g})")
        sp.add_argument("--points", type=int, help=f"log grid size (default {points})")
        sp.add_argument("--d", type=float, nargs="+", help="explicit distortion grid "
                        "(instead of the log grid)")
    for sp in (b, g, r, lo, s, rep):
        sp.add_argument("--out", default=None, help="output path (default stdout)")
    for sp in (b, g, r, lo):
        sp.add_argument("--format", choices=["csv", "json"], default="csv")
    for sp in (r, lo):
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    for sp in (r, lo, s):
        sp.add_argument("--workers", type=int, default=1)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, FileNotFoundError) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetError as err:
        print(f"budget refused: {err}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
