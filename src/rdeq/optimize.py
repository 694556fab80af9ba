"""Frontier search over auxiliary systems.

Three search engines trace region frontiers:

* ``binary_frontier`` -- the scalar (alpha, beta) family of the binary
  BEC/BSC model, by coarse grid plus golden-section refinement.
* ``generic_inner_frontier`` / ``lossless_frontier`` -- random multi-start
  coordinate ascent over channel rows for arbitrary discrete sources, under
  the stated cardinality caps.  Results are lower bounds on the true frontier.
* ``brute_force_oracle`` -- exhaustive enumeration of channels with rows on a
  simplex grid; exact within grid resolution, used to validate the ascent.

All searches are deterministic for a fixed seed, independent of worker count:
work is split into fixed-size shards and reduced with a stable tie-break
(smallest serialized candidate wins among equal objectives).

Random stochastic rows are sampled as normalized exponential draws
(equivalently Dirichlet(1, ..., 1)): ``e = rng.exponential(size=k); e / sum``.
"""

from __future__ import annotations

import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, ValidationError
from .probability import Channel, DistortionMeasure, JointSource, entropy_unchecked, h2, h2_inv
from .regions import (
    BinaryParams,
    InnerBounds,
    RegionPoint,
    SubsetEntropies,
    binary_bec_bsc_point,
    inner_bounds_of_joint,
    lossless_region_point,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: constraint slack when filtering candidates
SLACK = 1e-9


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrontierSpec:
    """Declarative description of a frontier sweep, loadable from JSON.

    ``model`` selects the engine: "binary_bec_bsc" (closed-form scalar
    search), "generic_discrete" (multi-start ascent over channels) or
    "lossless" (helper-variable search).  ``run`` dispatches accordingly.
    """

    model: str
    params: dict
    sweep: list
    n_starts: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model not in ("binary_bec_bsc", "generic_discrete", "lossless"):
            raise ValidationError(f"unknown frontier model {self.model!r}")
        if len(self.sweep) < 1:
            raise ValidationError("sweep must hold at least one value")

    @staticmethod
    def from_json(text: str) -> "FrontierSpec":
        obj = json.loads(text)
        return FrontierSpec(
            model=obj["model"],
            params=obj.get("params", {}),
            sweep=list(obj["sweep"]),
            n_starts=int(obj.get("n_starts", 64)),
            seed=int(obj.get("seed", 0)),
        )

    def run(self, workers: int = 1) -> "FrontierResult":
        if self.model == "binary_bec_bsc":
            return binary_frontier(
                float(self.params["p"]), float(self.params["eps"]),
                [float(x) for x in self.sweep],
                rate_cap=self.params.get("rate_cap"),
                force_beta_zero=bool(self.params.get("force_beta_zero", False)),
            )
        source = JointSource.from_json(json.dumps(self.params["source"]))
        if self.model == "lossless":
            return lossless_frontier(
                source, [float(x) for x in self.sweep],
                n_starts=self.n_starts, seed=self.seed, workers=workers,
            )
        na = source.alphabet_sizes[0]
        d = (
            DistortionMeasure(np.asarray(self.params["distortion"], dtype=float))
            if "distortion" in self.params else DistortionMeasure.hamming(na)
        )
        caps = tuple(self.params.get("caps", (na, na, source.alphabet_sizes[1])))
        cons = [
            RegionConstraints(
                max_r_a=float(self.params.get("max_r_a", math.inf)),
                max_r_c=float(self.params.get("max_r_c", math.inf)),
                max_d=float(x),
            )
            for x in self.sweep
        ]
        return generic_inner_frontier(
            source, d, caps, cons, n_starts=self.n_starts, seed=self.seed, workers=workers,
        )


@dataclass(frozen=True)
class RegionConstraints:
    """Upper bounds the frontier point must respect; ``inf`` disables one."""

    max_r_a: float = math.inf
    max_r_c: float = math.inf
    max_d: float = math.inf

    def __post_init__(self) -> None:
        if self.max_r_a < 0 or self.max_r_c < 0 or self.max_d < 0:
            raise ValidationError(f"constraints must be non-negative: {self}")


@dataclass(frozen=True)
class FrontierPoint:
    sweep: float
    feasible: bool
    point: RegionPoint | None
    params: dict


@dataclass(frozen=True)
class FrontierResult:
    points: tuple[FrontierPoint, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        sweeps = [p.sweep for p in self.points]
        if any(b < a for a, b in zip(sweeps, sweeps[1:])):
            raise ValidationError("frontier points must be sorted by sweep value")
        object.__setattr__(self, "points", tuple(self.points))

    def deltas(self) -> np.ndarray:
        return np.array([p.point.delta if p.feasible else np.nan for p in self.points])

    def to_json(self) -> str:
        def encode(p: FrontierPoint) -> dict:
            return {
                "sweep": p.sweep,
                "feasible": p.feasible,
                "point": None if p.point is None else {
                    "r_a": p.point.r_a, "r_c": p.point.r_c,
                    "d": p.point.d, "delta": p.point.delta,
                },
                "params": p.params,
            }

        return json.dumps(
            {"points": [encode(p) for p in self.points], "provenance": self.provenance},
            sort_keys=True,
        )

    def to_csv(self) -> str:
        scalar_keys = sorted(
            {k for p in self.points for k, v in p.params.items() if np.isscalar(v)}
        )
        other_keys = sorted(
            {k for p in self.points for k, v in p.params.items() if not np.isscalar(v)}
        )
        header = ["sweep", "feasible", "R_A", "R_C", "D", "Delta", *scalar_keys, *other_keys]
        lines = [",".join(header)]
        for p in self.points:
            coords = (
                [f"{p.point.r_a:.6g}", f"{p.point.r_c:.6g}", f"{p.point.d:.6g}", f"{p.point.delta:.6g}"]
                if p.point is not None
                else ["", "", "", ""]
            )
            cells = [f"{p.sweep:.6g}", "1" if p.feasible else "0", *coords]
            for k in scalar_keys:
                v = p.params.get(k)
                cells.append("" if v is None else f"{float(v):.6g}")
            for k in other_keys:
                v = p.params.get(k)
                cells.append("" if v is None else '"' + json.dumps(v).replace('"', '""') + '"')
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# deterministic parallel helpers
# ---------------------------------------------------------------------------

def parallel_map(fn, items, workers: int = 1):
    """Ordered map; results are identical for any worker count."""
    if workers <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=1))


def _better(cand: tuple, best: tuple | None) -> bool:
    """Stable reduction: larger objective wins, ties go to the smaller key."""
    if best is None:
        return True
    if cand[0] != best[0]:
        return cand[0] > best[0]
    return cand[1] < best[1]


def _best(cands) -> tuple | None:
    """The ``_better``-best of (objective, key, ...) tuples; ``None`` entries are skipped."""
    best = None
    for cand in cands:
        if cand is not None and _better(cand, best):
            best = cand
    return best


# ---------------------------------------------------------------------------
# binary (alpha, beta) frontier
# ---------------------------------------------------------------------------

def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; deterministic."""
    if hi - lo <= tol:
        x = 0.5 * (lo + hi)
        return x, f(x)
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
    x = 0.5 * (a + b)
    return x, f(x)


def _binary_delta(p: float, eps: float, alpha: float, beta: float) -> float:
    return binary_bec_bsc_point(BinaryParams(p=p, eps=eps, alpha=alpha, beta=beta)).delta_max


def _binary_alpha_range(eps: float, d: float, rate_cap: float | None) -> tuple[float, float] | None:
    """Feasible alpha interval under D >= eps*alpha and R_A <= rate_cap."""
    alpha_hi = 0.5 if eps <= 0.0 else min(0.5, d / eps)
    alpha_lo = 0.0
    if rate_cap is not None and rate_cap < eps:
        # eps (1 - h2(alpha)) <= cap  <=>  h2(alpha) >= 1 - cap/eps
        alpha_lo = h2_inv(1.0 - rate_cap / eps)
    if alpha_lo > alpha_hi + 1e-12:
        return None
    return alpha_lo, min(alpha_hi, 0.5)


def _binary_maximize(p, eps, alpha_range, *, force_beta_zero, coarse, tol):
    """Max of the closed-form Delta over the (alpha, beta) box, deterministic.

    Coarse grid, then golden-section refinement per axis around the incumbent;
    interval endpoints are always evaluated exactly so boundary optima (the
    usual case when the distortion or rate constraint binds) carry no
    refinement error.
    """
    a_lo, a_hi = alpha_range
    alphas = np.linspace(a_lo, a_hi, coarse) if a_hi > a_lo else np.array([a_lo])
    betas = np.array([0.0]) if force_beta_zero else np.linspace(0.0, 0.5, coarse)
    best = None
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            val = _binary_delta(p, eps, float(a), float(b))
            if _better((val, (i, j)), best):
                best = (val, (i, j), float(a), float(b))
    best_val, _, a_star, b_star = best

    def consider(a, b):
        nonlocal best_val, a_star, b_star
        val = _binary_delta(p, eps, a, b)
        if val > best_val + 1e-15:
            best_val, a_star, b_star = val, a, b

    da = (alphas[1] - alphas[0]) if len(alphas) > 1 else 0.0
    db = (betas[1] - betas[0]) if len(betas) > 1 else 0.0
    for _ in range(4):
        if da > 0:
            x, _ = _golden_max(
                lambda a: _binary_delta(p, eps, a, b_star),
                max(a_lo, a_star - da), min(a_hi, a_star + da), tol * 0.1,
            )
            consider(float(x), b_star)
        if db > 0 and not force_beta_zero:
            x, _ = _golden_max(
                lambda b: _binary_delta(p, eps, a_star, b),
                max(0.0, b_star - db), min(0.5, b_star + db), tol * 0.1,
            )
            consider(a_star, float(x))
        da, db = da * 0.2, db * 0.2
    for a_end in (a_lo, a_hi):
        consider(a_end, b_star)
        consider(a_end, 0.0)
    consider(a_star, 0.0)
    return float(a_star), float(b_star), float(best_val)


def binary_frontier(
    p: float,
    eps: float,
    d_grid,
    rate_cap: float | None = None,
    *,
    force_beta_zero: bool = False,
    coarse: int = 33,
    tol: float = 1e-5,
) -> FrontierResult:
    """Best equivocation of the binary model for each distortion level.

    For each D in ``d_grid``, maximizes the closed-form Delta over
    alpha in [0, min(1/2, D/eps)] and beta in [0, 1/2], subject to the
    optional Alice rate cap.  ``force_beta_zero`` restricts to the
    single-layer (Wyner-Ziv) family.
    """
    BinaryParams(p=p, eps=eps, alpha=0.0, beta=0.0)  # validate ranges
    d_grid = [float(x) for x in d_grid]
    if any(b < a for a, b in zip(d_grid, d_grid[1:])):
        raise ValidationError("d_grid must be nondecreasing")
    points = []
    for d in d_grid:
        if d < -SLACK:
            raise ValidationError(f"distortion must be non-negative, got {d}")
        rng_box = _binary_alpha_range(eps, max(d, 0.0), rate_cap)
        if rng_box is None:
            points.append(FrontierPoint(sweep=d, feasible=False, point=None, params={}))
            continue
        alpha, beta, delta = _binary_maximize(
            p, eps, rng_box, force_beta_zero=force_beta_zero, coarse=coarse, tol=tol
        )
        bounds = binary_bec_bsc_point(BinaryParams(p=p, eps=eps, alpha=alpha, beta=beta))
        if not (delta <= bounds.delta_max + 1e-12 and bounds.d_min <= d + SLACK):
            raise RuntimeError(f"frontier candidate failed re-validation at D={d}")
        if rate_cap is not None and bounds.r_a_min > rate_cap + 1e-6:
            raise RuntimeError(f"frontier candidate violates rate cap at D={d}")
        points.append(
            FrontierPoint(
                sweep=d,
                feasible=True,
                point=RegionPoint(bounds.r_a_min, math.inf, bounds.d_min, max(0.0, delta)),
                params={"alpha": alpha, "beta": beta},
            )
        )
    return FrontierResult(
        tuple(points),
        provenance={
            "model": "binary_bec_bsc", "p": p, "eps": eps, "rate_cap": rate_cap,
            "force_beta_zero": force_beta_zero, "coarse": coarse, "tol": tol,
        },
    )


def binary_merge_threshold(
    p: float, eps: float, lo: float = 1e-4, hi: float = 0.2, *, gap_tol: float = 1e-6
) -> float:
    """Distortion above which the single-layer family is already optimal.

    Bisects on the gap Delta_opt(D) - Delta_wz(D) <= gap_tol.
    """
    def gap(d: float) -> float:
        _, _, opt = _binary_maximize(p, eps, _binary_alpha_range(eps, d, None),
                                     force_beta_zero=False, coarse=33, tol=1e-6)
        _, _, wz = _binary_maximize(p, eps, _binary_alpha_range(eps, d, None),
                                    force_beta_zero=True, coarse=33, tol=1e-6)
        return opt - wz

    if gap(hi) > gap_tol:
        return hi
    if gap(lo) <= gap_tol:
        return lo
    a, b = lo, hi
    while b - a > 1e-5:
        mid = 0.5 * (a + b)
        if gap(mid) > gap_tol:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# generic discrete frontier: multi-start coordinate ascent
# ---------------------------------------------------------------------------

def prop1_caps(source: JointSource) -> tuple[int, int, int]:
    """Sufficient auxiliary cardinalities for the inner region."""
    na, nc, _ = source.alphabet_sizes
    return (na + 5, (na + 5) * (na + 3), nc + 3)


def optimal_reconstruction(p_vwa: np.ndarray, d: DistortionMeasure) -> np.ndarray:
    """Distortion-minimizing map per (v, w); ties broken by lowest symbol index."""
    costs = np.einsum("vwa,ab->vwb", p_vwa, d.table)
    return np.argmin(costs, axis=2)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, len(v) + 1)
    cond = u - css / ks > 0
    rho = np.nonzero(cond)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


@dataclass
class _Candidate:
    channels: list[np.ndarray]  # search channels, row-stochastic

    def key(self) -> bytes:
        return b"".join(np.round(ch, 12).tobytes() for ch in self.channels)


def _system_bounds(source: JointSource, d: DistortionMeasure, uv, va, wc
                   ) -> tuple[InnerBounds, np.ndarray]:
    """Six inner bounds plus the optimal reconstruction, from raw row matrices.

    The search loops call this thousands of times, so it skips the
    ``Channel`` and ``AuxiliarySystem`` validation of ``inner_bound_point``.
    """
    h = SubsetEntropies(np.einsum("vu,av,cw,ace->uvwace", uv, va, wc, source.probs))
    recon = optimal_reconstruction(h.marginal(1, 2, 3), d)  # p(v, w, a)
    return inner_bounds_of_joint(h, d, recon), recon


_INFEASIBLE_BASE = -1e6


def _violation(bounds: InnerBounds, cons: RegionConstraints) -> float:
    v = max(0.0, bounds.d_min - cons.max_d)
    v += max(0.0, bounds.r_a_min - cons.max_r_a)
    v += max(0.0, bounds.r_c_min - cons.max_r_c)
    v += max(0.0, bounds.sum_min - cons.max_r_a - cons.max_r_c)
    return v


def _score(bounds: InnerBounds, constraints: RegionConstraints) -> float:
    """The objective of one system's bounds under one constraint set.

    Feasible systems score their achievable Delta; infeasible ones score
    ``_INFEASIBLE_BASE - violation`` so the ascent first descends the
    constraint violation and then maximizes Delta.
    """
    violation = _violation(bounds, constraints)
    if violation > SLACK:
        return _INFEASIBLE_BASE - violation
    delta = bounds.delta_max
    if math.isfinite(constraints.max_r_c):
        delta = min(delta, constraints.max_r_c + bounds.delta_minus_rc_max)
    return max(0.0, delta)


def _project_rows(mat: np.ndarray) -> np.ndarray:
    return np.vstack([_project_simplex(r) for r in mat])


def _ascend(eval_fn, channels, rng, *, init_step=0.4, min_step=1e-3, improve_tol=1e-6,
            max_sweeps=10):
    """Coordinate ascent over channel rows with projection to the simplex.

    Two kinds of moves per sweep: single-row moves (vertex pulls and random
    directions) and whole-channel random directions.  A move that jumps out
    of the feasible set from a feasible incumbent is bisected back to the
    constraint boundary, which lets the search slide along an active
    distortion or rate constraint instead of stalling in front of it.
    """
    best_val = eval_fn(channels)

    def try_move(ch, stash, direction, step):
        nonlocal best_val
        improved = False
        ch[...] = _project_rows(stash + step * direction)
        val = eval_fn(channels)
        crossed_out = best_val > _INFEASIBLE_BASE / 2 and val <= _INFEASIBLE_BASE / 2
        if crossed_out:
            lo_t, hi_t = 0.0, step
            for _ in range(12):
                mid = 0.5 * (lo_t + hi_t)
                ch[...] = _project_rows(stash + mid * direction)
                val = eval_fn(channels)
                if val > _INFEASIBLE_BASE / 2:
                    lo_t = mid
                    if val > best_val + 1e-12:
                        best_val = val
                        stash[...] = ch
                        improved = True
                else:
                    hi_t = mid
        elif val > best_val + 1e-12:
            best_val = val
            stash[...] = ch
            improved = True
        ch[...] = stash
        return improved

    step = init_step
    while step >= min_step:
        gained_from = best_val
        moved = True
        sweeps = 0
        while moved and sweeps < max_sweeps:
            moved = False
            sweeps += 1
            for ch in channels:
                stash = ch.copy()
                n_rows, n_cols = ch.shape
                # single-row moves
                for ri in range(n_rows):
                    for k in range(n_cols):
                        direction = np.zeros_like(ch)
                        direction[ri] = np.eye(n_cols)[k] - stash[ri]
                        moved |= try_move(ch, stash, direction, step)
                    for _ in range(2):
                        direction = np.zeros_like(ch)
                        direction[ri] = rng.standard_normal(n_cols)
                        moved |= try_move(ch, stash, direction, step)
                # whole-channel moves, for sliding along curved boundaries
                for _ in range(4):
                    direction = rng.standard_normal(ch.shape)
                    moved |= try_move(ch, stash, direction, step)
        step /= 3.0
        if best_val - gained_from < improve_tol and step < 0.02:
            break
    return best_val, channels


def _random_rows(rng, n_rows: int, n_cols: int) -> np.ndarray:
    e = rng.exponential(size=(n_rows, n_cols))
    return e / e.sum(axis=1, keepdims=True)


def _generic_start_worker(args):
    """One multi-start ascent; module-level so process pools can pickle it."""
    source, d, shapes, fixed_rows, cons, seed, cons_idx, start_idx = args
    rng = np.random.default_rng(np.random.SeedSequence((seed, cons_idx, start_idx)))
    structured = start_idx if start_idx < 3 else None
    chans = _start_channels(rng, shapes, structured)

    def eval_fn(cs):
        uv, va = cs[0], cs[1]
        wc = cs[2] if fixed_rows is None else fixed_rows
        return _score(_system_bounds(source, d, uv, va, wc)[0], cons)

    val, chans = _ascend(eval_fn, chans, rng)
    return val, _Candidate(chans).key(), [c.copy() for c in chans]


def _lossless_start_worker(args):
    source, nu, r_c, seed, start_idx = args
    na = source.alphabet_sizes[0]
    rng = np.random.default_rng(np.random.SeedSequence((seed, 991, start_idx)))
    if start_idx == 0:  # U = A embedding
        ch = np.zeros((na, nu))
        ch[np.arange(na), np.arange(na) % nu] = 1.0
    elif start_idx == 1:  # degenerate U
        ch = np.zeros((na, nu))
        ch[:, 0] = 1.0
    else:
        ch = _random_rows(rng, na, nu)
    chans = [ch]

    def eval_fn(cs):
        b = lossless_region_point(source, Channel(cs[0]))
        if b.r_c_min > r_c + SLACK:
            return _INFEASIBLE_BASE - (b.r_c_min - r_c)
        return max(0.0, b.delta_max)

    val, chans = _ascend(eval_fn, chans, rng)
    return val, _Candidate(chans).key(), [c.copy() for c in chans]


def _start_channels(rng, shapes, structured_idx: int | None):
    """One multi-start initialization; a few starts are structured corners."""
    chans = []
    for si, (n_rows, n_cols) in enumerate(shapes):
        if structured_idx == 0:  # degenerate: all rows point at symbol 0
            ch = np.zeros((n_rows, n_cols))
            ch[:, 0] = 1.0
        elif structured_idx == 1:  # as deterministic as the shape allows
            ch = np.zeros((n_rows, n_cols))
            for r in range(n_rows):
                ch[r, r % n_cols] = 1.0
        elif structured_idx == 2 and si == 0:  # noisy identity on first channel
            ch = np.full((n_rows, n_cols), 0.1 / max(1, n_cols - 1))
            for r in range(n_rows):
                ch[r, r % n_cols] = 0.9
            ch /= ch.sum(axis=1, keepdims=True)
        else:
            ch = _random_rows(rng, n_rows, n_cols)
        chans.append(ch)
    return chans


def generic_inner_frontier(
    source: JointSource,
    d: DistortionMeasure,
    caps: tuple[int, int, int] | None = None,
    constraints=(RegionConstraints(),),
    *,
    fixed_w_given_c: Channel | None = None,
    n_starts: int = 64,
    seed: int = 0,
    workers: int = 1,
    allow_cap_override: bool = False,
) -> FrontierResult:
    """Best inner-region equivocation under each constraint setting.

    Random multi-start coordinate ascent over the channel rows; the
    reconstruction map is always set to the distortion-minimizing symbol.
    The reported value is a lower bound on the true frontier.
    """
    na, nc, _ = source.alphabet_sizes
    cap_u, cap_v, cap_w = caps if caps is not None else prop1_caps(source)
    p1 = prop1_caps(source)
    if not allow_cap_override and (cap_u > p1[0] or cap_v > p1[1] or cap_w > p1[2]):
        raise ValidationError(
            f"caps {caps} exceed the sufficient bounds {p1}; pass allow_cap_override=True"
        )
    if fixed_w_given_c is not None and fixed_w_given_c.input_size != nc:
        raise ValidationError("fixed_w_given_c input size must match |C|")

    shapes = [(cap_v, cap_u), (na, cap_v)]
    if fixed_w_given_c is None:
        shapes.append((nc, cap_w))
    fixed_rows = None if fixed_w_given_c is None else np.asarray(fixed_w_given_c.rows)

    points = []
    for idx, cons in enumerate(constraints):
        args = [
            (source, d, shapes, fixed_rows, cons, seed, idx, s) for s in range(n_starts)
        ]
        val, _, chans = _best(parallel_map(_generic_start_worker, args, workers))
        if val <= _INFEASIBLE_BASE / 2:
            points.append(FrontierPoint(sweep=float(idx), feasible=False, point=None, params={}))
            continue
        uv, va = chans[0], chans[1]
        wc = chans[2] if fixed_w_given_c is None else fixed_w_given_c.rows
        bounds, recon = _system_bounds(source, d, uv, va, wc)
        delta = _score(bounds, cons)
        if abs(delta - val) > 1e-9:
            raise RuntimeError("optimizer result failed re-validation")
        point = _assemble_point(bounds, delta, cons)
        if not bounds.admits(point, tol=1e-7):
            raise RuntimeError("assembled frontier point not admitted by its own bounds")
        points.append(
            FrontierPoint(
                sweep=float(idx),
                feasible=True,
                point=point,
                params={
                    "u_given_v": uv.tolist(),
                    "v_given_a": va.tolist(),
                    "w_given_c": np.asarray(wc).tolist(),
                    "reconstruction": recon.tolist(),
                },
            )
        )
    return FrontierResult(
        tuple(points),
        provenance={
            "model": "generic_discrete", "caps": [cap_u, cap_v, cap_w],
            "n_starts": n_starts, "seed": seed,
            "constraints": [
                {"max_r_a": c.max_r_a, "max_r_c": c.max_r_c, "max_d": c.max_d}
                for c in constraints
            ],
        },
    )


def _assemble_point(bounds: InnerBounds, delta: float, cons: RegionConstraints) -> RegionPoint:
    """Minimal-rate tuple achieving ``delta`` within the constraint box."""
    r_a = bounds.r_a_min
    if math.isfinite(cons.max_r_c):
        r_a = max(r_a, bounds.sum_min - cons.max_r_c)
    r_c = max(bounds.r_c_min, bounds.sum_min - r_a, delta - bounds.delta_minus_rc_max)
    return RegionPoint(r_a, r_c, bounds.d_min, max(0.0, delta))


# ---------------------------------------------------------------------------
# lossless frontier
# ---------------------------------------------------------------------------

def lossless_frontier(
    source: JointSource,
    r_c_grid,
    *,
    u_size: int | None = None,
    n_starts: int = 64,
    seed: int = 0,
    workers: int = 1,
) -> FrontierResult:
    """Best lossless equivocation I(A;C|U) - I(A;E|U) for each helper rate R_C.

    The helper cardinality defaults to |A| + 2; the exact sufficient size for
    the lossless problem is unresolved, so the cap is heuristic.
    """
    na = source.alphabet_sizes[0]
    nu = u_size if u_size is not None else na + 2
    pac = source.p_ac()
    h_ac = entropy_unchecked(pac)
    h_a = entropy_unchecked(source.p_a())
    h_c = entropy_unchecked(source.p_c())
    h_a_c = h_ac - h_c
    h_c_a = h_ac - h_a

    r_c_grid = [float(x) for x in r_c_grid]
    if any(b < a for a, b in zip(r_c_grid, r_c_grid[1:])):
        raise ValidationError("r_c_grid must be nondecreasing")

    points = []
    for r_c in r_c_grid:
        if r_c < h_c_a - SLACK:
            points.append(FrontierPoint(sweep=r_c, feasible=False, point=None, params={}))
            continue

        args = [(source, nu, r_c, seed, s) for s in range(n_starts)]
        val, _, chans = _best(parallel_map(_lossless_start_worker, args, workers))
        if val <= _INFEASIBLE_BASE / 2:
            points.append(FrontierPoint(sweep=r_c, feasible=False, point=None, params={}))
            continue
        bounds = lossless_region_point(source, Channel(chans[0]))
        delta = max(0.0, bounds.delta_max)
        if abs(delta - val) > 1e-9:
            raise RuntimeError("lossless optimizer result failed re-validation")
        r_a = max(h_a_c, h_ac - r_c)
        r_c_point = max(bounds.r_c_min, h_ac - r_a)
        points.append(
            FrontierPoint(
                sweep=r_c,
                feasible=True,
                point=RegionPoint(r_a, r_c_point, 0.0, delta),
                params={"u_given_a": chans[0].tolist()},
            )
        )
    return FrontierResult(
        tuple(points),
        provenance={"model": "lossless", "u_size": nu, "n_starts": n_starts, "seed": seed},
    )


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def _simplex_grid(k: int, m: int) -> np.ndarray:
    """All length-k probability vectors with entries on the grid {0, 1/m, ..., 1}."""
    out = []
    for comp in itertools.combinations_with_replacement(range(k), m):
        v = np.bincount(comp, minlength=k) / m
        out.append(v)
    return np.array(sorted(map(tuple, out)))


def _h2_table(resolution: int = 1 << 16) -> tuple[np.ndarray, int]:
    xs = np.linspace(0.0, 1.0, resolution + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -(xs * np.log2(xs) + (1 - xs) * np.log2(1 - xs))
    t[0] = 0.0
    t[-1] = 0.0
    return t.astype(np.float32), resolution


_H2_TAB, _H2_RES = _h2_table()


def _h2_lookup(x: np.ndarray) -> np.ndarray:
    """Vectorized h2 via table interpolation.

    The worst absolute error, measured on dense and near-0/1 samples, is
    8.1e-6.  h2 is concave, so the linear interpolant lies below it: the
    lookup can exceed the true value only through float32 rounding of the
    table and of the interpolation, at most a few float32 ulps (1.3e-7
    measured).
    """
    pos = np.clip(x, 0.0, 1.0) * _H2_RES
    idx = np.minimum(pos.astype(np.int32), _H2_RES - 1)
    frac = (pos - idx).astype(np.float32)
    return _H2_TAB[idx] * (1.0 - frac) + _H2_TAB[idx + 1] * frac


def brute_force_grid_size(caps: tuple[int, int, int], step: float, na: int, nc: int,
                          fixed_w: bool = False) -> int:
    m = max(1, round(1.0 / step))

    def rows_count(k):
        return math.comb(m + k - 1, k - 1)
    cu, cv, cw = caps
    n_uv = rows_count(cu) ** cv
    n_va = rows_count(cv) ** na
    n_wc = 1 if fixed_w else rows_count(cw) ** nc
    return n_uv * n_va * n_wc


def brute_force_oracle(
    source: JointSource,
    d: DistortionMeasure,
    caps: tuple[int, int, int],
    grid_step: float,
    constraints=(RegionConstraints(),),
    *,
    fixed_w_given_c: Channel | None = None,
    budget: int | None = None,
    workers: int = 1,
) -> FrontierResult:
    """Exhaustive grid search over channels; exact within grid resolution.

    For binary alphabets the enumeration is vectorized and reduced by output
    relabeling symmetry (the six bound values are invariant under relabeling
    U, V or W, with the reconstruction re-optimized), which cuts the grid by
    ~8x without excluding any equivalence class.  Other alphabets fall back
    to direct enumeration and are only viable for tiny grids.
    """
    na, nc, _ = source.alphabet_sizes
    cu, cv, cw = caps
    binary_fast = (
        na == 2 and cv == 2 and cu == 2
        and (fixed_w_given_c is not None or (nc == 2 and cw == 2))
        and d.table.shape == (2, 2)
    )
    if binary_fast:
        m = max(1, round(1.0 / grid_step))
        n_half = (m // 2 + 1) * (m + 1)  # relabel-reduced pairs per channel
        size = n_half * n_half * (1 if fixed_w_given_c is not None else n_half)
    else:
        size = brute_force_grid_size(caps, grid_step, na, nc, fixed_w=fixed_w_given_c is not None)
    default_budget = 6_000_000_000 if binary_fast else 300_000
    budget = default_budget if budget is None else budget
    if size > budget:
        raise BudgetError(
            f"grid has {size} channel combinations, above the budget of {budget}; "
            "increase the step or the budget"
        )
    if binary_fast:
        return _oracle_binary(source, d, grid_step, constraints, fixed_w_given_c, workers)
    return _oracle_generic(source, d, caps, grid_step, constraints, fixed_w_given_c, workers)


def _oracle_generic_shard(args):
    """Best (value, key, uv, va, wc, bounds) per constraint, over one U channel.

    Each system's bounds are computed once and scored under every constraint.
    """
    source, d, uv, va_list, wc_list, cons_list = args
    best = [None] * len(cons_list)
    for va in va_list:
        for wc in wc_list:
            bounds, _ = _system_bounds(source, d, uv, va, wc)
            key = (uv.tobytes(), va.tobytes(), wc.tobytes())
            for ci, cons in enumerate(cons_list):
                cand = (_score(bounds, cons), key, uv, va, wc, bounds)
                if _better(cand, best[ci]):
                    best[ci] = cand
    return best


def _oracle_generic(source, d, caps, grid_step, constraints, fixed_w, workers=1):
    na, nc, _ = source.alphabet_sizes
    cu, cv, cw = caps
    m = max(1, round(1.0 / grid_step))

    def channels(k, n_in):
        return [np.array(rows) for rows in itertools.product(_simplex_grid(k, m), repeat=n_in)]

    va_list = channels(cv, na)
    wc_list = [np.asarray(fixed_w.rows)] if fixed_w is not None else channels(cw, nc)
    cons_list = list(constraints)
    shards = [(source, d, uv, va_list, wc_list, cons_list) for uv in channels(cu, cv)]
    shard_bests = parallel_map(_oracle_generic_shard, shards, workers)
    points = [
        _oracle_point(_best(sb[ci] for sb in shard_bests), ci, cons)
        for ci, cons in enumerate(cons_list)
    ]
    return FrontierResult(
        tuple(points),
        provenance={"method": "exhaustive", "step": grid_step, "caps": list(caps)},
    )


def _oracle_point(best, idx, cons) -> FrontierPoint:
    if best is None or best[0] <= _INFEASIBLE_BASE / 2:
        return FrontierPoint(sweep=float(idx), feasible=False, point=None, params={})
    val, _, uv, va, wc, bounds = best
    return FrontierPoint(
        sweep=float(idx),
        feasible=True,
        point=_assemble_point(bounds, val, cons),
        params={"u_given_v": uv.tolist(), "v_given_a": va.tolist(), "w_given_c": wc.tolist()},
    )


# -- vectorized binary path --------------------------------------------------
#
# For binary U, V, A (and either binary grid-searched W or a fixed W channel
# of any size) every bound value reduces to combinations of binary entropies
# of composed crossover probabilities, so the full grid can be swept with
# vectorized table lookups.  The search space is quotiented by the output
# relabelings of U, V and W (first row entry restricted to [0, 1/2]), which
# leaves exactly one representative per equivalence class.  The winning
# combination is re-evaluated in float64 through the exact evaluator before
# being reported.
#
# Within a shard, W columns that cannot beat the shard's running best are
# dropped before the |U| x |W| product is built.  Since H(W|U) <= H(W), a
# column's eq5 and eq6 terms are, over every U channel, at most
#   ub5 = x + H(W) - H(W|A) + max_u g,   ub6 = y + max_u g,
# with g = H(E|A) - H(E|U), so its objective is at most min(ub5, max_r_c +
# ub6), or ub5 when max_r_c is infinite.  A column is dropped only when that
# bound plus _PRUNE_MARGIN is strictly below the running best, so a dropped
# column is strictly worse than the shard's winner: the winner and its
# tie-break are unchanged.

_ORACLE_CHUNK = 64  # va rows per shard; fixed so results are worker-count independent

# Slack added to a column's upper bound before pruning.  It covers the
# lookup's overestimate of h2 (a few float32 ulps, see _h2_lookup) and the
# float64 rounding of the bound's sums, with a wide margin.
_PRUNE_MARGIN = 1e-6


def _half_full_grid(m: int) -> np.ndarray:
    """(x0, x1) pairs with x0 restricted to [0, 1/2] by relabel symmetry."""
    vals = np.linspace(0.0, 1.0, m + 1)
    half = vals[vals <= 0.5 + 1e-12]
    g0, g1 = np.meshgrid(half, vals, indexing="ij")
    return np.column_stack([g0.ravel(), g1.ravel()])


def _h2_scalar(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def _rows_entropy(p: np.ndarray) -> np.ndarray:
    """Entropy of each row of a (n, k) matrix of distributions."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return -t.sum(axis=-1)


def _binary_oracle_tables(source: JointSource, fixed_w: Channel | None):
    pa = source.p_a()
    with np.errstate(invalid="ignore", divide="ignore"):
        pc_a = source.p_ac() / pa[:, None]
        pe_a = source.p_ae() / pa[:, None]
    h_a = entropy_unchecked(pa)
    h_e_a = float(pa[0] * _h2_scalar(pe_a[0, 0]) + pa[1] * _h2_scalar(pe_a[1, 0]))
    tables = {
        "pa": pa, "pc_a": pc_a, "pe_a0": pe_a[:, 0], "h_a": h_a, "h_e_a": h_e_a,
    }
    if fixed_w is not None:
        pw_a = pc_a @ fixed_w.rows
        pc = source.p_c()
        h_w_c = float(np.dot(pc, _rows_entropy(fixed_w.rows)))
        h_w_a = float(np.dot(pa, _rows_entropy(pw_a)))
        tables.update({"pw_a": pw_a, "h_w_c": h_w_c, "h_w_a": h_w_a})
    return tables


def _binary_va_stats(x0, x1, tables):
    """Scalar helpers for one V channel row pair (p(v=0|a=0), p(v=0|a=1))."""
    pa = tables["pa"]
    pv0 = pa[0] * x0 + pa[1] * x1
    return {
        "pv0": pv0,
        "h_v": _h2_scalar(pv0),
        "h_v_a": pa[0] * _h2_scalar(x0) + pa[1] * _h2_scalar(x1),
        "pa0_v0": pa[0] * x0 / pv0 if pv0 > 0 else 0.0,
        "pa0_v1": pa[0] * (1 - x0) / (1 - pv0) if pv0 < 1 else 0.0,
    }


def _binary_uv_stats(uv_grid, va, tables):
    """Vector helpers over the U-channel grid for one V channel."""
    pa = tables["pa"]
    pe_a0 = tables["pe_a0"]
    z0, z1 = uv_grid[:, 0], uv_grid[:, 1]
    x0, x1, pv0 = va["x0"], va["x1"], va["pv0"]
    pu0 = pv0 * z0 + (1 - pv0) * z1
    pau0 = pa[0] * (x0 * z0 + (1 - x0) * z1)
    with np.errstate(invalid="ignore", divide="ignore"):
        pa_u0 = np.where(pu0 > 0, pau0 / np.where(pu0 > 0, pu0, 1.0), 0.0)
        pa_u1 = np.where(pu0 < 1, (pa[0] - pau0) / np.where(pu0 < 1, 1.0 - pu0, 1.0), 0.0)
    pe_u0 = pa_u0 * pe_a0[0] + (1 - pa_u0) * pe_a0[1]
    pe_u1 = pa_u1 * pe_a0[0] + (1 - pa_u1) * pe_a0[1]
    h_e_u = pu0 * _h2_lookup(pe_u0) + (1 - pu0) * _h2_lookup(pe_u1)
    return {"pu0": pu0, "pa_u0": pa_u0, "pa_u1": pa_u1, "h_e_u": h_e_u}


def _binary_w_grid_stats(va, wc_grid, tables, d_tab):
    """Per-wc vectors of the U-free bound ingredients (binary W grid)."""
    pa, pc_a, h_a = tables["pa"], tables["pc_a"], tables["h_a"]
    x0, x1 = va["x0"], va["x1"]
    pv0, h_v, h_v_a = va["pv0"], va["h_v"], va["h_v_a"]
    y0, y1 = wc_grid[:, 0], wc_grid[:, 1]
    pw0_a0 = pc_a[0, 0] * y0 + pc_a[0, 1] * y1
    pw0_a1 = pc_a[1, 0] * y0 + pc_a[1, 1] * y1
    pw0 = pa[0] * pw0_a0 + pa[1] * pw0_a1
    pc0 = pa[0] * pc_a[0, 0] + pa[1] * pc_a[1, 0]
    h_w_c = pc0 * _h2_lookup(y0) + (1 - pc0) * _h2_lookup(y1)
    h_w_a = pa[0] * _h2_lookup(pw0_a0) + pa[1] * _h2_lookup(pw0_a1)
    pw0_v0 = va["pa0_v0"] * pw0_a0 + (1 - va["pa0_v0"]) * pw0_a1
    pw0_v1 = va["pa0_v1"] * pw0_a0 + (1 - va["pa0_v1"]) * pw0_a1
    h_w_v = pv0 * _h2_lookup(pw0_v0) + (1 - pv0) * _h2_lookup(pw0_v1)
    with np.errstate(invalid="ignore", divide="ignore"):
        pa0_w0 = np.where(pw0 > 0, pa[0] * pw0_a0 / np.where(pw0 > 0, pw0, 1.0), 0.0)
        pa0_w1 = np.where(pw0 < 1, pa[0] * (1 - pw0_a0) / np.where(pw0 < 1, 1 - pw0, 1.0), 0.0)
    pv0_w0 = pa0_w0 * x0 + (1 - pa0_w0) * x1
    pv0_w1 = pa0_w1 * x0 + (1 - pa0_w1) * x1
    h_v_w = pw0 * _h2_lookup(pv0_w0) + (1 - pw0) * _h2_lookup(pv0_w1)

    r_a = np.maximum(h_v_w - h_v_a, 0.0)
    r_c = np.maximum(h_w_v - h_w_c, 0.0)
    va_rows = np.array([[x0, 1 - x0], [x1, 1 - x1]])
    d_min = np.zeros_like(pw0)
    for v in range(2):
        for w in range(2):
            pw_cell_a0 = pw0_a0 if w == 0 else 1 - pw0_a0
            pw_cell_a1 = pw0_a1 if w == 0 else 1 - pw0_a1
            mass_a0 = pa[0] * va_rows[0, v] * pw_cell_a0
            mass_a1 = pa[1] * va_rows[1, v] * pw_cell_a1
            d_min += np.minimum(mass_a0 * d_tab[0, 0] + mass_a1 * d_tab[1, 0],
                                mass_a0 * d_tab[0, 1] + mass_a1 * d_tab[1, 1])
    return {
        "r_a": r_a, "r_c": r_c,
        "sum": np.maximum(h_v + h_w_v - h_v_a - h_w_c, 0.0),
        "d": d_min,
        "x": h_a + h_v_a + h_w_a - h_v - h_w_v,
        "y": (h_a + h_v_a - h_v) - np.maximum(h_w_v - h_w_c, 0.0),
        "h_w_a": h_w_a, "pw0_a": (pw0_a0, pw0_a1),
        "h_w": _rows_entropy(np.column_stack([pw0, 1 - pw0])),
    }


def _binary_w_fixed_stats(va, tables, d_tab):
    """Scalar bound ingredients when the W channel is held fixed (any |W|)."""
    pa, h_a = tables["pa"], tables["h_a"]
    pw_a, h_w_c, h_w_a = tables["pw_a"], tables["h_w_c"], tables["h_w_a"]
    x0, x1 = va["x0"], va["x1"]
    pv0, h_v, h_v_a = va["pv0"], va["h_v"], va["h_v_a"]
    nw = pw_a.shape[1]
    pw = pa @ pw_a
    pw_v0 = va["pa0_v0"] * pw_a[0] + (1 - va["pa0_v0"]) * pw_a[1]
    pw_v1 = va["pa0_v1"] * pw_a[0] + (1 - va["pa0_v1"]) * pw_a[1]
    h_w_v = pv0 * float(_rows_entropy(pw_v0[None, :])[0]) + (1 - pv0) * float(
        _rows_entropy(pw_v1[None, :])[0]
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        pa0_w = np.where(pw > 0, pa[0] * pw_a[0] / np.where(pw > 0, pw, 1.0), 0.0)
    pv0_w = pa0_w * x0 + (1 - pa0_w) * x1
    h_v_w = float(np.dot(pw, [_h2_scalar(t) for t in pv0_w]))

    r_c = max(h_w_v - h_w_c, 0.0)
    va_rows = np.array([[x0, 1 - x0], [x1, 1 - x1]])
    d_min = 0.0
    for v in range(2):
        for w in range(nw):
            mass_a0 = pa[0] * va_rows[0, v] * pw_a[0, w]
            mass_a1 = pa[1] * va_rows[1, v] * pw_a[1, w]
            d_min += min(mass_a0 * d_tab[0, 0] + mass_a1 * d_tab[1, 0],
                         mass_a0 * d_tab[0, 1] + mass_a1 * d_tab[1, 1])
    return {
        "r_a": np.array([max(h_v_w - h_v_a, 0.0)]),
        "r_c": np.array([r_c]),
        "sum": np.array([max(h_v + h_w_v - h_v_a - h_w_c, 0.0)]),
        "d": np.array([d_min]),
        "x": np.array([h_a + h_v_a + h_w_a - h_v - h_w_v]),
        "y": np.array([(h_a + h_v_a - h_v) - r_c]),
        "h_w_a": np.array([h_w_a]), "h_w": np.array([entropy_unchecked(pw)]),
    }


def _oracle_binary_shard(args):
    """Best (value, (va, uv, wc) grid indices) per constraint, over one va slice."""
    va_lo, va_hi, va_grid, uv_grid, wc_grid, tables, cons_list, d_tab = args
    fixed = wc_grid is None
    best = [None] * len(cons_list)
    uvs = None
    for va_idx in range(va_lo, va_hi):
        x0, x1 = float(va_grid[va_idx, 0]), float(va_grid[va_idx, 1])
        va = {"x0": x0, "x1": x1, **_binary_va_stats(x0, x1, tables)}
        uvs = _binary_uv_stats(uv_grid, va, tables)
        if fixed:
            stats = _binary_w_fixed_stats(va, tables, d_tab)
        else:
            stats = _binary_w_grid_stats(va, wc_grid, tables, d_tab)
        g = tables["h_e_a"] - uvs["h_e_u"]
        g_max = float(g.max())
        ub5 = stats["x"] + stats["h_w"] - stats["h_w_a"] + g_max
        ub6 = stats["y"] + g_max

        feas_cols = []
        for c, b in zip(cons_list, best):
            feas = (
                (stats["r_a"] <= c.max_r_a + SLACK)
                & (stats["r_c"] <= c.max_r_c + SLACK)
                & (stats["sum"] <= c.max_r_a + c.max_r_c + SLACK)
                & (stats["d"] <= c.max_d + SLACK)
            )
            if b is not None:
                ub = np.minimum(ub5, c.max_r_c + ub6) if math.isfinite(c.max_r_c) else ub5
                feas &= ub + _PRUNE_MARGIN >= b[0]
            feas_cols.append(feas)
        cols = np.nonzero(np.logical_or.reduce(feas_cols))[0]
        if cols.size == 0:
            continue

        if fixed:
            pw_a = tables["pw_a"]
            pw_u0 = uvs["pa_u0"][:, None] * pw_a[0][None, :] + (1 - uvs["pa_u0"])[:, None] * pw_a[1][None, :]
            pw_u1 = uvs["pa_u1"][:, None] * pw_a[0][None, :] + (1 - uvs["pa_u1"])[:, None] * pw_a[1][None, :]
            h_w_u = uvs["pu0"] * _rows_entropy(pw_u0) + (1 - uvs["pu0"]) * _rows_entropy(pw_u1)
            eq5 = stats["x"][cols][None, :] + (h_w_u - tables["h_w_a"] - uvs["h_e_u"] + tables["h_e_a"])[:, None]
            eq6 = stats["y"][cols][None, :] + g[:, None]
        else:
            pw0_a0 = stats["pw0_a"][0][cols][None, :]
            pw0_a1 = stats["pw0_a"][1][cols][None, :]
            pa_u0 = uvs["pa_u0"][:, None]
            pa_u1 = uvs["pa_u1"][:, None]
            pwu0 = pa_u0 * pw0_a0 + (1 - pa_u0) * pw0_a1
            pwu1 = pa_u1 * pw0_a0 + (1 - pa_u1) * pw0_a1
            h_w_u = uvs["pu0"][:, None] * _h2_lookup(pwu0) + (1 - uvs["pu0"])[:, None] * _h2_lookup(pwu1)
            h_w_a = stats["h_w_a"][cols][None, :]
            eq5 = stats["x"][cols][None, :] + h_w_u - h_w_a + g[:, None]
            eq6 = stats["y"][cols][None, :] + g[:, None]

        for ci, cons in enumerate(cons_list):
            sub = feas_cols[ci][cols]
            if not sub.any():
                continue
            if math.isfinite(cons.max_r_c):
                delta = np.minimum(eq5, cons.max_r_c + eq6)
            else:
                delta = eq5
            delta = np.where(sub[None, :], delta, -np.inf)
            flat = int(np.argmax(delta))
            ui, wi = divmod(flat, cols.size)
            cand = (float(delta[ui, wi]), (va_idx, int(ui), int(cols[wi])))
            if _better(cand, best[ci]):
                best[ci] = cand
    return best


def _oracle_binary(source, d, grid_step, constraints, fixed_w, workers):
    m = max(1, round(1.0 / grid_step))
    va_grid = _half_full_grid(m)
    uv_grid = _half_full_grid(m)
    wc_grid = None if fixed_w is not None else _half_full_grid(m)
    tables = _binary_oracle_tables(source, fixed_w)
    cons_list = list(constraints)
    d_tab = d.table

    shards = []
    for lo in range(0, va_grid.shape[0], _ORACLE_CHUNK):
        hi = min(lo + _ORACLE_CHUNK, va_grid.shape[0])
        shards.append((lo, hi, va_grid, uv_grid, wc_grid, tables, cons_list, d_tab))
    shard_bests = parallel_map(_oracle_binary_shard, shards, workers)

    points = []
    for ci, cons in enumerate(cons_list):
        best = _best(sb[ci] for sb in shard_bests)
        if best is None:
            points.append(FrontierPoint(sweep=float(ci), feasible=False, point=None, params={}))
            continue
        _, (va_idx, uv_idx, wc_idx) = best
        va_rows = np.array([
            [va_grid[va_idx, 0], 1 - va_grid[va_idx, 0]],
            [va_grid[va_idx, 1], 1 - va_grid[va_idx, 1]],
        ])
        uv_rows = np.array([
            [uv_grid[uv_idx, 0], 1 - uv_grid[uv_idx, 0]],
            [uv_grid[uv_idx, 1], 1 - uv_grid[uv_idx, 1]],
        ])
        wc_rows = (
            fixed_w.rows if fixed_w is not None
            else np.array([
                [wc_grid[wc_idx, 0], 1 - wc_grid[wc_idx, 0]],
                [wc_grid[wc_idx, 1], 1 - wc_grid[wc_idx, 1]],
            ])
        )
        # exact re-evaluation of the winning grid point
        bounds, recon = _system_bounds(source, d, uv_rows, va_rows, wc_rows)
        val = max(0.0, _score(bounds, cons))
        points.append(FrontierPoint(
            sweep=float(ci),
            feasible=True,
            point=_assemble_point(bounds, val, cons),
            params={
                "u_given_v": uv_rows.tolist(),
                "v_given_a": va_rows.tolist(),
                "w_given_c": np.asarray(wc_rows).tolist(),
                "reconstruction": recon.tolist(),
            },
        ))
    return FrontierResult(
        tuple(points),
        provenance={"method": "exhaustive_binary", "step": 1.0 / m,
                    "grid_sizes": [va_grid.shape[0], uv_grid.shape[0],
                                   1 if wc_grid is None else wc_grid.shape[0]]},
    )


# ---------------------------------------------------------------------------
# convex hull of region points
# ---------------------------------------------------------------------------

def convexify(points) -> list[RegionPoint]:
    """Extreme points of the convex hull of region tuples.

    Orientation (R_A, R_C, D, -Delta): Delta is the maximized coordinate.
    Every input point is a convex combination of the returned points, so the
    output dominates the input pointwise.  Coordinates must be finite.
    """
    pts = list(points)
    if not pts:
        raise ValidationError("convexify needs at least one point")
    arr = np.array([[p.r_a, p.r_c, p.d, -p.delta] for p in pts])
    if not np.all(np.isfinite(arr)):
        raise ValidationError("convexify requires finite coordinates")
    _, unique_idx = np.unique(arr, axis=0, return_index=True)
    idx = np.sort(unique_idx)
    arr_u = arr[idx]
    if arr_u.shape[0] <= 2:
        keep = idx
    else:
        center = arr_u.mean(axis=0)
        centered = arr_u - center
        scale = max(1.0, float(np.abs(centered).max()))
        _, svals, vt = np.linalg.svd(centered / scale, full_matrices=False)
        rank = int((svals > 1e-9).sum())
        if rank == 0:
            keep = idx[:1]
        elif rank == 1:
            coords = centered @ vt[0]
            keep = idx[np.unique([int(np.argmin(coords)), int(np.argmax(coords))])]
        else:
            coords = centered @ vt[:rank].T
            from scipy.spatial import ConvexHull  # a module-level import slows every CLI start

            keep = idx[np.sort(ConvexHull(coords).vertices)]
    chosen = arr[keep]
    order = np.lexsort(chosen.T[::-1])
    return [pts[keep[i]] for i in order]
