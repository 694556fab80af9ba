"""Frontier search over auxiliary systems.

Three search engines trace region frontiers:

* ``binary_frontier`` -- the scalar (alpha, beta) family of the binary
  BEC/BSC model, by nested grids over its closed form, each re-centred on
  the best point so far.
* ``generic_inner_frontier`` / ``lossless_frontier`` -- random multi-start
  coordinate ascent over channel rows for arbitrary discrete sources, under
  the stated cardinality caps, both on one engine (``_multistart``) over
  raw rows, which runs every start of every sweep point in one
  ``parallel_map``.  Results are lower bounds on the true frontier.
* ``brute_force_oracle`` -- exhaustive search over channels with rows on a
  simplex grid, for any alphabet sizes: one channel per output relabeling,
  the bounds factored along the Markov chain and W columns pruned by an upper
  bound; exact in float64 within grid resolution, used to validate the ascent.

The ascent, the lossless search (its bounds are ``InnerBounds`` with the
helper rate as the R_C cap) and the oracle share one score (``_score``) and
one checked winner-to-point path (``_inner_point``).  The ascents and the
lossless search read every entropy from ``probability.SubsetEntropies``: an
evaluation declares its subsets (``regions.INNER_SUBSETS``, 16 of them, or
``regions.LOSSLESS_SUBSETS``, 8) and the engine's cached plan for them
computes every marginal and entropy in one pass.  The oracle's
``_block_entropy`` is the one exception: its elementwise chains keep each
oracle value independent of the block it is computed in.

All searches are deterministic for a fixed seed, independent of worker count:
work is split into fixed-size shards and reduced with a stable tie-break
(among equal objectives the smallest key wins: a start's serialized channels,
or an oracle system's grid index).

Random stochastic rows are sampled as normalized exponential draws
(equivalently Dirichlet(1, ..., 1)): ``e = rng.exponential(size=k); e / sum``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import BudgetError, ValidationError
from .probability import (
    Channel,
    DistortionMeasure,
    JointSource,
    SubsetEntropies,
    check_integer,
    entropy_unchecked,
    h2_inv,
)
from .regions import (
    INNER_SUBSETS,
    InnerBounds,
    RegionPoint,
    binary_bec_bsc_bounds,
    binary_bec_bsc_bounds_unchecked,
    _check_binary,
    _lossless,
    check_distortion,
    inner_bounds_of_joint,
    lossless_region_point,
)

#: constraint slack when filtering candidates
SLACK = 1e-9

_COARSE = 33  # points per axis of each grid of the binary (alpha, beta) search
_TOL = 1e-5  # the binary search stops once its grid spacing is below _TOL / 10

_INIT_STEP = 0.4  # first step length of the coordinate ascent
_MIN_STEP = 1e-3  # the ascent stops once its step falls below this
_IMPROVE_TOL = 1e-6  # ... or once a step length gains less than this, at steps below 0.02
_MAX_SWEEPS = 10  # most sweeps over all moves at one step length


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionConstraints:
    """Upper bounds the frontier point must respect; ``inf`` disables one."""

    max_r_a: float = math.inf
    max_r_c: float = math.inf
    max_d: float = math.inf

    def __post_init__(self) -> None:
        if not (self.max_r_a >= 0 and self.max_r_c >= 0 and self.max_d >= 0):
            raise ValidationError(f"constraints must be non-negative numbers: {self}")


@dataclass(frozen=True)
class FrontierPoint:
    sweep: float
    feasible: bool
    point: RegionPoint | None
    params: dict


class _BinaryPoints:
    """The points of a binary frontier as float64 columns, each built into a
    ``FrontierPoint`` when read: 49 bytes a point against about 530 as objects.

    ``rows`` holds (R_A, D, Delta, alpha, beta) per point; the row of an
    infeasible point is ignored.  Read-only, indexable, iterable and equal to
    any sequence of the same points.
    """

    def __init__(self, sweeps, feasible, rows) -> None:
        self._sweeps = np.array(sweeps, dtype=float)
        self._feasible = np.array(feasible, dtype=bool)
        self._rows = np.array(rows, dtype=float).reshape(-1, 5)

    def __len__(self) -> int:
        return self._sweeps.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(*i.indices(len(self))))
        sweep = float(self._sweeps[i])
        if not self._feasible[i]:
            return FrontierPoint(sweep=sweep, feasible=False, point=None, params={})
        r_a, d, delta, alpha, beta = self._rows[i].tolist()
        return FrontierPoint(sweep=sweep, feasible=True,
                             point=RegionPoint(r_a, math.inf, d, delta),
                             params={"alpha": alpha, "beta": beta})

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, _BinaryPoints)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class FrontierResult:
    points: tuple[FrontierPoint, ...] | _BinaryPoints
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.points, _BinaryPoints):
            object.__setattr__(self, "points", tuple(self.points))
        sweeps = [p.sweep for p in self.points]
        if any(b < a for a, b in zip(sweeps, sweeps[1:])):
            raise ValidationError("frontier points must be sorted by sweep value")

    def deltas(self) -> np.ndarray:
        return np.array([p.point.delta if p.feasible else np.nan for p in self.points])

    def to_json(self) -> str:
        return json.dumps({"points": [asdict(p) for p in self.points],
                           "provenance": self.provenance}, sort_keys=True)

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
    """Ordered map; results are identical for any worker count.

    Runs in this process when there is one worker or at most one item;
    ``workers`` must be an integer of at least 1.
    """
    workers = check_integer("workers", workers, 1)
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
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


def _binary_maximize(p, eps, alpha_range, *, force_beta_zero):
    """Max of the closed-form Delta over the (alpha, beta) box, deterministic.

    Nested ``_COARSE`` x ``_COARSE`` grids.  The first spans the box, so both
    alpha ends and beta = 0 (where binding constraints put the optimum) are
    exact grid points.  Each later grid is centred on the best point so far,
    with a half-width of two spacings of the previous grid, clipped to the
    box; the search stops once the spacing drops below ``_TOL / 10``.
    Ties go to the first grid and then to the smaller (alpha, beta) index.
    Every grid lies inside the box, so the caller range-checks p, eps and the
    box once and the grids use the unchecked closed form.
    """
    box_lo = np.array([alpha_range[0], 0.0])
    box_hi = np.array([alpha_range[1], 0.0 if force_beta_zero else 0.5])
    lo, hi = box_lo, box_hi
    best = None
    while True:
        alphas, betas = (np.linspace(l, h, _COARSE if h > l else 1) for l, h in zip(lo, hi))
        _, _, vals = binary_bec_bsc_bounds_unchecked(p, eps, alphas[:, None], betas[None, :])
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        if best is None or vals[i, j] > best[2]:
            best = (float(alphas[i]), float(betas[j]), float(vals[i, j]))
        spacing = (hi - lo) / (_COARSE - 1)
        if spacing.max() < _TOL / 10:
            return best
        centre = np.array(best[:2])
        lo = np.maximum(box_lo, centre - 2 * spacing)
        hi = np.minimum(box_hi, centre + 2 * spacing)


def binary_frontier(
    p: float,
    eps: float,
    d_grid,
    rate_cap: float | None = None,
    *,
    force_beta_zero: bool = False,
) -> FrontierResult:
    """Best equivocation of the binary model for each distortion level.

    For each D in ``d_grid``, maximizes the closed-form Delta over
    alpha in [0, min(1/2, D/eps)] and beta in [0, 1/2], subject to the
    optional Alice rate cap, by nested grids (``_binary_maximize``).
    ``force_beta_zero`` restricts to the single-layer (Wyner-Ziv) family.
    """
    _check_binary(p, eps, 0.0, 0.0)
    if rate_cap is not None and not rate_cap >= 0.0:
        raise ValidationError(f"rate_cap must be a non-negative number, got {rate_cap}")
    d_grid = [float(x) for x in d_grid]
    if any(b < a for a, b in zip(d_grid, d_grid[1:])):
        raise ValidationError("d_grid must be nondecreasing")
    feasible, rows = [], []
    for d in d_grid:
        if not d >= -SLACK:
            raise ValidationError(f"distortion must be a non-negative number, got {d}")
        rng_box = _binary_alpha_range(eps, max(d, 0.0), rate_cap)
        feasible.append(rng_box is not None)
        if rng_box is None:
            rows.append((math.nan,) * 5)
            continue
        alpha, beta, delta = _binary_maximize(p, eps, rng_box, force_beta_zero=force_beta_zero)
        bounds = binary_bec_bsc_bounds(p, eps, alpha, beta)
        if not (abs(delta - bounds.delta_max) <= 1e-9 and bounds.d_min <= d + SLACK):
            raise RuntimeError(f"frontier candidate failed re-validation at D={d}")
        if rate_cap is not None and bounds.r_a_min > rate_cap + 1e-6:
            raise RuntimeError(f"frontier candidate violates rate cap at D={d}")
        rows.append((bounds.r_a_min, bounds.d_min, max(0.0, delta), alpha, beta))
    return FrontierResult(
        _BinaryPoints(d_grid, feasible, rows),
        provenance={
            "model": "binary_bec_bsc", "p": p, "eps": eps, "rate_cap": rate_cap,
            "force_beta_zero": force_beta_zero, "coarse": _COARSE, "tol": _TOL,
        },
    )


def binary_merge_threshold(
    p: float, eps: float, lo: float = 1e-4, hi: float = 0.2, *, gap_tol: float = 1e-6
) -> float:
    """Distortion above which the single-layer family is already optimal.

    Bisects on the gap Delta_opt(D) - Delta_wz(D) <= gap_tol over
    0 <= lo <= D <= hi, both finite, with a finite gap_tol >= 0.
    """
    _check_binary(p, eps, 0.0, 0.0)
    if not 0.0 <= lo <= hi < math.inf:
        raise ValidationError(f"need finite 0 <= lo <= hi, got lo={lo}, hi={hi}")
    if not 0.0 <= gap_tol < math.inf:
        raise ValidationError(f"gap_tol must be finite and non-negative, got {gap_tol}")

    def gap(d: float) -> float:
        box = _binary_alpha_range(eps, d, None)
        _, _, opt = _binary_maximize(p, eps, box, force_beta_zero=False)
        _, _, wz = _binary_maximize(p, eps, box, force_beta_zero=True)
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


def _key(channels) -> bytes:
    """Tie-break key of a set of search channels: their bytes, rounded to 12 digits."""
    return b"".join(np.round(ch, 12).tobytes() for ch in channels)


def _system_bounds(source: JointSource, d: DistortionMeasure, uv, va, wc
                   ) -> tuple[InnerBounds, np.ndarray]:
    """Six inner bounds plus the optimal reconstruction, from raw row matrices.

    The search loops call this thousands of times, so it skips the
    ``Channel`` and ``AuxiliarySystem`` validation of ``inner_bound_point``.
    """
    h = SubsetEntropies(np.einsum("vu,av,cw,ace->uvwace", uv, va, wc, source.probs),
                        INNER_SUBSETS)
    recon = optimal_reconstruction(h.marginal(1, 2, 3), d)  # p(v, w, a)
    return inner_bounds_of_joint(h, d, recon), recon


_INFEASIBLE_BASE = -1e6


def _violation(d_min, r_a, r_c, r_sum, cons: RegionConstraints):
    """Total excess of the D, R_A, R_C and R_A + R_C bounds over the caps
    of ``cons``; on floats (Python's ``max``, for the ascent's one system per
    call) and, elementwise, on arrays (the oracle's blocks)."""
    pos = max if isinstance(d_min, float) else np.maximum
    return (pos(d_min - cons.max_d, 0.0) + pos(r_a - cons.max_r_a, 0.0)
            + pos(r_c - cons.max_r_c, 0.0) + pos(r_sum - cons.max_r_a - cons.max_r_c, 0.0))


def _capped(delta_max, delta_minus_rc_max, cons: RegionConstraints):
    """Largest Delta the two Delta bounds allow under the helper-rate cap
    max_r_c; on floats and, elementwise, on arrays."""
    if math.isfinite(cons.max_r_c):
        least = min if isinstance(delta_max, float) else np.minimum
        return least(delta_max, cons.max_r_c + delta_minus_rc_max)
    return delta_max


def _score(bounds: InnerBounds, constraints: RegionConstraints) -> float:
    """The objective of one system's bounds under one constraint set.

    Feasible systems score their achievable Delta; infeasible ones score
    ``_INFEASIBLE_BASE - violation`` so the ascent first descends the
    constraint violation and then maximizes Delta.
    """
    violation = _violation(bounds.d_min, bounds.r_a_min, bounds.r_c_min, bounds.sum_min,
                           constraints)
    if violation > SLACK:
        return _INFEASIBLE_BASE - violation
    return max(0.0, _capped(bounds.delta_max, bounds.delta_minus_rc_max, constraints))


def _project_rows(mat: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of ``mat`` onto the probability simplex."""
    u = np.sort(mat, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    cond = u - css / np.arange(1, mat.shape[1] + 1) > 0  # true at least in column 0
    rho = mat.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)  # each row's last true column
    theta = css[np.arange(mat.shape[0]), rho] / (rho + 1.0)
    return np.maximum(mat - theta[:, None], 0.0)


def _ascend(eval_fn, channels, rng):
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

    step = _INIT_STEP
    while step >= _MIN_STEP:
        gained_from = best_val
        moved = True
        sweeps = 0
        while moved and sweeps < _MAX_SWEEPS:
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
        if best_val - gained_from < _IMPROVE_TOL and step < 0.02:
            break
    return best_val, channels


def _random_rows(rng, n_rows: int, n_cols: int) -> np.ndarray:
    e = rng.exponential(size=(n_rows, n_cols))
    return e / e.sum(axis=1, keepdims=True)


def _start_channels(rng, shapes, corner: str | None):
    """One multi-start initialization: a structured ``corner`` or, for
    ``None``, random rows."""
    chans = []
    for si, (n_rows, n_cols) in enumerate(shapes):
        if corner == "degenerate":  # all rows point at symbol 0
            ch = np.zeros((n_rows, n_cols))
            ch[:, 0] = 1.0
        elif corner == "diagonal":  # as deterministic as the shape allows
            ch = np.zeros((n_rows, n_cols))
            for r in range(n_rows):
                ch[r, r % n_cols] = 1.0
        elif corner == "noisy" and si == 0:  # noisy identity on first channel
            ch = np.full((n_rows, n_cols), 0.1 / max(1, n_cols - 1))
            for r in range(n_rows):
                ch[r, r % n_cols] = 0.9
            ch /= ch.sum(axis=1, keepdims=True)
        else:
            ch = _random_rows(rng, n_rows, n_cols)
        chans.append(ch)
    return chans


def _start_worker(shapes, corners, start):
    """One ascent of ``objective`` from ``corners[start_idx]`` (random rows
    past the last corner) on the stream ``(*seed_key, start_idx)``, for
    ``start`` = (objective, seed_key, start_idx); module-level, as are the
    objectives, so process pools can pickle it."""
    objective, seed_key, start_idx = start
    rng = np.random.default_rng(np.random.SeedSequence((*seed_key, start_idx)))
    corner = corners[start_idx] if start_idx < len(corners) else None
    val, chans = _ascend(objective, _start_channels(rng, shapes, corner), rng)
    return val, _key(chans), [c.copy() for c in chans]


def _multistart(jobs, shapes, corners, n_starts: int, workers: int) -> list[tuple]:
    """Per (objective, seed_key) of ``jobs``, the ``_better``-best (value, key,
    channels) over ``n_starts`` ascents; one ``parallel_map`` runs them all."""
    starts = [(objective, seed_key, i) for objective, seed_key in jobs for i in range(n_starts)]
    runs = parallel_map(functools.partial(_start_worker, shapes, corners), starts, workers)
    return [_best(runs[i:i + n_starts]) for i in range(0, len(runs), n_starts)]


def _objective(bounds_of, cons, chans) -> float:
    """``_score`` under ``cons`` of the searched system ``chans``, whose bounds
    are the first entry of ``bounds_of(*chans)``."""
    return _score(bounds_of(*chans)[0], cons)


def _checked_caps(source: JointSource, caps) -> tuple[int, int, int]:
    """``caps`` as a tuple of three positive integer sizes within ``prop1_caps``."""
    p1 = prop1_caps(source)
    caps = tuple(caps)
    if len(caps) != 3:
        raise ValidationError(f"caps must be three sizes, got {caps}")
    caps = tuple(check_integer("each cap", c, 1) for c in caps)
    if not all(c <= hi for c, hi in zip(caps, p1)):
        raise ValidationError(f"caps must lie within the sufficient bounds {p1}, got {caps}")
    return caps


def _checked_search(n_starts, seed) -> tuple[int, int]:
    """A multi-start search's ``n_starts`` (at least 1) and ``seed`` (at least 0)."""
    return check_integer("n_starts", n_starts, 1), check_integer("seed", seed, 0)


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
) -> FrontierResult:
    """Best inner-region equivocation under each constraint setting.

    Random multi-start coordinate ascent over the channel rows; the
    reconstruction map is always set to the distortion-minimizing symbol.
    The reported value is a lower bound on the true frontier.
    """
    na, nc, _ = source.alphabet_sizes
    check_distortion(source, d)
    cap_u, cap_v, cap_w = _checked_caps(source, prop1_caps(source) if caps is None else caps)
    n_starts, seed = _checked_search(n_starts, seed)
    if fixed_w_given_c is not None and fixed_w_given_c.input_size != nc:
        raise ValidationError("fixed_w_given_c input size must match |C|")

    # the searched channels are p(u|v), p(v|a) and, unless it is fixed, p(w|c)
    shapes = [(cap_v, cap_u), (na, cap_v)]
    fixed = {}
    if fixed_w_given_c is None:
        shapes.append((nc, cap_w))
    else:
        fixed["wc"] = np.asarray(fixed_w_given_c.rows)
    bounds_of = functools.partial(_system_bounds, source, d, **fixed)
    jobs = [(functools.partial(_objective, bounds_of, cons), (seed, idx))
            for idx, cons in enumerate(constraints)]
    bests = _multistart(jobs, shapes, ("degenerate", "diagonal", "noisy"), n_starts, workers)
    points = [
        _inner_point(float(idx), cons, val,
                     functools.partial(_system_evaluation, source, d, *chans, **fixed))
        for idx, (cons, (val, _, chans)) in enumerate(zip(constraints, bests))
    ]
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
    r_c = max(bounds.r_c_min, bounds.sum_min - r_a)
    if delta > 0.0:  # Delta = 0 needs no Delta row (``InnerBounds.admits``)
        r_c = max(r_c, delta - bounds.delta_minus_rc_max)
    return RegionPoint(r_a, r_c, bounds.d_min, max(0.0, delta))


def _inner_point(sweep: float, cons: RegionConstraints, val: float, evaluate) -> FrontierPoint:
    """The frontier point at ``sweep`` of a search's winner of value ``val``
    (infeasible at most ``_INFEASIBLE_BASE / 2``); for a feasible winner,
    ``evaluate()`` re-evaluates it into its (bounds, params).  A value off by
    1e-9 or a point its bounds reject raises."""
    if val <= _INFEASIBLE_BASE / 2:
        return FrontierPoint(sweep=sweep, feasible=False, point=None, params={})
    bounds, params = evaluate()
    delta = _score(bounds, cons)
    if abs(delta - val) > 1e-9:
        raise RuntimeError("search result failed re-validation")
    point = _assemble_point(bounds, delta, cons)
    if not bounds.admits(point, tol=1e-7):
        raise RuntimeError("assembled frontier point not admitted by its own bounds")
    return FrontierPoint(sweep=sweep, feasible=True, point=point, params=params)


def _system_evaluation(source, d, uv, va, wc) -> tuple[InnerBounds, dict]:
    """Bounds and params of the system (p(u|v), p(v|a), p(w|c))."""
    bounds, recon = _system_bounds(source, d, uv, va, wc)
    return bounds, {
        "u_given_v": uv.tolist(),
        "v_given_a": va.tolist(),
        "w_given_c": np.asarray(wc).tolist(),
        "reconstruction": recon.tolist(),
    }


# ---------------------------------------------------------------------------
# lossless frontier
# ---------------------------------------------------------------------------

def _helper_evaluation(source, u_given_a) -> tuple[InnerBounds, dict]:
    """Bounds and params of the helper p(u|a), through ``lossless_region_point``."""
    return lossless_region_point(source, Channel(u_given_a)), {"u_given_a": u_given_a.tolist()}


def lossless_frontier(
    source: JointSource,
    r_c_grid,
    *,
    n_starts: int = 64,
    seed: int = 0,
    workers: int = 1,
) -> FrontierResult:
    """Best lossless equivocation I(A;C|U) - I(A;E|U) for each helper rate R_C.

    The helper cardinality is |A| + 2; the exact sufficient size for the
    lossless problem is unresolved, so the cap is heuristic.
    """
    na = source.alphabet_sizes[0]
    nu = na + 2
    n_starts, seed = _checked_search(n_starts, seed)
    r_c_grid = [float(x) for x in r_c_grid]
    if any(math.isnan(x) for x in r_c_grid) or any(b < a for a, b in zip(r_c_grid, r_c_grid[1:])):
        raise ValidationError(f"r_c_grid must be nondecreasing numbers, got {r_c_grid}")

    # Below H(C|A) no helper is feasible, as H(C|U) >= H(C|A) along U - A - C:
    # such a rate gets no search.  A searched rate caps R_C (rates within
    # SLACK below 0 count as 0).
    h_c_a = SubsetEntropies(source.probs).cond((1,), (0,))  # axes (a, c, e)
    cons = {i: RegionConstraints(max_r_c=max(r_c, 0.0))
            for i, r_c in enumerate(r_c_grid) if r_c >= h_c_a - SLACK}
    bounds_of = functools.partial(_lossless, source)
    jobs = [(functools.partial(_objective, bounds_of, c), (seed, 991)) for c in cons.values()]
    bests = dict(zip(cons, _multistart(jobs, [(na, nu)], ("diagonal", "degenerate"),
                                       n_starts, workers)))
    points = []
    for i, r_c in enumerate(r_c_grid):
        if i not in cons:
            points.append(FrontierPoint(sweep=r_c, feasible=False, point=None, params={}))
            continue
        val, _, (u_given_a,) = bests[i]
        points.append(_inner_point(r_c, cons[i], val,
                                   functools.partial(_helper_evaluation, source, u_given_a)))
    return FrontierResult(
        tuple(points),
        provenance={"model": "lossless", "u_size": nu, "n_starts": n_starts, "seed": seed},
    )


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------
#
# The search space is every (p(u|v), p(v|a), p(w|c)) with rows on the
# step-1/m simplex grid.  The six bounds are invariant under relabeling the
# outputs of U, V or W (the reconstruction is re-optimized), so each channel
# grid keeps one channel per relabeling: the one with columns in
# non-decreasing lexicographic order.
#
# Along the chain U - V - A - C - W (and A - E) every term but H(W|U) depends
# on (p(v|a), p(w|c)) or on (p(v|a), p(u|v)) alone:
#   R_A = H(V,W) - H(W) - H(V|A),   R_C = H(V,W) - H(V) - H(W|C),
#   R_A + R_C = H(V,W) - H(V|A) - H(W|C),
#   Delta = H(A|V,W) + [H(W|U) - H(W|A)]^+ - I(A;E|U),
#   Delta - R_C = H(A|V) - R_C - I(A;E|U),  I(A;E|U) = [H(E|U) - H(E|A)]^+.
# A shard computes the (V, W) terms of a slice of V channels at once, the
# (V, U) terms per V channel, and H(W|U) only for the W columns that can
# still beat the shard's running best.  As H(W|U) <= H(W), a column's Delta
# is at most H(A|V,W) + [H(W) - H(W|A)]^+ + g (capped like Delta with
# Delta - R_C <= H(A|V) - R_C + g), for g = 0, as I(A;E|U) >= 0, before any
# U work, then for g = the largest -I(A;E|U) over the U grid.  A column is
# dropped when that bound plus _PRUNE_MARGIN is below the running best,
# which comes earlier in the shard and so also wins a tie.
#
# Each value is formed elementwise by the same float64 ufunc steps whatever
# block it sits in (see _block_entropy), so neither column batching nor pruning
# moves a value: the winner is the largest value, ties going to the smallest
# (V, U, W) grid index, and is re-evaluated through _system_bounds.

_ORACLE_BUDGET = 6_000_000_000  # default refusal size, in systems of the quotient grid
_ORACLE_CHUNK = 64  # most V channels per shard; results never depend on the worker count
_BLOCK = 1 << 18  # most (V, W) or (U, W) entries per block, unless one W or U grid is larger
_PRUNE_MARGIN = 1e-9  # covers float64 rounding between a column's bound and its values


def _channel_grid(n_in: int, k: int, m: int) -> np.ndarray:
    """Every n_in x k channel with rows on the step-1/m simplex grid whose
    columns are in non-decreasing lexicographic order (one per output
    relabeling), in lexicographic order of its rows; shape (N, n_in, k).

    Built one row at a time: a channel's columns are sorted only if those
    of each leading block of rows are, so unsorted prefixes are dropped early.
    """
    rows = np.array(sorted(
        tuple(np.bincount(comp, minlength=k))
        for comp in itertools.combinations_with_replacement(range(k), m)
    ))
    grid = np.zeros((1, 0, k), dtype=np.int64)
    for _ in range(n_in):
        grid = np.concatenate([
            np.repeat(grid, len(rows), axis=0),
            np.tile(rows, (len(grid), 1))[:, None, :],
        ], axis=1)
        step = np.diff(grid, axis=2)  # column j+1 minus column j, per row
        first = np.argmax(step != 0, axis=1)  # the first row where they differ
        grid = grid[(np.take_along_axis(step, first[:, None, :], axis=1) >= 0).all(axis=(1, 2))]
    return grid / m


def _partitions(k: int, largest: int):
    """Partitions of k into parts of at most ``largest``, largest part first."""
    if k == 0:
        yield ()
    for first in range(min(k, largest), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first, *rest)


def _channel_count(n_in: int, k: int, m: int) -> int:
    """``len(_channel_grid(n_in, k, m))``, without building the grid.

    The grid holds one channel per orbit of the column permutations, so by
    Burnside's lemma its size is the mean, over the k! permutations, of the
    channels each one fixes.  A permutation with cycle lengths l_1..l_r fixes
    the channels whose rows are constant on its cycles, ways^n_in of them,
    with ``ways`` the number of solutions of sum_i l_i x_i = m in
    non-negative integers; k! / prod_l (l^c_l c_l!) permutations have those
    cycle lengths (c_l cycles of length l).
    """
    total = 0
    for cycles in _partitions(k, k):
        ways = [1] + [0] * m
        for length in cycles:
            for x in range(length, m + 1):
                ways[x] += ways[x - length]
        z = 1
        for length in set(cycles):
            c = cycles.count(length)
            z *= length ** c * math.factorial(c)
        total += ways[m] ** n_in * (math.factorial(k) // z)
    return total // math.factorial(k)


def _block_entropy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Entropy of each (i, j) joint p[r, s] = sum_a x[i, a, r] y[j, a, s], as
    an (I, J) array.

    Each entry of p is a chain of separately rounded ufunc steps, so its value
    does not depend on I, J or its place in the block.  An identity block
    np.eye(n)[None] as x or y keeps the summed axis in the joint, giving e.g.
    H(A, W); a diagonal block also weights it.
    """
    h = 0.0
    for r in range(x.shape[2]):
        for s in range(y.shape[2]):
            p = x[:, 0, r, None] * y[None, :, 0, s]
            for a in range(1, x.shape[1]):
                p += x[:, a, r, None] * y[None, :, a, s]
            logp = np.zeros_like(p)
            np.log2(p, out=logp, where=p > 0.0)
            h = h - p * logp
    return h


def _oracle_shard(args):
    """Best (value, (V, U, W) grid indices) per constraint over one slice of V channels."""
    lo, va, uv, wc, source, d, cons_list = args
    pa, pc = source.p_a(), source.p_c()
    pa_col = pa[None, :, None]
    h_a = entropy_unchecked(pa)
    h_e_a = entropy_unchecked(source.p_ae()) - h_a

    # W terms, then (V, W) terms of the whole slice
    q = np.einsum("ac,ncw->naw", source.p_ac(), wc)  # p(a, w) per W channel
    h_w = _block_entropy(np.ones((1, len(pa), 1)), q)[0]
    h_w_a = _block_entropy(np.eye(len(pa))[None], q)[0] - h_a
    h_w_c = _block_entropy(np.diag(pc)[None], wc)[0] - entropy_unchecked(pc)
    h_v = _block_entropy(va, pa_col)[:, 0]
    h_v_a = _block_entropy(va, np.diag(pa)[None])[:, 0] - h_a
    h_vw = _block_entropy(va, q)
    costs = np.einsum("sav,naw,ab->snvwb", va, q, d.table)  # per (v, w) and reconstruction b
    d_min = costs.min(axis=4).sum(axis=(2, 3))
    r_a = np.maximum(h_vw - h_w - h_v_a[:, None], 0.0)
    r_c = np.maximum(h_vw - h_v[:, None] - h_w_c, 0.0)
    r_sum = np.maximum(h_vw - h_v_a[:, None] - h_w_c, 0.0)
    x = h_v_a[:, None] + (h_w_a + h_a) - h_vw  # H(A|V,W)
    y = (h_a + h_v_a - h_v)[:, None] - r_c  # H(A|V) - R_C
    feasible = [_violation(d_min, r_a, r_c, r_sum, c) <= SLACK for c in cons_list]
    # each column's objective bound for g = 0; a g shifts it by g
    ub = [_capped(x + np.maximum(h_w - h_w_a, 0.0), y, c) for c in cons_list]
    best = [None] * len(cons_list)

    def survivors(s: int, g: float):
        """Per constraint, the W columns of V channel s whose bound, with
        g >= -I(A;E|U) over the U grid, can still beat the running best."""
        keep = [feas[s] if b is None else feas[s] & (u[s] + g + _PRUNE_MARGIN >= b[0])
                for feas, u, b in zip(feasible, ub, best)]
        return keep, np.nonzero(np.logical_or.reduce(keep))[0]

    step = max(1, _BLOCK // len(uv))
    for s in range(len(va)):
        keep, cols = survivors(s, 0.0)
        if cols.size == 0:
            continue
        # (V, U) terms over the U grid: p(u|a), H(U) and I(A;E|U)
        pu_a = np.einsum("av,jvu->jau", va[s], uv)
        h_u = _block_entropy(pu_a, pa_col)[:, 0]
        i_ae = np.maximum(_block_entropy(pu_a, source.p_ae()[None])[:, 0] - h_u - h_e_a, 0.0)
        keep, cols = survivors(s, float(-i_ae.min()))
        for j in range(0, cols.size, step):
            ws = cols[j:j + step]
            h_w_u = _block_entropy(pu_a, q[ws]) - h_u[:, None]
            eq5 = x[s, ws] + np.maximum(h_w_u - h_w_a[ws], 0.0) - i_ae[:, None]
            eq6 = y[s, ws] - i_ae[:, None]
            for ci, c in enumerate(cons_list):
                sub = keep[ci][ws]
                if not sub.any():
                    continue
                val = np.where(sub, np.maximum(_capped(eq5, eq6, c), 0.0), -np.inf)
                ui, wi = np.unravel_index(int(np.argmax(val)), val.shape)
                cand = (float(val[ui, wi]), (lo + s, int(ui), int(ws[wi])))
                if _better(cand, best[ci]):
                    best[ci] = cand
    return best


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

    Every row of p(u|v), p(v|a) and p(w|c) ranges over the simplex grid of
    step ``grid_step``, keeping one channel per output relabeling, which
    excludes no equivalence class; a fixed W channel is a W grid of one
    channel.  Any alphabet sizes work.  ``provenance["grid_sizes"]`` holds
    the V, U and W grid sizes; a grid of more than ``budget`` systems (their
    product) is refused with ``BudgetError``.
    """
    na, nc, _ = source.alphabet_sizes
    check_distortion(source, d)
    cu, cv, cw = caps = _checked_caps(source, caps)
    if not 0.0 < grid_step <= 1.0:
        raise ValidationError(f"grid_step must lie in (0, 1], got {grid_step}")
    m = round(1.0 / grid_step)
    fixed = fixed_w_given_c is not None
    if fixed and fixed_w_given_c.input_size != nc:
        raise ValidationError("fixed_w_given_c input size must match |C|")
    shapes = [(na, cv), (cv, cu), (nc, 1 if fixed else cw)]  # a fixed W counts as one channel
    budget = _ORACLE_BUDGET if budget is None else budget
    # an orbit holds at most k! channels, so a grid has at least C(m+k-1, k-1)^n_in // k!
    # of them; this bound refuses a fine step before _channel_count's tables grow with m
    least = math.prod(math.comb(m + k - 1, k - 1) ** n_in // math.factorial(k)
                      for n_in, k in shapes)
    sizes = [_channel_count(n_in, k, m) for n_in, k in shapes] if least <= budget else None
    if sizes is None or math.prod(sizes) > budget:
        count = f"at least {least}" if sizes is None else math.prod(sizes)
        raise BudgetError(
            f"grid has {count} channel combinations, above the budget of {budget}; "
            "increase the step or the budget"
        )
    grids = (
        _channel_grid(na, cv, m),
        _channel_grid(cv, cu, m),
        np.asarray(fixed_w_given_c.rows)[None] if fixed else _channel_grid(nc, cw, m),
    )
    cons_list = list(constraints)
    chunk = min(_ORACLE_CHUNK, max(1, _BLOCK // len(grids[2])))
    shards = [(lo, grids[0][lo:lo + chunk], grids[1], grids[2], source, d, cons_list)
              for lo in range(0, len(grids[0]), chunk)]
    shard_bests = parallel_map(_oracle_shard, shards, workers)
    points = []
    for ci, cons in enumerate(cons_list):
        best = _best(sb[ci] for sb in shard_bests)  # None: no feasible system
        val, (vi, ui, wi) = (-math.inf, (0, 0, 0)) if best is None else best
        evaluate = functools.partial(_system_evaluation, source, d,
                                     grids[1][ui], grids[0][vi], grids[2][wi])
        points.append(_inner_point(float(ci), cons, val, evaluate))
    return FrontierResult(
        tuple(points),
        provenance={"method": "exhaustive", "step": 1.0 / m, "caps": list(caps),
                    "grid_sizes": sizes},
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
