"""Output checks for the benchmark, written apart from ``rdeq``.

Nothing here imports ``rdeq``.  Every quantity is recomputed from its
definition: entropies of marginals of the composed joint, the binary closed
form in (alpha, beta), count-based strong typicality, and a dense
H(A^n | J, E^n).  Each ``check_*`` function takes outputs of the program (and
the inputs that produced them) and returns a list of failure messages; an
empty list means the check passed.

Tolerances:

* ``ADMIT_TOL`` (1e-9): a reported point against bounds recomputed from its
  own channels.
* ``FAST_PATH_TOL`` (1e-5): any comparison against a value found by the
  binary oracle's fast paths, which search with a table-based h2 whose worst
  error is 8.1e-6.
* ``ASCENT_TOL`` (5e-3): the ascent against the step-0.02 oracle, as in
  acceptance criterion 5.
* ``EQUIVOCATION_GAP`` (0.08): the n = 14 exact equivocation against its
  single-letter value, as in acceptance criterion 8.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

ADMIT_TOL = 1e-9
FAST_PATH_TOL = 1e-5
ASCENT_TOL = 5e-3
EQUIVOCATION_GAP = 0.08
#: sampled systems must meet every finite constraint by this margin before
#: they are compared with a fast-path oracle, whose feasibility test also
#: runs on the table-based h2
SAMPLE_MARGIN = 1e-4

# axes of the batched joint p(b, u, v, w, a, c, e)
_U, _V, _W, _A, _C, _E = range(1, 7)


# ---------------------------------------------------------------------------
# plain information measures
# ---------------------------------------------------------------------------

def _row_entropy(p: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of a (B, k) table."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    return -terms.sum(axis=1)


def _marginal_entropy(joint: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """H of the variables on axes ``keep`` of a batched joint; one value per batch row."""
    drop = tuple(ax for ax in range(1, joint.ndim) if ax not in keep)
    marg = joint.sum(axis=drop) if drop else joint
    return _row_entropy(marg.reshape(marg.shape[0], -1))


def h2(x):
    """Binary entropy, elementwise, with h2(0) = h2(1) = 0."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where((x <= 0.0) | (x >= 1.0), 0.0, out)


def star(a, b):
    return a * (1.0 - b) + (1.0 - a) * b


def binary_closed_form(p: float, eps: float, alpha, beta):
    """Delta of the BEC/BSC model at chain parameters (alpha, beta)."""
    ab = star(alpha, beta)
    return eps * h2(alpha) + (1.0 - eps) * h2(ab) - h2(star(p, ab)) + h2(p)


def inner_bounds(source: np.ndarray, d_table: np.ndarray, uv, va, wc) -> dict:
    """The six inner bounds for a batch of channel triples.

    ``uv``, ``va`` and ``wc`` hold p(u|v), p(v|a) and p(w|c) with a leading
    batch axis (a single triple may omit it).  ``d_min`` uses the
    distortion-minimizing reconstruction for each (v, w).
    """
    uv, va, wc = (np.asarray(x, dtype=float) for x in (uv, va, wc))
    if uv.ndim == 2:
        uv, va, wc = uv[None], va[None], wc[None]
    p = np.einsum("bvu,bav,bcw,ace->buvwace", uv, va, wc, source)

    def H(*axes):
        return _marginal_entropy(p, axes)

    h_u, h_v, h_w = H(_U), H(_V), H(_W)
    h_vw = H(_V, _W)
    i_va_w = h_vw + H(_A, _W) - H(_V, _A, _W) - h_w
    i_wc_v = h_vw + H(_C, _V) - H(_W, _C, _V) - h_v
    i_vw_ac = h_vw + H(_A, _C) - H(_V, _W, _A, _C)
    h_au = H(_A, _U)
    i_aw_u = h_au + H(_W, _U) - H(_A, _W, _U) - h_u
    i_ae_u = h_au + H(_E, _U) - H(_A, _E, _U) - h_u
    p_vwa = p.sum(axis=(_U, _C, _E))                          # (B, v, w, a)
    costs = np.einsum("bvwa,ax->bvwx", p_vwa, d_table)        # expected cost per guess x
    return {
        "r_a_min": i_va_w,
        "r_c_min": i_wc_v,
        "sum_min": i_vw_ac,
        "d_min": costs.min(axis=3).sum(axis=(1, 2)),
        "delta_max": H(_A, _V, _W) - h_vw + i_aw_u - i_ae_u,
        "delta_minus_rc_max": H(_A, _V) - h_v - i_ae_u - i_wc_v,
    }


def constrained_delta(bounds: dict, cons, margin: float = 0.0) -> np.ndarray:
    """Best Delta at each system under ``cons``; -inf where infeasible.

    ``margin`` tightens every finite constraint by that amount.
    """
    slack = ADMIT_TOL - margin
    feas = (
        (bounds["d_min"] <= cons.max_d + slack)
        & (bounds["r_a_min"] <= cons.max_r_a + slack)
        & (bounds["r_c_min"] <= cons.max_r_c + slack)
        & (bounds["sum_min"] <= cons.max_r_a + cons.max_r_c + slack)
    )
    delta = bounds["delta_max"]
    if math.isfinite(cons.max_r_c):
        delta = np.minimum(delta, cons.max_r_c + bounds["delta_minus_rc_max"])
    return np.where(feas, np.maximum(delta, 0.0), -np.inf)


def lossless_bounds(source: np.ndarray, u_given_a) -> dict:
    """Distributed-lossless bounds at one helper channel p(u|a)."""
    p = np.einsum("au,ace->uace", np.asarray(u_given_a, dtype=float), source)[None]
    U, A, C, E = 1, 2, 3, 4

    def H(*axes):
        return float(_marginal_entropy(p, axes)[0])

    h_u = H(U)
    i_ac_u = H(A, U) + H(C, U) - H(A, C, U) - h_u
    i_ae_u = H(A, U) + H(E, U) - H(A, E, U) - h_u
    return {
        "r_a_min": H(A, C) - H(C),
        "r_c_min": H(C, U) - h_u,
        "sum_min": H(A, C),
        "delta_max": i_ac_u - i_ae_u,
    }


def source_measures(source: np.ndarray) -> dict:
    """H(A|E), H(C), H(C|A), I(A;C) and I(A;E) of a source table p(a, c, e)."""
    def H(t):
        return float(_row_entropy(np.asarray(t).reshape(1, -1))[0])

    h_a, h_c, h_e = H(source.sum((1, 2))), H(source.sum((0, 2))), H(source.sum((0, 1)))
    h_ac, h_ae = H(source.sum(2)), H(source.sum(1))
    return {
        "h_a_e": h_ae - h_e,
        "h_c": h_c,
        "h_c_a": h_ac - h_a,
        "i_ac": h_a + h_c - h_ac,
        "i_ae": h_a + h_e - h_ae,
    }


# ---------------------------------------------------------------------------
# frontier points
# ---------------------------------------------------------------------------

def check_inner_point(label: str, source, d_table, fpoint, cons) -> list[str]:
    """A reported inner-region point against bounds recomputed from its channels.

    The point must be feasible, satisfy ``cons``, be admitted by the six
    bounds, and carry the Delta its own system achieves under ``cons``.
    """
    if not fpoint.feasible:
        return [f"{label}: reported infeasible"]
    prm, pt = fpoint.params, fpoint.point
    uv, va, wc = (np.asarray(prm[k], dtype=float) for k in ("u_given_v", "v_given_a", "w_given_c"))
    for name, ch in (("u_given_v", uv), ("v_given_a", va), ("w_given_c", wc)):
        if np.any(ch < 0.0) or np.any(np.abs(ch.sum(axis=1) - 1.0) > 1e-9):
            return [f"{label}: {name} is not a channel"]
    b = {k: float(v[0]) for k, v in inner_bounds(source, d_table, uv, va, wc).items()}
    t = ADMIT_TOL
    tests = {
        "R_A >= I(V;A|W)": pt.r_a >= b["r_a_min"] - t,
        "R_C >= I(W;C|V)": pt.r_c >= b["r_c_min"] - t,
        "R_A + R_C >= I(VW;AC)": pt.r_a + pt.r_c >= b["sum_min"] - t,
        "D >= E d(A, A_hat)": pt.d >= b["d_min"] - t,
        "Delta <= delta bound": pt.delta <= b["delta_max"] + t,
        "Delta - R_C <= bound": pt.delta - pt.r_c <= b["delta_minus_rc_max"] + t,
        "R_A <= max_r_a": pt.r_a <= cons.max_r_a + t,
        "R_C <= max_r_c": pt.r_c <= cons.max_r_c + t,
        "D <= max_d": pt.d <= cons.max_d + t,
    }
    out = [f"{label}: {name} fails" for name, ok in tests.items() if not ok]
    achieved = float(constrained_delta(
        {k: np.array([v]) for k, v in b.items()}, cons)[0])
    if not abs(pt.delta - achieved) <= t:
        out.append(f"{label}: Delta {pt.delta!r} differs from its system's value {achieved!r}")
    if "reconstruction" in prm:
        recon = np.asarray(prm["reconstruction"], dtype=int)
        p_vwa = np.einsum("vu,av,cw,ace->vwa", uv, va, wc, source)
        cells = product(*map(range, recon.shape))
        dist = sum(float(p_vwa[v, w] @ d_table[:, recon[v, w]]) for v, w in cells)
        if not dist <= pt.d + t:
            out.append(f"{label}: reported reconstruction has distortion {dist!r} > D {pt.d!r}")
    return out


def check_frontier(label: str, source, d_table, result, constraints) -> list[str]:
    if len(result.points) != len(constraints):
        return [f"{label}: {len(result.points)} points for {len(constraints)} constraints"]
    out = []
    for i, (fp, cons) in enumerate(zip(result.points, constraints)):
        out += check_inner_point(f"{label}[{i}]", source, d_table, fp, cons)
    return out


def check_against_reference(label: str, result, reference: list[float],
                            tol: float = ASCENT_TOL) -> list[str]:
    """Each point's Delta within ``tol`` of the stored step-0.02 oracle value."""
    out = []
    for i, (fp, ref) in enumerate(zip(result.points, reference)):
        if not fp.feasible:
            out.append(f"{label}[{i}]: reported infeasible")
        elif not abs(fp.point.delta - ref) <= tol:
            out.append(f"{label}[{i}]: Delta {fp.point.delta:.6f} is "
                       f"{abs(fp.point.delta - ref):.2e} from the oracle's {ref:.6f}")
    if len(result.points) != len(reference):
        out.append(f"{label}: {len(result.points)} points for {len(reference)} reference values")
    return out


def check_lossless(label: str, source, result, rates) -> list[str]:
    """Lossless points: admitted by recomputed bounds, Delta in [0, H(A|E)], and at
    least I(A;C) - I(A;E) at helper rates >= H(C), where a constant U is feasible."""
    m = source_measures(source)
    if [fp.sweep for fp in result.points] != list(rates):
        return [f"{label}: sweep {[fp.sweep for fp in result.points]} is not {list(rates)}"]
    out = []
    t = ADMIT_TOL
    for fp, r_c in zip(result.points, rates):
        tag = f"{label}[R_C={r_c:.4f}]"
        if not fp.feasible:
            out.append(f"{tag}: reported infeasible")
            continue
        pt = fp.point
        b = lossless_bounds(source, fp.params["u_given_a"])
        tests = {
            "R_A >= H(A|C)": pt.r_a >= b["r_a_min"] - t,
            "R_C >= H(C|U)": pt.r_c >= b["r_c_min"] - t,
            "R_A + R_C >= H(A,C)": pt.r_a + pt.r_c >= b["sum_min"] - t,
            "R_C <= helper rate": pt.r_c <= r_c + t,
            "Delta equals its system's value": abs(pt.delta - max(0.0, b["delta_max"])) <= t,
            "0 <= Delta <= H(A|E)": -t <= pt.delta <= m["h_a_e"] + t,
        }
        if r_c >= m["h_c"]:
            tests["Delta >= I(A;C) - I(A;E)"] = pt.delta >= m["i_ac"] - m["i_ae"] - t
        out += [f"{tag}: {name} fails" for name, ok in tests.items() if not ok]
    return out


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------

def check_nested(label: str, fine, coarse, tol: float) -> list[str]:
    """The value on a grid is at least the value on the grid of twice its step."""
    out = []
    for i, (f, c) in enumerate(zip(fine.points, coarse.points)):
        if c.feasible and not f.feasible:
            out.append(f"{label}[{i}]: infeasible on the fine grid, feasible on the coarse one")
        elif c.feasible and not f.point.delta >= c.point.delta - tol:
            out.append(f"{label}[{i}]: fine-grid Delta {f.point.delta!r} < "
                       f"coarse-grid Delta {c.point.delta!r}")
    return out


def check_dominates(label: str, larger, smaller, tol: float) -> list[str]:
    """Each point of ``larger`` is at least the matching point of ``smaller``."""
    out = []
    for i, (a, b) in enumerate(zip(larger.points, smaller.points)):
        if b.feasible and not (a.feasible and a.point.delta >= b.point.delta - tol):
            got = a.point.delta if a.feasible else None
            out.append(f"{label}[{i}]: {got!r} below {b.point.delta!r}")
    return out


def grid_rows(rng, n_rows: int, k: int, m: int) -> np.ndarray:
    """Random stochastic rows with entries on {0, 1/m, ..., 1}.

    Drawn from Dirichlet(1/2) and rounded by largest remainder, so rows
    near the simplex corners (low-distortion channels) are common.
    """
    raw = rng.dirichlet(np.full(k, 0.5), size=n_rows) * m
    counts = np.floor(raw).astype(int)
    for r in range(n_rows):
        short = m - counts[r].sum()
        order = np.argsort(-(raw[r] - counts[r]), kind="stable")
        counts[r, order[:short]] += 1
    return counts / m


def sample_grid_systems(rng, count: int, shapes, m: int, fixed_wc=None):
    """``count`` random channel triples on the step-1/m grid; W fixed if given."""
    uv = np.stack([grid_rows(rng, *shapes[0], m) for _ in range(count)])
    va = np.stack([grid_rows(rng, *shapes[1], m) for _ in range(count)])
    if fixed_wc is None:
        wc = np.stack([grid_rows(rng, *shapes[2], m) for _ in range(count)])
    else:
        wc = np.broadcast_to(np.asarray(fixed_wc, dtype=float), (count, *np.shape(fixed_wc)))
    return uv, va, wc


def check_beats_samples(label: str, source, d_table, result, constraints, systems,
                        tol: float) -> list[str]:
    """The oracle's value is at least the value of every sampled grid system
    that meets the constraints with ``SAMPLE_MARGIN`` to spare."""
    bounds = inner_bounds(source, d_table, *systems)
    out = []
    for i, (fp, cons) in enumerate(zip(result.points, constraints)):
        vals = constrained_delta(bounds, cons, margin=SAMPLE_MARGIN)
        if not np.isfinite(vals).any():
            continue
        best = float(vals.max())
        got = fp.point.delta if fp.feasible else -math.inf
        if not got >= best - tol:
            out.append(f"{label}[{i}]: oracle Delta {got!r} below sampled system's {best!r}")
    return out


def best_binary_closed_form(p: float, eps: float, d: float, step: float) -> float:
    """Max closed-form Delta over (alpha, beta) on the step grid in [0, 1/2]^2
    with eps * alpha <= d."""
    m = round(1.0 / step)
    grid = np.arange(m // 2 + 1) / m
    alphas = grid[eps * grid <= d + ADMIT_TOL]
    vals = binary_closed_form(p, eps, alphas[:, None], grid[None, :])
    return float(vals.max())


def check_fixed_w_closed_form(label: str, result, p: float, eps: float, d_caps,
                              step: float, tol: float) -> list[str]:
    out = []
    for i, (fp, d) in enumerate(zip(result.points, d_caps)):
        best = best_binary_closed_form(p, eps, d, step)
        got = fp.point.delta if fp.feasible else -math.inf
        if not got >= best - tol:
            out.append(f"{label}[D={d}]: oracle Delta {got!r} below the closed form's {best!r}")
    return out


# ---------------------------------------------------------------------------
# binary closed-form frontier
# ---------------------------------------------------------------------------

def dense_binary_max(p: float, eps: float, d: float, beta_zero: bool, points: int = 161):
    """Dense-grid max of the closed form over the feasible (alpha, beta) box.

    Returns the max and a grid-spacing tolerance: twice the largest change
    between neighbouring grid values around the maximizer.
    """
    a_hi = min(0.5, d / eps) if eps > 0 else 0.5
    alphas = np.linspace(0.0, a_hi, points)
    betas = np.zeros(1) if beta_zero else np.linspace(0.0, 0.5, points)
    vals = binary_closed_form(p, eps, alphas[:, None], betas[None, :])
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    near = vals[max(0, i - 2):i + 3, max(0, j - 2):j + 3]
    steps = [np.abs(np.diff(near, axis=ax)).max() for ax in (0, 1) if near.shape[ax] > 1]
    return float(vals[i, j]), 2.0 * max(steps, default=0.0) + ADMIT_TOL


def check_binary_curves(label: str, p: float, eps: float, optimal, single) -> list[str]:
    """Frontier points of the optimal and single-layer binary curves."""
    out = []
    for name, res, beta_zero in (("optimal", optimal, False), ("single-layer", single, True)):
        prev = -math.inf
        for fp in res.points:
            tag = f"{label} {name}[D={fp.sweep:.5g}]"
            if not fp.feasible:
                out.append(f"{tag}: reported infeasible")
                continue
            a, b, delta = fp.params["alpha"], fp.params["beta"], fp.point.delta
            closed = max(0.0, float(binary_closed_form(p, eps, a, b)))
            dense, tol = dense_binary_max(p, eps, fp.sweep, beta_zero)
            tests = {
                "Delta equals the closed form at its (alpha, beta)": abs(delta - closed) <= 1e-12,
                "(alpha, beta) lies in the feasible box":
                    0.0 <= a <= 0.5 and 0.0 <= b <= 0.5 and eps * a <= fp.sweep + ADMIT_TOL
                    and (b == 0.0 or not beta_zero),
                "Delta within grid tolerance of the dense max": abs(delta - dense) <= tol,
                "Delta nondecreasing in D": delta >= prev - ADMIT_TOL,
                "Delta <= h2(p)": delta <= float(h2(p)) + 1e-12,
            }
            out += [f"{tag}: {t} fails" for t, ok in tests.items() if not ok]
            prev = delta
    for o, s in zip(optimal.points, single.points):
        if o.feasible and s.feasible and not o.point.delta >= s.point.delta - 1e-12:
            out.append(f"{label}[D={o.sweep:.5g}]: optimal {o.point.delta!r} "
                       f"below single-layer {s.point.delta!r}")
    return out


def check_reproduction(label: str, output) -> list[str]:
    lines, failures = output
    if failures:
        return [f"{label}: reproduction failures {failures}"]
    if not lines:
        return [f"{label}: no report lines"]
    return []


# ---------------------------------------------------------------------------
# finite-blocklength simulator
# ---------------------------------------------------------------------------

def _typical_mask(counts: np.ndarray, n: int, probs: np.ndarray, delta: float) -> np.ndarray:
    """Strong typicality of count rows: |N/n - p| <= delta, N = 0 where p = 0."""
    ok = (np.abs(counts / n - probs) <= delta + 1e-12).all(axis=1)
    return ok & (counts[:, probs == 0.0] == 0).all(axis=1)


def _symbol_counts(sym: np.ndarray, k: int) -> np.ndarray:
    """Occurrences of each symbol 0..k-1 in each row of ``sym``; shape (rows, k)."""
    return np.stack([(sym == s).sum(axis=1) for s in range(k)], axis=1)


def first_jointly_typical(codebook: np.ndarray, seq, p_joint: np.ndarray, delta: float) -> int:
    """Index of the first codeword x^n with (x^n, seq) jointly typical, else -1."""
    kx, ky = p_joint.shape
    n = codebook.shape[1]
    sym = codebook.astype(np.int64) * ky + np.asarray(seq, dtype=np.int64)[None, :]
    ok = _typical_mask(_symbol_counts(sym, kx * ky), n, p_joint.ravel(), delta)
    hits = np.flatnonzero(ok)
    return int(hits[0]) if hits.size else -1


def first_conditionally_typical(u_n, candidates: np.ndarray, a_n, p_va_given_u: np.ndarray,
                                delta: float) -> int:
    """First v^n among ``candidates`` with (v^n, a^n) conditionally typical given u^n:
    |N(u, (v, a))/n - N(u)/n p(v, a | u)| <= delta, and N = 0 where p(v, a | u) = 0."""
    nu, nv, na = p_va_given_u.shape
    k = nv * na
    n = len(u_n)
    u_n = np.asarray(u_n, dtype=np.int64)
    pair = candidates.astype(np.int64) * na + np.asarray(a_n, dtype=np.int64)[None, :]
    counts = _symbol_counts(u_n[None, :] * k + pair, nu * k)
    n_u = np.bincount(u_n, minlength=nu)
    target = (n_u[:, None] / n * p_va_given_u.reshape(nu, k)).ravel()
    ok = (np.abs(counts / n - target) <= delta + 1e-12).all(axis=1)
    ok &= (counts[:, p_va_given_u.ravel() == 0.0] == 0).all(axis=1)
    hits = np.flatnonzero(ok)
    return int(hits[0]) if hits.size else -1


def code_distributions(source: np.ndarray, uv, va, wc) -> dict:
    """p(u, a), p(v, a | u), p(w, c) and p(u, v, w) of an auxiliary system."""
    p_ac = source.sum(axis=2)
    p_a = p_ac.sum(axis=1)
    p_uva = np.einsum("vu,av,a->uva", uv, va, p_a)
    p_u = p_uva.sum(axis=(1, 2))
    p_va_u = np.zeros_like(p_uva)
    p_va_u[p_u > 0] = p_uva[p_u > 0] / p_u[p_u > 0][:, None, None]
    return {
        "p_ua": p_uva.sum(axis=1),
        "p_va_given_u": p_va_u,
        "p_wc": (wc * p_ac.sum(axis=0)[:, None]).T,
        "p_uvw": np.einsum("vu,av,cw,ac->uvw", uv, va, wc, p_ac),
    }


def plain_message(inst, dist: dict, a_n) -> int:
    """J = (u-bin, v-bin) of a^n, by first-typical scans; failures fall back to 0."""
    delta = inst.config.delta
    s1 = max(0, first_jointly_typical(inst.u_cb, a_n, dist["p_ua"], delta))
    s2 = max(0, first_conditionally_typical(inst.u_cb[s1], inst.v_cb[s1], a_n,
                                            dist["p_va_given_u"], delta))
    return int(inst.u_bin[s1]) * inst.config.bins_v + int(inst.v_bin[s2])


def check_message_table(label: str, inst, dist: dict, table: np.ndarray, codes) -> list[str]:
    """``table`` (J for every source sequence) against a plain scan at ``codes``."""
    n = inst.config.n
    na = dist["p_ua"].shape[1]
    out = []
    for code in codes:
        a_n = [(int(code) // na ** (n - 1 - i)) % na for i in range(n)]
        want = plain_message(inst, dist, a_n)
        if int(table[code]) != want:
            out.append(f"{label}: J[{code}] = {int(table[code])}, plain scan gives {want}")
    return out[:5]


def check_alice(label: str, inst, dist: dict, seqs, messages) -> list[str]:
    """Messages J of single sequences against the plain first-typical scans."""
    out = []
    for a_n, j in zip(seqs, messages):
        want = plain_message(inst, dist, a_n)
        if j != want:
            out.append(f"{label}: J({list(a_n)}) = {j}, plain scan gives {want}")
    return out[:5]


def check_charlie(label: str, inst, dist: dict, seqs, encodings) -> list[str]:
    """Helper encodings (index s, failure flag) against a plain first-typical scan."""
    out = []
    for c_n, enc in zip(seqs, encodings):
        idx = first_jointly_typical(inst.w_cb, c_n, dist["p_wc"], inst.config.delta)
        want = (max(idx, 0), int(inst.w_bin[max(idx, 0)]), idx < 0)
        if (enc.s, enc.r, enc.failed) != want:
            out.append(f"{label}: encode_charlie({list(c_n)}) = {(enc.s, enc.r, enc.failed)}, "
                       f"plain scan gives {want}")
    return out[:5]


def plain_decode(inst, dist: dict, j, k) -> tuple[int, tuple[int, int, int]]:
    """(match count, chosen triple) by a joint-typicality scan over the bin members."""
    n = inst.config.n
    _, nv, nw = dist["p_uvw"].shape
    flat_p = dist["p_uvw"].ravel()
    members = [np.flatnonzero(inst.u_bin == j[0]), np.flatnonzero(inst.v_bin == j[1]),
               np.flatnonzero(inst.w_bin == k)]
    matches, first = [], None
    for s1, s2, s in product(*members):
        triple = (int(s1), int(s2), int(s))
        first = first or triple
        sym = (inst.u_cb[s1].astype(np.int64) * nv + inst.v_cb[s1, s2]) * nw + inst.w_cb[s]
        counts = np.bincount(sym, minlength=flat_p.size)[None, :]
        if _typical_mask(counts, n, flat_p, inst.config.delta)[0]:
            matches.append(triple)
    return len(matches), (matches[0] if matches else first)


def check_decoder(label: str, inst, dist: dict, requests, results) -> list[str]:
    out = []
    for (j, k), res in zip(requests, results):
        count, triple = plain_decode(inst, dist, j, k)
        got = (res.n_matches, (res.s1, res.s2, res.s))
        if got != (count, triple):
            out.append(f"{label}: decode_bob({j}, {k}) = {got}, plain scan gives {(count, triple)}")
    return out[:5]


def dense_equivocation(source: np.ndarray, n: int, table: np.ndarray) -> float:
    """H(A^n | J, E^n)/n from the dense joint p(a^n, e^n) and the message table."""
    p_ae = source.sum(axis=1)
    joint = np.ones((1, 1))
    for _ in range(n):
        joint = np.kron(joint, p_ae)                      # rows a^n, columns e^n
    p_je = np.zeros((int(table.max()) + 1, joint.shape[1]))
    np.add.at(p_je, table, joint)
    cond = joint / p_je[table]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(joint > 0.0, joint * np.log2(np.where(joint > 0.0, cond, 1.0)), 0.0)
    return float(-terms.sum() / n)


def check_equivocation(label: str, source: np.ndarray, value, single_letter: float) -> list[str]:
    h_a_e = source_measures(source)["h_a_e"]
    if value is None:
        return [f"{label}: no exact equivocation reported"]
    out = []
    if not -ADMIT_TOL <= value <= h_a_e + ADMIT_TOL:
        out.append(f"{label}: equivocation {value!r} outside [0, H(A|E) = {h_a_e!r}]")
    if not abs(value - single_letter) <= EQUIVOCATION_GAP:
        out.append(f"{label}: equivocation {value!r} is {abs(value - single_letter):.3f} "
                   f"from the single-letter {single_letter!r}")
    return out


def check_dense_equivocation(label: str, source, n: int, table, value) -> list[str]:
    want = dense_equivocation(source, n, np.asarray(table))
    if not abs(value - want) <= ADMIT_TOL:
        return [f"{label}: message_equivocation {value!r}, dense sum gives {want!r}"]
    return []


def check_sim_report(label: str, report, trials: int, trace_text: str) -> list[str]:
    """Report fields in range and consistent with the per-trial trace."""
    out = []
    rows = trace_text.splitlines()[1:]
    if report.trials != trials or len(rows) != trials:
        return [f"{label}: {report.trials} trials reported, {len(rows)} traced, {trials} asked"]
    errors = sum(int(r.split(",")[4]) for r in rows)
    if abs(report.decode_error_rate - errors / trials) > 1e-12:
        out.append(f"{label}: decode error rate {report.decode_error_rate!r} but "
                   f"{errors} traced errors")
    rates = [report.empirical_distortion, report.decode_ambiguity_rate,
             *report.encode_failure_rates.values()]
    if not all(0.0 <= r <= 1.0 for r in rates):
        out.append(f"{label}: a rate lies outside [0, 1]: {rates}")
    return out
