"""Exact finite-alphabet probability engine.

Distributions, channels, information measures (base-2 throughout) and the
scalar primitives used by every other module: binary entropy, the binary
convolution a*b = a(1-b) + (1-a)b, and composition of the auxiliary-variable
joint p(u,v,w,a,c,e).

Conventions
-----------
* All rates and entropies are in bits.
* 0 log 0 = 0; zero-mass cells are skipped rather than special-cased.
* Dense ndarray tables everywhere; target alphabets are tiny.
* Distributions must be normalized to 1 within ``NORM_TOL`` at construction.
* Information quantities are clamped to 0 if they round slightly negative
  (more negative than ``NEG_TOL`` raises, since that signals a real bug).
* Axis order for the six-variable joint is always (u, v, w, a, c, e).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

NORM_TOL = 1e-12
NEG_TOL = -1e-10

Regime = str  #: one of "degraded", "less_noisy", "more_capable", "none"


# ---------------------------------------------------------------------------
# scalar primitives
# ---------------------------------------------------------------------------

def check_range(name: str, x, hi: float = 1.0) -> np.ndarray:
    """``x`` as a float array whose every entry lies in [0, hi]; NaN is out of range."""
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x <= hi)
    if not np.all(inside):
        raise ValidationError(f"{name} must lie in [0, {hi:g}], got {x[~inside].flat[0]}")
    return x


def h2_unchecked(x) -> np.ndarray:
    """Unvalidated elementwise h2: the one expression behind ``h2`` and the closed forms."""
    x = np.asarray(x, dtype=float)
    inner = (x > 0.0) & (x < 1.0)
    y = np.where(inner, x, 0.5)
    return np.where(inner, -y * np.log2(y) - (1.0 - y) * np.log2(1.0 - y), 0.0)


def h2(x):
    """Binary entropy h2(x) = -x log2 x - (1-x) log2(1-x), with h2(0)=h2(1)=0.

    Elementwise over arrays; a scalar argument gives a float.
    """
    out = h2_unchecked(check_range("h2 argument", x))
    return float(out) if out.ndim == 0 else out


def h2_inv(y: float, tol: float = 1e-14) -> float:
    """Inverse of h2 on [0, 1/2], by bisection."""
    check_range("h2_inv argument", y)
    lo, hi = 0.0, 0.5
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if h2_unchecked(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def star_unchecked(a, b):
    """Binary convolution a*b = a(1-b) + (1-a)b, unvalidated; the one star expression."""
    return a * (1.0 - b) + (1.0 - a) * b


def star(a, b):
    """Binary convolution a*b = a(1-b) + (1-a)b.

    Elementwise over broadcast arrays; scalar arguments give a float.
    """
    out = star_unchecked(check_range("star argument", a), check_range("star argument", b))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# information measures on dense tables
# ---------------------------------------------------------------------------

def _check_distribution(p: np.ndarray, atol: float = 1e-9) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.size == 0:
        raise ValidationError("empty distribution")
    if not np.all(np.isfinite(p)):
        raise ValidationError("distribution has a non-finite entry")
    if np.any(p < -NORM_TOL):
        raise ValidationError(f"negative probability entry: min={p.min()}")
    total = p.sum()
    if abs(total - 1.0) > atol:
        raise ValidationError(f"distribution sums to {total}, expected 1")
    return p


def _clamp_info(value: float, name: str) -> float:
    if value < NEG_TOL:
        raise ValidationError(f"{name} computed as {value}; inconsistent input")
    return max(0.0, float(value))


def entropy(dist: np.ndarray) -> float:
    """Shannon entropy H(p) in bits of a distribution of any shape."""
    p = _check_distribution(dist)
    nz = p[p > 0.0]
    return _clamp_info(-(nz * np.log2(nz)).sum(), "entropy")


def entropy_unchecked(p: np.ndarray) -> float:
    """Entropy without normalization validation (internal marginals are exact)."""
    p = np.asarray(p, dtype=float)
    nz = p[p > 0.0]
    if nz.size == 0:
        return 0.0
    return max(0.0, float(-(nz * np.log2(nz)).sum()))


def mutual_information(joint: np.ndarray) -> float:
    """I(X;Y) in bits from a 2-d joint table p(x, y)."""
    p = _check_distribution(joint)
    if p.ndim != 2:
        raise ValidationError(f"mutual_information expects a 2-d joint, got ndim={p.ndim}")
    hx = entropy_unchecked(p.sum(axis=1))
    hy = entropy_unchecked(p.sum(axis=0))
    hxy = entropy_unchecked(p)
    return _clamp_info(hx + hy - hxy, "mutual information")


def conditional_entropy(joint: np.ndarray, given_axes: tuple[int, ...] | int) -> float:
    """H(rest | given) in bits from a joint table of any dimension."""
    p = _check_distribution(joint)
    if isinstance(given_axes, int):
        given_axes = (given_axes,)
    keep = tuple(ax for ax in range(p.ndim) if ax not in given_axes)
    if len(keep) == p.ndim:
        raise ValidationError("given_axes must name at least one axis")
    return max(0.0, entropy_unchecked(p) - entropy_unchecked(p.sum(axis=keep)))


def conditional_mi(joint: np.ndarray, conditioning_axis: int) -> float:
    """I(X;Y|Z) in bits from a 3-d joint, where Z is the named axis."""
    p = _check_distribution(joint)
    if p.ndim != 3:
        raise ValidationError(f"conditional_mi expects a 3-d joint, got ndim={p.ndim}")
    p = np.moveaxis(p, conditioning_axis, 0)
    total = 0.0
    for pz_slice in p:
        mass = pz_slice.sum()
        if mass <= 0.0:
            continue
        cond = pz_slice / mass
        hx = entropy_unchecked(cond.sum(axis=1))
        hy = entropy_unchecked(cond.sum(axis=0))
        hxy = entropy_unchecked(cond)
        total += mass * (hx + hy - hxy)
    return _clamp_info(total, "conditional mutual information")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@contextmanager
def _malformed_json_is_invalid(what: str):
    """Re-raise a parse error, a missing key or a wrong length as ValidationError."""
    try:
        yield
    except (ValueError, KeyError, TypeError) as err:
        raise ValidationError(f"malformed {what} JSON: {err!r}") from err


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Channel:
    """Discrete memoryless channel; ``rows[x, y]`` is p(y | x)."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise ValidationError(f"channel matrix must be 2-d, got ndim={rows.ndim}")
        if not np.all(np.isfinite(rows)):
            raise ValidationError("channel has a non-finite entry")
        if np.any(rows < -NORM_TOL):
            raise ValidationError("channel has a negative entry")
        sums = rows.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > NORM_TOL):
            raise ValidationError(f"channel rows must sum to 1 within {NORM_TOL}")
        object.__setattr__(self, "rows", _freeze(np.clip(rows, 0.0, None)))

    @property
    def input_size(self) -> int:
        return self.rows.shape[0]

    @property
    def output_size(self) -> int:
        return self.rows.shape[1]

    @staticmethod
    def identity(n: int) -> "Channel":
        return Channel(np.eye(n))

    @staticmethod
    def constant(input_size: int, output_size: int = 1, symbol: int = 0) -> "Channel":
        rows = np.zeros((input_size, output_size))
        rows[:, symbol] = 1.0
        return Channel(rows)

    @staticmethod
    def bsc(p: float) -> "Channel":
        """Binary symmetric channel with crossover probability p."""
        check_range("BSC crossover", p)
        return Channel(np.array([[1.0 - p, p], [p, 1.0 - p]]))

    @staticmethod
    def bec(eps: float) -> "Channel":
        """Binary erasure channel; outputs are (0, erasure, 1)."""
        check_range("BEC erasure probability", eps)
        return Channel(np.array([[1.0 - eps, eps, 0.0], [0.0, eps, 1.0 - eps]]))

    @staticmethod
    def from_json(text: str) -> "Channel":
        with _malformed_json_is_invalid("channel"):
            obj = json.loads(text)
            rows = np.asarray(obj["rows"], dtype=float).reshape(obj["input_size"], obj["output_size"])
        return Channel(rows)

    @staticmethod
    def from_json_file(path: str) -> "Channel":
        with open(path, encoding="utf-8") as fh:
            return Channel.from_json(fh.read())

    def to_json(self) -> str:
        return json.dumps(
            {
                "input_size": self.input_size,
                "output_size": self.output_size,
                "rows": self.rows.ravel().tolist(),
            }
        )


@dataclass(frozen=True)
class JointSource:
    """Memoryless source triple (A, C, E) with dense joint table p(a, c, e)."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 3:
            raise ValidationError(f"source table must be 3-d (a, c, e), got ndim={p.ndim}")
        if not np.all(np.isfinite(p)):
            raise ValidationError("source has a non-finite entry")
        if np.any(p < -NORM_TOL):
            raise ValidationError("source has a negative entry")
        if abs(p.sum() - 1.0) > NORM_TOL:
            raise ValidationError(f"source sums to {p.sum()}, expected 1 within {NORM_TOL}")
        object.__setattr__(self, "probs", _freeze(np.clip(p, 0.0, None)))

    @property
    def alphabet_sizes(self) -> tuple[int, int, int]:
        return self.probs.shape  # type: ignore[return-value]

    def p_a(self) -> np.ndarray:
        return self.probs.sum(axis=(1, 2))

    def p_c(self) -> np.ndarray:
        return self.probs.sum(axis=(0, 2))

    def p_e(self) -> np.ndarray:
        return self.probs.sum(axis=(0, 1))

    def p_ac(self) -> np.ndarray:
        return self.probs.sum(axis=2)

    def p_ae(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def p_ce(self) -> np.ndarray:
        return self.probs.sum(axis=0)

    @staticmethod
    def from_channels(p_a: np.ndarray, c_given_a: Channel, e_given_a: Channel) -> "JointSource":
        """Build p(a)p(c|a)p(e|a), i.e. C and E conditionally independent given A."""
        p_a = np.asarray(p_a, dtype=float)
        probs = np.einsum("a,ac,ae->ace", p_a, c_given_a.rows, e_given_a.rows)
        return JointSource(probs)

    @staticmethod
    def from_json(text: str) -> "JointSource":
        with _malformed_json_is_invalid("source"):
            obj = json.loads(text)
            na, nc, ne = obj["alphabets"]
            probs = np.asarray(obj["probs"], dtype=float).reshape(na, nc, ne)
        return JointSource(probs)

    @staticmethod
    def from_json_file(path: str) -> "JointSource":
        with open(path, encoding="utf-8") as fh:
            return JointSource.from_json(fh.read())

    def to_json(self) -> str:
        na, nc, ne = self.alphabet_sizes
        return json.dumps({"alphabets": [na, nc, ne], "probs": self.probs.ravel().tolist()})


@dataclass(frozen=True)
class DistortionMeasure:
    """Finite single-letter distortion d(a, a_hat) >= 0 as a dense table."""

    table: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.table, dtype=float)
        if t.ndim != 2:
            raise ValidationError("distortion table must be 2-d")
        if not np.all(np.isfinite(t)) or np.any(t < 0.0):
            raise ValidationError("distortion entries must be finite and non-negative")
        object.__setattr__(self, "table", _freeze(t))

    @property
    def d_max(self) -> float:
        return float(self.table.max())

    @staticmethod
    def hamming(n: int) -> "DistortionMeasure":
        return DistortionMeasure(1.0 - np.eye(n))


@dataclass(frozen=True)
class FullJoint:
    """Composed joint p(u,v,w,a,c,e) = p(u|v) p(v|a) p(w|c) p(a,c,e).

    Holds both the dense table and the generating factors.  Axis order is
    (u, v, w, a, c, e).
    """

    probs: np.ndarray
    source: JointSource = field(repr=False)
    u_given_v: Channel = field(repr=False)
    v_given_a: Channel = field(repr=False)
    w_given_c: Channel = field(repr=False)

    def marginal(self, axes: tuple[int, ...]) -> np.ndarray:
        """Marginal over the named axes, returned with axes in the given order."""
        drop = tuple(ax for ax in range(6) if ax not in axes)
        m = self.probs.sum(axis=drop)
        kept_sorted = tuple(sorted(axes))
        perm = tuple(kept_sorted.index(ax) for ax in axes)
        return np.transpose(m, perm)

    def factorization_residual(self) -> float:
        """Max absolute gap between the table and its reconstructed factorization.

        Estimates p(v|a), p(u|v), p(w|c) and p(a,c,e) back from the table and
        rebuilds the product; a residual below 1e-9 certifies the two Markov
        chains U-V-A-(C,E) and W-C-(A,E).
        """
        p = self.probs
        p_ace = p.sum(axis=(0, 1, 2))
        p_va = p.sum(axis=(0, 2, 4, 5)).T  # (v, a) -> transpose to (a, v) rows
        p_a = p_ace.sum(axis=(1, 2))
        with np.errstate(invalid="ignore", divide="ignore"):
            v_rows = np.where(p_a[:, None] > 0, p_va / np.where(p_a[:, None] > 0, p_a[:, None], 1.0), 0.0)
        p_uv = p.sum(axis=(2, 3, 4, 5))  # (u, v)
        p_v = p_uv.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            u_rows = np.where(p_v[:, None] > 0, p_uv.T / np.where(p_v[:, None] > 0, p_v[:, None], 1.0), 0.0)
        p_wc = p.sum(axis=(0, 1, 3, 5))  # (w, c)
        p_c = p_wc.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            w_rows = np.where(p_c[:, None] > 0, p_wc.T / np.where(p_c[:, None] > 0, p_c[:, None], 1.0), 0.0)
        rebuilt = np.einsum("vu,av,cw,ace->uvwace", u_rows, v_rows, w_rows, p_ace)
        return float(np.abs(rebuilt - p).max())


def compose_full_joint(
    source: JointSource,
    u_given_v: Channel,
    v_given_a: Channel,
    w_given_c: Channel,
) -> FullJoint:
    """Compose p(u,v,w,a,c,e) = p(u|v) p(v|a) p(w|c) p(a,c,e)."""
    na, nc, _ = source.alphabet_sizes
    if v_given_a.input_size != na:
        raise ValidationError(
            f"v_given_a expects input size {na}, got {v_given_a.input_size}"
        )
    if u_given_v.input_size != v_given_a.output_size:
        raise ValidationError(
            f"u_given_v expects input size {v_given_a.output_size}, got {u_given_v.input_size}"
        )
    if w_given_c.input_size != nc:
        raise ValidationError(
            f"w_given_c expects input size {nc}, got {w_given_c.input_size}"
        )
    probs = np.einsum(
        "vu,av,cw,ace->uvwace",
        u_given_v.rows,
        v_given_a.rows,
        w_given_c.rows,
        source.probs,
    )
    return FullJoint(_freeze(probs), source, u_given_v, v_given_a, w_given_c)


# ---------------------------------------------------------------------------
# the binary BEC/BSC model and its side-information ordering
# ---------------------------------------------------------------------------

def make_bec_bsc_source(p: float, eps: float) -> JointSource:
    """Uniform binary source; C = BEC(eps) output, E = BSC(p) output."""
    return JointSource.from_channels(np.array([0.5, 0.5]), Channel.bec(eps), Channel.bsc(p))


def classify_bec_bsc_regime(p: float, eps: float) -> Regime:
    """Ordering between the BEC(eps) and BSC(p) side informations.

    Returns "degraded" for eps <= 2p, "less_noisy" for eps <= 4p(1-p),
    "more_capable" for eps <= h2(p), and "none" beyond.  Boundaries go to the
    stronger regime.
    """
    check_range("p", p, 0.5)
    check_range("eps", eps)
    if eps <= 2.0 * p:
        return "degraded"
    if eps <= 4.0 * p * (1.0 - p):
        return "less_noisy"
    if eps <= h2(p):
        return "more_capable"
    return "none"


def bob_more_capable(source: JointSource) -> bool:
    """Pairwise more-capable check: I(A;C) >= I(A;E)."""
    return mutual_information(source.p_ac()) >= mutual_information(source.p_ae())
