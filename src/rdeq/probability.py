"""Exact finite-alphabet probability engine.

Distributions, channels, information measures (base-2 throughout) and the
scalar primitives used by every other module: binary entropy, the binary
convolution a*b = a(1-b) + (1-a)b, and composition of the auxiliary-variable
joint p(u,v,w,a,c,e).

``SubsetEntropies`` is the one engine that turns a table into marginals,
entropies, conditional entropies and (conditional) mutual informations.  Its
caller declares the axis subsets it reads, and one cached plan per table
shape and subset list (``_plan``) computes all of them in one pass: a
gather that sorts the table's cells by their marginal cell, one
``np.add.reduceat`` into every marginal and one more into every entropy.
The validated ``mutual_information``, ``conditional_entropy`` and
``conditional_mi`` check their table and make one call into it, and every
region evaluator and search reads its quantities from it.  The validated
``entropy`` checks its table and calls ``entropy_unchecked``, the one
``p log p`` of a whole table, which the simulator also uses.

Conventions
-----------
* All rates and entropies are in bits.
* 0 log 0 = 0: ``entropy_unchecked`` skips zero-mass cells, and a plan's
  zero-mass marginal cells add 0 * 0.
* Dense ndarray tables everywhere; target alphabets are tiny.
* Distributions must be normalized to 1 within ``NORM_TOL``, whether built
  as a ``Channel``/``JointSource`` or passed to a validated measure.
* One clamp rule for every conditional entropy and (conditional) mutual
  information: a value that rounds slightly negative, above ``NEG_TOL``, is
  clamped to 0; one below ``NEG_TOL`` raises, since that signals a real bug.
* Axis order for the six-variable joint is always (u, v, w, a, c, e).
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

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


def check_integer(name: str, x, least: int) -> int:
    """``x`` as an int no smaller than ``least``; a bool, a float (even a
    whole one) or any other non-integer is rejected."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {x!r}")
    return int(x)


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

def _check_distribution(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.size == 0:
        raise ValidationError("empty distribution")
    if not np.all(np.isfinite(p)):
        raise ValidationError("distribution has a non-finite entry")
    if np.any(p < -NORM_TOL):
        raise ValidationError(f"negative probability entry: min={p.min()}")
    total = p.sum()
    if abs(total - 1.0) > NORM_TOL:
        raise ValidationError(f"distribution sums to {total}, expected 1 within {NORM_TOL}")
    return p


def entropy_unchecked(p: np.ndarray) -> float:
    """Entropy without normalization validation: the one ``p log p`` of a table."""
    p = np.asarray(p, dtype=float)
    nz = p[p > 0.0]
    if nz.size == 0:
        return 0.0
    return max(0.0, float(-(nz * np.log2(nz)).sum()))


def _clamp_info(value: float, name: str) -> float:
    """The one clamp rule: above ``NEG_TOL`` clamp to 0, below it raise."""
    if value < NEG_TOL:
        raise ValidationError(f"{name} computed as {value}; inconsistent input")
    return max(0.0, value)


class _Plan(NamedTuple):
    """How one pass turns a table into the marginals and entropies of its subsets.

    ``gather`` lists the table's flat cell indices, subset by subset, each
    subset's cells sorted by their marginal cell (stably, so in ascending
    flat index); ``cell_starts`` is where each marginal cell begins in it and
    ``subset_starts`` where each subset's cells begin among all marginal
    cells.  ``index`` maps each subset to its position, and ``shapes`` holds
    each subset's marginal shape.
    """

    gather: np.ndarray
    cell_starts: np.ndarray
    subset_starts: np.ndarray
    index: dict
    shapes: tuple


@functools.lru_cache(maxsize=256)
def _plan(shape: tuple[int, ...], subsets: tuple[tuple[int, ...], ...]) -> _Plan:
    """The plan of ``subsets`` over a table of ``shape``, each subset keyed by
    its sorted axes; an axis outside the table raises."""
    subsets = tuple(dict.fromkeys(tuple(sorted(s)) for s in subsets))
    ndim = len(shape)
    for s in subsets:
        if not all(ax in range(ndim) for ax in s):
            raise ValidationError(f"axes {s} must lie in [0, {ndim - 1}] for a {ndim}-d table")
    size = math.prod(shape)
    coords = np.indices(shape).reshape(ndim, size)
    gather, cell_starts, subset_starts, shapes = [], [], [], []
    n_cells = 0
    for i, s in enumerate(subsets):
        sub = tuple(shape[ax] for ax in s)
        k = math.prod(sub)
        cell = np.zeros(size, dtype=np.intp)  # each joint cell's marginal cell, row-major
        for ax in s:
            cell = cell * shape[ax] + coords[ax]
        gather.append(np.argsort(cell, kind="stable"))
        cell_starts.append(i * size + np.arange(k) * (size // k))
        subset_starts.append(n_cells)
        shapes.append(sub)
        n_cells += k
    arrays = (np.concatenate(gather), np.concatenate(cell_starts), np.array(subset_starts))
    for a in arrays:  # shared by every caller of the cache
        a.setflags(write=False)
    return _Plan(*arrays, {s: i for i, s in enumerate(subsets)}, tuple(shapes))


class SubsetEntropies:
    """Marginals and entropies of one dense joint, all of a plan in one pass.

    The one engine behind every marginal, entropy, conditional entropy and
    (conditional) mutual information.  The caller declares the axis subsets
    it reads; their plan (``_plan``, cached per table shape and subset list)
    sums the joint's cells into every marginal with one ``np.add.reduceat``
    and every marginal's ``-m log2 m`` (0 log 0 = 0) into its entropy with
    another.  Each marginal cell and each entropy is summed from its own
    contiguous run of data, so a quantity computed alone is bit-identical to
    the same quantity in any batch; a subset that was not declared is
    computed alone, through a one-subset plan, on first use.  Subsets are
    keyed by their sorted axes, so the order the variables are named in does
    not matter.  The entropy of the empty set is 0; an axis outside the table
    raises ``ValidationError``.
    """

    def __init__(self, p: np.ndarray, subsets: tuple[tuple[int, ...], ...] = ()) -> None:
        self.p = np.asarray(p, dtype=float)
        self._entropies: dict[tuple[int, ...], float] = {}
        self._passes: list[tuple[_Plan, np.ndarray]] = []
        if subsets:
            self._evaluate(subsets)

    def _evaluate(self, subsets: tuple[tuple[int, ...], ...]) -> None:
        """Compute every marginal and entropy of ``subsets`` in one pass."""
        plan = _plan(self.p.shape, subsets)
        m = np.add.reduceat(self.p.ravel()[plan.gather], plan.cell_starts)
        log_m = np.zeros_like(m)
        np.log2(m, out=log_m, where=m > 0.0)
        # 0 - min(sum, 0) is max(0, -sum) and never -0.0
        h = 0.0 - np.minimum(np.add.reduceat(m * log_m, plan.subset_starts), 0.0)
        self._entropies.update(zip(plan.index, h.tolist()))
        self._passes.append((plan, m))

    def marginal(self, *axes: int) -> np.ndarray:
        """Marginal over ``axes``, kept in the joint's axis order."""
        key = tuple(sorted(axes))
        if key not in self._entropies:
            self._evaluate((key,))
        plan, m = next((plan, m) for plan, m in self._passes if key in plan.index)
        i = plan.index[key]
        start = plan.subset_starts[i]
        return m[start:start + math.prod(plan.shapes[i])].reshape(plan.shapes[i])

    def __call__(self, *axes: int) -> float:
        """H(X_axes)."""
        if not axes:
            return 0.0
        key = tuple(sorted(axes))
        h = self._entropies.get(key)
        if h is None:
            self._evaluate((key,))
            h = self._entropies[key]
        return h

    def cond(self, x: tuple[int, ...], z: tuple[int, ...]) -> float:
        """H(X|Z) = H(XZ) - H(Z), under ``_clamp_info``."""
        return _clamp_info(self(*x, *z) - self(*z), "conditional entropy")

    def cmi(self, x: tuple[int, ...], y: tuple[int, ...], z: tuple[int, ...] = ()) -> float:
        """I(X;Y|Z) = H(XZ) + H(YZ) - H(XYZ) - H(Z), under ``_clamp_info``."""
        return _clamp_info(self(*x, *z) + self(*y, *z) - self(*x, *y, *z) - self(*z),
                           "mutual information")


def entropy(dist: np.ndarray) -> float:
    """Shannon entropy H(p) in bits of a distribution of any shape."""
    return entropy_unchecked(_check_distribution(dist))


def mutual_information(joint: np.ndarray) -> float:
    """I(X;Y) in bits from a 2-d joint table p(x, y)."""
    p = _check_distribution(joint)
    if p.ndim != 2:
        raise ValidationError(f"mutual_information expects a 2-d joint, got ndim={p.ndim}")
    return SubsetEntropies(p).cmi((0,), (1,))


def conditional_entropy(joint: np.ndarray, given_axes: tuple[int, ...] | int) -> float:
    """H(rest | given) in bits from a joint table of any dimension."""
    p = _check_distribution(joint)
    if isinstance(given_axes, int):
        given_axes = (given_axes,)
    if not all(ax in range(-p.ndim, p.ndim) for ax in given_axes):
        raise ValidationError(f"given_axes must lie in [-{p.ndim}, {p.ndim - 1}], got {given_axes}")
    if not given_axes:
        raise ValidationError("given_axes must name at least one axis")
    given = tuple(sorted({ax % p.ndim for ax in given_axes}))
    return SubsetEntropies(p).cond(tuple(ax for ax in range(p.ndim) if ax not in given), given)


def conditional_mi(joint: np.ndarray, conditioning_axis: int) -> float:
    """I(X;Y|Z) in bits from a 3-d joint, where Z is the named axis."""
    p = _check_distribution(joint)
    if p.ndim != 3:
        raise ValidationError(f"conditional_mi expects a 3-d joint, got ndim={p.ndim}")
    if conditioning_axis not in range(-3, 3):
        raise ValidationError(f"conditioning_axis must lie in [-3, 2], got {conditioning_axis}")
    z = conditioning_axis % 3
    x, y = (ax for ax in range(3) if ax != z)
    return SubsetEntropies(p).cmi((x,), (y,), (z,))


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@contextmanager
def _malformed_json_is_invalid(what: str):
    """Re-raise a parse error, a missing key, a wrong type or a wrong length as
    ValidationError; a ValidationError passes through unchanged."""
    try:
        yield
    except ValidationError:
        raise
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


def compose_full_joint(
    source: JointSource,
    u_given_v: Channel,
    v_given_a: Channel,
    w_given_c: Channel,
) -> np.ndarray:
    """The read-only table p(u,v,w,a,c,e) = p(u|v) p(v|a) p(w|c) p(a,c,e),
    axes in that order; every pair of adjoining channels must match in size."""
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
    return _freeze(probs)


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
