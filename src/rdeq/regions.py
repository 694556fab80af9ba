"""Closed-form evaluators for every region characterization.

Each evaluator takes an explicit auxiliary system (channels plus a
reconstruction map) and returns the induced bound values for the region it
belongs to.  A candidate tuple (R_A, R_C, D, Delta) is a member *at that
system* iff it satisfies the returned inequalities; the region itself is the
union (plus convex hull / closure) over all systems, which the optimizer
module searches.

Every discrete evaluator composes its joint and reads each entropy and
(conditional) mutual information from ``probability.SubsetEntropies``, under
its one clamp rule; the six inner bounds are written once, in
``inner_bounds_of_joint``.  The coded, corner and uncoded evaluators share one
composition path (``_entropies``), which also checks that the distortion table
and the reconstruction map fit the source; the uncoded region is the inner
region at W = C.

Cardinality caps are deliberately not enforced here: membership testing must
accept systems of any size.  Only the optimizer applies the caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .probability import (
    Channel,
    DistortionMeasure,
    JointSource,
    SubsetEntropies,
    check_range,
    compose_full_joint,
    h2_unchecked,
    star_unchecked,
)

#: axis names for the composed joint
_U, _V, _W, _A, _C, _E = range(6)

LOG2_2PIE = math.log2(2.0 * math.pi * math.e)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionPoint:
    """A tuple (R_A, R_C, D, Delta); rates in bits/symbol, D in distortion units.

    Delta may be negative only under the Gaussian differential-entropy
    convention; discrete constructors keep it in [0, log2 |A|].
    """

    r_a: float
    r_c: float
    d: float
    delta: float

    def __post_init__(self) -> None:
        if self.r_a < -1e-12 or self.r_c < -1e-12 or self.d < -1e-12:
            raise ValidationError(f"rates and distortion must be non-negative: {self}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.r_a, self.r_c, self.d, self.delta)


@dataclass(frozen=True)
class AuxiliarySystem:
    """Channels p(u|v), p(v|a), p(w|c) and a reconstruction map V x W -> A."""

    u_given_v: Channel
    v_given_a: Channel
    w_given_c: Channel
    reconstruction: np.ndarray

    def __post_init__(self) -> None:
        recon = np.asarray(self.reconstruction)
        if recon.dtype.kind not in "biuf" or not np.all(recon % 1 == 0):
            raise ValidationError("reconstruction symbols must be integers")
        recon = recon.astype(int)
        nv = self.v_given_a.output_size
        nw = self.w_given_c.output_size
        if recon.shape != (nv, nw):
            raise ValidationError(
                f"reconstruction must have shape ({nv}, {nw}), got {recon.shape}"
            )
        if self.u_given_v.input_size != nv:
            raise ValidationError("u_given_v input size must match v_given_a output size")
        recon = recon.copy()
        recon.setflags(write=False)
        object.__setattr__(self, "reconstruction", recon)


@dataclass(frozen=True)
class InnerBounds:
    """The six bound values of the inner region at one auxiliary system.

    A tuple is a member at this system iff
        R_A >= r_a_min,  R_C >= r_c_min,  R_A + R_C >= sum_min,
        D >= d_min,  Delta <= delta_max,  Delta - R_C <= delta_minus_rc_max.

    ``admits`` checks the Delta rows only for Delta > 0: U enters no other
    row, and with U = V they read Delta <= H(A|V,E) and Delta - R_C <=
    H(A|V,E) - I(W;C|V), so such a tuple is a member at that system.

    The distributed-lossless region has the same rows at D = 0 without the
    Delta - R_C row, so its evaluators return this type with ``d_min = 0``
    and ``delta_minus_rc_max = inf``.
    """

    r_a_min: float
    r_c_min: float
    sum_min: float
    d_min: float
    delta_max: float
    delta_minus_rc_max: float

    def admits(self, point: RegionPoint, tol: float = 1e-9) -> bool:
        return (
            point.r_a >= self.r_a_min - tol
            and point.r_c >= self.r_c_min - tol
            and point.r_a + point.r_c >= self.sum_min - tol
            and point.d >= self.d_min - tol
            and (point.delta <= 0.0 or (
                point.delta <= self.delta_max + tol
                and point.delta - point.r_c <= self.delta_minus_rc_max + tol
            ))
        )


@dataclass(frozen=True)
class UncodedBounds:
    """The three bound values of the uncoded-side-information region
    (R_C = inf) at one system: R_A >= r_a_min, D >= d_min, Delta <= delta_max."""

    r_a_min: float
    d_min: float
    delta_max: float


@dataclass(frozen=True)
class GaussianParams:
    """Correlation gains of the Gaussian side-information channels."""

    rho_c: float
    rho_e: float

    def __post_init__(self) -> None:
        if not 0.0 < self.rho_c < 1.0:
            raise ValidationError(f"rho_c must lie in (0, 1), got {self.rho_c}")
        if not 0.0 <= self.rho_e < 1.0:
            raise ValidationError(f"rho_e must lie in [0, 1), got {self.rho_e}")


def _check_binary(p, eps, alpha, beta) -> tuple[np.ndarray, ...]:
    """The four binary parameters as broadcast float arrays, range-checked."""
    return np.broadcast_arrays(
        check_range("p", p, 0.5), check_range("eps", eps),
        check_range("alpha", alpha, 0.5), check_range("beta", beta, 0.5),
    )


# ---------------------------------------------------------------------------
# coded side information: inner region and corner points
# ---------------------------------------------------------------------------

def check_distortion(source: JointSource, d: DistortionMeasure) -> None:
    """Reject a distortion table without |A| rows."""
    na = source.alphabet_sizes[0]
    rows = d.table.shape[0]
    if rows != na:
        raise ValidationError(f"distortion table must have |A| = {na} rows, got {rows}")


def check_reconstruction(source: JointSource, d: DistortionMeasure, recon: np.ndarray) -> None:
    """Reject a distortion table without |A| rows, or a reconstruction map with
    a symbol outside [0, table columns)."""
    check_distortion(source, d)
    cols = d.table.shape[1]
    if not np.all((recon >= 0) & (recon < cols)):
        raise ValidationError(f"reconstruction symbols must lie in [0, {cols}), "
                              f"the distortion table's columns")


def _entropies(source: JointSource, d: DistortionMeasure, sys: AuxiliarySystem
               ) -> SubsetEntropies:
    """The engine over the composed (u, v, w, a, c, e) joint of ``sys``, once
    ``d`` and its reconstruction map are checked to fit the source."""
    check_reconstruction(source, d, sys.reconstruction)
    return SubsetEntropies(
        compose_full_joint(source, sys.u_given_v, sys.v_given_a, sys.w_given_c)
    )


def _expected_distortion(p_vwa: np.ndarray, d: DistortionMeasure, recon: np.ndarray) -> float:
    return float(np.einsum("vwa,avw->", p_vwa, d.table[:, recon]))


def inner_bounds_of_joint(h: SubsetEntropies, d: DistortionMeasure,
                          recon: np.ndarray) -> InnerBounds:
    """The six inner-region bounds of a composed (u, v, w, a, c, e) joint.

    H(A|V,W) and H(A|V) enter as unclamped differences; the five mutual
    informations follow the engine's clamp rule.
    """
    i_ae_u = h.cmi((_A,), (_E,), (_U,))
    i_wc_v = h.cmi((_W,), (_C,), (_V,))
    return InnerBounds(
        r_a_min=h.cmi((_V,), (_A,), (_W,)),
        r_c_min=i_wc_v,
        sum_min=h.cmi((_V, _W), (_A, _C)),
        d_min=_expected_distortion(h.marginal(_V, _W, _A), d, recon),
        delta_max=(h(_A, _V, _W) - h(_V, _W)) + h.cmi((_A,), (_W,), (_U,)) - i_ae_u,
        delta_minus_rc_max=(h(_A, _V) - h(_V)) - i_ae_u - i_wc_v,
    )


def inner_bound_point(source: JointSource, d: DistortionMeasure,
                      sys: AuxiliarySystem) -> InnerBounds:
    """Evaluate the six inner-region bounds at a given auxiliary system."""
    return inner_bounds_of_joint(_entropies(source, d, sys), d, sys.reconstruction)


def corner_point(source: JointSource, d: DistortionMeasure, sys: AuxiliarySystem,
                 which: str) -> RegionPoint:
    """One of the three extreme points of the inner region at a given system.

    The three points share D; (I) and (II) share R_A + R_C and Delta; (II) and
    (III) share R_A + R_C and Delta - R_C.
    """
    h = _entropies(source, d, sys)
    dist = _expected_distortion(h.marginal(_V, _W, _A), d, sys.reconstruction)
    h_a_ue = h.cond((_A,), (_U, _E))
    if which == "I":
        r_a = h.cmi((_V,), (_A,), (_W,))
        r_c = h.cmi((_W,), (_C,))
        delta = h_a_ue - h.cmi((_V,), (_A,), (_U, _W))
    elif which == "II":
        r_a = h.cmi((_U,), (_A,)) + h.cmi((_V,), (_A,), (_U, _W))
        r_c = h.cmi((_W,), (_C,), (_U,))
        delta = h_a_ue - h.cmi((_V,), (_A,), (_U, _W))
    elif which == "III":
        r_a = h.cmi((_V,), (_A,))
        r_c = h.cmi((_W,), (_C,), (_V,))
        delta = h_a_ue - h.cmi((_V,), (_A,), (_U,))
    else:
        raise ValidationError(f"corner point must be one of 'I', 'II', 'III', got {which!r}")
    return RegionPoint(r_a, r_c, dist, delta)


# ---------------------------------------------------------------------------
# uncoded side information (Bob sees C directly)
# ---------------------------------------------------------------------------

def _uncoded(source: JointSource, d: DistortionMeasure, u_given_v: Channel,
             v_given_a: Channel, reconstruction: np.ndarray
             ) -> tuple[UncodedBounds, SubsetEntropies]:
    """The inner bounds at W = C and the engine over their joint."""
    sys = AuxiliarySystem(u_given_v, v_given_a, Channel.identity(source.alphabet_sizes[1]),
                          reconstruction)
    h = _entropies(source, d, sys)
    b = inner_bounds_of_joint(h, d, sys.reconstruction)
    return UncodedBounds(b.r_a_min, b.d_min, b.delta_max), h


def uncoded_region_point(
    source: JointSource,
    d: DistortionMeasure,
    u_given_v: Channel,
    v_given_a: Channel,
    reconstruction: np.ndarray,
) -> UncodedBounds:
    """Exact region for uncoded side information at one (U, V, reconstruction):
    the inner region's R_A, D and Delta rows at W = C."""
    return _uncoded(source, d, u_given_v, v_given_a, reconstruction)[0]


def uncoded_region_point_alt(
    source: JointSource,
    d: DistortionMeasure,
    u_given_v: Channel,
    v_given_a: Channel,
    reconstruction: np.ndarray,
) -> UncodedBounds:
    """Alternative rate form: R_A >= [I(U;C) - I(U;E)]_+ + I(V;A|C).

    Same Delta bound; the extra positive-part term is the price of making the
    common layer decodable at the eavesdropper.
    """
    base, h = _uncoded(source, d, u_given_v, v_given_a, reconstruction)
    extra = max(0.0, h.cmi((_U,), (_C,)) - h.cmi((_U,), (_E,)))
    return replace(base, r_a_min=extra + base.r_a_min)


# ---------------------------------------------------------------------------
# distributed lossless compression
# ---------------------------------------------------------------------------

def _lossless(source: JointSource, u_given_a: np.ndarray
              ) -> tuple[InnerBounds, SubsetEntropies]:
    """The bounds and the entropies of p(u, a, c, e), axes in that order, from
    raw rows p(u|a): the helper search calls it per move, without a ``Channel``."""
    if u_given_a.shape[0] != source.alphabet_sizes[0]:
        raise ValidationError("u_given_a input size must match |A|")
    h = SubsetEntropies(np.einsum("au,ace->uace", u_given_a, source.probs))
    bounds = InnerBounds(
        r_a_min=h.cond((1,), (2,)),
        r_c_min=h.cond((2,), (0,)),
        sum_min=h(1, 2),
        d_min=0.0,
        delta_max=h.cmi((1,), (2,), (0,)) - h.cmi((1,), (3,), (0,)),
        delta_minus_rc_max=math.inf,
    )
    return bounds, h


def lossless_region_point(source: JointSource, u_given_a: Channel) -> InnerBounds:
    """Exact compression-equivocation region at one helper variable U."""
    return _lossless(source, u_given_a.rows)[0]


def lossless_region_point_alt(source: JointSource, u_given_a: Channel) -> InnerBounds:
    """Alternative rate form: R_A >= [I(U;C) - I(U;E)]_+ + H(A|C)."""
    base, h = _lossless(source, u_given_a.rows)
    extra = max(0.0, h.cmi((0,), (2,)) - h.cmi((0,), (3,)))
    return replace(base, r_a_min=extra + base.r_a_min)


# ---------------------------------------------------------------------------
# Gaussian closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianBounds:
    """R_A lower bound and Delta upper bound (differential-entropy convention)."""

    r_a_min: float
    delta_max: float


def _gaussian_rate(rho_c: float, r_c: float, d: float) -> tuple[float, float]:
    """(sigma2, R_A bound) at (R_C, D), with sigma2 = Var(A | best rate-r_c
    description of C) = 1 - rho_c^2 + rho_c^2 2^(-2 r_c); NaN is rejected."""
    if not 0.0 < d < math.inf:
        raise ValidationError(f"distortion must be positive and finite, got {d}")
    if not r_c >= 0.0:
        raise ValidationError(f"R_C must be non-negative, got {r_c}")
    sigma2 = 1.0 - rho_c * rho_c
    if not math.isinf(r_c):
        sigma2 += rho_c * rho_c * 2.0 ** (-2.0 * r_c)
    return sigma2, max(0.0, 0.5 * math.log2(sigma2 / d))


def gaussian_inner(params: GaussianParams, r_c: float, d: float) -> GaussianBounds:
    """Achievable (R_A, Delta) bounds for the Gaussian model at fixed (R_C, D).

    ``r_c`` may be ``math.inf`` (uncoded side information at Bob).  Delta is in
    bits with the differential-entropy convention and may be negative.
    """
    sigma2, rate = _gaussian_rate(params.rho_c, r_c, d)
    one_minus_rho_e2 = 1.0 - params.rho_e * params.rho_e
    eve_term = 0.5 * math.log2(
        1.0 + one_minus_rho_e2 * max(0.0, 1.0 / d - 1.0 / sigma2)
    )
    delta = 0.5 * math.log2(2.0 * math.pi * math.e * one_minus_rho_e2) - min(rate, eve_term)
    return GaussianBounds(r_a_min=rate, delta_max=delta)


def gaussian_optimal_no_eve_si(rho_c: float, r_c: float, d: float) -> GaussianBounds:
    """Exact region when the eavesdropper has no side information (rho_e = 0)."""
    GaussianParams(rho_c=rho_c, rho_e=0.0)  # validate rho_c
    _, rate = _gaussian_rate(rho_c, r_c, d)
    return GaussianBounds(r_a_min=rate, delta_max=0.5 * LOG2_2PIE - rate)


# ---------------------------------------------------------------------------
# binary BEC/BSC closed forms
# ---------------------------------------------------------------------------

def binary_bec_bsc_bounds_unchecked(p, eps, alpha, beta) -> tuple:
    """Unvalidated elementwise (R_A, D, Delta) rows of ``binary_bec_bsc_bounds``:
    the one closed-form expression, for callers whose arguments lie in range."""
    h_alpha = h2_unchecked(alpha)
    ab = star_unchecked(alpha, beta)
    return (eps * (1.0 - h_alpha), eps * alpha,
            (eps * h_alpha + (1.0 - eps) * h2_unchecked(ab)
             - h2_unchecked(star_unchecked(p, ab)) + h2_unchecked(p)))


def binary_bec_bsc_bounds(p, eps, alpha, beta) -> UncodedBounds:
    """Closed-form uncoded region of the uniform binary source with BEC(eps)
    side information at Bob and BSC(p) at Eve, on the chain
    A -BSC(alpha)-> V -BSC(beta)-> U.

    Elementwise over broadcast arrays, each entry range-checked; every field
    has the arguments' broadcast shape, and scalar arguments give floats.
    """
    p, eps, alpha, beta = _check_binary(p, eps, alpha, beta)
    rows = binary_bec_bsc_bounds_unchecked(p, eps, alpha, beta)
    return UncodedBounds(*(map(float, rows) if p.ndim == 0 else rows))


def bec_bsc_reconstruction() -> np.ndarray:
    """Reconstruction for the binary model: trust C unless erased, else V.

    V is on axis 0 with symbols (0, 1); C on axis 1 with symbols (0, e, 1).
    """
    return np.array([[0, 0, 1], [0, 1, 1]])
