"""Finite-blocklength simulator of the layered random-binning scheme.

Codebooks of strongly typical sequences, superposition coding and binning at
the main encoder, binning at the helper, joint-typicality decoding at the
receiver, and *exact* per-symbol equivocation H(A^n | J, E^n) computed by
enumeration of the source space at small n.

Strong typicality follows the count-based definition: x^n is delta-typical
when |N(a|x^n)/n - p(a)| <= delta for every symbol and N(a|x^n) = 0 wherever
p(a) = 0; conditional typicality compares N(a,b)/n against N(a|x^n)/n p(b|a).

Everything is deterministic given the configuration seed.  Monte Carlo trials
are drawn in fixed-size shards with per-shard derived seeds, so results do
not depend on the worker count and a longer run extends a shorter one.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import BudgetError, ValidationError
from .probability import DistortionMeasure, JointSource, check_integer, entropy_unchecked
from .regions import AuxiliarySystem, check_reconstruction

TRIAL_SHARD = 2048          # trials per seeding shard; fixed for reproducibility
_SAMPLE_BATCH = 4096        # candidate draws per rejection-sampling round
_MAX_SAMPLE_ROUNDS = 500
_PAIRS = 4096               # (codeword, row) pairs per typicality call in a codeword search
_SUBSET_BITS = 16           # most symbols of a search's two alphabets for its type table
_GATHER_FLOATS = 1 << 22    # factor-row floats gathered per equivocation GEMM (32 MiB)
_WORK_BUDGET = 1 << 32      # default multiply-adds of exact equivocation (binary n = 16)
_STATE_BUDGET = 1 << 24     # default source sequences enumerated for exact equivocation
_TABLE_ROWS = 4096          # source sequences encoded per batch of the message table


# ---------------------------------------------------------------------------
# typicality machinery
# ---------------------------------------------------------------------------

def _row_counts(rows: np.ndarray, n_vals: int) -> np.ndarray:
    """Occurrence counts per row of an integer matrix; shape (m, n_vals)."""
    m = rows.shape[0]
    flat = rows.astype(np.int64)
    flat += (np.arange(m, dtype=np.int64) * n_vals)[:, None]
    return np.bincount(flat.ravel(), minlength=m * n_vals).reshape(m, n_vals)


def _typical(counts: np.ndarray, n: int, target: np.ndarray, p: np.ndarray,
             delta: float) -> np.ndarray:
    """The one typicality rule, elementwise over cell counts N: |N/n - target|
    <= delta (up to a 1e-12 float slack), and N = 0 where the law ``p`` is 0.
    A sequence is typical when every one of its cells passes."""
    return (np.abs(counts / n - target) <= delta + 1e-12) & ((p != 0.0) | (counts == 0))


def typical_rows(seqs: np.ndarray, probs: np.ndarray, delta: float) -> np.ndarray:
    """Boolean mask of delta-typical rows w.r.t. the distribution ``probs``."""
    seqs = np.atleast_2d(seqs)
    probs = np.asarray(probs, dtype=float).ravel()
    return _typical(_row_counts(seqs, probs.size), seqs.shape[1], probs, probs, delta).all(axis=1)


def conditionally_typical_pairs(x_rows: np.ndarray, y_rows: np.ndarray,
                                p_y_given_x: np.ndarray, delta: float) -> np.ndarray:
    """Mask of row pairs (x^n, y^n) with y^n conditionally typical given x^n:
    N(a, b) is compared against N(a|x^n) p(b|a).  Vectorized over rows."""
    x_rows = np.atleast_2d(x_rows)
    y_rows = np.atleast_2d(y_rows)
    n = y_rows.shape[1]
    kx, ky = p_y_given_x.shape
    nx = _row_counts(x_rows, kx)                              # (m, kx)
    target = nx[:, :, None] / n * p_y_given_x[None, :, :]     # (m, kx, ky)
    counts = _row_counts(x_rows.astype(np.int64) * ky + y_rows, kx * ky)
    return _typical(counts, n, target.reshape(counts.shape), p_y_given_x.ravel(),
                    delta).all(axis=1)


# ---------------------------------------------------------------------------
# configuration and instance
# ---------------------------------------------------------------------------

def _pow2_count(n: int, rate: float) -> int:
    """ceil(2^(n rate)) with protection against float fuzz just below integers."""
    v = 2.0 ** (n * rate)
    r = round(v)
    if abs(v - r) < 1e-9:
        return max(1, int(r))
    return max(1, int(math.ceil(v)))


@dataclass(frozen=True)
class CodeConfig:
    """Blocklength, bin rates (r1, r2, rc_link), codebook rates (s1, s2, sc),
    typicality slack and seed for one finite-blocklength code."""

    n: int
    r1: float
    r2: float
    rc_link: float
    s1: float
    s2: float
    sc: float
    delta_n: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_integer("blocklength", self.n, 1)
        for name in ("r1", "r2", "rc_link", "s1", "s2", "sc"):
            rate = getattr(self, name)
            if not 0 <= rate < math.inf:
                raise ValidationError(f"rate {name} must be finite and non-negative, got {rate}")
        if self.s1 < self.r1 - 1e-12 or self.s2 < self.r2 - 1e-12 or self.sc < self.rc_link - 1e-12:
            raise ValidationError("codebook rates must dominate bin rates (s >= r)")
        if self.delta_n is not None and not 0 < self.delta_n < math.inf:
            raise ValidationError(f"delta_n must be positive and finite, got {self.delta_n}")

    @property
    def delta(self) -> float:
        return self.delta_n if self.delta_n is not None else float(self.n) ** (-1.0 / 3.0)

    @cached_property
    def num_u(self) -> int:
        return _pow2_count(self.n, self.s1)

    @cached_property
    def num_v(self) -> int:
        return _pow2_count(self.n, self.s2)

    @cached_property
    def num_w(self) -> int:
        return _pow2_count(self.n, self.sc)

    @cached_property
    def bins_u(self) -> int:
        return _pow2_count(self.n, self.r1)

    @cached_property
    def bins_v(self) -> int:
        return _pow2_count(self.n, self.r2)

    @cached_property
    def bins_w(self) -> int:
        return _pow2_count(self.n, self.rc_link)


@dataclass(frozen=True)
class AliceEncoding:
    s1: int
    s2: int
    r1: int
    r2: int
    failed_u: bool
    failed_v: bool


@dataclass(frozen=True)
class CharlieEncoding:
    s: int
    r: int
    failed: bool


@dataclass(frozen=True)
class DecodeResult:
    success: bool
    n_matches: int
    s1: int
    s2: int
    s: int
    a_hat: np.ndarray


def _integers(x, size: int, what: str) -> np.ndarray:
    """``x`` as an int64 array; every entry must be an integer in [0, size)."""
    x = np.asarray(x)
    if x.dtype.kind not in "iuf" or not np.all((x >= 0) & (x < size) & (x % 1 == 0)):
        raise ValidationError(f"{what} must be integers in [0, {size})")
    return x.astype(np.int64)


def _shaped(cls, shape: tuple, **rows: np.ndarray):
    """A ``cls`` of per-row results in the batch shape ``shape``: Python
    scalars (a row stays an array) for one sequence or request, else arrays."""
    if shape == ():
        return cls(**{key: v[0] if v.ndim > 1 else v[0].item() for key, v in rows.items()})
    return cls(**{key: v.reshape(shape + v.shape[1:]) for key, v in rows.items()})


@dataclass(frozen=True)
class CodeInstance:
    """Realized codebooks, round-robin bin maps and cached statistics.

    Each party works on whole batches: the encoders take a (..., n) array
    with one sequence per row of its last axis, and ``decode_bob`` broadcasts
    its request arrays.  One sequence or request gives Python scalars.
    """

    config: CodeConfig
    source: JointSource = field(repr=False)
    system: AuxiliarySystem = field(repr=False)
    u_cb: np.ndarray = field(repr=False)      # (num_u, n)
    v_cb: np.ndarray = field(repr=False)      # (num_u, num_v, n)
    w_cb: np.ndarray = field(repr=False)      # (num_w, n)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_dist", _code_distributions(self.source, self.system))
        cfg = self.config
        object.__setattr__(self, "u_bin", np.arange(cfg.num_u) % cfg.bins_u)
        object.__setattr__(self, "v_bin", np.arange(cfg.num_v) % cfg.bins_v)
        object.__setattr__(self, "w_bin", np.arange(cfg.num_w) % cfg.bins_w)

    @property
    def message_count(self) -> int:
        return self.config.bins_u * self.config.bins_v

    # -- encoding ------------------------------------------------------------

    def _sequences(self, seqs, axis: int) -> tuple[tuple, np.ndarray]:
        """The batch shape of a (..., n) array of sequences of the source's
        axis ``axis`` (0 for A, 1 for C), and its sequences as (m, n) rows."""
        seqs = np.asarray(seqs)
        n = self.config.n
        if seqs.ndim == 0 or seqs.shape[-1] != n:
            raise ValidationError(f"sequences must have length {n} along the last axis")
        size = self.source.alphabet_sizes[axis]
        return seqs.shape[:-1], _integers(seqs, size, "sequence symbols").reshape(-1, n)

    def encode_alice(self, a_n) -> AliceEncoding:
        """Per sequence a^n: s1, the first u-codeword jointly typical with a^n;
        s2, the first v-codeword of book s1 with (v^n, a^n) conditionally
        typical given u^n; their bins (r1, r2).  A failed stage gives index 0."""
        shape, a_rows = self._sequences(a_n, 0)
        s1, failed_u = _first_typical(self.u_cb, a_rows, self._dist["p_ua"], self.config.delta)
        n = self.config.n
        nu, nv, na = self._dist["p_va_given_u"].shape
        p_pair = self._dist["p_va_given_u"].reshape(nu, nv * na)

        def typical(cws, open_rows):
            books = s1[open_rows]
            pairs = self.v_cb[books[None, :], cws[:, None]].astype(np.int64) * na + a_rows[open_rows]
            u_rows = np.tile(self.u_cb[books], (cws.size, 1))
            ok = conditionally_typical_pairs(u_rows, pairs.reshape(-1, n), p_pair, self.config.delta)
            return ok.reshape(cws.size, open_rows.size)

        s2, failed_v = _first_hit(self.config.num_v, a_rows.shape[0], typical)
        return _shaped(AliceEncoding, shape, s1=s1, s2=s2, r1=self.u_bin[s1], r2=self.v_bin[s2],
                       failed_u=failed_u, failed_v=failed_v)

    def encode_charlie(self, c_n) -> CharlieEncoding:
        """Per sequence c^n: s, the first w-codeword jointly typical with c^n
        (0 on failure), and its bin r."""
        shape, c_rows = self._sequences(c_n, 1)
        s, failed = _first_typical(self.w_cb, c_rows, self._dist["p_wc"], self.config.delta)
        return _shaped(CharlieEncoding, shape, s=s, r=self.w_bin[s], failed=failed)

    def alice_message_index(self, a_n):
        """The public message J = r1 * bins_v + r2 of each sequence a^n."""
        enc = self.encode_alice(a_n)
        return enc.r1 * self.config.bins_v + enc.r2

    # -- decoding ------------------------------------------------------------

    def decode_bob(self, j, k) -> DecodeResult:
        """Joint-typicality decoding of each request ((r1, r2), k), elementwise
        over the broadcast request arrays: the first candidate triple of the
        bins, in lexicographic (s1, s2, s) order, whose (u^n, v^n, w^n) is
        typical under p(u, v, w), else the bins' first triple, and the number
        of typical triples; ``success`` when exactly one is typical.

        Bins are round-robin: bin r of a layer holds s = r + bins * o for the
        offsets o with s below the codebook size, so bins differ in size by
        one and a mask drops the offsets past the codebook.  Requests are
        tested in blocks of about ``_PAIRS`` (request, candidate) pairs.
        """
        cfg = self.config
        nums, bins = (cfg.num_u, cfg.num_v, cfg.num_w), (cfg.bins_u, cfg.bins_v, cfg.bins_w)
        requests = [_integers(x, b, "bin indices") for x, b in zip((*j, k), bins)]
        try:
            requests = np.broadcast_arrays(*requests)
        except ValueError:
            raise ValidationError("bin index arrays must broadcast together") from None
        flat = [x.ravel() for x in requests]
        offsets = np.indices([-(-num // b) for num, b in zip(nums, bins)]).reshape(3, -1)
        p_uvw = self._dist["p_uvw"]
        _, nv, nw = p_uvw.shape
        n_matches, first = np.empty((2, flat[0].size), dtype=np.int64)
        step = max(1, _PAIRS // offsets.shape[1])
        for lo in range(0, flat[0].size, step):
            cands = [r[lo:lo + step, None] + b * o for r, b, o in zip(flat, bins, offsets)]
            inside = np.logical_and.reduce([x < num for x, num in zip(cands, nums)])
            s1, s2, s = (np.minimum(x, num - 1) for x, num in zip(cands, nums))
            comb = (self.u_cb[s1].astype(np.int64) * nv + self.v_cb[s1, s2]) * nw + self.w_cb[s]
            ok = typical_rows(comb.reshape(-1, cfg.n), p_uvw, cfg.delta).reshape(inside.shape)
            ok &= inside
            n_matches[lo:lo + step], first[lo:lo + step] = ok.sum(axis=1), ok.argmax(axis=1)
        s1, s2, s = (r + b * o[first] for r, b, o in zip(flat, bins, offsets))
        return _shaped(DecodeResult, requests[0].shape, success=n_matches == 1,
                       n_matches=n_matches, s1=s1, s2=s2, s=s,
                       a_hat=self.system.reconstruction[self.v_cb[s1, s2], self.w_cb[s]])


def _first_hit(count: int, m: int, typical) -> tuple[np.ndarray, np.ndarray]:
    """First of ``count`` codewords that ``typical`` accepts for each of ``m`` rows.

    ``typical(cws, rows)`` is the (len(cws), len(rows)) typicality mask of the
    codeword indices ``cws`` against the row indices ``rows``.  Codewords are
    tested in order, a block at a time against every row still open, with
    about ``_PAIRS`` pairs per block.  Returns (index, failed); a row with no
    typical codeword gets index 0 and failed True.
    """
    result = np.full(m, -1, dtype=np.int64)
    open_rows = np.arange(m)
    lo = 0
    while lo < count and open_rows.size:
        cws = np.arange(lo, min(count, lo + max(1, _PAIRS // open_rows.size)))
        ok = typical(cws, open_rows)
        hit = ok.any(axis=0)
        result[open_rows[hit]] = cws[ok[:, hit].argmax(axis=0)]
        open_rows = open_rows[~hit]
        lo += cws.size
    return np.maximum(result, 0), result < 0


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a matrix and the index of each row among them."""
    order = np.lexsort(rows.T)
    ordered = rows[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ordered[new], ids


def _allowed_types(cw_types: np.ndarray, row_types: np.ndarray, p_joint: np.ndarray,
                   n: int, delta: float) -> np.ndarray:
    """Which (codeword type, row type) pairs admit a joint type that ``_typical``
    accepts under ``p_joint``, as a (len(cw_types), len(row_types)) mask.

    Types are symbol counts of length-n sequences.  Cell (x, y) passes for the
    counts N = lo..hi: ``_typical``'s expression is evaluated at every N, and
    N/n - p is nondecreasing in N in floating point too, so the passing counts
    form an interval.  An integer matrix with row sums r, column sums s and
    lo <= N <= hi exists iff r(X) - s(Y) <= hi(X x Y') - lo(X' x Y) for every
    set X of codeword symbols and Y of row symbols, with ' the complement
    (Hoffman's circulation theorem).  Above ``_SUBSET_BITS`` symbols in all,
    every pair is allowed rather than testing that many subset pairs.
    """
    kx, ky = p_joint.shape
    allowed = np.ones((len(cw_types), len(row_types)), dtype=bool)
    if kx + ky > _SUBSET_BITS:
        return allowed
    p = p_joint[:, :, None]
    ok = _typical(np.arange(n + 1), n, p, p, delta)
    if not ok.any(axis=2).all():
        return ~allowed
    lo, hi = ok.argmax(axis=2), n - ok[:, :, ::-1].argmax(axis=2)
    xs = (np.arange(2 ** kx)[:, None] >> np.arange(kx)) & 1   # subset indicators
    ys = (np.arange(2 ** ky)[:, None] >> np.arange(ky)) & 1
    cap = xs @ hi @ (1 - ys).T - (1 - xs) @ lo @ ys.T         # (2^kx, 2^ky)
    r_x, s_y = cw_types @ xs.T, row_types @ ys.T
    for x in range(2 ** kx):
        allowed &= r_x[:, x, None] <= (cap[x] + s_y).min(axis=1)
    return allowed


def _first_typical(cb: np.ndarray, rows: np.ndarray, p_joint: np.ndarray,
                   delta: float) -> tuple[np.ndarray, np.ndarray]:
    """First codeword of ``cb`` jointly typical with each row, as in ``_first_hit``.

    A row is tested only against the codewords whose type admits a typical
    joint type with its own (``_allowed_types``), in index order, so the first
    hit is the one of a full scan; a row whose type admits no codeword's type
    fails without a test.  Rows whose types admit the same codeword types
    share one scan.
    """
    kx, ky = p_joint.shape
    n = rows.shape[1]
    # codeword types symbol by symbol, so a large codebook needs no int64 copy
    cw_counts = np.stack([np.count_nonzero(cb == x, axis=1) for x in range(kx)], axis=1)
    cw_types, cw_type = _distinct_rows(cw_counts)
    row_types, row_type = _distinct_rows(_row_counts(rows, ky))
    patterns, pattern = _distinct_rows(_allowed_types(cw_types, row_types, p_joint, n, delta).T)
    group = pattern[row_type]
    index = np.zeros(rows.shape[0], dtype=np.int64)
    failed = np.ones(rows.shape[0], dtype=bool)
    for g in np.nonzero(patterns.any(axis=1))[0]:
        members = np.nonzero(group == g)[0]
        cands = np.nonzero(patterns[g][cw_type])[0]

        def typical(cws, open_rows):
            comb = (cb[cands[cws]][:, None, :].astype(np.int64) * ky
                    + rows[members[open_rows]][None, :, :])
            return typical_rows(comb.reshape(-1, n), p_joint, delta).reshape(cws.size, -1)

        hit, failed[members] = _first_hit(cands.size, members.size, typical)
        index[members] = np.where(failed[members], 0, cands[hit])
    return index, failed


# ---------------------------------------------------------------------------
# codebook generation
# ---------------------------------------------------------------------------

def _code_distributions(source: JointSource, sys: AuxiliarySystem) -> dict[str, np.ndarray]:
    """The laws of one code: p(u), p(v|u) and p(w) draw the codebooks; p(u, a),
    p(v, a | u) and p(w, c) drive the encoders; p(u, v, w) drives the decoder."""
    uv, va, wc = sys.u_given_v.rows, sys.v_given_a.rows, sys.w_given_c.rows
    p_uva = np.einsum("vu,av,a->uva", uv, va, source.p_a())
    p_u = p_uva.sum(axis=(1, 2))
    has_u = p_u > 0
    safe_u = np.where(has_u, p_u, 1.0)
    return {
        "p_u": p_u,
        "p_v_given_u": np.where(has_u[:, None], p_uva.sum(axis=2) / safe_u[:, None], 0.0),
        "p_w": np.einsum("cw,c->w", wc, source.p_c()),
        "p_ua": p_uva.sum(axis=1),
        "p_va_given_u": np.where(has_u[:, None, None], p_uva / safe_u[:, None, None], 0.0),
        "p_wc": np.einsum("cw,c->wc", wc, source.p_c()),
        "p_uvw": np.einsum("vu,av,cw,ac->uvw", uv, va, wc, source.p_ac()),
    }


def _sample_typical(rng, probs: np.ndarray, count: int, n: int, delta: float,
                    what: str) -> np.ndarray:
    """Draw ``count`` i.i.d. sequences from ``probs``, resampling until typical."""
    probs = np.asarray(probs, dtype=float)
    out = np.empty((count, n), dtype=np.int8)
    filled = 0
    for _ in range(_MAX_SAMPLE_ROUNDS):
        if filled >= count:
            return out
        draw = rng.choice(probs.size, size=(_SAMPLE_BATCH, n), p=probs).astype(np.int8)
        ok = typical_rows(draw, probs, delta)
        good = draw[ok]
        take = min(good.shape[0], count - filled)
        out[filled:filled + take] = good[:take]
        filled += take
    raise ValidationError(
        f"could not sample a delta-typical {what} sequence after "
        f"{_MAX_SAMPLE_ROUNDS * _SAMPLE_BATCH} draws; increase n or delta_n"
    )


def _sample_conditionally_typical(rng, given_rows: np.ndarray, p_y_given_x: np.ndarray,
                                  delta: float, what: str) -> np.ndarray:
    """One conditionally typical row per given row, drawn from prod p(y | x_i)."""
    m, n = given_rows.shape
    cdf = np.cumsum(p_y_given_x, axis=1)
    out = np.empty((m, n), dtype=np.int8)
    open_rows = np.arange(m)
    for _ in range(_MAX_SAMPLE_ROUNDS):
        if open_rows.size == 0:
            return out
        u = rng.random((open_rows.size, n))
        draw = (u[:, :, None] > cdf[given_rows[open_rows]][:, :, :]).sum(axis=2).astype(np.int8)
        ok = conditionally_typical_pairs(given_rows[open_rows], draw, p_y_given_x, delta)
        out[open_rows[ok]] = draw[ok]
        open_rows = open_rows[~ok]
    raise ValidationError(
        f"could not sample a conditionally typical {what} sequence; "
        "increase n or delta_n"
    )


def generate_codebooks(source: JointSource, sys: AuxiliarySystem, cfg: CodeConfig,
                       *, entry_budget: int = 1 << 26) -> CodeInstance:
    """Sample all codebooks for one code realization, deterministically.

    Codewords are drawn i.i.d. from the relevant marginal (conditional for the
    refinement layer) and rejected until delta-typical.  Bins are filled
    round-robin by codeword index, making cell sizes equal up to one.
    """
    entries = (cfg.num_u + cfg.num_u * cfg.num_v + cfg.num_w) * cfg.n
    if entries > entry_budget:
        raise BudgetError(
            f"codebooks need {entries} table entries, above the budget of {entry_budget}"
        )
    na, nc, _ = source.alphabet_sizes
    if sys.v_given_a.input_size != na or sys.w_given_c.input_size != nc:
        raise ValidationError("auxiliary system does not match the source alphabets")
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0)))
    dist = _code_distributions(source, sys)
    u_cb = _sample_typical(rng, dist["p_u"], cfg.num_u, cfg.n, cfg.delta, "u")
    v_cb = np.empty((cfg.num_u, cfg.num_v, cfg.n), dtype=np.int8)
    for s2 in range(cfg.num_v):
        v_cb[:, s2, :] = _sample_conditionally_typical(rng, u_cb, dist["p_v_given_u"],
                                                       cfg.delta, "v")
    w_cb = _sample_typical(rng, dist["p_w"], cfg.num_w, cfg.n, cfg.delta, "w")
    return CodeInstance(config=cfg, source=source, system=sys,
                        u_cb=u_cb, v_cb=v_cb, w_cb=w_cb)


# ---------------------------------------------------------------------------
# exact equivocation by enumeration
# ---------------------------------------------------------------------------

def _digits(codes: np.ndarray, na: int, n: int) -> np.ndarray:
    """Rows a^n of the integer codes sum_i a_i na^(n-1-i)."""
    powers = na ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((codes[:, None] // powers[None, :]) % na).astype(np.int64)


def _eve_joint(source: JointSource, n: int):
    """The one definition of p(A^n in G, e^n): a function of a set G of a^n codes.

    p(a^n, e^n) = prod_i p(a_i, e_i) is the Kronecker product K_h (x) K_t of
    K_m = p(a, e)^(x)m, shape (|A|^m, |E|^m), over a head of h = n // 2
    symbols and a tail of t = n - h.  So the sum over a^n in G is the one
    GEMM K_h[G // |A|^t]^T K_t[G % |A|^t], an (|E|^h, |E|^t) matrix whose
    row-major order is the e^n integer code; it costs |G| |E|^n multiply-adds.
    A large G is summed over slices of its members, so each GEMM gathers at
    most ``_GATHER_FLOATS`` floats of factor rows.
    """
    p_ae = source.p_ae()
    k_h = reduce(np.kron, [p_ae] * (n // 2), np.ones((1, 1)))
    k_t = reduce(np.kron, [p_ae] * (n - n // 2), np.ones((1, 1)))
    tail = k_t.shape[0]
    step = max(1, _GATHER_FLOATS // (k_h.shape[1] + k_t.shape[1]))

    def joint(codes: np.ndarray) -> np.ndarray:
        parts = [codes[lo:lo + step] for lo in range(0, max(codes.size, 1), step)]
        return sum(k_h[g // tail].T @ k_t[g % tail] for g in parts)

    return joint


def _message_groups(j_of_seq: np.ndarray) -> list[np.ndarray]:
    """The a^n codes of each message, in increasing message and code order."""
    order = np.argsort(j_of_seq, kind="stable")
    return np.split(order, np.nonzero(np.diff(j_of_seq[order]))[0] + 1)


def message_equivocation(source: JointSource, n: int, j_of_seq: np.ndarray,
                         num_messages: int, *, work_budget: int = _WORK_BUDGET) -> float:
    """Exact H(A^n | J, E^n)/n in bits for a deterministic message map.

    ``j_of_seq`` assigns a message to every source sequence, indexed by the
    integer code sum_i a_i |A|^(n-1-i).  Uses
    H(A^n | J, E^n) = n H(A, E) - H(J, E^n), valid because J is a function of
    A^n; each message's p(J = j, e^n) is one split-half GEMM (``_eve_joint``).

    ``work_budget`` bounds the GEMMs' multiply-adds, |A|^n |E|^n in all.  Its
    default, 2^32 (binary A and E at n = 16), takes 0.3-0.4 s of one core
    (about 1.2e10 multiply-adds/s with OpenBLAS on a 2-core x86-64 host).
    Each GEMM gathers at most max(2^22, |E|^h + |E|^t) floats of factor rows
    (32 MiB unless one row pair is larger), whatever the group sizes, and a
    message adds its |E|^n matrix and running sum.
    """
    na, _, ne = source.alphabet_sizes
    n_seq = na ** n
    if j_of_seq.shape != (n_seq,):
        raise ValidationError(f"j_of_seq must have shape ({n_seq},)")
    if num_messages < 1 or j_of_seq.min() < 0 or j_of_seq.max() >= num_messages:
        raise ValidationError("message indices must lie in [0, num_messages)")
    if n_seq * ne ** n > work_budget:
        raise BudgetError(
            f"exact equivocation needs {n_seq * ne ** n} GEMM multiply-adds (|A|^n |E|^n), "
            f"above the budget of {work_budget}; it would hold up to "
            f"{8 * _GATHER_FLOATS / 2 ** 20:.0f} MiB of factor rows per GEMM and "
            f"{16 * ne ** n / 2 ** 20:.1f} MiB for a message's |E|^n matrix and running sum"
        )
    joint = _eve_joint(source, n)
    h_je = sum(entropy_unchecked(joint(members)) for members in _message_groups(j_of_seq))
    h_ae = entropy_unchecked(source.p_ae())
    equiv = (n * h_ae - h_je) / n
    h_a_e = h_ae - entropy_unchecked(source.p_e())
    if equiv < -1e-9 or equiv > h_a_e + 1e-9:
        raise RuntimeError(f"equivocation {equiv} outside [0, H(A|E) = {h_a_e}]")
    return min(max(equiv, 0.0), h_a_e)


def encoder_message_table(instance: CodeInstance, *,
                          state_budget: int = _STATE_BUDGET) -> np.ndarray:
    """J for every source sequence a^n, as a flat table indexed by integer code."""
    n = instance.config.n
    na = instance.source.alphabet_sizes[0]
    n_seq = na ** n
    if n_seq > state_budget:
        raise BudgetError(
            f"enumerating {n_seq} source sequences exceeds the budget of {state_budget}"
        )
    out = np.empty(n_seq, dtype=np.int64)
    for lo in range(0, n_seq, _TABLE_ROWS):
        dig = _digits(np.arange(lo, min(lo + _TABLE_ROWS, n_seq), dtype=np.int64), na, n)
        out[lo:lo + dig.shape[0]] = instance.alice_message_index(dig)
    return out


def exact_equivocation(instance: CodeInstance, *, state_budget: int = _STATE_BUDGET,
                       work_budget: int = _WORK_BUDGET) -> float:
    """Exact H(A^n | J, E^n)/n of the realized code under its own source: J for
    all |A|^n source sequences (at most ``state_budget``), then
    ``message_equivocation``."""
    table = encoder_message_table(instance, state_budget=state_budget)
    return message_equivocation(instance.source, instance.config.n, table,
                                instance.message_count, work_budget=work_budget)


def eve_map_bit_error_rate(instance: CodeInstance, *, work_budget: int = _WORK_BUDGET) -> float:
    """Mean bit error rate of Eve's symbol-wise MAP estimate of A^n from (J, E^n),
    under the code's own source.

    Exact enumeration; binary sources at small n only.  p(j, a_i = 1, e^n) is
    ``_eve_joint`` over the message's a^n with a_i = 1.  The binary-entropy
    bound h2(BER) >= H(A^n | J, E^n)/n sandwiches the exact equivocation.

    ``work_budget`` bounds the GEMMs' multiply-adds, (|A|^n + n |A|^(n-1))
    |E|^n in all: p(j, e^n) over every a^n, then p(j, a_i = 1, e^n) over the
    |A|^(n-1) sequences with a_i = 1 for each i.  The message table is
    enumerated under the default ``_STATE_BUDGET``.
    """
    n = instance.config.n
    source = instance.source
    na, _, ne = source.alphabet_sizes
    if na != 2:
        raise ValidationError("BER bound is defined for the binary Hamming case")
    n_seq = na ** n
    work = (n_seq + n * n_seq // na) * ne ** n
    if work > work_budget:
        raise BudgetError(
            f"the BER needs {work} GEMM multiply-adds ((|A|^n + n |A|^(n-1)) |E|^n), "
            f"above the budget of {work_budget}"
        )
    table = encoder_message_table(instance)
    joint = _eve_joint(source, n)
    ber = 0.0
    for members in _message_groups(table):
        total = joint(members)                                  # p(j, e^n)
        bits = _digits(members, na, n)
        for i in range(n):
            mass1 = joint(members[bits[:, i] == 1])             # p(j, a_i = 1, e^n)
            correct = np.maximum(mass1, total - mass1)
            ber += float((total - correct).sum()) / n
    return ber


# ---------------------------------------------------------------------------
# Monte Carlo experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimReport:
    n: int
    trials: int
    empirical_distortion: float | None
    decode_error_rate: float | None
    decode_ambiguity_rate: float | None
    encode_failure_rates: dict
    exact_equivocation: float | None

    def __post_init__(self) -> None:
        if self.decode_error_rate is not None and not 0.0 <= self.decode_error_rate <= 1.0:
            raise ValidationError("decode_error_rate must lie in [0, 1]")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _run_shard(args) -> dict[str, np.ndarray]:
    """Per-trial arrays of one shard: the encoders' indices and failure flags,
    the decoding error and ambiguity flags and the distortion."""
    instance, d_table, shard_idx, shard_len = args
    cfg = instance.config
    src = instance.source
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 7, shard_idx)))
    flat = src.probs.ravel()
    # always draw the full shard block so a longer run extends a shorter one
    draw = rng.choice(flat.size, size=(TRIAL_SHARD, cfg.n), p=flat)[:shard_len]
    _, nc, ne = src.alphabet_sizes
    a, c = draw // (nc * ne), (draw // ne) % nc
    alice = instance.encode_alice(a)
    charlie = instance.encode_charlie(c)
    bob = instance.decode_bob((alice.r1, alice.r2), charlie.r)
    error = ~(bob.success & (bob.s1 == alice.s1) & (bob.s2 == alice.s2) & (bob.s == charlie.s))
    return {"s1": alice.s1, "s2": alice.s2, "s": charlie.s, "error": error,
            "ambiguous": bob.n_matches > 1, "distortion": d_table[a, bob.a_hat].mean(axis=1),
            "alice_u": alice.failed_u, "alice_v": alice.failed_v, "charlie": charlie.failed}


def run_experiment(
    source: JointSource,
    sys: AuxiliarySystem,
    d: DistortionMeasure,
    cfg: CodeConfig,
    trials: int,
    *,
    workers: int = 1,
    compute_equivocation: bool = True,
    state_budget: int = _STATE_BUDGET,
    work_budget: int = _WORK_BUDGET,
    trace_path: str | None = None,
) -> SimReport:
    """Generate one code, run Monte Carlo trials, attach exact equivocation.

    Trials are processed in fixed shards of ``TRIAL_SHARD`` with per-shard
    derived seeds: results are identical for any worker count, and the first
    trials of a longer run coincide with a shorter run.  With no trials the
    per-trial rates are None.
    """
    from .optimize import parallel_map

    if trials < 0:
        raise ValidationError("trials must be non-negative")
    check_reconstruction(source, d, sys.reconstruction)
    instance = generate_codebooks(source, sys, cfg)
    shards = [(instance, d.table, idx, min(TRIAL_SHARD, trials - lo))
              for idx, lo in enumerate(range(0, trials, TRIAL_SHARD))]
    results = parallel_map(_run_shard, shards, workers)

    def rate(key: str) -> float | None:
        return sum(float(r[key].sum()) for r in results) / trials if trials else None

    equiv = (exact_equivocation(instance, state_budget=state_budget, work_budget=work_budget)
             if compute_equivocation else None)
    report = SimReport(
        n=cfg.n,
        trials=trials,
        empirical_distortion=rate("distortion"),
        decode_error_rate=rate("error"),
        decode_ambiguity_rate=rate("ambiguous"),
        encode_failure_rates=({key: rate(key) for key in ("alice_u", "alice_v", "charlie")}
                              if trials else {}),
        exact_equivocation=equiv,
    )
    if trace_path is not None:
        columns = [[x for r in results for x in r[key].tolist()]
                   for key in ("s1", "s2", "s", "error", "distortion")]
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write("trial,s1,s2,s,decode_error,distortion\n")
            for t, (s1, s2, s, error, dist) in enumerate(zip(*columns)):
                fh.write(f"{t},{s1},{s2},{s},{int(error)},{dist:.6g}\n")
    return report
