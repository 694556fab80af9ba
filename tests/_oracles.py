"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written with plain Python loops and math.log,
independent of the vectorized library paths it is used to check, except
``oracle_exhaustive``, which evaluates its (many) systems in numpy batches
but from the textbook definitions only.
"""

import math
from itertools import combinations_with_replacement, product

import numpy as np


def oracle_entropy(probs):
    """-sum p log2 p over an iterable of probabilities."""
    total = 0.0
    for p in probs:
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def oracle_mi(joint):
    """I(X;Y) from a nested-list 2-d joint, by direct summation."""
    px = [sum(row) for row in joint]
    ny = len(joint[0])
    py = [sum(joint[x][y] for x in range(len(joint))) for y in range(ny)]
    total = 0.0
    for x in range(len(joint)):
        for y in range(ny):
            pxy = joint[x][y]
            if pxy > 0.0:
                total += pxy * math.log2(pxy / (px[x] * py[y]))
    return total


def oracle_cond_mi(joint, z_axis):
    """I(X;Y|Z) from a nested-list 3-d joint; z_axis names the conditioning axis."""
    n0 = len(joint)
    n1 = len(joint[0])
    n2 = len(joint[0][0])
    sizes = (n0, n1, n2)
    axes = [ax for ax in range(3) if ax != z_axis]
    total = 0.0
    for z in range(sizes[z_axis]):
        table = [
            [0.0 for _ in range(sizes[axes[1]])] for _ in range(sizes[axes[0]])
        ]
        pz = 0.0
        for idx in product(range(n0), range(n1), range(n2)):
            if idx[z_axis] != z:
                continue
            p = joint[idx[0]][idx[1]][idx[2]]
            table[idx[axes[0]]][idx[axes[1]]] += p
            pz += p
        if pz > 0.0:
            cond = [[v / pz for v in row] for row in table]
            total += pz * oracle_mi(cond)
    return total


def oracle_full_joint(source, u_given_v, v_given_a, w_given_c):
    """Dense p(u,v,w,a,c,e) as nested loops over plain lists."""
    nu = len(u_given_v[0])
    nv = len(v_given_a[0])
    nw = len(w_given_c[0])
    na = len(source)
    nc = len(source[0])
    ne = len(source[0][0])
    out = {}
    for u, v, w, a, c, e in product(range(nu), range(nv), range(nw), range(na), range(nc), range(ne)):
        out[(u, v, w, a, c, e)] = (
            u_given_v[v][u] * v_given_a[a][v] * w_given_c[c][w] * source[a][c][e]
        )
    return out, (nu, nv, nw, na, nc, ne)


def oracle_marginal(joint, sizes, keep):
    """Marginalize the dict-form joint down to the axes in ``keep`` (ordered)."""
    shape = tuple(sizes[ax] for ax in keep)
    out = {}
    for idx in product(*[range(s) for s in shape]):
        out[idx] = 0.0
    for full_idx, p in joint.items():
        key = tuple(full_idx[ax] for ax in keep)
        out[key] += p
    return out, shape


def oracle_entropy_of(joint_dict):
    return oracle_entropy(joint_dict.values())


def oracle_cmi_from_dict(joint, sizes, x_axes, y_axes, z_axes):
    """I(X;Y|Z) = H(XZ) + H(YZ) - H(XYZ) - H(Z) by direct marginal sums."""
    def ent(axes):
        m, _ = oracle_marginal(joint, sizes, tuple(axes))
        return oracle_entropy_of(m)

    hz = ent(z_axes) if z_axes else 0.0
    return ent(tuple(x_axes) + tuple(z_axes)) + ent(tuple(y_axes) + tuple(z_axes)) - ent(
        tuple(x_axes) + tuple(y_axes) + tuple(z_axes)
    ) - hz


def oracle_cond_entropy_from_dict(joint, sizes, x_axes, z_axes):
    """H(X|Z) = H(XZ) - H(Z)."""
    def ent(axes):
        m, _ = oracle_marginal(joint, sizes, tuple(axes))
        return oracle_entropy_of(m)

    hz = ent(z_axes) if z_axes else 0.0
    return ent(tuple(x_axes) + tuple(z_axes)) - hz


def oracle_h2(x):
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def oracle_binary_delta(p, eps, alpha, beta):
    """Delta of the BEC/BSC closed form at chain parameters (alpha, beta), term by term."""
    ab = alpha * (1 - beta) + (1 - alpha) * beta
    pab = p * (1 - ab) + (1 - p) * ab
    return eps * oracle_h2(alpha) + (1 - eps) * oracle_h2(ab) - oracle_h2(pab) + oracle_h2(p)


def oracle_binary_max(p, eps, d, rate_cap=None, beta_zero=False, points=101):
    """Max of ``oracle_binary_delta`` over a points x points grid of the
    feasible box, by a plain double loop; None when the box is empty.

    The box is alpha in [a_lo, min(1/2, d/eps)] and beta in [0, 1/2] (beta = 0
    only, when ``beta_zero``).  a_lo is 0, or under a rate cap below eps the
    smallest alpha with eps (1 - h2(alpha)) <= rate_cap, found by bisection
    and taken from the feasible side.  Both alpha ends are grid points.
    """
    a_hi = 0.5 if eps == 0 else min(0.5, d / eps)
    a_lo = 0.0
    if rate_cap is not None and rate_cap < eps:
        lo, hi = 0.0, 0.5
        while hi - lo > 1e-15:
            mid = (lo + hi) / 2
            if eps * (1 - oracle_h2(mid)) <= rate_cap:
                hi = mid
            else:
                lo = mid
        a_lo = hi
    if a_lo > a_hi:
        return None
    alphas = [a_lo + (a_hi - a_lo) * i / (points - 1) for i in range(points - 1)] + [a_hi]
    betas = [0.0] if beta_zero else [0.5 * j / (points - 1) for j in range(points)]
    best = -math.inf
    for a in alphas:
        for b in betas:
            best = max(best, oracle_binary_delta(p, eps, a, b))
    return best


def oracle_typical(seq, probs, delta):
    """Count typicality of one sequence: |N(x)/n - p(x)| <= delta for every
    symbol, and N(x) = 0 wherever p(x) = 0."""
    n = len(seq)
    counts = [0] * len(probs)
    for x in seq:
        counts[x] += 1
    return all(abs(c / n - p) <= delta + 1e-12 and (p > 0.0 or c == 0)
               for c, p in zip(counts, probs))


def oracle_cond_typical(x_seq, y_seq, p_y_given_x, delta):
    """y^n conditionally typical given x^n: |N(x,y)/n - N(x)/n p(y|x)| <= delta
    for every pair, and N(x, y) = 0 wherever p(y|x) = 0."""
    n = len(x_seq)
    nx = [0] * len(p_y_given_x)
    nxy = [[0] * len(row) for row in p_y_given_x]
    for x, y in zip(x_seq, y_seq):
        nx[x] += 1
        nxy[x][y] += 1
    for x, row in enumerate(p_y_given_x):
        for y, p in enumerate(row):
            c = nxy[x][y]
            if abs(c / n - nx[x] / n * p) > delta + 1e-12 or (p == 0.0 and c > 0):
                return False
    return True


def oracle_first_typical(codebook, rows, p_joint, delta):
    """For each row, the index of the first codeword jointly typical with it
    under p(codeword symbol, row symbol), or -1; one pair at a time."""
    ky = len(p_joint[0])
    flat = [p for prow in p_joint for p in prow]
    out = []
    for row in rows:
        hit = -1
        for s, word in enumerate(codebook):
            if oracle_typical([x * ky + y for x, y in zip(word, row)], flat, delta):
                hit = s
                break
        out.append(hit)
    return out


def oracle_first_refinement(u_words, v_books, rows, p_va_given_u, delta):
    """For each row a^n, the index of the first v^n of its book v_books[i] with
    (v^n, a^n) conditionally typical given u_words[i], or -1; one pair at a time."""
    na = len(p_va_given_u[0][0])
    p_pair = [[p for vrow in urow for p in vrow] for urow in p_va_given_u]
    out = []
    for u, book, a in zip(u_words, v_books, rows):
        hit = -1
        for s2, v in enumerate(book):
            if oracle_cond_typical(u, [vi * na + ai for vi, ai in zip(v, a)], p_pair, delta):
                hit = s2
                break
        out.append(hit)
    return out


def oracle_decode(u_cb, v_cb, w_cb, cands_u, cands_v, cands_w, p_uvw, delta):
    """(match count, chosen triple) of joint-typicality decoding over the given
    bin members: the first jointly typical (s1, s2, s) in lexicographic order,
    else the first candidate."""
    nv = len(p_uvw[0])
    nw = len(p_uvw[0][0])
    flat = [p for plane in p_uvw for prow in plane for p in prow]
    matches, first = [], None
    for s1 in cands_u:
        for s2 in cands_v:
            for s in cands_w:
                if first is None:
                    first = (s1, s2, s)
                seq = [(u * nv + v) * nw + w for u, v, w in zip(u_cb[s1], v_cb[s1][s2], w_cb[s])]
                if oracle_typical(seq, flat, delta):
                    matches.append((s1, s2, s))
    return len(matches), (matches[0] if matches else first)


def oracle_message_equivocation(p_ae, n, table):
    """H(A^n | J, E^n)/n for the message map J = table[a^n code], from the
    definition: every p(a^n, e^n) = prod_i p(a_i, e_i) entry by entry,
    p(j, e^n) summed over the a^n with table = j, and
    H = -sum p(a^n, e^n) log2(p(a^n, e^n) / p(j, e^n)).  a^n runs in
    lexicographic order, which is integer-code order."""
    seqs_a = list(product(range(len(p_ae)), repeat=n))
    seqs_e = list(product(range(len(p_ae[0])), repeat=n))

    def p_seq(a, e):
        p = 1.0
        for x, y in zip(a, e):
            p *= p_ae[x][y]
        return p

    p_je = {}
    for code, a in enumerate(seqs_a):
        for e in seqs_e:
            key = (table[code], e)
            p_je[key] = p_je.get(key, 0.0) + p_seq(a, e)
    total = 0.0
    for code, a in enumerate(seqs_a):
        for e in seqs_e:
            p = p_seq(a, e)
            if p > 0.0:
                total -= p * math.log2(p / p_je[(table[code], e)])
    return total / n


def _grid_channels(n_in, k, m):
    """Every n_in x k channel whose rows lie on the step-1/m simplex grid."""
    rows = sorted({tuple(comp.count(j) / m for j in range(k))
                   for comp in combinations_with_replacement(range(k), m)})
    return [list(chan) for chan in product(rows, repeat=n_in)]


def oracle_exhaustive(source, d_table, caps, step, constraints, fixed_wc=None):
    """Best inner-bound Delta per constraint over every grid system.

    Every row of p(u|v), p(v|a) and p(w|c) runs over the simplex grid of
    ``step`` (``fixed_wc`` replaces the W grid), with no relabeling quotient
    and no pruning.  Each system's six bounds are the subset-entropy
    definitions on its composed joint p(u,v,w,a,c,e), with the reconstruction
    chosen per (v, w) cell; it is scored as the library does: infeasible when
    its summed constraint violation exceeds 1e-9, else
    max(0, min(delta_max, max_r_c + delta_minus_rc_max)).  Returns one value
    per constraint, None where no system is feasible.
    """
    source = np.asarray(source, dtype=float)
    d_table = np.asarray(d_table, dtype=float)
    na, nc, _ = source.shape
    cu, cv, cw = caps
    m = round(1.0 / step)
    uvs = _grid_channels(cv, cu, m)
    vas = _grid_channels(na, cv, m)
    wcs = [fixed_wc] if fixed_wc is not None else _grid_channels(nc, cw, m)
    systems = list(product(uvs, vas, wcs))
    best = [None] * len(constraints)
    batch = 2048  # systems per numpy pass, to keep memory small
    for lo in range(0, len(systems), batch):
        uv, va, wc = (np.array(x, dtype=float) for x in zip(*systems[lo:lo + batch]))
        p = np.einsum("bvu,bav,bcw,ace->buvwace", uv, va, wc, source)

        def H(*axes):  # axes of (u, v, w, a, c, e) = 1..6
            drop = tuple(ax for ax in range(1, 7) if ax not in axes)
            marg = p.sum(axis=drop).reshape(len(p), -1)
            logs = np.log2(np.where(marg > 0, marg, 1.0))
            return -(marg * logs).sum(axis=1)

        U, V, W, A, C, E = range(1, 7)
        r_a = np.maximum(H(V, W) + H(A, W) - H(V, A, W) - H(W), 0.0)
        r_c = np.maximum(H(W, V) + H(C, V) - H(W, C, V) - H(V), 0.0)
        r_sum = np.maximum(H(V, W) + H(A, C) - H(V, W, A, C), 0.0)
        i_aw_u = np.maximum(H(A, U) + H(W, U) - H(A, W, U) - H(U), 0.0)
        i_ae_u = np.maximum(H(A, U) + H(E, U) - H(A, E, U) - H(U), 0.0)
        delta_max = H(A, V, W) - H(V, W) + i_aw_u - i_ae_u
        delta_minus_rc = H(A, V) - H(V) - i_ae_u - r_c
        p_vwa = p.sum(axis=(1, 5, 6))
        d_min = np.einsum("zvwa,ab->zvwb", p_vwa, d_table).min(axis=3).sum(axis=(1, 2))
        for i, c in enumerate(constraints):
            violation = (np.maximum(d_min - c.max_d, 0.0) + np.maximum(r_a - c.max_r_a, 0.0)
                         + np.maximum(r_c - c.max_r_c, 0.0)
                         + np.maximum(r_sum - c.max_r_a - c.max_r_c, 0.0))
            delta = delta_max
            if math.isfinite(c.max_r_c):
                delta = np.minimum(delta, c.max_r_c + delta_minus_rc)
            vals = np.maximum(delta, 0.0)[violation <= 1e-9]
            if vals.size and (best[i] is None or vals.max() > best[i]):
                best[i] = float(vals.max())
    return best


def oracle_project_simplex(v):
    """Euclidean projection of one vector onto the probability simplex, by the
    sort-and-threshold rule, one row at a time: the same float steps as the
    library's all-rows projection, which must match it bit for bit."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, len(v) + 1)
    rho = np.nonzero(u - css / ks > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)
