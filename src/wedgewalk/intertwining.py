"""The uniform-fiber link between radial chains and planar walks, and the
algebraic identity checks built on it.

``build_link`` returns the kernel that sends radial state k to the uniform
law on the 2k+1 sites of layer k.  ``intertwining_residual`` measures, entry
by entry, how far a planar operator and a radial operator are from commuting
through the link; for the wedge walk the identity is exact (zero residual in
rational mode), and the vase rate matrices built with ``exact_projection``
reproduce it at float precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError, ShapeError
from .geometry import VaseGrid, WedgeLattice
from .kernels import (FLOAT, RATIONAL, RateMatrix, StochasticKernel, _CSROperator,
                      _coalesce, _float_arrays, _row_lcm, _rows)

_BLOCK = 16     # link rows evolved together; a few (K+1)^2 x _BLOCK arrays
_ROWS = 2048    # rows per chunk of an ELL product, which bounds its scratch
_ENTRIES = 8192  # product terms per block of radial rows in the intertwining residual


class MarkovLink(_CSROperator):
    """Rows: for each radial state k, the uniform law on its fiber."""

    what, mode = "link row", RATIONAL

    def __init__(self, n_source, n_target, *, arrays):
        self.n_source, self.n_target = n_source, n_target
        self.arrays = self.check(arrays, self.mode, self.what)


def build_link(space) -> MarkovLink:
    """Uniform fiber link for a wedge lattice, a vase grid, or a layer count."""
    K = int(space.layer[-1]) if isinstance(space, (WedgeLattice, VaseGrid)) else int(space)
    # layer k's fiber is the sites k^2 .. k^2 + 2k in layer-major order
    n = (K + 1) ** 2
    return MarkovLink(n_source=K + 1, n_target=n, arrays=(
        np.arange(K + 2, dtype=np.int64) ** 2, np.arange(n, dtype=np.int64),
        (np.ones(n, dtype=np.int64), np.arange(1, 2 * K + 2, 2, dtype=np.int64))))


@dataclass
class ResidualReport:
    identity: str
    mode: str
    size: int
    residual: float
    passed: bool
    exact_zero: Optional[bool] = None

    def to_json(self) -> str:
        return json.dumps({"identity": self.identity, "mode": self.mode,
                           "size": self.size, "residual": self.residual,
                           "pass": self.passed}, sort_keys=True)


def _terms(A, B):
    """Rows, columns and values of the terms of A @ B, uncoalesced: each
    entry of A, in A's order, meets the entries of B's row at its column."""
    (ap, aj, av), (bp, bj, bv) = A, B
    count = bp[aj + 1] - bp[aj]
    e = np.repeat(np.arange(aj.size), count)
    f = np.arange(e.size) - np.repeat(np.cumsum(count) - count - bp[aj], count)
    return _rows(ap)[e], bj[f], av[e] * bv[f]


def _product_sum(AB, CE):
    """Rows, columns and values of A.B + C.E, row-major.  As in scipy's
    sparse product and sum, each product's entry sums its terms over A's (C's)
    columns in ascending order, and then the two products are added."""
    (r1, c1, v1), (r2, c2, v2) = _terms(*AB), _terms(*CE)
    width = int(max(c1.max(initial=0), c2.max(initial=0))) + 1
    key, part = _coalesce(np.concatenate([(r1 * width + c1) * 2, (r2 * width + c2) * 2 + 1]),
                          np.concatenate([v1, v2]))
    key, R = _coalesce(key >> 1, part, presorted=True)
    return key // width, key % width, R


def _exact_product(name: str, A, a_den, b_den):
    """Row k of the exact product A.B goes over a_den(k) times the lcm of the
    b_den(j) that its columns meet: A's numerators scaled for it, and the row
    denominators.  Rows (and differences) hold numerators in [0, den] ([-den,
    den]), so checked denominators keep every int64 sum in range."""
    den = _row_lcm(b_den[A[1]], A[0], name, a_den)     # a checked row is never empty
    return A[:2] + (A[2] * ((den // a_den)[_rows(A[0])] // b_den[A[1]]),), den


def _exact_factors(link, P, Q):
    """link.P - Q.link as A.B + C.E on int64 numerators, with row k of both
    products brought to the lcm D(k) of their denominators: row k of the
    link (of Q) is scaled for its product and by +D(k) (-D(k)) over the
    product's row denominator.  Returns the two pairs and D."""
    for name, op in (("link", link), ("P", P), ("Q", Q)):
        if op.arrays[2][1].dtype == object:         # a number beyond int64, as a Python int
            raise ParameterError(f"{name}: exact row denominators exceed the int64 range")
    (L, Ld), (P, Pd), (Q, Qd) = [(op.arrays[:2] + (op.arrays[2][0],), op.arrays[2][1])
                                 for op in (link, P, Q)]
    (A, d1), (C, d2) = _exact_product("link.P", L, Ld, Pd), _exact_product("Q.link", Q, Qd, Ld)
    D = _row_lcm(np.column_stack((d1, d2)).ravel(), 2 * np.arange(d1.size + 1),
                 "link.P - Q.link")
    to_D = lambda A, den, sign: A[:2] + (A[2] * (sign * (D // den))[_rows(A[0])],)
    return ((to_D(A, d1, 1), P), (to_D(C, d2, -1), L)), D


def _row_absmax(AB, CE):
    """Each row's max-abs entry of A.B + C.E, where A and C have the same
    rows, computed over blocks of consecutive rows whose terms (the entries
    of A and C times the widths of the rows of B and E they meet) number at
    most ``_ENTRIES``; a wider row is a block alone."""
    cum = sum(np.append(0, np.cumsum(np.diff(B[0])[A[1]]))[A[0]] for A, B in (AB, CE))
    absmax = np.zeros(len(cum) - 1, dtype=AB[0][2].dtype)
    lo = 0
    while lo < absmax.size:
        hi = max(lo + 1, int(np.searchsorted(cum, cum[lo] + _ENTRIES, "right")) - 1)
        rows = lambda M: (M[0][lo:hi + 1] - M[0][lo], *(x[M[0][lo]:M[0][hi]] for x in M[1:]))
        row, _, R = _product_sum(*[(rows(A), B) for A, B in (AB, CE)])
        np.maximum.at(absmax[lo:hi], row, np.abs(R))
        lo = hi
    return absmax


def _residual(link, two_dim_op, one_dim_op, arrays):
    """Max-abs entry of link.two_dim_op - one_dim_op.link: the exact Fraction
    when both operators are rational, else a float from their ``arrays``."""
    if two_dim_op.mode == one_dim_op.mode == RATIONAL:      # the link always is
        factors, D = _exact_factors(link, two_dim_op, one_dim_op)
        absmax, D = _row_absmax(*factors).tolist(), D.tolist()
        return max((Fraction(r, d) for r, d in zip(absmax, D) if r), default=Fraction(0))
    indptr, indices, data = L = _float_arrays(link)
    return float(_row_absmax((L, arrays(two_dim_op)),
                             (arrays(one_dim_op), (indptr, indices, -data))).max(initial=0.0))


def intertwining_residual(link: MarkovLink, two_dim_op, one_dim_op,
                          mode: str, tolerance: float = 1e-12) -> ResidualReport:
    """Max-abs entry of (link o two_dim_op) - (one_dim_op o link).

    ``mode`` is "stochastic" for one-step kernels or "rates" for rate
    matrices.  With a rational link and rational kernels the verdict is
    exact: both products and their difference run on int64 numerators over
    per-row denominators, and ``ParameterError`` names the operator, product
    or difference whose row denominators would leave int64.  The products are
    formed over blocks of consecutive radial rows with at most ``_ENTRIES``
    terms (a wider row is a block alone): beside a few arrays with one entry
    per link entry, the scratch is one block's, about 0.6 MB at ``_ENTRIES``.
    """
    if not 0 <= tolerance < math.inf:
        raise ParameterError("tolerance must be non-negative and finite")
    if mode == "stochastic":
        kind, identity, arrays = StochasticKernel, "link.P = Q.link", _float_arrays
    elif mode == "rates":
        kind, identity, arrays = RateMatrix, "link.Q = Qproj.link", RateMatrix.generator
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    if not isinstance(two_dim_op, kind) or not isinstance(one_dim_op, kind):
        raise ShapeError(f"{mode} mode expects {kind.__name__} operands")
    if link.n_target != two_dim_op.n_states or link.n_source != one_dim_op.n_states:
        raise ShapeError(f"link {link.n_source}x{link.n_target} does not match operators "
                         f"{one_dim_op.n_states} / {two_dim_op.n_states}")
    d = _residual(link, two_dim_op, one_dim_op, arrays)
    exact = isinstance(d, Fraction)
    return ResidualReport(identity=identity, mode=RATIONAL if exact else FLOAT,
                          size=two_dim_op.n_states, residual=float(d),
                          passed=d == 0 if exact else d <= tolerance,
                          exact_zero=d == 0 if exact else None)


def _ell(arrays, n: int, transpose: bool = False):
    """ELL table of CSR arrays, or of their transpose: (width, n) arrays of
    each row's columns, ascending, and values, padded with 0 at column 0."""
    indptr, cols, vals = arrays
    rows, cols = (cols, _rows(indptr)) if transpose else (_rows(indptr), cols)
    order = np.argsort(rows, kind="stable")         # keeps each row's columns ascending
    rows, cols, vals = rows[order], cols[order], vals[order]
    slot = np.arange(rows.size) - np.searchsorted(rows, rows)
    C, V = np.zeros((2, slot.max(initial=0) + 1, n))
    C[slot, rows], V[slot, rows] = cols, vals
    return C.astype(np.intp), V


def _ell_matmul(ell, x, y, lo: int, hi: int):
    """y[lo:hi] = (D @ x)[lo:hi] for D's ELL table, summed in scipy's order:
    from slot 0 on, each product rounded before it is added."""
    (C, V), scratch = ell, np.empty((_ROWS, x.shape[1]))
    for a in range(lo, hi, _ROWS):
        rows, tmp = slice(a, min(a + _ROWS, hi)), scratch[:hi - a]
        out = np.take(x, C[0, rows], axis=0, out=y[rows], mode="clip")
        out *= V[0, rows, None]
        for c, v in zip(C[1:, rows], V[1:, rows]):
            out += np.multiply(np.take(x, c, axis=0, out=tmp, mode="clip"), v[:, None], out=tmp)


def semigroup_residual(link: MarkovLink, two_dim_rates: RateMatrix,
                       one_dim_rates: RateMatrix, times: Sequence[float]) -> dict:
    """Check link.exp(tQ) = exp(t Qproj).link by shared-rate uniformization;
    returns {t: max-abs residual}.

    Both exponentials are Poisson mixtures, shared by all ``times``, of the
    powers of D = I + Q/lam, lam above every exit rate of either chain, cut
    where the Poisson mass left drops below 1e-14.  The radial side is a
    (K+1) x (K+1) mixture times the link; the planar side evolves ``_BLOCK``
    link rows at a time, each power only on the layers it reaches, so memory
    is linear in the nonzeros.
    """
    n1, n2 = one_dim_rates.n_states, two_dim_rates.n_states
    lam = 1.01 * max(two_dim_rates.exit_rates.max(initial=0.0),
                     one_dim_rates.exit_rates.max(initial=0.0), 1e-12)
    weights = {}
    for t in times:                 # Poisson(lam t) weights, at most 500000
        w, total, weights[t] = math.exp(-lam * t), 0.0, []
        while total < 1.0 - 1e-14 and w > 0.0 and len(weights[t]) < 500000:
            weights[t].append(w)
            total += w
            w *= lam * t / len(weights[t])
        if total < 1.0 - 1e-14:
            raise ParameterError(f"semigroup check: the Poisson weights at lam*t = "
                                 f"{lam * t:.6g} do not reach 1 - 1e-14")

    def mix(term, D, window):       # {t: sum_n w_n(t) D^n term}
        acc = dict(zip(weights, np.zeros((len(weights),) + term.shape)))
        spare = np.zeros_like(term)
        for n in range(max(map(len, weights.values()), default=0)):
            lo, hi = window(n)      # both blocks stay 0 outside the growing window
            if n:                   # the previous power becomes the spare
                _ell_matmul(D, term, spare, lo, hi)
                term, spare = spare, term
            for t, w in weights.items():
                if n < len(w):
                    acc[t][lo:hi] += np.multiply(w[n], term[lo:hi], out=spare[lo:hi])
        return acc

    def uniformized(rates):         # I + Q (1/lam), as scipy forms I + Q / lam
        indptr, cols, vals = rates.generator()
        return indptr, cols, vals * (1.0 / lam) + (_rows(indptr) == cols)

    S1 = mix(np.identity(n1), _ell(uniformized(one_dim_rates), n1), lambda n: (0, n1))
    indptr, sites, v = L = _float_arrays(link)
    D2t, Lt = _ell(uniformized(two_dim_rates), n2, True), _ell(L, n2, True)
    layers = np.zeros(n2, np.int32) if two_dim_rates.layers is None else two_dim_rates.layers
    r = int(np.abs(layers[D2t[0]] - layers)[D2t[1] != 0].max(initial=0))  # D's largest jump
    out = dict.fromkeys(weights, 0.0)
    for lo in range(0, n1, _BLOCK):
        hi = min(lo + _BLOCK, n1)
        e = slice(indptr[lo], indptr[hi])
        a, b = layers[sites[e]].min(), layers[sites[e]].max()
        term = np.zeros((n2, hi - lo))  # (L e^{tQ2})^T on the block's link rows
        term[sites[e], _rows(indptr[lo:hi + 1])] = v[e]
        # after n powers the block is 0 outside the layers a - n r .. b + n r
        planar = mix(term, D2t, lambda n: np.searchsorted(layers, [a - n * r, b + n * r + 1]))
        for t in planar:            # minus (e^{tQ1} L)^T, in the spare term
            _ell_matmul(Lt, S1[t][lo:hi].T, term, 0, n2)
            np.subtract(planar[t], term, out=term)
            out[t] = float(np.maximum(out[t], np.abs(term, out=term).max()))  # NaN stays
        del planar, term            # before the next block's blocks exist
    return out


def filter_sample(link: MarkovLink, state: int, rng: np.random.Generator):
    """Draw a planar site index from the fiber law of a radial state."""
    if not 0 <= state < link.n_source:
        raise ParameterError(f"state {state} outside the link source space")
    indptr, indices, _ = link.arrays
    lo, hi = int(indptr[state]), int(indptr[state + 1])
    # uniform fibers: an integer draw suffices and keeps the stream cheap
    return int(indices[lo + int(rng.integers(0, hi - lo))])


def harmonic_residual(one_dim_chain: StochasticKernel) -> float:
    """Residual of i -> 1/(2i+1) under the radial chain, over non-apex
    non-absorbing states.  Exact in rational mode: row i over the lcm T(i) of 2i+1 and its
    terms' reduced denominators, in int64 (``ParameterError`` if T leaves it) or Python ints."""
    Q = one_dim_chain
    keep = [i for i in np.flatnonzero(~Q.absorbing_mask()).tolist() if i > 0]
    indptr, cols, values = Q.arrays
    if Q.mode == RATIONAL:          # each kept term P(i, j) / h(j) = num / (den h) in lowest terms
        e, h = np.flatnonzero(np.isin(_rows(indptr), keep)), 2 * np.array(keep, dtype=int) + 1
        ptr = np.append(0, np.cumsum(np.diff(indptr)[keep]))    # the kept rows' CSR bounds
        g = np.gcd(nums := values[0][e], den := values[1][keep][_rows(ptr)])
        g2 = np.gcd(nums // g, hj := 2 * cols[e] + 1)   # term denominators d = den hj / (g g2)
        d = _row_lcm(hj // g2, np.arange(e.size + 1), "harmonic check", den // g)
        T = _row_lcm(np.insert(d, ptr[1:], h), ptr + np.arange(len(keep) + 1), "harmonic check")
        R = np.add.reduceat(nums // g // g2 * (T[_rows(ptr)] // d), ptr[:-1]) - T // h
        return float(max((Fraction(abs(r), t) for r, t in zip(R.tolist(), T.tolist()) if r),
                         default=0.0))
    bounds, cols, vals = indptr.tolist(), cols.tolist(), values.tolist()
    Qh = lambda i: sum(vals[e] / (2 * cols[e] + 1) for e in range(bounds[i], bounds[i + 1]))
    return float(max((abs(Qh(i) - 1.0 / (2 * i + 1)) for i in keep), default=0.0))
