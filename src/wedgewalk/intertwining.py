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
from .geometry import VaseGrid, WedgeLattice, site_index
from .kernels import (FLOAT, RATIONAL, RateMatrix, StochasticKernel,
                      _check_stochastic, _csr_from_rows, _row_arrays)

_INT64_MAX = 2 ** 63 - 1


@dataclass
class MarkovLink:
    """Rows: for each radial state k, the uniform law on its fiber."""

    n_source: int
    n_target: int
    rows: list          # list of {target_index: weight}
    mode: str = RATIONAL

    def __post_init__(self):
        _check_stochastic(self.rows, self.mode, what="link row")

    def to_csr(self):
        return _csr_from_rows(self.rows, self.n_target)


def build_link(space) -> MarkovLink:
    """Uniform fiber link for a wedge lattice, a vase grid, or a layer count."""
    if isinstance(space, (WedgeLattice, VaseGrid)):
        K = space.spec.layers if isinstance(space, WedgeLattice) else space.layers
    else:
        K = int(space)
    rows = []
    for k in range(K + 1):
        w = Fraction(1, 2 * k + 1)
        rows.append({site_index(k, y): w for y in range(-k, k + 1)})
    return MarkovLink(n_source=K + 1, n_target=(K + 1) ** 2, rows=rows)


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


def _int64_csr(name, data, indices, indptr, shape):
    import scipy.sparse as sp

    if max(map(abs, data), default=0) > _INT64_MAX:
        raise ParameterError(f"{name}: exact numerators exceed the int64 range")
    return sp.csr_matrix((np.array(data, dtype=np.int64), indices, indptr),
                         shape=shape)


def _row_absmax(M) -> list:
    return abs(M).max(axis=1).toarray().ravel().tolist()


def _exact(name: str, rows, n_cols: int):
    """Rational dict rows as an exact matrix ``(name, num, den)``: int64 CSR
    numerators over one Python-int denominator per row.  ``name`` labels
    overflow errors."""
    indptr, indices, (nums, den) = _row_arrays(rows, exact=True)
    return name, _int64_csr(name, nums, indices, indptr, (len(rows), n_cols)), den


def _exact_matmul(A, B):
    """Exact A @ B as one int64 product.  B's row denominators move into
    A's rows: row k goes over den_A(k) times the lcm of the den_B(j) it
    meets.  Each output entry is bounded, in Python ints, by its row's sum
    of |a| times the largest |b| in the B row that a multiplies."""
    (a_name, NA, a_den), (b_name, NB, b_den) = A, B
    name = f"{a_name}.{b_name}"
    bounds, cols, vals = NA.indptr.tolist(), NA.indices.tolist(), NA.data.tolist()
    bmax = _row_absmax(NB)
    nums, den = [], []
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        m = math.lcm(*[b_den[j] for j in cols[lo:hi]])
        row = [a * (m // b_den[j]) for a, j in zip(vals[lo:hi], cols[lo:hi])]
        if sum(abs(a) * bmax[j] for a, j in zip(row, cols[lo:hi])) > _INT64_MAX:
            raise ParameterError(f"{name}: exact product exceeds the int64 range")
        nums += row
        den.append(a_den[k] * m)
    return name, _int64_csr(name, nums, NA.indices, NA.indptr, NA.shape) @ NB, den


def _exact_maxdiff(A, B) -> Fraction:
    """Exact max-abs entry of A - B: each pair of rows is cross-multiplied
    to the lcm of their denominators and subtracted in int64."""
    import scipy.sparse as sp

    (a_name, NA, a_den), (b_name, NB, b_den) = A, B
    D = [math.lcm(a, b) for a, b in zip(a_den, b_den)]
    sa = [d // a for d, a in zip(D, a_den)]
    sb = [d // b for d, b in zip(D, b_den)]
    if any(max(x * s + y * t, s, t) > _INT64_MAX for x, s, y, t
           in zip(_row_absmax(NA), sa, _row_absmax(NB), sb)):
        raise ParameterError(
            f"{a_name} - {b_name}: exact difference exceeds the int64 range")
    R = sp.diags(sa, dtype=np.int64) @ NA - sp.diags(sb, dtype=np.int64) @ NB
    return max((Fraction(r, d) for r, d in zip(_row_absmax(R), D) if r),
               default=Fraction(0))


def intertwining_residual(link: MarkovLink, two_dim_op, one_dim_op,
                          mode: str, tolerance: float = 1e-12) -> ResidualReport:
    """Max-abs entry of (link o two_dim_op) - (one_dim_op o link).

    ``mode`` is "stochastic" for one-step kernels or "rates" for rate
    matrices.  With a rational link and rational kernels the verdict is
    exact: both products and their difference run on int64 numerators over
    per-row denominators, and ``ParameterError`` names the operator whose
    numbers would leave the int64 range.
    """
    if mode == "stochastic":
        if not isinstance(two_dim_op, StochasticKernel) or \
           not isinstance(one_dim_op, StochasticKernel):
            raise ShapeError("stochastic mode expects StochasticKernel operands")
        if link.n_target != two_dim_op.n_states or link.n_source != one_dim_op.n_states:
            raise ShapeError(
                f"link {link.n_source}x{link.n_target} does not match operators "
                f"{one_dim_op.n_states} / {two_dim_op.n_states}")
        if link.mode == two_dim_op.mode == one_dim_op.mode == RATIONAL:
            L = _exact("link", link.rows, link.n_target)
            P = _exact("P", two_dim_op.rows, two_dim_op.n_states)
            Q = _exact("Q", one_dim_op.rows, one_dim_op.n_states)
            d = _exact_maxdiff(_exact_matmul(L, P), _exact_matmul(Q, L))
            return ResidualReport(identity="link.P = Q.link", mode=RATIONAL,
                                  size=two_dim_op.n_states, residual=float(d),
                                  passed=(d == 0), exact_zero=(d == 0))
        identity = "link.P = Q.link"
    elif mode == "rates":
        if not isinstance(two_dim_op, RateMatrix) or not isinstance(one_dim_op, RateMatrix):
            raise ShapeError("rates mode expects RateMatrix operands")
        if link.n_target != two_dim_op.n_states or link.n_source != one_dim_op.n_states:
            raise ShapeError("link shape does not match rate matrices")
        identity = "link.Q = Qproj.link"
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    L = link.to_csr()
    R = L @ two_dim_op.to_csr() - one_dim_op.to_csr() @ L
    resid = float(abs(R).max())
    return ResidualReport(identity=identity, mode=FLOAT,
                          size=two_dim_op.n_states, residual=resid,
                          passed=resid <= tolerance)


def semigroup_residual(link: MarkovLink, two_dim_rates: RateMatrix,
                       one_dim_rates: RateMatrix, times: Sequence[float],
                       tail: float = 1e-14) -> dict:
    """Check link.exp(tQ) = exp(t Qproj).link by shared-rate uniformization.

    Both exponentials are evaluated as Poisson mixtures of powers of the
    sparse stochastic kernels I + Q/lam, with one rate lam above every exit
    rate of either chain, truncated when the remaining Poisson mass drops
    below ``tail``.  Returns {t: max-abs residual}.
    """
    import scipy.sparse as sp

    lam = 1.01 * max(
        max((sum(r.values()) for r in two_dim_rates.off_rows), default=0.0),
        max((sum(r.values()) for r in one_dim_rates.off_rows), default=0.0),
        1e-12)
    D2 = sp.identity(two_dim_rates.n_states, format="csr") + two_dim_rates.to_csr() / lam
    D1 = sp.identity(one_dim_rates.n_states, format="csr") + one_dim_rates.to_csr() / lam
    L = link.to_csr().toarray()     # (K+1) x (K+1)^2, as are the accumulators
    out = {}
    for t in times:
        w = math.exp(-lam * t)
        acc2 = np.zeros_like(L)
        acc1 = np.zeros_like(L)
        term2 = L.copy()
        term1 = L.copy()
        total = 0.0
        n = 0
        while total < 1.0 - tail and n < 500000:
            acc2 += w * term2
            acc1 += w * term1
            total += w
            n += 1
            w *= lam * t / n
            term2 = term2 @ D2
            term1 = D1 @ term1
        out[t] = float(np.abs(acc2 - acc1).max())
    return out


def filter_sample(link: MarkovLink, state: int, rng: np.random.Generator):
    """Draw a planar site index from the fiber law of a radial state."""
    if not 0 <= state < link.n_source:
        raise ParameterError(f"state {state} outside the link source space")
    row = link.rows[state]
    targets = sorted(row)
    # uniform fibers: an integer draw suffices and keeps the stream cheap
    return targets[int(rng.integers(0, len(targets)))]


def harmonic_residual(one_dim_chain: StochasticKernel) -> float:
    """Residual of i -> 1/(2i+1) under the radial chain, over non-apex
    non-absorbing states.  Exact zero in rational mode."""
    Q = one_dim_chain
    keep = [i for i in range(1, Q.n_states) if not Q.is_absorbing(i)]
    if Q.mode == RATIONAL:
        h = [{0: Fraction(1, 2 * j + 1)} for j in range(Q.n_states)]
        Qh = _exact_matmul(_exact("Q", [Q.rows[i] for i in keep], Q.n_states),
                           _exact("h", h, 1))
        return float(_exact_maxdiff(Qh, _exact("h", [h[i] for i in keep], 1)))
    return max((abs(sum(v / (2 * j + 1) for j, v in Q.rows[i].items())
                    - 1.0 / (2 * i + 1)) for i in keep), default=0.0)
