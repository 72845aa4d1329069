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
from .kernels import FLOAT, RATIONAL, RateMatrix, StochasticKernel, _csr_from_rows


@dataclass
class MarkovLink:
    """Rows: for each radial state k, the uniform law on its fiber."""

    n_source: int
    n_target: int
    rows: list          # list of {target_index: weight}
    mode: str = RATIONAL

    def __post_init__(self):
        one = Fraction(1) if self.mode == RATIONAL else 1.0
        for k, row in enumerate(self.rows):
            s = sum(row.values())
            if (s != one) if self.mode == RATIONAL else abs(s - 1.0) > 1e-12:
                raise ParameterError(f"link row {k} sums to {s}")

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


def _rational_rows(op):
    return [{j: Fraction(v) for j, v in row.items()} for row in op.rows]


def _dict_matmul(A, B):
    out = []
    for arow in A:
        r = {}
        for j, a in arow.items():
            for l, b in B[j].items():
                r[l] = r.get(l, 0) + a * b
        out.append(r)
    return out


def _dict_maxdiff(A, B):
    m = 0
    for ra, rb in zip(A, B):
        for kk in set(ra) | set(rb):
            d = abs(ra.get(kk, 0) - rb.get(kk, 0))
            if d > m:
                m = d
    return m


def intertwining_residual(link: MarkovLink, two_dim_op, one_dim_op,
                          mode: str, tolerance: float = 1e-12) -> ResidualReport:
    """Max-abs entry of (link o two_dim_op) - (one_dim_op o link).

    ``mode`` is "stochastic" for one-step kernels or "rates" for rate
    matrices.  With rational operators the verdict is exact.
    """
    if mode == "stochastic":
        if not isinstance(two_dim_op, StochasticKernel) or \
           not isinstance(one_dim_op, StochasticKernel):
            raise ShapeError("stochastic mode expects StochasticKernel operands")
        if link.n_target != two_dim_op.n_states or link.n_source != one_dim_op.n_states:
            raise ShapeError(
                f"link {link.n_source}x{link.n_target} does not match operators "
                f"{one_dim_op.n_states} / {two_dim_op.n_states}")
        if two_dim_op.mode == RATIONAL and one_dim_op.mode == RATIONAL:
            LP = _dict_matmul(link.rows, _rational_rows(two_dim_op))
            QL = _dict_matmul(_rational_rows(one_dim_op), link.rows)
            d = _dict_maxdiff(LP, QL)
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
    resid = Fraction(0) if one_dim_chain.mode == RATIONAL else 0.0
    for i in range(1, one_dim_chain.n_states):
        if one_dim_chain.is_absorbing(i):
            continue
        row = one_dim_chain.rows[i]
        if one_dim_chain.mode == RATIONAL:
            tot = sum(v * Fraction(1, 2 * j + 1) for j, v in row.items())
            d = abs(tot - Fraction(1, 2 * i + 1))
        else:
            tot = sum(v / (2 * j + 1) for j, v in row.items())
            d = abs(tot - 1.0 / (2 * i + 1))
        if d > resid:
            resid = d
    return float(resid)
