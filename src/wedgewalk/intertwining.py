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
from .kernels import (FLOAT, RATIONAL, RateMatrix, StochasticKernel,
                      _CSROperator, _csr, _entry_values, _float_arrays)

_INT64_MAX = 2 ** 63 - 1
_BLOCK = 16     # link rows evolved together; a few (K+1)^2 x _BLOCK arrays


class MarkovLink(_CSROperator):
    """Rows: for each radial state k, the uniform law on its fiber."""

    what, mode = "link row", RATIONAL

    def __init__(self, n_source, n_target, *, arrays):
        self.n_source, self.n_target = n_source, n_target
        self.arrays = self.check(arrays, self.mode, self.what)

    def to_csr(self):
        return _csr(_float_arrays(self), self.n_target)


def build_link(space) -> MarkovLink:
    """Uniform fiber link for a wedge lattice, a vase grid, or a layer count."""
    K = int(space.layer[-1]) if isinstance(space, (WedgeLattice, VaseGrid)) else int(space)
    # layer k's fiber is the sites k^2 .. k^2 + 2k in layer-major order
    indptr = np.arange(K + 2, dtype=np.int64) ** 2
    nums = [1] * (K + 1) ** 2
    dens = list(range(1, 2 * K + 2, 2))
    return MarkovLink(n_source=K + 1, n_target=(K + 1) ** 2,
                      arrays=(indptr, np.arange(len(nums), dtype=np.int64), (nums, dens)))


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


def _int64_dens(name: str, dens: list) -> list:
    """``dens``, if each fits in int64.  Checked rows hold numerators in
    [0, den], and so do their products and, within [-den, den], their
    differences at the lcm of two row denominators: if the denominators fit,
    every int64 numerator and partial sum does.  ``name`` labels the error."""
    if max(dens, default=0) > _INT64_MAX:
        raise ParameterError(f"{name}: exact row denominators exceed the int64 range")
    return dens


def _exact(name: str, arrays, n_cols: int):
    """Exact CSR arrays of a checked operator as an exact matrix ``(name,
    num, den)``: int64 CSR numerators over one Python-int denominator per
    row."""
    indptr, indices, (nums, den) = arrays
    _int64_dens(name, den)
    return name, _csr((indptr, indices, np.array(nums, dtype=np.int64)), n_cols), den


def _exact_matmul(A, B):
    """Exact A @ B as one int64 product.  B's row denominators move into
    A's rows: row k goes over den_A(k) times the lcm of the den_B(j) it
    meets."""
    (a_name, NA, a_den), (b_name, NB, b_den) = A, B
    name = f"{a_name}.{b_name}"
    bounds, cols = NA.indptr.tolist(), NA.indices.tolist()
    scale, den = [], []
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        m = math.lcm(*[b_den[j] for j in cols[lo:hi]])
        scale += [m // b_den[j] for j in cols[lo:hi]]
        den.append(a_den[k] * m)
    _int64_dens(name, den)
    NA = _csr((NA.indptr, NA.indices, NA.data * np.array(scale, dtype=np.int64)), NA.shape[1])
    return name, NA @ NB, den


def _exact_maxdiff(A, B) -> Fraction:
    """Exact max-abs entry of A - B: each pair of rows is cross-multiplied
    to the lcm of their denominators and subtracted in int64."""
    import scipy.sparse as sp

    (a_name, NA, a_den), (b_name, NB, b_den) = A, B
    D = _int64_dens(f"{a_name} - {b_name}", list(map(math.lcm, a_den, b_den)))
    R = (sp.diags([d // a for d, a in zip(D, a_den)], dtype=np.int64) @ NA
         - sp.diags([d // b for d, b in zip(D, b_den)], dtype=np.int64) @ NB)
    absmax = abs(R).max(axis=1).toarray().ravel().tolist()
    return max((Fraction(r, d) for r, d in zip(absmax, D) if r), default=Fraction(0))


def intertwining_residual(link: MarkovLink, two_dim_op, one_dim_op,
                          mode: str, tolerance: float = 1e-12) -> ResidualReport:
    """Max-abs entry of (link o two_dim_op) - (one_dim_op o link).

    ``mode`` is "stochastic" for one-step kernels or "rates" for rate
    matrices.  With a rational link and rational kernels the verdict is
    exact: both products and their difference run on int64 numerators over
    per-row denominators, and ``ParameterError`` names the operator whose
    row denominators would leave the int64 range.
    """
    if not 0 <= tolerance < math.inf:
        raise ParameterError("tolerance must be non-negative and finite")
    if mode == "stochastic":
        if not isinstance(two_dim_op, StochasticKernel) or \
           not isinstance(one_dim_op, StochasticKernel):
            raise ShapeError("stochastic mode expects StochasticKernel operands")
        if link.n_target != two_dim_op.n_states or link.n_source != one_dim_op.n_states:
            raise ShapeError(
                f"link {link.n_source}x{link.n_target} does not match operators "
                f"{one_dim_op.n_states} / {two_dim_op.n_states}")
        if two_dim_op.mode == one_dim_op.mode == RATIONAL:       # the link is rational
            L = _exact("link", link.arrays, link.n_target)
            P = _exact("P", two_dim_op.arrays, two_dim_op.n_states)
            Q = _exact("Q", one_dim_op.arrays, one_dim_op.n_states)
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
                       one_dim_rates: RateMatrix, times: Sequence[float]) -> dict:
    """Check link.exp(tQ) = exp(t Qproj).link by shared-rate uniformization;
    returns {t: max-abs residual}.

    Both exponentials are Poisson mixtures, shared by all ``times``, of the
    powers of D = I + Q/lam, lam above every exit rate of either chain, cut
    where the Poisson mass left drops below 1e-14.  The radial side is a
    (K+1) x (K+1) mixture times the link; the planar side evolves ``_BLOCK``
    link rows at a time, so memory is linear in the nonzeros.
    """
    import scipy.sparse as sp

    n1, n2 = one_dim_rates.n_states, two_dim_rates.n_states
    lam = 1.01 * max(two_dim_rates.exit_rates.max(initial=0.0),
                     one_dim_rates.exit_rates.max(initial=0.0), 1e-12)
    D2t = (sp.identity(n2, format="csr") + two_dim_rates.to_csr() / lam).T.tocsr()
    D1 = sp.identity(n1, format="csr") + one_dim_rates.to_csr() / lam
    weights = {}
    for t in times:                 # Poisson(lam t) weights, at most 500000
        w, total, weights[t] = math.exp(-lam * t), 0.0, []
        while total < 1.0 - 1e-14 and len(weights[t]) < 500000:
            weights[t].append(w)
            total += w
            w *= lam * t / len(weights[t])

    def mix(term, D):               # {t: sum_n w_n(t) D^n term}, and a spare block
        acc = {t: np.zeros_like(term) for t in weights}
        spare = np.empty_like(term)
        for n in range(max(map(len, weights.values()), default=0)):
            if n:                   # the spare is freed for the product, and
                spare = None        # the previous power becomes the spare
                term, spare = D @ term, term
            for t, w in weights.items():
                if n < len(w):
                    acc[t] += np.multiply(w[n], term, out=spare)
        return acc, spare

    S1 = mix(np.identity(n1), D1)[0]
    Lt = link.to_csr().T.tocsr()
    out = dict.fromkeys(weights, 0.0)
    for lo in range(0, n1, _BLOCK):
        # (L e^{tQ2})^T and (e^{tQ1} L)^T on the block's link rows
        planar, spare = mix(Lt[:, lo:lo + _BLOCK].toarray(), D2t)
        for t in planar:
            planar[t] -= Lt @ S1[t][lo:lo + _BLOCK].T
            out[t] = float(np.maximum(out[t], np.abs(planar[t], out=spare).max()))  # NaN stays
        del planar, spare           # before the next block's blocks exist
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
    non-absorbing states.  Exact zero in rational mode."""
    Q = one_dim_chain
    keep = [i for i in np.flatnonzero(~Q.absorbing_mask()).tolist() if i > 0]
    bounds, cols = Q.arrays[0].tolist(), Q.arrays[1].tolist()
    vals, one = _entry_values(Q), Fraction(1) if Q.mode == RATIONAL else 1.0
    Qh = lambda i: sum(vals[e] / (2 * cols[e] + 1) for e in range(bounds[i], bounds[i + 1]))
    return float(max((abs(Qh(i) - one / (2 * i + 1)) for i in keep), default=0.0))
