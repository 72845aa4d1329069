"""Operators from dict rows, for the tests.

A dict row maps a column to its value.  The helpers here convert such rows
to the CSR arrays that ``wedgewalk`` keeps, read a row's mean step, and write
the Green CSV file one entry at a time.  They are the independent side of
the checks on the array builders, the exact solvers and the file writer.
"""

import csv
import math

import numpy as np

from wedgewalk import MarkovLink, RateMatrix, StochasticKernel


def row_arrays(rows, exact: bool = False):
    """CSR arrays ``(indptr, indices, values)`` of dict rows ``{column:
    value}``, columns sorted within each row.  ``values`` is a float array,
    or with ``exact`` a pair of Python-int lists ``(numerators, dens)``: row
    i's numerators over ``dens[i]``, the lcm of its denominators."""
    n = len(rows)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.fromiter((j for r in rows for j in r), dtype=np.int64, count=nnz)
    order = np.lexsort((indices, np.repeat(np.arange(n), np.diff(indptr))))
    if not exact:
        data = np.fromiter((float(v) for r in rows for v in r.values()),
                           dtype=float, count=nnz)
        return indptr, indices[order], data[order]
    dens = [math.lcm(*[v.denominator for v in r.values()]) for r in rows]
    nums = [v.numerator * (d // v.denominator)
            for r, d in zip(rows, dens) for v in r.values()]
    return indptr, indices[order], ([nums[e] for e in order.tolist()], dens)


def kernel_from_rows(rows, mode, layers=None, y=None) -> StochasticKernel:
    """The kernel of dict ``rows``, which it keeps as its ``rows`` view."""
    K = StochasticKernel(row_arrays(rows, exact=mode == "rational"), mode=mode,
                         layers=layers, y=y)
    K.rows = rows
    return K


def rates_from_rows(rows, exit_rates=None) -> RateMatrix:
    """The rate matrix of dict off-diagonal ``rows``, which it keeps as its
    ``rows`` view.  The exit rates default to each row's rates summed in
    dict order."""
    if exit_rates is None:
        exit_rates = [sum(r.values()) for r in rows]
    Q = RateMatrix(row_arrays(rows), exit_rates=exit_rates)
    Q.rows = rows
    return Q


def link_from_rows(n_source, n_target, rows) -> MarkovLink:
    return MarkovLink(n_source, n_target, arrays=row_arrays(rows, exact=True))


def layer_sites(N):
    """The sites (k, y), 0 <= k <= N, |y| <= k, layer by layer."""
    return [(k, y) for k in range(N + 1) for y in range(-k, k + 1)]


def row_displacement(op, i):
    """Mean step (sum p dk, sum p dy) of row i of a planar operator, from
    its dict ``rows`` view: exact in rational mode.  The wedge embedding puts
    (k, y) at k cos(a) + i y sin(a), so the physical mean step is
    (dk cos(a), dy sin(a))."""
    return tuple(sum(p * int(a[j] - a[i]) for j, p in op.rows[i].items())
                 for a in (op.layers, op.y))


def green_csv_reference(green, labels, path) -> None:
    """``GreenVector.to_csv`` one state at a time; ``labels`` names each
    state as a site (k, y) or, on a radial chain, as its index."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["layer", "transverse", "visits"])
        for s, v in zip(labels, green.visits):
            if isinstance(s, tuple):
                w.writerow([s[0], s[1], float(v)])
            else:
                w.writerow([s, "", float(v)])
