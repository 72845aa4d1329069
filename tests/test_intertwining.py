import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wedgewalk import (
    ParameterError,
    RateMatrix,
    ShapeError,
    StochasticKernel,
    WedgeSpec,
    build_link,
    build_vase_grid,
    build_wedge_lattice,
    filter_sample,
    harmonic_residual,
    intertwining_residual,
    linear_shape,
    power_shape,
    projected_vase_rates,
    projected_wedge_chain,
    semigroup_residual,
    vase_rate_matrix,
    wedge_kernel,
)
from wedgewalk.geometry import site_index
from wedgewalk.kernels import _csr, _float_arrays, _layer_rates

from rows_reference import (kernel_from_rows, layer_sites, link_from_rows, rates_from_rows,
                            row_arrays)


def wedge_ops(alpha, n, mode="auto"):
    spec = WedgeSpec(alpha=alpha, layers=n)
    lat = build_wedge_lattice(spec)
    P = wedge_kernel(lat, spec, mode=mode)
    Q = projected_wedge_chain(n, alpha, mode=mode)
    return lat, P, Q, build_link(lat)


def test_link_rows():
    link = build_link(3)
    assert link.rows[0] == {site_index(0, 0): F(1)}
    assert link.rows[2] == {site_index(2, y): F(1, 5) for y in range(-2, 3)}
    for row in link.rows:
        assert sum(row.values()) == 1


def test_link_arrays_match_the_dict_row_reference():
    for K in (2, 5, 30):
        link = build_link(K)
        want = [{site_index(k, y): F(1, 2 * k + 1) for y in range(-k, k + 1)}
                for k in range(K + 1)]
        (ip, ix, exact), (wip, wix, wexact) = link.arrays, row_arrays(want, exact=True)
        assert np.array_equal(ip, wip) and np.array_equal(ix, wix)
        for part, ints in zip(exact, wexact):   # int64 arrays of the reference's ints
            assert part.dtype == np.int64 and part.tolist() == ints
        # the float form divides the exact arrays; the dict view is not built
        assert np.array_equal(_csr(_float_arrays(link), link.n_target).toarray(),
                              dense_rows(want, link.n_target))
        assert "rows" not in vars(link)


@pytest.mark.parametrize("alpha", [math.pi / 6, math.pi / 4, math.pi / 3])
def test_wedge_identity_exact(alpha):
    lat, P, Q, link = wedge_ops(alpha, 25)
    rep = intertwining_residual(link, P, Q, mode="stochastic")
    assert rep.exact_zero and rep.residual == 0.0


def _times(A, B):
    """Product of two lists of dict rows, Fractions kept exact."""
    out = []
    for row in A:
        acc = {}
        for i, a in row.items():
            for j, b in B[i].items():
                acc[j] = acc.get(j, 0) + a * b
        out.append(dict(sorted(acc.items())))
    return out


def test_wedge_identity_powers():
    # one-step exactness propagates; assert n = 2 and 3 directly, on the
    # powers of both kernels formed as Fraction rows
    lat, P, Q, link = wedge_ops(math.pi / 4, 8)
    Pn, Qn = P.rows, Q.rows
    for n in range(2, 4):
        Pn, Qn = _times(Pn, P.rows), _times(Qn, Q.rows)
        rep = intertwining_residual(link, kernel_from_rows(Pn, "rational"),
                                    kernel_from_rows(Qn, "rational"), mode="stochastic")
        assert rep.exact_zero and rep.residual == 0.0


def _perturbed_wedge_kernel():
    # moving eps of mass between two targets of one row at layer 2 shifts
    # link.P by eps/5 in that fiber's row and leaves Q.link alone
    N, eps = 100, F(1, 10 ** 6)
    lat, P, Q, link = wedge_ops(math.pi / 6, N)
    rows = [dict(r) for r in P.rows]
    row = rows[lat.index(2, 0)]
    row[lat.index(2, 1)] -= eps
    row[lat.index(2, -1)] += eps
    return link, kernel_from_rows(rows, P.mode), Q


def test_perturbed_kernel_residual_is_the_exact_fraction():
    from wedgewalk.intertwining import _residual

    link, Pe, Q = _perturbed_wedge_kernel()
    assert _residual(link, Pe, Q, None) == F(1, 5000000)
    rep = intertwining_residual(link, Pe, Q, mode="stochastic")
    assert rep.residual == float(F(1, 5000000))
    assert rep.exact_zero is False and rep.passed is False


def _int64_cases():
    """Exact checks at the edge of int64, each with the start of its
    ``ParameterError`` text or, where the numbers fit, its residual."""
    # one fiber of two sites; the planar kernel's first row has a
    # denominator above 2^63, outside the int64 range
    big = 2 ** 63 + 1
    link = link_from_rows(1, 2, [{0: F(1, 2), 1: F(1, 2)}])
    Q = kernel_from_rows([{0: F(1)}], "rational")
    P = kernel_from_rows([{0: F(1, big), 1: F(big - 1, big)}, {1: F(1)}], "rational")
    yield link, P, Q, r"^P: exact row denominators"
    # every input denominator fits, but the lcm of two coprime 40-bit
    # denominators that one link row meets makes the product's denominator
    # overflow
    d1, d2 = 2 ** 40 + 1, 2 ** 40 - 1
    P = kernel_from_rows([{0: F(1, d1), 1: F(d1 - 1, d1)},
                          {0: F(1, d2), 1: F(d2 - 1, d2)}], "rational")
    yield link, P, Q, r"^link\.P: exact row denominators"
    # link.P's row goes over 2 (2^62 - 1) and Q.link's over 2; their lcm
    # fits, so the difference is computed exactly
    d = 2 ** 62 - 1
    P = kernel_from_rows([{0: F(1, d), 1: F(d - 1, d)}] * 2, "rational")
    yield link, P, Q, float(F(1, 2) - F(1, d))
    # both products fit, over the prime 2^61 - 1 and over 2 (2^61 + 1), but
    # the lcm of the two in radial row 0 does not
    p, q = 2 ** 61 - 1, 2 ** 61 + 1
    link = link_from_rows(2, 3, [{0: F(1)}, {1: F(1, 2), 2: F(1, 2)}])
    Q = kernel_from_rows([{0: F(1, q), 1: F(q - 1, q)}, {1: F(1)}], "rational")
    P = kernel_from_rows([{0: F(1, p), 1: F(p - 1, p)}, {1: F(1)}, {2: F(1)}], "rational")
    yield link, P, Q, r"^link\.P - Q\.link: exact row denominators"
    # the largest int64 denominator is kept: a fiber of one site meets it
    d = 2 ** 63 - 1
    link = link_from_rows(1, 2, [{0: F(1)}])
    Q = kernel_from_rows([{0: F(1)}], "rational")
    P = kernel_from_rows([{0: F(d - 1, d), 1: F(1, d)}, {1: F(1)}], "rational")
    yield link, P, Q, float(F(1, d))
    # a radial chain or a link with a denominator above 2^63 is built, and
    # refused by the check under its own name
    link = link_from_rows(2, 2, [{0: F(1)}, {1: F(1)}])
    P = kernel_from_rows([{0: F(1, 2), 1: F(1, 2)}, {1: F(1)}], "rational")
    Q = kernel_from_rows([{0: F(1, big), 1: F(big - 1, big)}, {1: F(1)}], "rational")
    yield link, P, Q, r"^Q: exact row denominators"
    link = link_from_rows(1, 2, [{0: F(1, big), 1: F(big - 1, big)}])
    yield link, P, kernel_from_rows([{0: F(1)}], "rational"), r"^link: exact row denominators"


def test_exact_check_refuses_numbers_beyond_int64():
    for link, P, Q, want in _int64_cases():
        if isinstance(want, str):
            with pytest.raises(ParameterError, match=want):
                intertwining_residual(link, P, Q, mode="stochastic")
            continue
        rep = intertwining_residual(link, P, Q, mode="stochastic")
        assert rep.residual == want and rep.passed is False


@pytest.mark.parametrize("bound", [1, 100, 10 ** 9])
def test_residual_blocks_change_no_report(bound, monkeypatch):
    # one radial row per block, a few rows, or the whole product in one
    # block gives the default blocks' report: floats to the bit, the exact
    # residual as the same Fraction, and the same refusals
    from wedgewalk import intertwining

    lat, P, Q, link = wedge_ops(math.pi / 6, 40, mode="float")
    grid = build_vase_grid("power:2", 16, 16)
    cases = [(link, P, Q, "stochastic"),
             (build_link(grid), vase_rate_matrix(grid), projected_vase_rates(grid), "rates")]
    want = [intertwining_residual(*case) for case in cases]
    exact = _perturbed_wedge_kernel()
    monkeypatch.setattr(intertwining, "_ENTRIES", bound)
    for case, rep in zip(cases, want):
        got = intertwining_residual(*case)
        assert got == rep and got.residual.hex() == rep.residual.hex()
    assert intertwining._residual(*exact, None) == F(1, 5000000)
    test_exact_check_refuses_numbers_beyond_int64()
    # every row's max, where the plain rates leave a defect in most rows, is
    # the one of scipy's products, so no block drops or repeats a row
    L, G2 = _float_arrays(build_link(grid)), vase_rate_matrix(grid, exact_projection=False)
    G2, G1, n1, n2 = G2.generator(), projected_vase_rates(grid).generator(), 17, 17 ** 2
    got = intertwining._row_absmax((L, G2), (G1, _negated(L)))
    R = _csr(L, n2) @ _csr(G2, n2) - _csr(G1, n1) @ _csr(L, n2)
    assert np.count_nonzero(got) > 10 and np.array_equal(got, abs(R).max(axis=1).toarray().ravel())


@st.composite
def _rational_rows(draw, n_rows, n_cols):
    """``n_rows`` random exact probability rows over ``n_cols`` columns,
    each over a denominator up to 2^62 before reduction; stored entries may
    be zero."""
    rows = []
    for _ in range(n_rows):
        cols = draw(st.lists(st.integers(0, n_cols - 1), min_size=1, max_size=n_cols,
                             unique=True))
        d = draw(st.one_of(st.integers(1, 12), st.integers(1, 2 ** 62)))
        cuts = sorted(draw(st.lists(st.integers(0, d), min_size=len(cols) - 1,
                                    max_size=len(cols) - 1)))
        nums = [b - a for a, b in zip([0] + cuts, cuts + [d])]
        rows.append({j: F(x, d) for j, x in zip(sorted(cols), nums)})
    return rows


@st.composite
def _rational_triples(draw):
    n1, n2 = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    return (draw(_rational_rows(n1, n2)), draw(_rational_rows(n2, n2)),
            draw(_rational_rows(n1, n1)))


def _row_den(row):
    return math.lcm(*[v.denominator for v in row.values()])


@settings(max_examples=150, deadline=None)
@given(_rational_triples())
def test_exact_residual_matches_fractions_or_refuses_only_beyond_int64(triple):
    # the exact residual equals the one computed on Fraction rows, and the
    # check refuses exactly where an input row, a product row or a
    # difference row has a denominator beyond int64
    link_rows, p_rows, q_rows = triple
    link = link_from_rows(len(q_rows), len(p_rows), link_rows)
    P, Q = kernel_from_rows(p_rows, "rational"), kernel_from_rows(q_rows, "rational")
    times = lambda A, B: [{j: sum(a * B[i].get(j, 0) for i, a in r.items())
                           for j in range(len(p_rows))} for r in A]
    LP, QL = times(link_rows, p_rows), times(q_rows, link_rows)
    want = max(abs(x[j] - y[j]) for x, y in zip(LP, QL) for j in x)
    # the row denominators the check works with: stored entries count
    dens = lambda rows: [_row_den(r) for r in rows]
    over = lambda A, B: [_row_den(r) * math.lcm(*[_row_den(B[i]) for i in r]) for r in A]
    used = dens(link_rows) + dens(p_rows) + dens(q_rows) + over(link_rows, p_rows) \
        + over(q_rows, link_rows) + list(map(math.lcm, over(link_rows, p_rows),
                                             over(q_rows, link_rows)))
    try:
        rep = intertwining_residual(link, P, Q, mode="stochastic")
    except ParameterError:
        assert max(used) > 2 ** 63 - 1
        return
    assert max(used) <= 2 ** 63 - 1
    assert rep.residual == float(want) and rep.exact_zero == (want == 0)


@st.composite
def _csr_operands(draw):
    """Two CSR operands A (m x n) and B (n x w) and a third C of A's shape,
    int64 or float, as the operators keep them: columns ascending in each
    row.  Rows may be empty, so may a whole operand, and the column count w
    may exceed every stored index."""
    dtype = draw(st.sampled_from([np.int64, np.float64]))
    values = (st.integers(-2 ** 20, 2 ** 20) if dtype is np.int64 else
              st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))

    def operand(n_rows, n_cols, max_col):
        cols = [sorted(draw(st.sets(st.integers(0, max_col), max_size=max_col + 1)))
                for _ in range(n_rows)]
        data = draw(st.lists(values, min_size=sum(map(len, cols)),
                             max_size=sum(map(len, cols))))
        return (np.array([0] + [len(c) for c in cols], dtype=np.int64).cumsum(),
                np.array([j for c in cols for j in c], dtype=np.int64),
                np.array(data, dtype=dtype)), n_cols

    m, n, w = draw(st.integers(0, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 8))
    used = draw(st.integers(0, w - 1))
    return operand(m, n, n - 1), operand(n, w, used), operand(m, w, used)


def _dense(arrays, n_cols):
    import scipy.sparse as sp

    indptr, indices, data = arrays
    assert indptr[0] == 0 and indptr[-1] == indices.size == data.size
    for lo, hi in zip(indptr[:-1], indptr[1:]):         # coalesced: columns ascend
        assert np.all(np.diff(indices[lo:hi]) > 0)
    return sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, n_cols)).toarray()


def _negated(arrays):
    return arrays[0], arrays[1], -arrays[2]


def _arrays(indptr, indices, data):
    return np.array(indptr), np.array(indices, dtype=np.int64), np.array(data, dtype=float)


@settings(max_examples=300, deadline=None)
@given(_csr_operands())
# A without entries; B with an empty row and columns past its one index
@example(((_arrays([0, 0, 0], [], []), 2), (_arrays([0, 1, 1], [1], [2.5]), 4),
          (_arrays([0, 0, 0], [], []), 4)))
@example(((_arrays([0, 2, 2], [0, 1], [0.1, 0.7]), 2), (_arrays([0, 1, 1], [0], [1.0]), 9),
          (_arrays([0, 1, 1], [8], [-3.0]), 9)))
def test_numpy_csr_product_and_difference_are_scipys(operands):
    # the residual's numpy helper gives scipy.sparse's products and their
    # sum: equal in int64 and the same bits in float, since each sum runs in
    # scipy's order; C times the identity is C, so C + A.B and C - A.B are
    # checked too
    import scipy.sparse as sp

    from wedgewalk.intertwining import _product_sum

    (A, n), (B, w), (C, _) = operands
    m = len(A[0]) - 1
    sA, sB, sC = (sp.csr_matrix((x[2], x[1], x[0]), shape=shape)
                  for x, shape in ((A, (m, n)), (B, (n, w)), (C, (m, w))))
    eye = (np.arange(w + 1), np.arange(w), np.ones(w, dtype=A[2].dtype))
    for (AB, CE), want in ((((A, B), (C, eye)), sA @ sB + sC),
                           (((C, eye), (_negated(A), B)), sC - sA @ sB),
                           (((A, B), (_negated(C), eye)), sA @ sB - sC),
                           (((A, B), (A, B)), sA @ sB + sA @ sB)):
        rows, cols, vals = _product_sum(AB, CE)
        assert np.all(np.diff(rows * w + cols) > 0)      # coalesced, row-major
        got = _dense((np.searchsorted(rows, np.arange(m + 1)), cols, vals), w)
        assert got.dtype == A[2].dtype and np.array_equal(got, want.toarray())


@pytest.mark.parametrize("alpha", [0.4, 0.7853981, 1.3])
def test_wedge_identity_float(alpha):
    lat, P, Q, link = wedge_ops(alpha, 20, mode="float")
    rep = intertwining_residual(link, P, Q, mode="stochastic")
    assert rep.residual <= 1e-12


def test_vase_identity_float():
    grid = build_vase_grid("power:2", 16, 16)
    link = build_link(grid)
    rep = intertwining_residual(link, vase_rate_matrix(grid),
                                projected_vase_rates(grid), mode="rates")
    assert rep.residual <= 1e-12


def test_vase_identity_defect_of_plain_rates():
    # with unskewed vertical rates the identity fails only on own-fiber
    # entries, by (2k-1)(c_k-d_k)/(2k+1)^2 at the boundary sites and
    # 2(c_k-d_k)/(2k+1)^2 at interior sites
    grid = build_vase_grid(power_shape(2.0), 8, 8)
    link = build_link(grid)
    Q2 = vase_rate_matrix(grid, exact_projection=False)
    Q1 = projected_vase_rates(grid)
    L = _csr(_float_arrays(link), link.n_target)
    R = (L @ _csr(Q2.generator(), Q2.n_states) - _csr(Q1.generator(), Q1.n_states) @ L).toarray()
    cot = grid.cot_angles()
    for k in range(1, 8):
        c, d = _layer_rates(cot, k)
        u = 2 * k + 1
        assert R[k, grid.index(k, k)] == pytest.approx(
            (2 * k - 1) * (d - c) / (u * u), abs=1e-13)
        if k >= 2:
            assert R[k, grid.index(k, 0)] == pytest.approx(
                -2 * (d - c) / (u * u), abs=1e-13)
        off = [abs(R[k, grid.index(kk, y)])
               for kk in range(9) if kk not in (k,)
               for y in range(-kk, kk + 1)]
        assert max(off) <= 1e-13


def test_conical_vase_identity_needs_no_skew():
    grid = build_vase_grid(linear_shape(math.tan(0.7)), 10, 10)
    link = build_link(grid)
    rep = intertwining_residual(link, vase_rate_matrix(grid, exact_projection=False),
                                projected_vase_rates(grid), mode="rates")
    assert rep.residual <= 1e-10


def test_corrupted_row_detected():
    lat, P, Q, link = wedge_ops(math.pi / 4, 6, mode="float")
    eps = 1e-6
    i = lat.index(2, 0)
    rows = [dict(r) for r in P.rows]       # a kernel converts its rows once
    rows[i][lat.index(3, 0)] += eps
    rows[i][lat.index(1, 0)] -= eps
    P = kernel_from_rows(rows, P.mode)
    rep = intertwining_residual(link, P, Q, mode="stochastic")
    assert rep.residual >= eps / (2 * 2 + 1) * 0.99


def test_shape_mismatch():
    lat, P, Q, link = wedge_ops(math.pi / 4, 6)
    small = build_link(4)
    with pytest.raises(ShapeError):
        intertwining_residual(small, P, Q, mode="stochastic")
    with pytest.raises(ShapeError):
        intertwining_residual(link, P, Q, mode="rates")


def test_semigroup_residual_vase():
    grid = build_vase_grid(power_shape(2.0), 12, 12)
    link = build_link(grid)
    out = semigroup_residual(link, vase_rate_matrix(grid),
                             projected_vase_rates(grid), times=[0.1, 1.0])
    assert all(v <= 1e-10 for v in out.values())


def test_filter_sample_endpoints():
    link = build_link(6)
    rng = np.random.default_rng(0)
    assert filter_sample(link, 0, rng) == site_index(0, 0)
    with pytest.raises(ParameterError):
        filter_sample(link, 9, rng)


def test_filter_sample_uniformity():
    k = 4
    link = build_link(6)
    rng = np.random.default_rng(42)
    fiber = sorted(link.rows[k])
    counts = {i: 0 for i in fiber}
    n = 100000
    for _ in range(n):
        counts[filter_sample(link, k, rng)] += 1
    p = 1.0 / (2 * k + 1)
    sigma = math.sqrt(n * p * (1 - p))
    for i in fiber:
        assert abs(counts[i] - n * p) <= 4 * sigma


def test_filter_sample_split_seeds_differ():
    link = build_link(6)
    k = 4
    draws = [(filter_sample(link, k, np.random.default_rng((7, j, 0))),
              filter_sample(link, k, np.random.default_rng((7, j, 1))))
             for j in range(2000)]
    frac_equal = sum(a == b for a, b in draws) / len(draws)
    p = 1.0 / (2 * k + 1)
    assert abs(frac_equal - p) <= 4 * math.sqrt(p * (1 - p) / len(draws))


@pytest.mark.parametrize("alpha", [math.pi / 4, math.pi / 3])
def test_harmonic_residual_exact(alpha):
    Q = projected_wedge_chain(200, alpha)
    assert harmonic_residual(Q) == 0.0


def test_harmonic_check_puts_each_term_in_lowest_terms():
    # row i = 600,000 of the pi/3 radial chain, every other row absorbing.
    # Its terms P(i, i+-1) / (2i+1+-2) reduce to 3 / (8 h), h = 2i+1, so it
    # runs over 8 h; over its denominator 8 h times the lcm of the three 2j+1
    # (about 8 h^4), or with each term reduced only by the gcd of its
    # numerator and 8 h (about 8 h^3), it would leave int64
    i, h = 600000, 1200001
    width = np.ones(i + 2, dtype=np.int64)
    width[i] = 3
    nums = np.ones(i + 4, dtype=np.int64)
    nums[i:i + 3] = 3 * (h - 2), 2 * h, 3 * (h + 2)
    dens = np.ones(i + 2, dtype=np.int64)
    dens[i] = 8 * h
    Q = StochasticKernel((np.append(0, np.cumsum(width)),
                          np.concatenate([np.arange(i), [i - 1, i, i + 1, i + 1]]), (nums, dens)),
                         mode="rational")
    assert harmonic_residual(Q) == 0.0


def test_harmonic_residual_is_the_exact_fraction_or_refused():
    # eps moved from row 2's step down to its step up changes its sum of
    # P(2, j) / (2j+1) by eps (1/7 - 1/3)
    Q = projected_wedge_chain(40, math.pi / 6)
    rows = [dict(r) for r in Q.rows]
    eps = F(1, 10 ** 6)
    rows[2][1] -= eps
    rows[2][3] += eps
    assert harmonic_residual(kernel_from_rows(rows, "rational")) == float(F(4, 21) * eps)
    # row 1's terms reduce to 1/d and (d-1)/(5d); for d prime to 15, and d-1
    # prime to 5, the row runs over lcm(d, 5d, 3) = 15d
    for d, refused in ((2 ** 63 // 15 - 1, False), (2 ** 63 // 15 + 2, True)):
        Q = kernel_from_rows([{0: F(1)}, {0: F(1, d), 2: F(d - 1, d)}, {2: F(1)}], "rational")
        want = abs(F(1, d) + F(d - 1, 5 * d) - F(1, 3))
        if refused:
            with pytest.raises(ParameterError, match="^harmonic check: exact row denominators"):
                harmonic_residual(Q)
        else:
            assert harmonic_residual(Q) == float(want)


def test_harmonic_check_reads_only_the_rows_it_checks():
    # the apex row 0 and the absorbing row 1 are not checked, so row 0's
    # term (d - 1) / (3 d), over a denominator beyond int64, is never formed
    d = 2 ** 62 + 1
    Q = kernel_from_rows([{0: F(1, d), 1: F(d - 1, d)}, {1: F(1)}], "rational")
    assert harmonic_residual(Q) == 0.0
    # an apex row above 2^63 keeps the chain's numbers as Python ints; row
    # 1, harmonic (1/6 + 5/6 * 1/5 = 1/3), is checked on them
    big = 2 ** 63 + 1
    Q = kernel_from_rows([{0: F(1, big), 1: F(big - 1, big)}, {0: F(1, 6), 2: F(5, 6)},
                          {2: F(1)}], "rational")
    assert Q.arrays[2][1].dtype == object and harmonic_residual(Q) == 0.0


def test_harmonic_fails_at_apex():
    Q = projected_wedge_chain(6, math.pi / 4)
    row = Q.rows[0]
    total = sum(v * F(1, 2 * j + 1) for j, v in row.items())
    assert total != F(1, 1)


def test_harmonic_residual_float():
    Q = projected_wedge_chain(100, 0.9, mode="float")
    assert harmonic_residual(Q) <= 1e-14


def test_residual_report_json():
    import json

    lat, P, Q, link = wedge_ops(math.pi / 4, 5)
    rep = intertwining_residual(link, P, Q, mode="stochastic")
    rec = json.loads(rep.to_json())
    assert set(rec) == {"identity", "mode", "size", "residual", "pass"}
    assert rec["pass"] is True


# ---------------------------------------------------------------------------
# the float form of every operator is its CSR conversion
# ---------------------------------------------------------------------------

def dense_rows(rows, n_cols):
    D = np.zeros((len(rows), n_cols))
    for i, row in enumerate(rows):
        for j, v in row.items():
            D[i, j] = float(v)
    return D


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.05, math.pi / 2 - 0.05), n=st.integers(2, 12))
def test_wedge_csr_and_residual_random_angle(alpha, n):
    lat, P, Q, link = wedge_ops(alpha, n, mode="float")
    for op, n_cols in ((P, P.n_states), (Q, Q.n_states), (link, link.n_target)):
        assert np.array_equal(_csr(_float_arrays(op), n_cols).toarray(),
                              dense_rows(op.rows, n_cols))
    rep = intertwining_residual(link, P, Q, mode="stochastic")
    assert rep.residual <= 1e-12


# ---------------------------------------------------------------------------
# the vase builders against their dict-row reference
# ---------------------------------------------------------------------------

def _reference_layer_rates(cot, k):
    ck, cm = cot[k], cot[k - 1]
    if not (np.isfinite(ck) and np.isfinite(cm)) or ck <= 0 or cm <= 0:
        raise ParameterError(f"degenerate boundary angle near layer {k}")
    s = ck + cm
    return 1.0 / (ck * s), 1.0 / (cm * s)


def _reference_vase_rows(grid, apex_rate=1.0 / 6.0, exact_projection=True):
    """The vase chain's dict rows, one site at a time, each listing its
    rates as up, down, forward, back: the independent side of the checks on
    ``vase_rate_matrix``, whose exit rates are summed in that order."""
    K, cot, idx = grid.layers, grid.cot_angles(), grid.index

    def vertical(k, c, d, y_from, y_to):
        if not exact_projection:
            return 0.5
        ybond = min(y_from, y_to)
        skew = (c - d) * (2 * ybond + 1) / (2 * (2 * k + 1))
        rate = 0.5 + skew if y_to > y_from else 0.5 - skew
        if rate < 0:
            raise ParameterError(
                f"vertical rate negative at layer {k}; grid too coarse for "
                "this shape near the apex")
        return rate

    rows = []
    for (k, y) in layer_sites(K):
        if k >= K:
            rows.append({})
        elif k == 0:
            rows.append({idx(1, -1): apex_rate, idx(1, 0): apex_rate, idx(1, 1): apex_rate})
        else:
            c, d = _reference_layer_rates(cot, k)
            if y == k:
                rows.append({idx(k, k - 1): vertical(k, c, d, k, k - 1),
                             idx(k + 1, k): c, idx(k + 1, k + 1): c})
            elif y == -k:
                rows.append({idx(k, -k + 1): vertical(k, c, d, -k, -k + 1),
                             idx(k + 1, -k): c, idx(k + 1, -k - 1): c})
            else:
                rows.append({idx(k, y + 1): vertical(k, c, d, y, y + 1),
                             idx(k, y - 1): vertical(k, c, d, y, y - 1),
                             idx(k + 1, y): c, idx(k - 1, y): d})
    return rows


def _reference_projected_rows(grid, apex_rate=1.0 / 6.0):
    K, cot = grid.layers, grid.cot_angles()
    rows = [{1: 3.0 * apex_rate}]
    for k in range(1, K):
        c, d = _reference_layer_rates(cot, k)
        rows.append({k + 1: (2 * k + 3) / (2 * k + 1) * c,
                     k - 1: (2 * k - 1) / (2 * k + 1) * d})
    return rows + [{}]


def _reference_jump_rows(rows):
    return [{j: v / sum(r.values()) for j, v in r.items()} if sum(r.values()) else {i: 1.0}
            for i, r in enumerate(rows)]


def assert_same_bits(got, want):
    for a, b in zip(got[:2], want[:2]):
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
    assert got[2].dtype == want[2].dtype == np.float64
    assert np.array_equal(got[2].view(np.int64), want[2].view(np.int64))


def _check_vase_builders(grid, **options):
    """Both builders equal the reference bit for bit, exit rates and jump
    chain included, or both raise the same ``ParameterError``; returns the
    operators."""
    built = []
    for build, reference, opts in (
            (vase_rate_matrix, _reference_vase_rows, options),
            (projected_vase_rates, _reference_projected_rows,
             {"apex_rate": options.get("apex_rate", 1.0 / 6.0)})):
        try:
            want = reference(grid, **opts)
        except ParameterError as exc:
            with pytest.raises(ParameterError, match=f"^{exc}$"):
                build(grid, **opts)
            return None
        Q = build(grid, **opts)
        assert_same_bits(Q.arrays, row_arrays(want))
        exits = np.array([sum(r.values()) for r in want], dtype=float)
        assert np.array_equal(Q.exit_rates.view(np.int64), exits.view(np.int64))
        assert_same_bits(Q.jump_chain().arrays, row_arrays(_reference_jump_rows(want)))
        assert Q.rows == want and "rows" in vars(Q)
        built.append(Q)
    return built


@pytest.mark.parametrize("shape", ["power:2", "power:1.5", "power:3", "linear:0.8"])
def test_vase_builders_match_the_dict_row_reference(shape):
    for K in (1, 2, 20, 64):
        for exact in (True, False):
            assert _check_vase_builders(build_vase_grid(shape, K, K), exact_projection=exact)
    assert _check_vase_builders(build_vase_grid(shape, 12, 8), apex_rate=0.4)


def test_vase_builders_refuse_what_the_reference_refuses():
    # beta = 0.5 skews the first layer's vertical rates below zero at K = 8
    grid = build_vase_grid(power_shape(0.5), 8, 8)

    def bent(layer):
        angles = np.array(grid.angles)
        angles[layer] = -0.3
        return type(grid)(shape=grid.shape, resolution=8, layers=8,
                          abscissas=grid.abscissas, angles=angles)

    for g, exact, message in ((grid, True, "vertical rate negative at layer 1"),
                              (bent(2), False, "degenerate boundary angle near layer 2"),
                              (bent(0), True, "degenerate boundary angle near layer 1")):
        with pytest.raises(ParameterError, match=message):
            _reference_vase_rows(g, exact_projection=exact)
        assert _check_vase_builders(g, exact_projection=exact) is None
    # a degenerate angle is refused before any vertical rate is formed
    for build in (vase_rate_matrix, projected_vase_rates):
        with pytest.raises(ParameterError, match="degenerate boundary angle near layer 2"):
            build(bent(2))
    for apex_rate in (0.0, -1.0):
        with pytest.raises(ParameterError, match="apex_rate must be positive"):
            vase_rate_matrix(grid, apex_rate=apex_rate)


def test_rate_rows_go_through_one_rate_check():
    for rows, message in (([{1: 1.0}, {1: 2.0}], "diagonal entry stored in row 1"),
                          ([{1: 1.0}, {0: -2.0}], "negative rate in row 1"),
                          ([{1: math.nan}, {}], "non-finite rate in row 0"),
                          ([{1: 0.5}, {0: math.inf}], "non-finite rate in row 1")):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            rates_from_rows(rows)
        with pytest.raises(ParameterError, match=f"^{message}$"):
            RateMatrix(row_arrays(rows), exit_rates=[0.0, 0.0])
    Q = rates_from_rows([{1: 0.25}, {}])
    assert Q.exit_rates.tolist() == [0.25, 0.0] and Q.exit_rates[1] == 0
    for exits in ([0.25], [0.25, 0.0, 1.0], [[0.25, 0.0]]):
        with pytest.raises(ParameterError, match="^2 states need one exit rate each"):
            RateMatrix(Q.arrays, exit_rates=exits)
    assert Q.jump_chain().rows == [{1: 1.0}, {1: 1.0}]


# vase_rate_matrix accepts every power shape with beta in [0.7, 4] at K <= 12
@settings(max_examples=20, deadline=None)
@given(beta=st.floats(0.7, 4.0), K=st.integers(2, 12))
def test_vase_csr_generator_and_residuals_random_power(beta, K):
    grid = build_vase_grid(power_shape(beta), K, K)
    link = build_link(grid)
    Q2, Q1 = _check_vase_builders(grid)
    for Q, rows in ((Q2, _reference_vase_rows(grid)), (Q1, _reference_projected_rows(grid))):
        expected = dense_rows(rows, Q.n_states)
        np.fill_diagonal(expected, [-sum(r.values()) for r in rows])
        G = _csr(Q.generator(), Q.n_states).toarray()
        assert np.array_equal(G, expected)
        assert np.abs(G.sum(axis=1)).max() <= 1e-12
    rep = intertwining_residual(link, Q2, Q1, mode="rates")
    assert rep.residual <= 1e-12
    semis = semigroup_residual(link, Q2, Q1, times=[0.1, 1.0])
    assert max(semis.values()) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(steps=st.lists(st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 2.0)),
                      min_size=2, max_size=6),
       K=st.integers(1, 12), resolution=st.integers(1, 12))
def test_vase_identities_on_random_tables(steps, K, resolution):
    xs = np.concatenate([[0.0], np.cumsum([dx for dx, _ in steps])])
    hs = np.concatenate([[0.0], np.cumsum([dh for _, dh in steps])])
    try:
        grid = build_vase_grid((xs, hs), resolution, K)
    except ParameterError:
        return                          # the table does not reach level K/N
    ops = _check_vase_builders(grid)
    if ops is None:
        return                          # both builders refused the grid
    Q2, Q1 = ops
    link = build_link(grid)
    assert intertwining_residual(link, Q2, Q1, mode="rates").residual <= 1e-12
    assert max(semigroup_residual(link, Q2, Q1, times=[0.1, 1.0]).values()) <= 1e-10


def _reference_semigroup(link, Q2, Q1, times, tail=1e-14):
    """The four-array uniformization: dense (K+1) x (K+1)^2 accumulators."""
    import scipy.sparse as sp

    lam = 1.01 * max(Q2.exit_rates.max(), Q1.exit_rates.max(), 1e-12)
    D2 = sp.identity(Q2.n_states, format="csr") + _csr(Q2.generator(), Q2.n_states) / lam
    D1 = sp.identity(Q1.n_states, format="csr") + _csr(Q1.generator(), Q1.n_states) / lam
    L = _csr(_float_arrays(link), link.n_target).toarray()
    out = {}
    for t in times:
        w, total, n = math.exp(-lam * t), 0.0, 0
        acc2, acc1, term2, term1 = np.zeros_like(L), np.zeros_like(L), L.copy(), L.copy()
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


def test_blocked_semigroup_check_still_sees_the_plain_rates_defect():
    # plain vertical rates leave an O(1/N) defect, which both forms measure
    grid = build_vase_grid(power_shape(2.0), 12, 12)
    link = build_link(grid)
    Q2, Q1 = vase_rate_matrix(grid, exact_projection=False), projected_vase_rates(grid)
    times = [0.1, 1.0, 3.0]
    got = semigroup_residual(link, Q2, Q1, times=times)
    want = _reference_semigroup(link, Q2, Q1, times)
    assert list(got) == times and min(want.values()) > 1e-4
    for t in times:
        assert got[t] == pytest.approx(want[t], rel=1e-12)


def _scipy_semigroup(link, Q2, Q1, times):
    """The blocked uniformization on scipy.sparse: the same Poisson weights,
    blocks of link rows and radial mixture, with scipy's sparse x dense
    products.  The reference for the bits of ``semigroup_residual``."""
    import scipy.sparse as sp

    n1, n2 = Q1.n_states, Q2.n_states
    lam = 1.01 * max(Q2.exit_rates.max(initial=0.0), Q1.exit_rates.max(initial=0.0), 1e-12)
    D2t = (sp.identity(n2, format="csr") + _csr(Q2.generator(), n2) / lam).T.tocsr()
    D1 = sp.identity(n1, format="csr") + _csr(Q1.generator(), n1) / lam
    weights = {}
    for t in times:
        w, total, weights[t] = math.exp(-lam * t), 0.0, []
        while total < 1.0 - 1e-14 and len(weights[t]) < 500000:
            weights[t].append(w)
            total += w
            w *= lam * t / len(weights[t])

    def mix(term, D):
        acc = {t: np.zeros_like(term) for t in weights}
        for n in range(max(map(len, weights.values()), default=0)):
            if n:
                term = D @ term
            for t, w in weights.items():
                if n < len(w):
                    acc[t] += w[n] * term
        return acc

    S1 = mix(np.identity(n1), D1)
    Lt = _csr(_float_arrays(link), n2).T.tocsr()
    out = dict.fromkeys(weights, 0.0)
    for lo in range(0, n1, 16):
        planar = mix(Lt[:, lo:lo + 16].toarray(), D2t)
        for t in planar:
            planar[t] -= Lt @ S1[t][lo:lo + 16].T
            out[t] = float(np.maximum(out[t], np.abs(planar[t]).max()))
    return out


@pytest.mark.parametrize("shape, K", [("power:2", 3), ("power:2", 12), ("power:2", 20),
                                      ("power:2", 64), ("power:1.5", 20), ("linear:0.7", 20)])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "plain"])
def test_semigroup_residual_is_the_scipy_products_to_the_bit(shape, K, exact):
    # D = I + Q (1/lam) as scipy forms it, products summed in scipy's
    # order, and the powers of each block of link rows computed only on the
    # layers they reach; a planar operator without layers is one layer
    grid = build_vase_grid(shape, K, K)
    link = build_link(grid)
    Q2, Q1 = vase_rate_matrix(grid, exact_projection=exact), projected_vase_rates(grid)
    got = semigroup_residual(link, Q2, Q1, times=[0.1, 1.0])
    assert got == _scipy_semigroup(link, Q2, Q1, times=[0.1, 1.0])
    if K <= 20:
        flat = RateMatrix(Q2.arrays, exit_rates=Q2.exit_rates)
        assert semigroup_residual(link, flat, Q1, times=[0.1, 1.0]) == got


@st.composite
def _ell_operands(draw):
    """Off-diagonal rate rows on 1-12 states, ragged, some empty (their rows
    of the generator and of I + Q/lam hold only the diagonal) and some rates
    0, a dense operand 1-17 columns wide, a row window and rows per chunk."""
    from hypothesis.extra.numpy import arrays

    n = draw(st.integers(1, 12))
    rates = st.one_of(st.just(0.0), st.floats(1e-3, 5.0))
    rows = [draw(st.dictionaries(st.integers(0, n - 1), rates, max_size=n)) for _ in range(n)]
    rows = [{j: v for j, v in r.items() if j != i} for i, r in enumerate(rows)]
    x = draw(arrays(np.float64, (n, draw(st.integers(1, 17))), elements=st.floats(-1e3, 1e3)))
    lo = draw(st.integers(0, n))
    return rows, x, lo, draw(st.integers(lo, n)), draw(st.integers(1, 5))


@settings(max_examples=200, deadline=None)
@given(_ell_operands())
def test_ell_product_is_scipys_sparse_product(operands):
    # the ELL table of CSR arrays or of their transpose times a dense block
    # is scipy's csr product to the bit in each row of the window, whatever
    # the rows per chunk; rows outside the window are left as they were.
    # The arrays are a generator, stored zeros included, and I + Q/lam as
    # scipy forms it
    import scipy.sparse as sp
    from unittest import mock

    from wedgewalk import intertwining
    from wedgewalk.intertwining import _ell, _ell_matmul

    rows, x, lo, hi, chunk = operands
    Q = rates_from_rows(rows)
    n, lam = Q.n_states, 1.01 * max(Q.exit_rates.max(), 1e-12)
    D = sp.identity(n, format="csr") + _csr(Q.generator(), n) / lam
    for arrays in (Q.generator(), (D.indptr, D.indices, D.data)):
        A = _csr(arrays, n)
        for transpose, want in ((False, A @ x), (True, A.T.tocsr() @ x)):
            y = np.full_like(x, 7.0)
            with mock.patch.object(intertwining, "_ROWS", chunk):
                _ell_matmul(_ell(arrays, n, transpose), x, y, lo, hi)
            assert np.array_equal(y[lo:hi], want[lo:hi])
            assert (np.delete(y, np.s_[lo:hi], axis=0) == 7.0).all()


def test_semigroup_check_refuses_weights_that_cannot_reach_one():
    # lam = 10101 at linear:100, so exp(-lam t) underflows at t = 0.1 and no
    # Poisson weight is left to sum
    grid = build_vase_grid(linear_shape(100.0), 4, 4)
    link, Q2, Q1 = build_link(grid), vase_rate_matrix(grid), projected_vase_rates(grid)
    with pytest.raises(ParameterError, match=r"^semigroup check: .*lam\*t = 1010\.1 "):
        semigroup_residual(link, Q2, Q1, times=[0.1, 1.0])
