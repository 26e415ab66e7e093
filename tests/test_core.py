"""Decision machinery: ordering, resemblance, quantization, test count, NFA.

The combinatorial pieces are checked against brute-force enumeration and a
handful of frozen values worked out by hand.
"""
import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from acbm.core import (
    AcbmParams,
    count_nondecreasing,
    number_of_tests,
    quantize_array,
    quantize_levels,
    resemblance_probability,
    top_components,
)
from acbm.errors import Overflow
from acbm.pipeline import candidate_nfa_block


def enumerate_vectors(num_components, num_levels):
    """All non-decreasing probability vectors over the dyadic levels."""
    levels = quantize_levels(num_levels)
    return [tuple(levels[list(ix)])
            for ix in combinations_with_replacement(range(num_levels),
                                                    num_components)]


# ---------------------------------------------------------------- counting

def test_count_matches_enumeration():
    for n in range(1, 11):
        for q in range(1, 7):
            expected = sum(1 for _ in
                           combinations_with_replacement(range(q), n))
            assert count_nondecreasing(n, q) == expected, (n, q)


def test_count_frozen_values():
    assert count_nondecreasing(1, 4) == 4
    assert count_nondecreasing(2, 2) == 3
    assert count_nondecreasing(9, 5) == 715
    assert count_nondecreasing(9, 5) == math.comb(13, 4)


def test_count_rejects_bad_arguments():
    with pytest.raises(ValueError):
        count_nondecreasing(0, 5)
    with pytest.raises(ValueError):
        count_nondecreasing(9, 0)


def test_count_overflow():
    with pytest.raises(Overflow):
        count_nondecreasing(20000, 6)


@pytest.mark.parametrize("num_levels, last_n, last_count", [
    (2, 2**63 - 2, 2**63 - 1),               # the int64 maximum itself
    (5, 121_973, 9_223_148_185_681_446_450),
])
def test_count_int64_edge(num_levels, last_n, last_count):
    # the largest count that returns, then the first that raises
    assert count_nondecreasing(last_n, num_levels) == last_count
    assert math.comb(last_n + num_levels, last_n + 1) > 2**63 - 1
    with pytest.raises(Overflow):
        count_nondecreasing(last_n + 1, num_levels)


def test_number_of_tests_frozen():
    params = AcbmParams(search_radius=15)
    assert number_of_tests(10 ** 6, params) == 22_165_000_000


def test_number_of_tests_degenerate():
    params = AcbmParams(search_radius=0, num_components=1, num_levels=1)
    for n in (1, 17, 4096):
        assert number_of_tests(n, params) == n


def test_number_of_tests_linear_in_n():
    params = AcbmParams(search_radius=5)
    assert number_of_tests(2 * 3001, params) == 2 * number_of_tests(3001, params)


def test_number_of_tests_overflow():
    params = AcbmParams(search_radius=5)
    with pytest.raises(Overflow):
        number_of_tests(10 ** 16, params)
    with pytest.raises(ValueError):
        number_of_tests(0, params)


# ---------------------------------------------------------------- ordering

def order_components(coeffs):
    """All components of one coefficient vector in top_components order."""
    c = np.asarray(coeffs, dtype=np.float64)
    return top_components(c[None], c.size)[0]


def test_order_components_by_magnitude():
    assert order_components([3.0, -5.0, 1.0]).tolist() == [1, 0, 2]


def test_order_components_stable_ties():
    assert order_components([2.0, 2.0, 2.0]).tolist() == [0, 1, 2]
    assert order_components([1.0, -1.0, 2.0]).tolist() == [2, 0, 1]


def test_order_components_sorted_magnitudes():
    rng = np.random.default_rng(10)
    for _ in range(200):
        c = rng.normal(size=rng.integers(1, 30))
        mags = np.abs(c)[order_components(c)]
        assert (np.diff(mags) <= 0).all()
        # the partition path keeps the same order for every cut
        for count in range(1, c.size):
            assert np.array_equal(top_components(c[None], count)[0],
                                  order_components(c)[:count])


def stable_top(coeffs, count):
    return np.argsort(-np.abs(coeffs), axis=1, kind="stable")[:, :count]


@pytest.mark.parametrize("count", [1, 3, 9, 11, 12])
def test_top_components_equals_stable_argsort(count):
    rng = np.random.default_rng(12)
    c = rng.normal(size=(300, 12)) * np.linspace(4.0, 0.5, 12)
    c[0] = 0.0                                    # every magnitude tied
    c[1] = np.where(np.arange(12) % 2, 1.5, -1.5)  # +- equal magnitudes
    c[2] = [5, -5, 5, 4, -3, 3, -3, 3, 2, 2, -1, 0]
    # tied exactly at the count-th place, the tie spanning the cut
    base = np.sort(rng.random(12))[::-1] * 10
    for k, row in enumerate(range(3, 14)):
        c[row] = base
        c[row, k:k + 3] = -c[row, k]
        c[row] = c[row][rng.permutation(12)]
    c[14:40] = np.round(c[14:40])                 # many small-integer ties
    got = top_components(c, count)
    assert got.dtype == np.intp
    assert np.array_equal(got, stable_top(c, count))


def test_top_components_matches_order_components():
    # one row at a time (as the single-pixel matcher calls it) against the
    # whole table, and both against a per-row stable argsort
    rng = np.random.default_rng(13)
    c = np.round(rng.normal(size=(50, 25)) * 2)
    got = top_components(c, 9)
    for row, idx in zip(c, got):
        assert idx.tolist() == top_components(row[None], 9)[0].tolist()
        assert idx.tolist() == np.argsort(-np.abs(row),
                                          kind="stable")[:9].tolist()


# ------------------------------------------------------------- resemblance

@pytest.mark.parametrize("h_q, h_qp, expected", [
    (0.5, 0.6, 0.2),     # central case 2|dH|
    (0.1, 0.9, 0.9),     # far right of a left-leaning value
    (0.9, 0.1, 0.9),     # mirrored
    (0.0, 0.0, 0.0),
    (1.0, 1.0, 0.0),
    (0.25, 0.25, 0.0),
    (0.0, 1.0, 1.0),
    (1.0, 0.0, 1.0),
])
def test_resemblance_cases(h_q, h_qp, expected):
    assert resemblance_probability(h_q, h_qp) == pytest.approx(expected)


def test_resemblance_zero_iff_equal():
    rng = np.random.default_rng(11)
    h_q, h_qp = rng.random(5000), rng.random(5000)
    p = resemblance_probability(h_q, h_qp)
    assert ((p == 0) == (h_q == h_qp)).all()
    assert (p >= 0).all() and (p <= 1).all()


def test_resemblance_scalar_and_array_agree():
    rng = np.random.default_rng(12)
    a, b = rng.random(100), rng.random(100)
    vec = resemblance_probability(a, b)
    for i in range(a.size):
        assert vec[i] == resemblance_probability(float(a[i]), float(b[i]))


def nested_where_resemblance(h_q, h_qp):
    """The three cases as nested selections: the reference that the
    masked-sum kernel must equal bit for bit."""
    a = np.asarray(h_q, dtype=np.float64)
    b = np.asarray(h_qp, dtype=np.float64)
    diff = b - a
    p = np.where(diff > a, b,
                 np.where(-diff > 1.0 - a, 1.0 - b, 2.0 * np.abs(diff)))
    return np.clip(p, 0.0, 1.0)


def test_resemblance_bits_equal_nested_where():
    rng = np.random.default_rng(13)
    a = rng.random(3000)
    # the case boundaries b = 2a and b = 2a - 1 and their float neighbours
    edges = [2 * a, 2 * a - 1]
    near = [np.nextafter(e, toward) for e in edges
            for toward in (-np.inf, np.inf)]
    pairs = [(np.tile(a, 6), np.concatenate(edges + near))]
    # the corners of the unit square and its centre line
    pairs.append((np.repeat([0.0, 0.5, 1.0], 2), np.tile([0.0, 1.0], 3)))
    # CDF values as the scan forms them, ranks over the block count m,
    # with rank-space boundaries 2r and 2r - m
    for m in (1, 2, 255, 65_535, 97_344, 2**32 - 1):
        r = rng.integers(0, m + 1, 1000, dtype=np.uint64)
        rb = np.concatenate([rng.integers(0, m + 1, 1000, dtype=np.uint64),
                             np.minimum(2 * r, m), np.maximum(2 * r, m) - m])
        pairs.append((np.tile(r, 3) / m, rb / m))
    a = np.concatenate([p[0] for p in pairs])
    b = np.concatenate([p[1] for p in pairs])
    inside = (b >= 0.0) & (b <= 1.0)
    a, b = a[inside], b[inside]
    want = nested_where_resemblance(a, b)
    assert resemblance_probability(a, b).tobytes() == want.tobytes()
    # three-dimensional tables, as the scan passes them
    cut = a.size // 18 * 18
    assert (resemblance_probability(a[:cut].reshape(-1, 2, 9),
                                    b[:cut].reshape(-1, 2, 9)).tobytes()
            == want[:cut].tobytes())
    for i in rng.choice(a.size, 400, replace=False):
        got = resemblance_probability(float(a[i]), float(b[i]))
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == want[i].tobytes(), (a[i], b[i])


# ------------------------------------------------------------ quantization

def test_quantize_levels_are_dyadic():
    assert quantize_levels(5).tolist() == [1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0]
    assert quantize_levels(1).tolist() == [1.0]


def quantize(p, num_levels):
    """quantize_array of one probability vector, as a tuple of floats."""
    return tuple(quantize_array(np.asarray(p, dtype=np.float64),
                                num_levels).tolist())


def test_quantize_frozen_examples():
    assert quantize([0.0, 0.0, 0.0], 5) == (1 / 16,) * 3
    assert quantize([1.0] * 4, 5) == (1.0,) * 4
    assert quantize([0.03, 0.2, 0.1], 5) == (1 / 16, 1 / 4, 1 / 4)


def test_quantize_top_level_boundary():
    # exactly 1/2 still fits the 1/2 level; anything above needs 1
    assert quantize([0.5], 5) == (0.5,)
    assert quantize([0.5000001], 5) == (1.0,)


def test_quantize_is_minimal_dominating_vector():
    # the result must be the componentwise-least member of the enumerated
    # vector family that dominates the input
    rng = np.random.default_rng(13)
    for n, q in [(3, 5), (4, 3), (5, 5), (2, 2)]:
        family = enumerate_vectors(n, q)
        for _ in range(60):
            p = rng.random(n)
            got = quantize(p, q)
            dominating = [u for u in family if all(ui >= pi for ui, pi
                                                   in zip(u, p))]
            assert got in dominating
            best = tuple(min(col) for col in zip(*dominating))
            assert got == best


def test_quantize_minimality_full_size():
    # same exhaustive check at the default size; 715 candidate vectors
    rng = np.random.default_rng(14)
    family = enumerate_vectors(9, 5)
    block = rng.random((20, 9)) ** 3  # push mass toward small probabilities
    rows = quantize_array(block, 5)
    for p, row in zip(block, rows):
        got = tuple(row.tolist())
        dominating = [u for u in family if all(ui >= pi for ui, pi
                                               in zip(u, p))]
        assert got in dominating
        assert got == tuple(min(col) for col in zip(*dominating))
        # a row of a table quantizes as the vector alone does
        assert got == quantize(p, 5)


# ------------------------------------------------------------------- NFA

def test_quantized_vector_validation():
    # every output row is a quantized vector: dyadic levels in (0, 1],
    # non-decreasing, one per component
    rng = np.random.default_rng(16)
    p = rng.random((500, 9)) ** 4
    p[:50] = 0.0
    p[50:100] = 1.0
    for q in (1, 3, 5, 12):
        got = quantize_array(p, q)
        assert got.shape == p.shape
        assert ((got > 0) & (got <= 1)).all()
        assert (2.0 ** np.round(np.log2(got)) == got).all()
        assert (np.diff(got, axis=1) >= 0).all()


def at_levels(levels):
    """(hq, hqp) whose resemblance probabilities are exactly the given
    dyadic levels: the central case 2 |hqp - hq| around hq = 1/2."""
    levels = np.asarray(levels, dtype=np.float64)
    hq = np.full(levels.shape, 0.5)
    return hq, hq + levels / 2


def test_nfa_no_evidence_equals_test_count():
    hq, hqp = at_levels([1.0] * 9)
    assert resemblance_probability(hq, hqp).tolist() == [1.0] * 9
    assert candidate_nfa_block(hq, hqp, 515, 5) == 515.0
    # a candidate as far as possible in every component: the same
    assert candidate_nfa_block(np.zeros(9), np.ones(9), 515, 5) == 515.0


def test_nfa_dyadic_products_are_exact():
    left = (1 / 16, 1 / 16, 1 / 8, 1 / 8, 1 / 4, 1 / 4, 1 / 4, 1 / 4, 1 / 2)
    assert math.prod(left) == 2.0 ** -23
    assert candidate_nfa_block(*at_levels(left), 10 ** 6, 5) \
        == 10 ** 6 * 2.0 ** -23

    right = (0.5,) + (1.0,) * 8
    assert candidate_nfa_block(*at_levels(right), 10 ** 6, 5) == 500_000.0
    # both rows at once, as the scan passes them
    hq, hqp = at_levels([left, right])
    assert candidate_nfa_block(hq, hqp, 10 ** 6, 5).tolist() == [
        10 ** 6 * 2.0 ** -23, 500_000.0]


def test_nfa_right_case_reached_through_quantizer():
    # a first probability of exactly 1/2 pins every later level at >= 1/2
    p = (0.5,) + (0.9,) * 8
    assert quantize(p, 5) == (0.5,) + (1.0,) * 8
    hq, hqp = at_levels(p)
    assert candidate_nfa_block(hq, hqp, 1, 5) == 0.5


def test_params_validation():
    with pytest.raises(ValueError):
        AcbmParams(search_radius=-1)
    with pytest.raises(ValueError):
        AcbmParams(search_radius=5, epsilon=0.0)
    with pytest.raises(ValueError):
        AcbmParams(search_radius=5, block_side=8)
    with pytest.raises(ValueError):
        AcbmParams(search_radius=5, num_components=82)
    with pytest.raises(ValueError):
        AcbmParams(search_radius=5, num_levels=0)


def test_candidate_order_prefers_small_magnitudes():
    params = AcbmParams(search_radius=3)
    assert params.candidate_order() == (0, -1, 1, -2, 2, -3, 3)
