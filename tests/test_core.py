"""Decision machinery: ordering, resemblance, quantization, test count, NFA.

The combinatorial pieces are checked against brute-force enumeration and a
handful of frozen values worked out by hand.
"""
import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from acbm import core
from acbm.core import (
    AcbmParams,
    QuantizedProbVector,
    count_nondecreasing,
    is_meaningful,
    nfa,
    number_of_tests,
    order_components,
    quantize_array,
    quantize_levels,
    quantize_sequence,
    resemblance_probability,
    top_components,
)
from acbm.errors import Overflow


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
    rng = np.random.default_rng(13)
    c = np.round(rng.normal(size=(50, 25)) * 2)
    got = top_components(c, 9)
    for row, idx in zip(c, got):
        assert idx.tolist() == order_components(row)[:9].tolist()


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


def test_quantize_frozen_examples():
    assert quantize_sequence([0.0, 0.0, 0.0], 5).values == (1 / 16,) * 3
    assert quantize_sequence([1.0] * 4, 5).values == (1.0,) * 4
    assert quantize_sequence([0.03, 0.2, 0.1], 5).values == (1 / 16, 1 / 4, 1 / 4)


def test_quantize_top_level_boundary():
    # exactly 1/2 still fits the 1/2 level; anything above needs 1
    assert quantize_sequence([0.5], 5).values == (0.5,)
    assert quantize_sequence([0.5000001], 5).values == (1.0,)


def test_quantize_is_minimal_dominating_vector():
    # the result must be the componentwise-least member of the enumerated
    # vector family that dominates the input
    rng = np.random.default_rng(13)
    for n, q in [(3, 5), (4, 3), (5, 5), (2, 2)]:
        family = enumerate_vectors(n, q)
        for _ in range(60):
            p = rng.random(n)
            got = quantize_sequence(p, q).values
            dominating = [u for u in family if all(ui >= pi for ui, pi
                                                   in zip(u, p))]
            assert got in dominating
            best = tuple(min(col) for col in zip(*dominating))
            assert got == best


def test_quantize_minimality_full_size():
    # same exhaustive check at the default size; 715 candidate vectors
    rng = np.random.default_rng(14)
    family = enumerate_vectors(9, 5)
    for _ in range(20):
        p = rng.random(9) ** 3  # push mass toward small probabilities
        got = quantize_sequence(p, 5).values
        dominating = [u for u in family if all(ui >= pi for ui, pi
                                               in zip(u, p))]
        assert got in dominating
        assert got == tuple(min(col) for col in zip(*dominating))


def test_quantize_array_matches_sequence():
    rng = np.random.default_rng(15)
    block = rng.random((50, 9))
    rows = quantize_array(block, 5)
    for i in range(block.shape[0]):
        assert tuple(rows[i]) == quantize_sequence(block[i], 5).values


# ------------------------------------------------------------------- NFA

def test_quantized_vector_validation():
    with pytest.raises(ValueError):
        QuantizedProbVector((0.3,))          # not a dyadic level
    with pytest.raises(ValueError):
        QuantizedProbVector((0.5, 0.25))     # decreasing
    with pytest.raises(ValueError):
        QuantizedProbVector(())


def test_nfa_no_evidence_equals_test_count():
    v = QuantizedProbVector((1.0,) * 9)
    assert nfa(515, v) == 515.0


def test_nfa_dyadic_products_are_exact():
    left = QuantizedProbVector(
        (1 / 16, 1 / 16, 1 / 8, 1 / 8, 1 / 4, 1 / 4, 1 / 4, 1 / 4, 1 / 2))
    assert left.probability() == 2.0 ** -23
    assert nfa(10 ** 6, left) == 10 ** 6 * 2.0 ** -23

    right = QuantizedProbVector((0.5,) + (1.0,) * 8)
    assert right.probability() == 0.5
    assert nfa(10 ** 6, right) == 500_000.0


def test_nfa_right_case_reached_through_quantizer():
    # a first probability of exactly 1/2 pins every later level at >= 1/2
    got = quantize_sequence((0.5,) + (0.9,) * 8, 5)
    assert got.values == (0.5,) + (1.0,) * 8
    assert got.probability() == 0.5


def test_is_meaningful_boundary():
    assert is_meaningful(0.5, 1.0)
    assert is_meaningful(1.0, 1.0)
    assert not is_meaningful(1.0001, 1.0)


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
