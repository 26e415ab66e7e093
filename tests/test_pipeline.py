"""Dense matcher, single-pixel path, densify pass."""
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from acbm import (AcbmParams, MatchMode, bands, core, densify_median,
                  match_pair, match_pixel)
from acbm.errors import (BorderPixel, DimensionMismatch, HeightMismatch,
                         ImageTooSmall)
from acbm.imgio import CellState, DisparityMap, GrayImage
from acbm.patch_model import (PatchBasis, cdf_eval, compute_patch_basis,
                               interior_blocks, learn_background_model,
                               project, training_ranks)
from acbm.pipeline import (candidate_nfa_block, reference_tables,
                           scan_candidates)
from acbm.validation import gen_texture, gen_translated_pair


@pytest.fixture(scope="module")
def small_pair():
    ref, sec, _ = gen_translated_pair(40, 30, 1, texture_seed=9)
    params = AcbmParams(search_radius=3, block_side=5, num_components=5)
    model = learn_background_model(sec, 5)
    return ref, sec, params, model


def accepted_cells(dmap):
    return set(zip(*np.nonzero(dmap.accepted)))


# -------------------------------------------------------------- match_pair

def test_recovers_constant_shift():
    ref, sec, _ = gen_translated_pair(48, 32, 1, texture_seed=4)
    dmap = match_pair(ref, sec, AcbmParams(search_radius=2, block_side=5,
                                           num_components=5))
    acc = dmap.accepted
    interior = np.zeros_like(acc)
    interior[2:-2, 2:-2] = True
    assert acc.sum() > 0.5 * interior.sum()
    assert (dmap.disparity[acc] == 1).mean() > 0.95


def test_border_ring(small_pair):
    ref, sec, params, model = small_pair
    dmap = match_pair(ref, sec, params, basis=model.basis)
    half = params.block_side // 2
    border = np.ones_like(dmap.state, dtype=bool)
    border[half:-half, half:-half] = False
    assert (dmap.state[border] == CellState.BORDER).all()
    assert (dmap.state[~border] != CellState.BORDER).all()
    assert (dmap.disparity[border] == 0).all()
    assert np.isnan(dmap.nfa[border]).all()


def test_rejected_cells_are_blank(small_pair):
    ref, sec, params, model = small_pair
    dmap = match_pair(ref, sec, params, basis=model.basis)
    rejected = ~dmap.accepted
    assert (dmap.disparity[rejected] == 0).all()
    assert np.isnan(dmap.nfa[rejected]).all()
    assert np.isfinite(dmap.nfa[dmap.accepted]).all()


def test_epsilon_only_widens(small_pair):
    ref, sec, params, model = small_pair
    maps = {}
    for eps in (0.01, 1.0, 50.0):
        p = AcbmParams(search_radius=3, epsilon=eps, block_side=5,
                       num_components=5)
        maps[eps] = match_pair(ref, sec, p, basis=model.basis)
    a_tight, a_mid, a_loose = (accepted_cells(maps[e])
                               for e in (0.01, 1.0, 50.0))
    assert a_tight <= a_mid <= a_loose
    # the chosen disparity is epsilon-independent
    common = np.array(sorted(a_tight))
    if common.size:
        ys, xs = common[:, 0], common[:, 1]
        assert np.array_equal(maps[0.01].disparity[ys, xs],
                              maps[50.0].disparity[ys, xs])


def test_height_mismatch():
    a = gen_texture(20, 12, seed=1)
    b = gen_texture(20, 14, seed=1)
    with pytest.raises(HeightMismatch):
        match_pair(a, b, AcbmParams(search_radius=2, block_side=5))


def test_basis_side_mismatch(small_pair):
    ref, sec, _, model = small_pair
    with pytest.raises(DimensionMismatch):
        match_pair(ref, sec, AcbmParams(search_radius=2, block_side=7),
                   basis=model.basis)


def test_ss_only_records_nfa(small_pair):
    ref, sec, params, model = small_pair
    dmap = match_pair(ref, sec, params, basis=model.basis,
                      mode=MatchMode.SS_ONLY)
    acc = dmap.accepted
    assert acc.any()
    assert np.isfinite(dmap.nfa[acc]).all()


def test_acbm_only_accepts_superset(small_pair):
    ref, sec, params, model = small_pair
    with_ss = match_pair(ref, sec, params, basis=model.basis)
    without = match_pair(ref, sec, params, basis=model.basis,
                         mode=MatchMode.ACBM_ONLY)
    assert accepted_cells(with_ss) <= accepted_cells(without)
    assert (without.state != CellState.SELF_SIMILAR).all()


# ----------------------------------------------------------- pixel parity

def test_match_pixel_agrees_with_dense(small_pair):
    ref, sec, params, model = small_pair
    rng = np.random.default_rng(50)
    half = params.block_side // 2
    probes = [(int(x), int(y))
              for x, y in zip(rng.integers(half, ref.width - half, 25),
                              rng.integers(half, ref.height - half, 25))]
    for mode in MatchMode:
        dense = match_pair(ref, sec, params, basis=model.basis, mode=mode)
        for q in probes:
            got = match_pixel(q, model, params, ref, sec, mode=mode)
            x, y = q
            assert got.state == dense.state[y, x], (mode, q)
            if got.state == CellState.ACCEPTED:
                assert got.disparity == dense.disparity[y, x], (mode, q)
                assert got.nfa == dense.nfa[y, x], (mode, q)


# ------------------------------------------------------------- row bands

@pytest.fixture(scope="module")
def banded_pair():
    """86 interior rows at block side 5: two full bands and a partial one,
    with stripes and a saturated square across the first band edge."""
    ref, sec, _ = gen_translated_pair(48, 90, 1, texture_seed=21,
                                      stripe_rows=(28, 40))
    ref.pixels[24:44, 30:46] = 255.0
    sec.pixels[24:44, 31:47] = 255.0
    params = AcbmParams(search_radius=3, block_side=5)
    model = learn_background_model(sec, 5)
    return ref, sec, params, model


def dmap_bytes(dmap):
    return (dmap.state.tobytes(), dmap.disparity.tobytes(),
            dmap.nfa.tobytes())


@pytest.mark.parametrize("mode", list(MatchMode))
def test_match_pixel_agrees_across_band_edges(banded_pair, mode):
    ref, sec, params, model = banded_pair
    half = params.block_side // 2
    dense = match_pair(ref, sec, params, basis=model.basis, mode=mode)
    rows = ref.height - params.block_side + 1
    edges = bands.row_bands(rows)
    assert len(edges) == 3 and rows % bands.BAND_ROWS
    # interior rows on both sides of every band edge, and the last row
    probe_rows = {rows - 1}
    for band in edges[1:]:
        probe_rows |= {band.start - 1, band.start}
    states = set()
    for y in sorted(r + half for r in probe_rows):
        for x in range(half, ref.width - half):
            got = match_pixel((x, y), model, params, ref, sec, mode=mode)
            states.add(got.state)
            assert got.state == dense.state[y, x], (x, y)
            if got.state == CellState.ACCEPTED:
                assert got.disparity == dense.disparity[y, x], (x, y)
                assert got.nfa == dense.nfa[y, x], (x, y)
            else:
                assert dense.disparity[y, x] == 0
                assert np.isnan(dense.nfa[y, x])
    assert CellState.ACCEPTED in states and len(states) > 1


@pytest.mark.parametrize("band_rows", [1, 7, 1000])
def test_match_pair_independent_of_band_height(banded_pair, band_rows,
                                               monkeypatch):
    ref, sec, params, model = banded_pair
    expected = {mode: dmap_bytes(match_pair(ref, sec, params,
                                            basis=model.basis, mode=mode))
                for mode in MatchMode}
    monkeypatch.setattr(bands, "BAND_ROWS", band_rows)
    for mode in MatchMode:
        got = match_pair(ref, sec, params, basis=model.basis, mode=mode)
        assert dmap_bytes(got) == expected[mode], mode


def oracle_reference_tables(image, basis, cdfs, num_components):
    """Whole image at once: one projection, a full stable sort of the
    magnitudes, every component's CDF values, then the gather."""
    coeffs = project(basis, interior_blocks(image, basis.block_side))
    order = np.argsort(-np.abs(coeffs), axis=1, kind="stable")
    order = order[:, :num_components]
    h = np.stack([cdf_eval(cdf, coeffs[:, i]) for i, cdf in enumerate(cdfs)],
                 axis=1)
    return order, np.take_along_axis(h, order, axis=1)


@pytest.mark.parametrize("learned", [True, False])
def test_reference_tables_match_one_shot_oracle(banded_pair, learned):
    ref, sec, _, model = banded_pair
    if learned:
        basis = model.basis
    else:
        # identity basis: a coefficient is a pixel value, so the blocks of
        # the saturated square tie in every component
        basis = PatchBasis(5, np.zeros(25), np.eye(25), np.ones(25))
    cdfs, _ = training_ranks(basis, sec)
    for count in (5, 9, 25):
        order, h_ref = reference_tables(ref, basis, cdfs, count)
        want_order, want_h = oracle_reference_tables(ref, basis, cdfs, count)
        assert order.shape == want_order.shape == (86 * 44, count)
        assert order.dtype == np.uint8
        assert np.array_equal(order, want_order)
        assert h_ref.tobytes() == want_h.tobytes()


@pytest.mark.parametrize("count", [20, 30])
def test_reference_tables_rejects_wrong_cdf_count(count):
    img = gen_texture(40, 40, seed=1)
    model = learn_background_model(img, 5)
    cdfs = (model.cdfs * 2)[:count]
    with pytest.raises(DimensionMismatch):
        reference_tables(img, model.basis, cdfs, 9)


def test_match_pair_repeats_byte_for_byte(banded_pair):
    ref, sec, params, model = banded_pair
    first = dmap_bytes(match_pair(ref, sec, params, basis=model.basis))
    assert dmap_bytes(match_pair(ref, sec, params, basis=model.basis)) == \
        first
    # callers on several threads share the band pool; frequent thread
    # switches would expose a band writing outside its own rows
    results = [None] * 4

    def call(k):
        results[k] = dmap_bytes(match_pair(ref, sec, params,
                                           basis=model.basis))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(k,))
                   for k in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == first for r in results)


@pytest.mark.parametrize("num_levels", [1, 2, 5, 9, 300])
def test_candidate_nfa_block_matches_float_product(num_levels):
    # (hq, hqp) pairs whose resemblance probability is exactly 0, 1 and
    # every dyadic level 2^-j, from the central band and from both tails
    pairs = [(0.5, 0.5), (0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0),
             (0.0, 0.5), (1.0, 0.5), (0.25, 1.0), (0.75, 0.0)]
    for j in range(num_levels + 2):
        step = 2.0 ** -(j + 1)
        pairs += [(0.5, 0.5 + step), (0.5, 0.5 - step), (0.0, 2 * step),
                  (1.0, 1.0 - 2 * step)]
    rng = np.random.default_rng(31)
    pairs += list(zip(rng.random(40), rng.random(40)))
    pairs = np.array(pairs)
    pick = pairs[rng.integers(0, len(pairs), (60, 7, 9))]
    hq, hqp = pick[..., 0], pick[..., 1]
    hq[0], hqp[0] = 0.5, 0.5                  # p = 0 in every component
    hq[1], hqp[1] = 0.0, 1.0                  # p = 1 in every component
    for n_test in (1, 260_100 * 126, 2**61 + 1):
        ref = n_test * core.quantize_array(
            core.resemblance_probability(hq, hqp), num_levels).prod(-1)
        got = candidate_nfa_block(hq, hqp, n_test, num_levels)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_match_pixel_agrees_at_block_17():
    # 289 components: the component indices need uint16
    # noise under an identity basis, so that components past index 255 are
    # among the dominant ones; period-2 stripes below are self-similar.
    # Integer samples keep the summed-area SSD sums exact, so the batch
    # self-similarity veto reads the same SSDs as the direct one
    pixels = np.random.default_rng(12).integers(0, 256, (48, 44)) * 1.0
    pixels[24:] = np.where(np.arange(44) % 2, 255.0, 0.0)
    ref = GrayImage(pixels)
    sec = GrayImage(np.roll(pixels, 2, axis=1))
    params = AcbmParams(search_radius=3, block_side=17, num_components=12)
    basis = PatchBasis(17, np.full(289, 128.0), np.eye(289), np.ones(289))
    model = learn_background_model(sec, 17, basis=basis)
    order, _ = reference_tables(ref, basis, model.cdfs, 12)
    assert order.dtype == np.uint16 and order.max() > 255
    probes = [(x, y) for y in (8, 28, 39) for x in range(8, 36, 3)]
    states = set()
    for mode in MatchMode:
        dense = match_pair(ref, sec, params, basis=model.basis, mode=mode)
        for q in probes:
            got = match_pixel(q, model, params, ref, sec, mode=mode)
            x, y = q
            states.add(got.state)
            assert got.state == dense.state[y, x], (mode, q)
            if got.state == CellState.ACCEPTED:
                assert got.disparity == dense.disparity[y, x], (mode, q)
                assert got.nfa == dense.nfa[y, x], (mode, q)
    assert len(states) == 3


def test_one_block_secondary_is_too_small():
    # a 5x5 secondary at block side 5 has a single block: no CDF can be
    # learned from it, with or without a given basis
    ref = gen_texture(5, 5, seed=3)
    sec = gen_texture(5, 5, seed=4)
    params = AcbmParams(search_radius=1, block_side=5, num_components=5)
    basis = compute_patch_basis(gen_texture(40, 40, seed=1), 5)
    with pytest.raises(ImageTooSmall):
        match_pair(ref, sec, params, basis=basis)
    with pytest.raises(ImageTooSmall):
        learn_background_model(sec, 5)


def test_match_pair_memory_bound(monkeypatch):
    """tracemalloc peaks of the two phases of a 192x192 match_pair, run on
    the calling thread so that they do not depend on the core count.
    Basis: one (n, s) float64 table, 22 MB (two tables took 44 MB).  Model
    and scan: sorted values, integer ranks and the band tables, 44 MB (a
    float CDF-value table in place of the ranks took 63 MB)."""
    monkeypatch.setattr(bands, "run_parallel",
                        lambda task, items: [task(item) for item in items])
    ref = gen_texture(192, 192, seed=7)
    sec = GrayImage(np.roll(ref.pixels, 2, axis=1))
    params = AcbmParams(search_radius=5)
    tracemalloc.start()
    try:
        basis = compute_patch_basis(sec, 9)
        basis_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        dmap = match_pair(ref, sec, params, basis=basis)
        match_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dmap.accepted.any()
    assert basis_peak < 33e6
    assert match_peak < 53e6


def test_match_pixel_no_candidates():
    ref = gen_texture(40, 24, seed=2)
    sec = gen_texture(20, 24, seed=3)
    params = AcbmParams(search_radius=3, block_side=9)
    model = learn_background_model(sec, 9)
    got = match_pixel((30, 12), model, params, ref, sec)
    assert got.state == CellState.NOT_MEANINGFUL
    assert got.disparity is None
    # the dense path agrees
    dense = match_pair(ref, sec, params, basis=model.basis)
    assert dense.state[12, 30] == CellState.NOT_MEANINGFUL


def test_scan_candidates_geometry(small_pair):
    ref, sec, params, model = small_pair
    half = params.block_side // 2
    with pytest.raises(BorderPixel):
        scan_candidates((0, 0), model, params, ref, sec)
    with pytest.raises(BorderPixel):
        scan_candidates((ref.width - 1, 5), model, params, ref, sec)
    # interior pixel far from the sides sees every disparity, in order
    scores = scan_candidates((20, 15), model, params, ref, sec)
    assert [s.disparity for s in scores] == list(range(-3, 4))
    # at the left edge of the interior only d >= 0 fits
    scores = scan_candidates((half, 15), model, params, ref, sec)
    assert [s.disparity for s in scores] == list(range(0, 4))


# ----------------------------------------------------------------- densify

def map_from_states(states, disparity=None, nfa=None):
    states = np.asarray(states, dtype=np.uint8)
    if disparity is None:
        disparity = np.zeros(states.shape, dtype=np.int32)
    if nfa is None:
        nfa = np.where(states == CellState.ACCEPTED, 0.5, np.nan)
    return DisparityMap(state=states, disparity=np.asarray(disparity,
                                                           dtype=np.int32),
                        nfa=np.asarray(nfa, dtype=np.float64))


def test_densify_fills_lower_median():
    A, R = CellState.ACCEPTED, CellState.NOT_MEANINGFUL
    state = [[A, A, A], [A, R, A], [A, R, R]]
    disp = [[5, 1, 3], [2, 0, 4], [2, 0, 0]]
    nfa = [[0.5, 0.125, 0.5], [0.25, np.nan, 0.5], [0.0625, np.nan, np.nan]]
    out = densify_median(map_from_states(state, disp, nfa))
    # center has 6 accepted neighbors: sorted (1,2,2,3,4,5), lower median 2
    assert out.state[1, 1] == CellState.ACCEPTED
    assert out.disparity[1, 1] == 2
    assert out.nfa[1, 1] == 0.0625
    # (2,2) has only 3 accepted neighbors and stays rejected
    assert out.state[2, 2] == R
    # already-accepted cells are untouched
    assert np.array_equal(out.disparity[0], [5, 1, 3])


def test_densify_requires_five():
    A, R = CellState.ACCEPTED, CellState.NOT_MEANINGFUL
    state = [[A, A, A], [A, R, R], [R, R, R]]
    out = densify_median(map_from_states(state))
    assert out.state[1, 1] == R


def test_densify_never_fills_border():
    A = CellState.ACCEPTED
    state = np.full((3, 4), A, dtype=np.uint8)
    state[1, 1] = CellState.BORDER
    out = densify_median(map_from_states(state))
    assert out.state[1, 1] == CellState.BORDER


def test_densify_does_not_chain():
    A, R = CellState.ACCEPTED, CellState.NOT_MEANINGFUL
    # (1,1) has 5 accepted around it, (1,2) only 4 plus the about-to-fill
    # (1,1); a single pass must leave (1,2) rejected
    state = [[A, A, A, R],
             [A, R, R, R],
             [A, A, A, R]]
    disp = [[1, 1, 1, 0],
            [1, 0, 0, 0],
            [1, 1, 1, 0]]
    first = densify_median(map_from_states(state, disp))
    assert first.state[1, 1] == CellState.ACCEPTED
    assert first.state[1, 2] == R
    # a second pass sees the new acceptance and may then fill it
    second = densify_median(first)
    assert second.state[1, 2] == CellState.ACCEPTED


def test_densify_input_unchanged():
    A, R = CellState.ACCEPTED, CellState.NOT_MEANINGFUL
    state = [[A, A, A], [A, R, A], [A, A, A]]
    dmap = map_from_states(state, [[1, 2, 3], [4, 0, 5], [6, 7, 8]])
    before = (dmap.state.copy(), dmap.disparity.copy(), dmap.nfa.copy())
    densify_median(dmap)
    assert np.array_equal(dmap.state, before[0])
    assert np.array_equal(dmap.disparity, before[1])
    assert np.array_equal(np.isnan(dmap.nfa), np.isnan(before[2]))


def test_densify_odd_count_exact_median():
    A, R = CellState.ACCEPTED, CellState.NOT_MEANINGFUL
    state = [[A, A, A], [A, R, A], [A, R, R]]
    disp = [[9, 7, 5], [3, 0, 1], [8, 0, 0]]
    out = densify_median(map_from_states(state, disp))
    # six neighbors (9,7,5,3,1,8) -> sorted (1,3,5,7,8,9), lower median 5
    assert out.disparity[1, 1] == 5
