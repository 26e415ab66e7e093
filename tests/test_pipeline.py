"""Dense matcher, single-pixel path, densify pass."""
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from acbm import (AcbmParams, MatchMode, bands, core, densify_median,
                  match_pair, match_pixel, patch_model, pipeline, self_sim)
from acbm.errors import (BlockOutOfBounds, DimensionMismatch,
                         HeightMismatch, ImageTooSmall)
from acbm.imgio import CellState, DisparityMap, GrayImage
from acbm.patch_model import (BackgroundModel, PatchBasis, cdf_eval,
                               compute_patch_basis, interior_blocks,
                               learn_background_model, project,
                               training_ranks)
from acbm.pipeline import (candidate_nfa_block, component_order,
                           reference_tables, scan_band, scan_candidates)
from acbm.validation import (gen_texture, gen_translated_pair,
                             monte_carlo_false_alarms)
from test_decisions import (EXPECTED, digest, flat, non_integer, saturated,
                            striped)


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


@pytest.mark.parametrize("mode", [MatchMode.ACBM_ONLY, MatchMode.ACBM_SS])
def test_epsilon_boundary_is_inclusive(small_pair, mode):
    # a pixel whose best NFA equals epsilon exactly is meaningful; one ulp
    # less rejects it, in the dense and in the single-pixel path
    ref, sec, params, model = small_pair
    loose = replace(params, epsilon=1e12)
    dense = match_pair(ref, sec, loose, basis=model.basis, mode=mode)
    ys, xs = np.nonzero(dense.accepted)
    by_nfa = np.argsort(dense.nfa[ys, xs], kind="stable")
    for k in (by_nfa[0], by_nfa[by_nfa.size // 2], by_nfa[-1]):
        x, y = int(xs[k]), int(ys[k])

        def dense_state(eps):
            return match_pair(ref, sec, replace(params, epsilon=eps),
                              basis=model.basis, mode=mode).state[y, x]

        def pixel_state(eps):
            return match_pixel((x, y), model, replace(params, epsilon=eps),
                               ref, sec, mode=mode).state

        pixel_nfa = match_pixel((x, y), model, loose, ref, sec,
                                mode=mode).nfa
        for state, nfa in ((dense_state, float(dense.nfa[y, x])),
                           (pixel_state, pixel_nfa)):
            assert state(nfa) == CellState.ACCEPTED, (mode, x, y)
            assert state(float(np.nextafter(nfa, 0))) \
                == CellState.NOT_MEANINGFUL, (mode, x, y)


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

def assert_pixels_agree(dense, probes, model, params, ref, sec, mode):
    """match_pixel at each probe (x, y) against match_pair's map dense, made
    in the same mode: the same state, and where accepted the same disparity
    and NFA.  Returns the states seen."""
    states = set()
    for q in probes:
        got = match_pixel(q, model, params, ref, sec, mode=mode)
        x, y = q
        states.add(got.state)
        assert got.state == dense.state[y, x], (mode, q)
        if got.state == CellState.ACCEPTED:
            assert got.disparity == dense.disparity[y, x], (mode, q)
            assert got.nfa == dense.nfa[y, x], (mode, q)
    return states


def test_match_pixel_agrees_with_dense(small_pair):
    ref, sec, params, model = small_pair
    rng = np.random.default_rng(50)
    half = params.block_side // 2
    probes = [(int(x), int(y))
              for x, y in zip(rng.integers(half, ref.width - half, 25),
                              rng.integers(half, ref.height - half, 25))]
    for mode in MatchMode:
        dense = match_pair(ref, sec, params, basis=model.basis, mode=mode)
        assert_pixels_agree(dense, probes, model, params, ref, sec, mode)


@pytest.mark.parametrize("mode", list(MatchMode))
def test_match_pixel_agrees_where_self_windows_clip(mode):
    # 32 interior columns at block 9 and R = 32: every pixel's self-map
    # window and candidate range reach past both sides of the grid
    ref, sec, _ = gen_translated_pair(40, 20, 2, texture_seed=25)
    params = AcbmParams(search_radius=32)
    model = learn_background_model(sec)
    dense = match_pair(ref, sec, params, basis=model.basis, mode=mode)
    probes = [(x, y) for y in (5, 13) for x in range(4, 36)]
    states = assert_pixels_agree(dense, probes, model, params, ref, sec,
                                 mode)
    assert len(states) > 1


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
    ys = sorted(r + half for r in probe_rows)
    probes = [(x, y) for y in ys for x in range(half, ref.width - half)]
    states = assert_pixels_agree(dense, probes, model, params, ref, sec,
                                 mode)
    assert CellState.ACCEPTED in states and len(states) > 1
    rejected = dense.state[ys] != CellState.ACCEPTED
    assert (dense.disparity[ys][rejected] == 0).all()
    assert np.isnan(dense.nfa[ys][rejected]).all()


@pytest.fixture(scope="module")
def non_integer_pair():
    """Non-integer noise above period-2 stripes, shifted by 2: a cross SSD
    and a self SSD can be sums of the same squares, so their comparison
    depends on the rounding of every block sum, which must not depend on
    where a band starts."""
    pixels = np.random.default_rng(22).normal(128.0, 40.0, (70, 48))
    pixels[30:] = np.where(np.arange(48) % 2, 200.5, 60.25)
    ref = GrayImage(pixels)
    sec = GrayImage(np.roll(pixels, 2, axis=1))
    params = AcbmParams(search_radius=3, block_side=5)
    model = learn_background_model(sec, 5)
    return ref, sec, params, model


@pytest.fixture(scope="module")
def narrow_pair():
    """12 interior columns at block side 9: a one-row band projects 12
    blocks, a 32-row band 384."""
    ref, sec, _ = gen_translated_pair(20, 60, 1, texture_seed=23)
    params = AcbmParams(search_radius=3)
    return ref, sec, params, learn_background_model(sec)


@pytest.fixture(scope="module")
def block17_pair():
    """10 interior columns at block side 17, under a dense orthonormal
    basis: every coefficient sums 289 rounded products.  (Under an identity
    basis each product but one is exactly 0, so no row count could change
    a coefficient.)"""
    pixels = np.random.default_rng(24).integers(0, 256, (50, 26)) * 1.0
    pixels[30:] = np.where(np.arange(26) % 2, 255.0, 0.0)
    ref = GrayImage(pixels)
    sec = GrayImage(np.roll(pixels, 2, axis=1))
    rng = np.random.default_rng(17)
    vectors = np.linalg.qr(rng.normal(size=(289, 289)))[0]
    basis = PatchBasis(17, np.full(289, 128.0), vectors, np.ones(289))
    params = AcbmParams(search_radius=3, block_side=17, num_components=12)
    return ref, sec, params, training_ranks(basis, sec, np.arange(289))[0]


@pytest.mark.parametrize("band_rows", [1, 7, 1000])
def test_match_pair_independent_of_band_height(banded_pair, non_integer_pair,
                                               narrow_pair, block17_pair,
                                               band_rows, monkeypatch):
    for ref, sec, params, model in (banded_pair, non_integer_pair,
                                    narrow_pair, block17_pair):
        every = np.arange(model.basis.size)

        def outputs():
            tables, ranks = training_ranks(model.basis, sec, every)
            return [tables.cdfs.tobytes(), ranks.tobytes()] + [
                dmap_bytes(match_pair(ref, sec, params, basis=model.basis,
                                      mode=mode)) for mode in MatchMode]

        expected = outputs()
        with monkeypatch.context() as patch:
            patch.setattr(bands, "BAND_ROWS", band_rows)
            assert outputs() == expected, params.block_side


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
    model, _ = training_ranks(basis, sec, np.arange(basis.size))
    for count in (5, 9, 25):
        order, _ = component_order(ref, basis, count)
        want_order, want_h = oracle_reference_tables(ref, basis, model.cdfs,
                                                     count)
        assert order.shape == want_order.shape == (86 * 44, count)
        assert order.dtype == np.uint8
        assert np.array_equal(order, want_order)
        # the whole model and one that holds only the components order uses
        used, _ = training_ranks(basis, sec, np.unique(order))
        for tables in (model, used):
            slots, h_ref = reference_tables(ref, tables, order)
            assert slots.shape == order.shape and slots.dtype == np.uint8
            assert np.array_equal(tables.components[slots], order)
            assert h_ref.tobytes() == want_h.tobytes()


@pytest.mark.parametrize("width, height", [(5, 45), (5, 5), (45, 50)],
                         ids=["one-column", "single-block", "short-last-band"])
def test_row_streamed_tables_equal_whole_image_projection(width, height):
    # each pass projects one interior row at a time; its tables have the
    # bits of one projection of the whole image, and the image is left as
    # it was (a one-column or one-block interior is a view of its pixels)
    image = gen_texture(width, height, seed=width + height)
    pixels = image.pixels.copy()
    basis = compute_patch_basis(gen_texture(40, 40, seed=1), 5)
    # every image's last band is shorter than BAND_ROWS
    assert (height - 4) % bands.BAND_ROWS
    assert np.may_share_memory(interior_blocks(image, 5),
                               image.pixels) == (width == 5)
    coeffs = project(basis, interior_blocks(image, 5))
    order, tested = component_order(image, basis, 9)
    assert np.array_equal(order, core.top_components(coeffs, 9))
    assert tested.tobytes() == np.take_along_axis(coeffs, order,
                                                  axis=1).tobytes()
    if len(coeffs) < 2:
        with pytest.raises(ImageTooSmall):
            patch_model.training_values(basis, image, np.arange(25))
    else:
        values = patch_model.training_values(basis, image, np.arange(3, 20))
        assert values.tobytes() == coeffs[:, 3:20].T.copy().tobytes()
    model, _ = training_ranks(basis, gen_texture(30, 30, seed=2),
                              np.unique(order))
    slots, h_ref = reference_tables(image, model, order)
    h = np.stack([cdf_eval(cdf, coeffs[:, i])
                  for i, cdf in zip(model.components, model.cdfs)], axis=1)
    assert np.array_equal(model.components[slots], order)
    assert h_ref.tobytes() == np.take_along_axis(h, slots, axis=1).tobytes()
    assert image.pixels.tobytes() == pixels.tobytes()


@pytest.mark.parametrize("count", [20, 30])
def test_reference_tables_rejects_wrong_cdf_count(count):
    # the model checks its own size: a wrong one is never built
    img = gen_texture(40, 40, seed=1)
    model = learn_background_model(img, 5)
    order, _ = component_order(img, model.basis, 9)
    cdfs = np.resize(model.cdfs, (count, model.cdfs.shape[1]))
    with pytest.raises(DimensionMismatch):
        reference_tables(img, BackgroundModel(model.basis, cdfs), order)


def test_model_missing_a_needed_component_is_rejected(small_pair):
    ref, sec, params, model = small_pair
    order, _ = component_order(ref, model.basis, params.num_components)
    used = np.unique(order)
    assert used.size > 1
    for lost in (used[0], used[-1]):
        partial, _ = training_ranks(model.basis, sec, used[used != lost])
        with pytest.raises(DimensionMismatch):
            reference_tables(ref, partial, order)
        # a pixel whose top components include the lost one
        k = np.flatnonzero((order == lost).any(axis=1))[0]
        y, x = divmod(int(k), ref.width - params.block_side + 1)
        half = params.block_side // 2
        with pytest.raises(DimensionMismatch):
            match_pixel((x + half, y + half), partial, params, ref, sec)
    # a model that holds what a pixel tests decides as the whole one
    partial, _ = training_ranks(model.basis, sec, used)
    for q in [(6, 5), (20, 14), (33, 24)]:
        assert match_pixel(q, partial, params, ref, sec) == \
            match_pixel(q, model, params, ref, sec)


@pytest.mark.parametrize("components", [[], [3, 1], [0, 0], [-1, 2], [25]])
def test_model_components_must_ascend_inside_the_basis(components):
    basis = PatchBasis(5, np.zeros(25), np.eye(25), np.ones(25))
    with pytest.raises(DimensionMismatch):
        BackgroundModel(basis, np.zeros((len(components), 4)),
                        np.array(components, dtype=int))


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


@pytest.mark.skipif(bands._openblas() is None,
                    reason="numpy's OpenBLAS thread count cannot be set")
def test_learned_basis_ignores_the_callers_blas_threads(monkeypatch):
    # a product on two BLAS threads gets other bits than on one: the
    # covariance of this texture's 17x17 blocks, and a projection of this
    # pair's last secondary band (80 blocks).  Every product runs on one
    # BLAS thread, so no output depends on the caller's count, and each
    # call leaves that count as it found it
    class Covariance(Exception):
        pass

    def capture(matrix):
        # the 289x289 solve takes seconds and makes no BLAS product
        raise Covariance(matrix.tobytes())

    texture = gen_texture(48, 44, seed=0)
    ref, sec, _ = gen_translated_pair(48, 42, 1, texture_seed=3)
    params = AcbmParams(search_radius=3, block_side=9)
    probes = [(x, y) for y in (4, 20, 37) for x in range(4, 44, 3)]
    get, put = bands._openblas()
    before = get()
    covariances, outputs = [], []
    try:
        for threads in (1, 2):
            put(threads)
            with monkeypatch.context() as patched:
                patched.setattr(patch_model, "jacobi_eigh", capture)
                with pytest.raises(Covariance) as cov:
                    compute_patch_basis(texture, 17)
            covariances.append(cov.value.args[0])
            assert get() == threads
            dmap = match_pair(ref, sec, params)   # learns the basis
            assert get() == threads
            model = learn_background_model(sec, 9)
            assert get() == threads
            pixels = [match_pixel(q, model, params, ref, sec) for q in probes]
            assert get() == threads
            false_alarms = monte_carlo_false_alarms(ref, model, params, 1)
            assert get() == threads
            outputs.append((dmap_bytes(dmap), model.cdfs.tobytes(), pixels,
                            false_alarms))
    finally:
        put(before)
    assert covariances[0] == covariances[1]
    assert outputs[0] == outputs[1]


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
    pixels = np.random.default_rng(12).integers(0, 256, (48, 44)) * 1.0
    pixels[24:] = np.where(np.arange(44) % 2, 255.0, 0.0)
    ref = GrayImage(pixels)
    sec = GrayImage(np.roll(pixels, 2, axis=1))
    params = AcbmParams(search_radius=3, block_side=17, num_components=12)
    basis = PatchBasis(17, np.full(289, 128.0), np.eye(289), np.ones(289))
    model = training_ranks(basis, sec, np.arange(289))[0]
    order, _ = component_order(ref, basis, 12)
    assert order.dtype == np.uint16 and order.max() > 255
    probes = [(x, y) for y in (8, 28, 39) for x in range(8, 36, 3)]
    states = set()
    for mode in MatchMode:
        dense = match_pair(ref, sec, params, basis=model.basis, mode=mode)
        states |= assert_pixels_agree(dense, probes, model, params, ref, sec,
                                      mode)
    assert len(states) == 3


def test_match_pixel_agrees_on_non_integer_image():
    # the block-17 scene with non-integer noise: at pixel (20, 28) the NFA
    # ties for d = -2, 0, 2, and the cross SSD of d = 0 equals the minimal
    # self SSD in exact arithmetic, so a veto whose sums round differently
    # from the direct ones decides otherwise there (and at 153 more pixels)
    pixels = np.random.default_rng(12).normal(128, 40, (48, 44))
    pixels[24:] = np.where(np.arange(44) % 2, 255.0, 0.0)
    ref = GrayImage(pixels)
    sec = GrayImage(np.roll(pixels, 2, axis=1))
    params = AcbmParams(search_radius=3, block_side=17, num_components=12)
    basis = PatchBasis(17, np.full(289, 128.0), np.eye(289), np.ones(289))
    model = training_ranks(basis, sec, np.arange(289))[0]
    dense = match_pair(ref, sec, params, basis=basis)
    assert dense.state[28, 20] == CellState.SELF_SIMILAR
    probes = [(x, y) for y in range(8, 40) for x in range(8, 36)]
    assert_pixels_agree(dense, probes, model, params, ref, sec,
                        MatchMode.ACBM_SS)


@pytest.mark.parametrize("mode", list(MatchMode))
def test_match_pixel_agrees_on_the_saturated_square(mode):
    # the saturated-square probe of ROADMAP.md: its ties make decisions
    # turn on the last bit of a projection (first at pixel (16, 8)), so
    # both paths must give each block the same bits
    pixels = gen_texture(64, 64, seed=3).pixels
    pixels[8:56, 8:56] = 255.0
    ref = GrayImage(pixels)
    sec = GrayImage(np.roll(pixels, -2, axis=1))
    params = AcbmParams(search_radius=5)
    model = learn_background_model(sec)
    dense = match_pair(ref, sec, params, basis=model.basis, mode=mode)
    probes = [(x, y) for y in range(4, 60) for x in range(4, 60)]
    assert_pixels_agree(dense, probes, model, params, ref, sec, mode)


@pytest.mark.parametrize("scene", [saturated, flat, non_integer],
                         ids=lambda s: s.__name__)
@pytest.mark.parametrize("power", [-40, 60, 100])
def test_decisions_invariant_under_power_of_two_scaling(scene, power):
    # scaling by 2^k scales the covariance by 4^k and SSDs by 4^k exactly,
    # and leaves rotations and CDF values with their bits; 255 * 2^100 is
    # well inside GrayImage's float32 bound
    ref, sec = (GrayImage(np.ldexp(image.pixels, power)) for image in scene())
    basis = compute_patch_basis(sec, 9)
    params = AcbmParams(search_radius=5, epsilon=1e6)
    for mode in MatchMode:
        dmap = match_pair(ref, sec, params, basis=basis, mode=mode)
        assert digest(dmap) == EXPECTED[scene][mode.value, 1e6], mode


@pytest.mark.parametrize("shift, expected", [(1, -1), (2, 0)])
def test_exact_ties_follow_candidate_order(shift, expected):
    # period-2 stripes: a block equals the blocks two columns away, so at
    # shift 1 the candidates d = -1 and 1 tie exactly and the negative one
    # wins; at shift 2, d = -2, 0 and 2 tie and the smallest |d| wins
    ref, sec, _ = gen_translated_pair(40, 40, shift, texture_seed=5,
                                      stripe_rows=(12, 28), stripe_period=2)
    params = AcbmParams(search_radius=3, block_side=5, num_components=5,
                        epsilon=1e6)
    model = learn_background_model(sec, 5)
    mode = MatchMode.ACBM_ONLY   # the veto rejects every striped pixel
    dense = match_pair(ref, sec, params, basis=model.basis, mode=mode)
    # blocks inside the stripes whose candidates all fit in the image
    inside = np.s_[14:26, 5:35]
    assert (dense.state[inside] == CellState.ACCEPTED).all()
    assert (dense.disparity[inside] == expected).all()
    for y in (14, 19, 25):
        for x in range(5, 35, 2):
            nfas = {s.disparity: s.nfa
                    for s in scan_candidates((x, y), model, params, ref, sec)}
            assert nfas[expected] == nfas[expected + 2] == min(nfas.values())
            got = match_pixel((x, y), model, params, ref, sec, mode=mode)
            assert got.state == dense.state[y, x] == CellState.ACCEPTED
            assert got.disparity == dense.disparity[y, x] == expected


# ------------------------------------------------------ pruning at the floor

def nfa_floor(n_test, params):
    """candidate_nfa_block's NFA with every component at quantizer index 0:
    equal CDF values give a resemblance probability of 0."""
    h = np.full((1, params.num_components), 0.3)
    return candidate_nfa_block(h, h, n_test, params.num_levels)[0]


@pytest.mark.parametrize("num_components, num_levels, kind", [
    (9, 1, "n_test"), (9, 5, "normal"), (1, 1070, "subnormal"),
    (2, 600, "zero")])
def test_scan_band_floor_is_the_nfa_at_index_0(num_components, num_levels,
                                               kind):
    # scan_band drops a pixel from the scan once its best NFA is the floor:
    # after a first candidate at the floor, nfa_at is never called again,
    # and one ulp above it every pixel stays active
    ref, sec, _ = gen_translated_pair(16, 9, 1, texture_seed=2)
    params = AcbmParams(search_radius=2, block_side=5,
                        num_components=num_components, num_levels=num_levels)
    n_test = core.number_of_tests(16 * 9, params)
    floor = nfa_floor(n_test, params)
    if kind == "n_test":
        assert floor == n_test
    elif kind == "subnormal":
        assert 0.0 < floor < np.finfo(float).tiny
    elif kind == "zero":
        assert floor == 0.0
    grid = slice(0, 5), slice(2, 10)   # every candidate fits in sec
    for first, calls_left in ((floor, 0), (np.nextafter(floor, 1.0), 4)):
        masks = []

        def nfa_at(d, lo, hi, active):
            masks.append(active.copy())
            return np.where(active, first, np.inf)

        for mode in (MatchMode.ACBM_ONLY, MatchMode.ACBM_SS):
            masks.clear()
            scan_band(*grid, nfa_at, ref, sec, params, mode)
            assert len(masks) == 1 + calls_left
            assert all(m.all() for m in masks)


@pytest.mark.parametrize("mode", list(MatchMode))
def test_scan_band_narrows_to_the_active_columns(mode, monkeypatch):
    # pixels of the first four columns reach the floor at d = 0: every
    # later nfa_at call and cross SSD map starts at column 6
    ref, sec, _ = gen_translated_pair(16, 9, 0, texture_seed=2)
    params = AcbmParams(search_radius=2, block_side=5)
    floor = nfa_floor(core.number_of_tests(16 * 9, params), params)
    windows, cross = [], []
    aligned = self_sim.aligned_ssd_map

    def recording(img_a, img_b, shift, side, rows, cols):
        out = aligned(img_a, img_b, shift, side, rows, cols)
        if img_b is not sec:
            return out
        cross.append((cols.start, cols.stop))
        # in ss mode, a cross SSD of 0 is the floor
        return np.where(np.arange(cols.start, cols.stop) < 6, 0.0, out + 1)

    def nfa_at(d, lo, hi, active):
        windows.append((lo, hi))
        assert active.all()
        return np.where(np.arange(lo, hi) < 6, floor, 1.0)

    monkeypatch.setattr(self_sim, "aligned_ssd_map", recording)
    scan_band(slice(0, 5), slice(2, 10), nfa_at, ref, sec, params, mode)
    assert windows[0] == (2, 10)
    assert windows[1:] and all(w == (6, 10) for w in windows[1:])
    if mode is not MatchMode.ACBM_ONLY:
        assert cross == windows


def full_nfa_table(ref, sec, params, basis, monkeypatch):
    """match_pair's own nfa_at asked for every cell of the interior grid:
    {d: NFAs, NaN where the block at d leaves sec}."""
    side = params.block_side
    wi_s = sec.width - side + 1
    grid = patch_model.interior_shape(ref, side)
    table = {d: np.full(grid, np.nan) for d in params.candidate_order()}
    scan = pipeline.scan_band

    def every_cell(rows, cols, nfa_at, *args):
        for d, nfa in table.items():
            lo, hi = max(cols.start, -d), min(cols.stop, wi_s - d)
            if lo < hi:
                everywhere = np.ones((rows.stop - rows.start, hi - lo), bool)
                nfa[rows, lo:hi] = nfa_at(d, lo, hi, everywhere)
        return scan(rows, cols, nfa_at, *args)

    with monkeypatch.context() as m:
        m.setattr(pipeline, "scan_band", every_cell)
        match_pair(ref, sec, params, basis=basis)
    return table


def exact_shift():
    return gen_translated_pair(64, 48, 2, texture_seed=4)[:2]


@pytest.mark.parametrize("scene", [exact_shift, striped, saturated, flat],
                         ids=lambda s: s.__name__)
def test_pruned_scan_equals_unpruned(scene, monkeypatch):
    # an nfa_at that honours active and one that scores every cell give the
    # same bytes, and so does match_pair, at epsilon below, at and above
    # the floor
    ref, sec = scene()
    basis = compute_patch_basis(sec, 9)
    params = AcbmParams(search_radius=5)
    table = full_nfa_table(ref, sec, params, basis, monkeypatch)
    floor = nfa_floor(core.number_of_tests(ref.width * ref.height, params),
                      params)
    assert any((nfa == floor).any() for nfa in table.values())
    every = sum((~np.isnan(nfa)).sum() for nfa in table.values())
    grid = tuple(slice(0, n) for n in patch_model.interior_shape(ref, 9))
    inside = np.s_[4:-4, 4:-4]
    scored = []

    def pruned(d, lo, hi, active):
        scored.append(active.sum())
        return np.where(active, table[d][:, lo:hi], np.inf)

    def unpruned(d, lo, hi, active):
        return table[d][:, lo:hi]

    for epsilon in (floor / 2, floor, 2 * floor, 1e6):
        p = replace(params, epsilon=epsilon)
        for mode in MatchMode:
            want = scan_band(*grid, unpruned, ref, sec, p, mode)
            scored.clear()
            got = scan_band(*grid, pruned, ref, sec, p, mode)
            # the pixels at the floor skip some of their candidates
            assert sum(scored) < every
            dmap = match_pair(ref, sec, p, basis=basis, mode=mode)
            dense = (dmap.state[inside], dmap.disparity[inside],
                     dmap.nfa[inside])
            for a, b, c in zip(want, got, dense):
                assert a.tobytes() == b.tobytes(), (epsilon, mode)
                assert a.astype(c.dtype).tobytes() == c.tobytes(), (
                    epsilon, mode)


def test_pruning_skips_most_cells_of_an_exact_shift(monkeypatch):
    # d = 2 is the fifth of eleven candidates; a pixel that reaches the
    # floor there needs no NFA at the last six
    ref, sec = exact_shift()
    params = AcbmParams(search_radius=5)
    basis = compute_patch_basis(sec, 9)
    scored = []
    score = pipeline.candidate_nfa_block

    def counting(hq, hqp, n_test, num_levels):
        scored.append(hqp.size // hqp.shape[-1])
        return score(hq, hqp, n_test, num_levels)

    monkeypatch.setattr(pipeline, "candidate_nfa_block", counting)
    dmap = match_pair(ref, sec, params, basis=basis, mode=MatchMode.ACBM_ONLY)
    hi, wi = patch_model.interior_shape(ref, 9)
    every = sum(hi * (min(wi, wi - d) - max(0, -d))
                for d in params.candidate_order())
    assert (dmap.disparity[dmap.accepted] == 2).mean() > 0.9
    assert sum(scored) < 0.6 * every


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
    and scan: sorted values and integer ranks of the 51 of 81 components
    the reference uses, and the band tables, 24.6 MB (27.0 MB when
    match_pair kept component_order's coefficient table alive, 33 MB when
    each band task projected its whole band at once, 44 MB with all 81
    components, 63 MB with a float CDF-value table in place of the
    ranks)."""
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
    assert match_peak < 26e6


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
    with pytest.raises(BlockOutOfBounds):
        scan_candidates((0, 0), model, params, ref, sec)
    with pytest.raises(BlockOutOfBounds):
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


def densify_oracle(dmap):
    """densify_median written one pixel at a time."""
    state, disparity, nfa = (dmap.state.copy(), dmap.disparity.copy(),
                             dmap.nfa.copy())
    for y in range(dmap.height):
        for x in range(dmap.width):
            if dmap.state[y, x] in (CellState.ACCEPTED, CellState.BORDER):
                continue
            near = [(dmap.disparity[v, u], dmap.nfa[v, u])
                    for v in range(max(y - 1, 0), min(y + 2, dmap.height))
                    for u in range(max(x - 1, 0), min(x + 2, dmap.width))
                    if dmap.state[v, u] == CellState.ACCEPTED]
            if len(near) >= 5:
                ds = sorted(d for d, _ in near)
                state[y, x] = CellState.ACCEPTED
                disparity[y, x] = ds[(len(ds) - 1) // 2]
                nfa[y, x] = min(f for _, f in near)
    return state, disparity, nfa


def test_densify_matches_per_pixel_oracle():
    rng = np.random.default_rng(41)
    sizes = [(1, 1), (1, 40), (40, 1), (40, 40)]
    sizes += [tuple(rng.integers(1, 41, size=2)) for _ in range(16)]
    for h, w in sizes:
        state = rng.choice(np.array(list(CellState), dtype=np.uint8),
                           size=(h, w), p=[0.6, 0.2, 0.1, 0.1])
        disparity = rng.integers(-20, 21, size=(h, w))
        nfa = np.where(state == CellState.ACCEPTED,
                       10.0 ** rng.uniform(-12, 0, size=(h, w)), np.nan)
        out = densify_median(map_from_states(state, disparity, nfa))
        want = densify_oracle(map_from_states(state, disparity, nfa))
        assert out.state.tobytes() == want[0].tobytes(), (h, w)
        assert out.disparity.tobytes() == want[1].tobytes(), (h, w)
        assert out.nfa.tobytes() == want[2].tobytes(), (h, w)
