"""Synthetic generators, ground-truth loading, accuracy metrics."""
import hashlib

import numpy as np
import pytest

from acbm import (AcbmParams, bands, core, evaluate, gen_noise_pair,
                  gen_texture, patch_model, pipeline)
from acbm.errors import DimensionMismatch
from acbm.imgio import DisparityMap, GrayImage, save_pgm
from acbm.patch_model import BackgroundModel, learn_background_model
from acbm.validation import (
    GroundTruth,
    gen_translated_pair,
    load_ground_truth,
    monte_carlo_false_alarms,
)


# -------------------------------------------------------------- generators

def test_noise_pair_deterministic_and_independent():
    a1, b1 = gen_noise_pair(64, 48, sigma=20.0, seed=5)
    a2, b2 = gen_noise_pair(64, 48, sigma=20.0, seed=5)
    assert np.array_equal(a1.pixels, a2.pixels)
    assert np.array_equal(b1.pixels, b2.pixels)
    assert not np.array_equal(a1.pixels, b1.pixels)
    c1, _ = gen_noise_pair(64, 48, sigma=20.0, seed=6)
    assert not np.array_equal(a1.pixels, c1.pixels)


def test_noise_pair_statistics():
    a, b = gen_noise_pair(128, 128, sigma=20.0, seed=0)
    for img in (a, b):
        assert img.pixels.shape == (128, 128)
        assert np.array_equal(img.pixels, np.rint(img.pixels))
        assert img.pixels.min() >= 0 and img.pixels.max() <= 255
        assert abs(img.pixels.mean() - 128.0) < 1.0
        assert abs(img.pixels.std() - 20.0) < 1.0


def test_texture_deterministic_integer_full_range():
    t1 = gen_texture(64, 40, seed=2)
    t2 = gen_texture(64, 40, seed=2)
    assert np.array_equal(t1.pixels, t2.pixels)
    assert t1.pixels.shape == (40, 64)
    assert np.array_equal(t1.pixels, np.rint(t1.pixels))
    assert t1.pixels.min() == 0.0 and t1.pixels.max() == 255.0
    # smoothing leaves neighboring pixels correlated
    flat = t1.pixels
    r = np.corrcoef(flat[:, :-1].ravel(), flat[:, 1:].ravel())[0, 1]
    assert r > 0.5


@pytest.mark.parametrize("size, seed, digest", [
    ((11, 9), 2,
     "646864c5e297c844eade57a634ff0498505ea07c7b5e17f3e65b341bfaae2f5f"),
    ((64, 40), 2,
     "5028384c4ae9fbc05275fc1e14decabc7b38ad0ace5fcc6bd68da454d9c6a5cb"),
    ((96, 96), 5,
     "f337f2f9532a60e6851e0f49f41136958b6b3edc36cad6b8574dc7deefd8cbda"),
    ((512, 512), 0,
     "1090b3d2eab7fe80f75f9435555f08f80688bf7a2fd1d361690f4420f6a0f211"),
])
def test_texture_bytes_frozen(size, seed, digest):
    # the criteria's inputs: a change to the generator changes them all
    pixels = gen_texture(*size, seed=seed).pixels
    assert hashlib.sha256(pixels.tobytes()).hexdigest() == digest


def test_translated_pair_geometry():
    ref, sec, gt = gen_translated_pair(32, 20, 3, texture_seed=1)
    assert np.array_equal(sec.pixels, np.roll(ref.pixels, 3, axis=1))
    assert (gt.disparity == 3.0).all()
    # the last `shift` reference columns wrapped around and are invalid
    assert (~gt.valid[:, 29:]).all()
    assert gt.valid[:, :29].all()


def test_translated_pair_negative_shift():
    _, _, gt = gen_translated_pair(32, 20, -2, texture_seed=1)
    assert (~gt.valid[:, :2]).all()
    assert gt.valid[:, 2:].all()


def test_translated_pair_stripes():
    ref, _, _ = gen_translated_pair(32, 24, 2, texture_seed=1,
                                    stripe_rows=(8, 16), stripe_period=4)
    band = ref.pixels[8:16]
    assert np.array_equal(band[:, :-4], band[:, 4:])        # periodic
    assert set(np.unique(band)) == {0.0, 255.0}
    outside = np.concatenate([ref.pixels[:8], ref.pixels[16:]])
    assert len(np.unique(outside)) > 2                      # still textured


def test_translated_pair_validation():
    with pytest.raises(ValueError):
        gen_translated_pair(16, 16, 16)
    with pytest.raises(ValueError):
        gen_translated_pair(16, 16, 2, stripe_rows=(10, 20))
    with pytest.raises(ValueError):
        gen_translated_pair(16, 16, 2, stripe_rows=(2, 10), stripe_period=1)


# ------------------------------------------------------------ ground truth

def test_ground_truth_from_pgm(tmp_path):
    values = np.array([[128, 136], [120, 128]], dtype=float)
    path = tmp_path / "gt.pgm"
    save_pgm(GrayImage(values), path)
    gt = load_ground_truth(path, scale=8.0, offset=128.0)
    assert gt.disparity.tolist() == [[0.0, 1.0], [-1.0, 0.0]]
    assert gt.valid.all()


def test_ground_truth_from_text(tmp_path):
    path = tmp_path / "gt.tsv"
    path.write_text("2\tNaN\n-1\t0\n")
    gt = load_ground_truth(path)
    assert gt.disparity[0, 0] == 2.0
    assert not gt.valid[0, 1]
    assert gt.valid[1, 0] and gt.valid[1, 1]


def test_ground_truth_mask(tmp_path):
    gt_path = tmp_path / "gt.pgm"
    save_pgm(GrayImage(np.full((2, 2), 130.0)), gt_path)
    mask_path = tmp_path / "mask.pgm"
    save_pgm(GrayImage(np.array([[255.0, 0.0], [255.0, 255.0]])), mask_path)
    gt = load_ground_truth(gt_path, mask_path=mask_path)
    assert gt.valid.tolist() == [[True, False], [True, True]]
    bad_mask = tmp_path / "wrong.pgm"
    save_pgm(GrayImage(np.zeros((3, 3))), bad_mask)
    with pytest.raises(DimensionMismatch):
        load_ground_truth(gt_path, mask_path=bad_mask)


def test_ground_truth_zero_scale(tmp_path):
    path = tmp_path / "gt.pgm"
    save_pgm(GrayImage(np.zeros((2, 2))), path)
    with pytest.raises(ValueError):
        load_ground_truth(path, scale=0.0)


# --------------------------------------------------------------- evaluate

def test_evaluate_counts():
    state = np.array([[0, 0, 1], [0, 0, 3]], dtype=np.uint8)
    disparity = np.array([[2, 5, 0], [2, 1, 0]], dtype=np.int32)
    nfa = np.where(state == 0, 0.5, np.nan)
    dmap = DisparityMap(state=state, disparity=disparity, nfa=nfa)
    gt = GroundTruth(disparity=np.full((2, 3), 2.0),
                     valid=np.array([[True, True, True],
                                     [False, True, True]]))
    rep = evaluate(dmap, gt)
    assert rep.total_pixels == 6
    assert rep.num_accepted == 4
    assert rep.num_evaluated == 3      # (1,0) is accepted but masked out
    assert rep.num_bad == 1            # only |5-2| exceeds one pixel
    assert rep.density_percent == pytest.approx(100 * 4 / 6)
    assert rep.bad_percent == pytest.approx(100 / 3)


def test_evaluate_tolerance_is_strict():
    dmap = DisparityMap(state=np.zeros((1, 2), dtype=np.uint8),
                        disparity=np.array([[3, 3]], dtype=np.int32),
                        nfa=np.zeros((1, 2)))
    gt = GroundTruth(disparity=np.array([[2.0, 1.99]]),
                     valid=np.ones((1, 2), dtype=bool))
    rep = evaluate(dmap, gt)
    assert rep.num_bad == 1            # |3-2| = 1 is fine, |3-1.99| is not


def test_evaluate_nothing_accepted():
    dmap = DisparityMap(state=np.ones((2, 2), dtype=np.uint8),
                        disparity=np.zeros((2, 2), dtype=np.int32),
                        nfa=np.full((2, 2), np.nan))
    gt = GroundTruth(disparity=np.zeros((2, 2)),
                     valid=np.ones((2, 2), dtype=bool))
    rep = evaluate(dmap, gt)
    assert rep.density_percent == 0.0
    assert rep.bad_percent == 0.0


def test_evaluate_shape_mismatch():
    dmap = DisparityMap(state=np.zeros((2, 2), dtype=np.uint8),
                        disparity=np.zeros((2, 2), dtype=np.int32),
                        nfa=np.zeros((2, 2)))
    gt = GroundTruth(disparity=np.zeros((3, 2)),
                     valid=np.ones((3, 2), dtype=bool))
    with pytest.raises(DimensionMismatch):
        evaluate(dmap, gt)


# -------------------------------------------------------------- monte carlo

def test_monte_carlo_deterministic_and_small():
    img = gen_texture(48, 48, seed=11)
    model = learn_background_model(img)
    params = AcbmParams(search_radius=2)
    m1 = monte_carlo_false_alarms(img, model, params, trials=3, seed=4)
    m2 = monte_carlo_false_alarms(img, model, params, trials=3, seed=4)
    assert m1 == m2
    assert m1 <= 2.0    # bound is epsilon = 1 in expectation
    with pytest.raises(ValueError):
        monte_carlo_false_alarms(img, model, params, trials=0)


@pytest.fixture(scope="module")
def saturated_model():
    # the saturated square ties its blocks in every component
    pixels = gen_texture(80, 72, seed=2).pixels
    pixels[10:50, 20:60] = 255.0
    img = GrayImage(pixels)
    return img, learn_background_model(img)


@pytest.mark.parametrize("count", [80, 82])
def test_monte_carlo_rejects_wrong_cdf_count(saturated_model, count):
    # the model checks its own size: a wrong one is never built
    img, model = saturated_model
    cdfs = np.resize(model.cdfs, (count, model.cdfs.shape[1]))
    with pytest.raises(DimensionMismatch):
        monte_carlo_false_alarms(img, BackgroundModel(model.basis, cdfs),
                                 AcbmParams(search_radius=2), trials=1)


def test_monte_carlo_rejects_a_partial_model(saturated_model):
    # a drawn block needs every component, used by the reference or not
    img, model = saturated_model
    params = AcbmParams(search_radius=2)
    order = pipeline.component_order(img, model.basis, params.num_components)
    used = np.unique(order)
    assert used.size < 81
    for components in (used, np.delete(np.arange(81), used[0])):
        partial, _ = patch_model.training_ranks(model.basis, img, components)
        with pytest.raises(DimensionMismatch):
            monte_carlo_false_alarms(img, partial, params, trials=1)


def unbanded_false_alarms(image, model, params, trials, seed):
    """The Monte-Carlo round loop over the whole image at once."""
    basis, cdfs = model.basis, model.cdfs
    order = pipeline.component_order(image, basis, params.num_components)
    _, hq = pipeline.reference_tables(image, model, order)
    n_test = core.number_of_tests(image.width * image.height, params)
    ranks = np.arange(1, cdfs.shape[1] + 1) / cdfs.shape[1]
    counts = []
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        hits = 0
        for _ in range(2 * params.search_radius + 1):
            # drawn and inverted here, independently of sample_coefficients
            u = rng.random((len(order), len(cdfs)))
            coeffs = np.stack([np.interp(u[:, i], ranks, cdf)
                               for i, cdf in enumerate(cdfs)], axis=1)
            blocks = basis.mean_block + coeffs @ basis.eigenvectors
            projected = patch_model.project(basis, blocks)
            hs = np.stack([patch_model.cdf_eval(cdf, projected[:, i])
                           for i, cdf in enumerate(cdfs)], axis=1)
            hqp = np.take_along_axis(hs, order, axis=1)
            nfas = pipeline.candidate_nfa_block(hq, hqp, n_test,
                                                params.num_levels)
            hits += int((nfas <= params.epsilon).sum())
        counts.append(hits)
    return float(np.mean(counts))


def test_monte_carlo_banded_equals_unbanded():
    # 112 interior rows at block side 9: three full bands and a partial one
    img = gen_texture(36, 120, seed=8)
    rows = img.height - 9 + 1
    assert len(bands.row_bands(rows)) == 4 and rows % bands.BAND_ROWS
    model = learn_background_model(img)
    params = AcbmParams(search_radius=2, epsilon=1e6)
    got = monte_carlo_false_alarms(img, model, params, trials=2, seed=9)
    assert got > 1000   # enough hits that a lost or doubled row would show
    assert got == unbanded_false_alarms(img, model, params, trials=2, seed=9)


@pytest.mark.parametrize("components, levels, epsilon", [
    (1, 5, 2e4),    # most components test no cell; at 1e6 every cell hits
    (9, 5, 1e6),
    (81, 5, 1e6),   # every cell of the candidate table is written
    (20, 12, 1e6),
])
def test_monte_carlo_component_groups_equal_unbanded(saturated_model,
                                                     components, levels,
                                                     epsilon):
    img, model = saturated_model
    params = AcbmParams(search_radius=2, epsilon=epsilon,
                        num_components=components, num_levels=levels)
    got = monte_carlo_false_alarms(img, model, params, trials=2, seed=9)
    assert 0 < got < 5 * 64 * 72   # the threshold passes some cells, not all
    assert got == unbanded_false_alarms(img, model, params, trials=2, seed=9)
