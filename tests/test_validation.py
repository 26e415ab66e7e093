"""Synthetic generators, ground-truth loading, accuracy metrics, the
Monte-Carlo check."""
import hashlib
import math

import numpy as np
import pytest

from acbm import (AcbmParams, bands, core, evaluate, gen_noise_pair,
                  gen_texture, imgio, patch_model, pipeline, validation)
from acbm.errors import DimensionMismatch, UnsupportedFormat
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


@pytest.mark.parametrize("name", ["gt.pgm", "gt.tsv"])
def test_ground_truth_reads_the_file_once(tmp_path, monkeypatch, name):
    path = tmp_path / name
    if name == "gt.pgm":
        save_pgm(GrayImage(np.full((2, 2), 130.0)), path)
    else:
        path.write_text("2\tNaN\n-1\t0\n")
    read_file, reads = imgio.read_file, []

    def counted(p):
        reads.append(p)
        return read_file(p)

    monkeypatch.setattr(imgio, "read_file", counted)
    monkeypatch.setattr(validation, "read_file", counted)
    gt = load_ground_truth(path)
    assert reads == [path]
    assert gt.disparity.shape == (2, 2)


@pytest.mark.parametrize("data", [
    b"PF\n2 2\n-1.0\n" + np.full(12, 1.5, "<f4").tobytes(),   # colour PFM
    b"P6\n2 2\n255\n" + bytes(12),                             # colour PPM
], ids=["PF", "P6"])
def test_ground_truth_in_an_unsupported_image_format(tmp_path, data):
    path = tmp_path / "gt.img"
    path.write_bytes(data)
    with pytest.raises(UnsupportedFormat, match="gt.img"):
        load_ground_truth(path)


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


def test_monte_carlo_rejects_another_block_side(saturated_model):
    img, model = saturated_model   # learned at block side 9
    with pytest.raises(DimensionMismatch, match="block side 9 != params "
                                                "block side 5"):
        monte_carlo_false_alarms(img, model, AcbmParams(search_radius=2,
                                                        block_side=5),
                                 trials=1)


def test_monte_carlo_rejects_a_partial_model(saturated_model):
    # a drawn block needs only the components the reference tests
    img, model = saturated_model
    params = AcbmParams(search_radius=2, epsilon=1e6)
    order = pipeline.component_order(img, model.basis, params.num_components)
    used = np.unique(order)
    assert used.size < 81
    whole = monte_carlo_false_alarms(img, model, params, trials=2, seed=9)
    partial, _ = patch_model.training_ranks(model.basis, img, used)
    assert monte_carlo_false_alarms(img, partial, params, trials=2,
                                    seed=9) == whole
    lacking, _ = patch_model.training_ranks(
        model.basis, img, np.delete(np.arange(81), used[0]))
    with pytest.raises(DimensionMismatch):
        monte_carlo_false_alarms(img, lacking, params, trials=1)


def unbanded_false_alarms(image, model, params, trials, seed):
    """The Monte-Carlo round loop over the whole image at once."""
    cdfs = model.cdfs
    order = pipeline.component_order(image, model.basis, params.num_components)
    slots, hq = pipeline.reference_tables(image, model, order)
    n_test = core.number_of_tests(image.width * image.height, params)
    m = cdfs.shape[1]
    counts = []
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        hits = 0
        for _ in range(2 * params.search_radius + 1):
            # a sorted training position per cell, scored by its rank here,
            # independently of last_ranks
            drawn = rng.integers(m, size=order.shape)
            hqp = np.empty(order.shape)
            for r, cdf in enumerate(cdfs):
                at = slots == r
                hqp[at] = np.searchsorted(cdf, cdf[drawn[at]], "right") / m
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


def test_monte_carlo_counts_ignore_the_band_height(monkeypatch):
    # each reference block is its own product, so its coefficients keep
    # their bits whatever the band height, and a drawn block is a rank that
    # no product touches
    pixels = gen_texture(40, 48, seed=0).pixels
    pixels[10:30, 8:28] = 255.0
    img = GrayImage(pixels)
    model = learn_background_model(img)
    params = AcbmParams(search_radius=2, epsilon=1e6)
    counts = []
    for rows in (1, 7, 32):
        monkeypatch.setattr(bands, "BAND_ROWS", rows)
        counts.append(monte_carlo_false_alarms(img, model, params, trials=2,
                                               seed=9))
    assert counts[0] > 1000 and counts == counts[:1] * 3


def exact_false_alarms(image, model, params, trials):
    """Mean and standard deviation of the mean false-alarm count per trial
    of monte_carlo_false_alarms, from the exact law of each cell.

    A drawn component takes each of the m sorted training positions with
    probability 1/m, and scores that value's CDF value, the position's
    last-occurrence rank over m.  Quantized against the pixel's reference
    value this gives each slot's law over the level indices.  A dynamic
    programme over (running maximum, sum of running maxima) across the N
    slots, as in exact_h0_hit_probability, gives each pixel's hit
    probability; cells are independent Bernoulli trials."""
    levels, n = params.num_levels, params.num_components
    order = pipeline.component_order(image, model.basis, n)
    slots, hq = pipeline.reference_tables(image, model, order)
    n_test = core.number_of_tests(image.width * image.height, params)
    m = model.cdfs.shape[1]
    values = np.stack([np.searchsorted(cdf, cdf, "right") / m
                       for cdf in model.cdfs])
    top = (levels - 1) * n
    law = np.zeros((len(order), levels, top + 1))
    law[:, 0, 0] = 1.0
    for j in range(n):
        index = core.quantize_index(core.resemblance_probability(
            hq[:, j, None], values[slots[:, j]]), levels)
        p_level = np.stack([(index == lv).mean(axis=1)
                            for lv in range(levels)], axis=1)
        step = np.zeros_like(law)
        for run in range(levels):
            for lv in range(levels):
                mx = max(run, lv)
                step[:, mx, mx:] += (law[:, run, :top + 1 - mx]
                                     * p_level[:, lv, None])
        law = step
    nfa = n_test * np.ldexp(1.0, np.arange(top + 1) - top)
    p = law[:, :, nfa <= params.epsilon].sum(axis=(1, 2))
    rounds = 2 * params.search_radius + 1
    return (rounds * p.sum(),
            math.sqrt(rounds * (p * (1 - p)).sum() / trials))


@pytest.mark.parametrize("saturate", [False, True], ids=["plain",
                                                         "saturated"])
@pytest.mark.parametrize("components, epsilon, exact", [
    (1, 1e4, (1282.891, 1261.519)),
    (9, 1e3, (6.067, 6.354)),
], ids=["N1", "N9"])
def test_monte_carlo_mean_matches_the_exact_law(saturate, components,
                                                epsilon, exact):
    # ties included: the saturated square ties many training values
    pixels = gen_texture(40, 40, seed=4).pixels
    if saturate:
        pixels[8:24, 10:30] = 255.0
    img = GrayImage(pixels)
    model = learn_background_model(img)
    params = AcbmParams(search_radius=2, epsilon=epsilon,
                        num_components=components)
    expected, sd = exact_false_alarms(img, model, params, trials=20)
    assert round(expected, 3) == exact[saturate]
    mean = monte_carlo_false_alarms(img, model, params, trials=20, seed=0)
    assert abs(mean - expected) <= 5 * sd, (mean, expected, sd)
