"""Criterion 6 across the parameter space: scan_candidates and match_pair
(--mode acbm) against the naive oracle of tests/test_acceptance.py, over
block sides, component counts, quantizer levels, search radii and
epsilons, on small scenes with saturated squares and noise."""
import itertools

import numpy as np
import pytest

from acbm import (AcbmParams, GrayImage, MatchMode, core, gen_texture,
                  learn_background_model, match_pair, pipeline)
from acbm.imgio import CellState
from acbm.patch_model import cdf_eval, interior_blocks, project
from acbm.pipeline import scan_candidates
from test_acceptance import oracle_pixel

WIDTH, HEIGHT = 18, 14
EPSILONS = (1e-3, 1.0, 1e6)


def scene(k):
    """18x14 texture shifted by 1 or 2; k = 1 and 3 saturate a square, and
    k = 2 and 3 add rounded Gaussian noise to the secondary image."""
    pixels = gen_texture(WIDTH, HEIGHT, seed=40 + k).pixels
    if k % 2:
        pixels[3:11, 5:13] = 255.0
    sec = np.roll(pixels, -1 - k % 2, axis=1)
    if k >= 2:
        noise = np.random.default_rng(k).normal(0.0, 3.0, sec.shape)
        sec = np.clip(sec + np.rint(noise), 0.0, 255.0)
    return GrayImage(pixels), GrayImage(sec)


def settings():
    """(scene, block side, N, L, R) over the whole grid of block side, N, L
    and R, the scene cycling through the four."""
    grid = [(side, n, levels, radius)
            for side in (3, 5, 7)
            for n in sorted({1, 2, side * side // 2, side * side})
            for levels in (1, 2, 3, 7)
            for radius in (0, 1, 4)]
    return [(k % 4, *setting) for k, setting in enumerate(grid)]


def one_block_values(image, model):
    """Coefficients and CDF values of every component at every interior
    block, each block projected on its own, as the oracle does."""
    coeffs = np.stack([project(model.basis, b)
                       for b in interior_blocks(image, model.basis.block_side)])
    return coeffs, np.stack([cdf_eval(cdf, coeffs[:, i])
                             for i, cdf in enumerate(model.cdfs)], axis=1)


def sharp_pixels(ref, sec, model, params):
    """Interior (x, y) where one ulp can move the decision: candidates that
    tie for the best NFA, or a resemblance probability within 1e-9 of a
    quantizer level at a candidate whose NFA is at most twice the best
    (crossing a level doubles or halves an NFA)."""
    side, n, levels = params.block_side, params.num_components, \
        params.num_levels
    half = side // 2
    coeffs, h_ref = one_block_values(ref, model)
    h_sec = one_block_values(sec, model)[1]
    hi, wi = ref.height - side + 1, ref.width - side + 1
    h_sec = h_sec.reshape(hi, sec.width - side + 1, -1)
    order = core.top_components(coeffs, n).reshape(hi, wi, n)
    hq = np.take_along_axis(h_ref.reshape(hi, wi, -1), order, axis=2)
    level = 2.0 ** -np.arange(1, levels)
    radius = params.search_radius
    nfa = np.full((2 * radius + 1, hi, wi), np.inf)
    near = np.zeros(nfa.shape, dtype=bool)
    for k, d in enumerate(range(-radius, radius + 1)):
        cols = np.arange(max(0, -d), min(wi, h_sec.shape[1] - d))
        hp = np.take_along_axis(h_sec[:, cols + d], order[:, cols], axis=2)
        p = core.resemblance_probability(hq[:, cols], hp)
        near[k][:, cols] = (np.abs(p[..., None] - level)
                            <= 1e-9 * level).any(axis=(2, 3))
        nfa[k][:, cols] = pipeline.candidate_nfa_block(hq[:, cols], hp, 1,
                                                       levels)
    best = nfa.min(axis=0)
    sharp = ((nfa == best).sum(axis=0) > 1) | (near & (nfa <= 2 * best)).any(
        axis=0)
    return [(x + half, y + half) for y, x in zip(*np.nonzero(sharp))]


@pytest.fixture(scope="module")
def models():
    scenes = [scene(k) for k in range(4)]
    return {(k, side): (ref, sec, learn_background_model(sec, side))
            for k, (ref, sec) in enumerate(scenes) for side in (3, 5, 7)}


def test_oracle_equivalence_across_parameters(models):
    rng = np.random.default_rng(15)
    checked = sharp_checked = 0
    for k, side, n, levels, radius in settings():
        ref, sec, model = models[k, side]
        params = AcbmParams(search_radius=radius, block_side=side,
                            num_components=n, num_levels=levels)
        n_test = core.number_of_tests(WIDTH * HEIGHT, params)
        half = side // 2
        interior = list(itertools.product(range(half, WIDTH - half),
                                          range(half, HEIGHT - half)))
        # the sharp pixels first, then others, a few per setting
        sharp = sharp_pixels(ref, sec, model, params)
        rest = sorted(set(interior) - set(sharp))
        probes = ([sharp[i] for i in rng.permutation(len(sharp))[:24]]
                  + [rest[i] for i in rng.permutation(len(rest))[:4]])
        dense = [match_pair(ref, sec, AcbmParams(
            search_radius=radius, block_side=side, num_components=n,
            num_levels=levels, epsilon=eps), basis=model.basis,
            mode=MatchMode.ACBM_ONLY) for eps in EPSILONS]
        for j, (x, y) in enumerate(probes):
            naive = oracle_pixel((x, y), ref, sec, model, params, n_test)
            where = (k, side, n, levels, radius, x, y)
            if j % 4 == 0:
                scores = scan_candidates((x, y), model, params, ref, sec)
                assert [s.disparity for s in scores] == \
                    [d for d, _, _ in naive], where
                for s, (d, quant, value) in zip(scores, naive):
                    assert s.quantized == quant, where
                    assert abs(s.nfa - value) <= 1e-9 * value, where
            best = min(naive, key=lambda c: (c[2], abs(c[0]), c[0]))
            for eps, dmap in zip(EPSILONS, dense):
                if best[2] <= eps:
                    assert dmap.state[y, x] == CellState.ACCEPTED, where
                    assert dmap.disparity[y, x] == best[0], where
                    assert abs(dmap.nfa[y, x] - best[2]) <= 1e-9 * best[2], \
                        where
                else:
                    assert dmap.state[y, x] == CellState.NOT_MEANINGFUL, \
                        where
            checked += 1
        sharp_checked += min(len(sharp), 24)
    assert sharp_checked > 0.7 * checked
