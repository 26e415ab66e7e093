"""Synthetic inputs, ground-truth handling, accuracy metrics and the
Monte-Carlo check of the false-alarm bound.

Generators are deterministic per seed and produce integer-valued images so
that PGM round-trips are lossless.  Evaluation follows one convention
everywhere: density is accepted pixels over all pixels of the reference
image, the bad-match rate counts accepted pixels inside the valid mask whose
disparity is more than one pixel off.  The Monte-Carlo check scores a drawn
block as match_pair scores a secondary block, by its training values' ranks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, patch_model, pipeline
from .errors import DimensionMismatch
from .imgio import (DisparityMap, GrayImage, load_gray, parse_disparity,
                    parse_gray, read_file)
from .self_sim import window_sums


@dataclass(eq=False)
class GroundTruth:
    disparity: np.ndarray  # float64
    valid: np.ndarray      # bool, False = occluded / unknown

    def __post_init__(self):
        self.disparity = np.ascontiguousarray(self.disparity, dtype=np.float64)
        self.valid = np.ascontiguousarray(self.valid, dtype=bool)
        if self.disparity.shape != self.valid.shape or self.disparity.ndim != 2:
            raise ValueError("disparity and valid must share a 2-D shape")


@dataclass(frozen=True)
class EvalReport:
    total_pixels: int
    num_accepted: int
    num_evaluated: int   # accepted and inside the valid mask
    num_bad: int         # evaluated with |d - gt| > 1
    density_percent: float
    bad_percent: float


def gen_noise_pair(width: int, height: int, sigma: float = 20.0,
                   seed: int = 0) -> tuple[GrayImage, GrayImage]:
    """Two independent Gaussian noise images (mean 128, std sigma), rounded
    to gray levels."""
    rng = np.random.default_rng(seed)
    imgs = []
    for _ in range(2):
        raw = rng.normal(128.0, sigma, size=(height, width))
        imgs.append(GrayImage(np.clip(np.rint(raw), 0, 255)))
    return imgs[0], imgs[1]


def gen_texture(width: int, height: int, seed: int = 0) -> GrayImage:
    """Gaussian white noise smoothed by a 5x5 box filter and rescaled to
    [0, 255] gray levels."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, 1.0, size=(height, width))
    smooth = window_sums(np.pad(noise, 2, mode="edge"), 5) / 25.0
    lo, hi = smooth.min(), smooth.max()
    if hi > lo:
        smooth = (smooth - lo) * (255.0 / (hi - lo))
    else:
        smooth = np.full_like(smooth, 128.0)
    return GrayImage(np.rint(smooth))


def gen_translated_pair(width: int, height: int, shift: int,
                        texture_seed: int = 0,
                        stripe_rows: tuple[int, int] | None = None,
                        stripe_period: int = 4,
                        ) -> tuple[GrayImage, GrayImage, GroundTruth]:
    """Reference texture and its horizontal translation by `shift` (with
    wrap-around), plus ground truth.  True disparity is `shift` everywhere;
    columns whose correspondence wrapped are marked invalid.  stripe_rows
    replaces rows [y0, y1) with vertical stripes of the given period, which
    makes matches there ambiguous on purpose."""
    if abs(shift) >= width:
        raise ValueError("shift must be smaller than the width")
    ref = gen_texture(width, height, texture_seed).pixels
    if stripe_rows is not None:
        y0, y1 = stripe_rows
        if not (0 <= y0 < y1 <= height):
            raise ValueError(f"stripe rows [{y0}, {y1}) outside the image")
        if stripe_period < 2:
            raise ValueError("stripe period must be >= 2")
        pattern = np.where((np.arange(width) % stripe_period)
                           < stripe_period / 2, 255.0, 0.0)
        ref[y0:y1, :] = pattern
    sec = np.roll(ref, shift, axis=1)
    disparity = np.full((height, width), float(shift))
    valid = np.ones((height, width), dtype=bool)
    if shift > 0:
        valid[:, width - shift:] = False
    elif shift < 0:
        valid[:, :-shift] = False
    return (GrayImage(ref), GrayImage(sec),
            GroundTruth(disparity=disparity, valid=valid))


def monte_carlo_false_alarms(image: GrayImage,
                             model: patch_model.BackgroundModel,
                             params: core.AcbmParams, trials: int,
                             seed: int = 0) -> float:
    """Empirical check of the false-alarm bound: per trial, every interior
    pixel of `image` is matched against 2R+1 blocks drawn from the background
    model, and meaningful matches are counted with the same number of tests
    as a real run.  Returns the mean count per trial (expected <= epsilon).

    Each pixel's N components and its coefficients on them come from
    component_order, the pass match_pair takes its order from, and the
    coefficients' CDF values from model.cdf_values.  A drawn block takes,
    for each of those components, an independent uniform draw among the
    m sorted training values, so each round draws one (pixels, N) table
    of sorted positions.
    A cell scores the drawn value's last-occurrence rank over m: the CDF
    value that match_pair gives a secondary block with that coefficient.
    Raises DimensionMismatch unless the model has the params' block side and
    the components the reference tests."""
    if trials < 1:
        raise ValueError("need at least one trial")
    basis, cdfs = model.basis, model.cdfs
    side, k = basis.block_side, params.num_components
    if side != params.block_side:
        raise DimensionMismatch(f"model block side {side} != "
                                f"params block side {params.block_side}")
    m = cdfs.shape[1]
    n_test = core.number_of_tests(image.width * image.height, params)
    slots, hq = model.cdf_values(*pipeline.component_order(image, basis, k))
    ranks = np.stack([patch_model.last_ranks(row) for row in cdfs])
    counts = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        hits = 0
        for _ in range(2 * params.search_radius + 1):
            drawn = rng.integers(m, size=slots.shape)
            nfas = pipeline.candidate_nfa_block(hq, ranks[slots, drawn] / m,
                                                n_test, params.num_levels)
            hits += int((nfas <= params.epsilon).sum())
        counts[t] = hits
    return float(counts.mean())


def load_ground_truth(path, mask_path=None, scale: float = 1.0,
                      offset: float = 128.0) -> GroundTruth:
    """Ground truth from an image file (disparity = (value - offset)/scale)
    or from the disparity text format (values verbatim, NaN = invalid).
    An optional mask image marks zero pixels invalid.  A file whose first
    byte is "P" is an image: no disparity text starts with it."""
    buf = read_file(path)
    if buf[:1] == b"P":
        img = parse_gray(buf, path)
        if scale == 0:
            raise ValueError("scale must be non-zero")
        disparity = (img.pixels - offset) / scale
        valid = np.ones(img.pixels.shape, dtype=bool)
    else:
        dmap = parse_disparity(buf, path)
        disparity = dmap.disparity.astype(np.float64)
        valid = dmap.accepted.copy()
    if mask_path is not None:
        mask = load_gray(mask_path)
        if mask.pixels.shape != disparity.shape:
            raise DimensionMismatch("mask and ground truth sizes differ")
        valid &= mask.pixels > 0
    return GroundTruth(disparity=disparity, valid=valid)


def evaluate(dmap: DisparityMap, gt: GroundTruth) -> EvalReport:
    """Density over the whole image and bad-match rate among accepted pixels
    inside the valid mask (|d - gt| > 1 counts as bad)."""
    if dmap.state.shape != gt.disparity.shape:
        raise DimensionMismatch(f"map {dmap.state.shape} vs ground truth "
                                f"{gt.disparity.shape}")
    acc = dmap.accepted
    total = dmap.width * dmap.height
    evaluated = acc & gt.valid
    bad = evaluated & (np.abs(dmap.disparity - gt.disparity) > 1.0)
    n_acc = int(acc.sum())
    n_eval = int(evaluated.sum())
    n_bad = int(bad.sum())
    return EvalReport(
        total_pixels=total,
        num_accepted=n_acc,
        num_evaluated=n_eval,
        num_bad=n_bad,
        density_percent=100.0 * n_acc / total,
        bad_percent=(100.0 * n_bad / n_eval) if n_eval else 0.0)
