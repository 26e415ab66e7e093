"""Self-similarity veto and the SSD maps."""
import numpy as np
import pytest

from acbm import gen_texture
from acbm.errors import DimensionMismatch
from acbm.imgio import GrayImage
from acbm.patch_model import extract_block
from acbm.self_sim import (aligned_ssd_map, min_self_ssd_map, ssd,
                           window_sums)


def naive_ssd(a, b):
    return float(sum((x - y) ** 2 for x, y in zip(a, b)))


def test_ssd_matches_naive():
    rng = np.random.default_rng(40)
    for _ in range(50):
        a, b = rng.normal(size=(2, 81)) * 100
        assert ssd(a, b) == pytest.approx(naive_ssd(a, b), rel=1e-9)


def test_ssd_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        ssd(np.zeros(9), np.zeros(10))


def loop_window_sum(window):
    """Each row left to right, then the row sums top to bottom."""
    total = 0.0
    for row in window:
        row_sum = 0.0
        for v in row:
            row_sum += float(v)
        total += row_sum
    return total


def test_window_sums_matches_loops():
    rng = np.random.default_rng(41)
    values = rng.normal(size=(12, 17)) * 1e3
    for side in (1, 3, 5):
        got = window_sums(values, side)
        assert got.shape == (13 - side, 18 - side)
        for y in range(values.shape[0] - side + 1):
            for x in range(values.shape[1] - side + 1):
                window = values[y:y + side, x:x + side]
                assert got[y, x] == loop_window_sum(window), (side, y, x)
                # the sum depends on the window's values, not its place
                assert got[y, x] == window_sums(window, side)[0, 0]


def min_self_at(img, radius, side, q):
    """min_self_ssd_map at pixel q, from the one-row map of q's row."""
    half = side // 2
    x, y = q
    return min_self_ssd_map(img, radius, side,
                            slice(y - half, y - half + 1))[0, x - half]


def direct_min_self(img, radius, side, q):
    """Smallest direct block SSD from q to a same-row block at an offset of
    magnitude 2 to radius inside the image; +inf when none fits."""
    x, y = q
    half = side // 2
    block = extract_block(img, q, side)
    return min((ssd(block, extract_block(img, (x + dr, y), side))
                for dr in range(-radius, radius + 1)
                if abs(dr) >= 2 and half <= x + dr < img.width - half),
               default=np.inf)


def test_min_neighbor_skips_overlapping_offsets():
    # only |dr| in [2, R] counts, and the window must stay inside
    img = gen_texture(24, 12, seed=3)
    x, y = 9, 6
    block = extract_block(img, (x, y), 5)
    direct = min(ssd(block, extract_block(img, (x + dr, y), 5))
                 for dr in (-3, -2, 2, 3))
    assert min_self_at(img, 3, 5, (x, y)) == direct


def test_min_neighbor_vacuous_without_candidates():
    img = gen_texture(24, 12, seed=3)
    assert min_self_at(img, 1, 5, (9, 6)) == np.inf
    assert min_self_at(img, 0, 5, (9, 6)) == np.inf
    # near the side, larger offsets fall outside and are skipped
    assert min_self_at(img, 3, 5, (2, 6)) == min(
        ssd(extract_block(img, (2, 6), 5), extract_block(img, (2 + dr, 6), 5))
        for dr in (2, 3))


def test_accept_is_strict():
    img = GrayImage(np.full((11, 21), 50.0))
    # flat image: every neighbor distance is 0, so nothing can pass the
    # veto's strict cross < min_self
    min_self = min_self_at(img, 4, 5, (10, 5))
    assert min_self == 0.0
    assert not 0.0 < min_self
    # vacuous minimum keeps any candidate
    assert 1e9 < min_self_at(img, 1, 5, (10, 5))


def test_periodic_stripes_reject():
    cols = np.where((np.arange(32) % 4) < 2, 255.0, 0.0)
    img = GrayImage(np.tile(cols, (16, 1)))
    # offset 4 reproduces the block exactly
    min_self = min_self_at(img, 5, 9, (16, 8))
    assert min_self == 0.0
    assert not 0.0 < min_self


def non_integer_image(width, height, seed):
    # sums of squares of these samples round, so they depend on the order
    # in which the terms are added
    rng = np.random.default_rng(seed)
    return GrayImage(rng.normal(100.0, 30.0, (height, width)))


def test_aligned_map_matches_direct_blocks():
    side, half = 5, 2
    pairs = [(gen_texture(20, 14, seed=6), gen_texture(23, 14, seed=7)),
             (non_integer_image(20, 14, 6), non_integer_image(23, 14, 7))]
    for a, b in pairs:
        for shift in (-3, 0, 2, 6):
            got = aligned_ssd_map(a, b, shift, side)
            assert got.shape == (14 - side + 1, 20 - side + 1)
            for yi in range(got.shape[0]):
                for xi in range(got.shape[1]):
                    x, y = xi + half, yi + half
                    xs = x + shift
                    if half <= xs < b.width - half:
                        direct = ssd(extract_block(a, (x, y), side),
                                     extract_block(b, (xs, y), side))
                        assert got[yi, xi] == direct, (shift, x, y)
                    else:
                        assert got[yi, xi] == np.inf
            # a range of rows gives the same cells as the whole map
            for rows in (slice(0, 1), slice(3, 7), slice(6, 10)):
                band = aligned_ssd_map(a, b, shift, side, rows)
                assert band.tobytes() == got[rows].tobytes(), (shift, rows)


def test_min_map_matches_scalar():
    side, half = 5, 2
    for img in (gen_texture(26, 15, seed=8), non_integer_image(26, 15, 8),
                non_integer_image(8, 7, 9)):
        wi = img.width - side + 1
        # radius 4 leaves some offsets outside; from wi on, none fits
        for radius in (4, wi - 1, wi, wi + 3):
            got = min_self_ssd_map(img, radius, side)
            assert got.shape == (img.height - side + 1, wi)
            for yi in range(got.shape[0]):
                for xi in range(got.shape[1]):
                    q = (xi + half, yi + half)
                    assert got[yi, xi] == direct_min_self(img, radius, side,
                                                          q), (radius, q)
                # one-row slices, as the single-pixel matcher takes them
                row = min_self_ssd_map(img, radius, side, slice(yi, yi + 1))
                assert row.tobytes() == got[yi:yi + 1].tobytes()
            for rows in (slice(2, 9), slice(10, 11)):
                band = min_self_ssd_map(img, radius, side, rows)
                assert band.tobytes() == got[rows].tobytes(), rows
