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
    """min_self_ssd_map at pixel q, from q's 1x1 window."""
    half = side // 2
    x, y = q
    return min_self_ssd_map(img, radius, side, slice(y - half, y - half + 1),
                            slice(x - half, x - half + 1))[0, 0]


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
        hi, wi_a, wi_b = 14 - side + 1, 20 - side + 1, 23 - side + 1
        for shift in (-3, 0, 2, 6):
            # every column whose shifted block fits inside b
            lo, hi_col = max(0, -shift), min(wi_a, wi_b - shift)
            got = aligned_ssd_map(a, b, shift, side, slice(0, hi),
                                  slice(lo, hi_col))
            assert got.shape == (hi, hi_col - lo)
            for yi in range(hi):
                for xi in range(lo, hi_col):
                    x, y = xi + half, yi + half
                    direct = ssd(extract_block(a, (x, y), side),
                                 extract_block(b, (x + shift, y), side))
                    assert got[yi, xi - lo] == direct, (shift, x, y)
            # a smaller window gives the same cells as the whole map
            for rows in (slice(0, 1), slice(3, 7), slice(6, 10)):
                for cols in (slice(lo, lo + 1), slice(lo + 2, hi_col - 1)):
                    window = aligned_ssd_map(a, b, shift, side, rows, cols)
                    expected = got[rows, cols.start - lo:cols.stop - lo]
                    assert window.tobytes() == expected.tobytes(), (
                        shift, rows, cols)


def test_min_map_matches_scalar():
    side, half = 5, 2
    rng = np.random.default_rng(42)
    for img in (gen_texture(26, 15, seed=8), non_integer_image(26, 15, 8),
                non_integer_image(8, 7, 9)):
        hi, wi = img.height - side + 1, img.width - side + 1
        grid = slice(0, hi), slice(0, wi)
        # radius 4 leaves some offsets outside; from wi on, none fits
        for radius in (4, wi - 1, wi, wi + 3):
            whole = min_self_ssd_map(img, radius, side, *grid)
            assert whole.shape == (hi, wi)
            for yi in range(hi):
                for xi in range(wi):
                    q = (xi + half, yi + half)
                    direct = direct_min_self(img, radius, side, q)
                    assert whole[yi, xi] == direct, (radius, q)
                    # the 1x1 window, as the single-pixel matcher takes it
                    assert min_self_at(img, radius, side, q) == direct, (
                        radius, q)
            # row bands
            windows = [(rows, grid[1]) for rows in
                       (slice(1, hi - 1), slice(hi - 1, hi), grid[0])]
            # random windows, each touching the left or the right edge
            for _ in range(10):
                r0 = int(rng.integers(0, hi))
                r1 = int(rng.integers(r0 + 1, hi + 1))
                c = int(rng.integers(1, wi))
                windows += [(slice(r0, r1), slice(0, c)),
                            (slice(r0, r1), slice(c - 1, wi))]
            for rows, cols in windows:
                window = min_self_ssd_map(img, radius, side, rows, cols)
                assert window.tobytes() == whole[rows, cols].tobytes(), (
                    radius, rows, cols)


@pytest.mark.parametrize("radius", [0, 1, 2, 4])
def test_min_map_rejects_rows_outside_the_grid(radius):
    # an 8x7 image at block 5 has a 3-row grid; without the check, radii
    # up to 1 returned a 7-row map and larger ones a bare ValueError
    img = non_integer_image(8, 7, 9)
    with pytest.raises(DimensionMismatch):
        min_self_ssd_map(img, radius, 5, slice(2, 9), slice(0, 4))


def test_aligned_map_rejects_columns_outside_the_grid():
    # a 20-wide image at block 5 has 16 grid columns; without the check
    # the map silently had 16 columns, not the 40 asked for
    a, b = gen_texture(20, 14, seed=6), gen_texture(20, 14, seed=7)
    with pytest.raises(DimensionMismatch):
        aligned_ssd_map(a, b, 0, 5, slice(0, 2), slice(0, 40))


def test_aligned_map_rejects_blocks_shifted_out_of_the_secondary():
    # column 1 at shift -2 would read grid column -1 of b
    a, b = gen_texture(20, 14, seed=6), gen_texture(20, 14, seed=7)
    with pytest.raises(DimensionMismatch):
        aligned_ssd_map(a, b, -2, 5, slice(0, 2), slice(1, 4))
    # the same window at shift -1 fits
    assert aligned_ssd_map(a, b, -1, 5, slice(0, 2), slice(1, 4)).shape == (
        2, 3)
