"""Self-similarity veto.

A selected candidate is kept only if its block distance to the reference
block is strictly below the distance from the reference block to every
same-row neighbor block in the reference image at offsets of magnitude 2 to
search_radius (offsets 0 and +-1 are excluded: they overlap the block
almost entirely).  Periodic or flat neighborhoods therefore reject; when no
neighbor block fits inside the image the minimum is vacuous (+inf) and the
candidate is kept.

The map helpers compute the same distances for every pixel of a window of
the interior grid at once.  Every block's sum of squares is taken in one
fixed order (window_sums), also by ssd, so a map cell equals the direct
distance bit for bit on every input, whatever window the map covers.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch
from .imgio import GrayImage


def ssd(a, b) -> float:
    """Sum of squared differences between two flattened square blocks,
    summed in window_sums order."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise DimensionMismatch(f"shapes {av.shape} and {bv.shape} differ")
    side = math.isqrt(av.size)
    if side == 0 or side * side != av.size:
        raise DimensionMismatch(f"{av.size} samples are not a square block")
    squares = ((av - bv) ** 2).reshape(side, side)
    return float(window_sums(squares, side)[0, 0])


def window_sums(values: np.ndarray, side: int) -> np.ndarray:
    """Sliding side x side window sums of a float64 array, output
    (h-side+1, w-side+1).  Every window is summed in the same order: each
    of its rows left to right, then the row sums top to bottom.  A window's
    sum therefore depends only on its own values, not on its position."""
    h, w = values.shape
    rows = values[:, :w - side + 1].copy()
    for k in range(1, side):
        rows += values[:, k:w - side + 1 + k]
    out = rows[:h - side + 1].copy()
    for k in range(1, side):
        out += rows[k:h - side + 1 + k]
    return out


def _require_inside(image: GrayImage, block_side: int, rows: slice,
                    cols: slice) -> None:
    """DimensionMismatch unless rows x cols lies in image's interior grid."""
    grid = (image.height - block_side + 1, image.width - block_side + 1)
    for window, size in zip((rows, cols), grid):
        if not 0 <= window.start <= window.stop <= size:
            raise DimensionMismatch(
                f"window {window.start}:{window.stop} leaves an interior "
                f"grid of {grid[0]}x{grid[1]}")


def aligned_ssd_map(img_a: GrayImage, img_b: GrayImage, shift: int,
                    block_side: int, rows: slice, cols: slice) -> np.ndarray:
    """Block SSD between (x, y) in img_a and (x+shift, y) in img_b for the
    interior pixels of img_a in rows x cols (bounded slices of img_a's
    interior grid), indexed on that window.  DimensionMismatch when the
    window leaves img_a's interior grid or a shifted block leaves img_b."""
    _require_inside(img_a, block_side, rows, cols)
    _require_inside(img_b, block_side, rows,
                    slice(cols.start + shift, cols.stop + shift))
    # interior (row, col) maps to image (row + half, col + half)
    span = np.s_[rows.start:rows.stop + block_side - 1]
    x0, x1 = cols.start, cols.stop + block_side - 1
    a = img_a.pixels[span, x0:x1]
    b = img_b.pixels[span, x0 + shift:x1 + shift]
    return window_sums((a - b) ** 2, block_side)


def min_self_ssd_map(image: GrayImage, search_radius: int, block_side: int,
                     rows: slice, cols: slice) -> np.ndarray:
    """Per interior pixel in rows x cols (bounded slices of the interior
    grid), the smallest block SSD to a same-row block at an offset of
    magnitude 2 to search_radius inside the image; +inf where no such block
    fits.  Only the grid columns within search_radius of the window are
    read.  The SSD from x to x+dr equals the one from x+dr to x bit for
    bit, so each map for dr > 0 serves both offsets.  DimensionMismatch
    when the window leaves the interior grid."""
    _require_inside(image, block_side, rows, cols)
    wi = image.width - block_side + 1
    c0 = max(cols.start - search_radius, 0)
    w = min(cols.stop + search_radius, wi) - c0
    best = np.full((rows.stop - rows.start, w), np.inf)
    for dr in range(2, min(search_radius, w - 1) + 1):
        dist = aligned_ssd_map(image, image, dr, block_side, rows,
                               slice(c0, c0 + w - dr))
        np.minimum(best[:, :w - dr], dist, out=best[:, :w - dr])
        np.minimum(best[:, dr:], dist, out=best[:, dr:])
    return best[:, cols.start - c0:cols.stop - c0]
