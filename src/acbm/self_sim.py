"""Self-similarity veto.

A selected candidate is kept only if its block distance to the reference
block is strictly below the distance from the reference block to every
same-row neighbor block in the reference image at offsets of magnitude 2 to
search_radius (offsets 0 and +-1 are excluded: they overlap the block
almost entirely).  Periodic or flat neighborhoods therefore reject; when no
neighbor block fits inside the image the minimum is vacuous (+inf) and the
candidate is kept.

The map helpers compute the same distances for every pixel of a range of
interior rows at once.  Every block's sum of squares is taken in one fixed
order (window_sums), also by ssd, so a map cell equals the direct distance
bit for bit on every input, whatever rows the map covers.
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


def aligned_ssd_map(img_a: GrayImage, img_b: GrayImage, shift: int,
                    block_side: int, rows: slice = slice(None)) -> np.ndarray:
    """Block SSD between (x, y) in img_a and (x+shift, y) in img_b for every
    interior pixel of img_a in the interior rows `rows` (default: all),
    indexed on img_a's interior grid; +inf where the shifted block does not
    fit inside img_b."""
    hi = img_a.height - block_side + 1
    wi_a = img_a.width - block_side + 1
    wi_b = img_b.width - block_side + 1
    r0, r1, _ = rows.indices(max(hi, 0))
    out = np.full((max(r1 - r0, 0), wi_a), np.inf)
    lo = max(0, -shift)
    hi_col = min(wi_a, wi_b - shift)
    if lo >= hi_col or r1 <= r0:
        return out
    # interior (row, col) maps to image (row + half, col + half)
    span = np.s_[r0:r1 + block_side - 1]
    a = img_a.pixels[span, lo:hi_col + block_side - 1]
    b = img_b.pixels[span, lo + shift:hi_col + shift + block_side - 1]
    out[:, lo:hi_col] = window_sums((a - b) ** 2, block_side)
    return out


def min_self_ssd_map(image: GrayImage, search_radius: int,
                     block_side: int, rows: slice = slice(None)) -> np.ndarray:
    """Per interior pixel of the interior rows `rows` (default: all), the
    smallest block SSD to a same-row block at an offset of magnitude 2 to
    search_radius inside the image; +inf where no such block fits.  The
    SSD from x to x+dr equals the one from x+dr to x bit for bit, so each
    map for dr > 0 serves both offsets."""
    hi = image.height - block_side + 1
    wi = image.width - block_side + 1
    r0, r1, _ = rows.indices(max(hi, 0))
    best = np.full((max(r1 - r0, 0), wi), np.inf)
    for dr in range(2, min(search_radius, wi - 1) + 1):
        dist = aligned_ssd_map(image, image, dr, block_side, rows)[:, :wi - dr]
        np.minimum(best[:, :wi - dr], dist, out=best[:, :wi - dr])
        np.minimum(best[:, dr:], dist, out=best[:, dr:])
    return best
