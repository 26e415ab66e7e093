"""Scoring of candidate matches against the background model.

A candidate block is compared to the reference block component by component
through the background CDF values of their coefficients.  The per-component
resemblance probabilities are quantized onto a dyadic grid, forced
non-decreasing, and multiplied; the number of false alarms (NFA) is that
product scaled by the total number of tests.  A candidate is meaningful when
its NFA does not exceed epsilon.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Overflow

_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class AcbmParams:
    """Matcher knobs.

    search_radius bounds the epipolar search: candidate disparities run over
    [-search_radius, search_radius] on the same row.  num_components is how
    many locally-ordered PCA components are compared, num_levels how many
    dyadic probability levels the quantizer uses.
    """

    search_radius: int
    epsilon: float = 1.0
    block_side: int = 9
    num_components: int = 9
    num_levels: int = 5

    def __post_init__(self):
        if self.search_radius < 0:
            raise ValueError("search radius must be >= 0")
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if self.block_side < 3 or self.block_side % 2 == 0:
            raise ValueError("block side must be odd and >= 3")
        if not 1 <= self.num_components <= self.block_side ** 2:
            raise ValueError("component count must lie in [1, block_side^2]")
        if self.num_levels < 1:
            raise ValueError("need at least one probability level")

    def candidate_order(self) -> tuple[int, ...]:
        """Disparities in tie-breaking order: smaller |d| first, then the
        negative one of each +/- pair."""
        r = self.search_radius
        return tuple(sorted(range(-r, r + 1), key=lambda d: (abs(d), d)))


def top_components(coeffs: np.ndarray, count: int) -> np.ndarray:
    """Per row of an (n, s) coefficient matrix, the indices of the count
    largest |coefficients|, largest first and equal magnitudes in ascending
    index order: equal to
    np.argsort(-abs(coeffs), axis=1, kind="stable")[:, :count].

    The count-th largest magnitude is found by partitioning; components
    above it are kept, and of those tied with it, the lowest indices fill
    the remaining places.  Only the kept components are then sorted.
    """
    a = np.abs(coeffs)
    s = a.shape[1]
    nth = np.partition(a, s - count, axis=1)[:, s - count, None]
    keep = a >= nth
    tied = np.flatnonzero(keep.sum(axis=1) > count)
    if tied.size:
        at_nth = a[tied] == nth[tied]
        room = count - (a[tied] > nth[tied]).sum(axis=1, keepdims=True)
        keep[tied] &= ~at_nth | (np.cumsum(at_nth, axis=1) <= room)
    kept = np.nonzero(keep)[1].reshape(-1, count)
    by_size = np.argsort(-np.take_along_axis(a, kept, axis=1), axis=1,
                         kind="stable")
    return np.take_along_axis(kept, by_size, axis=1)


def resemblance_probability(h_q, h_qp):
    """Probability that a background block lands at least as close to the
    reference as the candidate did, in one component.

    Both arguments are CDF values in [0, 1]; the reference value h_q splits
    the unit interval into a central band (two-sided distance) and two outer
    tails.  Accepts scalars or same-shape arrays.

    The three cases exclude each other, so the value is a sum of three
    masked terms of which at most one is non-zero: x * 1.0 == x and
    x * 0.0 == 0.0, so the sum equals the selected term exactly, without
    a data-dependent branch per element.
    """
    a = np.asarray(h_q, dtype=np.float64)
    b = np.asarray(h_qp, dtype=np.float64)
    scalar = a.ndim == 0 and b.ndim == 0
    diff = b - a
    upper = diff > a            # b above 2a: upper tail
    lower = diff < a - 1.0      # b below 2a - 1: lower tail
    p = np.abs(diff)
    p *= 2.0
    p *= ~(upper | lower)
    p += b * upper
    p += (1.0 - b) * lower
    p = np.clip(p, 0.0, 1.0)
    return float(p) if scalar else p


def quantize_levels(num_levels: int) -> np.ndarray:
    """Available levels 1/2^(j-1), j = 1..num_levels, ascending."""
    return 2.0 ** -np.arange(num_levels - 1, -1, -1)


def quantize_index(p_hat, num_levels: int) -> np.ndarray:
    """Per-element dyadic ceiling as an index into quantize_levels: the
    smallest level >= p, everything at or below the smallest level mapping
    to index 0 and NaN to the top level.  The index has the smallest
    unsigned type that holds num_levels - 1."""
    p = np.asarray(p_hat, dtype=np.float64)
    idx = np.full(p.shape, num_levels - 1,
                  dtype=np.min_scalar_type(num_levels - 1))
    for level in quantize_levels(num_levels)[:-1]:
        idx -= p <= level
    return idx


def quantize_array(p_hat: np.ndarray, num_levels: int) -> np.ndarray:
    """Vector quantizer along the last axis: per-element dyadic ceiling (the
    smallest level >= p, everything at or below the smallest level maps to
    it), then a running maximum so the result is non-decreasing.  This is the
    least element of the non-decreasing grid dominating p_hat."""
    levels = quantize_levels(num_levels)
    return np.maximum.accumulate(levels[quantize_index(p_hat, num_levels)],
                                 axis=-1)


def count_nondecreasing(num_components: int, num_levels: int) -> int:
    """Number of non-decreasing quantized vectors of length num_components
    over num_levels levels: the multisets of that size, C(N + Q - 1, N)."""
    if num_components < 1 or num_levels < 1:
        raise ValueError("component and level counts must be >= 1")
    total = math.comb(num_components + num_levels - 1, num_components)
    if total > _INT64_MAX:
        raise Overflow(f"vector count {total} exceeds 64-bit range")
    return total


def number_of_tests(num_pixels: int, params: AcbmParams) -> int:
    """Total tested triples: reference pixels (whole image) x candidate
    disparities x quantized vectors."""
    if num_pixels < 1:
        raise ValueError("pixel count must be >= 1")
    total = (num_pixels * (2 * params.search_radius + 1)
             * count_nondecreasing(params.num_components, params.num_levels))
    if total > _INT64_MAX:
        raise Overflow(f"test count {total} exceeds 64-bit range")
    return total

