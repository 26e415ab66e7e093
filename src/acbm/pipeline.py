"""End-to-end matching of a rectified pair.

For every interior pixel of the reference image the matcher scans the
epipolar segment in the secondary image, scores each candidate by its NFA
against the background model learned from the secondary image, keeps the
minimal-NFA candidate (ties: smaller |d| first, then the negative one), and
accepts it when the NFA is at most epsilon and the self-similarity veto
passes.  Pixels whose block leaves the reference image are Border; pixels
with no candidate block inside the secondary image reject as NotMeaningful.

scan_band makes that decision for a block of pixels.  match_pair, the fast
path, runs it on row bands; match_pixel runs it on one pixel with the NFAs
of scan_candidates.  A block's coefficients are its own product
(patch_model.project), run in a band-pool task on one BLAS thread, so both
paths and the test oracle score every block with the same bits.

No NFA is below the floor n_test * 2^-(L-1)N, where every component sits
at quantizer index 0, and only a strictly smaller metric replaces the
best.  So a pixel whose best is at the floor (in SS_ONLY, a cross SSD of
0) keeps it: scan_band passes nfa_at the mask of the pixels still active,
and match_pair gathers and scores only those cells.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import bands, core, patch_model, self_sim
from .core import AcbmParams
from .errors import DimensionMismatch, HeightMismatch
from .imgio import CellState, DisparityMap, GrayImage
from .patch_model import BackgroundModel, PatchBasis


class MatchMode(Enum):
    """ACBM_SS is the full method; the other two exist for comparisons."""

    ACBM_SS = "acbm+ss"    # NFA threshold + self-similarity veto
    ACBM_ONLY = "acbm"     # NFA threshold alone
    SS_ONLY = "ss"         # best-SSD candidate + self-similarity veto


@dataclass(frozen=True)
class MatchDecision:
    q: tuple[int, int]
    state: CellState
    disparity: int | None
    nfa: float | None


@dataclass(frozen=True)
class CandidateScore:
    disparity: int
    quantized: tuple[float, ...]
    nfa: float


def component_order(image: GrayImage, basis: PatchBasis,
                    num_components: int) -> tuple[np.ndarray, np.ndarray]:
    """Per interior pixel (row-major grid): (order, tested), (n, N) tables
    of the indices of the num_components locally dominant components, in
    the smallest unsigned type that holds s - 1, and of the pixel's float64
    coefficients on them.  Row bands run on the band pool."""
    hi, wi = patch_model.interior_shape(image, basis.block_side)
    order = np.empty((hi * wi, num_components),
                     dtype=np.min_scalar_type(basis.size - 1))
    tested = np.empty(order.shape)

    def band(rows):
        out = np.s_[rows.start * wi:rows.stop * wi]
        for cells, coeffs in patch_model.project_rows(basis, image, rows):
            top = core.top_components(coeffs, num_components)
            order[out][cells] = top
            tested[out][cells] = np.take_along_axis(coeffs, top, axis=1)

    bands.run_bands(band, hi)
    return order, tested


def reference_tables(image: GrayImage, model: BackgroundModel,
                     order: np.ndarray):
    """Background CDF values of the reference coefficients of the components
    in order (from component_order).  Returns (slots, h_ref) of shape
    (n, N): slots is order as rows of the model's tables (model.slots), and
    h_ref[k, j] is the CDF value of component order[k, j] at pixel k.
    Raises DimensionMismatch when the model lacks a component of order.
    Row bands run on the band pool; each evaluates every CDF the model
    holds over all pixels of its band, from a (u, pixels) table whose row
    j holds component components[j], then gathers the N tested values."""
    hi, wi = patch_model.interior_shape(image, model.basis.block_side)
    if order.shape[0] != hi * wi:
        raise DimensionMismatch(f"order has {order.shape[0]} rows for "
                                f"{hi * wi} interior pixels")
    slots = model.slots(order)
    h_ref = np.empty(order.shape)

    def band(rows):
        cells = slice(rows.start * wi, rows.stop * wi)
        table = np.empty((len(model.components), cells.stop - cells.start))
        for at, coeffs in patch_model.project_rows(model.basis, image, rows):
            table[:, at] = coeffs[:, model.components].T
        for row, cdf in zip(table, model.cdfs):
            row[:] = patch_model.cdf_eval(cdf, row)
        h_ref[cells] = table[slots[cells], np.arange(table.shape[1])[:, None]]

    bands.run_bands(band, hi)
    return slots, h_ref


def candidate_nfa_block(hq: np.ndarray, hqp: np.ndarray, n_test: int,
                        num_levels: int) -> np.ndarray:
    """NFA of candidates whose gathered CDF values are hqp, against
    references with values hq (components along the last axis).

    Quantized level j of quantize_levels is 2^-(num_levels-1-j), so the
    product of the non-decreasing levels is 2^-k with k summed from the
    running maximum of the level indices.  n_test * ldexp(1, -k) equals
    n_test times the float product of the levels bit for bit, also where
    that product underflows to 0.
    """
    idx = core.quantize_index(core.resemblance_probability(hq, hqp),
                              num_levels)
    running = idx[..., 0].copy()
    exponent = running.astype(np.intp)
    for c in range(1, idx.shape[-1]):
        np.maximum(running, idx[..., c], out=running)
        exponent += running
    exponent -= (num_levels - 1) * idx.shape[-1]
    return n_test * np.ldexp(1.0, exponent)


def match_pair(reference: GrayImage, secondary: GrayImage, params: AcbmParams,
               basis: PatchBasis | None = None,
               mode: MatchMode = MatchMode.ACBM_SS) -> DisparityMap:
    """Dense disparity map of the reference image against the secondary."""
    if reference.height != secondary.height:
        raise HeightMismatch(f"heights {reference.height} and "
                             f"{secondary.height} differ")
    side = params.block_side
    half = side // 2
    if basis is None:
        basis = patch_model.compute_patch_basis(secondary, side)
    elif basis.block_side != side:
        raise DimensionMismatch(f"basis block side {basis.block_side} != "
                                f"params block side {side}")

    # tables only for the secondary components the reference tests; the
    # coefficients are dropped here, before training_ranks sets the peak
    order = component_order(reference, basis, params.num_components)[0]
    model, ranks = patch_model.training_ranks(basis, secondary,
                                              np.unique(order))
    slots, hq = reference_tables(reference, model, order)
    del model, order   # the scan reads the secondary's ranks only

    hi, wi_r = patch_model.interior_shape(reference, side)
    wi_s = secondary.width - side + 1
    m = ranks.shape[1]
    slot3 = slots.reshape(hi, wi_r, params.num_components)
    hq3 = hq.reshape(hi, wi_r, params.num_components)
    n_test = core.number_of_tests(reference.width * reference.height, params)

    state = np.full(reference.pixels.shape, CellState.BORDER, dtype=np.uint8)
    disparity = np.zeros(reference.pixels.shape, dtype=np.int32)
    nfa = np.full(reference.pixels.shape, np.nan)

    def band(rows):
        # flat index of (slot, secondary block at disparity 0) in ranks;
        # disparity d adds d
        y, x = np.ogrid[rows, :wi_r]
        at_zero = slot3[rows].astype(np.intp) * m + (y * wi_s + x)[..., None]

        def nfa_at(d, lo, hi_col, active):
            nfa_d = np.full(active.shape, np.inf)
            cells = np.nonzero(active)
            # a secondary block's CDF value is its rank over m
            hqp = np.take(ranks, at_zero[:, lo:hi_col][cells] + d) / m
            nfa_d[cells] = candidate_nfa_block(hq3[rows, lo:hi_col][cells],
                                               hqp, n_test, params.num_levels)
            return nfa_d

        out = np.s_[half + rows.start:half + rows.stop, half:half + wi_r]
        state[out], disparity[out], nfa[out] = scan_band(
            rows, slice(0, wi_r), nfa_at, reference, secondary, params, mode)

    bands.run_bands(band, hi)
    return DisparityMap(state=state, disparity=disparity, nfa=nfa)


def scan_band(rows: slice, cols: slice, nfa_at, reference: GrayImage,
              secondary: GrayImage, params: AcbmParams, mode: MatchMode):
    """(state, disparity, nfa) of the interior pixels in rows x cols (bounded
    slices of the interior grid); disparity 0 and nfa NaN where not accepted.
    nfa_at(d, lo, hi, active) gives the NFAs at disparity d of the rows'
    interior columns lo to hi - 1, whose blocks at d lie inside the
    secondary image; it needs to score only the cells where the boolean
    array active (of that shape) is true and may return +inf elsewhere.
    Every pixel sees the disparities in candidate order, and a strictly
    smaller metric (the NFA, or the cross SSD in SS_ONLY) replaces the best
    so far.  So a pixel stays active only until its best metric is the
    least that metric can be: the NFA floor n_test * 2^-(L-1)N, where every
    component sits at quantizer index 0, or a cross SSD of 0.  At each
    disparity, nfa_at and the cross SSD map see only the span of columns
    that holds an active pixel, and a disparity with no active pixel is
    skipped.  The self SSD map covers exactly rows x cols."""
    side = params.block_side
    wi_s = secondary.width - side + 1
    shape = (rows.stop - rows.start, cols.stop - cols.start)
    by_ssd = mode is MatchMode.SS_ONLY
    need_cross = mode is not MatchMode.ACBM_ONLY

    # NaN before a pixel's first candidate, so "not >=" takes the first
    # candidate and then only a strictly smaller metric
    best_nfa = np.full(shape, np.nan)
    best_cross = np.full(shape, np.nan)
    best_d = np.zeros(shape, dtype=np.int32)
    best_metric = best_cross if by_ssd else best_nfa
    n_test = core.number_of_tests(reference.width * reference.height, params)
    least = 0.0 if by_ssd else n_test * np.ldexp(
        1.0, -(params.num_levels - 1) * params.num_components)
    for d in params.candidate_order():
        lo, hi = max(cols.start, -d), min(cols.stop, wi_s - d)
        if lo >= hi:
            continue
        # only a strictly smaller metric wins (upd below), so a pixel whose
        # best is the least metric keeps it and leaves the scan; the window
        # narrows to the columns that still hold an active pixel
        active = best_metric[:, lo - cols.start:hi - cols.start] != least
        live = np.flatnonzero(active.any(axis=0))
        if not live.size:
            continue
        active = active[:, live[0]:live[-1] + 1]
        lo, hi = lo + int(live[0]), lo + int(live[-1]) + 1
        at = np.s_[:, lo - cols.start:hi - cols.start]
        nfa_d = nfa_at(d, lo, hi, active)
        if need_cross:
            cross = self_sim.aligned_ssd_map(reference, secondary, d, side,
                                             rows, slice(lo, hi))
        upd = ~((cross if by_ssd else nfa_d) >= best_metric[at])
        np.copyto(best_nfa[at], nfa_d, where=upd)
        np.copyto(best_d[at], d, where=upd)
        if need_cross:
            np.copyto(best_cross[at], cross, where=upd)

    passed = ~np.isnan(best_nfa) & (by_ssd | (best_nfa <= params.epsilon))
    vetoed = np.zeros(shape, dtype=bool)
    if need_cross:
        vetoed = passed & ~(best_cross < self_sim.min_self_ssd_map(
            reference, params.search_radius, side, rows, cols))
    accepted = passed & ~vetoed
    state = np.select([accepted, vetoed],
                      [CellState.ACCEPTED, CellState.SELF_SIMILAR],
                      CellState.NOT_MEANINGFUL)
    return (state, np.where(accepted, best_d, 0),
            np.where(accepted, best_nfa, np.nan))


def scan_candidates(q: tuple[int, int], model: BackgroundModel,
                    params: AcbmParams, reference: GrayImage,
                    secondary: GrayImage) -> list[CandidateScore]:
    """Every candidate of pixel q with its quantized levels and NFA, in
    ascending disparity order; BlockOutOfBounds when q's block leaves the
    reference image.  Inspection and testing hook."""
    x, y = q
    side = params.block_side
    half = side // 2
    r = params.search_radius
    disparities = [d for d in range(-r, r + 1)
                   if half <= x + d < secondary.width - half]
    blocks = np.stack([patch_model.extract_block(reference, q, side)] + [
        patch_model.extract_block(secondary, (x + d, y), side)
        for d in disparities])
    # one pool task, so on one BLAS thread
    coeffs = bands.run_parallel(
        lambda bs: patch_model.project(model.basis, bs), [blocks])[0]
    order = core.top_components(coeffs[:1], params.num_components)[0]
    h = model.cdf_values(order, coeffs[:, order])[1]
    n_test = core.number_of_tests(reference.width * reference.height, params)
    levels = core.quantize_array(core.resemblance_probability(h[0], h[1:]),
                                 params.num_levels)
    nfas = candidate_nfa_block(h[0], h[1:], n_test, params.num_levels)
    return [CandidateScore(d, tuple(lv), nfa)
            for d, lv, nfa in zip(disparities, levels.tolist(), nfas.tolist())]


def match_pixel(q: tuple[int, int], model: BackgroundModel,
                params: AcbmParams, reference: GrayImage,
                secondary: GrayImage,
                mode: MatchMode = MatchMode.ACBM_SS) -> MatchDecision:
    """Single-pixel decision: match_pair's scan_band on q alone, with the
    NFAs of scan_candidates."""
    if reference.height != secondary.height:
        raise HeightMismatch(f"heights {reference.height} and "
                             f"{secondary.height} differ")
    nfas = {s.disparity: s.nfa
            for s in scan_candidates(q, model, params, reference, secondary)}
    x, y = (c - params.block_side // 2 for c in q)
    state, d, nfa = (a.item() for a in scan_band(
        slice(y, y + 1), slice(x, x + 1),
        lambda d, lo, hi, active: np.where(active, nfas[d], np.inf),
        reference, secondary, params, mode))
    accepted = state == CellState.ACCEPTED
    return MatchDecision(q, CellState(state), d if accepted else None,
                         nfa if accepted else None)


def _neighborhood(a: np.ndarray) -> np.ndarray:
    """(9, h, w): each cell's 3x3 neighbors in row-major order, 0 outside."""
    h, w = a.shape
    p = np.pad(a, 1)
    return np.stack([p[dy:dy + h, dx:dx + w]
                     for dy in range(3) for dx in range(3)])


def densify_median(dmap: DisparityMap) -> DisparityMap:
    """One median pass: a rejected non-Border pixel with at least 5 accepted
    cells in its 3x3 neighborhood becomes accepted with their lower median
    disparity and the smallest nfa among them.  Reads only the incoming
    accepted set, so fills never chain; Border stays Border."""
    acc = dmap.accepted
    near = _neighborhood(acc)   # False outside the image
    vals = np.where(near, _neighborhood(dmap.disparity), np.inf)
    nfas = np.where(near, _neighborhood(dmap.nfa), np.inf)
    count = near.sum(axis=0)
    fill = (~acc) & (dmap.state != CellState.BORDER) & (count >= 5)
    vals.sort(axis=0)
    lower_median = np.take_along_axis(
        vals, ((count - 1) // 2)[None].clip(min=0), axis=0)[0]
    state = dmap.state.copy()
    disparity = dmap.disparity.copy()
    nfa = dmap.nfa.copy()
    state[fill] = CellState.ACCEPTED
    disparity[fill] = lower_median[fill].astype(np.int32)
    nfa[fill] = nfas.min(axis=0)[fill]
    return DisparityMap(state=state, disparity=disparity, nfa=nfa)
