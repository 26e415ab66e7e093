"""End-to-end matching of a rectified pair.

For every interior pixel of the reference image the matcher scans the
epipolar segment in the secondary image, scores each candidate by its NFA
against the background model learned from the secondary image, keeps the
minimal-NFA candidate (ties: smaller |d| first, then the negative one), and
accepts it when the NFA is at most epsilon and the self-similarity veto
passes.  Pixels whose block leaves the reference image are Border; pixels
with no candidate block inside the secondary image reject as NotMeaningful.

match_pair is the fast batch path; match_pixel follows the same definitions
one pixel at a time and is the readable reference.  Both are deterministic.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import bands, core, patch_model, self_sim
from .core import AcbmParams, QuantizedProbVector
from .errors import BorderPixel, DimensionMismatch, HeightMismatch
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
    quantized: QuantizedProbVector
    nfa: float
    cross_ssd: float


def reference_tables(image: GrayImage, basis: PatchBasis,
                     cdfs, num_components: int):
    """Per interior pixel (row-major grid): indices of the num_components
    locally dominant components and the background CDF values of the
    reference coefficients there.  Returns (order, h_ref) of shape (n, N),
    order in the smallest unsigned type that holds s - 1.  Row bands run on
    the band pool and fill the two tables."""
    if len(cdfs) != basis.size:
        raise DimensionMismatch(f"{len(cdfs)} CDFs for basis size {basis.size}")
    side = basis.block_side
    hi, wi = patch_model.interior_shape(image, side)
    order = np.empty((hi * wi, num_components),
                     dtype=np.min_scalar_type(basis.size - 1))
    h_ref = np.empty((hi * wi, num_components))

    def band(rows):
        cells = slice(rows.start * wi, rows.stop * wi)
        coeffs = patch_model.project(
            basis, patch_model.interior_blocks(image, side, rows))
        order[cells] = core.top_components(coeffs, num_components)
        # the chosen components are known: CDF values replace coefficients
        for i, cdf in enumerate(cdfs):
            coeffs[:, i] = patch_model.cdf_eval(cdf, coeffs[:, i])
        h_ref[cells] = np.take_along_axis(coeffs, order[cells], axis=1)

    bands.run_bands(band, hi)
    return order, h_ref


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

    cdfs, ranks = patch_model.training_ranks(basis, secondary)

    order, hq = reference_tables(reference, basis, cdfs,
                                 params.num_components)

    hi = reference.height - side + 1
    wi_r = reference.width - side + 1
    wi_s = secondary.width - side + 1
    ord3 = order.reshape(hi, wi_r, params.num_components)
    hq3 = hq.reshape(hi, wi_r, params.num_components)
    m = ranks.shape[0]
    ranks3 = ranks.reshape(hi, wi_s, basis.size)
    n_test = core.number_of_tests(reference.width * reference.height, params)

    by_ssd = mode is MatchMode.SS_ONLY
    need_cross = mode is not MatchMode.ACBM_ONLY

    best_metric = np.full((hi, wi_r), np.inf)
    best_nfa = np.full((hi, wi_r), np.inf)
    best_cross = np.full((hi, wi_r), np.inf)
    best_d = np.zeros((hi, wi_r), dtype=np.int32)
    has_candidate = np.zeros((hi, wi_r), dtype=bool)

    def scan_band(rows, d, lo, hi_col, cross_d):
        cells = np.s_[rows, lo:hi_col]
        # a secondary block's CDF value is its rank over m
        hqp = np.take_along_axis(ranks3[rows, lo + d:hi_col + d, :],
                                 ord3[cells], axis=2) / m
        nfa_d = candidate_nfa_block(hq3[cells], hqp, n_test,
                                    params.num_levels)
        cross = cross_d[cells] if need_cross else None
        metric_d = cross if by_ssd else nfa_d
        upd = metric_d < best_metric[cells]
        best_metric[cells][upd] = metric_d[upd]
        best_nfa[cells][upd] = nfa_d[upd]
        best_d[cells][upd] = d
        if need_cross:
            best_cross[cells][upd] = cross[upd]

    # every pixel sees the disparities in candidate order, one band at a
    # time; the summed-area SSD maps stay whole-image so that their sums
    # do not depend on the bands
    for d in params.candidate_order():
        lo = max(0, -d)
        hi_col = min(wi_r, wi_s - d)
        if lo >= hi_col:
            continue
        cross_d = (self_sim.aligned_ssd_map(reference, secondary, d, side)
                   if need_cross else None)
        bands.run_bands(functools.partial(scan_band, d=d, lo=lo,
                                          hi_col=hi_col, cross_d=cross_d), hi)
        has_candidate[:, lo:hi_col] = True

    if need_cross:
        min_self = self_sim.min_self_ssd_map(reference, params.search_radius,
                                             side)
        ss_ok = best_cross < min_self

    state_in = np.full((hi, wi_r), CellState.NOT_MEANINGFUL, dtype=np.uint8)
    if mode is MatchMode.SS_ONLY:
        accepted = has_candidate & ss_ok
        state_in[has_candidate & ~ss_ok] = CellState.SELF_SIMILAR
    else:
        meaningful = has_candidate & (best_nfa <= params.epsilon)
        if mode is MatchMode.ACBM_SS:
            accepted = meaningful & ss_ok
            state_in[meaningful & ~ss_ok] = CellState.SELF_SIMILAR
        else:
            accepted = meaningful
    state_in[accepted] = CellState.ACCEPTED

    h, w = reference.height, reference.width
    state = np.full((h, w), CellState.BORDER, dtype=np.uint8)
    disparity = np.zeros((h, w), dtype=np.int32)
    nfa = np.full((h, w), np.nan)
    core_rows = np.s_[half:half + hi, half:half + wi_r]
    state[core_rows] = state_in
    disparity[core_rows] = np.where(accepted, best_d, 0)
    nfa[core_rows] = np.where(accepted, best_nfa, np.nan)
    return DisparityMap(state=state, disparity=disparity, nfa=nfa)


def scan_candidates(q: tuple[int, int], model: BackgroundModel,
                    params: AcbmParams, reference: GrayImage,
                    secondary: GrayImage) -> list[CandidateScore]:
    """Every candidate of pixel q with its quantized vector, NFA and block
    SSD, in ascending disparity order.  Inspection and testing hook."""
    x, y = q
    side = params.block_side
    half = side // 2
    if not (half <= x < reference.width - half
            and half <= y < reference.height - half):
        raise BorderPixel(f"({x}, {y}) has no complete block")
    basis, cdfs = model.basis, model.cdfs
    n_test = core.number_of_tests(reference.width * reference.height, params)
    block_q = patch_model.extract_block(reference, q, side)
    coeffs_q = patch_model.project(basis, block_q)
    order = core.order_components(coeffs_q)[:params.num_components]
    hq = np.array([patch_model.cdf_eval(cdfs[i], coeffs_q[i]) for i in order])
    out = []
    for d in range(-params.search_radius, params.search_radius + 1):
        xc = x + d
        if not half <= xc < secondary.width - half:
            continue
        block_c = patch_model.extract_block(secondary, (xc, y), side)
        coeffs_c = patch_model.project(basis, block_c)
        hqp = np.array([patch_model.cdf_eval(cdfs[i], coeffs_c[i])
                        for i in order])
        p = core.resemblance_probability(hq, hqp)
        quant = core.quantize_sequence(p, params.num_levels)
        out.append(CandidateScore(disparity=d, quantized=quant,
                                  nfa=core.nfa(n_test, quant),
                                  cross_ssd=self_sim.ssd(block_q, block_c)))
    return out


def match_pixel(q: tuple[int, int], model: BackgroundModel,
                params: AcbmParams, reference: GrayImage,
                secondary: GrayImage,
                mode: MatchMode = MatchMode.ACBM_SS) -> MatchDecision:
    """Single-pixel decision; agrees with the corresponding match_pair cell."""
    if reference.height != secondary.height:
        raise HeightMismatch(f"heights {reference.height} and "
                             f"{secondary.height} differ")
    scores = scan_candidates(q, model, params, reference, secondary)
    if not scores:
        return MatchDecision(q, CellState.NOT_MEANINGFUL, None, None)
    by_ssd = mode is MatchMode.SS_ONLY
    best = None
    for s in sorted(scores, key=lambda s: (abs(s.disparity), s.disparity)):
        metric = s.cross_ssd if by_ssd else s.nfa
        if best is None or metric < (best.cross_ssd if by_ssd else best.nfa):
            best = s
    if not by_ssd and not core.is_meaningful(best.nfa, params.epsilon):
        return MatchDecision(q, CellState.NOT_MEANINGFUL, None, None)
    if mode is not MatchMode.ACBM_ONLY:
        ctx = self_sim.SsContext(reference, params.search_radius,
                                 params.block_side)
        if not self_sim.self_similarity_accept(ctx, q, best.cross_ssd):
            return MatchDecision(q, CellState.SELF_SIMILAR, None, None)
    return MatchDecision(q, CellState.ACCEPTED, best.disparity, best.nfa)


def densify_median(dmap: DisparityMap) -> DisparityMap:
    """One median pass: a rejected non-Border pixel with at least 5 accepted
    cells in its 3x3 neighborhood becomes accepted with their lower median
    disparity and the smallest nfa among them.  Reads only the incoming
    accepted set, so fills never chain; Border stays Border."""
    h, w = dmap.height, dmap.width
    acc = dmap.accepted
    pad_acc = np.pad(acc, 1)
    pad_disp = np.pad(dmap.disparity, 1)
    pad_nfa = np.pad(dmap.nfa, 1, constant_values=np.inf)
    vals = np.full((9, h, w), np.inf)
    nfas = np.full((9, h, w), np.inf)
    k = 0
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            a = pad_acc[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
            vals[k] = np.where(a, pad_disp[1 + dy:1 + dy + h,
                                           1 + dx:1 + dx + w], np.inf)
            nfas[k] = np.where(a, pad_nfa[1 + dy:1 + dy + h,
                                          1 + dx:1 + dx + w], np.inf)
            k += 1
    count = np.isfinite(vals).sum(axis=0)
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
