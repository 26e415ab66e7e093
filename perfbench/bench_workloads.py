"""Workloads of the acbm benchmark: inputs, one operation, output checks.

Every input and every ground truth is made here with numpy from the seed, so
a change to acbm's own generators (acbm.validation.gen_*) cannot change a
workload.  Each workload class has:

  setup(seed, workdir) -> inputs   deterministic per seed; timed as setup_s
  run(inputs, index)   -> output   one operation; timed as op_s
  check(inputs, output) -> Check   output checks; a failed check fails the op
  reference_mpix                   megapixels matched per operation
  table_bytes()                    computed size of the largest per-pixel
                                   tables, (interior pixels) x 81 x 8 bytes
                                   per image

Operations call the program through module attributes (pipeline.match_pair,
not a name bound at import) so the traced run sees them.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from acbm import cli, core, patch_model, pipeline, validation
from acbm.imgio import CellState, GrayImage

FALSE_ALARM_LIMIT = 2.0      # criterion 2: mean false alarms per trial
BAND_ACCEPT_CEILING = 5.0    # criterion 3: percent of stripe-band pixels
DENSITY_FLOOR = 20.0         # percent; a matcher that rejects everything
                             # would otherwise pass the error checks


def texture(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """Gaussian white noise averaged over 5x5 windows, rescaled to integer
    gray levels in [0, 255]."""
    noise = rng.normal(size=(height + 4, width + 4))
    c = np.zeros((height + 5, width + 5))
    c[1:, 1:] = noise.cumsum(axis=0).cumsum(axis=1)
    box = c[5:, 5:] - c[:-5, 5:] - c[5:, :-5] + c[:-5, :-5]
    lo, hi = box.min(), box.max()
    return np.rint((box - lo) * (255.0 / (hi - lo)))


def add_stripes(pixels: np.ndarray, rows: tuple[int, int],
                period: int) -> np.ndarray:
    """Copy of pixels with rows [y0, y1) replaced by vertical stripes of
    the given period (first half of each period white)."""
    out = pixels.copy()
    cols = np.arange(pixels.shape[1])
    out[rows[0]:rows[1], :] = np.where(cols % period < period / 2, 255.0, 0.0)
    return out


def translated(pixels: np.ndarray, shift: int):
    """Secondary image = reference moved right by shift > 0 with wrap-around,
    so reference column x matches secondary column x + shift.  Returns the
    secondary and the mask of reference pixels whose match did not wrap."""
    width = pixels.shape[1]
    valid = np.zeros(pixels.shape, dtype=bool)
    valid[:, :width - shift] = True
    return np.roll(pixels, shift, axis=1), valid


def write_pgm(pixels: np.ndarray, path: Path) -> None:
    h, w = pixels.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode()
                     + pixels.astype(np.uint8).tobytes())


def decisions_sha256(state: np.ndarray, disparity: np.ndarray) -> str:
    return hashlib.sha256(state.astype(np.uint8).tobytes()
                          + disparity.astype(np.int32).tobytes()).hexdigest()


@dataclass
class Check:
    problems: list[str] = field(default_factory=list)
    quality: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def _interior_bytes(height: int, width: int, block: int) -> int:
    return (height - block + 1) * (width - block + 1) * block * block * 8


def _check_disparities(check: Check, accepted, disparity, gt, valid, radius,
                       ambiguous=None):
    """Shared checks of an accepted set against the benchmark's own ground
    truth: disparities in [-R, R], none off by more than 1 inside the valid
    mask (outside the ambiguous pixels, if given), and at least
    DENSITY_FLOOR percent accepted.  Records density_pct and bad_pct
    (|d - gt| > 1 among accepted valid pixels, ambiguous ones included)."""
    d = disparity[accepted]
    if d.size and (d.min() < -radius or d.max() > radius):
        check.problems.append(f"accepted disparity outside [-{radius}, "
                              f"{radius}]: [{d.min()}, {d.max()}]")
    evaluated = accepted & valid
    bad = evaluated & (np.abs(disparity - gt) > 1)
    density = 100.0 * accepted.mean()
    check.quality["density_pct"] = density
    check.quality["bad_pct"] = (100.0 * bad.sum() / evaluated.sum()
                                if evaluated.any() else 0.0)
    outside = bad if ambiguous is None else bad & ~ambiguous
    if outside.any():
        check.problems.append(f"{int(outside.sum())} accepted pixels off by "
                              f"more than 1 inside the valid mask")
    if density < DENSITY_FLOOR:
        check.problems.append(f"density {density:.2f}% under the "
                              f"{DENSITY_FLOOR}% floor")


# --- pair512 -------------------------------------------------------------
# Why: the canonical run (criterion 9 size and the ROADMAP baseline).
# Learning the basis and evaluating the 81 component CDFs of both images
# take about 80% of the time and set the memory high-water; the 11-disparity
# scan is about 12%.

@dataclass
class PairInputs:
    reference: GrayImage
    secondary: GrayImage
    gt: np.ndarray      # true disparity per reference pixel
    valid: np.ndarray   # False where the match wrapped around


class Pair512:
    name = "pair512"
    setups = 9
    shift = 2

    def __init__(self, size: int = 512, block: int = 9):
        self.size, self.block = size, block
        self.params = core.AcbmParams(search_radius=5, block_side=block)

    @property
    def reference_mpix(self) -> float:
        return self.size * self.size / 1e6

    def table_bytes(self) -> dict:
        b = _interior_bytes(self.size, self.size, self.block)
        return {"reference": b, "secondary": b}

    def setup(self, seed: int, workdir: Path) -> PairInputs:
        rng = np.random.default_rng(seed)
        ref = texture(rng, self.size, self.size)
        sec, valid = translated(ref, self.shift)
        return PairInputs(GrayImage(ref), GrayImage(sec),
                          np.full(ref.shape, float(self.shift)), valid)

    def run(self, inputs: PairInputs, index: int):
        return pipeline.match_pair(inputs.reference, inputs.secondary,
                                   self.params, mode=pipeline.MatchMode.ACBM_SS)

    def check(self, inputs: PairInputs, dmap) -> Check:
        check = Check()
        if dmap.state.shape != inputs.gt.shape:
            check.problems.append(f"map shape {dmap.state.shape}")
            return check
        codes = {int(s) for s in CellState}
        if not set(np.unique(dmap.state).tolist()) <= codes:
            check.problems.append("state outside the CellState codes")
        _check_disparities(check, dmap.state == CellState.ACCEPTED,
                           dmap.disparity, inputs.gt, inputs.valid,
                           self.params.search_radius)
        check.quality["decisions_sha256"] = decisions_sha256(dmap.state,
                                                             dmap.disparity)
        return check


# --- range32 -------------------------------------------------------------
# Why: the wide search.  The 65-disparity scan (candidate_nfa_block, the
# core quantiser, match_pair bookkeeping) and the self-similarity maps take
# most of the time, while the basis is learned once in setup from another
# frame and passed with --basis, so a basis optimisation must predict no
# change here.  The stripe band makes the veto fire; densify, imgio and cli
# run only here.

@dataclass
class RangeInputs:
    workdir: Path
    gt: np.ndarray
    valid: np.ndarray
    band: np.ndarray    # True on the stripe rows
    touched: np.ndarray  # True where the pixel's block overlaps the band


class Range32:
    name = "range32"
    setups = 3
    shift = 17
    radius = 32
    period = 4

    def __init__(self, size: int = 320, band: tuple[int, int] = (120, 200),
                 block: int = 9):
        self.size, self.band, self.block = size, band, block

    @property
    def reference_mpix(self) -> float:
        return self.size * self.size / 1e6

    def table_bytes(self) -> dict:
        b = _interior_bytes(self.size, self.size, self.block)
        return {"reference": b, "secondary": b}

    def setup(self, seed: int, workdir: Path) -> RangeInputs:
        rng = np.random.default_rng(seed)
        ref = add_stripes(texture(rng, self.size, self.size), self.band,
                          self.period)
        sec, valid = translated(ref, self.shift)
        # the basis comes from another frame of the same kind of scene
        frame = texture(rng, self.size, self.size)
        write_pgm(ref, workdir / "ref.pgm")
        write_pgm(sec, workdir / "sec.pgm")
        basis = patch_model.compute_patch_basis(GrayImage(frame), self.block)
        patch_model.save_basis(basis, workdir / "basis.bin")
        y0, y1 = self.band
        half = self.block // 2
        band = np.zeros(ref.shape, dtype=bool)
        band[y0:y1, :] = True
        touched = np.zeros(ref.shape, dtype=bool)
        touched[max(0, y0 - half):y1 + half, :] = True
        return RangeInputs(workdir, np.full(ref.shape, float(self.shift)),
                           valid, band, touched)

    def argv(self, workdir: Path) -> list[str]:
        return ["match", str(workdir / "ref.pgm"), str(workdir / "sec.pgm"),
                "--range", str(self.radius), "--block", str(self.block),
                "--basis", str(workdir / "basis.bin"), "--densify",
                "--out", str(workdir / "disp.tsv"),
                "--viz", str(workdir / "viz.pgm")]

    def run(self, inputs: RangeInputs, index: int):
        return cli.main(self.argv(inputs.workdir))

    def check(self, inputs: RangeInputs, code) -> Check:
        check = Check()
        if code != 0:
            check.problems.append(f"acbm match exited {code}")
            return check
        disp = np.loadtxt(inputs.workdir / "disp.tsv", delimiter="\t",
                          ndmin=2)
        if disp.shape != inputs.gt.shape:
            check.problems.append(f"disparity text shape {disp.shape}")
            return check
        accepted = np.isfinite(disp)
        values = np.where(accepted, disp, 0.0)
        if (values != np.rint(values)).any():
            check.problems.append("non-integer accepted disparity")
        disparity = values.astype(np.int32)
        _check_disparities(check, accepted, disparity, inputs.gt,
                           inputs.valid, self.radius, ambiguous=inputs.touched)
        band_pct = 100.0 * (accepted & inputs.band).sum() / inputs.band.sum()
        check.quality["band_accept_pct"] = band_pct
        if band_pct >= BAND_ACCEPT_CEILING:
            check.problems.append(f"stripe band acceptance {band_pct:.2f}% "
                                  f"at or over {BAND_ACCEPT_CEILING}%")
        header = (inputs.workdir / "viz.pgm").read_bytes()[:32].split()
        if header[:3] != [b"P5", str(self.size).encode(),
                          str(self.size).encode()]:
            check.problems.append(f"visualization header {header[:3]}")
        # the text format keeps accepted vs rejected, not the reason
        state = np.where(accepted, CellState.ACCEPTED,
                         CellState.NOT_MEANINGFUL)
        check.quality["decisions_sha256"] = decisions_sha256(state, disparity)
        return check


# --- h0 ------------------------------------------------------------------
# Why: the mc-nfa use of the same layers.  cdf_eval runs on out-of-sample
# values and sample_coefficients dominates, so a shortcut valid only for
# training values cannot hide a regression; the only workload for the
# validation layer.

@dataclass
class H0Inputs:
    image: GrayImage
    seed: int


class H0:
    name = "h0"
    setups = 25

    def __init__(self, size: int = 128, trials: int = 2, block: int = 9):
        self.size, self.trials, self.block = size, trials, block
        self.params = core.AcbmParams(search_radius=5, epsilon=1.0,
                                      block_side=block)

    @property
    def reference_mpix(self) -> float:
        # each trial matches every reference pixel once
        return self.size * self.size * self.trials / 1e6

    def table_bytes(self) -> dict:
        b = _interior_bytes(self.size, self.size, self.block)
        return {"reference": b, "sampled": b}

    def setup(self, seed: int, workdir: Path) -> H0Inputs:
        rng = np.random.default_rng(seed)
        return H0Inputs(GrayImage(texture(rng, self.size, self.size)), seed)

    def run(self, inputs: H0Inputs, index: int) -> float:
        model = patch_model.learn_background_model(inputs.image, self.block)
        # successive operations draw fresh trials
        seed = inputs.seed * 1000 + index * self.trials
        return validation.monte_carlo_false_alarms(
            inputs.image, model, self.params, trials=self.trials, seed=seed)

    def check(self, inputs: H0Inputs, mean: float) -> Check:
        check = Check(quality={"false_alarms": mean})
        if not 0.0 <= mean <= FALSE_ALARM_LIMIT:
            check.problems.append(f"mean false alarms {mean} outside "
                                  f"[0, {FALSE_ALARM_LIMIT}]")
        return check


WORKLOADS = {w.name: w for w in (Pair512, Range32, H0)}
