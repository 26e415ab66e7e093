"""Command-line front end.

Subcommands: match, eval, synth-noise, synth-shift, mc-nfa.  Results go to
the output files / stdout, diagnostics to stderr.  Exit codes: 0 success,
1 usage error, 2 file error, 3 model or numeric error.  Runs are
deterministic: identical arguments, inputs and seeds give byte-identical
outputs.
"""
from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import imgio, patch_model, pipeline, validation
from .core import AcbmParams
from .errors import IO_ERRORS, AcbmError
from .imgio import CellState


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_model_flags(p):
    p.add_argument("--range", type=int, required=True, metavar="R",
                   help="search disparities in [-R, R]")
    p.add_argument("--epsilon", type=float, default=1.0,
                   help="NFA acceptance threshold (default 1)")
    p.add_argument("--block", type=int, default=9,
                   help="block side, odd (default 9)")
    p.add_argument("--components", type=int, default=9,
                   help="components compared per block (default 9)")
    p.add_argument("--quanta", type=int, default=5,
                   help="probability quantization levels (default 5)")


def _params(args) -> AcbmParams:
    return AcbmParams(search_radius=args.range, epsilon=args.epsilon,
                      block_side=args.block, num_components=args.components,
                      num_levels=args.quanta)


def _build_parser() -> _Parser:
    parser = _Parser(prog="acbm",
                     description="A contrario block matching for rectified "
                                 "stereo pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match",
                       help="match a rectified pair")
    p.add_argument("reference", help="reference image (PGM or PFM)")
    p.add_argument("secondary", help="secondary image (PGM or PFM)")
    _add_model_flags(p)
    p.add_argument("--mode", choices=[m.value for m in pipeline.MatchMode],
                   default=pipeline.MatchMode.ACBM_SS.value,
                   help="decision rule (default acbm+ss)")
    p.add_argument("--densify", action="store_true",
                   help="one 3x3 median fill pass after matching")
    p.add_argument("--basis", default=None,
                   help="reuse a saved patch basis instead of learning one")
    p.add_argument("--out", default="disparity.tsv",
                   help="disparity text output (default disparity.tsv)")
    p.add_argument("--viz", default=None,
                   help="optional visualization PGM")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("eval",
                       help="score a disparity map against ground truth")
    p.add_argument("disparity", help="disparity text file")
    p.add_argument("truth", help="ground-truth image or disparity text")
    p.add_argument("--mask", default=None,
                   help="validity mask image (0 = invalid)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="ground-truth decode divisor (default 1)")
    p.add_argument("--gt-offset", type=float, default=128.0,
                   help="ground-truth decode offset (default 128)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth-noise",
                       help="write an independent Gaussian noise pair")
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--height", type=int, default=256)
    p.add_argument("--sigma", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-left", default="noise_left.pgm")
    p.add_argument("--out-right", default="noise_right.pgm")
    p.set_defaults(func=_cmd_synth_noise)

    p = sub.add_parser("synth-shift",
                       help="write a translated textured pair with ground "
                            "truth")
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--height", type=int, default=256)
    p.add_argument("--shift", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stripe-rows", default=None, metavar="Y0:Y1",
                   help="replace rows [Y0, Y1) with vertical stripes")
    p.add_argument("--stripe-period", type=int, default=4)
    p.add_argument("--out-left", default="shift_left.pgm")
    p.add_argument("--out-right", default="shift_right.pgm")
    p.add_argument("--out-gt", default="shift_gt.tsv")
    p.add_argument("--out-mask", default="shift_mask.pgm")
    p.set_defaults(func=_cmd_synth_shift)

    p = sub.add_parser("mc-nfa",
                       help="Monte-Carlo check of the false-alarm bound")
    p.add_argument("image", help="image providing model and reference blocks")
    _add_model_flags(p)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_mc_nfa)
    return parser


def _cmd_match(args) -> int:
    params = _params(args)
    reference = imgio.load_gray(args.reference)
    secondary = imgio.load_gray(args.secondary)
    basis = patch_model.load_basis(args.basis) if args.basis else None
    mode = pipeline.MatchMode(args.mode)
    t0 = time.perf_counter()
    dmap = pipeline.match_pair(reference, secondary, params, basis=basis,
                               mode=mode)
    if args.densify:
        dmap = pipeline.densify_median(dmap)
    elapsed = time.perf_counter() - t0
    imgio.save_disparity(dmap, args.out)
    if args.viz:
        imgio.save_disparity_viz(dmap, args.viz)
    total = dmap.width * dmap.height
    counts = {st: int((dmap.state == st).sum()) for st in CellState}
    print(f"{args.reference} vs {args.secondary}: {dmap.width}x{dmap.height},"
          f" range [-{params.search_radius}, {params.search_radius}],"
          f" epsilon {params.epsilon:g}", file=sys.stderr)
    print(f"accepted {counts[CellState.ACCEPTED]}"
          f" ({100.0 * counts[CellState.ACCEPTED] / total:.2f}%),"
          f" not-meaningful {counts[CellState.NOT_MEANINGFUL]},"
          f" self-similar {counts[CellState.SELF_SIMILAR]},"
          f" border {counts[CellState.BORDER]},"
          f" {elapsed:.2f}s", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    dmap = imgio.load_disparity(args.disparity)
    gt = validation.load_ground_truth(args.truth, mask_path=args.mask,
                                      scale=args.scale, offset=args.gt_offset)
    report = validation.evaluate(dmap, gt)
    print(f"pixels     {report.total_pixels}")
    print(f"accepted   {report.num_accepted}")
    print(f"density    {report.density_percent:.4f} %")
    print(f"evaluated  {report.num_evaluated}")
    print(f"bad        {report.num_bad} ({report.bad_percent:.4f} %)")
    print(f"{report.density_percent:.4f}\t{report.bad_percent:.4f}"
          f"\t{report.num_accepted}\t{report.num_evaluated}"
          f"\t{report.num_bad}\t{report.total_pixels}")
    return 0


def _cmd_synth_noise(args) -> int:
    left, right = validation.gen_noise_pair(args.width, args.height,
                                            sigma=args.sigma, seed=args.seed)
    imgio.save_pgm(left, args.out_left, maxval=255)
    imgio.save_pgm(right, args.out_right, maxval=255)
    print(f"wrote {args.out_left}, {args.out_right}"
          f" ({args.width}x{args.height}, sigma {args.sigma:g},"
          f" seed {args.seed})", file=sys.stderr)
    return 0


def _parse_stripe_rows(text):
    if text is None:
        return None
    try:
        y0, y1 = text.split(":")
        return int(y0), int(y1)
    except ValueError:
        raise ValueError(f"--stripe-rows wants Y0:Y1, got {text!r}") from None


def _cmd_synth_shift(args) -> int:
    rows = _parse_stripe_rows(args.stripe_rows)
    ref, sec, gt = validation.gen_translated_pair(
        args.width, args.height, args.shift, texture_seed=args.seed,
        stripe_rows=rows, stripe_period=args.stripe_period)
    imgio.save_pgm(ref, args.out_left, maxval=255)
    imgio.save_pgm(sec, args.out_right, maxval=255)
    state = np.where(gt.valid, CellState.ACCEPTED,
                     CellState.NOT_MEANINGFUL).astype(np.uint8)
    gt_map = imgio.DisparityMap(
        state=state, disparity=np.rint(gt.disparity).astype(np.int32),
        nfa=np.full(gt.disparity.shape, np.nan))
    imgio.save_disparity(gt_map, args.out_gt)
    imgio.save_pgm(imgio.GrayImage(np.where(gt.valid, 255.0, 0.0)),
                   args.out_mask, maxval=255)
    print(f"wrote {args.out_left}, {args.out_right}, {args.out_gt},"
          f" {args.out_mask} (shift {args.shift}, seed {args.seed})",
          file=sys.stderr)
    return 0


def _cmd_mc_nfa(args) -> int:
    params = _params(args)
    image = imgio.load_gray(args.image)
    t0 = time.perf_counter()
    model = patch_model.learn_background_model(image, params.block_side)
    mean = validation.monte_carlo_false_alarms(image, model, params,
                                               trials=args.trials,
                                               seed=args.seed)
    elapsed = time.perf_counter() - t0
    print(f"{args.image}: {args.trials} trials, epsilon {params.epsilon:g},"
          f" mean false alarms {mean:.6f}, {elapsed:.2f}s", file=sys.stderr)
    print(f"{mean:.6f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except IO_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AcbmError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
