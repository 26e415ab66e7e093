"""A contrario block matching for rectified stereo pairs."""

from .core import AcbmParams
from .imgio import CellState, DisparityMap, GrayImage
from .patch_model import (BackgroundModel, PatchBasis, learn_background_model,
                          load_basis, save_basis)
from .pipeline import (MatchDecision, MatchMode, densify_median, match_pair,
                       match_pixel)
from .validation import (EvalReport, GroundTruth, evaluate, gen_noise_pair,
                         gen_texture, gen_translated_pair,
                         monte_carlo_false_alarms)

__version__ = "0.1.0"

__all__ = [
    "AcbmParams", "CellState", "DisparityMap", "GrayImage",
    "BackgroundModel", "PatchBasis", "learn_background_model", "load_basis",
    "save_basis", "MatchDecision", "MatchMode",
    "densify_median", "match_pair", "match_pixel", "EvalReport",
    "GroundTruth", "evaluate", "gen_noise_pair", "gen_texture",
    "gen_translated_pair", "monte_carlo_false_alarms", "__version__",
]
