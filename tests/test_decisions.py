"""Committed decisions: match_pair's output bytes and Monte-Carlo counts on
fixed scenes.  A change that keeps every decision passes this file
unchanged; a change that moves decisions by design updates the expected
values in the same commit and says which scenes changed.

The scenes are small and each basis is learned once.  At near ties the
bytes depend on how the BLAS build rounds a block's projection, so another
BLAS build can fail here.  The band height and the caller's BLAS thread
count cannot: each block is its own product, on one BLAS thread.

`PYTHONPATH=src python tests/test_decisions.py` recomputes every expected
value and prints it in this file's layout, ready to paste over the old one.
"""
import functools
import hashlib
from pathlib import Path

import numpy as np
import pytest

from acbm import (AcbmParams, GrayImage, MatchMode, gen_texture,
                  gen_translated_pair, learn_background_model, match_pair,
                  monte_carlo_false_alarms)
from acbm.patch_model import compute_patch_basis


def striped():
    ref, sec, _ = gen_translated_pair(160, 96, 2, texture_seed=1,
                                      stripe_rows=(40, 64))
    return ref, sec


def saturated():
    pixels = gen_texture(96, 96, seed=3).pixels
    pixels[18:78, 18:78] = 255.0
    return GrayImage(pixels), GrayImage(np.roll(pixels, -2, axis=1))


def flat():
    pixels = np.full((40, 40), 128.0)
    return GrayImage(pixels), GrayImage(pixels.copy())


def non_integer():
    pixels = np.random.default_rng(22).normal(128.0, 40.0, (48, 64))
    pixels[30:] = np.where(np.arange(64) % 2, 200.5, 60.25)
    return GrayImage(pixels), GrayImage(np.roll(pixels, 2, axis=1))


def digest(dmap):
    h = hashlib.sha256()
    for a in (dmap.state, dmap.disparity, dmap.nfa):
        h.update(a.tobytes())
    return h.hexdigest()


# sha256 of state, disparity and nfa bytes at R=5, per (mode, epsilon)
EXPECTED = {
    striped: {
        ("acbm+ss", 1.0):
            "ba80ce1570c0764cccf3886b47f58d60658f9c3ba27a65a612b8671e68abff0e",
        ("acbm+ss", 1e6):
            "4e632318d6939bf29977b503753f8149183d534c5636339460102adad90b03ef",
        ("acbm", 1.0):
            "c1a861ef0fdcf7944d96bc6a270b775060fd012a71611af5f1694d384a471815",
        ("acbm", 1e6):
            "2dc9cc93e81a91f44cfdb16c10aeef8a47402b0b2e8a04a22193025408872709",
        ("ss", 1.0):
            "36b939bb56eb5e776139caf37b63b466286a18fa50dbe99ada149b2d2fedab86",
        ("ss", 1e6):
            "36b939bb56eb5e776139caf37b63b466286a18fa50dbe99ada149b2d2fedab86",
    },
    saturated: {
        ("acbm+ss", 1.0):
            "51e7dfacf0ca8c29838d4c985ee28ce05d6ea2f35564e0f7be1667425d38e8d1",
        ("acbm+ss", 1e6):
            "1d30de6fdb49d507288d6943b3c018814ff77ed2b504ae91234abdb87e21da5e",
        ("acbm", 1.0):
            "a5ea572c8b9f983b26327fc17c133c85778148c73b1fff15dab2e4d5b1f48a4e",
        ("acbm", 1e6):
            "7ad578e87d46d669ff0334acabaf12a719931db659003ff27bc931b9ac0bc665",
        ("ss", 1.0):
            "95a2479745b33f3dbcd32c0c2242b783996616cd752394ef18b5cd104e4ebd61",
        ("ss", 1e6):
            "95a2479745b33f3dbcd32c0c2242b783996616cd752394ef18b5cd104e4ebd61",
    },
    flat: {
        ("acbm+ss", 1.0):
            "7eb489296e48d1caa32bba35096073e98b32c4303817f1f0c81db89c8f81e9ad",
        ("acbm+ss", 1e6):
            "7eb489296e48d1caa32bba35096073e98b32c4303817f1f0c81db89c8f81e9ad",
        ("acbm", 1.0):
            "1f331fd29072a73df5aadb5b208cbd704ac875efee6098280a15a3afad720c31",
        ("acbm", 1e6):
            "1f331fd29072a73df5aadb5b208cbd704ac875efee6098280a15a3afad720c31",
        ("ss", 1.0):
            "7eb489296e48d1caa32bba35096073e98b32c4303817f1f0c81db89c8f81e9ad",
        ("ss", 1e6):
            "7eb489296e48d1caa32bba35096073e98b32c4303817f1f0c81db89c8f81e9ad",
    },
    non_integer: {
        ("acbm+ss", 1.0):
            "2656c367d56bb8f8f2aed415f308e0eff5f713c251a9a99d475552b67cbecf56",
        ("acbm+ss", 1e6):
            "78f636a08e3ae9fa21bf092bd1b0beaf529fe13cbda73a225ad67e5bc71c3315",
        ("acbm", 1.0):
            "76b3e186623db8fba024d1d936e7304cb8563c699e7b1ce95a6edc5eee70cce0",
        ("acbm", 1e6):
            "287d306ce7ba22170d00f54f461cd0b8e39dab1f414c6eb16ad4c90bdf744448",
        ("ss", 1.0):
            "4e1a02616f16bf161fe7f16ed5c9329bbc1ea46cb909e4415cecade574bcf6c3",
        ("ss", 1e6):
            "4e1a02616f16bf161fe7f16ed5c9329bbc1ea46cb909e4415cecade574bcf6c3",
    },
}

# the striped scene at 12 levels and 20 components, epsilon 1e6
EXPECTED_12_LEVELS_20_COMPONENTS = (
    "f75cc380d4ca70dc34d7f652089219bb02fbf7c6042e7b53755fc91ae31080aa")

# Monte-Carlo counts: the criterion-2 probe, the saturated runs of
# SATURATED_RUNS and the benchmark's h0 operation
CRITERION_2_PROBE = 3331.5
SATURATED_COUNTS = [3253.0, 2291.5, 290.5, 32.5]
H0_COUNT = 98.0


@functools.cache
def with_basis(scene):
    ref, sec = scene()
    return ref, sec, compute_patch_basis(sec, 9)


def decisions(scene):
    ref, sec, basis = with_basis(scene)
    got = {}
    for mode in MatchMode:
        for eps in (1.0, 1e6):
            params = AcbmParams(search_radius=5, epsilon=eps)
            got[mode.value, eps] = digest(match_pair(ref, sec, params,
                                                     basis=basis, mode=mode))
    return got


def decisions_at_12_levels_20_components():
    ref, sec, basis = with_basis(striped)
    params = AcbmParams(search_radius=5, epsilon=1e6, num_components=20,
                        num_levels=12)
    return digest(match_pair(ref, sec, params, basis=basis))


def criterion_2_probe():
    img = gen_texture(96, 96, seed=5)
    model = learn_background_model(img)
    params = AcbmParams(search_radius=3, epsilon=1e6)
    return monte_carlo_false_alarms(img, model, params, trials=2, seed=3)


# 28% of the pixels saturated: many tied training values.  Under the
# image's own ranks the exact mean of the first run is 3335.4 (sd 37.5 over
# 2 trials); 2880 is the value for uniform p, which ties do not give
SATURATED_RUNS = [
    AcbmParams(search_radius=2, epsilon=2e4, num_components=1),
    AcbmParams(search_radius=2, epsilon=1e6),
    AcbmParams(search_radius=2, epsilon=1e6, num_components=20,
               num_levels=12),
    AcbmParams(search_radius=2, epsilon=1e6, num_components=81)]


def saturated_counts():
    img = gen_texture(80, 72, seed=2)
    img.pixels[10:50, 20:60] = 255.0
    model = learn_background_model(img)
    return [monte_carlo_false_alarms(img, model, params, trials=2, seed=9)
            for params in SATURATED_RUNS]


def h0_count():
    # the benchmark's h0 operation on a fixed texture, at an epsilon that
    # leaves a count to compare
    img = gen_texture(128, 128, seed=11)
    model = learn_background_model(img)
    params = AcbmParams(search_radius=5, epsilon=1e4)
    return monte_carlo_false_alarms(img, model, params, trials=2, seed=0)


@pytest.mark.parametrize("scene", list(EXPECTED), ids=lambda s: s.__name__)
def test_match_pair_decisions(scene):
    assert decisions(scene) == EXPECTED[scene]


def test_match_pair_decisions_at_12_levels_20_components():
    assert decisions_at_12_levels_20_components() == \
        EXPECTED_12_LEVELS_20_COMPONENTS


def test_criterion_2_probe_count():
    assert criterion_2_probe() == CRITERION_2_PROBE


def test_saturated_monte_carlo_counts():
    assert saturated_counts() == SATURATED_COUNTS


def test_h0_monte_carlo_count():
    assert h0_count() == H0_COUNT


def number(x):
    """x as in this file: 1e6 rather than 1000000.0."""
    power = f"{x:.0e}".replace("e+0", "e")
    return power if x >= 1e4 and float(power) == x else repr(x)


def fixture_source(expected, at_12_20, probe, saturated, h0):
    """The expected values as this file writes them."""
    lines = ["EXPECTED = {"]
    for scene, digests in expected.items():
        lines.append(f"    {scene.__name__}: {{")
        for (mode, eps), value in digests.items():
            lines += [f'        ("{mode}", {number(eps)}):',
                      f'            "{value}",']
        lines.append("    },")
    lines += ["}", "",
              "# the striped scene at 12 levels and 20 components, "
              "epsilon 1e6",
              "EXPECTED_12_LEVELS_20_COMPONENTS = (", f'    "{at_12_20}")',
              "",
              "# Monte-Carlo counts: the criterion-2 probe, the saturated "
              "runs of",
              "# SATURATED_RUNS and the benchmark's h0 operation",
              f"CRITERION_2_PROBE = {number(probe)}",
              f"SATURATED_COUNTS = [{', '.join(map(number, saturated))}]",
              f"H0_COUNT = {number(h0)}"]
    return "\n".join(lines)


def test_fixture_source_is_this_files_layout():
    text = fixture_source(EXPECTED, EXPECTED_12_LEVELS_20_COMPONENTS,
                          CRITERION_2_PROBE, SATURATED_COUNTS, H0_COUNT)
    assert text in Path(__file__).read_text()


if __name__ == "__main__":
    print(fixture_source({scene: decisions(scene) for scene in EXPECTED},
                         decisions_at_12_levels_20_components(),
                         criterion_2_probe(), saturated_counts(), h0_count()))
