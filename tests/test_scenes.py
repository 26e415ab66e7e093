"""Occlusions and incoherent motion: scenes where part of the reference has
no true match in the secondary image.  The method should reject those
pixels, not match them to something else."""
import numpy as np
import pytest

from acbm import AcbmParams, GrayImage, gen_texture, match_pair

BACKGROUND_D = 2


def occlusion_scene(seed):
    """160x160 background at disparity 2 behind a 60-wide, 80-tall
    foreground rectangle at disparity 8.  Returns (reference, secondary,
    truth, occluded): truth is each reference pixel's disparity, and
    occluded marks the background strip whose match the foreground hides
    in the secondary image."""
    size, fg_d = 160, 8
    x0, y0, w, h = 50, 40, 60, 80
    background = gen_texture(size + fg_d, size, seed=seed).pixels
    foreground = gen_texture(w, h, seed=seed + 100).pixels
    # reference column x shows background column x + 8, and so does
    # secondary column x + 2: no candidate leaves the background
    ref = background[:, fg_d:].copy()
    sec = background[:, fg_d - BACKGROUND_D:size + fg_d - BACKGROUND_D].copy()
    ref[y0:y0 + h, x0:x0 + w] = foreground
    sec[y0:y0 + h, x0 + fg_d:x0 + fg_d + w] = foreground
    truth = np.full((size, size), BACKGROUND_D)
    truth[y0:y0 + h, x0:x0 + w] = fg_d
    occluded = np.zeros((size, size), dtype=bool)
    occluded[y0:y0 + h, x0 + w:x0 + fg_d + w - BACKGROUND_D] = True
    return GrayImage(ref), GrayImage(sec), truth, occluded


def motion_scene(seed):
    """160x160 pair at disparity 2 with two changes: a 40x40 patch of new
    texture in the secondary image only, and a 30x30 object that also
    moves 6 rows down, off the epipolar line.  Returns (reference,
    secondary, changed): changed marks the reference pixels whose match
    the changes alter, the object included."""
    size, drop = 160, 6
    background = gen_texture(size + BACKGROUND_D, size, seed=seed).pixels
    ref = background[:, BACKGROUND_D:].copy()
    sec = background[:, :size].copy()
    ox, oy, side = 30, 40, 30
    obj = gen_texture(side, side, seed=seed + 100).pixels
    ref[oy:oy + side, ox:ox + side] = obj
    sec[oy + drop:oy + drop + side,
        ox + BACKGROUND_D:ox + BACKGROUND_D + side] = obj
    px, py, patch = 100, 90, 40
    sec[py:py + patch, px:px + patch] = gen_texture(patch, patch,
                                                    seed=seed + 200).pixels
    changed = np.zeros((size, size), dtype=bool)
    changed[oy:oy + side, ox:ox + side] = True
    # background whose secondary match the object or the patch now covers
    covered = np.zeros((size, size), dtype=bool)
    covered[oy + drop:oy + drop + side,
            ox + BACKGROUND_D:ox + BACKGROUND_D + side] = True
    covered[py:py + patch, px:px + patch] = True
    changed[:, :size - BACKGROUND_D] |= covered[:, BACKGROUND_D:]
    return GrayImage(ref), GrayImage(sec), changed


def bad_accepts(dmap, truth, outside):
    """Accepted pixels of `outside` more than one off the truth, the
    bad-match convention of validation.evaluate."""
    return int((dmap.accepted & outside
                & (np.abs(dmap.disparity - truth) > 1)).sum())


@pytest.mark.parametrize("seed", [1, 2])
def test_occluded_strip_is_rejected(seed):
    ref, sec, truth, occluded = occlusion_scene(seed)
    dmap = match_pair(ref, sec, AcbmParams(search_radius=10))
    acc = dmap.accepted
    assert occluded.sum() == 480
    # a strip pixel next to the foreground has 4 foreground columns in its
    # block and can match at the foreground's disparity (seed 2: one pixel)
    strip = acc & occluded
    edge = occluded & ~np.roll(occluded, 1, axis=1)   # the strip's first column
    assert not (strip & ~edge).any()
    assert strip.sum() <= 1 and (dmap.disparity[strip] == 8).all()
    assert acc.sum() > 19_000
    assert bad_accepts(dmap, truth, ~occluded) <= 3
    assert (acc & (truth == 8)).sum() > 3500   # both depths are recovered


@pytest.mark.parametrize("seed", [1, 2])
def test_changed_objects_are_rejected(seed):
    ref, sec, changed = motion_scene(seed)
    dmap = match_pair(ref, sec, AcbmParams(search_radius=8))
    assert changed.sum() == 2500 + 6 * 30
    assert not (dmap.accepted & changed).any()
    assert dmap.accepted.sum() > 18_000
    assert bad_accepts(dmap, BACKGROUND_D, ~changed) <= 3
