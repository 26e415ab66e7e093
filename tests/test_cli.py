"""Command-line interface: wiring, outputs, exit codes, determinism."""
from pathlib import Path

import numpy as np
import pytest

from acbm.cli import main
from acbm.imgio import load_disparity, load_gray
from acbm.patch_model import compute_patch_basis, save_basis
from acbm.validation import gen_texture
from acbm.imgio import save_pgm


@pytest.fixture()
def shift_pair(tmp_path):
    """Small translated pair written through the CLI itself."""
    paths = {name: str(tmp_path / f"{name}") for name in
             ("left.pgm", "right.pgm", "gt.tsv", "mask.pgm")}
    code = main(["synth-shift", "--width", "48", "--height", "32",
                 "--shift", "1", "--seed", "4",
                 "--out-left", paths["left.pgm"],
                 "--out-right", paths["right.pgm"],
                 "--out-gt", paths["gt.tsv"],
                 "--out-mask", paths["mask.pgm"]])
    assert code == 0
    return paths


def test_synth_noise_deterministic(tmp_path):
    a, b = str(tmp_path / "l.pgm"), str(tmp_path / "r.pgm")
    args = ["synth-noise", "--width", "32", "--height", "24", "--seed", "3",
            "--out-left", a, "--out-right", b]
    assert main(args) == 0
    first = (Path(a).read_bytes(), Path(b).read_bytes())
    assert main(args) == 0
    assert (Path(a).read_bytes(), Path(b).read_bytes()) == first
    img = load_gray(a)
    assert img.pixels.shape == (24, 32)


def test_synth_shift_outputs(shift_pair, tmp_path):
    left = load_gray(shift_pair["left.pgm"])
    right = load_gray(shift_pair["right.pgm"])
    assert np.array_equal(right.pixels, np.roll(left.pixels, 1, axis=1))
    gt = load_disparity(shift_pair["gt.tsv"])
    assert (gt.disparity[gt.accepted] == 1).all()
    # wrapped columns are rejected in the text and zero in the mask
    assert not gt.accepted[:, -1].any()
    mask = load_gray(shift_pair["mask.pgm"])
    assert (mask.pixels[:, -1] == 0).all()
    assert (mask.pixels[:, :-1] == 255).all()


def test_synth_shift_stripe_rows(tmp_path):
    left = str(tmp_path / "sl.pgm")
    assert main(["synth-shift", "--width", "32", "--height", "24",
                 "--stripe-rows", "8:16", "--out-left", left,
                 "--out-right", str(tmp_path / "sr.pgm"),
                 "--out-gt", str(tmp_path / "sg.tsv"),
                 "--out-mask", str(tmp_path / "sm.pgm")]) == 0
    band = load_gray(left).pixels[8:16]
    assert set(np.unique(band)) == {0.0, 255.0}


@pytest.mark.parametrize("rows", ["8", "8:16:2"])
def test_synth_shift_stripe_rows_need_two_bounds(rows, tmp_path, capsys):
    left = tmp_path / "sl.pgm"
    assert main(["synth-shift", "--stripe-rows", rows,
                 "--out-left", str(left),
                 "--out-right", str(tmp_path / "sr.pgm"),
                 "--out-gt", str(tmp_path / "sg.tsv"),
                 "--out-mask", str(tmp_path / "sm.pgm")]) == 1
    assert "--stripe-rows" in capsys.readouterr().err
    assert not left.exists()


def test_match_and_eval_round_trip(shift_pair, tmp_path, capsys):
    out = str(tmp_path / "disp.tsv")
    viz = str(tmp_path / "disp.pgm")
    args = ["match", shift_pair["left.pgm"], shift_pair["right.pgm"],
            "--range", "2", "--block", "5", "--components", "5",
            "--out", out, "--viz", viz]
    assert main(args) == 0
    first = Path(out).read_bytes()
    dmap = load_disparity(out)
    assert (dmap.disparity[dmap.accepted] == 1).mean() > 0.9
    assert load_gray(viz).pixels.shape == (32, 48)

    # reruns are byte-identical
    assert main(args) == 0
    assert Path(out).read_bytes() == first

    capsys.readouterr()
    assert main(["eval", out, shift_pair["gt.tsv"]]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    density, bad, n_acc, n_eval, n_bad, total = lines[-1].split("\t")
    assert total == str(48 * 32)
    assert float(bad) <= 5.0
    assert int(n_acc) >= int(n_eval) >= int(n_bad)
    assert float(density) == pytest.approx(100.0 * int(n_acc) / (48 * 32),
                                           abs=1e-3)


def test_match_modes_and_densify(shift_pair, tmp_path):
    for extra in (["--mode", "acbm"], ["--mode", "ss"], ["--densify"]):
        out = str(tmp_path / "d.tsv")
        assert main(["match", shift_pair["left.pgm"], shift_pair["right.pgm"],
                     "--range", "2", "--block", "5", "--components", "5",
                     "--out", out] + extra) == 0
        assert load_disparity(out).accepted.any()


def test_match_with_saved_basis(shift_pair, tmp_path):
    basis = compute_patch_basis(load_gray(shift_pair["right.pgm"]), 5)
    basis_path = str(tmp_path / "model.basis")
    save_basis(basis, basis_path)
    out = str(tmp_path / "d.tsv")
    assert main(["match", shift_pair["left.pgm"], shift_pair["right.pgm"],
                 "--range", "2", "--block", "5", "--components", "5",
                 "--basis", basis_path, "--out", out]) == 0
    # block size disagreement is a model error
    assert main(["match", shift_pair["left.pgm"], shift_pair["right.pgm"],
                 "--range", "2", "--block", "9",
                 "--basis", basis_path, "--out", out]) == 3


def test_corrupt_basis_exits_2(shift_pair, tmp_path):
    basis = compute_patch_basis(gen_texture(40, 40, seed=1), 5)
    basis.mean_block[3] = np.nan
    basis_path = str(tmp_path / "nan.basis")
    save_basis(basis, basis_path)
    assert main(["match", shift_pair["left.pgm"], shift_pair["right.pgm"],
                 "--range", "2", "--block", "5", "--components", "5",
                 "--basis", basis_path,
                 "--out", str(tmp_path / "d.tsv")]) == 2


def test_mc_nfa_stdout(tmp_path, capsys):
    img_path = str(tmp_path / "tex.pgm")
    save_pgm(gen_texture(40, 40, seed=6), img_path)
    args = ["mc-nfa", img_path, "--range", "1", "--trials", "2"]
    assert main(args) == 0
    mean_text = capsys.readouterr().out.strip()
    assert float(mean_text) >= 0.0
    assert main(args) == 0
    assert capsys.readouterr().out.strip() == mean_text


def test_usage_errors_exit_1(tmp_path):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["match", "a.pgm", "b.pgm"]) == 1          # missing --range
    assert main(["synth-shift", "--stripe-rows", "oops",
                 "--out-left", str(tmp_path / "a.pgm"),
                 "--out-right", str(tmp_path / "b.pgm"),
                 "--out-gt", str(tmp_path / "g.tsv"),
                 "--out-mask", str(tmp_path / "m.pgm")]) == 1
    assert main(["synth-noise", "--width", "0",
                 "--out-left", str(tmp_path / "a.pgm"),
                 "--out-right", str(tmp_path / "b.pgm")]) == 1


def test_file_errors_exit_2(tmp_path):
    missing = str(tmp_path / "missing.pgm")
    assert main(["match", missing, missing, "--range", "2"]) == 2
    assert main(["eval", str(tmp_path / "no.tsv"),
                 str(tmp_path / "no.pgm")]) == 2
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P9\n1 1\n255\n\x00")
    assert main(["match", str(bad), str(bad), "--range", "2"]) == 2
    latin1 = tmp_path / "latin1.tsv"
    latin1.write_bytes(b"1\t2\n\xff\t3\n")
    assert main(["eval", str(latin1), str(latin1)]) == 2


def test_write_errors_exit_2(shift_pair, tmp_path):
    missing = tmp_path / "missing"
    assert main(["match", shift_pair["left.pgm"], shift_pair["right.pgm"],
                 "--range", "2", "--block", "5",
                 "--out", str(missing / "d.tsv")]) == 2
    assert main(["synth-noise", "--width", "32", "--height", "24",
                 "--out-left", str(missing / "l.pgm"),
                 "--out-right", str(tmp_path / "r.pgm")]) == 2


def test_model_errors_exit_3(tmp_path):
    # mismatched heights cannot be matched
    save_pgm(gen_texture(32, 24, seed=1), str(tmp_path / "a.pgm"))
    save_pgm(gen_texture(32, 30, seed=1), str(tmp_path / "b.pgm"))
    assert main(["match", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm"),
                 "--range", "2", "--block", "5", "--out",
                 str(tmp_path / "d.tsv")]) == 3
    # image too small to train the default 9x9 model
    save_pgm(gen_texture(10, 10, seed=1), str(tmp_path / "tiny.pgm"))
    assert main(["mc-nfa", str(tmp_path / "tiny.pgm"), "--range", "1",
                 "--trials", "1"]) == 3
