import argparse
import base64
import csv
import io
import json
import math
import os
import random
import re
import string
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumexda import config as cfgmod
from rumexda.cli import build_parser, main
from rumexda.config import RunConfig, from_text, read_config, to_text, write_config
from rumexda.errors import ConfigError
from rumexda.files import csv_text
from rumexda.tiling import (
    MANIFEST_HEADER,
    BBoxAnnotation,
    enumerate_tiles,
    assign_label,
    overlap_ratio,
    read_manifest,
    write_pnm,
)


@pytest.fixture()
def image_fixture(tmp_path):
    rng = np.random.default_rng(0)
    images = tmp_path / "images"
    (images / "siteA").mkdir(parents=True)
    (images / "siteB").mkdir(parents=True)
    write_pnm(images / "siteA" / "img0.ppm",
              rng.integers(0, 256, size=(700, 1100, 3), dtype=np.uint8))
    write_pnm(images / "siteA" / "img1.pgm",
              rng.integers(0, 256, size=(518, 518), dtype=np.uint8))
    write_pnm(images / "siteB" / "img2.ppm",
              rng.integers(0, 256, size=(600, 900, 3), dtype=np.uint8))
    annotations = tmp_path / "boxes.csv"
    annotations.write_text(
        "image_id,x_min,y_min,x_max,y_max,class,plant_id\n"
        "siteA/img0.ppm,50,60,400,420,rumex,p1\n"
        "siteA/img0.ppm,600,100,660,160,rumex,p2\n"
        "siteA/img1.pgm,10,10,40,40,dandelion,\n"
        "siteB/img2.ppm,100,100,500,500,rumex,p3\n"
    )
    domains = tmp_path / "domains.csv"
    domains.write_text("siteA/img0.ppm,siteA\nsiteA/img1.pgm,siteA\nsiteB/img2.ppm,siteB\n")
    return tmp_path, images, annotations, domains


def _tile_args(fixture, out, extra=()):
    tmp_path, images, annotations, domains = fixture
    return [
        "tile", "--annotations", str(annotations), "--images-dir", str(images),
        "--out", str(out), "--domain-map", str(domains), *extra,
    ]


# ----------------------------------------------------------------------
# tile


def test_tile_empty_annotations_all_background(tmp_path, image_fixture):
    _, images, _, domains = image_fixture
    empty = tmp_path / "empty.csv"
    empty.write_text("image_id,x_min,y_min,x_max,y_max,class,plant_id\n")
    out = tmp_path / "manifest.csv"
    rc = main(["tile", "--annotations", str(empty), "--images-dir", str(images),
               "--out", str(out), "--domain-map", str(domains)])
    assert rc == 0
    manifest = read_manifest(out)
    assert len(manifest) > 0
    assert all(e.record.label == 0 for e in manifest)


def test_tile_manifest_matches_oracle(tmp_path, image_fixture):
    fixture = image_fixture
    out = tmp_path / "manifest.csv"
    assert main(_tile_args(fixture, out)) == 0
    manifest = read_manifest(out)

    # independent reconstruction of img0's rows from the tiling oracle
    box1 = BBoxAnnotation("siteA/img0.ppm", 50, 60, 400, 420, "rumex", "p1")
    box2 = BBoxAnnotation("siteA/img0.ppm", 600, 100, 660, 160, "rumex", "p2")
    expected = {}
    for x, y, corner in enumerate_tiles(1100, 700, 518):
        label, r = assign_label(x, y, 518, [box1, box2])
        plants = tuple(b.plant_id for b in (box1, box2) if overlap_ratio(b, x, y, 518) > 0)
        expected[(x, y)] = (label, round(r, 6), corner, plants)
    rows = {
        (e.record.x, e.record.y):
            (e.record.label, e.record.overlap, e.record.pass_corner, e.record.plant_ids)
        for e in manifest
        if e.record.image_id == "siteA/img0.ppm"
    }
    assert rows == expected
    # the dandelion box is not the positive class: img1 stays background
    assert all(
        e.record.label == 0 for e in manifest if e.record.image_id == "siteA/img1.pgm"
    )


def test_tile_rerun_is_byte_identical(tmp_path, image_fixture):
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    assert main(_tile_args(image_fixture, out1)) == 0
    assert main(_tile_args(image_fixture, out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_tile_parallel_matches_serial(tmp_path, image_fixture):
    out1, out2 = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert main(_tile_args(image_fixture, out1)) == 0
    assert main(_tile_args(image_fixture, out2, extra=("--jobs", "3"))) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_tile_jobs_below_one_is_a_config_error(tmp_path, image_fixture, capsys, jobs):
    out = tmp_path / "manifest.csv"
    assert main(_tile_args(image_fixture, out, extra=("--jobs", jobs))) == 1
    assert capsys.readouterr().err == f"error: --jobs must be at least 1, got {jobs}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (("--tile-size", "-5"), "tile side must be at least 1 pixel, got -5"),
    (("--tile-size", "0"), "tile side must be at least 1 pixel, got 0"),
    (("--r-threshold", "0"), "r_th must lie in (0, 1), got 0.0"),
    (("--r-threshold", "nan"), "r_th must lie in (0, 1), got nan"),
    (("--r-threshold", "inf"), "r_th must lie in (0, 1), got inf"),
])
def test_tile_checks_its_settings_once_before_any_image(tmp_path, image_fixture, capsys,
                                                        flags, message):
    out = tmp_path / "manifest.csv"
    assert main(_tile_args(image_fixture, out, extra=flags)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not Path(f"{out}.config.txt").exists()


def test_tile_unreadable_inputs_fail_but_run_continues(tmp_path, image_fixture):
    tmp_path_, images, annotations, domains = image_fixture
    bad = tmp_path / "bad.csv"
    bad.write_text(
        annotations.read_text() + "siteA/ghost.ppm,0,0,10,10,rumex,p9\n"
    )
    (images / "siteA" / "broken.ppm").write_bytes(b"P6 garbage")
    out = tmp_path / "manifest.csv"
    rc = main(["tile", "--annotations", str(bad), "--images-dir", str(images),
               "--out", str(out), "--domain-map", str(domains)])
    assert rc == 1
    assert out.exists()  # surviving images were still tiled
    manifest = read_manifest(out)
    assert len(manifest) > 0
    ids = {e.record.image_id for e in manifest}
    assert "siteA/img0.ppm" in ids and "siteA/broken.ppm" not in ids


def test_tile_truncated_raster_fails_but_run_continues(tmp_path, image_fixture, capsys):
    _, images, _, _ = image_fixture
    victim = images / "siteB" / "img2.ppm"
    victim.write_bytes(victim.read_bytes()[:-1])
    out = tmp_path / "manifest.csv"
    assert main(_tile_args(image_fixture, out)) == 1
    err = capsys.readouterr().err
    assert "error: siteB/img2.ppm: DataError: " in err and "payload shorter" in err
    ids = {e.record.image_id for e in read_manifest(out)}
    assert ids == {"siteA/img0.ppm", "siteA/img1.pgm"}


def test_tile_allocates_far_less_than_the_raster(tmp_path):
    images = tmp_path / "images"
    images.mkdir()
    img = np.random.default_rng(6).integers(0, 256, size=(1100, 1200, 3), dtype=np.uint8)
    write_pnm(images / "big.ppm", img)
    annotations = tmp_path / "boxes.csv"
    annotations.write_text("image_id,x_min,y_min,x_max,y_max,class,plant_id\n"
                           "big.ppm,50,60,400,420,rumex,p1\n")
    args = ["tile", "--annotations", str(annotations), "--images-dir", str(images),
            "--out", str(tmp_path / "manifest.csv")]
    tracemalloc.start()
    try:
        rc = main(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < img.nbytes // 10


# ----------------------------------------------------------------------
# split


_SINGLE_GROUP_WARNING = ("warning: subset 'siteB' has a single leakage group; "
                         "it cannot appear in both splits\n")


def test_split_determinism_and_leakage(tmp_path, image_fixture, capsys):
    _, _, annotations, _ = image_fixture
    manifest = tmp_path / "manifest.csv"
    assert main(_tile_args(image_fixture, manifest)) == 0
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for out in (s1, s2):
        rc = main(["split", "--manifest", str(manifest), "--annotations", str(annotations),
                   "--out", str(out), "--mode", "per_subset",
                   "--val-fraction", "0.3", "--seed", "5"])
        assert rc == 0
        assert capsys.readouterr().err == _SINGLE_GROUP_WARNING
    assert s1.read_bytes() == s2.read_bytes()
    loaded = read_manifest(s1)
    assert {e.split for e in loaded} == {"train", "val"}
    assert {e.domain_id for e in loaded} == {"siteA", "siteB"}


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="numpy < 2 loads numpy.random when numpy is imported")
def test_tile_then_split_never_load_numpy_random(tmp_path, image_fixture):
    manifest, split = tmp_path / "manifest.csv", tmp_path / "split.csv"
    split_args = ["split", "--manifest", str(manifest), "--out", str(split),
                  "--mode", "per_subset", "--val-fraction", "0.3", "--seed", "5"]
    script = ("import sys\n"
              "from rumexda.cli import main\n"
              f"assert main({_tile_args(image_fixture, manifest)!r}) == 0\n"
              f"assert main({split_args!r}) == 0\n"
              "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"  # the loaded numpy.random modules
    assert {e.split for e in read_manifest(split)} == {"train", "val"}


def test_split_without_annotations_writes_the_same_bytes(tmp_path, image_fixture, capsys):
    _, _, annotations, _ = image_fixture
    manifest = tmp_path / "manifest.csv"
    assert main(_tile_args(image_fixture, manifest)) == 0
    outs = []
    for extra in (["--annotations", str(annotations)], []):
        out = tmp_path / f"split{len(extra)}.csv"
        assert main(["split", "--manifest", str(manifest), "--out", str(out), *extra,
                     "--mode", "per_subset", "--val-fraction", "0.3", "--seed", "5"]) == 0
        assert capsys.readouterr().err == _SINGLE_GROUP_WARNING
        outs.append(out)
    for suffix in ("", ".config.txt"):
        assert Path(f"{outs[0]}{suffix}").read_bytes() == Path(f"{outs[1]}{suffix}").read_bytes()
    assert {e.record.plant_ids for e in read_manifest(outs[1])} == \
        {(), ("p1",), ("p2",), ("p3",)}


def test_split_of_a_manifest_without_plant_ids_is_a_data_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("image_id,x,y,side,label,r,split,domain_id,pass_corner\n"
                        "a.ppm,0,0,518,1,0.500000,none,d,TL\n")
    out = tmp_path / "split.csv"
    rc = main(["split", "--manifest", str(manifest), "--out", str(out)])
    _assert_single_data_error(
        rc, capsys, f"{manifest}:1: manifest predates the plant_ids column; re-run tile", out)


def test_split_of_non_numeric_manifest_field_is_a_data_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "image_id,x,y,side,label,r,split,domain_id,pass_corner,plant_ids\n"
        "a.ppm,abc,0,518,0,0.000000,train,d,TL,\n"
    )
    boxes = tmp_path / "boxes.csv"
    boxes.write_text("image_id,x_min,y_min,x_max,y_max,class,plant_id\n")
    rc = main(["split", "--manifest", str(manifest), "--annotations", str(boxes),
               "--out", str(tmp_path / "split.csv")])
    assert rc == 1
    assert f"error: {manifest}:2:" in capsys.readouterr().err


@pytest.mark.parametrize("rows, line, tile", [
    ("ABA", 4, "('a.ppm', 0, 0)"),  # the first row again
    ("AAB", 3, "('a.ppm', 0, 0)"),  # on the second data row
    ("ABCB", 5, "('a.ppm', 518, 0)"),  # a row other than the first again, on the last row
    ("ABCBA", 5, "('a.ppm', 518, 0)"),  # the first repeat is named, not a later one
], ids=["first-row-again", "second-row", "last-row", "first-of-two"])
def test_split_of_a_manifest_with_a_repeated_tile_names_its_line(tmp_path, capsys, rows, line,
                                                                 tile):
    text = {"A": "a.ppm,0,0,518,0,0.000000,none,d,TL,\n",
            "B": "a.ppm,518,0,518,0,0.000000,none,d,TR,\n",
            "C": "a.ppm,0,518,518,0,0.000000,none,d,BL,\n"}
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(",".join(MANIFEST_HEADER) + "\n" + "".join(text[r] for r in rows))
    out = tmp_path / "split.csv"
    rc = main(["split", "--manifest", str(manifest), "--out", str(out)])
    _assert_single_data_error(
        rc, capsys, f"{manifest}:{line}: duplicate tile {tile} in manifest\n", out)


def test_split_of_a_manifest_with_an_image_in_two_domains_is_a_data_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(",".join(MANIFEST_HEADER) + "\n"
                        "a.ppm,0,0,518,0,0.000000,none,siteA,TL,\n"
                        "a.ppm,518,0,518,0,0.000000,none,siteB,TR,\n")
    out = tmp_path / "split.csv"
    rc = main(["split", "--manifest", str(manifest), "--out", str(out), "--val-fraction", "0"])
    _assert_single_data_error(
        rc, capsys, f"{manifest}: image 'a.ppm' has tiles in domains 'siteA' and 'siteB'\n", out)
    assert not (tmp_path / "split.csv.config.txt").exists()


@pytest.mark.parametrize("field, value", [("label", "7"), ("r", "nan"), ("r", "-3.5"),
                                          ("pass_corner", "ZZ"), ("split", "test")])
def test_split_of_a_manifest_field_outside_its_values_names_its_line(tmp_path, capsys, field,
                                                                      value):
    row = dict(zip(MANIFEST_HEADER, "a.ppm,518,0,518,0,0.000000,none,d,TR,".split(",")))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(",".join(MANIFEST_HEADER) + "\na.ppm,0,0,518,0,0.000000,none,d,TL,\n"
                        + ",".join({**row, field: value}.values()) + "\n")
    out = tmp_path / "split.csv"
    rc = main(["split", "--manifest", str(manifest), "--out", str(out), "--val-fraction", "0"])
    _assert_single_data_error(rc, capsys, f"{manifest}:3: {field} must", out)


# ----------------------------------------------------------------------
# synth / train / eval / report


def _make_corpus(tmp_path, seed=3, samples=120):
    corpus_dir = tmp_path / "corpus"
    rc = main(["synth", "--out", str(corpus_dir), "--samples", str(samples),
               "--seed", str(seed)])
    assert rc == 0
    return corpus_dir


def test_synth_rerun_byte_identical(tmp_path):
    a = _make_corpus(tmp_path / "a")
    b = _make_corpus(tmp_path / "b")
    assert (a / "corpus.csv").read_bytes() == (b / "corpus.csv").read_bytes()
    assert (a / "specs.json").read_bytes() == (b / "specs.json").read_bytes()


@pytest.mark.parametrize("flags, message", [
    (("--dim", "0"), "dim must be positive, got 0"),
    (("--val-fraction", "1.5"), "val_fraction must lie in [0, 1), got 1.5"),
    (("--val-fraction", "-1"), "val_fraction must lie in [0, 1), got -1.0"),
    (("--target-shift", "nan"), "domain target: shift and scale entries must be finite"),
    (("--noise-sigma", "nan"), "noise_sigma must be finite and non-negative, got nan"),
    (("--val-fraction", "inf"), "val_fraction must lie in [0, 1), got inf"),
    (("--positive-fraction", "nan"), "positive_fraction must lie in (0, 1), got nan"),
    (("--target-shift", "inf"), "domain target: shift and scale entries must be finite"),
    (("--noise-sigma", "inf"), "noise_sigma must be finite and non-negative, got inf"),
    (("--sources", "0"), "sources must be at least 1, got 0"),
])
def test_synth_rejects_settings_that_make_an_unusable_corpus(tmp_path, capsys, flags, message):
    out = tmp_path / "corpus"
    assert main(["synth", "--out", str(out), "--samples", "40", *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_train_writes_history_and_checkpoint(tmp_path):
    corpus = _make_corpus(tmp_path)
    run = tmp_path / "run"
    rc = main(["train", "--corpus", str(corpus), "--out", str(run),
               "--strategy", "vanilla", "--epochs", "6", "--seed", "1"])
    assert rc == 0
    history_lines = (run / "history.jsonl").read_text().splitlines()
    assert len(history_lines) == 6
    assert (run / "checkpoint.json").exists()
    resolved = read_config(run / "config.txt")
    assert resolved.training.epochs == 6
    assert resolved.training.strategy == "vanilla"


def test_train_without_a_validation_split_prints_none(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--samples", "60", "--val-fraction", "0"]) == 0
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out", str(run),
                 "--strategy", "vanilla", "--epochs", "7"]) == 0
    out = capsys.readouterr().out
    assert "selected epoch 7 (val F1=none" in out  # no score to select by: the last epoch
    assert (run / "checkpoint.json").exists()
    rep = tmp_path / "rep"
    assert main(["report", "--history", str(run / "history.jsonl"), "--out", str(rep),
                 "--window", "7"]) == 0
    assert "selected_epoch = 7\n" in (rep / "selection.txt").read_text()


def test_train_rerun_and_config_roundtrip_byte_identical(tmp_path):
    corpus = _make_corpus(tmp_path)
    r1, r2, r3 = tmp_path / "r1", tmp_path / "r2", tmp_path / "r3"
    flags = ["--strategy", "m2s2da", "--epochs", "6", "--seed", "2", "--lambda", "0.4"]
    assert main(["train", "--corpus", str(corpus), "--out", str(r1), *flags]) == 0
    assert main(["train", "--corpus", str(corpus), "--out", str(r2), *flags]) == 0
    assert (r1 / "checkpoint.json").read_bytes() == (r2 / "checkpoint.json").read_bytes()
    assert (r1 / "history.jsonl").read_bytes() == (r2 / "history.jsonl").read_bytes()
    # rerunning purely from the resolved config reproduces everything
    assert main(["train", "--corpus", str(corpus), "--out", str(r3),
                 "--config", str(r1 / "config.txt")]) == 0
    assert (r1 / "checkpoint.json").read_bytes() == (r3 / "checkpoint.json").read_bytes()
    assert (r1 / "history.jsonl").read_bytes() == (r3 / "history.jsonl").read_bytes()
    assert (r1 / "config.txt").read_bytes() == (r3 / "config.txt").read_bytes()


def test_train_lora_resolves_unfreeze(tmp_path):
    corpus = _make_corpus(tmp_path)
    run = tmp_path / "run"
    rc = main(["train", "--corpus", str(corpus), "--out", str(run),
               "--strategy", "vanilla", "--adaptation", "lora", "--lora-rank", "4",
               "--epochs", "6", "--seed", "0"])
    assert rc == 0
    resolved = read_config(run / "config.txt")
    assert resolved.model.adaptation == "lora"
    assert resolved.model.unfreeze == 0
    # an explicit conflicting flag still errors
    rc = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "r2"),
               "--strategy", "vanilla", "--adaptation", "lora", "--unfreeze", "2",
               "--epochs", "6"])
    assert rc == 1


def test_train_m3sda_needs_two_sources(tmp_path):
    corpus = tmp_path / "corpus"
    rc = main(["synth", "--out", str(corpus), "--samples", "80", "--sources", "1"])
    assert rc == 0
    rc = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "run"),
               "--strategy", "m3sda_beta", "--epochs", "6"])
    assert rc == 1


def test_train_on_non_numeric_feature_is_a_data_error(tmp_path, capsys):
    corpus = _make_corpus(tmp_path)
    path = corpus / "corpus.csv"
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",abc"
    path.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "run"),
               "--strategy", "vanilla", "--epochs", "6"])
    assert rc == 1
    assert f"error: {path}:4:" in capsys.readouterr().err


def test_diverging_train_is_an_error_and_writes_no_checkpoint(tmp_path, capsys):
    corpus = _make_corpus(tmp_path)
    run = tmp_path / "run"
    # numpy's overflow warnings would reach stderr outside pytest; record them
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", "--corpus", str(corpus), "--out", str(run),
                   "--strategy", "vanilla", "--optimizer", "sgd", "--lr", "1e6",
                   "--epochs", "7"])
    assert rc == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: training diverged: ce loss is nan at epoch ")
    assert "iteration" in err and "classify step" in err
    assert not (run / "checkpoint.json").exists()
    assert not (run / "history.jsonl").exists()


@pytest.mark.parametrize("strategy", ["vanilla", "m3sda_beta"])
def test_step_that_leaves_a_parameter_not_finite_is_an_error(tmp_path, capsys, strategy):
    corpus = _make_corpus(tmp_path, samples=100)
    run = tmp_path / "run"
    rc = main(["train", "--corpus", str(corpus), "--out", str(run), "--strategy", strategy,
               "--optimizer", "sgd", "--lr", "1e308", "--epochs", "1", "--warmup", "0",
               "--batch-size", "512"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == ("error: training diverged: a parameter is not finite after the SGD step "
                   "at epoch 1, iteration 1 of 1\n")
    assert not run.exists()


def test_train_epochs_must_exceed_warmup(tmp_path):
    corpus = _make_corpus(tmp_path)
    rc = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "run"),
               "--strategy", "vanilla", "--epochs", "5"])
    assert rc == 1


def test_train_negative_warmup_is_an_error(tmp_path, capsys):
    corpus = _make_corpus(tmp_path)
    rc = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "run"),
               "--epochs", "2", "--warmup", "-1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: warmup must be non-negative, got -1\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("edit, found", [
    ((",target,", ",source,"), 0),
    (("\nsource0,source,", "\nsource0,target,"), 2),
])
def test_train_needs_exactly_one_target_domain(tmp_path, capsys, edit, found):
    corpus = _make_corpus(tmp_path)
    path = corpus / "corpus.csv"
    path.write_text(path.read_text().replace(*edit))
    rc = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "run"), "--epochs", "6"])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"error: training expects exactly one target domain, found {found}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("edit, message", [
    # one training row labelled 2, the unclear label
    ((",source,train,0,", ",source,train,2,", 1), "labels outside {0, 1}: [2]"),
    # every source row held out for validation
    ((",train,", ",val,"), "cannot stream batches from an empty dataset"),
])
def test_train_on_an_untrainable_corpus_is_one_error_line(tmp_path, capsys, edit, message):
    corpus = _make_corpus(tmp_path)
    path = corpus / "corpus.csv"
    path.write_text(path.read_text().replace(*edit))
    capsys.readouterr()
    rc = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "run"), "--epochs", "6"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


def test_checkpoint_holds_the_selected_epoch(tmp_path, capsys):
    corpus = _make_corpus(tmp_path, seed=1, samples=300)
    run = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--corpus", str(corpus), "--out", str(run), "--strategy", "m2s2da",
                 "--epochs", "8", "--warmup", "1"]) == 0
    selected = int(capsys.readouterr().out.split("selected epoch ")[1].split()[0])
    records = [json.loads(line) for line in (run / "history.jsonl").read_text().splitlines()]
    # the last epoch scores differently, so a checkpoint of it would show
    assert records[selected - 1]["median_target_f1"] != records[-1]["median_target_f1"]
    assert main(["eval", "--checkpoint", str(run / "checkpoint.json"), "--corpus", str(corpus),
                 "--out", str(tmp_path / "eval")]) == 0
    summary = json.loads((tmp_path / "eval" / "summary.json").read_text())
    assert summary["median_f1"] == records[selected - 1]["median_target_f1"]


def test_report_selects_with_the_warmup_that_train_recorded(tmp_path, capsys):
    corpus = _make_corpus(tmp_path, seed=2, samples=300)
    run = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--corpus", str(corpus), "--out", str(run), "--strategy", "m2s2da",
                 "--epochs", "8", "--warmup", "1", "--lr", "0.05", "--seed", "1"]) == 0
    selected = int(capsys.readouterr().out.split("selected epoch ")[1].split()[0])
    history = run / "history.jsonl"
    # without --warmup, report applies the recorded warm-up, not its default of 5
    assert main(["report", "--history", str(history), "--out", str(tmp_path / "rep")]) == 0
    assert f"selected_epoch = {selected}\n" in (tmp_path / "rep" / "selection.txt").read_text()
    assert {json.loads(line)["warmup"] for line in history.read_text().splitlines()} == {1}
    assert read_config(tmp_path / "rep" / "config.txt").training.warmup == 1
    # the recorded warm-up is the only one: report takes no --warmup
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["report", "--history", str(history), "--out", str(tmp_path / "other"),
              "--warmup", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --warmup 1" in capsys.readouterr().err
    assert not (tmp_path / "other").exists()


@pytest.mark.parametrize("lines, where", [
    ([{}], ":1: history record has no 'warmup' field"),
    ([{"warmup": 1}, {"warmup": 2}], ":2: malformed history record: warmup 2 differs"),
    ([{"warmup": -1}], ":1: malformed history record: warmup must be a non-negative integer"),
    ([{"warmup": "1"}], ":1: malformed history record: warmup must be a non-negative integer"),
])
def test_report_of_a_history_without_one_warmup_is_a_data_error(tmp_path, capsys, lines, where):
    record = {"epoch": 1, "losses": {"ce": 0.5}, "source_val_f1": 0.5, "target_f1": {"t": 0.5},
              "median_target_f1": 0.5, "strategy": "vanilla", "trainable_parameters": 10}
    history = tmp_path / "history.jsonl"
    history.write_text("".join(json.dumps({**record, "epoch": i + 1, **extra}) + "\n"
                               for i, extra in enumerate(lines)))
    out = tmp_path / "rep"
    rc = main(["report", "--history", str(history), "--out", str(out)])
    _assert_single_data_error(rc, capsys, f"{history}{where}", out)


def test_report_prints_a_warning_as_one_stderr_line(tmp_path, capsys):
    corpus = _make_corpus(tmp_path, samples=100)
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out", str(run), "--epochs", "7",
                 "--warmup", "1"]) == 0
    capsys.readouterr()
    assert main(["report", "--history", str(run / "history.jsonl"), "--out",
                 str(tmp_path / "rep"), "--window", "10"]) == 0
    assert capsys.readouterr().err == \
        "warning: history of 7 epochs is shorter than window=10; using all epochs\n"


@pytest.mark.parametrize("flags, message", [
    (["--window", "0"], "window must be at least 1 epoch, got 0"),
    (["--window", "-3"], "window must be at least 1 epoch, got -3"),
])
def test_report_rejects_an_empty_window(tmp_path, capsys, flags, message):
    corpus = _make_corpus(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out", str(run), "--epochs", "6"]) == 0
    capsys.readouterr()
    rep = tmp_path / "rep"
    rc = main(["report", "--history", str(run / "history.jsonl"), "--out", str(rep), *flags])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not rep.exists()


@pytest.mark.parametrize("line", [
    "training.strategy = bogus",
    "training.lr = nan",
    "training.epochs = 3",  # not past the default warm-up of 5
])
def test_report_rejects_an_invalid_section_it_does_not_read(tmp_path, capsys, line):
    corpus = _make_corpus(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out", str(run), "--epochs", "6"]) == 0
    config = tmp_path / "config.txt"
    config.write_text(line + "\n")
    capsys.readouterr()
    rep = tmp_path / "rep"
    rc = main(["report", "--history", str(run / "history.jsonl"), "--out", str(rep),
               "--config", str(config)])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not rep.exists()


def test_report_config_reruns_after_a_warmup_past_the_default_epochs(tmp_path):
    corpus = _make_corpus(tmp_path, samples=120)
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out", str(run), "--epochs", "22",
                 "--warmup", "20"]) == 0
    history = str(run / "history.jsonl")
    first, rerun = tmp_path / "rep", tmp_path / "rerun"
    assert main(["report", "--history", history, "--out", str(first)]) == 0
    recorded = read_config(first / "config.txt").training
    assert (recorded.epochs, recorded.warmup) == (22, 20)
    assert main(["report", "--history", history, "--out", str(rerun),
                 "--config", str(first / "config.txt")]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in rerun.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (rerun / name).read_bytes(), name


def test_input_dim_is_not_a_flag(tmp_path, capsys):
    # the corpus sets model.input_dim; no flag can disagree with it
    with pytest.raises(SystemExit) as exc:
        main(["train", "--corpus", str(tmp_path), "--out", str(tmp_path / "run"),
              "--input-dim", "5"])
    assert exc.value.code == 2
    assert "--input-dim" in capsys.readouterr().err


def test_default_model_section_builds_the_bundle_train_builds(tmp_path, monkeypatch):
    import rumexda.cli as cli
    from rumexda.nn import build_model

    trained, run_strategy = [], cli.run_strategy

    def capture(*args, **kwargs):
        bundle, history = run_strategy(*args, **kwargs)
        trained.append(bundle)
        return bundle, history

    monkeypatch.setattr(cli, "run_strategy", capture)
    corpus = _make_corpus(tmp_path)
    assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "run"),
                 "--epochs", "6"]) == 0

    def layout(bundle):
        return [(name, p.shape, p.requires_grad) for name, p in bundle.parameters()]

    assert layout(build_model(RunConfig().model, seed=0)) == layout(trained[0])


def test_eval_reports_and_rerun_identical(tmp_path):
    corpus = _make_corpus(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out", str(run),
                 "--strategy", "vanilla", "--epochs", "6", "--seed", "0"]) == 0
    e1, e2 = tmp_path / "e1", tmp_path / "e2"
    for out in (e1, e2):
        assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                     "--corpus", str(corpus), "--out", str(out)]) == 0
    for name in ("report.txt", "flights.csv", "summary.json"):
        assert (e1 / name).read_bytes() == (e2 / name).read_bytes()
    assert sorted(p.name for p in e1.iterdir()) == ["flights.csv", "report.txt", "summary.json"]
    summary = json.loads((e1 / "summary.json").read_text())
    # recompute the median from the per-flight records
    import csv as csvmod

    with open(e1 / "flights.csv", newline="") as fh:
        rows = [r for r in csvmod.DictReader(fh) if r["included"] == "1"]
    f1s = [float(r["f1"]) for r in rows]
    assert summary["median_f1"] == pytest.approx(float(np.median(f1s)))


def test_eval_config_flag_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--checkpoint", str(tmp_path / "c.json"), "--corpus", str(tmp_path),
              "--out", str(tmp_path / "e"), "--config", "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config x" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_eval_dim_mismatch_names_both_dims(tmp_path, capsys):
    corpus = _make_corpus(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out", str(run),
                 "--strategy", "vanilla", "--epochs", "6"]) == 0
    other = tmp_path / "other"
    assert main(["synth", "--out", str(other), "--samples", "40", "--dim", "8"]) == 0
    rc = main(["eval", "--checkpoint", str(run / "checkpoint.json"),
               "--corpus", str(other), "--out", str(tmp_path / "e")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "16" in err and "8" in err


def test_eval_of_corpus_without_a_target_is_a_data_error(tmp_path, capsys):
    corpus = _make_corpus(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out", str(run),
                 "--strategy", "vanilla", "--epochs", "6"]) == 0
    sources_only = tmp_path / "sources_only"
    sources_only.mkdir()
    lines = (corpus / "corpus.csv").read_text().splitlines(keepends=True)
    (sources_only / "corpus.csv").write_text(
        "".join(line for line in lines if ",target," not in line))
    args = ["eval", "--checkpoint", str(run / "checkpoint.json"), "--corpus", str(sources_only)]
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "e")]) == 1
    assert capsys.readouterr().err == f"error: {sources_only}: corpus has no target domain\n"
    assert not (tmp_path / "e").exists()
    assert main([*args, "--out", str(tmp_path / "e_all"), "--include-sources"]) == 0
    with open(tmp_path / "e_all" / "flights.csv", newline="") as fh:
        assert [row[0] for row in csv.reader(fh)][1:] == ["source0", "source1", "source2"]


def _edit_corpus(corpus: Path, edit) -> tuple[Path, int]:
    """Apply ``edit(line)`` to the second target row of ``corpus.csv``;
    that path and the row's line number."""
    path = corpus / "corpus.csv"
    lines = path.read_text().split("\n")
    i = [j for j, line in enumerate(lines) if ",target," in line][1]
    lines[i] = edit(lines[i])
    path.write_text("\n".join(lines))
    return path, i + 1


def _with_field(column: int, value: str):
    return lambda line: ",".join(value if j == column else f
                                 for j, f in enumerate(line.split(",")))


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("edit, message", [
    # a feature that is not finite as float() reads it
    (_with_field(6, "nan"), "f2 is not finite: 'nan'"),
    (_with_field(4, "-inf"), "f0 is not finite: '-inf'"),
    (_with_field(19, "1e309"), "f15 is not finite: '1e309'"),
    # a label outside {-1, 0, 1, 2}: eval would drop the row from every count
    (_with_field(3, "3"), "label 3 is not -1, 0, 1 or 2"),
    (_with_field(3, "-2"), "label -2 is not -1, 0, 1 or 2"),
    # a row without a label in a labelled domain: every label of it would go
    (_with_field(3, "-1"), "domain target mixes label -1 (none) with labelled rows"),
], ids=["nan", "-inf", "1e309", "label-3", "label-minus-2", "mixed-labels"])
def test_corpus_row_that_train_or_eval_would_misuse_names_its_line(tmp_path, capsys, command,
                                                                   edit, message):
    corpus = _make_corpus(tmp_path, samples=40)
    run = tmp_path / "run"
    if command == "eval":
        assert main(["train", "--corpus", str(corpus), "--out", str(run), "--strategy",
                     "vanilla", "--epochs", "2", "--warmup", "0"]) == 0
    path, line = _edit_corpus(corpus, edit)
    capsys.readouterr()
    out = tmp_path / "out"
    args = (["eval", "--checkpoint", str(run / "checkpoint.json")] if command == "eval"
            else ["train", "--strategy", "m2s2da", "--epochs", "2", "--warmup", "0"])
    rc = main([*args, "--corpus", str(corpus), "--out", str(out)])
    _assert_single_data_error(rc, capsys, f"{path}:{line}: {message}", out)


def _unlabel_target(corpus: Path) -> None:
    path = corpus / "corpus.csv"
    path.write_text(re.sub(r",target,none,[012],", ",target,none,-1,", path.read_text()))


def test_train_on_an_unlabelled_target_scores_no_target(tmp_path, capsys):
    corpus = _make_corpus(tmp_path, samples=60)
    _unlabel_target(corpus)
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out", str(run), "--strategy", "m2s2da",
                 "--epochs", "2", "--warmup", "0"]) == 0
    assert "median target F1=none" in capsys.readouterr().out
    records = [json.loads(line) for line in (run / "history.jsonl").read_text().splitlines()]
    assert [(r["target_f1"], r["median_target_f1"]) for r in records] == [({}, None)] * 2
    assert main(["report", "--history", str(run / "history.jsonl"),
                 "--out", str(tmp_path / "rep")]) == 0


@pytest.mark.parametrize("flags", [[], ["--include-sources"]])
def test_eval_of_an_unlabelled_target_names_the_domain(tmp_path, capsys, flags):
    corpus = _make_corpus(tmp_path, samples=40)
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out", str(run), "--strategy", "vanilla",
                 "--epochs", "2", "--warmup", "0"]) == 0
    _unlabel_target(corpus)
    capsys.readouterr()
    out = tmp_path / "e"
    assert main(["eval", "--checkpoint", str(run / "checkpoint.json"), "--corpus", str(corpus),
                 "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == "error: domain 'target' has no labels to score\n"
    assert not out.exists()


def test_report_outputs(tmp_path):
    corpus = _make_corpus(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out", str(run),
                 "--strategy", "vanilla", "--epochs", "8", "--seed", "4"]) == 0
    rep = tmp_path / "rep"
    assert main(["report", "--history", str(run / "history.jsonl"),
                 "--out", str(rep), "--window", "4"]) == 0
    selection = (rep / "selection.txt").read_text()
    assert "selected_epoch" in selection
    epoch_rows = (rep / "f1_vs_epoch.csv").read_text().splitlines()
    assert epoch_rows[0] == "epoch,domain_id,f1"
    assert len(epoch_rows) == 1 + 8  # one target domain, eight epochs
    params_rows = (rep / "f1_vs_params.csv").read_text().splitlines()
    assert params_rows[0] == "trainable_parameters,strategy,median_f1,sigma_epochs"


def test_report_csv_fields_with_a_carriage_return_read_back_as_written(tmp_path):
    # a bare "\r" in a field reads back as a line end unless the field is quoted
    record = {"epoch": 1, "losses": {"ce": 0.5}, "source_val_f1": 0.5,
              "target_f1": {"t\rx": 0.5, "u": 0.25}, "median_target_f1": 0.375,
              "strategy": "vanilla", "trainable_parameters": 10, "warmup": 0}
    history = tmp_path / "history.jsonl"
    history.write_text(json.dumps(record) + "\n")
    rep = tmp_path / "rep"
    assert main(["report", "--history", str(history), "--out", str(rep)]) == 0
    with open(rep / "f1_vs_epoch.csv", newline="") as fh:
        assert list(csv.reader(fh)) == [["epoch", "domain_id", "f1"], ["1", "t\rx", "0.5"],
                                        ["1", "u", "0.25"]]
    with open(rep / "f1_vs_params.csv", newline="") as fh:
        assert list(csv.reader(fh)) == [
            ["trainable_parameters", "strategy", "median_f1", "sigma_epochs"],
            ["10", "vanilla", "0.375", "0.0"]]


_CSV_FIELD = st.text(st.sampled_from('ab,"\r\n é'), max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_CSV_FIELD, min_size=1, max_size=3), max_size=4))
def test_csv_text_reads_back_as_its_rows(rows):
    text = csv_text(rows)
    assert list(csv.reader(io.StringIO(text, newline=""))) == rows
    if not any("\r" in field for row in rows for field in row):  # minimal quoting, as before
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert text == buf.getvalue()


def test_eval_of_well_fit_model_scores_high(tmp_path):
    # no target shift: the trained model should score near-perfectly on the
    # target through the full checkpoint + eval path
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--samples", "600",
                 "--target-shift", "0.0", "--noise-sigma", "0.0", "--seed", "8"]) == 0
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out", str(run),
                 "--strategy", "vanilla", "--epochs", "25", "--seed", "0"]) == 0
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                 "--corpus", str(corpus), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["median_f1"] >= 0.95


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("RUMEXDA_OUT_ROOT", str(tmp_path / "root"))
    assert main(["synth", "--out", "corpus", "--samples", "40"]) == 0
    assert (tmp_path / "root" / "corpus" / "corpus.csv").exists()


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("training.bogus = 1\n")
    rc = main(["train", "--corpus", str(tmp_path), "--out", str(tmp_path / "r"),
               "--config", str(cfg)])
    assert rc == 1


def test_removed_tiling_combine_key_is_rejected(tmp_path, image_fixture, capsys):
    cfg = tmp_path / "union.txt"
    cfg.write_text("tiling.combine = union\n")
    out = tmp_path / "tiles.csv"
    assert main(_tile_args(image_fixture, out, ["--config", str(cfg)])) == 1
    assert "unknown config key 'tiling.combine'" in capsys.readouterr().err
    assert not out.exists()


def test_removed_training_class_weights_key_is_rejected(tmp_path, capsys):
    corpus = _make_corpus(tmp_path)
    cfg = tmp_path / "weighted.txt"
    cfg.write_text("training.class_weights = 0.5,2.0\n")
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out", str(run),
                 "--config", str(cfg)]) == 1
    assert "unknown config key 'training.class_weights'" in capsys.readouterr().err
    assert not run.exists()


def test_tile_combine_flag_is_a_usage_error(tmp_path, image_fixture):
    with pytest.raises(SystemExit) as exc:
        main(_tile_args(image_fixture, tmp_path / "tiles.csv", ["--combine", "union"]))
    assert exc.value.code == 2


def test_config_text_is_stable(tmp_path):
    cfg = RunConfig()
    path = tmp_path / "config.txt"
    write_config(cfg, path)
    assert to_text(read_config(path)) == to_text(cfg)


# ----------------------------------------------------------------------
# config and flags

_VALUES = {
    "int": st.integers(-10**9, 10**9),
    "float": st.floats(),
    "str": st.text(alphabet=string.ascii_letters + string.digits + "_.-=#", max_size=12),
    "tuple[int, ...]": st.lists(st.integers(-10**6, 10**6), max_size=4).map(tuple),
    "Optional[float]": st.none() | st.floats(),
}


@st.composite
def _run_configs(draw):
    config = RunConfig()
    for section_field in fields(config):
        section = getattr(config, section_field.name)
        for f in fields(section):
            setattr(section, f.name, draw(_VALUES[f.type]))
    return config


@settings(max_examples=60, deadline=None)
@given(config=_run_configs())
def test_config_text_roundtrip_property(config):
    # NaN != NaN, so the round trip is compared as text
    assert to_text(from_text(to_text(config))) == to_text(config)


_CHOICES = cfgmod.SPLIT_MODES + cfgmod.ADAPTATIONS + cfgmod.STRATEGIES + cfgmod.OPTIMIZERS


@st.composite
def _mostly_default_configs(draw):
    """The defaults with up to three fields set to any value of their type, or
    a str field to any choice of any list."""
    config = RunConfig()
    names = [(s.name, f.name, f.type) for s in fields(config)
             for f in fields(getattr(config, s.name))]
    for section, attr, annotation in draw(st.sets(st.sampled_from(names), max_size=3)):
        values = _VALUES[annotation]
        if annotation == "str":
            values = values | st.sampled_from(_CHOICES)
        setattr(getattr(config, section), attr, draw(values))
    return config


def test_validating_a_config_loads_no_trainer():
    script = ("import sys\n"
              "from rumexda.config import RunConfig\n"
              "RunConfig().validate()\n"
              "print(sorted(m for m in sys.modules if m.startswith('rumexda.')))\n")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "rumexda.synthdata" not in proc.stdout.splitlines()[-1]


# every config key, and the names the tiling and domain rules give their settings
_SETTING_NAMES = [line.split(" = ")[0].split(".")[1] for line in to_text(RunConfig()).splitlines()]
_SETTING_NAMES += ["tile side", "r_th", "n_samples", "shift"]


@settings(max_examples=300, deadline=None)
@given(config=_mostly_default_configs())
def test_validate_names_a_setting_or_every_float_is_finite(config):
    try:
        config.validate()
    except ConfigError as exc:
        assert any(re.search(rf"\b{re.escape(name)}\b", str(exc)) for name in _SETTING_NAMES), exc
        return
    for section_field in fields(config):
        section = getattr(config, section_field.name)
        for f in fields(section):
            value = getattr(section, f.name)
            assert not isinstance(value, float) or math.isfinite(value), (f.name, value)


_MISSING = "missing"  # an input path that does not exist


def _bad(argv, message, config_line=None):
    shown = [a for a in argv if a != _MISSING] + ([config_line] if config_line else [])
    return pytest.param(argv, config_line, message, id=" ".join(shown))


@pytest.mark.parametrize("argv, config_line, message", [
    *[_bad(["train", "--corpus", _MISSING, f"{flag}={value}"],
           f"{name} must be finite and non-negative, got {value}")
      for flag, name in (("--lr", "lr"), ("--lambda", "lambda"))
      for value in ("nan", "inf", "-inf")],
    *[_bad(["train", "--corpus", _MISSING], f"lora_alpha must be finite and positive, got {shown}",
           config_line)
      for config_line, shown in (("model.lora_alpha = 0", "0.0"),
                                 ("model.lora_alpha = -4", "-4.0"),
                                 ("model.lora_alpha = nan", "nan"),
                                 ("model.lora_alpha = inf", "inf"),
                                 ("model.adaptation = lora; model.lora_alpha = -4", "-4.0"))],
    _bad(["synth", "--seed", "-1"], "seed must be non-negative, got -1"),
    _bad(["split", "--manifest", _MISSING, "--seed", "-1"], "seed must be non-negative, got -1"),
    _bad(["train", "--corpus", _MISSING, "--seed", "-1"], "seed must be non-negative, got -1"),
    _bad(["split", "--manifest", _MISSING, "--val-fraction", "nan"],
         "val_fraction must lie in [0, 1), got nan"),
])
def test_a_bad_setting_is_one_error_before_any_input_is_read(tmp_path, monkeypatch, capsys,
                                                            argv, config_line, message):
    monkeypatch.chdir(tmp_path)
    extra = []
    if config_line is not None:
        Path("config.txt").write_text(config_line.replace("; ", "\n") + "\n")
        extra = ["--config", "config.txt"]
    assert main([*argv, "--out", "out", *extra]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == (["config.txt"] if extra else [])


@pytest.mark.parametrize("flag", ["--lr", "--lambda"])
def test_a_negative_value_given_as_its_own_argument_is_a_usage_error(tmp_path, monkeypatch,
                                                                      capsys, flag):
    # argparse takes "-inf" for an option; only "--lr=-inf" reaches the config rule
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--corpus", _MISSING, flag, "-inf", "--out", "out"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"argument {flag}: expected one argument" in err
    assert list(tmp_path.iterdir()) == []


# options that name an input, an output or a run mode rather than a config field
_NON_CONFIG_DESTS = {"help", "annotations", "images_dir", "out", "config", "domain",
                     "domain_map", "jobs", "manifest", "corpus", "checkpoint",
                     "include_sources", "history"}


def test_every_flag_is_a_config_field_or_an_io_option():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    config = RunConfig()
    dotted = 0
    for command, sub in commands.choices.items():
        for action in sub._actions:
            if "." not in action.dest:
                assert action.dest in _NON_CONFIG_DESTS, (command, action.dest)
                continue
            section, attr = action.dest.split(".")
            assert attr in {f.name for f in fields(getattr(config, section))}, (command, action.dest)
            dotted += 1
    assert dotted == 28


def test_main_runs_the_command_function_it_finds_at_call_time(tmp_path, monkeypatch):
    import rumexda.cli as cli

    assert build_parser() is build_parser()  # one parser per process
    seen = []
    monkeypatch.setattr(cli, "cmd_report", lambda args: seen.append(args.history) or 7)
    assert main(["report", "--history", str(tmp_path / "h.jsonl"), "--out", str(tmp_path)]) == 7
    assert seen == [str(tmp_path / "h.jsonl")]


def test_flag_overrides_its_config_field(tmp_path):
    corpus = _make_corpus(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out", str(run), "--epochs", "6",
                 "--lambda", "0.25", "--hidden-dims", "7,5", "--seed", "4"]) == 0
    resolved = read_config(run / "config.txt")
    assert resolved.training.lam == 0.25 and resolved.training.epochs == 6
    assert resolved.training.seed == 4 and resolved.model.hidden_dims == (7, 5)
    assert resolved.split.seed == 0 and resolved.synth.seed == 0


def test_bad_hidden_dims_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--corpus", str(tmp_path), "--out", str(tmp_path / "run"),
              "--hidden-dims", "32,x"])
    assert exc.value.code == 2
    assert "--hidden-dims" in capsys.readouterr().err


def test_bench_tracer_finds_every_traced_name():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer())"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# ----------------------------------------------------------------------
# malformed inputs end in one error line, exit 1 and no files


def _assert_single_data_error(rc, capsys, path, out):
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"error: {path}"), err
    assert not out.exists()


@pytest.mark.parametrize("text,where", [
    ("{not json", ":1: not JSON"),
    ('{"format_version": 1}', ": checkpoint has no 'config' entry"),
    ('[1, 2]', ": malformed checkpoint"),
    # a JSON number past the float range, read as an int
    ('{"format_version": 1, "config": {"input_dim": 1e309}}', ": malformed checkpoint"),
])
def test_eval_of_malformed_checkpoint_is_a_data_error(tmp_path, capsys, text, where):
    corpus = _make_corpus(tmp_path, samples=40)
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(text)
    out = tmp_path / "e"
    rc = main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus),
               "--out", str(out)])
    _assert_single_data_error(rc, capsys, f"{checkpoint}{where}", out)


@pytest.mark.parametrize("name,value", [("extractor.block0.bias", np.nan),
                                        ("head0.linear2.weight", -np.inf)])
def test_eval_of_a_checkpoint_with_a_non_finite_parameter_is_a_data_error(tmp_path, capsys,
                                                                          name, value):
    corpus = _make_corpus(tmp_path, samples=40)
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out", str(run), "--strategy", "vanilla",
                 "--epochs", "6", "--seed", "0"]) == 0
    checkpoint = run / "checkpoint.json"
    payload = json.loads(checkpoint.read_text())
    entry = payload["parameters"][name]
    arr = np.frombuffer(base64.b64decode(entry["data"]), dtype=entry["dtype"]).copy()
    arr[-1] = value
    entry["data"] = base64.b64encode(arr.tobytes()).decode("ascii")
    checkpoint.write_text(json.dumps(payload))
    capsys.readouterr()
    out = tmp_path / "e"
    rc = main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus),
               "--out", str(out)])
    _assert_single_data_error(
        rc, capsys, f"{checkpoint}: parameter {name!r} holds a value that is not finite", out)


@pytest.mark.parametrize("line,where", [
    ('{"epoch": 1, "losses": ', ":2: malformed history record"),
    ('{"epoch": 2, "source_val_f1": 0.5}', ":2: history record has no 'losses' field"),
    ('[2]', ":2: malformed history record"),
    ('{"epoch": 2, "losses": {}, "source_val_f1": "high", "target_f1": {}, '
     '"median_target_f1": null}', ":2: malformed history record"),
])
def test_report_of_malformed_history_is_a_data_error(tmp_path, capsys, line, where):
    good = {"epoch": 1, "losses": {"ce": 0.5}, "source_val_f1": 0.5, "target_f1": {"t": 0.5},
            "median_target_f1": 0.5, "strategy": "vanilla", "trainable_parameters": 10,
            "warmup": 0}
    history = tmp_path / "history.jsonl"
    history.write_text(json.dumps(good) + "\n" + line + "\n")
    out = tmp_path / "rep"
    rc = main(["report", "--history", str(history), "--out", str(out)])
    _assert_single_data_error(rc, capsys, f"{history}{where}", out)


@pytest.mark.parametrize("fields,where", [
    # a 400-digit integer literal, as the loss that made report end in a traceback
    ({"losses": {"ce": int("1" + "0" * 400)}}, "losses['ce'] is too large for a float"),
    ({"losses": {"ce": 1e400}}, "losses['ce'] must be finite, got inf"),
    ({"losses": {"md2": float("nan")}}, "losses['md2'] must be finite, got nan"),
    ({"source_val_f1": float("nan")}, "source_val_f1 must lie in [0, 1], got nan"),
    ({"source_val_f1": 1.5}, "source_val_f1 must lie in [0, 1], got 1.5"),
    ({"target_f1": {"t": 7.5}}, "target_f1['t'] must lie in [0, 1], got 7.5"),
    ({"target_f1": {"t": int("9" * 400)}}, "target_f1['t'] is too large for a float"),
    ({"median_target_f1": -3}, "median_target_f1 must lie in [0, 1], got -3.0"),
    ({"trainable_parameters": -5}, "trainable_parameters must be a non-negative integer"),
    ({"trainable_parameters": 2.0}, "trainable_parameters must be a non-negative integer"),
    ({"epoch": "2"}, "epoch must be 2, the record's position, got '2'"),
    ({"epoch": 3}, "epoch must be 2, the record's position, got 3"),
    ({"epoch": 1}, "epoch must be 2, the record's position, got 1"),
    # a number must be a JSON number: not a string, a boolean or null
    ({"losses": {"ce": "0.25"}}, "losses['ce'] must be a number, got '0.25'"),
    ({"source_val_f1": True}, "source_val_f1 must be a number, got True"),
    ({"target_f1": {"t": None}}, "target_f1['t'] must be a number, got None"),
    ({"median_target_f1": False}, "median_target_f1 must be a number, got False"),
    # the strategy is one of the three, and the same on every record
    ({"strategy": 5}, "strategy must be one of ('vanilla', 'm2s2da', 'm3sda_beta'), got 5"),
    ({"strategy": "m3sda"}, "strategy must be one of ('vanilla', 'm2s2da', 'm3sda_beta'), "
                            "got 'm3sda'"),
    ({"strategy": "vanilla"}, "strategy 'vanilla' differs from the 'm2s2da' of the records "
                              "before it"),
    # the record and its losses and target_f1 are JSON objects
    ({"losses": [1]}, "losses must be a JSON object, got [1]"),
    ({"losses": None}, "losses must be a JSON object, got None"),
    ({"target_f1": [0.5]}, "target_f1 must be a JSON object, got [0.5]"),
    ({"target_f1": "t"}, "target_f1 must be a JSON object, got 't'"),
    ([1, 2], "a record must be a JSON object, got [1, 2]"),
    (None, "a record must be a JSON object, got None"),
])
def test_report_of_a_history_field_out_of_range_is_a_data_error(tmp_path, capsys, fields,
                                                                  where):
    good = {"epoch": 1, "losses": {"ce": 0.5, "md2": 0.1}, "source_val_f1": 0.5,
            "target_f1": {"t": 0.5}, "median_target_f1": 0.5, "strategy": "m2s2da",
            "trainable_parameters": 10, "warmup": 0}
    history = tmp_path / "history.jsonl"
    # a record that is not a JSON object stands for the whole second line
    second = {**good, "epoch": 2, **fields} if isinstance(fields, dict) else fields
    history.write_text(json.dumps(good) + "\n" + json.dumps(second) + "\n")
    out = tmp_path / "rep"
    rc = main(["report", "--history", str(history), "--out", str(out)])
    _assert_single_data_error(rc, capsys, f"{history}:2: malformed history record: {where}", out)


def test_report_reads_null_f1_values_where_train_writes_them(tmp_path):
    record = {"epoch": 1, "losses": {"ce": 0.5}, "source_val_f1": None, "target_f1": {},
              "median_target_f1": None, "strategy": "vanilla", "trainable_parameters": 0,
              "warmup": 0}
    history = tmp_path / "history.jsonl"
    history.write_text(json.dumps(record) + "\n" + json.dumps({**record, "epoch": 2}) + "\n")
    assert main(["report", "--history", str(history), "--out", str(tmp_path / "rep")]) == 0


# what a fuzzed report input swaps in for one of the file's own tokens
_FUZZ_TOKENS = ["nan", "1e309", "1" * 400, '"0.25"', "true", "null", "\r", "\x00"]


def _mutate(data: bytes, rng: random.Random, swaps=_FUZZ_TOKENS) -> bytes:
    """``data`` with one mutation: a flipped bit, a deleted span, a
    truncation, a repeated line, or a token swapped for one of ``swaps``."""
    if not data:
        return data
    kind, at = rng.randrange(5), rng.randrange(len(data))
    if kind == 0:
        return data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1:]
    if kind == 1:
        return data[:at] + data[at + rng.randint(1, 8):]
    if kind == 2:
        return data[:at]
    if kind == 3:
        lines = data.splitlines(keepends=True)
        i = rng.randrange(len(lines))
        return b"".join(lines[:i + 1] + lines[i:])
    tokens = list(re.finditer(rb'"[^"\n]*"|[-+.\w]+', data))
    if not tokens:
        return data
    token = rng.choice(tokens)
    return data[:token.start()] + rng.choice(swaps).encode() + data[token.end():]


def test_report_of_fuzzed_inputs_exits_0_or_1_with_one_error_line(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(_make_corpus(tmp_path, samples=60)), "--out", str(run),
                 "--strategy", "m2s2da", "--epochs", "3", "--warmup", "1", "--seed", "1"]) == 0
    originals = {name: (run / name).read_bytes() for name in ("history.jsonl", "config.txt")}
    rng, codes = random.Random(28), []
    for i in range(400):
        mutant = dict(originals)
        for _ in range(rng.randint(1, 3)):
            name = rng.choice(sorted(mutant))
            mutant[name] = _mutate(mutant[name], rng)
        case = tmp_path / f"case{i}"
        case.mkdir()
        for name, data in mutant.items():
            (case / name).write_bytes(data)
        capsys.readouterr()
        try:
            rc = main(["report", "--history", str(case / "history.jsonl"),
                       "--config", str(case / "config.txt"), "--out", str(case / "rep")])
        except SystemExit as exc:
            rc = exc.code
        lines = [line for line in capsys.readouterr().err.split("\n") if line]
        assert rc in (0, 1), mutant
        assert [line.startswith("error:") for line in lines].count(True) == rc, (mutant, lines)
        assert all(line.startswith(("error:", "warning:")) for line in lines), (mutant, lines)
        codes.append(rc)
    assert codes.count(0) and codes.count(1)


# what a fuzzed corpus or checkpoint swaps in for one of the file's own tokens
_EVAL_FUZZ_TOKENS = ["nan", "inf", "1e309", "1" * 400, "-1", "3", "1.0", "", "\r", "\x00"]
_EVAL_FUZZ_CASES = 300


def _poison_parameter(data: bytes, rng: random.Random) -> bytes:
    """A checkpoint with one value of one parameter swapped for NaN or an infinity."""
    payload = json.loads(data)
    entry = payload["parameters"][rng.choice(sorted(payload["parameters"]))]
    values = np.frombuffer(base64.b64decode(entry["data"]), entry["dtype"]).copy()
    values[rng.randrange(values.size)] = rng.choice([np.nan, np.inf, -np.inf])
    entry["data"] = base64.b64encode(values.tobytes()).decode("ascii")
    return json.dumps(payload).encode()


def _corpus_breaks_a_value_rule(data: bytes) -> bool:
    """Whether a row of ``corpus.csv`` of the header's width holds a feature
    that is not finite, a label outside {-1, 0, 1, 2}, or a label of -1 in
    a domain labelled elsewhere, or the reverse: rows that eval must reject."""
    try:
        lines = io.StringIO(data.decode("utf-8"), newline=None).read().split("\n")
    except UnicodeDecodeError:
        return False
    width, labelled = len(lines[0].split(",")), {}
    for parts in (line.split(",") for line in lines[1:]):
        if len(parts) != width or width < 4:
            continue
        if re.fullmatch(r"\s*[-+]?\d+\s*", parts[3]):
            label = int(parts[3])
            if label not in (-1, 0, 1, 2) \
                    or labelled.setdefault(parts[0], label >= 0) != (label >= 0):
                return True
        for field in parts[4:]:
            try:
                if not math.isfinite(float(field)):
                    return True
            except ValueError:
                pass
    return False


def _checkpoint_holds_a_non_finite_value(data: bytes) -> bool:
    try:
        entries = json.loads(data)["parameters"].values()
    except (ValueError, KeyError, TypeError, AttributeError):
        return False
    for entry in entries:
        try:
            if not np.isfinite(np.frombuffer(base64.b64decode(entry["data"]), "<f8")).all():
                return True
        except (ValueError, KeyError, TypeError):
            pass
    return False


def test_eval_of_fuzzed_inputs_exits_0_or_1_with_one_error_line(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--sources", "2", "--dim", "4",
                 "--samples", "30", "--seed", "5"]) == 0
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out", str(run), "--strategy",
                 "m3sda_beta", "--epochs", "2", "--warmup", "0", "--seed", "1"]) == 0
    originals = {"corpus.csv": (corpus / "corpus.csv").read_bytes(),
                 "corpus.npz": (corpus / "corpus.npz").read_bytes(),
                 "checkpoint.json": (run / "checkpoint.json").read_bytes()}
    rng, codes, broken = random.Random(32), [], {"corpus.csv": 0, "checkpoint.json": 0}
    for i in range(_EVAL_FUZZ_CASES):
        mutant = dict(originals)
        if rng.random() < 0.1:
            mutant["checkpoint.json"] = _poison_parameter(mutant["checkpoint.json"], rng)
        for _ in range(rng.randint(1, 3)):
            name = rng.choice(["corpus.csv", "checkpoint.json"])
            mutant[name] = _mutate(mutant[name], rng, _EVAL_FUZZ_TOKENS)
        case = tmp_path / f"case{i}"
        case.mkdir()
        for name, data in mutant.items():
            (case / name).write_bytes(data)
        capsys.readouterr()
        try:
            rc = main(["eval", "--checkpoint", str(case / "checkpoint.json"), "--corpus",
                       str(case), "--out", str(case / "e")])
        except SystemExit as exc:
            rc = exc.code
        lines = [line for line in capsys.readouterr().err.split("\n") if line]
        assert rc in (0, 1), mutant
        assert [line.startswith("error:") for line in lines].count(True) == rc, (mutant, lines)
        assert all(line.startswith(("error:", "warning:")) for line in lines), (mutant, lines)
        for name, breaks in (("corpus.csv", _corpus_breaks_a_value_rule),
                             ("checkpoint.json", _checkpoint_holds_a_non_finite_value)):
            if breaks(mutant[name]):
                broken[name] += 1
                assert rc == 1, (name, mutant[name], lines)
        codes.append(rc)
    assert codes.count(0) and codes.count(1) and all(broken.values()), (codes, broken)


@pytest.mark.parametrize("which", ["annotations", "domain_map"])
def test_tile_with_a_field_over_the_csv_limit_is_a_data_error(tmp_path, image_fixture, capsys,
                                                               which):
    _, _, annotations, domains = image_fixture
    if which == "annotations":
        path, line = annotations, 2
        path.write_text("image_id,x_min,y_min,x_max,y_max,class,plant_id\n"
                        f"{'a' * 200_000},0,0,10,10,rumex,p1\n")
    else:
        path, line = domains, 1
        path.write_text(f"{'a' * 200_000},siteA\n")
    out = tmp_path / "tiles.csv"
    rc = main(_tile_args(image_fixture, out))
    _assert_single_data_error(rc, capsys, f"{path}:{line}: field larger than field limit", out)


@pytest.mark.parametrize("domain", ["siteB", "siteA"])
def test_tile_domain_map_that_repeats_an_image_names_its_line(tmp_path, image_fixture, capsys,
                                                              domain):
    _, _, _, domains = image_fixture
    domains.write_text(f"siteA/img0.ppm,siteA\nsiteB/img2.ppm,siteB\nsiteA/img0.ppm,{domain}\n")
    out = tmp_path / "tiles.csv"
    rc = main(_tile_args(image_fixture, out))
    _assert_single_data_error(rc, capsys, f"{domains}:3: image 'siteA/img0.ppm' is mapped again, "
                              f"to {domain!r} after 'siteA'\n", out)


@pytest.mark.parametrize("image_id", ["siteB/IMG2.ppm", "ghost.ppm"])
def test_tile_domain_map_row_of_an_image_not_under_images_dir_names_its_line(
        tmp_path, image_fixture, capsys, image_id):
    # a case typo or a stale row would otherwise leave that image's tiles in --domain
    _, images, _, domains = image_fixture
    domains.write_text(f"siteA/img0.ppm,siteA\n{image_id},siteB\nsiteA/img1.pgm,siteA\n")
    out = tmp_path / "tiles.csv"
    rc = main(_tile_args(image_fixture, out))
    _assert_single_data_error(rc, capsys, f"{domains}:2: image {image_id!r} is not under "
                              f"{images}\n", out)
    assert not Path(f"{out}.config.txt").exists()


def test_tile_malformed_domain_map_row_names_its_line(tmp_path, image_fixture, capsys):
    _, _, _, domains = image_fixture
    domains.write_text("siteA/img0.ppm,siteA\nsiteA/img1.pgm,siteA,extra\n")
    out = tmp_path / "tiles.csv"
    rc = main(_tile_args(image_fixture, out))
    _assert_single_data_error(rc, capsys, f"{domains}:2: expected image_id,domain_id rows", out)


def test_split_of_manifest_with_a_field_over_the_csv_limit_is_a_data_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("image_id,x,y,side,label,r,split,domain_id,pass_corner,plant_ids\n"
                        f"{'a' * 200_000},0,0,518,0,0.000000,train,d,TL,\n")
    boxes = tmp_path / "boxes.csv"
    boxes.write_text("image_id,x_min,y_min,x_max,y_max,class,plant_id\n")
    out = tmp_path / "split.csv"
    rc = main(["split", "--manifest", str(manifest), "--annotations", str(boxes),
               "--out", str(out)])
    _assert_single_data_error(rc, capsys, f"{manifest}:2: field larger than field limit", out)


def test_split_of_non_utf8_manifest_is_a_data_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_bytes(
        b"image_id,x,y,side,label,r,split,domain_id,pass_corner,plant_ids\n"
        b"a\xff.ppm,0,0,518,0,0.000000,train,d,TL,\n"
    )
    boxes = tmp_path / "boxes.csv"
    boxes.write_text("image_id,x_min,y_min,x_max,y_max,class,plant_id\n")
    out = tmp_path / "split.csv"
    rc = main(["split", "--manifest", str(manifest), "--annotations", str(boxes),
               "--out", str(out)])
    _assert_single_data_error(rc, capsys, f"{manifest}:2: not UTF-8 text", out)
    assert not (tmp_path / "split.csv.config.txt").exists()


def test_train_on_non_utf8_corpus_is_a_data_error(tmp_path, capsys):
    corpus = _make_corpus(tmp_path, samples=40)
    path = corpus / "corpus.csv"
    path.write_bytes(path.read_bytes().replace(b"source", b"sour\xe9e", 1))
    out = tmp_path / "run"
    rc = main(["train", "--corpus", str(corpus), "--out", str(out), "--epochs", "6"])
    _assert_single_data_error(rc, capsys, f"{path}:2: not UTF-8 text", out)


@pytest.mark.parametrize("name", ["report.txt", "flights.csv", "summary.json",
                                  "f1_vs_epoch.csv", "f1_vs_params.csv", "selection.txt"])
def test_failed_eval_or_report_write_keeps_the_earlier_file(tmp_path, monkeypatch, name):
    corpus = _make_corpus(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out", str(run),
                 "--strategy", "vanilla", "--epochs", "6", "--seed", "0"]) == 0
    out = tmp_path / "out"
    out.mkdir()
    (out / name).write_text("earlier\n")
    replace = os.replace

    def failing_replace(src, dst):
        if Path(dst).name == name:
            raise OSError(28, "No space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    if name in ("report.txt", "flights.csv", "summary.json"):
        argv = ["eval", "--checkpoint", str(run / "checkpoint.json"), "--corpus", str(corpus)]
    else:
        argv = ["report", "--history", str(run / "history.jsonl"), "--window", "4"]
    assert main([*argv, "--out", str(out)]) == 1
    assert (out / name).read_text() == "earlier\n"
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
