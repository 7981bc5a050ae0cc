import csv
import io
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rumexda import tiling
from rumexda.errors import ConfigError, DataError, DegenerateInputError
from rumexda.tiling import (
    BBoxAnnotation,
    ManifestEntry,
    SplitManifest,
    TileRecord,
    assign_label,
    build_splits,
    enumerate_tiles,
    overlap_ratio,
    read_annotations,
    read_manifest,
    read_pnm,
    tile_image,
    write_manifest,
    write_pnm,
)


def brute_force_origins(width, height, side):
    """Independent origin-set oracle: recompute the four passes directly."""
    import math

    n_x, n_y = math.ceil(width / side), math.ceil(height / side)
    fx = [min(i * side, width - side) for i in range(n_x)]
    bx = [max(width - side - i * side, 0) for i in range(n_x)]
    fy = [min(i * side, height - side) for i in range(n_y)]
    by = [max(height - side - i * side, 0) for i in range(n_y)]
    origins = set()
    for xs, ys in ((fx, fy), (bx, fy), (fx, by), (bx, by)):
        origins.update((x, y) for x in xs for y in ys)
    return origins


def pixel_coverage(width, height, origins, side):
    counts = np.zeros((height, width), dtype=np.uint16)
    for x, y in origins:
        counts[y : y + side, x : x + side] += 1
    return counts


def rasterized_overlap(box, tile_x, tile_y, side):
    """Per-pixel counting oracle for the overlap ratio."""
    mask = np.zeros((side, side), dtype=bool)
    x0, y0 = max(box.x_min - tile_x, 0), max(box.y_min - tile_y, 0)
    x1, y1 = min(box.x_max - tile_x, side), min(box.y_max - tile_y, side)
    if x1 > x0 and y1 > y0:
        mask[y0:y1, x0:x1] = True
    return int(mask.sum()) / (side * side)


# ----------------------------------------------------------------------
# enumeration


def test_exact_multiple_gives_grid():
    tiles = enumerate_tiles(1036, 1036, 518)
    assert sorted((x, y) for x, y, _ in tiles) == [(0, 0), (0, 518), (518, 0), (518, 518)]


def test_single_tile_image():
    assert enumerate_tiles(518, 518, 518) == [(0, 0, "TL")]


def test_1920x1200_matches_brute_force_and_covers():
    tiles = enumerate_tiles(1920, 1200, 518)
    origins = {(x, y) for x, y, _ in tiles}
    assert origins == brute_force_origins(1920, 1200, 518)
    counts = pixel_coverage(1920, 1200, origins, 518)
    assert counts.min() >= 1


def test_too_small_image_errors():
    with pytest.raises(DegenerateInputError):
        enumerate_tiles(517, 1000, 518)


@pytest.mark.parametrize("side", [0, -5])
def test_tile_side_below_one_is_a_config_error(side):
    with pytest.raises(ConfigError, match=f"tile side must be at least 1 pixel, got {side}"):
        enumerate_tiles(1000, 1000, side)


def test_coverage_property_random_sizes():
    rng = np.random.default_rng(0)
    for _ in range(8):
        w = int(rng.integers(518, 3001))
        h = int(rng.integers(518, 2001))
        tiles = enumerate_tiles(w, h, 518)
        origins = {(x, y) for x, y, _ in tiles}
        assert origins == brute_force_origins(w, h, 518)
        assert pixel_coverage(w, h, origins, 518).min() >= 1
        for x, y in origins:
            assert 0 <= x <= w - 518 and 0 <= y <= h - 518


@settings(max_examples=60, deadline=None)
@given(side=st.integers(1, 30), data=st.data())
def test_tile_origins_cover_every_pixel(side, data):
    width = data.draw(st.integers(side, 6 * side))
    height = data.draw(st.integers(side, 6 * side))
    origins = [(x, y) for x, y, _ in enumerate_tiles(width, height, side)]
    assert len(set(origins)) == len(origins)
    for x, y in origins:
        assert 0 <= x <= width - side and 0 <= y <= height - side
    assert pixel_coverage(width, height, origins, side).min() >= 1


def _four_pass_oracle(width, height, side):
    """The passes run in TL, TR, BL, BR order, each row by row, and the
    first pass to reach an origin names its corner."""
    n_x, n_y = -(-width // side), -(-height // side)
    fx = [min(i * side, width - side) for i in range(n_x)]
    bx = [max(width - side - i * side, 0) for i in range(n_x)]
    fy = [min(i * side, height - side) for i in range(n_y)]
    by = [max(height - side - i * side, 0) for i in range(n_y)]
    corner_of = {}
    for corner, xs, ys in (("TL", fx, fy), ("TR", bx, fy), ("BL", fx, by), ("BR", bx, by)):
        for y in ys:
            for x in xs:
                corner_of.setdefault((x, y), corner)
    return [(x, y, corner_of[(x, y)]) for x, y in sorted(corner_of)]


@settings(max_examples=200, deadline=None)
@given(side=st.integers(1, 40), data=st.data())
def test_enumeration_is_the_four_passes_first_wins(side, data):
    width = data.draw(st.integers(side, 9 * side))
    height = data.draw(st.integers(side, 9 * side))
    assert enumerate_tiles(width, height, side) == _four_pass_oracle(width, height, side)


def test_pass_corner_first_wins():
    tiles = enumerate_tiles(518, 518, 518)
    assert tiles[0][2] == "TL"
    corners = {c for _, _, c in enumerate_tiles(700, 700, 518)}
    assert corners <= {"TL", "TR", "BL", "BR"}


# ----------------------------------------------------------------------
# overlap ratio


def _box(x0, y0, x1, y1, plant=None):
    return BBoxAnnotation("img", x0, y0, x1, y1, "rumex", plant)


def test_overlap_disjoint_is_zero():
    assert overlap_ratio(_box(600, 600, 700, 700), 0, 0, 518) == 0.0


def test_overlap_full_cover_is_one():
    assert overlap_ratio(_box(-10, -10, 600, 600), 0, 0, 518) == 1.0


def test_overlap_small_box_exact_fraction():
    r = overlap_ratio(_box(100, 100, 200, 200), 0, 0, 518)
    assert r == 10000 / 268324
    assert r == pytest.approx(0.03727, abs=5e-6)


def test_overlap_matches_rasterized_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x0, y0 = rng.integers(-100, 600, size=2)
        w, h = rng.integers(1, 400, size=2)
        box = _box(int(x0), int(y0), int(x0 + w), int(y0 + h))
        assert overlap_ratio(box, 0, 0, 518) == rasterized_overlap(box, 0, 0, 518)


# ----------------------------------------------------------------------
# label rule


def test_no_boxes_is_background():
    assert assign_label(0, 0, 518, []) == (0, 0.0)


def test_small_overlap_is_unclear():
    label, r = assign_label(0, 0, 518, [_box(100, 100, 200, 200)])
    assert label == 2
    assert 0 < r <= 0.1


def test_large_overlap_is_rumex():
    # 20% of the tile area
    side = 518
    box = _box(0, 0, side, int(round(0.2 * side)))
    label, r = assign_label(0, 0, side, [box])
    assert label == 1
    assert r > 0.1


def test_label_partition_sweep():
    side = 100
    for rows in range(0, side + 1):
        boxes = [] if rows == 0 else [_box(0, 0, side, rows)]
        label, r = assign_label(0, 0, side, boxes, r_th=0.1)
        if r == 0:
            assert label == 0
        elif r > 0.1:
            assert label == 1
        else:
            assert label == 2
        assert r == rows / side


def test_max_combination_over_boxes():
    boxes = [_box(0, 0, 50, 50), _box(0, 0, 518, 200)]
    _, r = assign_label(0, 0, 518, boxes)
    assert r == overlap_ratio(boxes[1], 0, 0, 518)


def test_bad_r_threshold():
    with pytest.raises(ConfigError):
        assign_label(0, 0, 518, [], r_th=0.0)


def test_split_with_a_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        build_splits([], {}, 0.2, "pooled", -1)


# ----------------------------------------------------------------------
# splits


def _records_for_split():
    recs = []
    # two subsets, each with 3 plants and background tiles from 2 images
    for s, subset in enumerate(("siteA", "siteB")):
        for img in range(2):
            image_id = f"{subset}/img{img}.ppm"
            for t in range(3):
                recs.append(
                    TileRecord(image_id, t * 518, 0, 518, 1, 0.4, "TL", (f"{subset}-plant{t}",))
                )
            for t in range(4):
                recs.append(TileRecord(image_id, t * 518, 518, 518, 0, 0.0, "TL"))
    subset_of = {r.image_id: r.image_id.split("/")[0] for r in recs}
    return recs, subset_of


def test_plant_groups_stay_in_one_split():
    recs, subset_of = _records_for_split()
    manifest = build_splits(recs, subset_of, val_fraction=0.3, mode="per_subset", seed=1)
    split_by_plant = {}
    for e in manifest.entries:
        for pid in e.record.plant_ids:
            split_by_plant.setdefault(pid, set()).add(e.split)
    assert split_by_plant
    for pid, splits in split_by_plant.items():
        assert len(splits) == 1, pid


def test_single_plant_tiles_travel_together():
    recs = [TileRecord("a.ppm", i * 518, 0, 518, 1, 0.5, "TL", ("p1",)) for i in range(5)]
    recs += [TileRecord("b.ppm", i * 518, 0, 518, 1, 0.5, "TL", (f"q{i}",)) for i in range(4)]
    subset_of = {"a.ppm": "s", "b.ppm": "s"}
    manifest = build_splits(recs, subset_of, val_fraction=0.4, mode="pooled", seed=0)
    p1_splits = {e.split for e in manifest.entries if "p1" in e.record.plant_ids}
    assert len(p1_splits) == 1


def test_per_subset_mode_keeps_domains():
    recs, subset_of = _records_for_split()
    manifest = build_splits(recs, subset_of, val_fraction=0.3, mode="per_subset", seed=1)
    assert {e.domain_id for e in manifest.entries} == {"siteA", "siteB"}
    pooled = build_splits(recs, subset_of, val_fraction=0.3, mode="pooled", seed=1)
    assert {e.domain_id for e in pooled.entries} == {"pooled"}


def test_five_subsets_give_five_domains():
    # the per-subset mode keeps one source domain per location/date subset
    recs = []
    subset_of = {}
    for s in range(5):
        image_id = f"subset{s}/img.ppm"
        subset_of[image_id] = f"subset{s}"
        for t in range(3):
            recs.append(TileRecord(image_id, t * 518, 0, 518, 1, 0.5, "TL", (f"s{s}p{t}",)))
        recs.append(TileRecord(image_id, 0, 518, 518, 0, 0.0, "TL"))
    manifest = build_splits(recs, subset_of, val_fraction=0.25, mode="per_subset", seed=3)
    assert {e.domain_id for e in manifest.entries} == {f"subset{s}" for s in range(5)}
    assert {e.domain_id for e in build_splits(recs, subset_of, 0.25, "pooled", 3).entries} == {"pooled"}


def test_both_splits_see_every_subset():
    recs, subset_of = _records_for_split()
    manifest = build_splits(recs, subset_of, val_fraction=0.3, mode="per_subset", seed=5)
    for subset in ("siteA", "siteB"):
        splits = {e.split for e in manifest.entries if subset_of[e.record.image_id] == subset}
        assert splits == {"train", "val"}


def test_val_fraction_zero_all_train():
    recs, subset_of = _records_for_split()
    manifest = build_splits(recs, subset_of, val_fraction=0.0, mode="pooled", seed=1)
    assert all(e.split == "train" for e in manifest.entries)


def test_split_determinism(tmp_path):
    recs, subset_of = _records_for_split()
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    write_manifest(build_splits(recs, subset_of, 0.3, "per_subset", seed=7), out1)
    write_manifest(build_splits(recs, subset_of, 0.3, "per_subset", seed=7), out2)
    assert out1.read_bytes() == out2.read_bytes()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**128 - 1),
       sizes=st.lists(st.integers(0, 3000), min_size=1, max_size=5))
def test_split_rng_permutations_are_numpys_call_after_call(seed, sizes):
    ours, numpys = tiling._SplitRng(seed), np.random.default_rng(seed)
    for n in sizes:
        assert ours.permutation(n) == numpys.permutation(n).tolist()


def test_split_rng_golden_for_seed_1():
    # pins the split's group order whatever a future numpy's Generator.permutation gives
    rng = tiling._SplitRng(1)
    assert rng.permutation(10) == [8, 4, 7, 0, 1, 2, 5, 9, 6, 3]
    assert rng.permutation(10) == [0, 1, 8, 6, 5, 7, 9, 2, 3, 4]


def test_plant_spanning_subsets_warns():
    recs = [
        TileRecord("a.ppm", 0, 0, 518, 1, 0.5, "TL", ("shared",)),
        TileRecord("b.ppm", 0, 0, 518, 1, 0.5, "TL", ("shared",)),
        TileRecord("a.ppm", 518, 0, 518, 0, 0.0, "TL"),
        TileRecord("b.ppm", 518, 0, 518, 0, 0.0, "TL"),
    ]
    subset_of = {"a.ppm": "s1", "b.ppm": "s2"}
    with pytest.warns(UserWarning, match="spans subsets"):
        build_splits(recs, subset_of, val_fraction=0.0, mode="pooled", seed=0)


def test_a_plant_group_is_drawn_in_the_subset_of_its_first_record():
    # the shared plant's first record by (image_id, x, y) is on a.ppm, though not in list
    # order, so its group is drawn in s1 and s2 is left with b.ppm's background alone
    recs = [
        TileRecord("b.ppm", 0, 0, 518, 1, 0.5, "TL", ("shared",)),
        TileRecord("b.ppm", 518, 0, 518, 0, 0.0, "TL"),
        TileRecord("a.ppm", 518, 0, 518, 0, 0.0, "TL"),
        TileRecord("a.ppm", 0, 0, 518, 1, 0.5, "TL", ("shared",)),
    ]
    subset_of = {"a.ppm": "s1", "b.ppm": "s2"}
    a_background = set()
    for seed in range(10):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            manifest = build_splits(recs, subset_of, 0.5, "per_subset", seed)
        assert [str(w.message) for w in caught] == [
            "plant 'shared' spans subsets ['s1', 's2']; it will be kept in a single split",
            "subset 's2' has a single leakage group; it cannot appear in both splits"]
        split = {(e.record.image_id, e.record.x): e.split for e in manifest.entries}
        assert split["b.ppm", 518] == "train"
        a_background.add(split["a.ppm", 518])
    assert a_background == {"train", "val"}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_splits_never_put_one_plant_in_train_and_val(data):
    side = 8
    plants = [f"p{i}" for i in range(6)]
    records, subset_of = [], {}
    for i in range(data.draw(st.integers(1, 6))):
        image_id = f"img{i}.ppm"
        subset_of[image_id] = data.draw(st.sampled_from(["A", "B", "C"]))
        width, height = data.draw(st.integers(side, 30)), data.draw(st.integers(side, 30))
        boxes = []
        for _ in range(data.draw(st.integers(0, 4))):
            x0, y0 = data.draw(st.integers(0, width - 1)), data.draw(st.integers(0, height - 1))
            x1, y1 = data.draw(st.integers(x0 + 1, width)), data.draw(st.integers(y0 + 1, height))
            boxes.append(BBoxAnnotation(image_id, x0, y0, x1, y1, "rumex",
                                        data.draw(st.sampled_from(plants))))
        records += tile_image(image_id, width, height, boxes, side=side,
                              r_th=data.draw(st.floats(0.01, 0.9)))
    val_fraction = data.draw(st.floats(0.05, 0.9))
    mode = data.draw(st.sampled_from(["pooled", "per_subset"]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # plants spanning subsets, single-group subsets
        try:
            manifest = build_splits(records, subset_of, val_fraction, mode, seed)
        except ConfigError:
            return  # too few leakage groups for a val split
    assert len(manifest) == len(records)
    splits_of_plant: dict = {}
    for e in manifest.entries:
        for pid in e.record.plant_ids:
            splits_of_plant.setdefault(pid, set()).add(e.split)
    assert all(len(splits) == 1 for splits in splits_of_plant.values()), splits_of_plant


def test_rumex_tile_without_plant_id_errors():
    recs = [TileRecord("a.ppm", 0, 0, 518, 1, 0.5, "TL")]
    with pytest.raises(DataError):
        build_splits(recs, {"a.ppm": "s"}, 0.2, "pooled", seed=0)


def test_duplicate_tile_in_manifest_errors():
    rec = TileRecord("a.ppm", 0, 0, 518, 0, 0.0, "TL")
    with pytest.raises(DataError):
        SplitManifest([ManifestEntry(rec, "train", "d"), ManifestEntry(rec, "val", "d")])


@pytest.mark.parametrize("twin", [
    lambda rec: rec,
    lambda rec: rec._replace(overlap=None),  # a sort would compare 0.0 with None
], ids=["same", "incomparable"])
def test_a_repeated_tile_in_the_records_is_a_data_error(twin):
    rec = TileRecord("a.ppm", 0, 0, 518, 0, 0.0, "TL")
    other = TileRecord("a.ppm", 518, 0, 518, 0, 0.0, "TR")
    with pytest.raises(DataError, match=r"^duplicate tile \('a.ppm', 0, 0\) in manifest$"):
        build_splits([rec, other, twin(rec)], {"a.ppm": "s"}, 0.0, "pooled", seed=0)


@settings(max_examples=50, deadline=None)
@given(order=st.permutations(range(len(_records_for_split()[0]))), seed=st.integers(0, 9))
def test_build_splits_does_not_depend_on_the_order_of_its_records(order, seed):
    recs, subset_of = _records_for_split()
    expected = build_splits(recs, subset_of, 0.3, "per_subset", seed)
    assert build_splits([recs[i] for i in order], subset_of, 0.3, "per_subset",
                        seed).entries == expected.entries


def test_rows_from_make_are_the_rows_from_the_constructor():
    args = ("a.ppm", 0, 518, 518, 1, 0.5, "TL", ("p1",))
    rec, made = TileRecord(*args), TileRecord._make(args)
    assert type(made) is TileRecord and made == rec and hash(made) == hash(rec)
    assert made.plant_ids == ("p1",) and made.origin == (0, 518)
    entry = ManifestEntry._make((made, "train", "d"))
    assert type(entry) is ManifestEntry and entry == ManifestEntry(rec, "train", "d")
    assert hash(entry) == hash(ManifestEntry(rec, "train", "d"))
    moved = rec._replace(x=1036, plant_ids=())
    assert type(moved) is TileRecord and moved == TileRecord("a.ppm", 1036, 518, 518, 1, 0.5, "TL")
    assert entry._replace(split="val") == ManifestEntry(rec, "val", "d")
    with pytest.raises(ValueError, match="unexpected field names"):
        rec._replace(z=1)


def test_tile_records_and_manifest_entries_are_immutable_and_hashable():
    rec = TileRecord("a.ppm", 0, 518, 518, 1, 0.5, "TL", ("p1",))
    entry = ManifestEntry(rec, "train", "d")
    for obj, name, value in ((rec, "x", 1), (rec, "plant_ids", ()), (entry, "split", "val")):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
    assert rec.origin == (0, 518) and rec[:3] == ("a.ppm", 0, 518)
    twin = TileRecord("a.ppm", 0, 518, 518, 1, 0.5, "TL", ("p1",))
    assert twin == rec and hash(twin) == hash(rec)
    assert ManifestEntry(twin, "train", "d") == entry
    assert hash(ManifestEntry(twin, "train", "d")) == hash(entry)
    assert len({rec, twin, TileRecord("a.ppm", 0, 518, 518, 1, 0.5, "TL")}) == 2
    assert len({entry, ManifestEntry(twin, "train", "d"), ManifestEntry(rec, "val", "d")}) == 2
    assert TileRecord("a.ppm", 0, 0, 518, 0, 0.0, "TL").plant_ids == ()


# ----------------------------------------------------------------------
# manifest / annotation files


def test_manifest_roundtrip(tmp_path):
    recs, subset_of = _records_for_split()
    manifest = build_splits(recs, subset_of, 0.3, "per_subset", seed=3)
    path = tmp_path / "manifest.csv"
    write_manifest(manifest, path)
    loaded = read_manifest(path)
    assert len(loaded) == len(manifest)
    for a, b in zip(
        sorted(manifest.entries, key=lambda e: (e.record.image_id, e.record.x, e.record.y)),
        loaded.entries,
    ):
        assert (a.record.image_id, a.record.x, a.record.y) == (b.record.image_id, b.record.x, b.record.y)
        assert a.split == b.split and a.domain_id == b.domain_id
        assert b.record.overlap == pytest.approx(a.record.overlap, abs=5e-7)


def test_failed_manifest_write_keeps_the_previous_file(tmp_path):
    recs, subset_of = _records_for_split()
    manifest = build_splits(recs, subset_of, 0.3, "per_subset", seed=3)
    path = tmp_path / "manifest.csv"
    write_manifest(manifest, path)
    before = path.read_bytes()
    # every row differs from the file on disk, and an overlap that cannot be
    # formatted fails on the last row written
    moved = [ManifestEntry(e.record, e.split, "elsewhere") for e in manifest.entries]
    last = max(manifest.entries, key=lambda e: (e.record.image_id, e.record.x, e.record.y))
    bad = ManifestEntry(last.record._replace(x=last.record.x + 1, overlap="n/a"),
                        last.split, last.domain_id)
    for target in (path, tmp_path / "fresh.csv"):
        with pytest.raises(ValueError):
            write_manifest(SplitManifest(moved + [bad]), target)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.csv"]


def test_read_annotations(tmp_path):
    path = tmp_path / "boxes.csv"
    path.write_text(
        "image_id,x_min,y_min,x_max,y_max,class,plant_id\n"
        "img1.ppm,10,20,110,220,rumex,p1\n"
        "img1.ppm,5,5,50,50,dandelion,\n"
    )
    boxes = read_annotations(path)
    assert len(boxes) == 2
    assert boxes[0].plant_id == "p1"
    assert boxes[1].plant_id is None
    assert boxes[1].class_name == "dandelion"


def test_degenerate_annotation_row_is_a_data_error(tmp_path):
    path = tmp_path / "boxes.csv"
    path.write_text(",".join(tiling.ANNOTATION_HEADER) + "\na.ppm,0,0,10,10,rumex,p1\n"
                    "a.ppm,10,0,5,10,rumex,p2\n")
    with pytest.raises(DataError,
                       match=r"^\S*boxes.csv:3: degenerate box for a.ppm: \(10,0,5,10\)$"):
        read_annotations(path)


@pytest.mark.parametrize("make", [
    lambda: BBoxAnnotation("im", 5, 0, 5, 10, "rumex"),
    lambda: BBoxAnnotation(image_id="im", x_min=5, y_min=0, x_max=5, y_max=10, class_name="r"),
    lambda: BBoxAnnotation("im", 0, 0, 10, 10, "rumex", "p1")._replace(x_min=5, x_max=5),
], ids=["positional", "keywords", "_replace"])
def test_a_hand_built_box_without_area_is_a_data_error(make):
    with pytest.raises(DataError, match=r"^degenerate box for im: \(5,0,5,10\)$"):
        make()


_PLANT_ID = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=";"),
                    min_size=1, max_size=8)
_ID_EXAMPLES = ["p,1", 'p"1', "p 1", " p1 ", "p\r1", "p\n1", "Ampfer-ä", "酸模"]


@st.composite
def _manifests(draw):
    entries = []
    plant_sets = st.sets(_PLANT_ID | st.sampled_from(_ID_EXAMPLES), max_size=3)
    for x, plants in enumerate(draw(st.lists(plant_sets, max_size=6))):
        image_id = draw(st.sampled_from(["a.ppm", 'b,"c".ppm', "d\r.ppm"]))
        rec = TileRecord(image_id, x, draw(st.integers(0, 9)), draw(st.integers(1, 600)),
                         draw(st.sampled_from([0, 1, 2])), draw(st.integers(0, 10**6)) / 10**6,
                         "TL", tuple(sorted(plants)))
        entries.append(ManifestEntry(rec, draw(st.sampled_from(["none", "train", "val"])),
                                     draw(st.sampled_from(["d0", "site Ä"]))))
    return SplitManifest(entries)


@settings(max_examples=100, deadline=None)
@given(_manifests())
def test_manifest_write_then_read_gives_the_same_records(manifest):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        write_manifest(manifest, path)
        loaded = read_manifest(path)
    assert loaded.entries == sorted(manifest.entries,
                                    key=lambda e: (e.record.image_id, e.record.x, e.record.y))


def _key_order_bytes(entries) -> bytes:
    """The manifest as rows sorted by ``(image_id, x, y)``, written without
    ``write_manifest``."""
    rows = [tiling.MANIFEST_HEADER] + [
        (r.image_id, r.x, r.y, r.side, r.label, f"{r.overlap:.6f}", e.split, e.domain_id,
         r.pass_corner, ";".join(r.plant_ids))
        for e in sorted(entries, key=lambda e: e.record[:3]) for r in [e.record]
    ]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode()


@st.composite
def _shuffled_entries(draw):
    # few ids and origins, so that many keys tie on image_id, or on image_id and x
    keys = draw(st.sets(st.tuples(st.sampled_from(["a.ppm", "b.ppm", "a/b.ppm"]),
                                  st.sampled_from([0, 7, 518]), st.sampled_from([0, 7, 518])),
                        max_size=20))
    entries = []
    for image_id, x, y in keys:
        plants = draw(st.sets(st.sampled_from(["p1", "p2", "q"]), max_size=2))
        rec = TileRecord(image_id, x, y, draw(st.integers(1, 600)),
                         draw(st.sampled_from([0, 1, 2])), draw(st.integers(0, 10**6)) / 10**6,
                         draw(st.sampled_from(["TL", "TR", "BL", "BR"])), tuple(sorted(plants)))
        entries.append(ManifestEntry(rec, draw(st.sampled_from(["none", "train", "val"])),
                                     draw(st.sampled_from(["d0", "d1"]))))
    return draw(st.permutations(entries))


@settings(max_examples=100, deadline=None)
@given(_shuffled_entries())
def test_manifest_rows_are_in_tile_key_order(entries):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        write_manifest(SplitManifest(entries), path)
        assert path.read_bytes() == _key_order_bytes(entries)


@pytest.mark.parametrize("field, value, message", [
    ("label", "7", r"label must be one of \(0, 1, 2\), got 7"),
    ("label", "-1", r"label must be one of \(0, 1, 2\), got -1"),
    ("r", "nan", r"r must lie in \[0, 1\], got nan"),
    ("r", "-3.5", r"r must lie in \[0, 1\], got -3.5"),
    ("r", "1.000001", r"r must lie in \[0, 1\], got 1.000001"),
    ("r", "inf", r"r must lie in \[0, 1\], got inf"),
    ("pass_corner", "ZZ", r"pass_corner must be one of \('TL', 'TR', 'BL', 'BR'\), got 'ZZ'"),
    ("split", "test", r"split must be one of \('none', 'train', 'val'\), got 'test'"),
], ids=["label-7", "label-minus-1", "r-nan", "r-minus-3.5", "r-1.000001", "r-inf",
        "pass_corner", "split"])
def test_manifest_field_outside_its_values_is_a_data_error(tmp_path, field, value, message):
    row = dict(zip(tiling.MANIFEST_HEADER, "a.ppm,0,0,518,0,0.000000,none,d,TL,".split(",")))
    path = tmp_path / "m.csv"
    path.write_text(",".join(tiling.MANIFEST_HEADER) + "\na.ppm,518,0,518,0,0.000000,none,d,TR,\n"
                    + ",".join({**row, field: value}.values()) + "\n")
    with pytest.raises(DataError, match=f"m.csv:3: {message}$"):
        read_manifest(path)


def test_manifest_without_the_plant_ids_column_is_a_data_error(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(",".join(tiling.MANIFEST_HEADER[:-1]) + "\na.ppm,0,0,518,0,0.0,none,d,TL\n")
    with pytest.raises(DataError, match=r"m.csv:1: manifest predates the plant_ids column; "
                                        r"re-run tile"):
        read_manifest(path)


@pytest.mark.parametrize("text", ["", "image_id,x\n", ",".join(tiling.MANIFEST_HEADER[::-1])])
def test_unexpected_manifest_header_names_the_path(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(DataError, match="m.csv:1: unexpected manifest header"):
        read_manifest(path)


@pytest.mark.parametrize("plants", [";", "p1;", ";p1", "p1;;p2"])
def test_manifest_with_an_empty_plant_id_is_a_data_error(tmp_path, plants):
    path = tmp_path / "m.csv"
    path.write_text(",".join(tiling.MANIFEST_HEADER)
                    + f"\na.ppm,0,0,518,1,0.5,none,d,TL,{plants}\n")
    with pytest.raises(DataError, match="m.csv:2: empty plant id"):
        read_manifest(path)


def test_plant_id_with_the_manifest_separator_is_a_data_error(tmp_path):
    path = tmp_path / "boxes.csv"
    path.write_text(",".join(tiling.ANNOTATION_HEADER) + "\na.ppm,0,0,10,10,rumex,p1\n"
                    "a.ppm,0,0,10,10,rumex,p2;p3\n")
    with pytest.raises(DataError, match="boxes.csv:3: plant id 'p2;p3' contains ';'"):
        read_annotations(path)


@pytest.mark.parametrize("x, y, side", [(0, 0, 0), (-1, 0, 518), (0, 2**31, 518),
                                         (0, 0, 10**20)])
def test_manifest_tile_out_of_range_is_a_data_error(tmp_path, x, y, side):
    path = tmp_path / "m.csv"
    path.write_text(",".join(tiling.MANIFEST_HEADER)
                    + f"\na.ppm,{x},{y},{side},0,0.0,none,d,TL,\n")
    with pytest.raises(DataError, match="m.csv:2: .* out of range"):
        read_manifest(path)


@pytest.mark.parametrize("coord", [-(2**31), 2**31, 10**20])
def test_annotation_coordinate_out_of_range_is_a_data_error(tmp_path, coord):
    path = tmp_path / "boxes.csv"
    lo, hi = (coord, 10) if coord < 0 else (0, coord)
    path.write_text(",".join(tiling.ANNOTATION_HEADER) + f"\na.ppm,{lo},0,{hi},10,rumex,p1\n")
    with pytest.raises(DataError, match="boxes.csv:2: box coordinate out of range"):
        read_annotations(path)


def test_read_annotations_requires_header(tmp_path):
    path = tmp_path / "boxes.csv"
    path.write_text("img1.ppm,10,20,110,220,rumex,p1\n")
    with pytest.raises(DataError):
        read_annotations(path)


# one field longer than the csv module's default limit of 131072 characters
_OVERSIZED = "a" * 200_000


def test_annotation_field_over_the_csv_limit_is_a_data_error(tmp_path):
    path = tmp_path / "boxes.csv"
    path.write_text(",".join(tiling.ANNOTATION_HEADER) + f"\n{_OVERSIZED},0,0,10,10,rumex,p1\n")
    with pytest.raises(DataError, match="boxes.csv:2: field larger than field limit"):
        read_annotations(path)


def test_manifest_field_over_the_csv_limit_is_a_data_error(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(",".join(tiling.MANIFEST_HEADER) + f"\na.ppm,0,0,518,0,0.0,none,d,TL,\n"
                    f"{_OVERSIZED},0,0,518,0,0.0,none,d,TL,\n")
    with pytest.raises(DataError, match="m.csv:3: field larger than field limit"):
        read_manifest(path)


def test_reader_errors_name_the_line_a_row_ends_on(tmp_path):
    # a quoted field may hold a line break, so row 3 ends on line 4
    path = tmp_path / "m.csv"
    path.write_text(",".join(tiling.MANIFEST_HEADER) + '\n"a\nb.ppm",0,0,518,0,0.0,none,d,TL,\n'
                    "a.ppm,zz,0,518,0,0.0,none,d,TL,\n")
    with pytest.raises(DataError, match="m.csv:4: invalid literal"):
        read_manifest(path)


def _manifest_bytes() -> bytes:
    recs, subset_of = _records_for_split()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.csv"
        write_manifest(build_splits(recs, subset_of, 0.3, "per_subset", seed=3), path)
        return path.read_bytes()


_CSV_READERS = {
    "manifest": (read_manifest, _manifest_bytes()),
    "annotations": (read_annotations, b"image_id,x_min,y_min,x_max,y_max,class,plant_id\n"
                                      b"img1.ppm,10,20,110,220,rumex,p1\n"
                                      b"img1.ppm,5,5,50,50,dandelion,\n"
                                      b"siteB/img2.ppm,100,100,500,500,rumex,p3\n"),
}


@pytest.mark.parametrize("which", sorted(_CSV_READERS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cut=st.floats(0.0, 1.0),
       flips=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 255)),
                      max_size=3),
       pad_at=st.none() | st.floats(0.0, 1.0))
def test_csv_reader_fuzz_raises_only_data_errors(tmp_path, which, cut, flips, pad_at):
    reader, original = _CSV_READERS[which]
    data = bytearray(original)
    if pad_at is not None:
        at = int(pad_at * len(data))
        data[at:at] = _OVERSIZED.encode()
    for where, mask in flips:
        data[int(where * len(data))] ^= mask
    path = tmp_path / "input.csv"
    path.write_bytes(bytes(data[:int(cut * len(data))]))
    try:
        reader(path)
    except DataError:
        pass


# ----------------------------------------------------------------------
# rasters


def test_pnm_roundtrip_gray(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(40, 60), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    write_pnm(path, img)
    back = read_pnm(path)
    assert np.array_equal(back, img)
    assert back.dtype == np.uint8 and back.flags.writeable


def test_pnm_roundtrip_rgb(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(30, 20, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    write_pnm(path, img)
    back = read_pnm(path)
    assert np.array_equal(back, img)
    assert back.dtype == np.uint8 and back.flags.writeable


def test_pnm_roundtrip_16bit(tmp_path):
    rng = np.random.default_rng(4)
    for shape, name in (((25, 31), "deep.pgm"), ((9, 7, 3), "deep.ppm")):
        img = rng.integers(0, 65536, size=shape, dtype=np.uint16)
        path = tmp_path / name
        write_pnm(path, img)
        back = read_pnm(path)
        assert back.dtype == np.uint16 and back.dtype.isnative
        assert back.flags.writeable
        assert np.array_equal(back, img)


def test_pnm_truncated_payload_is_a_data_error(tmp_path):
    path = tmp_path / "t.ppm"
    write_pnm(path, np.zeros((10, 12, 3), dtype=np.uint8))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(DataError, match="payload shorter"):
        read_pnm(path)


def test_pnm_truncated_header_is_a_data_error(tmp_path):
    path = tmp_path / "t.ppm"
    write_pnm(path, np.zeros((10, 12, 3), dtype=np.uint8))
    raw = path.read_bytes()
    header_len = len(b"P6\n12 10\n255\n")
    for cut in range(header_len):
        path.write_bytes(raw[:cut])
        with pytest.raises(DataError):
            read_pnm(path)


def test_pnm_long_whitespace_run_is_a_data_error(tmp_path):
    """Separators are matched a byte at a time, so a long whitespace run
    before a bad token fails at once instead of backtracking exponentially."""
    path = tmp_path / "w.pgm"
    path.write_bytes(b"P5" + b" \n\t" * 2000 + b"x")
    with pytest.raises(DataError, match="truncated PNM header"):
        read_pnm(path)


@pytest.mark.parametrize("offset", [*range(-12, 4), 3 * 256])
def test_pnm_header_comment_past_the_prefix(tmp_path, offset):
    """The comment ends ``offset`` bytes from byte 256, so the tokens after
    it straddle that boundary."""
    img = np.arange(36, dtype=np.uint8).reshape(3, 12)
    n = 256 + offset - len(b"P5\n#")
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n#" + b"c" * n + b"\n12 3\n255\n" + img.tobytes())
    back = read_pnm(path)
    assert np.array_equal(back, img) and back.flags.writeable


@pytest.mark.parametrize("header", [
    b"P5\n0 100000000000000000000\n255\n",  # an empty image numpy cannot shape
    b"P5\n" + b"9" * 5000 + b" 1\n255\n",  # past int()'s digit limit
], ids=["empty-but-wide", "5000-digits"])
def test_pnm_header_number_too_long_is_a_data_error(tmp_path, header):
    path = tmp_path / "long.pgm"
    path.write_bytes(header)
    with pytest.raises(DataError, match="more than 18 digits"):
        read_pnm(path)


def test_pnm_leading_zeros_do_not_count_as_digits(tmp_path):
    path = tmp_path / "zeros.pgm"
    path.write_bytes(b"P5\n" + b"0" * 5000 + b"3 2\n255\n" + bytes(range(6)))
    assert np.array_equal(read_pnm(path), np.arange(6, dtype=np.uint8).reshape(2, 3))


def _pnm_oracle(raw: bytes):
    """Decode ``raw`` as read_pnm defines the format, scanning byte by byte;
    None when the bytes are not a complete binary PGM/PPM."""
    if raw[:2] not in (b"P5", b"P6"):
        return None
    pos, tokens = 2, []
    while len(tokens) < 3:
        while True:
            if raw[pos:pos + 1].isspace():
                pos += 1
            elif raw[pos:pos + 1] == b"#":
                end = raw.find(b"\n", pos)
                if end < 0:
                    return None
                pos = end + 1
            else:
                break
        start = pos
        while raw[pos:pos + 1].isdigit():
            pos += 1
        if pos == start or len(raw[start:pos].lstrip(b"0")) > 18:
            return None
        tokens.append(int(raw[start:pos]))
    width, height, maxval = tokens
    if not 0 < maxval <= 65535 or not raw[pos:pos + 1].isspace():
        return None
    channels = 1 if raw[:2] == b"P5" else 3
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = width * height * channels
    if len(raw) - (pos + 1) < count * dtype.itemsize:
        return None
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=pos + 1)
    shape = (height, width) if channels == 1 else (height, width, 3)
    return data.reshape(shape).astype(np.uint16 if maxval > 255 else np.uint8)


def _small_pnms():
    rng = np.random.default_rng(5)
    rgb = rng.integers(0, 256, size=(4, 5, 3), dtype=np.uint8)
    deep = rng.integers(0, 65536, size=(3, 4), dtype=np.uint16)
    return [b"P6\n5 4\n255\n" + rgb.tobytes(), b"P5\n4 3\n65535\n" + deep.astype(">u2").tobytes()]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.integers(0, 1), cut=st.integers(0, 200),
       flips=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)), max_size=3))
def test_pnm_fuzz_decodes_or_raises_data_error(tmp_path, which, cut, flips):
    raw = bytearray(_small_pnms()[which][:cut])
    for at, value in flips:
        if at < len(raw):
            raw[at] = value
    path = tmp_path / "fuzz.pnm"
    path.write_bytes(bytes(raw))
    expected = _pnm_oracle(bytes(raw))
    if expected is None:
        with pytest.raises(DataError):
            read_pnm(path)
    else:
        back = read_pnm(path)
        assert back.dtype == expected.dtype and np.array_equal(back, expected)


def test_pnm_non_whitespace_after_maxval_is_a_data_error(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 2\n255X" + bytes(4))
    with pytest.raises(DataError, match="whitespace"):
        read_pnm(path)
    path.write_bytes(b"P5\n2 2\n255\t" + bytes(4))  # any one whitespace byte will do
    assert read_pnm(path).shape == (2, 2)


def test_pnm_matches_independent_decoder(tmp_path):
    PIL = pytest.importorskip("PIL.Image")
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, size=(37, 53, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    write_pnm(path, img)
    reference = np.asarray(PIL.open(path))
    assert np.array_equal(read_pnm(path), reference)


def test_extract_checkerboard_matches_reference_crop(tmp_path):
    PIL = pytest.importorskip("PIL.Image")
    yy, xx = np.mgrid[0:64, 0:80]
    img = ((xx // 4 + yy // 4) % 2 * 255).astype(np.uint8)
    path = tmp_path / "cb.pgm"
    write_pnm(path, img)
    ref = np.asarray(PIL.open(path))[16:48, 8:40]
    assert np.array_equal(read_pnm(path)[16:48, 8:40], ref)


def _rgb_raster(path, height=1000, width=1200):
    img = np.random.default_rng(8).integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    write_pnm(path, img)
    return img


def test_pnm_read_allocates_far_less_than_its_payload(tmp_path):
    path = tmp_path / "big.ppm"
    img = _rgb_raster(path)
    tracemalloc.start()
    try:
        back = read_pnm(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.nbytes == img.nbytes and back.flags.writeable
    assert peak < img.nbytes // 100
    assert np.array_equal(back, img)


def test_pnm_write_to_the_array_leaves_the_file_unchanged(tmp_path):
    path = tmp_path / "img.ppm"
    img = _rgb_raster(path, 40, 50)
    raw = path.read_bytes()
    back = read_pnm(path)
    back[:] = 7
    assert path.read_bytes() == raw
    assert np.array_equal(read_pnm(path), img)
    assert np.all(back == 7)


def test_pnm_rewrite_leaves_an_earlier_array_unchanged(tmp_path):
    path = tmp_path / "img.ppm"
    img = _rgb_raster(path, 40, 50)
    back = read_pnm(path)
    write_pnm(path, np.full(img.shape, 7, dtype=np.uint8))
    assert np.array_equal(back, img)
    assert np.all(read_pnm(path) == 7)


# ----------------------------------------------------------------------
# tile_image end to end


def test_tile_image_labels_and_plants():
    boxes = [
        BBoxAnnotation("im", 0, 0, 518, 200, "rumex", "plantA"),  # 38.6% of TL tile
        BBoxAnnotation("im", 900, 900, 940, 940, "rumex", "plantB"),  # small, in BR tile
    ]
    records = tile_image("im", 1036, 1036, boxes, side=518)
    by_origin = {(r.x, r.y): r for r in records}
    assert by_origin[(0, 0)].label == 1
    assert by_origin[(0, 0)].plant_ids == ("plantA",)
    br = by_origin[(518, 518)]
    assert br.label == 2  # 40x40 box is 0.6% of the tile
    assert br.plant_ids == ("plantB",)
    assert by_origin[(0, 518)].label == 0
    assert by_origin[(0, 518)].plant_ids == ()



def test_box_outside_the_image_is_a_data_error():
    boxes = [BBoxAnnotation("im", -5, 10, 60, 700, "rumex", "p1"),  # clamped to the image
             BBoxAnnotation("im", 700, 0, 800, 50, "rumex", "p2")]  # nothing left once clamped
    assert tile_image("im", 600, 600, boxes[:1], side=518)[0].overlap == 60 * 508 / 518 ** 2
    with pytest.raises(DataError, match=r"^degenerate box for im: \(700,0,600,50\)$"):
        tile_image("im", 600, 600, boxes, side=518)


def _exact_overlap(box, x, y, side):
    """The overlap ratio in Python integers, one box against one tile."""
    ox = min(box.x_max, x + side) - max(box.x_min, x)
    oy = min(box.y_max, y + side) - max(box.y_min, y)
    return (ox * oy) / (side * side) if ox > 0 and oy > 0 else 0.0


def _tile_image_oracle(image_id, width, height, boxes, side, r_th):
    """tile_image one tile at a time: assign_label and a scalar plant set."""
    clamped = [b.clamped(width, height) for b in boxes if b.image_id == image_id]
    records = []
    for x, y, corner in enumerate_tiles(width, height, side):
        label, r = assign_label(x, y, side, clamped, r_th)
        plants = {b.plant_id for b in clamped
                  if b.plant_id and overlap_ratio(b, x, y, side) > 0.0}
        records.append(TileRecord(image_id, x, y, side, label, r, corner, tuple(sorted(plants))))
    return records


@st.composite
def _tiling_cases(draw):
    side = draw(st.integers(4, 40))
    width = draw(st.integers(side, 5 * side))
    height = draw(st.integers(side, 5 * side))
    boxes = []
    for _ in range(draw(st.integers(0, 12))):
        x0 = draw(st.integers(-side, width - 1))
        y0 = draw(st.integers(-side, height - 1))
        x1 = draw(st.integers(max(x0, 0) + 1, width + side))
        y1 = draw(st.integers(max(y0, 0) + 1, height + side))
        boxes.append(BBoxAnnotation(draw(st.sampled_from(["im", "other"])), x0, y0, x1, y1,
                                    "rumex", draw(st.sampled_from([None, "p0", "p1", "p2"]))))
    return side, width, height, boxes, draw(st.floats(0.001, 0.999))


@settings(max_examples=80, deadline=None)
@given(_tiling_cases())
def test_tile_image_matches_per_tile_oracle(case):
    side, width, height, boxes, r_th = case
    records = tile_image("im", width, height, boxes, side, r_th)
    oracle = _tile_image_oracle("im", width, height, boxes, side, r_th)
    assert [(r.x, r.y, r.label, r.pass_corner, r.plant_ids) for r in records] == \
        [(r.x, r.y, r.label, r.pass_corner, r.plant_ids) for r in oracle]
    assert [r.overlap.hex() for r in records] == [r.overlap.hex() for r in oracle]
    assert all(type(r.overlap) is float for r in records)
    # the array overlap is bitwise the scalar one, and both the integer ratio
    xs, ys = np.array([r.x for r in records]), np.array([r.y for r in records])
    for box in boxes:
        clamped = box.clamped(width, height)
        ratios = overlap_ratio(clamped, xs, ys, side)
        for r, rec in zip(ratios.tolist(), records):
            exact = _exact_overlap(clamped, rec.x, rec.y, side)
            assert r.hex() == float(overlap_ratio(clamped, rec.x, rec.y, side)).hex() == exact.hex()
    # the manifest's plant_ids column carries the oracle's plant sets
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tiles.csv"
        write_manifest(SplitManifest([ManifestEntry(r, "none", "d") for r in records]), path)
        assert [e.record.plant_ids for e in read_manifest(path).entries] == \
            [r.plant_ids for r in oracle]

