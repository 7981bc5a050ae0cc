"""Detection-to-tile conversion and leakage-safe split construction.

Bounding boxes use half-open pixel coordinates ``[x_min, x_max) x
[y_min, y_max)`` so every area computation is exact integer arithmetic.
Tiles are enumerated by four sliding-window passes, one anchored at each
image corner; a pass's final origin is clamped flush to the boundary, which
is what produces the partially overlapping tiles near edges.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, DegenerateInputError, ShapeError

TILE_SIZE = 518
R_THRESHOLD = 0.1

LABEL_BACKGROUND = 0
LABEL_RUMEX = 1
LABEL_UNCLEAR = 2

PASS_CORNERS = ("TL", "TR", "BL", "BR")

UNSPLIT = "none"


@dataclass(frozen=True)
class BBoxAnnotation:
    image_id: str
    x_min: int
    y_min: int
    x_max: int
    y_max: int
    class_name: str
    plant_id: Optional[str] = None

    def __post_init__(self):
        if self.x_min >= self.x_max or self.y_min >= self.y_max:
            raise DataError(
                f"degenerate box for {self.image_id}: "
                f"({self.x_min},{self.y_min},{self.x_max},{self.y_max})"
            )

    def clamped(self, width: int, height: int) -> "BBoxAnnotation":
        return replace(
            self,
            x_min=max(0, self.x_min),
            y_min=max(0, self.y_min),
            x_max=min(width, self.x_max),
            y_max=min(height, self.y_max),
        )


@dataclass(frozen=True)
class TileRecord:
    image_id: str
    x: int
    y: int
    side: int
    label: int
    overlap: float
    pass_corner: str
    plant_ids: tuple[str, ...] = ()  # plants whose boxes touch this tile

    @property
    def origin(self) -> tuple[int, int]:
        return (self.x, self.y)

    @property
    def trainable(self) -> bool:
        return self.label != LABEL_UNCLEAR


@dataclass(frozen=True)
class ManifestEntry:
    record: TileRecord
    split: str
    domain_id: str


@dataclass
class SplitManifest:
    entries: list[ManifestEntry]

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            key = (e.record.image_id, e.record.x, e.record.y)
            if key in seen:
                raise DataError(f"duplicate tile {key} in manifest")
            seen.add(key)

    def __len__(self):
        return len(self.entries)


# ----------------------------------------------------------------------
# tile enumeration


def _forward_origins(extent: int, side: int) -> list[int]:
    n = math.ceil(extent / side)
    return [min(i * side, extent - side) for i in range(n)]


def _backward_origins(extent: int, side: int) -> list[int]:
    n = math.ceil(extent / side)
    return [max(extent - side - i * side, 0) for i in range(n)]


def enumerate_tiles(width: int, height: int, side: int = TILE_SIZE) -> list[tuple[int, int, str]]:
    """All unique tile origins from the four corner-anchored passes.

    Returns (x, y, pass_corner) sorted by origin; when several passes
    produce the same origin the first pass in TL, TR, BL, BR order wins.
    """
    if width < side or height < side:
        raise DegenerateInputError(
            f"image {width}x{height} is smaller than the {side}-pixel tile"
        )
    fx, bx = _forward_origins(width, side), _backward_origins(width, side)
    fy, by = _forward_origins(height, side), _backward_origins(height, side)
    passes = (("TL", fx, fy), ("TR", bx, fy), ("BL", fx, by), ("BR", bx, by))
    origin_corner: dict[tuple[int, int], str] = {}
    for corner, xs, ys in passes:
        for y in ys:
            for x in xs:
                origin_corner.setdefault((x, y), corner)
    return [(x, y, origin_corner[(x, y)]) for (x, y) in sorted(origin_corner)]


# ----------------------------------------------------------------------
# overlap and labels


def overlap_ratio(box: BBoxAnnotation, tile_x: int, tile_y: int, side: int = TILE_SIZE) -> float:
    """Fraction of the tile's pixels covered by the box (exact integer area)."""
    ox = min(box.x_max, tile_x + side) - max(box.x_min, tile_x)
    oy = min(box.y_max, tile_y + side) - max(box.y_min, tile_y)
    if ox <= 0 or oy <= 0:
        return 0.0
    return (ox * oy) / (side * side)


def union_overlap_ratio(
    boxes: Sequence[BBoxAnnotation], tile_x: int, tile_y: int, side: int = TILE_SIZE
) -> float:
    """Union-of-boxes variant: covered tile pixels counted once each."""
    if not boxes:
        return 0.0
    mask = np.zeros((side, side), dtype=bool)
    for box in boxes:
        x0 = max(box.x_min - tile_x, 0)
        y0 = max(box.y_min - tile_y, 0)
        x1 = min(box.x_max - tile_x, side)
        y1 = min(box.y_max - tile_y, side)
        if x1 > x0 and y1 > y0:
            mask[y0:y1, x0:x1] = True
    return int(mask.sum()) / (side * side)


def assign_label(
    tile_x: int,
    tile_y: int,
    side: int,
    boxes: Sequence[BBoxAnnotation],
    r_th: float = R_THRESHOLD,
    combine: str = "max",
) -> tuple[int, float]:
    """(label, r) for one tile against the positive-class boxes.

    r aggregates multiple boxes by maximum by default (combine="union"
    switches to union area). Labels: r == 0 -> background, r > r_th ->
    rumex, 0 < r <= r_th -> unclear (excluded from training downstream).
    """
    if not 0.0 < r_th < 1.0:
        raise ConfigError(f"r_th must lie in (0, 1), got {r_th}")
    if combine == "max":
        r = max((overlap_ratio(b, tile_x, tile_y, side) for b in boxes), default=0.0)
    elif combine == "union":
        r = union_overlap_ratio(boxes, tile_x, tile_y, side)
    else:
        raise ConfigError(f"unknown overlap combination rule {combine!r}")
    if r == 0.0:
        return LABEL_BACKGROUND, r
    if r > r_th:
        return LABEL_RUMEX, r
    return LABEL_UNCLEAR, r


def tile_image(
    image_id: str,
    width: int,
    height: int,
    boxes: Sequence[BBoxAnnotation],
    side: int = TILE_SIZE,
    r_th: float = R_THRESHOLD,
    combine: str = "max",
) -> list[TileRecord]:
    """Tile one image and label each tile against its boxes."""
    clamped = [b.clamped(width, height) for b in boxes if b.image_id == image_id]
    records = []
    for x, y, corner in enumerate_tiles(width, height, side):
        label, r = assign_label(x, y, side, clamped, r_th, combine)
        plants = sorted(
            {
                b.plant_id
                for b in clamped
                if b.plant_id and overlap_ratio(b, x, y, side) > 0.0
            }
        )
        records.append(
            TileRecord(image_id, x, y, side, label, r, corner, tuple(plants))
        )
    return records


# ----------------------------------------------------------------------
# splits


class _UnionFind:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, a: str) -> str:
        self.parent.setdefault(a, a)
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def build_splits(
    records: Sequence[TileRecord],
    subset_of: Mapping[str, str],
    val_fraction: float,
    mode: str,
    seed: int,
    plant_control: bool = True,
) -> SplitManifest:
    """Assign train/val splits without splitting any plant across them.

    Tiles touching plants are grouped by connected plant components (a tile
    overlapping two plants ties them together); background tiles are grouped
    by image. The split is drawn per subset so both splits contain samples
    from every location/date subset. ``mode`` controls the emitted
    domain_id: "pooled" collapses all subsets into one source domain,
    "per_subset" keeps one domain per subset.
    """
    if mode not in ("pooled", "per_subset"):
        raise ConfigError(f"unknown split mode {mode!r}")
    if not 0.0 <= val_fraction < 1.0:
        raise ConfigError(f"val_fraction must lie in [0, 1), got {val_fraction}")
    for rec in records:
        if rec.image_id not in subset_of:
            raise DataError(f"no subset assignment for image {rec.image_id!r}")
        if plant_control and rec.label == LABEL_RUMEX and not rec.plant_ids:
            raise DataError(
                f"rumex tile {rec.image_id}@{rec.origin} has no plant_id; "
                "plant-level leakage control needs one"
            )

    # warn on plants observed in more than one subset
    plant_subsets: dict[str, set[str]] = {}
    for rec in records:
        for pid in rec.plant_ids:
            plant_subsets.setdefault(pid, set()).add(subset_of[rec.image_id])
    for pid, subsets in sorted(plant_subsets.items()):
        if len(subsets) > 1:
            warnings.warn(
                f"plant {pid!r} spans subsets {sorted(subsets)}; "
                "it will be kept in a single split",
                stacklevel=2,
            )

    uf = _UnionFind()
    for rec in records:
        for pid in rec.plant_ids:
            uf.union(rec.plant_ids[0], pid)

    def group_key(rec: TileRecord) -> str:
        if rec.plant_ids:
            return "plant:" + uf.find(rec.plant_ids[0])
        return "image:" + rec.image_id

    groups: dict[str, list[TileRecord]] = {}
    for rec in records:
        groups.setdefault(group_key(rec), []).append(rec)

    # each group is attributed to the subset of its first record
    def rec_sort_key(rec: TileRecord):
        return (rec.image_id, rec.x, rec.y)

    group_subset = {
        key: subset_of[min(recs, key=rec_sort_key).image_id] for key, recs in groups.items()
    }
    by_subset: dict[str, list[str]] = {}
    for key in groups:
        by_subset.setdefault(group_subset[key], []).append(key)

    rng = np.random.default_rng(seed)
    split_of_group: dict[str, str] = {}
    for subset in sorted(by_subset):
        keys = sorted(by_subset[subset])
        order = [keys[i] for i in rng.permutation(len(keys))]
        n_records = sum(len(groups[k]) for k in keys)
        target_val = int(round(val_fraction * n_records))
        if val_fraction > 0.0 and len(keys) < 2:
            warnings.warn(
                f"subset {subset!r} has a single leakage group; it cannot appear in both splits",
                stacklevel=2,
            )
        taken = 0
        val_groups = 0
        for i, key in enumerate(order):
            remaining = len(order) - i
            # greedy fill, but always leave at least one group for train
            want_val = taken < target_val and remaining > 1
            if not want_val and val_fraction > 0.0 and val_groups == 0 and remaining == 1 and len(order) >= 2:
                # a requested val split must see every subset when possible
                want_val = True
            split_of_group[key] = "val" if want_val else "train"
            if want_val:
                taken += len(groups[key])
                val_groups += 1

    entries = []
    for rec in sorted(records, key=rec_sort_key):
        domain = "pooled" if mode == "pooled" else subset_of[rec.image_id]
        entries.append(ManifestEntry(rec, split_of_group[group_key(rec)], domain))

    manifest = SplitManifest(entries)
    if val_fraction > 0.0:
        splits = {e.split for e in entries}
        if splits != {"train", "val"}:
            raise ConfigError(
                f"split produced {sorted(splits)} only; "
                "not enough leakage groups for a non-empty val split"
            )
    return manifest


# ----------------------------------------------------------------------
# manifest and annotation files

MANIFEST_HEADER = ["image_id", "x", "y", "side", "label", "r", "split", "domain_id", "pass_corner"]
ANNOTATION_HEADER = ["image_id", "x_min", "y_min", "x_max", "y_max", "class", "plant_id"]


def write_manifest(manifest: SplitManifest, path) -> None:
    entries = sorted(manifest.entries, key=lambda e: (e.record.image_id, e.record.x, e.record.y))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_HEADER)
        for e in entries:
            r = e.record
            writer.writerow(
                [r.image_id, r.x, r.y, r.side, r.label, f"{r.overlap:.6f}", e.split, e.domain_id, r.pass_corner]
            )


def read_manifest(path) -> SplitManifest:
    entries = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != MANIFEST_HEADER:
            raise DataError(f"unexpected manifest header {header!r}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(MANIFEST_HEADER):
                raise DataError(f"{path}:{line_no}: expected {len(MANIFEST_HEADER)} fields")
            image_id, x, y, side, label, r, split, domain_id, corner = row
            try:
                rec = TileRecord(image_id, int(x), int(y), int(side), int(label), float(r), corner)
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: {exc}") from exc
            entries.append(ManifestEntry(rec, split, domain_id))
    return SplitManifest(entries)


def read_annotations(path) -> list[BBoxAnnotation]:
    boxes = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: missing header row")
        if [h.strip() for h in header] != ANNOTATION_HEADER:
            raise DataError(
                f"{path}: header must be {','.join(ANNOTATION_HEADER)}, got {','.join(header)}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(ANNOTATION_HEADER):
                raise DataError(f"{path}:{line_no}: expected {len(ANNOTATION_HEADER)} fields")
            image_id, x0, y0, x1, y1, cls, plant = [f.strip() for f in row]
            try:
                boxes.append(
                    BBoxAnnotation(image_id, int(x0), int(y0), int(x1), int(y1), cls, plant or None)
                )
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: {exc}") from exc
    return boxes


# ----------------------------------------------------------------------
# raster I/O (binary PGM/PPM)

_PNM_MAGIC = {b"P5": 1, b"P6": 3}


def read_pnm(path) -> np.ndarray:
    """Binary PGM (P5) or PPM (P6); returns uint8/uint16 HxW or HxWx3."""
    raw = Path(path).read_bytes()
    magic = raw[:2]
    if magic not in _PNM_MAGIC:
        raise DataError(f"{path}: not a binary PGM/PPM file (magic {magic!r})")
    # header tokens may be separated by whitespace and '#' comments
    tokens: list[int] = []
    pos = 2
    while len(tokens) < 3:
        m = re.match(rb"(?:\s+|#[^\n]*\n)*(\d+)", raw[pos:])
        if m is None:
            raise DataError(f"{path}: truncated PNM header")
        tokens.append(int(m.group(1)))
        pos += m.end()
    width, height, maxval = tokens
    if maxval <= 0 or maxval > 65535:
        raise DataError(f"{path}: unsupported maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    channels = _PNM_MAGIC[magic]
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = width * height * channels
    if len(raw) - pos < count * dtype.itemsize:
        raise DataError(f"{path}: payload shorter than {width}x{height}x{channels}")
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=pos)
    shape = (height, width) if channels == 1 else (height, width, 3)
    out = data.reshape(shape)
    return out.astype(np.uint16) if maxval > 255 else out.copy()


def write_pnm(path, image: np.ndarray, maxval: Optional[int] = None) -> None:
    image = np.asarray(image)
    if image.ndim == 2:
        magic = b"P5"
    elif image.ndim == 3 and image.shape[2] == 3:
        magic = b"P6"
    else:
        raise ShapeError(f"cannot encode array of shape {image.shape} as PGM/PPM")
    if maxval is None:
        maxval = 65535 if image.dtype.itemsize > 1 else 255
    height, width = image.shape[:2]
    header = b"%s\n%d %d\n%d\n" % (magic, width, height, maxval)
    payload = image.astype(">u2" if maxval > 255 else "u1").tobytes()
    Path(path).write_bytes(header + payload)


def extract_tile_pixels(image: np.ndarray, x: int, y: int, side: int = TILE_SIZE) -> np.ndarray:
    """Exact crop of one tile; the tile must lie fully inside the image."""
    height, width = image.shape[:2]
    if x < 0 or y < 0 or x + side > width or y + side > height:
        raise ShapeError(
            f"tile at ({x},{y}) with side {side} exceeds image {width}x{height}"
        )
    return image[y : y + side, x : x + side].copy()


def image_files(images_dir) -> list[tuple[str, Path]]:
    """(image_id, path) pairs for every PGM/PPM under images_dir, sorted.

    The image id is the path relative to images_dir in posix form.
    """
    root = Path(images_dir)
    found = [p for p in root.rglob("*") if p.suffix.lower() in (".pgm", ".ppm")]
    return sorted((p.relative_to(root).as_posix(), p) for p in found)


def label_counts(records: Iterable[TileRecord]) -> dict[int, int]:
    counts = {LABEL_BACKGROUND: 0, LABEL_RUMEX: 0, LABEL_UNCLEAR: 0}
    for rec in records:
        counts[rec.label] += 1
    return counts
