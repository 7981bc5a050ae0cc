"""Detection-to-tile conversion and leakage-safe split construction.

Bounding boxes use half-open pixel coordinates ``[x_min, x_max) x
[y_min, y_max)`` so every area computation is exact integer arithmetic.
Tiles are enumerated by four sliding-window passes, one anchored at each
image corner; a pass's final origin is clamped flush to the boundary, which
is what produces the partially overlapping tiles near edges.
"""

from __future__ import annotations

import csv
import io
import math
import mmap
import re
import warnings
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .config import SplitSection, TilingSection
from .errors import ConfigError, DataError, DegenerateInputError, ShapeError
from .evaluation import EXCLUDED_LABEL
from .files import csv_rows, write_atomic

TILE_SIZE = TilingSection.tile_size
R_THRESHOLD = TilingSection.r_threshold

LABEL_BACKGROUND = 0
LABEL_RUMEX = 1
LABEL_UNCLEAR = EXCLUDED_LABEL


class _BoxFields(NamedTuple):
    image_id: str
    x_min: int
    y_min: int
    x_max: int
    y_max: int
    class_name: str
    plant_id: Optional[str] = None


class BBoxAnnotation(_BoxFields):
    """One annotated box as an immutable tuple; every way of making one,
    ``_replace`` included, rejects a box with no area."""

    __slots__ = ()

    def __new__(cls, image_id, x_min, y_min, x_max, y_max, class_name, plant_id=None):
        if x_min >= x_max or y_min >= y_max:
            raise DataError(f"degenerate box for {image_id}: ({x_min},{y_min},{x_max},{y_max})")
        return tuple.__new__(cls, (image_id, x_min, y_min, x_max, y_max, class_name, plant_id))

    @classmethod
    def _make(cls, iterable):  # the constructor ``_replace`` calls
        return cls(*iterable)

    def clamped(self, width: int, height: int) -> "BBoxAnnotation":
        if 0 <= self.x_min and 0 <= self.y_min and self.x_max <= width and self.y_max <= height:
            return self  # inside the image already
        return self._replace(
            x_min=max(0, self.x_min),
            y_min=max(0, self.y_min),
            x_max=min(width, self.x_max),
            y_max=min(height, self.y_max),
        )


class TileRecord(NamedTuple):
    """One tile as an immutable, hashable tuple. Its first three fields,
    ``rec[:3] == (image_id, x, y)``, name the tile and order a manifest."""

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


class ManifestEntry(NamedTuple):
    record: TileRecord
    split: str
    domain_id: str


# Rows are built by the C tuple constructor, which skips the generated
# ``__new__`` with its defaults and its arity check, so a caller passes every
# field; ``_replace`` goes through it too. A NamedTuple body may not define it.
TileRecord._make = ManifestEntry._make = classmethod(tuple.__new__)

LABELS = (LABEL_BACKGROUND, LABEL_RUMEX, LABEL_UNCLEAR)
PASS_CORNERS = ("TL", "TR", "BL", "BR")
SPLIT_TAGS = ("none", "train", "val")  # "none" until ``build_splits`` assigns one


@dataclass
class SplitManifest:
    entries: list[ManifestEntry]

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            key = e.record[:3]
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
    The passes together give every pair of a forward or backward x and a
    forward or backward y, so that pass is T unless only a backward pass
    has the y, and L unless only a backward pass has the x.
    """
    TilingSection(side).validate()
    if width < side or height < side:
        raise DegenerateInputError(
            f"image {width}x{height} is smaller than the {side}-pixel tile"
        )
    left, top = set(_forward_origins(width, side)), set(_forward_origins(height, side))
    xs = sorted(left.union(_backward_origins(width, side)))
    ys = sorted(top.union(_backward_origins(height, side)))
    rows = [(y, "T" if y in top else "B") for y in ys]
    return [(x, y, tb + ("L" if x in left else "R")) for x in xs for y, tb in rows]


# ----------------------------------------------------------------------
# overlap and labels


def overlap_ratio(
    box: BBoxAnnotation,
    tile_x: int | np.ndarray,
    tile_y: int | np.ndarray,
    side: int = TILE_SIZE,
) -> float | np.ndarray:
    """Fraction of the tile's pixels covered by the box (exact integer area).

    ``tile_x`` and ``tile_y`` may be integer arrays of tile origins, which
    gives one ratio per tile, each bitwise the ratio of a scalar call. The
    box may also be a ``_BoxColumns`` of B boxes, which gives B x tiles
    ratios in one call.
    """
    ox = np.minimum(box.x_max, tile_x + side) - np.maximum(box.x_min, tile_x)
    oy = np.minimum(box.y_max, tile_y + side) - np.maximum(box.y_min, tile_y)
    return np.maximum(ox, 0) * np.maximum(oy, 0) / (side * side)


def _label_for(r: float, r_th: float) -> int:
    """r == 0 -> background, r > r_th -> rumex, 0 < r <= r_th -> unclear."""
    if r == 0.0:
        return LABEL_BACKGROUND
    if r > r_th:
        return LABEL_RUMEX
    return LABEL_UNCLEAR


def assign_label(
    tile_x: int,
    tile_y: int,
    side: int,
    boxes: Sequence[BBoxAnnotation],
    r_th: float = R_THRESHOLD,
) -> tuple[int, float]:
    """(label, r) for one tile against the positive-class boxes.

    r is the largest overlap ratio of any box. Labels: r == 0 ->
    background, r > r_th -> rumex, 0 < r <= r_th -> unclear (excluded from
    training downstream).
    """
    TilingSection(side, r_th).validate()
    r = max((float(overlap_ratio(b, tile_x, tile_y, side)) for b in boxes), default=0.0)
    return _label_for(r, r_th), r


# B boxes as B x 1 int64 coordinate columns, which broadcast against a row of
# tile origins when ``overlap_ratio`` takes them as its box
_BoxColumns = namedtuple("_BoxColumns", "x_min y_min x_max y_max")


def _overlap_matrix(boxes: Sequence[BBoxAnnotation], xs: np.ndarray, ys: np.ndarray,
                    side: int) -> np.ndarray:
    """boxes x tiles overlap ratios from one ``overlap_ratio`` call; the int64
    arithmetic of a single-box call, so each ratio is bitwise the same."""
    coords = np.array([(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes],
                      dtype=np.int64).reshape(-1, 4)
    return overlap_ratio(_BoxColumns(*coords.T[:, :, None]), xs, ys, side)


def _plant_ids(boxes: Sequence[BBoxAnnotation], ratios: np.ndarray) -> list[tuple[str, ...]]:
    """Per tile (column of ``ratios``), the sorted ids of the plants whose
    boxes overlap it."""
    ids = [b.plant_id for b in boxes]
    touching: dict[int, set[str]] = {}
    for i, j in zip(*(index.tolist() for index in np.nonzero(ratios))):
        if ids[i]:
            touching.setdefault(j, set()).add(ids[i])
    plants: list[tuple[str, ...]] = [()] * ratios.shape[1]
    for j, ids_j in touching.items():
        plants[j] = tuple(sorted(ids_j))
    return plants


def tile_image(
    image_id: str,
    width: int,
    height: int,
    boxes: Sequence[BBoxAnnotation],
    side: int = TILE_SIZE,
    r_th: float = R_THRESHOLD,
) -> list[TileRecord]:
    """Tile one image and label each tile against its boxes."""
    TilingSection(side, r_th).validate()
    clamped = [b.clamped(width, height) for b in boxes if b.image_id == image_id]
    tiles = enumerate_tiles(width, height, side)
    ratios = _overlap_matrix(clamped, np.array([t[0] for t in tiles]),
                             np.array([t[1] for t in tiles]), side)
    rs = ratios.max(axis=0, initial=0.0).tolist()
    make = TileRecord._make
    return [
        make((image_id, x, y, side, _label_for(r, r_th), r, corner, plants))
        for (x, y, corner), r, plants in zip(tiles, rs, _plant_ids(clamped, ratios))
    ]


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


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier


class _SplitRng:
    """The stream of ``numpy.random.default_rng(seed)`` for ``permutation(n)``
    only, in integer arithmetic: call after call, the same permutations."""

    def __init__(self, seed: int):
        # SeedSequence(seed): the seed's 32-bit words hashed into a 4-word pool
        entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        hash_const = 0x43B0D7E5

        def hashmix(value: int) -> int:
            nonlocal hash_const
            value ^= hash_const
            hash_const = hash_const * 0x931E8875 & _M32
            value = value * hash_const & _M32
            return value ^ value >> 16

        def mix(x: int, y: int) -> int:
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return r ^ r >> 16

        pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        # generate_state(4, uint64): 8 words, paired little-endian
        hash_const = 0x8B51F9DD
        words = []
        for i in range(8):
            value = pool[i % 4] ^ hash_const
            hash_const = hash_const * 0x58F38DED & _M32
            value = value * hash_const & _M32
            words.append(value ^ value >> 16)
        s0, s1, s2, s3 = (words[k] | words[k + 1] << 32 for k in range(0, 8, 2))
        # PCG64 seeding: step, add the state, step
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _M128
        self._state = 0
        self._next64()
        self._state = (self._state + (s0 << 64 | s1)) & _M128
        self._next64()
        self._half: Optional[int] = None  # the unused high half of the last 64-bit draw

    def _next64(self) -> int:
        """Step the LCG and return the XSL-RR 128->64 output of the new state."""
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        value = self._next64()
        self._half = value >> 32
        return value & _M32

    def permutation(self, n: int) -> list[int]:
        """``Generator.shuffle`` of ``range(n)``: for i from n-1 down to 1,
        swap i with a j <= i drawn by masked rejection (``random_interval``)."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            draw = self._next32 if i <= _M32 else self._next64
            while (j := draw() & mask) > i:
                pass
            out[i], out[j] = out[j], out[i]
        return out


def build_splits(
    records: Sequence[TileRecord],
    subset_of: Mapping[str, str],
    val_fraction: float,
    mode: str,
    seed: int,
) -> SplitManifest:
    """Assign train/val splits without splitting any plant across them.

    Tiles touching plants are grouped by connected plant components (a tile
    overlapping two plants ties them together); background tiles are grouped
    by image. The split is drawn per subset so both splits contain samples
    from every location/date subset. ``mode`` controls the emitted
    domain_id: "pooled" collapses all subsets into one source domain,
    "per_subset" keeps one domain per subset.

    Each subset's sorted group keys are taken in the order of one
    ``permutation`` call on a PCG64 stream (O'Neill 2014, HMC-CS-2014-0905)
    seeded through numpy's ``SeedSequence``, with numpy's ``random_interval``
    for each swap: bit for bit ``numpy.random.default_rng(seed).permutation``,
    computed here so that the split never loads ``numpy.random`` and does not
    change with the installed numpy.
    """
    SplitSection(mode, val_fraction, seed).validate()
    plant_subsets: dict[str, set[str]] = {}
    uf = _UnionFind()
    for rec in records:
        image_id, plant_ids = rec.image_id, rec.plant_ids
        if image_id not in subset_of:
            raise DataError(f"no subset assignment for image {image_id!r}")
        if not plant_ids:
            if rec.label == LABEL_RUMEX:
                raise DataError(
                    f"rumex tile {image_id}@{rec.origin} has no plant_id; "
                    "plant-level leakage control needs one"
                )
            continue
        subset = subset_of[image_id]
        for pid in plant_ids:
            plant_subsets.setdefault(pid, set()).add(subset)
            uf.union(plant_ids[0], pid)

    # warn on plants observed in more than one subset
    for pid, subsets in sorted(plant_subsets.items()):
        if len(subsets) > 1:
            warnings.warn(
                f"plant {pid!r} spans subsets {sorted(subsets)}; "
                "it will be kept in a single split",
                stacklevel=2,
            )

    tile_groups = [  # each tile's leakage group
        "plant:" + uf.find(rec.plant_ids[0]) if rec.plant_ids else "image:" + rec.image_id
        for rec in records
    ]
    groups: dict[str, list[str]] = {}  # group -> the image id of each of its tiles
    for key, rec in zip(tile_groups, records):
        groups.setdefault(key, []).append(rec.image_id)

    # each group is attributed to the subset of its first record in (image_id, x, y)
    # order, which is the one with the least image id
    by_subset: dict[str, list[str]] = {}
    for key, image_ids in groups.items():
        by_subset.setdefault(subset_of[min(image_ids)], []).append(key)

    rng = _SplitRng(seed)
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

    make = ManifestEntry._make
    entries = [
        make((rec, split_of_group[key], "pooled" if mode == "pooled" else subset_of[rec.image_id]))
        for rec, key in zip(records, tile_groups)
    ]
    manifest = SplitManifest(entries)  # a repeated tile fails here, before the sort compares it
    entries.sort()  # natural tuple order: (image_id, x, y) order, since that key is unique
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

# pixel coordinates and tile sides stay below this, so the int64 overlap
# arithmetic on arrays of them is exact
_COORD_LIMIT = 2**31

# plant_ids holds a tile's sorted plant ids joined by PLANT_ID_SEP, empty for none
MANIFEST_HEADER = ["image_id", "x", "y", "side", "label", "r", "split", "domain_id", "pass_corner",
                   "plant_ids"]
ANNOTATION_HEADER = ["image_id", "x_min", "y_min", "x_max", "y_max", "class", "plant_id"]
PLANT_ID_SEP = ";"


def write_manifest(manifest: SplitManifest, path) -> None:
    """Write the manifest CSV atomically, rows sorted by image and origin:
    the entries' natural tuple order, as a manifest's (image_id, x, y) are unique."""
    entries = sorted(manifest.entries)
    join = PLANT_ID_SEP.join
    rows = [MANIFEST_HEADER] + [
        (image_id, x, y, side, label, f"{overlap:.6f}", split, domain_id, corner, join(plants))
        for (image_id, x, y, side, label, overlap, corner, plants), split, domain_id in entries
    ]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    text = buf.getvalue()
    if "\r" in text:
        # minimal quoting leaves a bare "\r" in a field, which reads back as a
        # line end, because only the line terminator's characters are quoted
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(rows)
        text = buf.getvalue()
    write_atomic(path, text)


def read_manifest(path) -> SplitManifest:
    make_record, make_entry = TileRecord._make, ManifestEntry._make
    entries = []
    rows = csv_rows(path)
    _, header = next(rows, (1, None))
    if header == MANIFEST_HEADER[:-1]:
        raise DataError(f"{path}:1: manifest predates the plant_ids column; re-run tile")
    if header != MANIFEST_HEADER:
        raise DataError(f"{path}:1: unexpected manifest header {header!r}")
    for line_no, row in rows:
        if len(row) != len(MANIFEST_HEADER):
            raise DataError(f"{path}:{line_no}: expected {len(MANIFEST_HEADER)} fields")
        image_id, x, y, side, label, r, split, domain_id, corner, plants = row
        plant_ids = tuple(plants.split(PLANT_ID_SEP)) if plants else ()
        if "" in plant_ids:
            raise DataError(f"{path}:{line_no}: empty plant id in {plants!r}")
        try:
            x, y, side, label, r = int(x), int(y), int(side), int(label), float(r)
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from exc
        if not (0 <= x < _COORD_LIMIT and 0 <= y < _COORD_LIMIT and 0 < side < _COORD_LIMIT):
            raise DataError(f"{path}:{line_no}: tile ({x},{y}) with side {side} is out of range")
        if label not in LABELS:
            raise DataError(f"{path}:{line_no}: label must be one of {LABELS}, got {label}")
        if not 0.0 <= r <= 1.0:
            raise DataError(f"{path}:{line_no}: r must lie in [0, 1], got {r}")
        if corner not in PASS_CORNERS:
            raise DataError(f"{path}:{line_no}: pass_corner must be one of {PASS_CORNERS}, "
                            f"got {corner!r}")
        if split not in SPLIT_TAGS:
            raise DataError(f"{path}:{line_no}: split must be one of {SPLIT_TAGS}, got {split!r}")
        record = make_record((image_id, x, y, side, label, r, corner, plant_ids))
        entries.append(make_entry((record, split, domain_id)))
    try:
        return SplitManifest(entries)
    except DataError as exc:  # a repeated tile: find the line that repeats it
        raise DataError(f"{path}:{_repeat_line(path, entries)}: {exc}") from None


def _repeat_line(path, entries: list[ManifestEntry]) -> int:
    """The line of the first entry whose tile an earlier entry already has;
    entry ``i`` is the ``i``-th data row of the manifest at ``path``."""
    seen = set()
    for i, e in enumerate(entries):
        if e.record[:3] in seen:
            break
        seen.add(e.record[:3])
    return [line_no for line_no, _ in csv_rows(path)][i + 1]  # row 0 is the header


def read_annotations(path) -> list[BBoxAnnotation]:
    boxes = []
    rows = csv_rows(path)
    _, header = next(rows, (1, None))
    if header is None:
        raise DataError(f"{path}: missing header row")
    if [h.strip() for h in header] != ANNOTATION_HEADER:
        raise DataError(
            f"{path}: header must be {','.join(ANNOTATION_HEADER)}, got {','.join(header)}"
        )
    for line_no, row in rows:
        if not row:
            continue
        if len(row) != len(ANNOTATION_HEADER):
            raise DataError(f"{path}:{line_no}: expected {len(ANNOTATION_HEADER)} fields")
        image_id, x0, y0, x1, y1, cls, plant = [f.strip() for f in row]
        if PLANT_ID_SEP in plant:  # the manifest joins a tile's plant ids with it
            raise DataError(f"{path}:{line_no}: plant id {plant!r} contains {PLANT_ID_SEP!r}")
        try:
            box = BBoxAnnotation(image_id, int(x0), int(y0), int(x1), int(y1), cls, plant or None)
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from exc
        if max(abs(box.x_min), abs(box.y_min), abs(box.x_max), abs(box.y_max)) >= _COORD_LIMIT:
            raise DataError(f"{path}:{line_no}: box coordinate out of range")
        boxes.append(box)
    return boxes


# ----------------------------------------------------------------------
# raster I/O (binary PGM/PPM)

_PNM_MAGIC = {b"P5": 1, b"P6": 3}
# header tokens may be separated by whitespace and '#' comments; one byte
# per repetition, since a nested \s+ backtracks exponentially on a long run
_PNM_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n)*(\d+)")


def read_pnm(path) -> np.ndarray:
    """Binary PGM (P5) or PPM (P6); returns uint8/uint16 HxW or HxWx3.

    The header is parsed from a copy-on-write map of the file. An 8-bit
    payload is not read: the returned array is that map, whose pages are
    read from disk only when touched, and a write to the array copies the
    page it lands on and never reaches the file. So rewrite a mapped file
    only by replacing it (as ``write_pnm`` does), never in place, and note
    that a live array holds one duplicated file descriptor. A 16-bit
    payload is returned as a decoded copy in native byte order.
    """
    with open(path, "rb") as fh:
        magic = fh.read(2)  # an empty file cannot be mapped
        if magic not in _PNM_MAGIC:
            raise DataError(f"{path}: not a binary PGM/PPM file (magic {magic!r})")
        view = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
    try:
        tokens: list[int] = []
        pos = 2
        while len(tokens) < 3:
            m = _PNM_TOKEN.match(view, pos)
            if m is None:
                raise DataError(f"{path}: truncated PNM header")
            digits = m.group(1).lstrip(b"0") or b"0"
            if len(digits) > 18:  # numpy's shape arithmetic would overflow
                raise DataError(f"{path}: PNM header number with more than 18 digits")
            tokens.append(int(digits))
            pos = m.end()
        width, height, maxval = tokens
        if maxval <= 0 or maxval > 65535:
            raise DataError(f"{path}: unsupported maxval {maxval}")
        if not view[pos:pos + 1].isspace():  # the bytes \s matches in _PNM_TOKEN
            raise DataError(f"{path}: expected one whitespace byte after maxval")
        pos += 1
        channels = _PNM_MAGIC[magic]
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        count = width * height * channels
        if len(view) < pos + count * dtype.itemsize:
            raise DataError(f"{path}: payload shorter than {width}x{height}x{channels}")
    except DataError:
        view.close()
        raise
    shape = (height, width) if channels == 1 else (height, width, 3)
    out = np.frombuffer(view, dtype, count, offset=pos).reshape(shape)
    return out.astype(np.uint16) if maxval > 255 else out


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
    # replaced, not rewritten in place: read_pnm arrays map the old file
    write_atomic(path, header + payload)


def image_files(images_dir) -> list[tuple[str, Path]]:
    """(image_id, path) pairs for every PGM/PPM under images_dir, sorted.

    The image id is the path relative to images_dir in posix form.
    """
    root = Path(images_dir)
    found = [p for p in root.rglob("*") if p.suffix.lower() in (".pgm", ".ppm")]
    return sorted((p.relative_to(root).as_posix(), p) for p in found)


def label_counts(records: Iterable[TileRecord]) -> dict[int, int]:
    counts = dict.fromkeys(LABELS, 0)
    for rec in records:
        counts[rec.label] += 1
    return counts
