"""Generate the tile_split inputs from a seed.

Writes four 5472x3648 binary RGB PPMs (about 60 MB each, 240 MB in all),
a boxes CSV with about 60 boxes per image and a domain map that puts two
images in each of two subsets. About 80% of the boxes are ``rumex``; each
rumex plant owns 3 to 5 neighbouring boxes that share its plant id, so
tiles tie plants together the way overlapping detections do.

Usage: python3 bench/inputs.py --seed N --out DIR

It runs in its own process so that the rasters it holds never count
towards the measured process's peak RSS. The pixels are random bytes:
``tile`` never looks at them.
"""

from __future__ import annotations

import argparse
import csv
import json
from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 5472, 3648
N_IMAGES = 4


def _boxes(rng: np.random.Generator, image_id: str) -> list[list]:
    rows = []
    n_plants = int(rng.integers(10, 15))
    for p in range(n_plants):
        cx, cy = int(rng.integers(0, WIDTH)), int(rng.integers(0, HEIGHT))
        for _ in range(int(rng.integers(3, 6))):
            x = cx + int(rng.integers(-300, 301))
            y = cy + int(rng.integers(-300, 301))
            w, h = int(rng.integers(80, 401)), int(rng.integers(80, 401))
            rows.append([image_id, x, y, x + w, y + h, "rumex", f"{image_id}:p{p}"])
    for _ in range(round(len(rows) / 4)):
        x, y = int(rng.integers(0, WIDTH - 400)), int(rng.integers(0, HEIGHT - 400))
        w, h = int(rng.integers(80, 401)), int(rng.integers(80, 401))
        rows.append([image_id, x, y, x + w, y + h, "grass", ""])
    # clamp to the raster and drop boxes that end up empty
    return [[r[0], max(r[1], 0), max(r[2], 0), min(r[3], WIDTH), min(r[4], HEIGHT), r[5], r[6]]
            for r in rows if min(r[3], WIDTH) > max(r[1], 0) and min(r[4], HEIGHT) > max(r[2], 0)]


def generate(out: Path, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    images_dir = out / "images"
    images_dir.mkdir(parents=True)
    header = b"P6\n%d %d\n255\n" % (WIDTH, HEIGHT)
    images, boxes, disk_bytes = [], [], 0
    for i in range(N_IMAGES):
        image_id = f"flight{i}.ppm"
        path = images_dir / image_id
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(rng.bytes(WIDTH * HEIGHT * 3))
        disk_bytes += path.stat().st_size
        images.append({"image_id": image_id, "width": WIDTH, "height": HEIGHT,
                       "domain_id": f"site{i // 2}"})
        boxes.extend(_boxes(rng, image_id))
    with open(out / "boxes.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["image_id", "x_min", "y_min", "x_max", "y_max", "class", "plant_id"])
        writer.writerows(boxes)
    with open(out / "domains.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [im["image_id"], im["domain_id"]] for im in images
        )
    disk_bytes += (out / "boxes.csv").stat().st_size + (out / "domains.csv").stat().st_size
    return {"images": images, "boxes": len(boxes), "disk_bytes": disk_bytes}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    meta = generate(args.out, args.seed)
    (args.out / "inputs.json").write_text(json.dumps(meta, indent=1) + "\n")


if __name__ == "__main__":
    main()
