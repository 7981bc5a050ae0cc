"""rumexda benchmark: real CLI pipelines, end-to-end metrics, traced layers.

Usage (from the repository root):

    python3 bench/run.py --workload m3sda_pipeline --seed 1 --seconds 40 --trace 0

Workloads (closed loop, one client running the stages one after another):

* ``m3sda_pipeline``: synth -> train m3sda_beta -> eval -> report.
* ``single_source_pipeline``: synth, then train/eval/report for vanilla,
  m2s2da and vanilla with LoRA rank 8.
* ``tile_split``: tile --jobs <nproc> -> split --mode per_subset on four
  5472x3648 PPMs generated from the seed (about 240 MB, removed at exit).

A run repeats passes of its pipeline until ``--seconds`` are used up (at
least three passes, four when tracing). Each pass is a fresh Python
process (``worker.py``) with ``OPENBLAS_NUM_THREADS=1``. Every pass of a
run uses the same seed, so each pass's outputs must be byte-identical to
the first pass's.

Each worker also times a fixed-work calibration probe just before and
just after its stages. The gated times are divided by it (``wall_rel``,
``cpu_rel``) or rescaled to a fixed probe time (``setup_s``), which
cancels most of a shared machine's changing speed; the raw seconds are
printed beside them.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over the passes); with ``--trace 1`` untraced and traced passes
alternate and it carries the per-layer metrics of the traced passes plus
the tracing overhead. The metric names and units come from BENCHMARK.json.
Lines before it give every metric with quartiles and the run metadata. A
stage fails on a non-zero exit code or a failed output check; ``failed``
counts such stages.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 150  # every run must end well inside 180 s
# setup_s is reported at the machine speed at which the probe takes this long
PROBE_REF_S = 0.15
SYNTH = ["--sources", "3", "--dim", "16", "--samples", "2000"]
# criterion-6 settings
TRAIN = ["--epochs", "20", "--lambda", "0.5"]
SINGLE_SOURCE_LEGS = {
    "vanilla": ["--strategy", "vanilla"],
    "m2s2da": ["--strategy", "m2s2da"],
    "lora": ["--strategy", "vanilla", "--adaptation", "lora", "--lora-rank", "8"],
}

COMMON_SPANS = ("cli.synth", "cli.train", "cli.eval", "cli.report", "synthdata.generate",
                "synthdata.write_corpus", "synthdata.read_corpus_domains",
                "experiment.run_strategy", "adaptation.train", "adaptation.predict_labels",
                "tensor.backward", "optim.step", "optim.zero_grad", "nn.extract",
                "nn.head_forward", "nn.snapshot", "nn.save_checkpoint", "nn.load_checkpoint",
                "evaluation")
EXPECTED_SPANS = {
    "m3sda_pipeline": COMMON_SPANS + ("adaptation.step_classify",
                                      "adaptation.step_max_discrepancy",
                                      "adaptation.step_min_discrepancy"),
    "single_source_pipeline": COMMON_SPANS,
    "tile_split": ("cli.tile", "cli.split", "tiling.read_pnm", "tiling.tile_image",
                   "tiling.overlap_ratio", "tiling.read_annotations", "tiling.build_splits",
                   "tiling.write_manifest", "tiling.read_manifest"),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Stage:
    name: str
    argv: list
    compare: tuple = ()  # files, relative to the pass directory, that must match pass 0
    check: Optional[Callable] = None  # check(pass_dir, run) -> error message or None


@dataclass
class Run:
    workload: str
    seed: int
    work: Path
    inputs: dict = field(default_factory=dict)
    iterations: int = 0  # optimizer iterations of one pass's train stages
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    passes: list = field(default_factory=list)  # (traced, metrics) per pass
    target_f1: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


# ----------------------------------------------------------------------
# workloads


def _check_f1(pass_dir: Path, eval_dir: str, run: Run):
    f1 = json.loads((pass_dir / eval_dir / "summary.json").read_text())["median_f1"]
    if not (isinstance(f1, float) and math.isfinite(f1) and 0.0 <= f1 <= 1.0):
        return f"{eval_dir}: median_f1 {f1!r} is not a finite value in [0, 1]"
    run.target_f1.append(f1)
    return None


def _train_eval_report(p: Path, leg: str, strategy_args: list, seed: str) -> list[Stage]:
    corpus, train = str(p / "corpus"), p / f"train_{leg}"
    return [
        Stage(f"train:{leg}", ["train", "--corpus", corpus, "--out", str(train), *strategy_args,
                               *TRAIN, "--seed", seed],
              compare=(f"train_{leg}/checkpoint.json", f"train_{leg}/history.jsonl")),
        Stage(f"eval:{leg}", ["eval", "--checkpoint", str(train / "checkpoint.json"),
                              "--corpus", corpus, "--out", str(p / f"eval_{leg}")],
              compare=(f"eval_{leg}/flights.csv",),
              check=lambda d, run, leg=leg: _check_f1(d, f"eval_{leg}", run)),
        Stage(f"report:{leg}", ["report", "--history", str(train / "history.jsonl"),
                                "--out", str(p / f"report_{leg}")]),
    ]


def _stages(run: Run, p: Path) -> list[Stage]:
    seed = str(run.seed)
    if run.workload == "tile_split":
        inputs = run.work / "inputs"
        boxes = str(inputs / "boxes.csv")
        return [
            Stage("tile", ["tile", "--annotations", boxes, "--images-dir", str(inputs / "images"),
                           "--out", str(p / "tiles.csv"), "--domain-map",
                           str(inputs / "domains.csv"), "--jobs", str(_nproc())],
                  compare=("tiles.csv",), check=_check_tiles),
            Stage("split", ["split", "--manifest", str(p / "tiles.csv"), "--annotations", boxes,
                            "--out", str(p / "split.csv"), "--mode", "per_subset",
                            "--seed", seed],
                  compare=("split.csv",), check=_check_split),
        ]
    stages = [Stage("synth", ["synth", "--out", str(p / "corpus"), *SYNTH, "--seed", seed])]
    if run.workload == "m3sda_pipeline":
        return stages + _train_eval_report(p, "m3sda_beta", ["--strategy", "m3sda_beta"], seed)
    for leg, args in SINGLE_SOURCE_LEGS.items():
        stages += _train_eval_report(p, leg, args, seed)
    return stages


def _manifest_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_tiles(pass_dir: Path, run: Run):
    n = len(_manifest_rows(pass_dir / "tiles.csv"))
    if n != run.inputs["expected_tiles"]:
        return f"tile: {n} tiles, expected {run.inputs['expected_tiles']}"
    return None


def _check_split(pass_dir: Path, run: Run):
    rows = _manifest_rows(pass_dir / "split.csv")
    if len(rows) != run.inputs["expected_tiles"]:
        return f"split: {len(rows)} tiles, expected {run.inputs['expected_tiles']}"
    # recompute which plants each tile touches from the annotations themselves
    boxes: dict[str, list] = {}
    for b in _manifest_rows(run.work / "inputs" / "boxes.csv"):
        if b["class"] == "rumex" and b["plant_id"]:
            boxes.setdefault(b["image_id"], []).append(
                (int(b["x_min"]), int(b["y_min"]), int(b["x_max"]), int(b["y_max"]), b["plant_id"])
            )
    splits_of: dict[str, set] = {}
    for r in rows:
        x, y, side = int(r["x"]), int(r["y"]), int(r["side"])
        for x0, y0, x1, y1, plant in boxes.get(r["image_id"], ()):
            if min(x1, x + side) > max(x0, x) and min(y1, y + side) > max(y0, y):
                splits_of.setdefault(plant, set()).add(r["split"])
    leaked = sorted(p for p, s in splits_of.items() if {"train", "val"} <= s)
    if leaked:
        return f"split: plants in both train and val: {leaked[:5]}"
    return None


def _tile_inputs(run: Run, env: dict) -> None:
    out = run.work / "inputs"
    _subprocess([sys.executable, str(BENCH / "inputs.py"), "--seed", str(run.seed),
                 "--out", str(out)], env, "input generation")
    meta = json.loads((out / "inputs.json").read_text())
    sys.path.insert(0, str(SRC))
    from rumexda.tiling import enumerate_tiles

    meta["expected_tiles"] = sum(len(enumerate_tiles(im["width"], im["height"]))
                                 for im in meta["images"])
    meta["mpix"] = sum(im["width"] * im["height"] for im in meta["images"]) / 1e6
    run.inputs = meta


# ----------------------------------------------------------------------
# passes


def _subprocess(argv: list, env: dict, what: str, timeout: float = 120) -> None:
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{what} failed with exit code {proc.returncode}:\n{proc.stderr[-2000:]}")


def _run_pass(run: Run, k: int, traced: bool, env: dict, deadline: float) -> float:
    p = run.work / f"pass{k}"
    p.mkdir()
    stages = _stages(run, p)
    spec, result_path = p / "spec.json", p / "result.json"
    spec.write_text(json.dumps({"trace": traced, "stages": [[s.name, s.argv] for s in stages]}))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec),
                               str(result_path)], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
        stderr = proc.stderr
    except subprocess.TimeoutExpired:
        stderr = "worker timed out"
    elapsed = time.perf_counter() - start
    result = json.loads(result_path.read_text()) if result_path.exists() else None
    done = {s["name"]: s for s in result["stages"]} if result else {}

    run.attempted += len(stages)
    ok = True
    for stage in stages:
        code = done.get(stage.name, {}).get("code")
        error = None if code == 0 else f"pass {k} {stage.name}: exit code {code}"
        if error is None and k > 0:
            for rel in stage.compare:
                ref = run.work / "pass0" / rel
                if not ref.exists() or ref.read_bytes() != (p / rel).read_bytes():
                    error = f"pass {k} {stage.name}: {rel} differs from pass 0"
                    break
        if error is None and stage.check is not None:
            error = stage.check(p, run)
        if error is not None:
            ok = False
            run.fail(error)
    if not ok and stderr:
        print(stderr[-2000:], file=sys.stderr)

    if result and ok:
        run.passes.append((traced, _pass_metrics(run, p, result, traced)))
    if k > 0:
        shutil.rmtree(p)
    return elapsed


def _iterations(train_dir: Path, corpus: Path, leg: str) -> int:
    """epochs * ceil(rows / batch) from the resolved config and the corpus;
    m3sda batches each source separately, the others pool them."""
    cfg = {}
    for line in (train_dir / "config.txt").read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            cfg[key.strip()] = value.strip()
    rows: dict[str, int] = {}
    with open(corpus / "corpus.csv", newline="") as fh:
        for r in csv.DictReader(fh):
            if r["role"] == "source" and r["split"] == "train":
                rows[r["domain_id"]] = rows.get(r["domain_id"], 0) + 1
    n = max(rows.values()) if leg == "m3sda_beta" else sum(rows.values())
    return int(cfg["training.epochs"]) * math.ceil(n / int(cfg["training.batch_size"]))


def _pass_metrics(run: Run, p: Path, result: dict, traced: bool) -> dict:
    stages = result["stages"]
    m = {
        "setup_raw_s": result["setup_s"],
        "setup_s": result["setup_s"] * PROBE_REF_S / result["probe_s"],
        "wall_s": sum(s["wall_s"] for s in stages),
        "cpu_s": sum(s["cpu_s"] for s in stages),
        "peak_rss_mb": result["peak_rss_mb"],
        "probe_s": result["probe_s"],
    }
    m["wall_rel"] = m["wall_s"] / m["probe_s"]
    m["cpu_rel"] = m["cpu_s"] / m["probe_s"]
    m.update({f"stage.{s['name']}.wall_s": s["wall_s"] for s in stages})
    by_name = {s["name"]: s for s in stages}
    if run.workload == "tile_split":
        m["tile_mpix_per_s"] = run.inputs["mpix"] / by_name["tile"]["wall_s"]
    else:
        legs = ["m3sda_beta"] if run.workload == "m3sda_pipeline" else list(SINGLE_SOURCE_LEGS)
        if not run.iterations:
            run.iterations = sum(_iterations(p / f"train_{leg}", p / "corpus", leg) for leg in legs)
        train_s = sum(by_name[f"train:{leg}"]["wall_s"] for leg in legs)
        m["train_iters_per_s"] = run.iterations / train_s
    if traced:
        m.update(_layer_metrics(run, result))
    return m


# ----------------------------------------------------------------------
# trace analysis

COUNTER_SUFFIXES = (".calls", ".bytes", ".tiles")


def _self_times(spans: list) -> dict[str, list]:
    """Per span name: [self seconds, calls]; self time excludes the union
    of the intervals covered by child spans."""
    children: dict[int, list] = {}
    for sid, name, start, end, parent in spans:
        children.setdefault(parent, []).append((start, end))
    out: dict[str, list] = {}
    for sid, name, start, end, parent in spans:
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        entry = out.setdefault(name, [0.0, 0])
        entry[0] += (end - start) - covered
        entry[1] += 1
    return out


def _layer_metrics(run: Run, result: dict) -> dict:
    m = {}
    for name, (self_s, calls) in _self_times(result["spans"]).items():
        m[f"{name}.s"] = self_s
        m[f"{name}.calls"] = calls
    counts = result["counts"]
    m.update({k: v for k, v in counts.items() if not k.startswith("tensor.")})
    m.update({k: v for k, v in counts.items() if k.startswith("tensor.nodes.")})
    backward_calls = m.get("tensor.backward.calls", 0)
    m["tensor.nodes_per_backward"] = (counts["tensor.nodes"] / backward_calls
                                      if backward_calls else 0)
    filled = counts["tensor.leaf_grad_elems"]
    m["tensor.grad_useful_frac"] = counts["tensor.useful_grad_elems"] / filled if filled else 0
    for name in EXPECTED_SPANS[run.workload]:
        if not m.get(f"{name}.calls"):
            run.fail(f"traced span {name} never fired on {run.workload}")
    return m


def _is_counter(name: str) -> bool:
    return name.endswith(COUNTER_SUFFIXES) or name.startswith("tensor.nodes") \
        or name == "tensor.grad_useful_frac"


# ----------------------------------------------------------------------
# metadata


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _metadata(env: dict) -> dict:
    import numpy as np

    sha = ""
    if (ROOT / ".git").exists() and shutil.which("git"):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": _nproc(),
        "cpu": cpu,
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
    }


# ----------------------------------------------------------------------
# reporting


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _summarise(run: Run, spec: dict, trace: bool, meta: dict, elapsed: float) -> dict:
    plain = [m for traced, m in run.passes if not traced]
    traced = [m for t, m in run.passes if t]
    rows = []
    stage_names = [k for k in (plain[0] if plain else {}) if k.startswith("stage.")]
    for name in ("setup_s", "wall_rel", "cpu_rel", "peak_rss_mb", "setup_raw_s", "wall_s",
                 "cpu_s", "probe_s", "train_iters_per_s", "tile_mpix_per_s", *stage_names):
        values = [m[name] for m in plain if name in m]
        if values:
            rows.append((name, *_quartiles(values), len(values)))
    if run.target_f1:
        rows.append(("target_f1", *_quartiles(run.target_f1), len(run.target_f1)))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(setup_raw_s="s", wall_s="s", cpu_s="s", probe_s="s", train_iters_per_s="1/s",
                 tile_mpix_per_s="Mpix/s", target_f1="1", fail_frac="1",
                 **{name: "s" for name in stage_names})

    print(f"# rumexda bench: workload={run.workload} seed={run.seed} trace={int(trace)} "
          f"passes={len(plain)} untraced + {len(traced)} traced in {elapsed:.1f} s")
    print("# meta " + " ".join(f"{k}={v!r}" for k, v in meta.items()))
    for name in ("wall_s", "probe_s", "wall_rel"):
        print(f"# pass {name} " + " ".join(f"{m[name]:.4f}" for m in plain))
    if run.inputs.get("disk_bytes"):
        print(f"# inputs: {len(run.inputs['images'])} PPMs + boxes.csv, "
              f"{run.inputs['disk_bytes'] / 1e6:.1f} MB on disk (removed at exit), "
              f"{run.inputs['boxes']} boxes, {run.inputs['expected_tiles']} tiles expected")
    print(f"# {'metric':<36} {'q1':>12} {'median':>12} {'q3':>12} {'n':>4}  unit")
    for name, q1, med, q3, n in rows:
        print(f"# {name:<36} {q1:12.6g} {med:12.6g} {q3:12.6g} {n:4d}  {units[name]}")
    fail_frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"# {'fail_frac':<36} {fail_frac:>12.6g}  ({run.failed} of {run.attempted} stages)")
    for error in run.errors:
        print(f"# FAILED: {error}")

    if not trace:
        wanted = spec["end_to_end"]
        source = {name: med for name, _, med, _, _ in rows}
    else:
        source = {}
        for name in {k for m in traced for k in m}:
            values = [m.get(name, 0) for m in traced]
            if _is_counter(name):
                if len(set(values)) != 1:
                    run.fail(f"counter {name} differs between traced passes: {values}")
                source[name] = values[0]
            else:
                source[name] = statistics.median(values)
        # each traced pass against the untraced pass just before it, so drift cancels
        pairs = zip(run.passes, run.passes[1:])
        overheads = [b["wall_s"] - a["wall_s"] for (ta, a), (tb, b) in pairs if tb and not ta]
        if overheads:
            source["trace.overhead_s"] = statistics.median(overheads)
        wanted = spec["per_layer"]
        print("# per-layer, median over traced passes (counters must repeat exactly)")
        for m in wanted:
            print(f"# {m['name']:<36} {source.get(m['name'], 0):>14.6g}  {m['unit']}")
    return {m["name"]: {"value": source.get(m["name"], 0), "unit": m["unit"]} for m in wanted}


# ----------------------------------------------------------------------
# main


def _bench(args, spec: dict, work: Path) -> dict:
    # bytecode is cached as for an installed package, whatever the caller's environment says
    drop = ("RUMEXDA_OUT_ROOT", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    run = Run(args.workload, args.seed, work)
    deadline = time.monotonic() + RUN_LIMIT_S
    # compile the package's bytecode once, as installing it would have
    _subprocess([sys.executable, "-c", "import rumexda.cli"], env, "importing rumexda.cli")
    meta = _metadata(env)
    if args.workload == "tile_split":
        _tile_inputs(run, env)

    min_passes = 4 if args.trace else 3
    durations: list[float] = []
    start = time.monotonic()
    k = 0
    while k < min_passes or (time.monotonic() + statistics.median(durations)
                             < start + args.seconds):
        if run.failed and not run.passes:
            break  # the first pass failed; later ones would only repeat it
        if time.monotonic() + (max(durations) if durations else 0) > deadline:
            run.fail(f"only {k} passes fit in the {RUN_LIMIT_S} s run limit")
            break
        durations.append(_run_pass(run, k, bool(args.trace) and k % 2 == 1, env, deadline))
        k += 1

    metrics = _summarise(run, spec, bool(args.trace), meta, time.monotonic() - start)
    correct = run.failed == 0 and len(run.passes) == k
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(EXPECTED_SPANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "rumexda" / "cli.py").is_file():
        print(f"error: no rumexda sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # on SIGTERM, unwind so that the running worker is killed and the work dir removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        out = _bench(args, spec, work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
