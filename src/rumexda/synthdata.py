"""Synthetic multi-source covariate-shift benchmarks with known ground truth.

Every domain shares one labeling function: samples are drawn and labeled in
a common latent space (a two-component Gaussian mixture split by a fixed
linear rule with a margin band that is rejection-sampled away), and only
then pushed through the domain's affine transform. The input distributions
therefore differ across domains while the labeling function does not, which
is exactly the covariate-shift setting the adaptation strategies target.
``noise_sigma`` perturbs the observed coordinates after labeling, so even
the generating rule cannot reach F1 = 1 on noisy domains; that rule,
composed with each domain's known inverse transform, is the reference
ceiling reported by ``bayes_reference``.
"""

from __future__ import annotations

import json
import zipfile
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .adaptation import DomainDataset
from .config import SynthSection, check_domain_scalars
from .errors import ConfigError, DataError
from .files import open_text, replacing, write_atomic

DEFAULT_MARGIN = 0.4
DEFAULT_SEPARATION = 3.0


@dataclass(frozen=True)
class LabelRule:
    """Fixed linear-plus-margin rule applied in latent coordinates."""

    direction: tuple[float, ...]
    margin: float = DEFAULT_MARGIN
    separation: float = DEFAULT_SEPARATION

    def unit_direction(self) -> np.ndarray:
        d = np.asarray(self.direction, dtype=np.float64)
        norm = np.linalg.norm(d)
        if norm == 0:
            raise ConfigError("label rule direction must be nonzero")
        return d / norm

    def labels(self, latent: np.ndarray) -> np.ndarray:
        return (latent @ self.unit_direction() > 0).astype(np.int64)


@dataclass(frozen=True)
class DomainSpec:
    domain_id: str
    dim: int
    mean_shift: tuple[float, ...]
    scale: tuple[float, ...]
    rotation: tuple[tuple[float, ...], ...]  # orthogonal dim x dim
    n_samples: int
    positive_fraction: float
    noise_sigma: float = 0.0

    def validate(self) -> None:
        check_domain_scalars(self.n_samples, self.positive_fraction, self.noise_sigma)
        shift, scale, rot = self.arrays()
        if shift.shape != (self.dim,) or scale.shape != (self.dim,):
            raise ConfigError(f"domain {self.domain_id}: shift/scale must have dim {self.dim}")
        if not (np.isfinite(shift).all() and np.isfinite(scale).all()):
            raise ConfigError(f"domain {self.domain_id}: shift and scale entries must be finite")
        if np.any(scale <= 0):
            raise ConfigError(f"domain {self.domain_id}: scale entries must be positive")
        if rot.shape != (self.dim, self.dim) or not np.allclose(
            rot.T @ rot, np.eye(self.dim), atol=1e-8
        ):
            raise ConfigError(f"domain {self.domain_id}: rotation is not orthogonal")

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.asarray(self.mean_shift, dtype=np.float64),
            np.asarray(self.scale, dtype=np.float64),
            np.asarray(self.rotation, dtype=np.float64),
        )

    def transform(self, latent: np.ndarray) -> np.ndarray:
        shift, scale, rot = self.arrays()
        return (latent * scale) @ rot.T + shift

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        shift, scale, rot = self.arrays()
        return ((x - shift) @ rot) / scale


@dataclass
class SyntheticCorpus:
    sources: list[DomainDataset]
    target: DomainDataset
    source_specs: list[DomainSpec]
    target_spec: DomainSpec
    rule: LabelRule
    seed: int


def _sample_domain(spec: DomainSpec, rule: LabelRule, rng: np.random.Generator,
                   val_fraction: float, with_split: bool) -> DomainDataset:
    w = rule.unit_direction()
    if w.shape != (spec.dim,):
        raise ConfigError(
            f"rule dimension {w.shape[0]} does not match domain dim {spec.dim}"
        )
    n = spec.n_samples
    component = rng.random(n) < spec.positive_fraction
    centers = np.where(component[:, None], rule.separation * w, -rule.separation * w)
    latent = centers + rng.standard_normal((n, spec.dim))
    # resample anything inside the margin band so the rule is unambiguous
    inside = np.abs(latent @ w) < rule.margin
    while np.any(inside):
        idx = np.flatnonzero(inside)
        latent[idx] = centers[idx] + rng.standard_normal((idx.size, spec.dim))
        inside = np.abs(latent @ w) < rule.margin
    labels = rule.labels(latent)
    observed = latent
    if spec.noise_sigma > 0:
        observed = latent + spec.noise_sigma * rng.standard_normal((n, spec.dim))
    features = spec.transform(observed)
    split = None
    if with_split:
        split = np.where(rng.random(n) < val_fraction, "val", "train")
    return DomainDataset(spec.domain_id, features, labels, split)


def generate(source_specs: Sequence[DomainSpec], target_spec: DomainSpec, seed: int,
             val_fraction: float = SynthSection.val_fraction) -> SyntheticCorpus:
    """Draw every domain with its own child stream of ``seed``, labeled by
    the rule along the first latent axis.

    Latent samples, labels and split tags depend only on the seed and the
    per-domain sample counts, never on the affine transforms, so changing a
    transform re-labels nothing.
    """
    SynthSection(sources=len(source_specs), val_fraction=val_fraction, seed=seed).validate()
    specs = [*source_specs, target_spec]
    ids = [s.domain_id for s in specs]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate domain ids in {ids}")
    dims = {s.dim for s in specs}
    if len(dims) != 1:
        raise ConfigError(f"inconsistent dims across domains: {sorted(dims)}")
    for spec in specs:
        spec.validate()
    rule = LabelRule(tuple([1.0] + [0.0] * (target_spec.dim - 1)))
    children = np.random.SeedSequence(seed).spawn(len(specs))
    datasets = [
        _sample_domain(spec, rule, np.random.default_rng(child), val_fraction,
                       with_split=i < len(source_specs))
        for i, (spec, child) in enumerate(zip(specs, children))
    ]
    return SyntheticCorpus(datasets[:-1], datasets[-1], list(source_specs), target_spec, rule, seed)


def bayes_reference(corpus: SyntheticCorpus) -> dict[str, float]:
    """F1 ceiling per domain: the true rule applied through each domain's
    known inverse transform."""
    from .evaluation import confusion_from_predictions, f1_precision_recall

    out = {}
    for spec, ds in zip([*corpus.source_specs, corpus.target_spec],
                        [*corpus.sources, corpus.target]):
        latent = spec.inverse_transform(ds.features)
        preds = corpus.rule.labels(latent)
        _, _, f1 = f1_precision_recall(confusion_from_predictions(ds.labels, preds))
        out[ds.domain_id] = f1
    return out


# ----------------------------------------------------------------------
# default desk-scale benchmark, its settings the ``synth`` section's defaults


def default_benchmark(
    n_sources: int = SynthSection.sources,
    dim: int = SynthSection.dim,
    n_samples: int = SynthSection.samples,
    positive_fraction: float = SynthSection.positive_fraction,
    target_shift: float = SynthSection.target_shift,
    noise_sigma: float = SynthSection.noise_sigma,
) -> tuple[list[DomainSpec], DomainSpec]:
    """Source domains with mild off-rule shifts plus a target shifted along
    the label direction, where an unadapted source model degrades."""
    SynthSection(n_sources, dim, n_samples, positive_fraction, target_shift, noise_sigma).validate()
    rng = np.random.default_rng(715)  # fixed: the benchmark is part of the artifact
    sources = []
    for i in range(n_sources):
        shift = np.zeros(dim)
        # small displacements orthogonal to the rule direction
        shift[1:] = 0.6 * rng.standard_normal(dim - 1)
        scale = np.exp(0.08 * rng.standard_normal(dim))
        sources.append(
            DomainSpec(
                domain_id=f"source{i}",
                dim=dim,
                mean_shift=tuple(shift),
                scale=tuple(scale),
                rotation=tuple(tuple(row) for row in np.eye(dim)),
                n_samples=n_samples,
                positive_fraction=positive_fraction,
                noise_sigma=noise_sigma,
            )
        )
    target_shift_vec = np.zeros(dim)
    target_shift_vec[0] = target_shift
    target_shift_vec[1:] = 0.6 * rng.standard_normal(dim - 1)
    target = DomainSpec(
        domain_id="target",
        dim=dim,
        mean_shift=tuple(target_shift_vec),
        scale=tuple([1.0] * dim),
        rotation=tuple(tuple(row) for row in np.eye(dim)),
        n_samples=n_samples,
        positive_fraction=positive_fraction,
        noise_sigma=noise_sigma,
    )
    return sources, target


# ----------------------------------------------------------------------
# corpus files

CORPUS_FILE = "corpus.csv"
SIDECAR_FILE = "corpus.npz"
SPECS_FILE = "specs.json"
# the leading columns of corpus.csv; the features f0, f1, ... follow them
CORPUS_COLUMNS = ["domain_id", "role", "split", "label"]
# rows of corpus.csv that write_corpus formats and encodes at a time
_WRITE_BLOCK = 256


def _spec_to_dict(spec: DomainSpec, role: str) -> dict:
    return {
        "domain_id": spec.domain_id,
        "role": role,
        "dim": spec.dim,
        "mean_shift": list(spec.mean_shift),
        "scale": list(spec.scale),
        "rotation": [list(row) for row in spec.rotation],
        "n_samples": spec.n_samples,
        "positive_fraction": spec.positive_fraction,
        "noise_sigma": spec.noise_sigma,
    }


def write_corpus(corpus: SyntheticCorpus, out_dir) -> None:
    """Line-delimited feature records, a binary copy of them and a JSON
    spec sidecar.

    Every float is serialized with repr so the round trip is bit-exact and
    the emitted bytes are deterministic. ``corpus.npz`` is a cache for
    ``read_corpus_domains``: the arrays it parses from ``corpus.csv`` plus
    the SHA-256 of that file's bytes. It is written only when the records
    parse back to this corpus exactly, and removed otherwise.
    """
    import hashlib

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dim = corpus.target_spec.dim
    header = CORPUS_COLUMNS + [f"f{i}" for i in range(dim)]
    # (role, domain id, features, labels, split tags) as the parse returns them
    domains = []
    for role, ds in [("source", ds) for ds in corpus.sources] + [("target", corpus.target)]:
        features = np.ascontiguousarray(ds.features, dtype=np.float64)
        n = len(features)
        splits = [str(s) for s in ds.split.tolist()] if ds.split is not None else ["none"] * n
        labels = [int(v) for v in ds.labels.tolist()] if ds.labels is not None else [-1] * n
        domains.append((role, ds.domain_id, features, labels, splits))
    sha256 = hashlib.sha256()
    with replacing(out / CORPUS_FILE) as fh:

        def put(text: str) -> None:
            """Encode, hash and write one block of rows, so that the rows are
            never held whole as text or bytes."""
            block = text.encode("utf-8")
            sha256.update(block)
            fh.write(block)

        put(",".join(header) + "\n")
        for role, domain_id, features, labels, splits in domains:
            for i in range(0, len(features), _WRITE_BLOCK):
                rows = slice(i, i + _WRITE_BLOCK)
                put("".join([
                    ",".join([domain_id, role, split, str(label), *map(repr, x)]) + "\n"
                    for split, label, x in zip(splits[rows], labels[rows], features[rows].tolist())
                ]))
    if _parses_back(domains, dim):
        with replacing(out / SIDECAR_FILE) as fh:
            _write_sidecar(fh, domains, sha256.hexdigest())
    else:
        (out / SIDECAR_FILE).unlink(missing_ok=True)

    payload = {
        "format_version": 1,
        "seed": corpus.seed,
        "rule": {
            "direction": list(corpus.rule.direction),
            "margin": corpus.rule.margin,
            "separation": corpus.rule.separation,
        },
        "domains": [_spec_to_dict(s, "source") for s in corpus.source_specs]
        + [_spec_to_dict(corpus.target_spec, "target")],
    }
    write_atomic(out / SPECS_FILE, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _parses_back(domains, dim: int) -> bool:
    """Whether the records of ``domains`` parse back to exactly these
    arrays: distinct domain ids, no field separator, line break or NUL (which
    numpy strings drop at the end) in an id or split tag, and finite
    features of the header's width in at least one row per domain."""
    ids = [domain_id for _, domain_id, _, _, _ in domains]
    texts = ids + [s for _, _, _, _, splits in domains for s in set(splits)]
    return (len(set(ids)) == len(ids)
            and not any(c in text for text in texts for c in ",\r\n\0")
            and all(len(x) > 0 and x.shape[1] == dim and np.isfinite(x).all()
                    for _, _, x, _, _ in domains))


# every entry's timestamp, fixed so that reruns write the same archive bytes
_ZIP_DATE_TIME = (1980, 1, 1, 0, 0, 0)


def _write_sidecar(fh, domains, digest: str) -> None:
    """A zip of ``.npy`` entries, none pickled, written to ``fh``: the CSV
    digest, the domain ids and roles in file order, and per domain ``i``
    its features, labels (-1 for none) and split tags ("none" for none)."""
    entries = [("digest", np.array(digest)),
               ("domains", np.array([domain_id for _, domain_id, _, _, _ in domains])),
               ("roles", np.array([role for role, _, _, _, _ in domains]))]
    for i, (_, _, x, labels, splits) in enumerate(domains):
        entries += [(f"features{i}", x), (f"labels{i}", np.array(labels, dtype=np.int64)),
                    (f"splits{i}", np.array(splits))]
    with zipfile.ZipFile(fh, "w") as zf:
        for name, values in entries:
            with zf.open(zipfile.ZipInfo(f"{name}.npy", _ZIP_DATE_TIME), "w") as entry:
                np.lib.format.write_array(entry, values, allow_pickle=False)


def _dataset(domain_id: str, features: np.ndarray, labels, splits: list) -> DomainDataset:
    """One domain from its columns as stored: any negative label means the
    domain has no labels, a first split tag of "none" that it has no tags."""
    labels = np.asarray(labels, dtype=np.int64)
    return DomainDataset(domain_id, features, labels if np.all(labels >= 0) else None,
                         np.asarray(splits) if splits[0] != "none" else None)


def _read_sidecar(path: Path) -> Optional[list[tuple[str, DomainDataset]]]:
    """(role, dataset) per domain from the ``corpus.npz`` beside the CSV
    at ``path``, or None unless it exists, loads without pickles, carries
    the SHA-256 of the CSV's bytes and holds arrays of the dtypes and
    shapes the parse would give."""
    sidecar = path.with_name(SIDECAR_FILE)
    if not sidecar.exists():
        return None
    import hashlib

    # hashed in blocks, so that the file's bytes are never held whole
    with open(path, "rb") as fh:
        header = fh.readline()
        sha256, rows = hashlib.sha256(header), 0
        while block := fh.read(1 << 16):
            sha256.update(block)
            rows += block.count(b"\n")
    try:
        # np.load leaves a file it opened itself open when the zip does not parse
        with open(sidecar, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            if str(npz["digest"]) != sha256.hexdigest():
                return None
            arrays = {name: npz[name] for name in npz.files}
    except Exception:  # zip, npy and decompressor errors alike: the CSV is parsed instead
        return None
    ids, roles = arrays.get("domains"), arrays.get("roles")
    if ids is None or roles is None or ids.ndim != 1 or roles.shape != ids.shape \
            or ids.dtype.kind != "U" or roles.dtype.kind != "U":
        return None
    ids, roles = ids.tolist(), roles.tolist()
    names = {"digest", "domains", "roles"} | {
        f"{kind}{i}" for i in range(len(ids)) for kind in ("features", "labels", "splits")}
    if len(set(ids)) != len(ids) or not set(roles) <= {"source", "target"} \
            or set(arrays) != names:
        return None
    dim = header.count(b",") + 1 - len(CORPUS_COLUMNS)
    out = []
    for i, (domain_id, role) in enumerate(zip(ids, roles)):
        x, labels, splits = arrays[f"features{i}"], arrays[f"labels{i}"], arrays[f"splits{i}"]
        n = len(x) if x.ndim == 2 else 0
        if n < 1 or x.shape != (n, dim) or x.dtype != np.float64 or not x.flags.c_contiguous \
                or labels.dtype != np.int64 or labels.shape != (n,) \
                or splits.dtype.kind != "U" or splits.shape != (n,):
            return None
        out.append((role, _dataset(domain_id, x, labels, splits.tolist())))
        rows -= n
    # the writer emits one line per row and no blank lines
    return out if rows == 0 else None


def read_corpus_domains(corpus_dir) -> tuple[list[DomainDataset], list[DomainDataset]]:
    """(sources, targets) from a corpus directory, one dataset per domain.

    ``corpus.csv`` is the reference. A ``corpus.npz`` written beside it by
    ``write_corpus`` is used instead only when it holds the SHA-256 of the
    CSV's bytes and loads as the arrays the parse would give; in every
    other case the CSV is parsed line by line, each field with ``float()``,
    so the archive changes how long a read takes, never what it returns or
    which ``DataError`` it raises.
    """
    path = Path(corpus_dir) / CORPUS_FILE
    if not path.exists():
        raise DataError(f"{path} not found")
    sources, targets = [], []
    for role, ds in _read_sidecar(path) or _parse_corpus(path):
        (sources if role == "source" else targets).append(ds)
    return sources, targets


def _parse_corpus(path: Path) -> list[tuple[str, DomainDataset]]:
    """(role, dataset) per domain of ``corpus.csv``, in file order.

    A plain line-by-line parse: each feature field goes through ``float()``
    into its domain's ``array("d")``, 8 bytes a value as in float64, and a
    field that does not parse raises a DataError naming its own line.
    """
    buckets: dict[str, dict] = {}
    lead = len(CORPUS_COLUMNS)
    with open_text(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[:lead] != CORPUS_COLUMNS:
            raise DataError(f"{path}: unexpected corpus header {header[:lead]}")
        dim = len(header) - lead
        for line_no, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != lead + dim:
                raise DataError(f"{path}:{line_no}: expected {lead + dim} fields")
            domain_id, role, split, label = parts[:lead]
            if role not in ("source", "target"):
                raise DataError(f"{path}:{line_no}: unknown role {role!r}")
            bucket = buckets.get(domain_id)
            if bucket is None:
                bucket = buckets[domain_id] = {"role": role, "split": [], "label": [],
                                               "x": array("d")}
            if bucket["role"] != role:
                raise DataError(f"{path}:{line_no}: domain {domain_id} has mixed roles")
            try:
                bucket["label"].append(int(label))
                bucket["x"].extend(map(float, parts[lead:]))
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: {exc}") from exc
            bucket["split"].append(split)
    return [(bucket["role"], _dataset(
        domain_id, np.frombuffer(bucket["x"]).reshape(len(bucket["label"]), dim),
        bucket["label"], bucket["split"])) for domain_id, bucket in buckets.items()]
