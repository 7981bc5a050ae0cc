import hashlib
import os
import re
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rumexda import synthdata
from rumexda.errors import ConfigError, DataError
from rumexda.files import replacing, write_atomic
from rumexda.synthdata import (
    DomainSpec,
    LabelRule,
    SyntheticCorpus,
    bayes_reference,
    default_benchmark,
    generate,
    read_corpus_domains,
    write_corpus,
)


def _rotation(dim, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return tuple(tuple(row) for row in q)


def _spec(domain_id, dim=4, shift=None, scale=None, rot=None, n=500, pf=0.3, noise=0.0):
    return DomainSpec(
        domain_id=domain_id,
        dim=dim,
        mean_shift=tuple(shift if shift is not None else [0.0] * dim),
        scale=tuple(scale if scale is not None else [1.0] * dim),
        rotation=rot if rot is not None else tuple(tuple(r) for r in np.eye(dim)),
        n_samples=n,
        positive_fraction=pf,
        noise_sigma=noise,
    )


def test_generation_is_deterministic():
    sources = [_spec("s0"), _spec("s1", shift=[1, 0, 0, 0])]
    target = _spec("t", shift=[2, 0, 0, 0])
    a = generate(sources, target, seed=7)
    b = generate(sources, target, seed=7)
    for da, db in zip(a.sources + [a.target], b.sources + [b.target]):
        assert np.array_equal(da.features, db.features)
        assert np.array_equal(da.labels, db.labels)
        if da.split is not None:
            assert np.array_equal(da.split, db.split)


def test_labels_do_not_depend_on_transform():
    plain = generate([_spec("s")], _spec("t"), seed=3)
    rotated = generate(
        [_spec("s", shift=[5, -2, 1, 0], scale=[2, 0.5, 1, 3], rot=_rotation(4, 0))],
        _spec("t", shift=[-4, 0, 0, 1]),
        seed=3,
    )
    assert np.array_equal(plain.sources[0].labels, rotated.sources[0].labels)
    assert np.array_equal(plain.target.labels, rotated.target.labels)
    assert np.array_equal(plain.sources[0].split, rotated.sources[0].split)


def test_identity_domains_are_statistically_close():
    corpus = generate([_spec("s", n=4000)], _spec("t", n=4000), seed=1)
    mean_s = corpus.sources[0].features.mean(axis=0)
    mean_t = corpus.target.features.mean(axis=0)
    # two-sample mean difference within 3 sigma / sqrt(n) per coordinate
    pooled_std = corpus.sources[0].features.std(axis=0)
    bound = 3 * pooled_std * np.sqrt(2 / 4000)
    assert np.all(np.abs(mean_s - mean_t) < bound)


def test_zero_noise_labels_are_linearly_separable():
    corpus = generate([_spec("s")], _spec("t"), seed=5)
    rule = corpus.rule
    for ds, spec in zip(corpus.sources + [corpus.target], corpus.source_specs + [corpus.target_spec]):
        latent = spec.inverse_transform(ds.features)
        margin_values = latent @ rule.unit_direction()
        preds = (margin_values > 0).astype(int)
        assert np.array_equal(preds, ds.labels)
        # the margin band is empty by construction
        assert np.min(np.abs(margin_values)) >= rule.margin - 1e-9


def test_positive_fraction_is_respected():
    corpus = generate([_spec("s", n=5000, pf=0.2)], _spec("t", n=5000, pf=0.2), seed=9)
    for ds in corpus.sources + [corpus.target]:
        assert abs(ds.labels.mean() - 0.2) < 0.03


def test_bayes_reference_is_one_at_zero_noise():
    corpus = generate(
        [_spec("s", rot=_rotation(4, 2), scale=[2, 1, 0.5, 1], shift=[3, 0, -1, 2])],
        _spec("t", shift=[4, 0, 0, 0]),
        seed=11,
    )
    assert all(f1 == 1.0 for f1 in bayes_reference(corpus).values())


def test_bayes_reference_below_one_with_heavy_noise():
    corpus = generate([_spec("s", noise=2.0, n=3000)], _spec("t", noise=2.0, n=3000), seed=13)
    ref = bayes_reference(corpus)
    assert all(0.0 < f1 < 1.0 for f1 in ref.values())


def test_invalid_positive_fraction():
    with pytest.raises(ConfigError):
        generate([_spec("s", pf=0.0)], _spec("t"), seed=0)


def test_non_orthogonal_rotation_rejected():
    bad = _spec("s")
    bad = DomainSpec(
        domain_id="s", dim=4, mean_shift=bad.mean_shift, scale=bad.scale,
        rotation=tuple(tuple(row) for row in np.eye(4) * 2), n_samples=10,
        positive_fraction=0.5,
    )
    with pytest.raises(ConfigError, match="orthogonal"):
        generate([bad], _spec("t"), seed=0)


@pytest.mark.parametrize("field", ["shift", "scale"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_shift_or_scale_rejected(field, value):
    bad = _spec("s", **{field: (value, 1.0, 1.0, 1.0)})
    with pytest.raises(ConfigError, match="must be finite"):
        generate([bad], _spec("t"), seed=0)


@pytest.mark.parametrize("val_fraction", [-1.0, 1.0, 1.5, float("nan")])
def test_val_fraction_outside_unit_interval_rejected(val_fraction):
    with pytest.raises(ConfigError, match="val_fraction must lie in"):
        generate([_spec("s")], _spec("t"), seed=0, val_fraction=val_fraction)


def test_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        generate([_spec("s")], _spec("t"), seed=-1)


def test_duplicate_domain_ids_rejected():
    with pytest.raises(ConfigError):
        generate([_spec("s"), _spec("s")], _spec("t"), seed=0)


def test_default_benchmark_shape():
    sources, target = default_benchmark()
    assert len(sources) == 3
    assert target.dim == 16
    assert target.n_samples == 2000
    assert target.positive_fraction == 0.2
    corpus = generate(sources, target, seed=0)
    assert len(corpus.sources) == 3
    assert corpus.target.labels is not None  # evaluation-only labels kept


def test_corpus_roundtrip_bit_exact(tmp_path):
    sources, target = default_benchmark(n_samples=100)
    corpus = generate(sources, target, seed=4)
    write_corpus(corpus, tmp_path)
    # once through the binary copy, once through the CSV parser
    for archive in ("kept", "deleted"):
        if archive == "deleted":
            (tmp_path / "corpus.npz").unlink()
        read_sources, read_targets = read_corpus_domains(tmp_path)
        assert [d.domain_id for d in read_sources] == [d.domain_id for d in corpus.sources]
        assert [d.domain_id for d in read_targets] == [corpus.target.domain_id]
        for a, b in zip(read_sources + read_targets, corpus.sources + [corpus.target]):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)
        # writing the read domains again reproduces identical bytes
        out2 = tmp_path / f"again_{archive}"
        write_corpus(SyntheticCorpus(read_sources, read_targets[0], corpus.source_specs,
                                     corpus.target_spec, corpus.rule, corpus.seed), out2)
        assert (tmp_path / "corpus.csv").read_bytes() == (out2 / "corpus.csv").read_bytes()
        assert (tmp_path / "specs.json").read_bytes() == (out2 / "specs.json").read_bytes()


def test_corpus_write_holds_far_less_than_the_csv(tmp_path):
    # the default 3 x 2000 x 16 corpus, encoded, hashed and written a block at a time
    sources, target = default_benchmark()
    corpus = generate(sources, target, seed=1)
    tracemalloc.start()
    try:
        write_corpus(corpus, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "corpus.csv").stat().st_size / 2


def test_corpus_csv_is_every_row_in_order_across_write_blocks(tmp_path):
    sources, target = default_benchmark(n_sources=2, dim=3, n_samples=600)
    corpus = generate(sources, target, seed=2)
    write_corpus(corpus, tmp_path)
    lines = ["domain_id,role,split,label,f0,f1,f2"]
    for role, ds in [("source", ds) for ds in corpus.sources] + [("target", corpus.target)]:
        splits = ds.split.tolist() if ds.split is not None else ["none"] * len(ds.features)
        labels = ds.labels.tolist() if ds.labels is not None else [-1] * len(ds.features)
        lines += [",".join([ds.domain_id, role, split, str(label), *map(repr, x)])
                  for split, label, x in zip(splits, labels, ds.features.tolist())]
    data = (tmp_path / "corpus.csv").read_bytes()
    assert data == ("\n".join(lines) + "\n").encode("utf-8")
    with np.load(tmp_path / "corpus.npz") as npz:
        assert str(npz["digest"]) == hashlib.sha256(data).hexdigest()


def test_streamed_write_that_fails_part_way_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "corpus.csv"
    write_atomic(path, b"earlier\n")
    with pytest.raises(OSError, match="No space left"):
        with replacing(path) as fh:
            fh.write(b"partial")
            raise OSError(28, "No space left on device")
    assert path.read_bytes() == b"earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.csv"]


def test_rule_direction_must_be_nonzero():
    with pytest.raises(ConfigError):
        LabelRule((0.0, 0.0)).unit_direction()


# ----------------------------------------------------------------------
# corpus reader fuzzing


def _small_corpus_dir(root: Path) -> Path:
    sources, target = default_benchmark(n_sources=2, dim=3, n_samples=4)
    write_corpus(generate(sources, target, seed=1), root)
    return root


def _small_corpus_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        return (_small_corpus_dir(Path(tmp)) / "corpus.csv").read_bytes()


def _float_per_value(text: str) -> dict:
    """Feature rows per domain with one float() per value, no validation."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    dim = len(lines[0].split(",")) - 4
    rows: dict = {}
    for line in lines[1:]:
        if line:
            parts = line.split(",")
            rows.setdefault(parts[0], []).append([float(v) for v in parts[4:]])
    return {domain: np.asarray(x, dtype=np.float64).reshape(len(x), dim)
            for domain, x in rows.items()}


_CORPUS = _small_corpus_bytes()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cut=st.integers(0, len(_CORPUS)),
       flips=st.lists(st.tuples(st.integers(0, len(_CORPUS) - 1), st.integers(1, 255)),
                      max_size=3))
def test_corpus_reader_fuzz_raises_only_data_errors(tmp_path, cut, flips):
    data = bytearray(_CORPUS)
    for index, mask in flips:
        data[index] ^= mask
    (tmp_path / "corpus.csv").write_bytes(bytes(data[:cut]))
    try:
        sources, targets = read_corpus_domains(tmp_path)
    except DataError:
        return
    reference = _float_per_value(bytes(data[:cut]).decode("utf-8"))
    assert sorted(reference) == sorted(ds.domain_id for ds in sources + targets)
    for ds in sources + targets:
        assert ds.features.shape == reference[ds.domain_id].shape
        assert ds.features.tobytes() == reference[ds.domain_id].tobytes()


def test_corpus_without_features_reads_as_zero_width_rows(tmp_path):
    (tmp_path / "corpus.csv").write_text(
        "domain_id,role,split,label\ns0,source,train,1\ns0,source,val,0\nt,target,none,-1\n"
    )
    sources, targets = read_corpus_domains(tmp_path)
    assert sources[0].features.shape == (2, 0)
    assert sources[0].labels.tolist() == [1, 0]
    assert targets[0].features.shape == (1, 0) and targets[0].labels is None


def test_corpus_with_a_non_utf8_byte_is_a_data_error(tmp_path):
    lines = _CORPUS.split(b"\n")
    lines[3] = lines[3][:-1] + b"\xff"
    path = tmp_path / "corpus.csv"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(DataError, match=re.escape(f"{path}:4: not UTF-8")):
        read_corpus_domains(tmp_path)


@pytest.mark.parametrize("rows, line, message", [
    # the first bad value is in the second domain, on an earlier line than the first domain's
    (["a,source,train,1,1.0,2.0", "b,source,train,0,y,2.0", "a,source,val,0,3.0,z"],
     3, "could not convert string to float: 'y'"),
    # a bad value is reported before an error on a later line
    (["a,source,train,1,1.0,x", "a,target,none,-1,1.0,2.0"],
     2, "could not convert string to float: 'x'"),
    (["a,source,train,1,1.0,2.0", "a,target,none,-1,1.0,2.0", "a,source,val,0,x,2.0"],
     3, "domain a has mixed roles"),
    (["a,source,train,1,1.0,x", "b,source,train,zero,1.0,2.0"],
     2, "could not convert string to float: 'x'"),
])
@pytest.mark.parametrize("lead", [2, 4, 1 << 12])  # valid rows of another domain before them
def test_corpus_reader_reports_the_first_bad_line(tmp_path, rows, line, message, lead):
    path = tmp_path / "corpus.csv"
    path.write_text("domain_id,role,split,label,f0,f1\n" + "c,source,train,0,0.5,1.5\n" * lead
                    + "\n".join(rows) + "\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:{lead + line}: {message}")):
        read_corpus_domains(tmp_path)


@pytest.mark.parametrize("n_samples", [1, 7, 48, 1 << 12])
def test_corpus_reader_converts_in_blocks_bitwise(tmp_path, n_samples):
    sources, target = default_benchmark(n_sources=2, dim=3, n_samples=n_samples)
    write_corpus(generate(sources, target, seed=2), tmp_path)
    reference = _float_per_value((tmp_path / "corpus.csv").read_text())
    # once through the binary copy, once through the CSV parser
    for archive in ("kept", "deleted"):
        if archive == "deleted":
            (tmp_path / "corpus.npz").unlink()
        read_sources, read_targets = read_corpus_domains(tmp_path)
        for ds in read_sources + read_targets:
            assert ds.features.tobytes() == reference[ds.domain_id].tobytes()


# ----------------------------------------------------------------------
# the binary copy of a corpus


def _outcome(corpus_dir):
    """Everything ``read_corpus_domains`` returns, down to dtypes, memory
    layout and which labels and split tags are None, or its DataError."""
    try:
        sources, targets = read_corpus_domains(corpus_dir)
    except DataError as exc:
        return "DataError: " + str(exc)

    def column(a):
        return None if a is None else (a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes())

    return [(role, ds.domain_id, column(ds.features), column(ds.labels), column(ds.split))
            for role, group in (("source", sources), ("target", targets)) for ds in group]


def _csv_outcome(corpus_dir):
    """``_outcome`` with the archive moved away, so that the CSV is parsed."""
    npz = Path(corpus_dir) / "corpus.npz"
    aside = npz.with_name("aside.bin")
    if npz.exists():
        npz.rename(aside)
    try:
        return _outcome(corpus_dir)
    finally:
        if aside.exists():
            aside.rename(npz)


def _no_parse(path):
    raise AssertionError(f"{path} was parsed although its archive is valid")


@pytest.mark.parametrize("labeled_target", [True, False])
@pytest.mark.parametrize("n_sources", [1, 2, 3])
def test_archive_read_is_bitwise_the_csv_parse(tmp_path, monkeypatch, n_sources,
                                                labeled_target):
    sources, target = default_benchmark(n_sources=n_sources, dim=5, n_samples=40)
    corpus = generate(sources, target, seed=n_sources)
    if not labeled_target:
        corpus.target = corpus.target.unlabeled()
    write_corpus(corpus, tmp_path)
    reference = _csv_outcome(tmp_path)
    monkeypatch.setattr(synthdata, "_parse_corpus", _no_parse)
    assert _outcome(tmp_path) == reference
    assert [entry[:2] for entry in reference] == \
        [("source", f"source{i}") for i in range(n_sources)] + [("target", "target")]
    assert (reference[-1][3] is None) != labeled_target
    assert all(entry[4] is not None for entry in reference[:-1]) and reference[-1][4] is None


def _forge_archive(corpus_dir: Path, **changes) -> None:
    """Rewrite corpus.npz with some entries replaced, keeping its digest."""
    with np.load(corpus_dir / "corpus.npz") as npz:
        entries = {name: npz[name] for name in npz.files}
    np.savez(corpus_dir / "corpus.npz", **{**entries, **changes})


def _edit_value(d):
    path = d / "corpus.csv"
    text = path.read_text()
    path.write_text(text.replace("\nsource0,source,train,", "\nsource0,source,val,", 1))
    assert path.read_text() != text


def _edit_to_invalid(d):
    path = d / "corpus.csv"
    lines = path.read_text().split("\n")
    lines[2] = lines[2] + ",9.5"
    path.write_text("\n".join(lines))


def _truncate(d):
    path = d / "corpus.npz"
    path.write_bytes(path.read_bytes()[:-100])


def _entry(corpus_dir: Path, name: str) -> np.ndarray:
    with np.load(corpus_dir / "corpus.npz") as npz:
        return npz[name]


def _with_entry(name, make):
    return lambda d: _forge_archive(d, **{name: make(_entry(d, name))})


@pytest.mark.parametrize("damage", [
    _edit_value,
    _edit_to_invalid,
    lambda d: (d / "corpus.npz").unlink(),
    _truncate,
    lambda d: (d / "corpus.npz").write_bytes(b""),
    _with_entry("features0", lambda x: x.astype(np.float32)),
    _with_entry("features1", np.asfortranarray),
    _with_entry("labels0", lambda y: y.astype(np.int32)),
    _with_entry("splits1", lambda s: s.astype(object)),
    _with_entry("splits1", lambda s: np.arange(len(s))),
    _with_entry("features0", lambda x: x[:-1]),
    _with_entry("features0", lambda x: x[0, 0]),
    lambda d: _forge_archive(d, **{name: _entry(d, name)[:-1]
                                   for name in ("features0", "labels0", "splits0")}),
    _with_entry("digest", lambda h: np.array(str(h).upper())),
    _with_entry("roles", lambda r: np.array(["source", "source", "flight"])),
], ids=["edited-csv", "edited-csv-invalid", "deleted", "truncated", "empty", "float32",
        "fortran-order", "int32-labels", "pickled-splits", "int-splits", "short-features",
        "scalar-features", "short-domain", "wrong-digest", "unknown-role"])
def test_damaged_archive_gives_the_csv_result(tmp_path, damage):
    corpus_dir = _small_corpus_dir(tmp_path)
    damage(corpus_dir)
    assert _outcome(corpus_dir) == _csv_outcome(corpus_dir)


def _small_archive() -> tuple[bytes, list]:
    with tempfile.TemporaryDirectory() as tmp:
        corpus_dir = _small_corpus_dir(Path(tmp))
        return (corpus_dir / "corpus.npz").read_bytes(), _csv_outcome(corpus_dir)


_ARCHIVE, _ARCHIVE_REFERENCE = _small_archive()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flips=st.lists(st.tuples(st.integers(0, len(_ARCHIVE) - 1), st.integers(1, 255)),
                      min_size=1, max_size=3))
def test_archive_byte_flips_give_the_csv_result(tmp_path, flips):
    data = bytearray(_ARCHIVE)
    for index, mask in flips:
        data[index] ^= mask
    (tmp_path / "corpus.csv").write_bytes(_CORPUS)
    (tmp_path / "corpus.npz").write_bytes(bytes(data))
    assert _outcome(tmp_path) == _ARCHIVE_REFERENCE


def test_archive_bytes_do_not_depend_on_the_clock(tmp_path, monkeypatch):
    from rumexda.cli import main

    assert main(["synth", "--out", str(tmp_path / "a"), "--samples", "30", "--seed", "3"]) == 0
    later = time.time() + 400 * 86400
    monkeypatch.setattr(time, "time", lambda: later)
    assert main(["synth", "--out", str(tmp_path / "b"), "--samples", "30", "--seed", "3"]) == 0
    for name in ("corpus.csv", "corpus.npz", "specs.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_failed_archive_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    sources, target = default_benchmark(n_sources=1, dim=3, n_samples=10)
    write_corpus(generate(sources, target, seed=0), tmp_path)
    real_replace = os.replace

    def full_disk(src, dst):
        if str(dst).endswith("corpus.npz"):
            raise OSError(28, "No space left on device")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", full_disk)
    with pytest.raises(OSError, match="No space left"):
        write_corpus(generate(sources, target, seed=1), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.csv", "corpus.npz", "specs.json"]
    # the earlier archive no longer matches the new CSV, so the CSV is read
    assert _outcome(tmp_path) == _csv_outcome(tmp_path)


@pytest.mark.parametrize("change", [
    lambda c: setattr(c.sources[0], "domain_id", "a,b"),
    lambda c: setattr(c.target, "domain_id", "source0"),
    lambda c: setattr(c.sources[0], "split", np.array(["train\r"] * len(c.sources[0].split))),
    lambda c: setattr(c.sources[0], "split", np.array(["val\0"] * len(c.sources[0].split),
                                                      dtype=object)),
    lambda c: c.sources[0].features.__setitem__((0, 0), np.nan),
], ids=["comma-in-id", "duplicate-id", "carriage-return-in-split", "nul-in-split", "nan"])
def test_no_archive_for_records_that_do_not_parse_back(tmp_path, change):
    sources, target = default_benchmark(n_sources=2, dim=3, n_samples=10)
    write_corpus(generate(sources, target, seed=0), tmp_path)
    corpus = generate(sources, target, seed=0)
    change(corpus)
    write_corpus(corpus, tmp_path)
    assert not (tmp_path / "corpus.npz").exists()
