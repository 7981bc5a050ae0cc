import base64
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rumexda import tensor as T
from rumexda.errors import ConfigError, DataError, ShapeError
from rumexda.nn import (
    ModelConfig,
    build_model,
    load_checkpoint,
    save_checkpoint,
    trainable_parameter_count,
)
from rumexda.optim import SGD
from rumexda.tensor import Tensor


def _train_steps(bundle, n_steps, seed=0, lr=0.05):
    rng = np.random.default_rng(seed)
    params = [p for _, p in bundle.trainable_parameters()]
    opt = SGD(params, lr=lr)
    d = bundle.config.input_dim
    for _ in range(n_steps):
        x = Tensor(rng.normal(size=(8, d)))
        labels = rng.integers(0, 2, size=8)
        logits = bundle.forward(x, training=True, rng=rng)
        loss = T.softmax_cross_entropy(logits, labels[None])
        opt.zero_grad()
        loss.backward()
        opt.step()


def test_build_is_deterministic():
    cfg = ModelConfig(input_dim=6, hidden_dims=(10,), feature_dim=8, unfreeze=0)
    a, b = build_model(cfg, seed=3), build_model(cfg, seed=3)
    for (n1, p1), (n2, p2) in zip(a.parameters(), b.parameters()):
        assert n1 == n2
        assert np.array_equal(p1.data, p2.data)


def test_lora_forward_equals_base_at_init():
    base_cfg = ModelConfig(input_dim=8, hidden_dims=(12,), feature_dim=8, unfreeze=0)
    lora_cfg = ModelConfig(
        input_dim=8, hidden_dims=(12,), feature_dim=8, unfreeze=0, adaptation="lora",
        lora_rank=4,
    )
    base, lora = build_model(base_cfg, seed=5), build_model(lora_cfg, seed=5)
    x = Tensor(np.random.default_rng(1).normal(size=(16, 8)))
    diff = np.abs(base.forward(x).data - lora.forward(x).data)
    assert diff.max() == 0.0


def test_fully_frozen_extractor_is_bitwise_unchanged():
    cfg = ModelConfig(input_dim=5, hidden_dims=(7,), feature_dim=6, unfreeze=0)
    bundle = build_model(cfg, seed=9)
    before = {n: p.data.copy() for n, p in bundle.extractor.parameters()}
    _train_steps(bundle, 10)
    for n, p in bundle.extractor.parameters():
        assert p.data.tobytes() == before[n].tobytes(), n


def test_lora_base_frozen_over_full_run():
    cfg = ModelConfig(
        input_dim=5, hidden_dims=(7, 7), feature_dim=6, unfreeze=0, adaptation="lora",
        lora_rank=2,
    )
    bundle = build_model(cfg, seed=9)
    before = {n: p.data.copy() for n, p in bundle.extractor.parameters()}
    _train_steps(bundle, 25)
    changed = []
    for n, p in bundle.extractor.parameters():
        if "lora" in n:
            changed.append(p.data.tobytes() != before[n].tobytes())
        else:
            assert p.data.tobytes() == before[n].tobytes(), f"frozen base {n} moved"
    assert any(changed), "adapters never updated"


def test_lora_parameter_count():
    cfg = ModelConfig(
        input_dim=64, hidden_dims=(), feature_dim=64, unfreeze=0, adaptation="lora", lora_rank=8
    )
    bundle = build_model(cfg, seed=0)
    lora_params = [p for n, p in bundle.trainable_parameters() if "lora" in n]
    assert sum(p.size for p in lora_params) == 8 * (64 + 64)


@pytest.mark.parametrize("rank", [8, 16, 32])
def test_lora_count_rule_per_rank(rank):
    d_in, d_out = 20, 12
    cfg = ModelConfig(
        input_dim=d_in, hidden_dims=(), feature_dim=d_out, unfreeze=0, adaptation="lora",
        lora_rank=rank,
    )
    bundle = build_model(cfg, seed=0)
    lora_params = [p for n, p in bundle.trainable_parameters() if "lora" in n]
    assert sum(p.size for p in lora_params) == rank * (d_in + d_out)


def test_head_parameter_count_formula():
    f = 16
    cfg = ModelConfig(input_dim=4, hidden_dims=(), feature_dim=f, unfreeze=0)
    bundle = build_model(cfg, seed=0)
    assert trainable_parameter_count(bundle) == f * f + f + 2 * f + 2


def test_lora_plus_head_count():
    f = 24
    cfg = ModelConfig(
        input_dim=f, hidden_dims=(), feature_dim=f, unfreeze=0, adaptation="lora", lora_rank=16
    )
    bundle = build_model(cfg, seed=0)
    head_count = f * f + f + 2 * f + 2
    assert trainable_parameter_count(bundle) == head_count + 32 * f


def test_full_finetune_count_is_total():
    cfg = ModelConfig(input_dim=6, hidden_dims=(10,), feature_dim=8, unfreeze=2)
    bundle = build_model(cfg, seed=0)
    total = sum(p.size for _, p in bundle.parameters())
    assert trainable_parameter_count(bundle) == total


def test_merge_equivalence():
    cfg = ModelConfig(
        input_dim=6, hidden_dims=(), feature_dim=5, unfreeze=0, adaptation="lora", lora_rank=3
    )
    bundle = build_model(cfg, seed=2)
    rng = np.random.default_rng(0)
    weight, bias, down, up, scale = bundle.extractor.blocks[0]
    up.data = rng.normal(size=up.shape)
    down.data = rng.normal(size=down.shape)
    x = Tensor(rng.normal(size=(9, 6)))
    adapter_out = bundle.extract(x).data
    # (alpha/R) * up @ down merged into the base weight gives the same block
    merged = np.maximum(x.data @ (weight.data + scale * (up.data @ down.data)).T + bias.data, 0)
    assert merged.any()
    assert np.max(np.abs(adapter_out - merged)) < 1e-10


def test_forward_shape_contract_and_determinism():
    cfg = ModelConfig(input_dim=4, hidden_dims=(6,), feature_dim=5, unfreeze=0)
    bundle = build_model(cfg, seed=1)
    for b in (1, 2, 33):
        x = Tensor(np.random.default_rng(b).normal(size=(b, 4)))
        out1 = bundle.forward(x, training=False)
        out2 = bundle.forward(x, training=False)
        assert out1.shape == (1, b, 2)
        assert np.array_equal(out1.data, out2.data)


def test_zero_weight_head_outputs_bias():
    cfg = ModelConfig(input_dim=3, hidden_dims=(), feature_dim=4, unfreeze=0)
    bundle = build_model(cfg, seed=1)
    head = bundle.head
    head.weight1.data[:] = 0.0
    head.weight2.data[:] = 0.0
    head.bias2.data[:] = [0.25, -0.5]
    x = Tensor(np.random.default_rng(2).normal(size=(7, 3)))
    out = bundle.forward(x)
    assert np.allclose(out.data, np.tile([0.25, -0.5], (1, 7, 1)))


def test_frozen_layer_receives_no_grad():
    cfg = ModelConfig(input_dim=4, hidden_dims=(5,), feature_dim=4, unfreeze=0)
    bundle = build_model(cfg, seed=1)
    x = Tensor(np.random.default_rng(0).normal(size=(6, 4)))
    loss = T.softmax_cross_entropy(bundle.forward(x), [[0, 1, 0, 1, 0, 1]])
    loss.backward()
    for _, p in bundle.extractor.parameters():
        assert p.grad is None
    for _, p in bundle.head.parameters():
        assert p.grad is not None


def test_config_errors():
    with pytest.raises(ConfigError):
        build_model(ModelConfig(input_dim=4, hidden_dims=(5,), feature_dim=4, unfreeze=3))
    with pytest.raises(ConfigError):
        build_model(ModelConfig(input_dim=4, hidden_dims=(), feature_dim=4, unfreeze=0,
                                adaptation="lora", lora_rank=0))
    with pytest.raises(ConfigError):
        build_model(
            ModelConfig(input_dim=4, hidden_dims=(), feature_dim=4, adaptation="lora", lora_rank=2, unfreeze=1)
        )
    with pytest.raises(ConfigError, match="pairs"):
        build_model(ModelConfig(input_dim=4, hidden_dims=(), feature_dim=4, unfreeze=0), pairs=-1)


def test_forward_dim_mismatch():
    bundle = build_model(ModelConfig(input_dim=4, hidden_dims=(), feature_dim=4, unfreeze=0))
    with pytest.raises(ShapeError) as e:
        bundle.forward(Tensor(np.zeros((2, 5))))
    assert "input_dim=4" in str(e.value)


def test_pair_bundle_layout():
    cfg = ModelConfig(input_dim=4, hidden_dims=(), feature_dim=4, unfreeze=0)
    bundle = build_model(cfg, pairs=3, seed=0)
    assert bundle.head.n_heads == 6
    assert [(name, p.shape) for name, p in bundle.head_trainable_parameters()] == [
        ("head.linear1.weight", (6, 4, 4)), ("head.linear1.bias", (6, 4)),
        ("head.linear2.weight", (6, 2, 4)), ("head.linear2.bias", (6, 2))]
    assert bundle.forward(Tensor(np.zeros((5, 4)))).shape == (6, 5, 2)


def test_head_stack_draws_like_separate_heads():
    # head by head, linear1's weight then linear2's, as separate heads drew them
    cfg = ModelConfig(input_dim=4, hidden_dims=(3,), feature_dim=5, unfreeze=0)
    bundle = build_model(cfg, pairs=2, seed=3)
    rng = np.random.default_rng(3)
    for shape in ((3, 4), (5, 3)):
        rng.uniform(size=shape)
    for h in range(4):
        for layer, d_out in ((bundle.head.weight1, 5), (bundle.head.weight2, 2)):
            limit = np.sqrt(6.0 / 5)
            assert layer.data[h].tobytes() == rng.uniform(-limit, limit, (d_out, 5)).tobytes()
    assert not bundle.head.bias1.data.any() and not bundle.head.bias2.data.any()


@pytest.mark.parametrize("training", [True, False])
def test_head_stack_is_bitwise_a_loop_of_per_head_layers(training):
    cfg = ModelConfig(input_dim=4, hidden_dims=(), feature_dim=5, unfreeze=0)
    bundle = build_model(cfg, pairs=3, seed=3)
    data = np.random.default_rng(4).normal(size=(3, 7, 5))
    zs = [Tensor(z, requires_grad=True) for z in data]
    xs = [zs[h // 2] for h in range(6)]  # heads 2i and 2i+1 share an input
    stacks = [p for _, p in bundle.head.parameters()]
    upstream = Tensor(np.random.default_rng(5).normal(size=(6, 7, 2)))

    stacked = bundle.head.forward(xs, training, np.random.default_rng(6))
    T.mul(stacked, upstream).sum().backward()
    stacked_grads = [p.grad.tobytes() for p in zs + stacks]

    for p in zs:
        p.grad = None
    # each head on its own, as 2-D layers over copies of its slabs
    slabs = [[Tensor(p.data[h], requires_grad=True) for p in stacks] for h in range(6)]
    rng = np.random.default_rng(6)
    total = None
    for h, (w1, b1, w2, b2) in enumerate(slabs):
        hidden = T.dropout(T.relu(T.linear(xs[h], w1, b1)), cfg.dropout, training, rng)
        logits = T.linear(hidden, w2, b2)
        assert stacked.data[h].tobytes() == logits.data.tobytes()
        term = T.mul(logits, Tensor(upstream.data[h])).sum()
        total = term if total is None else T.add(total, term)
    total.backward()
    per_head = [np.stack([slab[i].grad for slab in slabs]) for i in range(len(stacks))]
    assert stacked_grads == [p.grad.tobytes() for p in zs] + [g.tobytes() for g in per_head]


def test_head_stack_draws_dropout_like_the_loop():
    cfg = ModelConfig(input_dim=4, hidden_dims=(), feature_dim=5, unfreeze=0)
    bundle = build_model(cfg, pairs=2, seed=3)
    z = Tensor(np.random.default_rng(4).normal(size=(7, 5)))
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    bundle.head.forward(z, True, a)
    for _ in range(4):
        T.dropout(Tensor(np.ones((7, 5))), cfg.dropout, True, b)
    assert a.random() == b.random()


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = ModelConfig(
        input_dim=6, hidden_dims=(9,), feature_dim=7, unfreeze=0, adaptation="lora", lora_rank=2,
    )
    bundle = build_model(cfg, pairs=2, seed=8)
    rng = np.random.default_rng(1)
    for _, p in bundle.parameters():
        p.data += rng.normal(size=p.shape) * 0.01
    path = tmp_path / "ckpt.json"
    save_checkpoint(bundle, path)
    loaded = load_checkpoint(path)
    assert (loaded.config, loaded.pairs, loaded.seed) == (cfg, 2, 8)
    for (n1, p1), (n2, p2) in zip(bundle.parameters(), loaded.parameters()):
        assert n1 == n2
        assert p1.data.tobytes() == p2.data.tobytes(), n1


def test_checkpoint_config_is_the_model_section_plus_pairs_and_seed(tmp_path):
    cfg = ModelConfig(input_dim=5, hidden_dims=(6, 3), feature_dim=4, unfreeze=1,
                      lora_rank=3, lora_alpha=1.5, dropout=0.25)
    path = tmp_path / "ckpt.json"
    save_checkpoint(build_model(cfg, pairs=3, seed=11), path)
    assert json.loads(path.read_text())["config"] == {
        "input_dim": 5, "hidden_dims": [6, 3], "feature_dim": 4, "unfreeze": 1,
        "adaptation": "none", "lora_rank": 3, "lora_alpha": 1.5, "dropout": 0.25,
        "classifier_pairs": 3, "seed": 11,
    }


def test_checkpoint_stores_each_head_slab_as_its_own_entry(tmp_path):
    bundle = build_model(ModelConfig(input_dim=3, hidden_dims=(), feature_dim=4, unfreeze=0),
                         pairs=2, seed=4)
    path = tmp_path / "ckpt.json"
    save_checkpoint(bundle, path)
    stored = json.loads(path.read_text())["parameters"]
    head = bundle.head
    layers = {"linear1.weight": head.weight1, "linear1.bias": head.bias1,
              "linear2.weight": head.weight2, "linear2.bias": head.bias2}
    heads = {f"head{j}.{name}": p.data[j] for j in range(4) for name, p in layers.items()}
    assert set(stored) == {name for name, _ in bundle.extractor.parameters()} | set(heads)
    for name, slab in heads.items():
        assert stored[name]["shape"] == list(slab.shape), name
        assert base64.b64decode(stored[name]["data"]) == slab.tobytes(), name


def test_checkpoint_rewrite_is_byte_identical(tmp_path):
    bundle = build_model(ModelConfig(input_dim=3, hidden_dims=(4,), feature_dim=3, unfreeze=0),
                         seed=0)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(bundle, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    input_dim=st.integers(1, 5),
    hidden_dims=st.lists(st.integers(1, 5), max_size=2).map(tuple),
    feature_dim=st.integers(1, 5),
    lora=st.booleans(),
    lora_rank=st.integers(1, 3),
    lora_alpha=st.none() | st.floats(0.5, 4.0),
    dropout=st.floats(0.0, 0.9),
    classifier_pairs=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_checkpoint_roundtrip_property(tmp_path, input_dim, hidden_dims, feature_dim, lora,
                                       lora_rank, lora_alpha, dropout, classifier_pairs, seed):
    n_blocks = len(hidden_dims) + 1
    cfg = ModelConfig(
        input_dim=input_dim, hidden_dims=hidden_dims, feature_dim=feature_dim,
        unfreeze=0 if lora else seed % (n_blocks + 1), adaptation="lora" if lora else "none",
        lora_rank=lora_rank, lora_alpha=lora_alpha, dropout=dropout,
    )
    bundle = build_model(cfg, classifier_pairs, seed)
    rng = np.random.default_rng(seed)
    for _, p in bundle.parameters():
        p.data = p.data + rng.normal(size=p.shape)
    path = tmp_path / "ckpt.json"
    save_checkpoint(bundle, path)
    loaded = load_checkpoint(path)
    assert (loaded.config, loaded.pairs, loaded.seed) == (cfg, classifier_pairs, seed)
    assert [n for n, _ in loaded.parameters()] == [n for n, _ in bundle.parameters()]
    for (name, p1), (_, p2) in zip(bundle.parameters(), loaded.parameters()):
        assert p1.data.tobytes() == p2.data.tobytes(), name
        assert p1.requires_grad == p2.requires_grad, name


def test_failed_checkpoint_write_keeps_the_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.json"
    save_checkpoint(build_model(ModelConfig(input_dim=3, unfreeze=0), seed=0), path)
    before = path.read_bytes()

    def full_disk(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", full_disk)
    with pytest.raises(OSError):
        save_checkpoint(build_model(ModelConfig(input_dim=3, unfreeze=0), seed=1), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]


def test_step_after_restore_moves_the_restored_parameters():
    bundle = build_model(ModelConfig(input_dim=5, hidden_dims=(6,), feature_dim=4, unfreeze=2),
                         seed=2)
    saved = bundle.snapshot()
    _train_steps(bundle, 3)
    bundle.restore(saved)
    for name, p in bundle.parameters():
        assert p.data.tobytes() == saved[name].tobytes(), name
    # an optimizer built before a restore still steps the restored values
    params = [p for _, p in bundle.trainable_parameters()]
    opt = SGD(params, lr=0.1)
    bundle.restore(saved)
    for p in params:
        p.grad = np.ones(p.shape)
    opt.step()
    for name, p in bundle.trainable_parameters():
        assert np.shares_memory(p.data, opt._buf)
        assert p.data.tolist() == (saved[name] - 0.1).tolist(), name


def test_snapshot_is_a_copy_of_the_buffer_views():
    bundle = build_model(ModelConfig(input_dim=3, unfreeze=0), seed=0)
    _train_steps(bundle, 1)
    snap = bundle.snapshot()
    _train_steps(bundle, 1)
    moved = [name for name, p in bundle.parameters() if p.data.tobytes() != snap[name].tobytes()]
    assert moved == [name for name, _ in bundle.trainable_parameters()]


def test_checkpoint_with_a_wrong_parameter_shape_is_a_data_error(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(build_model(ModelConfig(input_dim=3, unfreeze=0), seed=0), path)
    payload = json.loads(path.read_text())
    entry = payload["parameters"]["head0.linear2.bias"]
    entry["shape"] = [1, 2]
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="head0.linear2.bias"):
        load_checkpoint(path)
