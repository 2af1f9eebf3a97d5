import os
import re

import numpy as np
import pytest

from scanseg.autodiff import Tensor, no_grad
from scanseg.blocks import StageConfig
from scanseg.errors import CheckpointError, ConfigError, DimensionError
from scanseg.model import TINY_CONFIG, TOY_CONFIG, Model, ModelConfig
from scanseg.rng import SplitMix64

# Frozen parameter counts for the committed configs: produced once by the
# implementation and pinned here as a regression guard.


def rand(shape, seed=0, lo=0.0, hi=1.0):
    r = SplitMix64(seed)
    return lo + (hi - lo) * r.uniform_array(shape)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(stages=StageConfig(patch=4, depths=(2, 2), channels=(16, 32)),
                    resolution=(20, 20))
    with pytest.raises(ConfigError):
        ModelConfig(task="detection")


def test_semantic_config_needs_two_classes():
    with pytest.raises(ConfigError, match="num_classes >= 2, got 1"):
        ModelConfig(task="semantic", num_classes=1)
    assert ModelConfig(task="semantic", num_classes=2).num_classes == 2


def test_saliency_config_needs_one_class():
    with pytest.raises(ConfigError, match="num_classes == 1, got 2"):
        ModelConfig(task="saliency", num_classes=2)
    assert ModelConfig(task="saliency", num_classes=1).num_classes == 1


@pytest.mark.parametrize("stages, top, field", [
    ({}, {"resolution": (32,)}, "resolution must be two positive ints"),
    ({}, {"resolution": (32, 32.0)}, "resolution must be a positive int"),
    ({}, {"state": 2.5}, "state must be a positive int"),
    ({}, {"num_classes": True}, "num_classes must be a positive int"),
    ({"patch": 4.0}, {}, "patch must be a positive int"),
    ({"depths": (2, 1.5)}, {}, "depths[1] must be a positive int"),
    ({"channels": (16, 0)}, {}, "channels[1] must be a positive int"),
    ({"depths": (), "channels": ()}, {}, "depths () and channels ()"),
], ids=["one-extent-resolution", "float-resolution", "float-state",
        "bool-num-classes", "float-patch", "float-depth", "zero-channels",
        "no-stages"])
def test_config_rejects_non_int_extents_naming_the_field(stages, top, field):
    stage_args = dict(patch=4, depths=(2, 2), channels=(16, 32)) | stages
    with pytest.raises(ConfigError, match=re.escape(field)):
        ModelConfig(stages=StageConfig(**stage_args), **top)


def test_config_json_roundtrip():
    cfg = TOY_CONFIG
    assert ModelConfig.from_json(cfg.to_json()) == cfg


def test_toy_logits_shape():
    model = Model(TOY_CONFIG, seed=1)
    logits = model(Tensor(rand((3, 32, 32), seed=2)),
                   Tensor(rand((1, 32, 32), seed=3)))
    assert logits.shape == (1, 32, 32)


def test_missing_modality_equals_self_fusion():
    model = Model(TINY_CONFIG, seed=4)
    rgb = Tensor(rand((3, 8, 8), seed=5))
    a = model(rgb).data
    b = model(Tensor(rgb.data.copy()), Tensor(rgb.data.copy())).data
    assert np.array_equal(a, b)


def test_self_fusion_encodes_once(monkeypatch):
    from scanseg.blocks import PatchEmbed
    calls = []
    real = PatchEmbed.__call__
    monkeypatch.setattr(PatchEmbed, "__call__",
                        lambda self, img: calls.append(img) or real(self, img))
    model = Model(TINY_CONFIG, seed=4)
    rgb = Tensor(rand((3, 8, 8), seed=5))
    model(rgb)
    assert len(calls) == 1
    model(rgb, Tensor(rand((1, 8, 8), seed=6)))
    assert len(calls) == 3


def test_self_fusion_gradients_match_dual_call():
    from scanseg.losses import loss_saliency
    rgb = rand((2, 3, 8, 8), seed=7)
    mask = Tensor((rand((2, 1, 8, 8), seed=8) > 0.5).astype(np.float64))

    def leaf_grads(pass_rgb_twice):
        model = Model(TINY_CONFIG, seed=4)
        x = Tensor(rgb, requires_grad=True)
        logits = model(x, x) if pass_rgb_twice else model(x)
        loss_saliency(logits, mask)[0].backward()
        return [x.grad] + [p.grad for _, p in model.named_parameters()]

    # A zero gradient (the A of a one-position scan) must stay exactly zero.
    for once, twice in zip(leaf_grads(False), leaf_grads(True)):
        assert np.max(np.abs(once - twice)) <= 1e-12 * np.max(np.abs(twice))


def test_forward_deterministic_bitwise():
    model = Model(TINY_CONFIG, seed=6)
    rgb = rand((3, 8, 8), seed=7)
    xm = rand((1, 8, 8), seed=8)
    a = model(Tensor(rgb), Tensor(xm)).data
    b = model(Tensor(rgb.copy()), Tensor(xm.copy())).data
    assert np.array_equal(a, b)


def test_no_grad_forward_bitwise_equal_and_records_nothing():
    model = Model(TOY_CONFIG, seed=14)
    rgb, xm = rand((3, 32, 32), seed=15), rand((1, 32, 32), seed=16)
    recorded = model(Tensor(rgb), Tensor(xm))
    with no_grad():
        plain = model(Tensor(rgb), Tensor(xm))
    assert recorded.requires_grad and recorded._parents
    assert not plain.requires_grad and plain._parents == ()
    assert np.array_equal(plain.data, recorded.data)
    assert all(p.requires_grad for p in model.parameters())


def test_batched_forward_matches_single():
    model = Model(TINY_CONFIG, seed=9)
    rgb = np.stack([rand((3, 8, 8), seed=10), rand((3, 8, 8), seed=11)])
    xm = np.stack([rand((3, 8, 8), seed=12), rand((3, 8, 8), seed=13)])
    batched = model(Tensor(rgb), Tensor(xm)).data
    for i in range(2):
        single = model(Tensor(rgb[i]), Tensor(xm[i])).data
        assert np.allclose(batched[i], single, atol=1e-12)


def test_resolution_mismatch_names_both():
    model = Model(TINY_CONFIG, seed=14)
    with pytest.raises(DimensionError) as e:
        model(Tensor(np.zeros((3, 16, 16))))
    assert "16x16" in str(e.value) and "8x8" in str(e.value)


def test_xmod_resolution_mismatch_names_both():
    model = Model(TINY_CONFIG, seed=14)
    with pytest.raises(DimensionError) as e:
        model(Tensor(np.zeros((3, 8, 8))), Tensor(np.zeros((1, 16, 16))))
    msg = str(e.value)
    assert "x-modality" in msg and "16x16" in msg and "8x8" in msg


def test_no_nan_at_init_random_sweep():
    model = Model(TINY_CONFIG, seed=15)
    for seed in range(3):
        logits = model(Tensor(rand((3, 8, 8), seed=20 + seed, lo=0.0, hi=1.0)),
                       Tensor(rand((1, 8, 8), seed=30 + seed, lo=0.0, hi=1.0)))
        assert np.all(np.isfinite(logits.data))


def test_param_count_is_config_function():
    a = Model(TINY_CONFIG, seed=16).param_count()
    b = Model(TINY_CONFIG, seed=17).param_count()
    assert a == b


def test_param_count_frozen():
    # Regression table, produced by the implementation once and committed.
    assert Model(TINY_CONFIG, seed=0).param_count() == 7581
    assert Model(TOY_CONFIG, seed=0).param_count() == 37993


def test_checkpoint_roundtrip_bitwise(tmp_path):
    model = Model(TINY_CONFIG, seed=18)
    rgb = rand((3, 8, 8), seed=19)
    before = model(Tensor(rgb)).data
    path = str(tmp_path / "model.ckpt")
    model.save_checkpoint(path)

    other = Model(TINY_CONFIG, seed=99)  # different init
    assert not np.array_equal(other(Tensor(rgb)).data, before)
    other.load_checkpoint(path)
    assert np.array_equal(other(Tensor(rgb)).data, before)

    loaded = Model.from_checkpoint(path)
    assert np.array_equal(loaded(Tensor(rgb)).data, before)


def test_checkpoint_truncation_detected(tmp_path):
    model = Model(TINY_CONFIG, seed=20)
    path = str(tmp_path / "model.ckpt")
    model.save_checkpoint(path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-16])
    with pytest.raises(CheckpointError, match="truncated"):
        model.load_checkpoint(path)


def test_checkpoint_unknown_parameter_named(tmp_path):
    from scanseg.checkpoint import save_params
    model = Model(TINY_CONFIG, seed=21)
    path = str(tmp_path / "model.ckpt")
    named = list(model.named_parameters())
    renamed = [("bogus.weight", named[0][1])] + named[1:]
    save_params(renamed, path)
    with pytest.raises(CheckpointError, match="bogus.weight"):
        model.load_checkpoint(path)


def test_checkpoint_version_error(tmp_path):
    import struct
    model = Model(TINY_CONFIG, seed=22)
    path = str(tmp_path / "model.ckpt")
    model.save_checkpoint(path)
    blob = bytearray(open(path, "rb").read())
    blob[8:12] = struct.pack("<I", 77)
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        model.load_checkpoint(path)


def test_checkpoint_shape_mismatch(tmp_path):
    small = Model(TINY_CONFIG, seed=23)
    path = str(tmp_path / "model.ckpt")
    small.save_checkpoint(path)
    big = Model(TOY_CONFIG, seed=24)
    with pytest.raises(CheckpointError):
        big.load_checkpoint(path)


def test_full_scale_config_validates():
    from scanseg.model import FULL_CONFIG
    assert FULL_CONFIG.stages.num_stages == 4
    assert FULL_CONFIG.resolution == (480, 640)
    div = FULL_CONFIG.stages.patch * 8
    assert FULL_CONFIG.resolution[0] % div == 0
    assert FULL_CONFIG.resolution[1] % div == 0


def _reached(fn, kind) -> list:
    """Objects of type ``kind`` a closure reaches through its cells, looking
    inside tuples, lists, dicts and the cells of the functions it captured."""
    found, seen, todo = [], set(), [fn]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, kind):
            found.append(obj)
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif callable(obj):
            for cell in getattr(obj, "__closure__", None) or ():
                try:
                    todo.append(cell.cell_contents)
                except ValueError:        # a cell not yet assigned
                    pass
    return found


def test_backward_closures_hold_arrays_not_tensors():
    # The graph links nodes; each closure keeps only the arrays it reads,
    # so no intermediate tensor (with its array) outlives forward.
    from scanseg.losses import loss_saliency
    model = Model(TOY_CONFIG, seed=0)
    logits = model(Tensor(rand((2, 3, 32, 32), seed=40)),
                   Tensor(rand((2, 1, 32, 32), seed=41)))
    mask = (rand((2, 1, 32, 32), seed=42) > 0.5).astype(np.float64)
    loss = loss_saliency(logits, Tensor(mask))[0]
    seen, todo = set(), [loss]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        todo.extend(node._parents)
        if node._backward_fn is not None:
            held = _reached(node._backward_fn, Tensor)
            assert not held, (node._backward_fn, held)
    # Not vacuous: the walk covered the whole model.
    assert all(id(p._node) in seen for p in model.parameters())


def _closure_arrays(root):
    """Every array a backward closure reachable from ``root`` keeps, and the
    ids of the nodes the walk reached."""
    arrays, seen, todo = [], set(), [root._node]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        todo.extend(node._parents)
        if node._backward_fn is not None:
            arrays += _reached(node._backward_fn, np.ndarray)
    return arrays, seen


def test_ss2d_graph_keeps_one_sequence_sized_buffer():
    # The scan projects its own x to delta, in forward and again in
    # backward, and reads each sequence both ways, so the only
    # (..., 2, L, C) buffer any closure keeps is the two cross-scan
    # sequences; no full delta and no reversed copy lives in the graph.
    from scanseg.ss2d import SS2DBlock, cross_scan, ss2d_forward
    blk = SS2DBlock(channels=2, state=3, rng=SplitMix64(25))
    f = Tensor(rand((2, 3, 5, 2), seed=26), requires_grad=True)
    arrays, seen = _closure_arrays(ss2d_forward(f, blk))
    buffers = {}
    for arr in arrays:
        if arr.shape[-2:] != (15, 2):
            continue
        root = arr
        while isinstance(root.base, np.ndarray):
            root = root.base
        buffers[id(root)] = root
    assert id(f._node) in seen
    assert len(buffers) == 1, [b.shape for b in buffers.values()]
    (root,) = buffers.values()
    assert np.array_equal(root.reshape((2, 2, 15, 2)), cross_scan(f).data)


@pytest.mark.parametrize("with_c_source", [False, True])
def test_ss2d_stacks_each_parameter_name_once(with_c_source):
    # One SS2D call stacks the four directions' parameters of each name in
    # one node: that node has all four as parents, and no other node has
    # any of them.
    from scanseg.ss2d import SS2DBlock, ss2d_forward
    blk = SS2DBlock(channels=2, state=3, rng=SplitMix64(29))
    f = Tensor(rand((2, 3, 5, 2), seed=30), requires_grad=True)
    c_source = Tensor(rand((2, 3, 5, 2), seed=31)) if with_c_source else None
    seen, todo, nodes = set(), [ss2d_forward(f, blk, c_source)._node], []
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            todo.extend(node._parents)
    for name in ("w_B", "w_C", "w_delta", "delta_bias", "a_log"):
        sets = {id(getattr(p, name)._node) for p in blk.directions}
        holders = [node for node in nodes
                   if sets & {id(q) for q in node._parents}]
        assert len(holders) == 1, (name, len(holders))
        assert {id(q) for q in holders[0]._parents} == sets, name


def test_ss2d_graph_keeps_no_b_or_c():
    # Without a C source the scan projects B and C from its own x, in
    # forward and again in backward: no closure keeps a (..., L, N) array,
    # in any layout.  N = 3 differs from the width C = 2, so only B- or
    # C-shaped buffers match.
    from scanseg.ss2d import SS2DBlock, ss2d_forward
    blk = SS2DBlock(channels=2, state=3, rng=SplitMix64(27))
    f = Tensor(rand((2, 3, 5, 2), seed=28), requires_grad=True)
    out = ss2d_forward(f, blk)
    arrays, seen = _closure_arrays(out)
    held = [a.shape for a in arrays if a.shape[-2:] == (15, 3)]
    assert id(f._node) in seen
    assert not held, held
    out.sum().backward()
    assert all(p.grad is not None for p in blk.parameters())


def test_model_graph_keeps_no_four_direction_sequences(monkeypatch):
    # SS2D keeps its row- and column-major sequences, (..., 2, L, C), and
    # its scan reads their reversals: no closure reachable from a whole
    # TOY forward keeps a (..., 4, L, C) array for any SS2D call's L and C.
    import scanseg.blocks
    import scanseg.decoder
    from scanseg.ss2d import ss2d_forward
    calls = set()

    def recording(f, block, c_source=None):
        calls.add((f.shape[-3] * f.shape[-2], f.shape[-1]))
        return ss2d_forward(f, block, c_source)

    for module in (scanseg.blocks, scanseg.decoder):
        monkeypatch.setattr(module, "ss2d_forward", recording)
    model = Model(TOY_CONFIG, seed=0)
    logits = model(Tensor(rand((2, 3, 32, 32), seed=43)),
                   Tensor(rand((2, 1, 32, 32), seed=44)))
    arrays, seen = _closure_arrays(logits)
    assert len(calls) >= 3                  # both stages and the decoder
    four = [a.shape for a in arrays
            if a.ndim >= 3 and a.shape[-3] == 4 and a.shape[-2:] in calls]
    two = [a for a in arrays
           if a.ndim >= 3 and a.shape[-3] == 2 and a.shape[-2:] in calls]
    assert not four, four
    assert two                              # not vacuous: the pairs are kept
    assert all(id(p._node) in seen for p in model.parameters())


# Pinned outputs: logits of TOY_CONFIG (seed 0) on a fixed seeded 32x32 batch
# and the per-parameter gradient norms of the saliency loss on that batch,
# recorded once (``python tests/test_model.py --record``) before the
# channels-last refactor.  Layout refactors must reproduce them.
PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "toy_pinned.npz")


def _toy_forward_backward():
    from scanseg.losses import loss_saliency
    model = Model(TOY_CONFIG, seed=0)
    rgb = rand((2, 3, 32, 32), seed=40)
    xm = rand((2, 1, 32, 32), seed=41)
    mask = (rand((2, 1, 32, 32), seed=42) > 0.5).astype(np.float64)
    logits = model(Tensor(rgb), Tensor(xm))
    loss_saliency(logits, Tensor(mask))[0].backward()
    named = list(model.named_parameters())
    return (logits.data, np.array([n for n, _ in named]),
            np.array([np.linalg.norm(p.grad) for _, p in named]))


def test_toy_outputs_match_pinned_values():
    pinned = np.load(PINNED)
    logits, names, norms = _toy_forward_backward()
    assert names.tolist() == pinned["names"].tolist()
    assert np.max(np.abs(logits - pinned["logits"])) <= 1e-12
    rel = np.abs(norms - pinned["grad_norms"]) / np.abs(pinned["grad_norms"])
    worst = int(np.argmax(rel))
    assert rel[worst] <= 1e-8, (names[worst], rel[worst])


if __name__ == "__main__":
    import sys
    if sys.argv[1:] == ["--record"]:
        logits, names, norms = _toy_forward_backward()
        os.makedirs(os.path.dirname(PINNED), exist_ok=True)
        np.savez_compressed(PINNED, logits=logits, names=names, grad_norms=norms)
