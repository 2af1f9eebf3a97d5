"""Central-finite-difference checking of analytic gradients.

Every differentiable op and composite block gets a named check that builds
a scalar loss from seeded random inputs, differentiates it, and compares
each requested gradient against (f(x+e) - f(x-e)) / 2e.  The comparison
metric is max |analytic - numeric| / (|analytic| + 1e-8); ops and blocks
must stay below 1e-4 at double precision, the full tiny model below 1e-3.

``check_params`` is the one finite-difference driver: it perturbs Tensor
entries in place and rebuilds the loss, recording no graph for these
probes.  ``check`` is a wrapper over it for a loss built from plain input
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .autodiff import Tensor, no_grad
from .rng import SplitMix64


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: max rel err "
                f"{self.max_rel_err:.3e} (tol {self.tolerance:.0e})")


def check(name: str,
          build: Callable[[Sequence[Tensor]], Tensor],
          arrays: Sequence[np.ndarray],
          which: Sequence[int] | None = None,
          step: float = 1e-5,
          tolerance: float = 1e-4) -> CheckResult:
    """Compare analytic and numeric gradients of ``build`` w.r.t. inputs.

    ``build`` maps a list of Tensors to a scalar-loss Tensor; ``which``
    selects the input positions to differentiate (default: all).  The
    inputs become Tensors that ``check_params`` perturbs as parameters.
    """
    tensors = [Tensor(np.array(a, dtype=np.float64), requires_grad=True)
               for a in arrays]
    which = range(len(tensors)) if which is None else which
    return check_params(name, lambda: build(tensors),
                        [(f"input{i}", tensors[i]) for i in which],
                        step=step, tolerance=tolerance)


def check_params(name: str,
                 loss_fn: Callable[[], Tensor],
                 params: Sequence[tuple[str, Tensor]],
                 step: float | Sequence[float] = 1e-5,
                 tolerance: float = 1e-4,
                 entries_per_param: int | None = None,
                 seed: int = 0) -> CheckResult:
    """Finite-difference check of a loss w.r.t. module parameters in place.

    Rebuilds the forward pass around perturbed parameter entries.  When
    ``entries_per_param`` is given, only that many seeded entries of each
    parameter are probed; otherwise every scalar is.  ``step`` may list
    several step sizes: each entry scores the best-conditioned one, since
    parameters with near-zero gradients drown a single small step in
    cancellation noise while a genuinely wrong gradient fails at every
    step.
    """
    steps = (step,) if isinstance(step, float) else tuple(step)
    for _, p in params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    worst = 0.0
    picker = SplitMix64(seed)
    for pname, p in params:
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        if entries_per_param is None or flat.size <= entries_per_param:
            idxs = range(flat.size)
        else:
            idxs = sorted({picker.randint(0, flat.size - 1)
                           for _ in range(entries_per_param)})
        for i in idxs:
            keep = flat[i]
            entry_err = float("inf")
            for h in steps:
                with no_grad():
                    flat[i] = keep + h
                    f_plus = loss_fn().item()
                    flat[i] = keep - h
                    f_minus = loss_fn().item()
                flat[i] = keep
                numeric = (f_plus - f_minus) / (2.0 * h)
                err = abs(gflat[i] - numeric) / (abs(gflat[i]) + 1e-8)
                entry_err = min(entry_err, err)
                if entry_err < tolerance / 10.0:
                    break
            worst = max(worst, entry_err)
    return CheckResult(name=name, max_rel_err=worst, tolerance=tolerance)


# --------------------------------------------------------------- named suites

def _rand(shape, seed, lo=-1.0, hi=1.0):
    return lo + (hi - lo) * SplitMix64(seed).uniform_array(shape)


def suite_ops() -> list[CheckResult]:
    """Every differentiable primitive against central differences."""
    from .autodiff import (bilinear_resize, concat, depthwise_conv2d,
                           layer_norm, log_softmax, matmul, sigmoid, silu,
                           softplus, stack)
    results = []

    def add(name, build, arrays, step=1e-5):
        results.append(check(name, build, arrays, step=step))

    add("add", lambda ts: (ts[0] + ts[1]).sum(), [_rand((3, 4), 1), _rand((4,), 2)])
    add("sub", lambda ts: (ts[0] - ts[1]).sum(), [_rand((3, 4), 3), _rand((3, 4), 4)])
    add("mul", lambda ts: (ts[0] * ts[1]).sum(), [_rand((3, 4), 5), _rand((3, 4), 6)])
    add("div", lambda ts: (ts[0] / (ts[1] * ts[1] + 1.0)).sum(),
        [_rand((3, 3), 7), _rand((3, 3), 8)])
    add("exp", lambda ts: ts[0].exp().sum(), [_rand((3, 3), 9)])
    add("sigmoid", lambda ts: (sigmoid(ts[0]) * ts[0]).sum(), [_rand((4, 2), 11)])
    add("silu", lambda ts: silu(ts[0]).sum(), [_rand((4, 3), 12)])
    add("softplus", lambda ts: softplus(ts[0]).sum(), [_rand((4, 3), 13)])
    add("log_softmax", lambda ts: (log_softmax(ts[0], -1) * ts[0]).sum(),
        [_rand((3, 5), 14)])
    add("matmul", lambda ts: (matmul(ts[0], ts[1])
                              * Tensor(_rand((3, 5), 15))).sum(),
        [_rand((3, 4), 16), _rand((4, 5), 17)])
    add("layer_norm", lambda ts: (layer_norm(ts[0], ts[1], ts[2])
                                  * Tensor(_rand((3, 6), 18))).sum(),
        [_rand((3, 6), 19), _rand((6,), 20, 0.5, 1.5), _rand((6,), 21)])
    add("depthwise_conv", lambda ts: (depthwise_conv2d(ts[0], ts[1])
                                      * Tensor(_rand((4, 5, 2), 22))).sum(),
        [_rand((4, 5, 2), 23), _rand((2, 3, 3), 24, -0.5, 0.5)])
    add("sum", lambda ts: (ts[0].sum(axis=0, keepdims=True) * ts[0]).sum(),
        [_rand((3, 4), 25)])
    add("mean", lambda ts: (ts[0].mean(axis=1) * ts[0].mean()).sum(),
        [_rand((3, 4), 26)])
    add("reshape", lambda ts: (ts[0].reshape(6, 2) * ts[0].reshape(6, 2)).sum(),
        [_rand((3, 4), 27)])
    add("transpose", lambda ts: (ts[0].transpose((1, 0))
                                 * ts[0].transpose((1, 0))).sum(),
        [_rand((3, 4), 28)])
    add("flip", lambda ts: (ts[0].flip(1) * ts[0]).sum(), [_rand((3, 4), 29)])
    add("concat", lambda ts: (concat([ts[0], ts[1]], axis=1)
                              * concat([ts[1], ts[0]], axis=1)).sum(),
        [_rand((2, 3), 30), _rand((2, 3), 31)])
    add("stack", lambda ts: (stack([ts[0], ts[1]])
                             * stack([ts[1], ts[0]])).sum(),
        [_rand((2, 2), 33), _rand((2, 2), 34)])
    add("bilinear", lambda ts: (bilinear_resize(ts[0], (5, 7))
                                * bilinear_resize(ts[0], (5, 7))).sum(),
        [_rand((2, 3, 4), 37)])
    return results


def suite_scan() -> list[CheckResult]:
    """The scan op, which scans both ways.  Each check but the last passes
    arguments with way axes of extent 1, so both ways share them."""
    from .autodiff import concat, softplus
    from .scan import BLOCK, SSMParams, scan_inputs, selective_scan
    p = SSMParams(channels=2, state=3, rng=SplitMix64(40))
    x = _rand((6, 2), 41).reshape(1, 6, 2)      # one set, shared
    weight = Tensor(_rand((6, 2), 43))

    def scan_loss(x):
        return (selective_scan(x, *scan_inputs(x, [p])) * weight).sum()

    results = [
        check("selective-scan", lambda ts: scan_loss(ts[0]), [x], step=1e-5),
        check_params("selective-scan-params", lambda: scan_loss(Tensor(x)),
                     list(p.named_parameters()), step=1e-4)]

    # Per-position A, (L, D, N), as in the fusion block's joined sequence.
    w = _rand((1, 6, 2), 45)
    results.append(check(
        "selective-scan-per-position-a",
        lambda ts: (selective_scan(ts[0], -ts[1].exp(), ts[2], ts[3],
                                   softplus(ts[4])) * Tensor(w)).sum(),
        [_rand((1, 6, 2), 46), _rand((1, 6, 2, 3), 47), _rand((1, 6, 3), 48),
         _rand((1, 6, 3), 49), _rand((1, 6, 2), 50)], step=1e-5))

    # Three blocks (L = 2*BLOCK + 19: two full blocks and a partial one),
    # on a seeded subset of entries.
    length = 2 * BLOCK + 19
    lead, d, n = (4, 4, 1), 8, 4
    ts = [Tensor(_rand(s, 70 + i), requires_grad=True)
          for i, s in enumerate((lead + (length, d), (1, 1, d, n),
                                 lead + (length, n), lead + (length, n),
                                 lead + (length, d)))]
    w = Tensor(_rand(lead + (length, d), 75))

    def blocks_loss():
        x, a, b, c, delta = ts
        return (selective_scan(x, -a.exp(), b, c, softplus(delta)) * w).sum()

    results.append(check_params(
        "selective-scan-blocks", blocks_loss,
        [(f"input{i}", t) for i, t in enumerate(ts)],
        step=1e-5, entries_per_param=12))

    # The same blocks with delta projected inside the op from x, through
    # one (w_delta, delta_bias) pair per sequence of the lead's axis 1.
    proj = [Tensor(_rand(lead + (length, d), 76), requires_grad=True),
            Tensor(_rand((4, 1, d, d), 77) / np.sqrt(d), requires_grad=True),
            Tensor(_rand((4, 1, 1, d), 78), requires_grad=True)]

    def projected_loss():
        x, w_delta, delta_bias = proj
        a, b, c = ts[1:4]
        return (selective_scan(x, -a.exp(), b, c, (w_delta, delta_bias))
                * w).sum()

    results.append(check_params(
        "selective-scan-projected-delta-blocks", projected_loss,
        list(zip(("x", "w_delta", "delta_bias"), proj)),
        step=1e-5, entries_per_param=12))

    # SS2D's call: B, C and delta all projected inside the op from x, so
    # x's gradient sums all three projections' shares.
    bc = [Tensor(_rand(lead + (length, d), 79), requires_grad=True),
          Tensor(_rand((4, 1, d, n), 80) / np.sqrt(d), requires_grad=True),
          Tensor(_rand((4, 1, d, n), 81) / np.sqrt(d), requires_grad=True)]

    def projected_bc_loss():
        x, w_b, w_c = bc
        return (selective_scan(x, -ts[1].exp(), (w_b,), (w_c,),
                               tuple(proj[1:])) * w).sum()

    results.append(check_params(
        "selective-scan-projected-bc-blocks", projected_bc_loss,
        list(zip(("x", "w_B", "w_C"), bc)),
        step=1e-5, entries_per_param=12))

    # Each way with its own arguments, as SS2D's call has them: the front
    # way's are those above, the back way's these, on each way axis.  The
    # back way scans x from the last position to the first, and x's
    # gradient sums both ways' shares.
    back = [Tensor(v, requires_grad=True) for v in (
        _rand(lead + (length, d), 82), _rand((1, 1, d, n), 83),
        _rand((4, 1, d, n), 84) / np.sqrt(d),
        _rand((4, 1, d, n), 85) / np.sqrt(d),
        _rand((4, 1, d, d), 86) / np.sqrt(d), _rand((4, 1, 1, d), 87))]

    def own_ways_loss():
        x, a, w_b, w_c, w_delta, delta_bias = back
        a = concat([-ts[1].exp(), -a.exp()], axis=-4)
        w_b, w_c, w_delta, delta_bias = (
            concat(pair, axis=-3) for pair in zip(
                (bc[1], bc[2], proj[1], proj[2]),
                (w_b, w_c, w_delta, delta_bias)))
        y = selective_scan(x, a, (w_b,), (w_c,), (w_delta, delta_bias))
        return (y * w).sum()

    results.append(check_params(
        "selective-scan-both-ways", own_ways_loss,
        list(zip(("x", "back a", "back w_B", "back w_C", "back w_delta",
                  "back delta_bias"), back)),
        step=1e-5, entries_per_param=12))
    return results


def _module_check(name, forward, module, input_shapes, seed, step=1e-4,
                  tolerance=1e-4, entries=None):
    inputs = [Tensor(_rand(s, seed + i), requires_grad=True)
              for i, s in enumerate(input_shapes)]
    out_probe = {}

    def loss_fn():
        out = forward(*inputs)
        if "w" not in out_probe:
            out_probe["w"] = _rand(out.shape, seed + 99)
        return (out * Tensor(out_probe["w"])).sum()

    params = [(f"input{i}", t) for i, t in enumerate(inputs)]
    params += list(module.named_parameters())
    return check_params(name, loss_fn, params, step=step, tolerance=tolerance,
                        entries_per_param=entries)


def suite_blocks() -> list[CheckResult]:
    from .blocks import EncoderBlock
    from .decoder import DecoderStage
    from .fusion import MMFFBlock
    from .ss2d import SS2DBlock, ss2d_forward
    ss2d_blk = SS2DBlock(channels=2, state=2, rng=SplitMix64(53))
    enc = EncoderBlock(channels=2, state=2, rng=SplitMix64(50))
    mmff = MMFFBlock(channels=2, state=2, rng=SplitMix64(51))
    stage = DecoderStage(low_channels=8, state=2, rng=SplitMix64(52))
    return [
        _module_check("ss2d", lambda f: ss2d_forward(f, ss2d_blk), ss2d_blk,
                      [(2, 3, 2)], seed=90),
        _module_check("encoder-block", enc, enc, [(2, 2, 2)], seed=60),
        _module_check("mmff", mmff, mmff, [(2, 2, 2), (2, 2, 2)], seed=70),
        _module_check("decoder-stage", stage, stage, [(1, 1, 8), (2, 2, 4)],
                      seed=80),
    ]


def suite_model(entries_per_param=None) -> list[CheckResult]:
    from .model import TINY_CONFIG, Model
    model = Model(TINY_CONFIG, seed=123)
    rgb = _rand((3, 8, 8), 200, 0.0, 1.0)
    xm = _rand((1, 8, 8), 201, 0.0, 1.0)
    w = _rand((1, 8, 8), 202)

    def loss_fn():
        return (model(Tensor(rgb), Tensor(xm)) * Tensor(w)).sum()

    return [check_params("model-tiny-8x8", loss_fn,
                         list(model.named_parameters()), step=(1e-4, 1e-3),
                         tolerance=1e-3, entries_per_param=entries_per_param)]


SCOPES = {
    "ops": suite_ops,
    "ssm-scan": suite_scan,
    "blocks": suite_blocks,
    "model": suite_model,
}


def run_scope(scope: str) -> list[CheckResult]:
    if scope == "all":
        results = []
        for fn in SCOPES.values():
            results.extend(fn())
        return results
    if scope not in SCOPES:
        from .errors import ConfigError
        raise ConfigError(
            f"unknown gradcheck scope '{scope}'; choose from "
            f"{sorted(SCOPES) + ['all']}")
    return SCOPES[scope]()
