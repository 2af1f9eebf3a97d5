"""Central-finite-difference checking of analytic gradients.

Every differentiable op and composite block gets a named check that builds
a scalar loss from seeded random inputs, differentiates it, and compares
each requested gradient against (f(x+e) - f(x-e)) / 2e.  The comparison
metric is max |analytic - numeric| / (|analytic| + 1e-8); ops and blocks
must stay below 1e-4 at double precision, the full tiny model below 1e-3.

``check_params`` is the one finite-difference driver: it perturbs Tensor
entries in place and rebuilds the loss.  ``check`` is a wrapper over it for
a loss built from plain input arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .autodiff import Tensor


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
    from .rng import SplitMix64
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
    from .rng import SplitMix64
    return lo + (hi - lo) * SplitMix64(seed).uniform_array(shape)


def suite_ops() -> list[CheckResult]:
    """Every differentiable primitive against central differences."""
    from .autodiff import (bilinear_resize, concat, depthwise_conv2d,
                           layer_norm, log_softmax, matmul, sigmoid, silu,
                           softplus, split, stack)
    results = []

    def add(name, build, arrays, step=1e-5):
        results.append(check(name, build, arrays, step=step))

    add("add", lambda ts: (ts[0] + ts[1]).sum(), [_rand((3, 4), 1), _rand((4,), 2)])
    add("sub", lambda ts: (ts[0] - ts[1]).sum(), [_rand((3, 4), 3), _rand((3, 4), 4)])
    add("mul", lambda ts: (ts[0] * ts[1]).sum(), [_rand((3, 4), 5), _rand((3, 4), 6)])
    add("div", lambda ts: (ts[0] / (ts[1] * ts[1] + 1.0)).sum(),
        [_rand((3, 3), 7), _rand((3, 3), 8)])
    add("exp", lambda ts: ts[0].exp().sum(), [_rand((3, 3), 9)])
    add("log", lambda ts: (ts[0] * ts[0] + 1.0).log().sum(), [_rand((3, 3), 10)])
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
    add("split", lambda ts: (split(ts[0], [2, 2], axis=0)[0]
                             * split(ts[0], [2, 2], axis=0)[1]).sum(),
        [_rand((4, 3), 32)])
    add("stack", lambda ts: (stack([ts[0], ts[1]])
                             * stack([ts[1], ts[0]])).sum(),
        [_rand((2, 2), 33), _rand((2, 2), 34)])
    add("bilinear", lambda ts: (bilinear_resize(ts[0], (5, 7))
                                * bilinear_resize(ts[0], (5, 7))).sum(),
        [_rand((2, 3, 4), 37)])
    return results


def suite_scan() -> list[CheckResult]:
    from .autodiff import Tensor, softplus
    from .rng import SplitMix64
    from .scan import SSMParams, make_input_params, selective_scan
    results = []
    for with_skip, name in ((False, "selective-scan"),
                            (True, "selective-scan-skip")):
        p = SSMParams(channels=2, state=3, rng=SplitMix64(40 + with_skip),
                      with_skip=with_skip)
        x = _rand((6, 2), 41 + with_skip)
        w = _rand((6, 2), 43 + with_skip)

        def build(ts, p=p):
            b, c, delta = make_input_params(ts[0], p)
            y = selective_scan(ts[0], p.state_matrix(), b, c, delta,
                               d_skip=p.d_skip)
            return (y * Tensor(w)).sum()

        res = check(name, build, [x], step=1e-5)
        results.append(res)

        def loss_fn(p=p, x=x, w=w):
            b, c, delta = make_input_params(Tensor(x), p)
            y = selective_scan(Tensor(x), p.state_matrix(), b, c, delta,
                               d_skip=p.d_skip)
            return (y * Tensor(w)).sum()

        results.append(check_params(f"{name}-params", loss_fn,
                                    list(p.named_parameters()), step=1e-4))

    # Per-position A, (L, D, N), as in the fusion block's joined sequence.
    w = _rand((6, 2), 45)
    results.append(check(
        "selective-scan-per-position-a",
        lambda ts: (selective_scan(ts[0], -ts[1].exp(), ts[2], ts[3],
                                   softplus(ts[4])) * Tensor(w)).sum(),
        [_rand((6, 2), 46), _rand((6, 2, 3), 47), _rand((6, 3), 48),
         _rand((6, 3), 49), _rand((6, 2), 50)], step=1e-5))
    return results


def _module_check(name, forward, module, input_shapes, seed, step=1e-4,
                  tolerance=1e-4, entries=None):
    from .autodiff import Tensor
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
    from .rng import SplitMix64
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
    from .autodiff import Tensor
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
