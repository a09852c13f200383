"""Finite-difference verification of every differentiable op and the
end-to-end training loss.

Per-op checks run small random shapes over many seeds; the end-to-end check
runs a 32x32 configuration whose head sees only the appended ground-truth
proposal, so proposal coordinates do not depend on the parameters being
perturbed (proposal boxes are treated as constants by the backward pass,
matching the usual detached-proposal convention).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import detector as dt
from .autodiff import Tensor, grad_check
from .dataset import ClassLabel, EllipseAnnotation, ellipse_to_target

TOLERANCE = 1e-4
E2E_SEEDS = 3  # end-to-end checks are slow; a few seeds cover the loss recipe


def _rand(rng, *shape, lo=-2.0, hi=2.0):
    return rng.uniform(lo, hi, size=shape)


def _signed(rng, lo, hi, shape):
    """Magnitudes in [lo, hi) with random signs: central differences fail at a kink at 0."""
    return rng.uniform(lo, hi, size=shape) * np.where(rng.random(shape) < 0.5, -1, 1)


def _check(loss, *arrays, layer=None) -> float:
    """grad_check of ``loss`` over tracked tensors of ``arrays``, then of
    ``layer``'s weights and bias, which ``loss`` receives as one LayerParams."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    if layer is None:
        return grad_check(loss, inputs)
    return grad_check(lambda *t: loss(*t[:-2], ad.LayerParams(*t[-2:])),
                      inputs + list(layer.tensors()))


def _summed(op, *args, **kwargs):
    """The scalar loss sum(op(*inputs, *args, **kwargs))."""
    return lambda *inputs: ad.tensor_sum(op(*inputs, *args, **kwargs))


# Each check draws its inputs from ``rng`` in order and returns grad_check's error.
def check_conv2d_batched(rng) -> float:
    """A batch of ROIs through a 3x3, pad-1 conv, shaped like the mask head.

    The output is weighted by a fixed random map before the sum, so each
    output cell sends its own gradient back.
    """
    x = _rand(rng, 3, 2, 4, 4)
    layer = ad.kaiming((3, 2, 3, 3), rng)
    weight = Tensor(_rand(rng, 3, 3, 4, 4))
    return _check(lambda x, params: ad.tensor_sum(ad.conv2d(x, params, pad=1) * weight),
                  x, layer=layer)


def check_elementwise_combine(rng) -> float:
    a, b = _rand(rng, 3, 3), _rand(rng, 3, 3)
    return max(_check(_summed(ad.elementwise_combine, mode), a, b) for mode in ("sum", "mul"))


def check_softmax_cross_entropy(rng) -> float:
    z = _rand(rng, 4, 3)
    labels = rng.integers(0, 3, size=4)
    return _check(lambda z: ad.softmax_cross_entropy(z, labels), z)


def check_bce_with_logits(rng) -> float:
    z = _rand(rng, 3, 4)
    t = rng.integers(0, 2, size=(3, 4)).astype(np.float64)
    return _check(lambda z: ad.bce_with_logits(z, t), z)


def check_smooth_l1(rng) -> float:
    # keep residuals away from |x| = 1 where smooth-L1 second derivative jumps
    x = _signed(rng, 0.1, 0.8, (3, 4))
    x[0] += np.sign(x[0]) * 1.5  # exercise the linear branch too
    return _check(lambda z: ad.smooth_l1(z, np.zeros((3, 4))), x)


ROIS = np.array([[1.0, 2.0, 9.5, 11.0], [0.0, 0.0, 16.0, 16.0]])

# (op name, check of one rng draw -> max relative error)
OP_CHECKS = [
    ("conv2d", lambda rng: _check(_summed(ad.conv2d, stride=2, pad=1), _rand(rng, 1, 2, 6, 6),
                                  layer=ad.kaiming((3, 2, 3, 3), rng))),
    ("conv2d_batched", check_conv2d_batched),
    ("linear", lambda rng: _check(_summed(ad.linear), _rand(rng, 3, 5),
                                  layer=ad.kaiming((4, 5), rng))),
    ("relu", lambda rng: _check(_summed(ad.relu), _signed(rng, 0.1, 2.0, (4, 4)))),
    ("sigmoid", lambda rng: _check(_summed(ad.sigmoid), _rand(rng, 3, 3, lo=-4, hi=4))),
    ("maxpool2d", lambda rng: _check(_summed(ad.maxpool2d, 2, 2), _rand(rng, 1, 2, 6, 6))),
    ("elementwise_combine", check_elementwise_combine),
    ("softmax_cross_entropy", check_softmax_cross_entropy),
    ("bce_with_logits", check_bce_with_logits),
    ("smooth_l1", check_smooth_l1),
    ("roi_align", lambda rng: _check(_summed(dt.roi_align, ROIS, stride=4, out_size=3),
                                     _rand(rng, 1, 2, 4, 4))),
]


def end_to_end_config(seed: int) -> dt.ModelConfig:
    """Tiny 32x32 config: gt-only head proposals, few channels."""
    return dt.ModelConfig(
        img_size=32,
        use_fixations=True,
        fusion_mode="sum",
        fusion_point="feature",
        anchor_scales=(10.0, 20.0),
        post_nms_top=0,
        roi_size=3,
        n_classes=2,
        channels=(3, 3, 4, 4),
        rpn_channels=4,
        fc_dim=8,
        mask_channels=4,
        seed=seed,
    )


def check_end_to_end(seed: int) -> float:
    """FD check of the total loss w.r.t. every parameter tensor."""
    cfg = end_to_end_config(seed)
    model = dt.DetectorModel(cfg)
    rng = np.random.default_rng([seed, 3])
    image = rng.uniform(0.0, 1.0, size=(32, 32))
    fmap = rng.uniform(0.0, 1.0, size=(32, 32))
    ann = EllipseAnnotation(cx=14.0, cy=17.0, rx=6.0, ry=5.0,
                            label=ClassLabel.ATELECTASIS)
    targets = [ellipse_to_target(ann, 32, 32)]

    def loss_fn(*_params):
        return dt.train_loss(model, image, fmap, targets,
                             np.random.default_rng([seed, 11])).tensor

    tensors = [t for p in model.params.values() for t in p.tensors()]
    return grad_check(loss_fn, tensors)


def run_gradcheck_suite(n_seeds: int = 20, base_seed: int = 0,
                        include_end_to_end: bool = True, log=None) -> list[tuple[str, float]]:
    """Run all checks; returns (name, max relative error) per op."""
    results = []
    for name, fn in OP_CHECKS:
        worst = max(fn(np.random.default_rng(base_seed * 1000 + s)) for s in range(n_seeds))
        results.append((name, worst))
        if log:
            log(f"gradcheck {name}: max rel err {worst:.3e}")
    if include_end_to_end:
        worst = max(check_end_to_end(base_seed * 1000 + s) for s in range(E2E_SEEDS))
        results.append(("end_to_end_loss", worst))
        if log:
            log(f"gradcheck end_to_end_loss: max rel err {worst:.3e}")
    return results
