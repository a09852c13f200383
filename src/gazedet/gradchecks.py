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


# Each op check draws its inputs from ``rng`` and returns grad_check's error.
def check_conv2d(rng) -> float:
    x = Tensor(_rand(rng, 1, 2, 6, 6), requires_grad=True)
    p = ad.kaiming_conv(3, 2, 3, 3, rng)

    def f(x, w, b):
        return ad.tensor_sum(ad.conv2d(x, ad.LayerParams(w, b, "conv2d"), stride=2, pad=1))

    return grad_check(f, [x, p.weights, p.bias])


def check_conv2d_batched(rng) -> float:
    """A batch of ROIs through a 3x3, pad-1 conv, shaped like the mask head.

    The output is weighted by a fixed random map before the sum, so each
    output cell sends its own gradient back.
    """
    x = Tensor(_rand(rng, 3, 2, 4, 4), requires_grad=True)
    p = ad.kaiming_conv(3, 2, 3, 3, rng)
    weight = Tensor(_rand(rng, 3, 3, 4, 4))

    def f(x, w, b):
        y = ad.conv2d(x, ad.LayerParams(w, b, "conv2d"), stride=1, pad=1)
        return ad.tensor_sum(ad.elementwise_combine(y, weight, "mul"))

    return grad_check(f, [x, p.weights, p.bias])


def check_linear(rng) -> float:
    x = Tensor(_rand(rng, 3, 5), requires_grad=True)
    p = ad.kaiming_linear(4, 5, rng)

    def f(x, w, b):
        return ad.tensor_sum(ad.linear(x, ad.LayerParams(w, b, "linear")))

    return grad_check(f, [x, p.weights, p.bias])


def check_relu(rng) -> float:
    t = Tensor(_signed(rng, 0.1, 2.0, (4, 4)), requires_grad=True)
    return grad_check(lambda t: ad.tensor_sum(ad.relu(t)), [t])


def check_sigmoid(rng) -> float:
    t = Tensor(_rand(rng, 3, 3, lo=-4, hi=4), requires_grad=True)
    return grad_check(lambda t: ad.tensor_sum(ad.sigmoid(t)), [t])


def check_maxpool2d(rng) -> float:
    t = Tensor(_rand(rng, 1, 2, 6, 6), requires_grad=True)
    return grad_check(lambda t: ad.tensor_sum(ad.maxpool2d(t, 2, 2)), [t])


def check_elementwise_combine(rng) -> float:
    a = Tensor(_rand(rng, 3, 3), requires_grad=True)
    b = Tensor(_rand(rng, 3, 3), requires_grad=True)
    e_sum = grad_check(lambda a, b: ad.tensor_sum(ad.elementwise_combine(a, b, "sum")), [a, b])
    e_mul = grad_check(lambda a, b: ad.tensor_sum(ad.elementwise_combine(a, b, "mul")), [a, b])
    return max(e_sum, e_mul)


def check_softmax_cross_entropy(rng) -> float:
    z = Tensor(_rand(rng, 4, 3), requires_grad=True)
    labels = rng.integers(0, 3, size=4)
    return grad_check(lambda z: ad.softmax_cross_entropy(z, labels), [z])


def check_bce_with_logits(rng) -> float:
    z = Tensor(_rand(rng, 3, 4), requires_grad=True)
    t = rng.integers(0, 2, size=(3, 4)).astype(np.float64)
    return grad_check(lambda z: ad.bce_with_logits(z, t), [z])


def check_smooth_l1(rng) -> float:
    # keep residuals away from |x| = 1 where smooth-L1 second derivative jumps
    t = np.zeros((3, 4))
    x = _signed(rng, 0.1, 0.8, (3, 4))
    x[0] += np.sign(x[0]) * 1.5  # exercise the linear branch too
    z = Tensor(x, requires_grad=True)
    return grad_check(lambda z: ad.smooth_l1(z, t), [z])


def check_roi_align(rng) -> float:
    feat = Tensor(_rand(rng, 1, 2, 4, 4), requires_grad=True)
    rois = np.array([[1.0, 2.0, 9.5, 11.0], [0.0, 0.0, 16.0, 16.0]])
    return grad_check(
        lambda f: ad.tensor_sum(dt.roi_align(f, rois, stride=4, out_size=3)), [feat]
    )


OP_CHECKS = [(fn.__name__.removeprefix("check_"), fn) for fn in (
    check_conv2d, check_conv2d_batched, check_linear, check_relu, check_sigmoid,
    check_maxpool2d, check_elementwise_combine, check_softmax_cross_entropy,
    check_bce_with_logits, check_smooth_l1, check_roi_align)]


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

    tensors = [t for p in model.param_list() for t in p.tensors()]
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
