"""Two-phase training: denoiser pretraining on noisy patches, then joint
end-to-end training of the full cascade with backpropagation through time.

Both phases run the one loop ``_fit``: Adam with step-wise learning-rate
decay over random patches, a CSV step log, optional checkpoints and
best-of-epoch validation. A phase supplies only closures: how to build its
model from the flat parameters, its validation inputs, one patch's loss and
gradients, and one validation score.

Everything runs single-threaded over flat {name: array} parameter dicts,
so runs are reproducible bit-for-bit under a fixed seed.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .cascade import CascadeParams, demosaick_backward, demosaick_forward, init_schedule
from .cfa import make_pattern, mosaic
from .metrics import psnr
from .modelfile import save_model
from .resdnet import (
    ResDNetParams,
    denoiser_banks,
    filter_grads,
    init_resdnet,
    resdnet_backward,
    resdnet_forward,
)
from .tensor_core import ShapeError


@dataclass
class TrainConfig:
    phase: str = "pretrain"           # not read, nor a config key: the function called sets it
    patch_size: int = 32
    batch_size: int = 4
    lr: float = 1e-2
    lr_decay_every: int = 30          # epochs between x0.1 decays
    weight_decay: float = 1e-8
    epochs: int = 2
    steps_per_epoch: int = 100
    sigma_lo: float = 0.0             # pretraining noise range
    sigma_hi: float = 15.0
    steps: int = 10                   # cascade length K (joint phase)
    sigma_max: float = 15.0
    sigma_min: float = 1.0
    train_sigma: float = 0.0          # iid noise on the mosaic (joint phase)
    pattern: str = "bayer_rggb"
    depth: int = 1
    num_filters: int = 8
    seed: int = 0
    log_path: str = ""                # CSV rows (step, lr, loss, val_psnr)
    checkpoint_every: int = 0         # steps between checkpoints; 0 = off
    checkpoint_path: str = ""

    @classmethod
    def from_dict(cls, values: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "phase" in values:
            raise ValueError("config key 'phase' is not accepted: the subcommand "
                             "(pretrain or train) sets the phase")
        return cls(**values)


# ---------------------------------------------------------------------------
# losses


def loss(pred: np.ndarray, target: np.ndarray, kind: str):
    """Mean loss and its gradient w.r.t. pred. kind is 'l1' or 'mse'."""
    if pred.shape != target.shape:
        raise ShapeError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    n = diff.size
    if kind == "l1":
        return float(np.abs(diff).mean()), np.sign(diff) / n
    if kind == "mse":
        return float((diff ** 2).mean()), 2.0 * diff / n
    raise ValueError(f"unknown loss kind {kind!r}")


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: dict, **kw) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            **kw,
        )


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              weight_decay: float = 0.0) -> dict:
    """One Adam update with bias correction; l2 decay is added to the
    gradient as weight_decay * theta. Returns the updated parameter dict."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    out = {}
    for k, p in params.items():
        g = grads[k]
        if weight_decay:
            g = g + weight_decay * p
        state.m[k] = b1 * state.m[k] + (1 - b1) * g
        state.v[k] = b2 * state.v[k] + (1 - b2) * g ** 2
        mhat = state.m[k] / (1 - b1 ** state.t)
        vhat = state.v[k] / (1 - b2 ** state.t)
        out[k] = p - lr * mhat / (np.sqrt(vhat) + state.eps)
    return out


# ---------------------------------------------------------------------------
# data pipeline


def load_dataset(directory) -> list:
    """Sorted (name, image) list from a directory of .ppm/.pgm/.npy files."""
    from .pnm import read_image

    directory = Path(directory)
    items = []
    for path in sorted(directory.iterdir()):
        if path.suffix in (".ppm", ".pgm", ".npy"):
            items.append((path.name, read_image(path)))
    return items


def split_dataset(items: list):
    """Fixed 80/20 train/validation split by sorted filename."""
    if not items:
        raise ValueError("empty dataset")
    items = sorted(items, key=lambda kv: kv[0])
    n_val = max(1, len(items) // 5)
    return items[:-n_val], items[-n_val:]


def sample_patches(images: list, count: int, patch: int, gen, flips: bool = False):
    """Uniformly random crops (with optional horizontal/vertical flips)."""
    out = []
    while len(out) < count:
        _, img = images[int(gen.integers(len(images)))]
        if img.shape[0] < patch or img.shape[1] < patch:
            warnings.warn(f"skipping image smaller than patch size {patch}")
            images = [kv for kv in images if kv[1].shape[0] >= patch and kv[1].shape[1] >= patch]
            if not images:
                raise ValueError("no image is large enough for the patch size")
            continue
        r = int(gen.integers(img.shape[0] - patch + 1))
        c = int(gen.integers(img.shape[1] - patch + 1))
        crop = img[r : r + patch, c : c + patch].copy()
        if flips:
            if gen.integers(2):
                crop = crop[:, ::-1].copy()
            if gen.integers(2):
                crop = crop[::-1].copy()
        out.append(crop)
    return out


def center_crop(img: np.ndarray, patch: int) -> np.ndarray:
    r = (img.shape[0] - patch) // 2
    c = (img.shape[1] - patch) // 2
    return img[r : r + patch, c : c + patch].copy()


class _TrainLog:
    def __init__(self, path: str):
        self.rows = []
        self.path = path

    def add(self, step: int, lr: float, value: float, val_psnr: float):
        if not np.isfinite(value):
            raise FloatingPointError(f"non-finite training loss at step {step}")
        self.rows.append((step, lr, value, val_psnr))

    def write(self):
        if not self.path:
            return
        with open(self.path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "lr", "loss", "val_psnr"])
            writer.writerows(self.rows)


def _decayed_lr(base: float, epoch: int, every: int) -> float:
    return base * 0.1 ** (epoch // every) if every > 0 else base


# ---------------------------------------------------------------------------
# the training loop shared by both phases


def _fit(images: list, flat: dict, cfg: TrainConfig, unflatten, val_input, patch_loss,
         evaluate, flips: bool = False):
    """Adam over random training patches with per-epoch validation.

    ``unflatten(flat)`` builds the model from the flat parameters (and projects
    them onto their constraints), ``val_input(clean, gen)`` makes the input of
    one validation crop, ``patch_loss(model, patch, gen)`` returns one patch's
    loss and flat gradients, and ``evaluate(model, clean, inp)`` one
    validation PSNR. Returns (best-validation model, log rows)."""
    train, val = split_dataset(images)
    gen = np.random.Generator(np.random.Philox(key=cfg.seed))
    val_gen = np.random.Generator(np.random.Philox(key=cfg.seed + 1))
    val_clean = [center_crop(img, cfg.patch_size) for _, img in val]
    val_inputs = [val_input(clean, val_gen) for clean in val_clean]

    model = unflatten(flat)
    state = AdamState.for_params(flat)
    log = _TrainLog(cfg.log_path)
    best = (model, -np.inf)

    step = 0
    for epoch in range(cfg.epochs):
        lr = _decayed_lr(cfg.lr, epoch, cfg.lr_decay_every)
        for _ in range(cfg.steps_per_epoch):
            patches = sample_patches(train, cfg.batch_size, cfg.patch_size, gen, flips=flips)
            flat = model.flatten()
            grads = {k: np.zeros_like(v) for k, v in flat.items()}
            total = 0.0
            for patch in patches:
                value, pgrads = patch_loss(model, patch, gen)
                total += value
                for k in pgrads:
                    grads[k] += pgrads[k] / len(patches)
            model = unflatten(adam_step(flat, grads, state, lr, cfg.weight_decay))
            step += 1
            log.add(step, lr, total / len(patches), np.nan)
            if cfg.checkpoint_every and step % cfg.checkpoint_every == 0 and cfg.checkpoint_path:
                save_model(model, cfg.checkpoint_path)
        vals = [evaluate(model, clean, inp) for clean, inp in zip(val_clean, val_inputs)]
        finite = [v for v in vals if np.isfinite(v)]
        score = float(np.mean(finite)) if finite else np.inf
        log.add(step, lr, log.rows[-1][2] if log.rows else np.nan, score)
        if score > best[1]:
            best = (model, score)
    log.write()
    return best[0], log.rows


# ---------------------------------------------------------------------------
# phase 1: denoiser pretraining


def pretrain_denoiser(images: list, cfg: TrainConfig):
    """MSE pretraining over random noise levels in [sigma_lo, sigma_hi],
    validated at sigma_hi.

    Returns (best-validation ResDNetParams, log rows)."""

    def val_input(clean, gen):
        return clean + cfg.sigma_hi * gen.standard_normal(clean.shape)

    def patch_loss(p: ResDNetParams, patch, gen):
        sigma = float(gen.uniform(cfg.sigma_lo, cfg.sigma_hi))
        noisy = patch + sigma * gen.standard_normal(patch.shape)
        banks = denoiser_banks(p)
        den, cache = resdnet_forward(noisy, sigma, p, banks)
        value, g = loss(den, patch, "mse")
        return value, filter_grads(resdnet_backward(g, cache, p, banks)[1], p)

    def evaluate(p: ResDNetParams, clean, noisy) -> float:
        return psnr(clean, resdnet_forward(noisy, cfg.sigma_hi, p)[0])

    init = init_resdnet(cfg.depth, cfg.seed, cfg.num_filters)
    return _fit(images, init.flatten(), cfg,
                lambda flat: ResDNetParams.from_flat(flat, cfg.depth),
                val_input, patch_loss, evaluate)


# ---------------------------------------------------------------------------
# phase 2: joint training


def train_joint(images: list, denoiser_init: ResDNetParams, cfg: TrainConfig):
    """End-to-end L1 training of the cascade (denoiser + w + sigmas) on
    flipped patches mosaicked with cfg.pattern, with iid noise of
    cfg.train_sigma.

    Returns (best-validation CascadeParams, log rows)."""
    pattern = make_pattern(cfg.pattern)

    def unflatten(flat) -> CascadeParams:
        # projection radius degenerates at sigma = 0
        sigmas = np.maximum(flat["cascade.sigmas"], 1e-3)
        return CascadeParams.from_flat({**flat, "cascade.sigmas": sigmas}, cfg.depth)

    def observe(clean, gen):
        noisy = (
            clean + cfg.train_sigma * gen.standard_normal(clean.shape)
            if cfg.train_sigma > 0
            else clean
        )
        return mosaic(noisy, pattern, sigma=cfg.train_sigma)

    def patch_loss(cp: CascadeParams, patch, gen):
        est, traj = demosaick_forward(observe(patch, gen), cp)
        value, g = loss(est, patch, "l1")
        return value, demosaick_backward(g, traj, cp)

    def evaluate(cp: CascadeParams, clean, obs) -> float:
        return psnr(clean, demosaick_forward(obs, cp)[0])

    w, sigmas = init_schedule(cfg.steps, cfg.sigma_max, cfg.sigma_min)
    flat = {**denoiser_init.flatten(), "cascade.w": w, "cascade.sigmas": sigmas}
    return _fit(images, flat, cfg, unflatten, observe, patch_loss, evaluate, flips=True)
