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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cascade import (
    CascadeParams,
    demosaick,
    demosaick_backward,
    demosaick_forward,
    init_schedule,
)
from .cfa import PATTERN_NAMES, make_pattern, mosaic
from .config import check_fields
from .metrics import psnr
from .modelfile import save_model
from .resdnet import (
    ResDNetParams,
    denoise,
    filter_grads,
    init_resdnet,
    resdnet_backward,
    resdnet_forward,
)
from .tensor_core import ShapeError


# The smallest noise level training uses. The projection radius grows with
# sigma and degenerates at 0, so the cascade's learned sigmas are clamped to
# this, and pretraining's sigma_hi may not be below it: at 5e-324 the noise
# rounds away, every loss is 0 and nothing trains.
SIGMA_FLOOR = 1e-3

_CONFIG_MINIMA = {"patch_size": 1, "batch_size": 1, "epochs": 1, "steps_per_epoch": 1,
                  "steps": 1, "depth": 1, "num_filters": 1, "lr_decay_every": 0,
                  "checkpoint_every": 0, "seed": 0, "weight_decay": 0, "sigma_lo": 0,
                  "sigma_hi": SIGMA_FLOOR, "train_sigma": 0}
MAX_SEED = 2 ** 128 - 2  # Philox keys are below 2**128, and validation uses seed + 1


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
        check_fields(cls, values)
        if "phase" in values:
            raise ValueError("config key 'phase' is not accepted: the subcommand "
                             "(pretrain or train) sets the phase")
        for key, value in values.items():
            if key in _CONFIG_MINIMA and value < _CONFIG_MINIMA[key]:
                raise ValueError(f"config key {key!r} must be at least "
                                 f"{_CONFIG_MINIMA[key]}, got {value!r}")
        cfg = cls(**values)
        for key, bad, need in (
            ("lr", cfg.lr <= 0, "positive"),
            ("sigma_min", cfg.sigma_min <= 0, "positive"),
            ("sigma_lo", cfg.sigma_lo > cfg.sigma_hi, f"at most sigma_hi = {cfg.sigma_hi!r}"),
            ("sigma_max", cfg.sigma_max < cfg.sigma_min, f"at least sigma_min = {cfg.sigma_min!r}"),
            ("seed", cfg.seed > MAX_SEED, f"at most {MAX_SEED}"),
            ("pattern", cfg.pattern not in PATTERN_NAMES, f"one of {PATTERN_NAMES}"),
        ):
            if bad:
                raise ValueError(f"config key {key!r} must be {need}, got {getattr(cfg, key)!r}")
        if bool(cfg.checkpoint_every) != bool(cfg.checkpoint_path):
            raise ValueError("config keys 'checkpoint_every' and 'checkpoint_path' must be "
                             "given together: one without the other writes no checkpoint")
        return cfg


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


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0

    @classmethod
    def for_params(cls, params: dict) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              weight_decay: float = 0.0) -> dict:
    """One Adam update with bias correction; l2 decay is added to the
    gradient as weight_decay * theta. Returns the updated parameter dict."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    out = {}
    for k, p in params.items():
        g = grads[k]
        if weight_decay:
            g = g + weight_decay * p
        state.m[k] = b1 * state.m[k] + (1 - b1) * g
        state.v[k] = b2 * state.v[k] + (1 - b2) * g ** 2
        mhat = state.m[k] / (1 - b1 ** state.t)
        vhat = state.v[k] / (1 - b2 ** state.t)
        out[k] = p - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
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


def split_dataset(items: list, patch: int):
    """Fixed 80/20 train/validation split by sorted filename of the images
    at least ``patch`` px on each side. A smaller image has no patch to
    train or validate on, so it is dropped, with one warning naming them."""
    small = sorted(name for name, img in items if min(img.shape[:2]) < patch)
    if small:
        warnings.warn(f"dropping {len(small)} image(s) smaller than the {patch}x{patch} "
                      f"patch: {', '.join(small)}")
    fits = sorted((kv for kv in items if min(kv[1].shape[:2]) >= patch), key=lambda kv: kv[0])
    if len(fits) < 2:
        size = f" of at least {patch}x{patch} px" if small else ""
        raise ValueError(f"a dataset needs at least two images{size}, one to train on and "
                         f"one to validate on; got {len(fits)}")
    n_val = max(1, len(fits) // 5)
    return fits[:-n_val], fits[-n_val:]


def sample_patches(images: list, count: int, patch: int, gen, flips: bool = False):
    """Uniformly random crops (with optional horizontal/vertical flips) of
    images at least ``patch`` px on each side."""
    out = []
    while len(out) < count:
        _, img = images[int(gen.integers(len(images)))]
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
    train, val = split_dataset(images, cfg.patch_size)
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
        if any(np.isnan(vals)):
            raise FloatingPointError(f"NaN validation PSNR in epoch {epoch + 1}")
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
        den, cache = resdnet_forward(noisy, sigma, p)
        value, g = loss(den, patch, "mse")
        return value, filter_grads(resdnet_backward(g, cache, p)[1], p)

    def evaluate(p: ResDNetParams, clean, noisy) -> float:
        return psnr(clean, denoise(noisy, cfg.sigma_hi, p))

    init = init_resdnet(cfg.depth, cfg.seed, cfg.num_filters)
    return _fit(images, init.flatten(), cfg, ResDNetParams.from_flat,
                val_input, patch_loss, evaluate)


# ---------------------------------------------------------------------------
# phase 2: joint training


def train_joint(images: list, denoiser_init: ResDNetParams, cfg: TrainConfig):
    """End-to-end L1 training of the cascade (denoiser + w + sigmas) on
    flipped patches mosaicked with cfg.pattern, with iid noise of
    cfg.train_sigma. The cascade's denoiser has the depth of
    ``denoiser_init``; cfg.depth is not read.

    Returns (best-validation CascadeParams, log rows)."""
    pattern = make_pattern(cfg.pattern)

    def unflatten(flat) -> CascadeParams:
        sigmas = np.maximum(flat["cascade.sigmas"], SIGMA_FLOOR)
        return CascadeParams.from_flat({**flat, "cascade.sigmas": sigmas})

    def observe(clean, gen):
        noisy = (
            clean + cfg.train_sigma * gen.standard_normal(clean.shape)
            if cfg.train_sigma > 0
            else clean
        )
        return mosaic(noisy, pattern)

    def patch_loss(cp: CascadeParams, patch, gen):
        est, traj = demosaick_forward(observe(patch, gen), cp)
        value, g = loss(est, patch, "l1")
        return value, demosaick_backward(g, traj, cp)

    def evaluate(cp: CascadeParams, clean, obs) -> float:
        return psnr(clean, demosaick(obs, cp))

    start = CascadeParams(denoiser_init, *init_schedule(cfg.steps, cfg.sigma_max, cfg.sigma_min))
    return _fit(images, start.flatten(), cfg, unflatten, observe, patch_loss, evaluate, flips=True)
