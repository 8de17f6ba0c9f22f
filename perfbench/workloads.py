"""The benchmark's three workloads.

Each workload generates its inputs from the seed, then exposes ``setup()``
(one repetition of the set-up: input generation, model set-up and warm-up)
and ``item(slot)`` (one operation of the closed loop). Both call the
program only through module attributes (``cascade.demosaick_forward``), so
the tracer's wrappers see every call. ``item`` checks its outputs and
raises ``CheckFailed`` when one is wrong.

  infer-paper  paper-scale cascade (D=5, F=64, K=10), saved and loaded,
               reconstructing a round of whole images of mixed sizes; half
               Bayer RGGB with iid noise, half X-Trans with heteroscedastic
               noise. One item is one image through read_image ->
               bilinear_demosaick -> demosaick_forward -> write_image -> psnr.
  train-desk   desk scale (D=1, F=8, K=5, 32x32 patches, batch 4): one item
               is pretrain_denoiser then train_joint for fixed step counts,
               then save_model.
  train-paper  paper scale (D=5, F=64, K=10, 64x64 X-Trans patches,
               train_sigma 10, batch 1): one item is train_joint for a fixed
               step count with a one-image validation split, then save_model.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from demosaick import cascade, cfa, datagen, metrics, modelfile, noise, pnm, resdnet, training

# Model initialization and the trainer's own sampling are fixed; the
# workload seed only generates the inputs (images and their noise).
MODEL_SEED = 0


class CheckFailed(RuntimeError):
    """An output of the program is wrong."""


@dataclass
class Outcome:
    pixels: int        # output pixels (inference) or trained patch pixels
    patches: int       # training patches (0 for inference)
    psnr_db: float     # cascade PSNR (inference), final validation PSNR (training)
    train_loss: float  # last logged training loss; NaN for inference
    digest: bytes      # content hash, equal on every repeat of the same item


# ---------------------------------------------------------------------------
# sizes


@dataclass(frozen=True)
class InferScale:
    depth: int
    filters: int
    steps: int
    sizes: tuple          # (height, width) of each image of a round


@dataclass(frozen=True)
class TrainScale:
    depth: int
    filters: int
    steps: int            # cascade length K
    patch: int
    batch: int
    images: int           # dataset size; the last fifth is validation
    image_size: int
    pretrain_steps: int   # 0: no pretraining phase
    joint_steps: int
    warmup_steps: int     # steps per phase of the warm-up training call;
                          # 0: warm up with one cascade forward pass instead
    pattern: str
    train_sigma: float
    calibration: str      # run.Calibration kind that resembles the work


SCALES = {
    "paper": {
        "infer-paper": InferScale(depth=5, filters=64, steps=10,
                                  sizes=((48, 48), (64, 64), (48, 96), (64, 80))),
        "train-desk": TrainScale(depth=1, filters=8, steps=5, patch=32, batch=4, images=10,
                                 image_size=48, pretrain_steps=10, joint_steps=10,
                                 warmup_steps=2, pattern="bayer_rggb", train_sigma=10.0,
                                 calibration="python"),
        "train-paper": TrainScale(depth=5, filters=64, steps=10, patch=64, batch=1, images=5,
                                  image_size=72, pretrain_steps=0, joint_steps=1,
                                  warmup_steps=0, pattern="xtrans", train_sigma=10.0,
                                  calibration="conv"),
    },
    "smoke": {
        "infer-paper": InferScale(depth=1, filters=4, steps=2, sizes=((12, 12), (12, 18))),
        "train-desk": TrainScale(depth=1, filters=4, steps=2, patch=12, batch=2, images=5,
                                 image_size=16, pretrain_steps=2, joint_steps=2,
                                 warmup_steps=1, pattern="bayer_rggb", train_sigma=10.0,
                                 calibration="python"),
        "train-paper": TrainScale(depth=1, filters=4, steps=2, patch=12, batch=1, images=5,
                                  image_size=16, pretrain_steps=0, joint_steps=1,
                                  warmup_steps=0, pattern="xtrans", train_sigma=10.0,
                                  calibration="conv"),
    },
}


# ---------------------------------------------------------------------------
# output checks


def check_estimate(est: np.ndarray, shape: tuple, what: str) -> None:
    if est.shape != shape:
        raise CheckFailed(f"{what}: shape {est.shape}, expected {shape}")
    if not np.all(np.isfinite(est)):
        raise CheckFailed(f"{what}: non-finite values")
    if est.min() < 0.0 or est.max() > 255.0:
        raise CheckFailed(f"{what}: values outside [0, 255]")


def check_log(rows: list, what: str) -> None:
    """Every row has finite step, lr and loss; validation rows (the last
    one in particular) also have a finite PSNR."""
    if not rows:
        raise CheckFailed(f"{what}: empty training log")
    for row in rows:
        if not all(math.isfinite(v) for v in row[:3]):
            raise CheckFailed(f"{what}: non-finite log row {row}")
    if not math.isfinite(rows[-1][3]):
        raise CheckFailed(f"{what}: non-finite validation PSNR {rows[-1]}")


def check_params(flat: dict, what: str) -> None:
    for key, val in flat.items():
        if not np.all(np.isfinite(val)):
            raise CheckFailed(f"{what}: non-finite parameter {key}")


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


# ---------------------------------------------------------------------------
# infer-paper


class InferPaper:
    """Whole-image reconstruction with a saved and reloaded paper cascade."""

    calibration = "conv"  # 64-channel convolutions dominate

    def __init__(self, seed: int, scale: InferScale, workdir: Path):
        self.seed, self.scale, self.dir = seed, scale, workdir
        self.round = len(scale.sizes)
        self.params = None
        self.inputs_sha = ""

    def _slot(self, slot: int):
        """Pattern, noise spec and nominal sigma of one image slot: even
        slots are Bayer with iid noise, odd slots X-Trans with
        heteroscedastic noise."""
        key = self.seed * 1000 + slot
        if slot % 2 == 0:
            sigma = 5.0 * (1 + slot // 2 % 2)
            spec = noise.NoiseSpec(kind=noise.IID_GAUSSIAN, sigma=sigma, seed=key)
            return "bayer_rggb", spec, sigma
        a_shot, b_read = (0.2, 4.0) if slot // 2 % 2 == 0 else (0.5, 9.0)
        spec = noise.NoiseSpec(kind=noise.HETEROSCEDASTIC, a_shot=a_shot, b_read=b_read, seed=key)
        return "xtrans", spec, math.sqrt(a_shot * 128.0 + b_read)

    def _paths(self, slot: int):
        return (self.dir / f"img{slot}_truth.ppm", self.dir / f"img{slot}_input.ppm",
                self.dir / f"img{slot}_out.ppm")

    def generate_inputs(self) -> None:
        digests = []
        for slot, (h, w) in enumerate(self.scale.sizes):
            truth = datagen.synthetic_image(self.seed * 1000 + slot, h, w)
            pattern_name, spec, sigma = self._slot(slot)
            noisy = noise.add_noise(truth, spec)
            obs = cfa.mosaic(noisy, cfa.make_pattern(pattern_name), sigma=sigma)
            truth_path, input_path, _ = self._paths(slot)
            pnm.write_image(truth_path, truth, bitdepth=16)
            pnm.write_image(input_path, obs.data, bitdepth=16)
            digests.append(_digest(truth, obs.data))
        self.inputs_sha = hashlib.blake2b(b"".join(digests), digest_size=16).hexdigest()

    def setup(self) -> Outcome:
        self.generate_inputs()
        s = self.scale
        w, sigmas = cascade.init_schedule(s.steps, 15.0, 1.0)
        init = cascade.CascadeParams(resdnet.init_resdnet(s.depth, MODEL_SEED, s.filters), w, sigmas)
        model_path = self.dir / "cascade.rdnc"
        modelfile.save_model(init, model_path)
        self.params = modelfile.load_model(model_path)
        # warm-up on the smallest image
        return self.item(int(np.argmin([h * w for h, w in s.sizes])))

    def item(self, slot: int) -> Outcome:
        truth_path, input_path, out_path = self._paths(slot)
        pattern_name, _, sigma = self._slot(slot)
        truth = pnm.read_image(truth_path)
        data = pnm.read_image(input_path)
        pattern = cfa.make_pattern(pattern_name)
        obs = cfa.MosaicObservation(data * pattern.mask(*data.shape[:2]), pattern, sigma)
        base = cfa.bilinear_demosaick(obs)
        est, _ = cascade.demosaick_forward(obs, self.params)
        pnm.write_image(out_path, est)
        check_estimate(base, data.shape, f"bilinear image {slot}")
        check_estimate(est, data.shape, f"cascade image {slot}")
        value = metrics.psnr(truth, est)
        if not math.isfinite(metrics.psnr(truth, base)) or not math.isfinite(value):
            raise CheckFailed(f"image {slot}: non-finite PSNR")
        return Outcome(est.shape[0] * est.shape[1], 0, value, math.nan, _digest(est))


# ---------------------------------------------------------------------------
# train-desk and train-paper


class Train:
    """Training calls on a synthetic dataset; each item restarts from the
    same initial denoiser, so every item computes the same model."""

    def __init__(self, seed: int, scale: TrainScale, workdir: Path):
        self.seed, self.scale, self.dir = seed, scale, workdir
        self.calibration = scale.calibration
        self.round = 1
        self.inputs_sha = ""

    def _configs(self, pretrain_steps: int, joint_steps: int):
        s = self.scale
        common = dict(patch_size=s.patch, batch_size=s.batch, epochs=1, depth=s.depth,
                      num_filters=s.filters, seed=MODEL_SEED)
        return (training.TrainConfig(phase="pretrain", steps_per_epoch=pretrain_steps, **common),
                training.TrainConfig(phase="joint", steps_per_epoch=joint_steps, steps=s.steps,
                                     pattern=s.pattern, train_sigma=s.train_sigma, **common))

    def generate_inputs(self) -> None:
        s = self.scale
        self.images = datagen.make_dataset(s.images, seed=self.seed, height=s.image_size,
                                           width=s.image_size)
        self.inputs_sha = _digest(*[img for _, img in self.images]).hex()

    def setup(self) -> Outcome:
        self.generate_inputs()
        s = self.scale
        self.init = resdnet.init_resdnet(s.depth, MODEL_SEED, s.filters)
        if s.warmup_steps:
            return self._train(s.warmup_steps if s.pretrain_steps else 0, s.warmup_steps)
        _, joint_cfg = self._configs(0, 0)
        w, sigmas = cascade.init_schedule(s.steps, joint_cfg.sigma_max, joint_cfg.sigma_min)
        crop = training.center_crop(self.images[-1][1], s.patch)
        obs = cfa.mosaic(crop, cfa.make_pattern(s.pattern), sigma=s.train_sigma)
        est, _ = cascade.demosaick_forward(obs, cascade.CascadeParams(self.init, w, sigmas))
        check_estimate(est, crop.shape, "warm-up estimate")
        return Outcome(0, 0, metrics.psnr(crop, est), math.nan, _digest(est))

    def item(self, slot: int) -> Outcome:
        return self._train(self.scale.pretrain_steps, self.scale.joint_steps)

    def _train(self, pretrain_steps: int, joint_steps: int) -> Outcome:
        """pretrain_denoiser (when pretrain_steps > 0), train_joint, save_model."""
        s = self.scale
        pre_cfg, joint_cfg = self._configs(pretrain_steps, joint_steps)
        den = self.init
        if pretrain_steps:
            den, rows = training.pretrain_denoiser(self.images, pre_cfg)
            check_log(rows, "pretrain log")
        trained, rows = training.train_joint(self.images, den, joint_cfg)
        check_log(rows, "joint log")
        check_params(trained.flatten(), "trained cascade")
        path = self.dir / "cascade.rdnc"
        modelfile.save_model(trained, path)
        digest = hashlib.blake2b(path.read_bytes(), digest_size=16).digest()
        patches = (pretrain_steps + joint_steps) * s.batch
        _, _, loss, val_psnr = rows[-1]
        return Outcome(patches * s.patch ** 2, patches, float(val_psnr), float(loss), digest)


def make(name: str, seed: int, scale: str, workdir: Path):
    sizes = SCALES[scale][name]
    if name == "infer-paper":
        return InferPaper(seed, sizes, workdir)
    return Train(seed, sizes, workdir)
