#!/usr/bin/env python3
"""Desk-scale experiments, one subcommand per training phase.

pretrain: trains the residual denoiser with MSE on noisy patches (noise
level drawn uniformly from [0, 15] per patch) and reports the denoising
PSNR gain over the clipped noisy input at sigma = 15 on held-out crops.

joint: fine-tunes a pretrained denoiser end to end inside the K-step
cascade (L1 loss, BPTT over the shared parameters plus the extrapolation
weights and noise schedule) and reports the PSNR margin over the bilinear
baseline on held-out crops. Use --train-sigma 10 for the noisy track.
"""
import argparse
import time

import numpy as np

from demosaick.cascade import demosaick
from demosaick.cfa import bilinear_demosaick, make_pattern, mosaic
from demosaick.datagen import check_seed, make_dataset
from demosaick.metrics import psnr
from demosaick.modelfile import load_denoiser, save_model
from demosaick.resdnet import denoise
from demosaick.training import (TrainConfig, center_crop, pretrain_denoiser, split_dataset,
                                train_joint)

# each phase's defaults for --out, --epochs, --steps-per-epoch and --seed
DEFAULTS = {"pretrain": ("denoiser.rdnc", 4, 100, 3), "joint": ("cascade.rdnc", 6, 150, 5)}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    phases = ap.add_subparsers(dest="phase", required=True)
    for phase, (out, epochs, steps, seed) in DEFAULTS.items():
        sub = phases.add_parser(phase)
        sub.set_defaults(error=sub.error)
        sub.add_argument("--out", default=out)
        sub.add_argument("--log", default=f"{phase}_log.csv")
        sub.add_argument("--epochs", type=int, default=epochs)
        sub.add_argument("--steps-per-epoch", type=int, default=steps)
        sub.add_argument("--seed", type=int, default=seed)
        sub.add_argument("--images", type=int, default=60)
        sub.add_argument("--data-seed", type=int, default=7)
    pretrain, joint = phases.choices.values()
    pretrain.add_argument("--depth", type=int, default=1)
    pretrain.add_argument("--filters", type=int, default=8)
    joint.add_argument("--init", required=True,
                       help="pretrained denoiser model file (a cascade file gives its denoiser)")
    joint.add_argument("--cascade-steps", type=int, default=5)
    joint.add_argument("--train-sigma", type=float, default=0.0)
    joint.add_argument("--pattern", default="bayer_rggb")
    return ap


def main(argv=None) -> dict:
    """Run one phase; returns the training seconds (``train_s``) and, in dB,
    the held-out gain over the noisy input (``gain_db``, pretrain) or margin
    over bilinear (``margin_db``, joint)."""
    args = _parser().parse_args(argv)
    pretrain = args.phase == "pretrain"
    keys = (dict(depth=args.depth, num_filters=args.filters) if pretrain else
            dict(steps=args.cascade_steps, sigma_max=15.0, sigma_min=1.0,
                 train_sigma=args.train_sigma, pattern=args.pattern))
    try:
        cfg = TrainConfig.from_dict(dict(
            patch_size=32, batch_size=4, lr=1e-2, lr_decay_every=3, epochs=args.epochs,
            steps_per_epoch=args.steps_per_epoch, **keys, seed=args.seed, log_path=args.log,
        ))
    except ValueError as exc:
        args.error(str(exc))
    if args.images < 2:
        args.error(f"--images must be at least 2, one to train on and one to validate on, "
                   f"got {args.images}")
    try:
        check_seed(args.data_seed, args.images)
    except ValueError as exc:
        args.error(f"--data-seed: {exc}")
    if not pretrain:
        try:
            denoiser = load_denoiser(args.init)
        except (OSError, ValueError) as exc:  # a ModelFormatError is a ValueError
            args.error(f"--init: {exc}")

    images = make_dataset(args.images, seed=args.data_seed)
    start = time.perf_counter()
    params, _ = pretrain_denoiser(images, cfg) if pretrain else train_joint(images, denoiser, cfg)
    train_s = time.perf_counter() - start
    print(f"trained in {train_s:.1f}s")

    # held-out centre crops, each scored (baseline, model) in PSNR
    sigma, key = (15.0, 99) if pretrain else (args.train_sigma, 1234)
    gen = np.random.Generator(np.random.Philox(key=key))
    scores = []
    for _, img in split_dataset(images, cfg.patch_size)[1]:
        patch = center_crop(img, cfg.patch_size)
        noisy = patch + sigma * gen.standard_normal(patch.shape)
        if pretrain:
            estimates = np.clip(noisy, 0, 255), denoise(noisy, sigma, params)
        else:
            obs = mosaic(noisy, make_pattern(args.pattern))
            estimates = bilinear_demosaick(obs), demosaick(obs, params)
        scores.append([psnr(patch, est) for est in estimates])
    baseline, model = (np.mean(column) for column in zip(*scores))
    measure = float(model - baseline)
    name, of_baseline, of_model = (("gain", "noisy", "denoised") if pretrain else
                                   ("margin", "bilinear", "cascade"))
    print(f"held-out at sigma {sigma:g}: {of_baseline} {baseline:.2f} dB, "
          f"{of_model} {model:.2f} dB, {name} {measure:+.2f} dB")

    save_model(params, args.out)
    print(f"wrote {args.out}")
    return {"train_s": train_s, f"{name}_db": measure}


if __name__ == "__main__":
    main()
