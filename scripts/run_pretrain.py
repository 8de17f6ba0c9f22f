#!/usr/bin/env python3
"""Desk-scale denoiser pretraining experiment.

Trains the residual denoiser with MSE on noisy patches (noise level drawn
uniformly from [0, 15] per patch) and reports the denoising PSNR gain over
the clipped noisy input at sigma = 15 on the held-out split.
"""
import argparse
import time

import numpy as np

from demosaick.datagen import check_seed, make_dataset
from demosaick.metrics import psnr
from demosaick.modelfile import save_model
from demosaick.resdnet import denoise
from demosaick.training import TrainConfig, center_crop, pretrain_denoiser, split_dataset


def main(argv=None) -> dict:
    """Run the experiment; returns the training seconds (``train_s``) and
    the held-out denoising gain in dB (``gain_db``)."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="denoiser.rdnc")
    ap.add_argument("--log", default="pretrain_log.csv")
    ap.add_argument("--epochs", type=int, default=4)
    ap.add_argument("--steps-per-epoch", type=int, default=100)
    ap.add_argument("--depth", type=int, default=1)
    ap.add_argument("--filters", type=int, default=8)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--images", type=int, default=60)
    ap.add_argument("--data-seed", type=int, default=7)
    args = ap.parse_args(argv)
    try:
        cfg = TrainConfig.from_dict(dict(
            patch_size=32, batch_size=4, lr=1e-2, lr_decay_every=3,
            epochs=args.epochs, steps_per_epoch=args.steps_per_epoch,
            depth=args.depth, num_filters=args.filters, seed=args.seed,
            log_path=args.log,
        ))
    except ValueError as exc:
        ap.error(str(exc))
    if args.images < 2:
        ap.error(f"--images must be at least 2, one to train on and one to validate on, "
                 f"got {args.images}")
    try:
        check_seed(args.data_seed, args.images)
    except ValueError as exc:
        ap.error(f"--data-seed: {exc}")

    images = make_dataset(args.images, seed=args.data_seed)
    start = time.perf_counter()
    params, _ = pretrain_denoiser(images, cfg)
    train_s = time.perf_counter() - start
    print(f"trained in {train_s:.1f}s")

    _, val = split_dataset(images, cfg.patch_size)
    gen = np.random.Generator(np.random.Philox(key=99))
    noisy_db, denoised_db = [], []
    for _, img in val:
        patch = center_crop(img, cfg.patch_size)
        noisy = patch + 15.0 * gen.standard_normal(patch.shape)
        den = denoise(noisy, 15.0, params)
        noisy_db.append(psnr(patch, np.clip(noisy, 0, 255)))
        denoised_db.append(psnr(patch, den))
    gain = float(np.mean(denoised_db) - np.mean(noisy_db))
    print(f"held-out denoising at sigma 15: noisy {np.mean(noisy_db):.2f} dB, "
          f"denoised {np.mean(denoised_db):.2f} dB, gain {gain:+.2f} dB")

    save_model(params, args.out)
    print(f"wrote {args.out}")
    return {"train_s": train_s, "gain_db": gain}


if __name__ == "__main__":
    main()
