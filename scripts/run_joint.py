#!/usr/bin/env python3
"""Desk-scale joint cascade training experiment.

Fine-tunes a pretrained denoiser end to end inside the K-step cascade
(L1 loss, BPTT over the shared parameters plus the extrapolation weights
and noise schedule) and reports the PSNR margin over the bilinear
baseline on held-out crops. Use --train-sigma 10 for the noisy track.
"""
import argparse
import time

import numpy as np

from demosaick.cascade import CascadeParams, demosaick
from demosaick.cfa import bilinear_demosaick, make_pattern, mosaic
from demosaick.datagen import check_seed, make_dataset
from demosaick.metrics import psnr
from demosaick.modelfile import load_model, save_model
from demosaick.training import TrainConfig, center_crop, split_dataset, train_joint


def main(argv=None) -> dict:
    """Run the experiment; returns the training seconds (``train_s``) and
    the held-out margin over bilinear in dB (``margin_db``)."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--init", required=True,
                    help="pretrained denoiser model file (a cascade file gives its denoiser)")
    ap.add_argument("--out", default="cascade.rdnc")
    ap.add_argument("--log", default="joint_log.csv")
    ap.add_argument("--epochs", type=int, default=6)
    ap.add_argument("--steps-per-epoch", type=int, default=150)
    ap.add_argument("--cascade-steps", type=int, default=5)
    ap.add_argument("--train-sigma", type=float, default=0.0)
    ap.add_argument("--pattern", default="bayer_rggb")
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--images", type=int, default=60)
    ap.add_argument("--data-seed", type=int, default=7)
    args = ap.parse_args(argv)
    try:
        cfg = TrainConfig.from_dict(dict(
            patch_size=32, batch_size=4, lr=1e-2, lr_decay_every=3,
            epochs=args.epochs, steps_per_epoch=args.steps_per_epoch, seed=args.seed,
            steps=args.cascade_steps, sigma_max=15.0, sigma_min=1.0,
            train_sigma=args.train_sigma, pattern=args.pattern, log_path=args.log,
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
    try:
        denoiser = load_model(args.init)
    except (OSError, ValueError) as exc:  # a ModelFormatError is a ValueError
        ap.error(f"--init: {exc}")
    if isinstance(denoiser, CascadeParams):
        denoiser = denoiser.denoiser

    images = make_dataset(args.images, seed=args.data_seed)
    start = time.perf_counter()
    params, _ = train_joint(images, denoiser, cfg)
    train_s = time.perf_counter() - start
    print(f"trained in {train_s:.1f}s")

    _, val = split_dataset(images, cfg.patch_size)
    pattern = make_pattern(args.pattern)
    gen = np.random.Generator(np.random.Philox(key=1234))
    bil, casc = [], []
    for _, img in val:
        patch = center_crop(img, cfg.patch_size)
        if args.train_sigma > 0:
            patch_obs = patch + args.train_sigma * gen.standard_normal(patch.shape)
        else:
            patch_obs = patch
        obs = mosaic(patch_obs, pattern)
        bil.append(psnr(patch, bilinear_demosaick(obs)))
        casc.append(psnr(patch, demosaick(obs, params)))
    margin = float(np.mean(casc) - np.mean(bil))
    print(f"held-out: bilinear {np.mean(bil):.2f} dB, cascade {np.mean(casc):.2f} dB, "
          f"margin {margin:+.2f} dB")

    save_model(params, args.out)
    print(f"wrote {args.out}")
    return {"train_s": train_s, "margin_db": margin}


if __name__ == "__main__":
    main()
