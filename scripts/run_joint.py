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

from demosaick.cascade import demosaick
from demosaick.cfa import bilinear_demosaick, make_pattern, mosaic
from demosaick.datagen import make_dataset
from demosaick.metrics import psnr
from demosaick.modelfile import load_model, save_model
from demosaick.training import TrainConfig, center_crop, split_dataset, train_joint


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--init", required=True, help="pretrained denoiser model file")
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

    images = make_dataset(args.images, seed=args.data_seed)
    denoiser = load_model(args.init)
    start = time.perf_counter()
    params, _ = train_joint(images, denoiser, cfg)
    print(f"trained in {time.perf_counter() - start:.1f}s")

    _, val = split_dataset(images)
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
    print(f"held-out: bilinear {np.mean(bil):.2f} dB, cascade {np.mean(casc):.2f} dB, "
          f"margin {np.mean(casc) - np.mean(bil):+.2f} dB")

    save_model(params, args.out)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
