#!/usr/bin/env python3
"""Generate a directory of synthetic training images as binary PPM files."""
import argparse
from pathlib import Path

from demosaick.datagen import check_seed, check_size, make_dataset
from demosaick.pnm import write_image


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("out", help="output directory")
    ap.add_argument("--count", type=int, default=60)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--size", type=int, default=64, help="image height and width")
    args = ap.parse_args(argv)
    if args.count < 1:
        ap.error(f"--count must be at least 1, got {args.count}")
    try:
        check_size(args.size, args.size)
    except ValueError as exc:
        ap.error(f"--size: {exc}")
    try:
        check_seed(args.seed, args.count)
    except ValueError as exc:
        ap.error(f"--seed: {exc}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, image in make_dataset(args.count, args.seed, args.size, args.size):
        write_image(out / name, image)
    print(f"wrote {args.count} images to {out}")


if __name__ == "__main__":
    main()
