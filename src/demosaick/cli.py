"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numeric
failure (non-finite values detected).
"""
from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import gradcheck as gc
from .cascade import CascadeParams, demosaick
from .cfa import PATTERN_NAMES, MosaicObservation, bilinear_demosaick, make_pattern, mosaic
from .config import check_fields, parse_config_file
from .metrics import linrgb_to_srgb, psnr
from .modelfile import load_denoiser, load_model, save_model
from .noise import NoiseSpec, add_noise
from .pnm import FormatError, read_image, write_image
from .resdnet import ResDNetParams, denoise, init_resdnet, parameter_breakdown
from .training import MAX_SEED, TrainConfig, load_dataset, pretrain_denoiser, train_joint

PAPER_PARAM_TOTAL = 380_356


def _positive_int(text: str) -> int:
    """argparse type for sizes and counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


# flags shared by several subcommands; each subcommand adds only those it reads
_FLAGS = {
    "--pattern": dict(choices=PATTERN_NAMES, default="bayer_rggb"),
    "--sigma": dict(type=float, default=0.0),
    "--seed": dict(type=int, default=0),
    "--model": dict(type=str, default=""),
    "--config": dict(type=str, default=""),
    "--out": dict(type=str, default=""),
}


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="demosaick")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mosaic", help="sample a clean image through a CFA, optionally adding noise")
    p.add_argument("input")
    p.add_argument("--noise-kind", choices=["iid_gaussian", "heteroscedastic"],
                   default="iid_gaussian")
    p.add_argument("--a-shot", type=float, default=0.0)
    p.add_argument("--b-read", type=float, default=0.0)
    _add_flags(p, "--pattern", "--sigma", "--seed", "--config", "--out")
    p.set_defaults(func=cmd_mosaic)

    p = sub.add_parser("demosaick", help="reconstruct an observation with a trained cascade")
    p.add_argument("input")
    p.add_argument("--model", required=True)
    _add_flags(p, "--pattern", "--out")
    p.set_defaults(func=cmd_demosaick)

    p = sub.add_parser("bilinear", help="bilinear baseline reconstruction")
    p.add_argument("input")
    _add_flags(p, "--pattern", "--out")
    p.set_defaults(func=cmd_bilinear)

    p = sub.add_parser("denoise", help="run the residual denoiser at a given noise level")
    p.add_argument("input")
    p.add_argument("--model", required=True)
    _add_flags(p, "--sigma", "--out")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("pretrain", help="pretrain the denoiser (config-driven)")
    p.add_argument("--data", required=True)
    _add_flags(p, "--config", "--out")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="joint end-to-end cascade training (config-driven)")
    p.add_argument("--data", required=True)
    _add_flags(p, "--config", "--model", "--out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a directory of (truth, observation) pairs")
    p.add_argument("directory")
    p.add_argument("--method", choices=["model", "bilinear"], default="model")
    p.add_argument("--threads", type=_positive_int, default=1)
    _add_flags(p, "--pattern", "--model", "--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference verification of all adjoints")
    _add_flags(p, "--seed")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("params", help="trainable parameter count breakdown")
    p.add_argument("--depth", type=_positive_int, default=5)
    p.add_argument("--filters", type=_positive_int, default=64)
    p.add_argument("--steps", type=_positive_int, default=10)
    p.set_defaults(func=cmd_params)
    return parser


# numpy's overflow and invalid-value warnings, off while a command runs:
# _check_finite and psnr turn the values that raise them into exit 3.
# numpy's error state is per thread, so each thread that computes sets it.
_QUIET = {"over": "ignore", "invalid": "ignore"}


def _check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values in {what}")
    return arr


def _write_result(args, image: np.ndarray, default: str, what: str = "estimate",
                  bitdepth: int = 8) -> int:
    """Check ``image`` is finite, write it to ``--out`` (``default`` when not
    given) and say so."""
    _check_finite(image, what)
    out = args.out or default
    write_image(out, image, bitdepth=bitdepth)
    print(f"wrote {out}")
    return 0


# NoiseSpec field: its flag; a ``noise.<field>`` config key overrides the flag
_NOISE_FLAGS = {"kind": "--noise-kind", "sigma": "--sigma", "a_shot": "--a-shot",
                "b_read": "--b-read", "seed": "--seed"}


def _config(args) -> tuple:
    """``--config`` as a TrainConfig and a dict of NoiseSpec fields from its
    ``noise.*`` keys. Every command that reads the file checks all of it,
    whether it trains, draws noise or neither."""
    values = parse_config_file(args.config) if args.config else {}
    noise = {key[len("noise."):]: values.pop(key) for key in list(values)
             if key.startswith("noise.")}
    check_fields(NoiseSpec, noise, "noise.{}".format)
    return TrainConfig.from_dict(values), noise


def _noise_spec(args) -> NoiseSpec:
    """The noise of ``mosaic``. A value NoiseSpec rejects is a data error
    naming its flag, or its config key when the config set it."""
    values = _config(args)[1]
    fields = {}
    for field, flag in _NOISE_FLAGS.items():
        source = f"noise.{field}" if field in values else flag
        try:
            fields[field] = values.get(field, getattr(args, flag[2:].replace("-", "_")))
            NoiseSpec(**{field: fields[field]})  # each field is checked on its own
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None
    return NoiseSpec(**fields)


def _load_cascade(args) -> CascadeParams:
    params = load_model(args.model)
    if isinstance(params, ResDNetParams):
        raise ValueError(f"{args.model} is a denoiser checkpoint without a cascade schedule; "
                         "train a cascade from it with `demosaick train`")
    return params


def cmd_mosaic(args) -> int:
    image = read_image(args.input)
    if image.shape[2] != 3:
        raise FormatError("mosaic needs a 3-channel input")
    spec = _noise_spec(args)
    noisy = add_noise(image, spec)
    obs = mosaic(noisy, make_pattern(args.pattern))
    return _write_result(args, obs.data, "mosaic.npy", "observation", bitdepth=16)


def _read_observation(path, pattern_name: str) -> MosaicObservation:
    return MosaicObservation(data=read_image(path), pattern=make_pattern(pattern_name))


def cmd_demosaick(args) -> int:
    obs = _read_observation(args.input, args.pattern)
    params = _load_cascade(args)
    return _write_result(args, demosaick(obs, params), "demosaicked.ppm")


def cmd_bilinear(args) -> int:
    obs = _read_observation(args.input, args.pattern)
    return _write_result(args, bilinear_demosaick(obs), "bilinear.ppm")


def cmd_denoise(args) -> int:
    if not 0.0 <= args.sigma < np.inf:
        raise ValueError(f"--sigma must be finite and non-negative, got {args.sigma}")
    image = read_image(args.input)
    den = load_denoiser(args.model)
    return _write_result(args, denoise(image, args.sigma, den), "denoised.ppm")


def cmd_pretrain(args) -> int:
    cfg = _config(args)[0]
    images = load_dataset(args.data)
    params, _ = pretrain_denoiser(images, cfg)
    out = args.out or "denoiser.rdnc"
    save_model(params, out)
    print(f"wrote {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _config(args)[0]
    images = load_dataset(args.data)
    if args.model:
        init = load_denoiser(args.model)
    else:
        init = init_resdnet(cfg.depth, cfg.seed, cfg.num_filters)
    params, _ = train_joint(images, init, cfg)
    out = args.out or "cascade.rdnc"
    save_model(params, out)
    print(f"wrote {out}")
    return 0


def _eval_pairs(directory: Path) -> list:
    names = sorted(directory.iterdir())
    inputs = {}  # base -> the first-sorted name that starts with "<base>_input."
    for path in reversed(names):
        parts = path.name.split("_input.")
        inputs.update(("_input.".join(parts[:i]), path) for i in range(1, len(parts)))
    pairs = []
    for truth in (path for path in names if "_truth." in path.name):
        base = truth.name.split("_truth.")[0]
        if base not in inputs:
            raise FileNotFoundError(f"no observation found for {truth.name}")
        pairs.append((base, truth, inputs[base]))
    if not pairs:
        raise FileNotFoundError(f"no *_truth.* files in {directory}")
    return pairs


def cmd_eval(args) -> int:
    directory = Path(args.directory)
    pairs = _eval_pairs(directory)
    params = None
    if args.method == "model":
        params = _load_cascade(args)

    def run_one(item):
        with np.errstate(**_QUIET):
            base, truth_path, input_path = item
            truth = read_image(truth_path)
            obs = _read_observation(input_path, args.pattern)
            start = time.perf_counter()
            if params is None:
                est = bilinear_demosaick(obs)
            else:
                est = demosaick(obs, params)
            elapsed = time.perf_counter() - start
            _check_finite(est, f"estimate for {base}")
            lin = psnr(truth, est)
            srgb = psnr(linrgb_to_srgb(truth), linrgb_to_srgb(est))
            return (base, lin, srgb, elapsed)

    # Large convolutions also split into bands on tensor_core's shared pool:
    # conv2d's patch tiles, every other GEMM and col2im's adds. Each caller
    # runs its own first band and no band submits work, so these threads
    # cannot deadlock that pool.
    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        rows = list(pool.map(run_one, pairs))
    rows.sort(key=lambda r: r[0])

    def fmt(v):
        return "inf" if np.isinf(v) else f"{v:.4f}"

    print(f"{'image':<24}{'psnr_linrgb':>14}{'psnr_srgb':>12}{'runtime_s':>12}")
    for base, lin, srgb, elapsed in rows:
        print(f"{base:<24}{fmt(lin):>14}{fmt(srgb):>12}{elapsed:>12.4f}")
    mean_lin = float(np.mean([r[1] for r in rows]))
    mean_srgb = float(np.mean([r[2] for r in rows]))
    print(f"{'mean':<24}{fmt(mean_lin):>14}{fmt(mean_srgb):>12}")

    if args.out:
        with open(args.out, "w") as fh:
            fh.write("image,psnr_linrgb,psnr_srgb,runtime_s\n")
            for base, lin, srgb, elapsed in rows:
                fh.write(f"{base},{fmt(lin)},{fmt(srgb)},{elapsed:.6f}\n")
            fh.write(f"mean,{fmt(mean_lin)},{fmt(mean_srgb)},\n")
    return 0


def cmd_gradcheck(args) -> int:
    if not 0 <= args.seed <= MAX_SEED:  # the checks' models are keyed with seed + 1
        raise ValueError(f"--seed must be in [0, 2^128 - 2], got {args.seed}")
    errs = gc.run_all(seed=args.seed)
    worst = 0.0
    for key in sorted(errs):
        print(f"{key:<40}{errs[key]:.3e}")
        worst = max(worst, errs[key])
    print(f"{'worst':<40}{worst:.3e}")
    if worst >= gc.DEFAULT_TOL:
        print("FAIL: relative error above 1e-4", file=sys.stderr)
        return 3
    print("OK")
    return 0


def cmd_params(args) -> int:
    groups = parameter_breakdown(depth=args.depth, num_filters=args.filters, steps=args.steps)
    for key, count in groups.items():
        print(f"{key:<24}{count:>10}")
    total = groups["denoiser_total"]
    if (args.depth, args.filters, args.steps) == (5, 64, 10):
        rel = abs(total - PAPER_PARAM_TOTAL) / PAPER_PARAM_TOTAL
        print(f"reference total          {PAPER_PARAM_TOTAL:>10}  (deviation {rel:.4%})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "eval" and args.method == "model" and not args.model:
            parser.error("eval --method model requires --model")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        with np.errstate(**_QUIET):
            return args.func(args)
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:  # FormatError and ModelFormatError are ValueErrors
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
