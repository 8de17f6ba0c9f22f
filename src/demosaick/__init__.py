"""Joint demosaicking and denoising of raw CFA images via an unrolled
majorization-minimization cascade around a residual denoising network."""

from .cascade import CascadeParams, Trajectory, demosaick_backward, demosaick_forward, init_schedule
from .cfa import (
    CfaPattern,
    MosaicObservation,
    bilinear_demosaick,
    data_consistency,
    make_pattern,
    mosaic,
)
from .metrics import linrgb_to_srgb, psnr
from .modelfile import load_model, save_model
from .noise import NoiseSpec, add_noise
from .resdnet import (
    ResDNetParams,
    denoiser_banks,
    filter_grads,
    init_resdnet,
    materialize_weights,
    parameter_breakdown,
    project_noise,
    resdnet_backward,
    resdnet_forward,
)
from .training import TrainConfig, adam_step, loss, pretrain_denoiser, train_joint

__all__ = [
    "CascadeParams",
    "CfaPattern",
    "MosaicObservation",
    "NoiseSpec",
    "ResDNetParams",
    "TrainConfig",
    "Trajectory",
    "adam_step",
    "add_noise",
    "bilinear_demosaick",
    "data_consistency",
    "demosaick_backward",
    "demosaick_forward",
    "denoiser_banks",
    "filter_grads",
    "init_resdnet",
    "init_schedule",
    "linrgb_to_srgb",
    "load_model",
    "loss",
    "make_pattern",
    "materialize_weights",
    "mosaic",
    "parameter_breakdown",
    "pretrain_denoiser",
    "project_noise",
    "psnr",
    "resdnet_backward",
    "resdnet_forward",
    "save_model",
    "train_joint",
]
