"""Finite-difference verification of every analytic adjoint.

Each check builds a small random instance, forms the scalar loss
L = <c, op(...)> for a fixed random c, and compares the hand-written
backward pass against central finite differences. Used by the test suite
and the `gradcheck` CLI subcommand.
"""
from __future__ import annotations

import numpy as np

from .cascade import (
    CascadeParams,
    demosaick,
    demosaick_backward,
    demosaick_forward,
    init_schedule,
)
from .cfa import make_pattern, mosaic
from .resdnet import (
    filter_grads,
    init_resdnet,
    materialize_weights,
    materialize_weights_backward,
    project_noise,
    project_noise_backward,
    resdnet_backward,
    resdnet_forward,
)
from .tensor_core import (
    FilterBank,
    _pad_reflect,
    _pad_reflect_adjoint,
    clip,
    clip_backward,
    conv2d,
    conv2d_backward,
    conv_transpose2d,
    conv_transpose2d_backward,
    prelu,
    prelu_backward,
)

DEFAULT_TOL = 1e-4
TENSOR_TOL = 1e-6


def numerical_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. one array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        step = h * max(1.0, abs(orig))
        flat[i] = orig + step
        fp = f(x)
        flat[i] = orig - step
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return g


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-4) -> float:
    """Max elementwise |a - n| / max(|a|, |n|, floor)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float((np.abs(a - n) / denom).max())


def _gen(seed):
    return np.random.Generator(np.random.Philox(key=seed))


# ---------------------------------------------------------------------------
# per-op checks


def check_tensor_ops(seed: int = 0) -> dict:
    gen = _gen(seed)
    errs = {}
    x = gen.uniform(-1, 1, size=(5, 5, 2))
    c_pad = gen.uniform(-1, 1, size=(7, 7, 2))
    gx = _pad_reflect_adjoint(c_pad, *x.shape[:2], 1)
    num = numerical_gradient(lambda a: float((c_pad * _pad_reflect(a, 1)).sum()), x.copy())
    errs["reflexive_pad.input"] = max_rel_error(gx, num)

    fb = FilterBank(gen.uniform(-1, 1, size=(3, 2, 3, 3)), gen.uniform(-1, 1, size=3))
    c = gen.uniform(-1, 1, size=(5, 5, 3))
    gx, gw, gb = conv2d_backward(c, x, fb)
    errs["conv2d.input"] = max_rel_error(
        gx, numerical_gradient(lambda a: float((c * conv2d(a, fb)).sum()), x.copy())
    )
    errs["conv2d.weights"] = max_rel_error(
        gw,
        numerical_gradient(
            lambda w: float((c * conv2d(x, FilterBank(w, fb.bias))).sum()), fb.weights.copy()
        ),
    )
    errs["conv2d.bias"] = max_rel_error(
        gb,
        numerical_gradient(
            lambda b: float((c * conv2d(x, FilterBank(fb.weights, b))).sum()), fb.bias.copy()
        ),
    )

    xt = gen.uniform(-1, 1, size=(5, 5, 3))
    fbt = FilterBank(gen.uniform(-1, 1, size=(3, 2, 3, 3)), gen.uniform(-1, 1, size=2))
    ct = gen.uniform(-1, 1, size=(5, 5, 2))
    gx, gw, gb = conv_transpose2d_backward(ct, xt, fbt)
    errs["conv_transpose2d.input"] = max_rel_error(
        gx, numerical_gradient(lambda a: float((ct * conv_transpose2d(a, fbt)).sum()), xt.copy())
    )
    errs["conv_transpose2d.weights"] = max_rel_error(
        gw,
        numerical_gradient(
            lambda w: float((ct * conv_transpose2d(xt, FilterBank(w, fbt.bias))).sum()),
            fbt.weights.copy(),
        ),
    )
    errs["conv_transpose2d.bias"] = max_rel_error(
        gb,
        numerical_gradient(
            lambda b: float((ct * conv_transpose2d(xt, FilterBank(fbt.weights, b))).sum()),
            fbt.bias.copy(),
        ),
    )

    slopes = gen.uniform(0.1, 0.5, size=2)
    cp = gen.uniform(-1, 1, size=(5, 5, 2))
    gx, gk = prelu_backward(cp, x, slopes)
    errs["prelu.input"] = max_rel_error(
        gx, numerical_gradient(lambda a: float((cp * prelu(a, slopes)).sum()), x.copy())
    )
    errs["prelu.slopes"] = max_rel_error(
        gk, numerical_gradient(lambda k: float((cp * prelu(x, k)).sum()), slopes.copy())
    )

    # keep samples away from the clip bounds so FD sees a smooth function
    xc = gen.uniform(-0.8, 1.8, size=(5, 5, 2))
    xc = np.where(np.abs(xc) < 0.05, 0.2, xc)
    xc = np.where(np.abs(xc - 1.0) < 0.05, 0.8, xc)
    cc = gen.uniform(-1, 1, size=(5, 5, 2))
    gx = clip_backward(cc, xc, 0.0, 1.0)
    errs["clip.input"] = max_rel_error(
        gx, numerical_gradient(lambda a: float((cc * clip(a, 0.0, 1.0)).sum()), xc.copy())
    )

    u = gen.uniform(-1, 1, size=(3, 2, 3, 3))
    s = gen.uniform(0.5, 2.0, size=3)
    cm = gen.uniform(-1, 1, size=(3, 2, 3, 3))
    gu, gs = materialize_weights_backward(cm, u, s)
    errs["materialize.u"] = max_rel_error(
        gu, numerical_gradient(lambda a: float((cm * materialize_weights(a, s)).sum()), u.copy())
    )
    errs["materialize.s"] = max_rel_error(
        gs, numerical_gradient(lambda a: float((cm * materialize_weights(u, a)).sum()), s.copy())
    )

    # projection, exterior branch (norm > eps) including gamma and sigma
    e = gen.uniform(-1, 1, size=(4, 4, 3)) * 10.0
    sigma, gamma = 0.1, 0.2
    cpr = gen.uniform(-1, 1, size=(4, 4, 3))
    ge, ggamma, gsigma = project_noise_backward(cpr, e, sigma, gamma)
    errs["project.e"] = max_rel_error(
        ge, numerical_gradient(lambda a: float((cpr * project_noise(a, sigma, gamma)).sum()), e.copy())
    )
    num_gamma = numerical_gradient(
        lambda g: float((cpr * project_noise(e, sigma, float(g))).sum()), np.asarray(gamma)
    )
    errs["project.gamma"] = max_rel_error(np.asarray(ggamma), num_gamma)
    num_sigma = numerical_gradient(
        lambda sg: float((cpr * project_noise(e, float(sg), gamma)).sum()), np.asarray(sigma)
    )
    errs["project.sigma"] = max_rel_error(np.asarray(gsigma), num_sigma)
    return errs


def check_resdnet(seed: int = 0, interior: bool = False) -> dict:
    """Full-network check on a D = 1, 8-filter, 8x8 instance.

    interior=True raises sigma until the projection ball contains the
    residual (identity branch); otherwise the residual is projected (the
    branch with live gamma/sigma gradients).
    """
    gen = _gen(seed)
    params = init_resdnet(depth=1, seed=seed + 1, num_filters=8)
    sigma = 2.0
    if interior:
        sigma = 1e4
    x = gen.uniform(40, 215, size=(8, 8, 3))
    c = gen.uniform(-1, 1, size=(8, 8, 3))

    out, cache = resdnet_forward(x, sigma, params)
    g_x, grads, g_sigma = resdnet_backward(c, cache, params)
    grads = filter_grads(grads, params)

    flat = params.flatten()
    errs = {}

    def run(override_key=None, value=None, xin=None, sig=None):
        f = dict(flat)
        if override_key is not None:
            f[override_key] = value
        p = type(params).from_flat(f, params.depth)
        o, _ = resdnet_forward(x if xin is None else xin, sigma if sig is None else float(sig), p)
        return float((c * o).sum())

    errs["input"] = max_rel_error(g_x, numerical_gradient(lambda a: run(xin=a), x.copy()))
    errs["sigma"] = max_rel_error(
        np.asarray(g_sigma), numerical_gradient(lambda sg: run(sig=sg), np.asarray(sigma))
    )
    for key, val in flat.items():
        num = numerical_gradient(lambda a, k=key: run(override_key=k, value=a), val.copy())
        errs[key] = max_rel_error(grads[key], num)
    return errs


def check_cascade(seed: int = 0, steps: int = 3) -> dict:
    """Finite-difference check of BPTT through a K-step cascade."""
    gen = _gen(seed)
    params = init_resdnet(depth=1, seed=seed + 1, num_filters=8)
    w, sigmas = init_schedule(steps, 15.0, 1.0)
    w = w + 0.1  # make every weight, including w_1, carry gradient
    cp = CascadeParams(denoiser=params, w=w, sigmas=sigmas)

    clean = gen.uniform(40, 215, size=(8, 8, 3))
    y = mosaic(clean, make_pattern("bayer_rggb"))
    c = gen.uniform(-1, 1, size=(8, 8, 3))

    est, traj = demosaick_forward(y, cp)
    grads = demosaick_backward(c, traj, cp)

    flat = cp.flatten()
    errs = {}

    def run(key, value):
        f = dict(flat)
        f[key] = value
        p = CascadeParams.from_flat(f, params.depth)
        return float((c * demosaick(y, p)).sum())

    for key, val in flat.items():
        num = numerical_gradient(lambda a, k=key: run(k, a), val.copy())
        errs[key] = max_rel_error(grads[key], num)
    return errs


def run_all(seed: int = 0) -> dict:
    """Every suite; keys are prefixed by suite name."""
    out = {}
    for name, errs in (
        ("tensor", check_tensor_ops(seed)),
        ("resdnet", check_resdnet(seed)),
        ("resdnet_interior", check_resdnet(seed, interior=True)),
        ("cascade", check_cascade(seed)),
    ):
        for k, v in errs.items():
            out[f"{name}.{k}"] = v
    return out
