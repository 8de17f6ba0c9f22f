"""Finite-difference verification of every analytic adjoint.

Each check builds a small random instance, forms the scalar loss
L = <c, op(...)> for a fixed random c, and compares the hand-written
backward pass against central finite differences. Each check is one
table of (analytic gradient, loss of one array, that array) entries run
through one comparison; a model parameter's loss rebuilds the model from
its flat parameters with that one array replaced. Used by the test suite
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


def _loss(c: np.ndarray, op):
    """The scalar loss a -> <c, op(a)>."""
    return lambda a: float((c * op(a)).sum())


def _errors(table: dict) -> dict:
    """{key: (analytic gradient, scalar loss of one array, that array)} ->
    {key: max_rel_error against central finite differences}."""
    return {
        key: max_rel_error(grad, numerical_gradient(f, np.array(a, dtype=np.float64)))
        for key, (grad, f, a) in table.items()
    }


# ---------------------------------------------------------------------------
# per-op checks


def _conv_table(name: str, op, op_backward, c, x, fb: FilterBank) -> dict:
    """The input, weights and bias entries of one convolution's check."""
    gx, gw, gb = op_backward(c, x, fb)
    return {
        f"{name}.input": (gx, _loss(c, lambda a: op(a, fb)), x),
        f"{name}.weights": (gw, _loss(c, lambda w: op(x, FilterBank(w, fb.bias))), fb.weights),
        f"{name}.bias": (gb, _loss(c, lambda b: op(x, FilterBank(fb.weights, b))), fb.bias),
    }


def check_tensor_ops(seed: int = 0) -> dict:
    gen = _gen(seed)

    def draw(*shape, lo=-1.0, hi=1.0):
        return gen.uniform(lo, hi, size=shape)

    x, c_pad = draw(5, 5, 2), draw(7, 7, 2)
    fb = FilterBank(draw(3, 2, 3, 3), draw(3))
    c = draw(5, 5, 3)
    xt = draw(5, 5, 3)
    fbt = FilterBank(draw(3, 2, 3, 3), draw(2))
    ct = draw(5, 5, 2)
    slopes, cp = draw(2, lo=0.1, hi=0.5), draw(5, 5, 2)
    # keep samples away from the clip bounds so FD sees a smooth function
    xc = draw(5, 5, 2, lo=-0.8, hi=1.8)
    xc = np.where(np.abs(xc) < 0.05, 0.2, xc)
    xc = np.where(np.abs(xc - 1.0) < 0.05, 0.8, xc)
    cc = draw(5, 5, 2)
    u, s = draw(3, 2, 3, 3), draw(3, lo=0.5, hi=2.0)
    cm = draw(3, 2, 3, 3)
    # projection, exterior branch (norm > eps) including gamma and sigma
    e, sigma, gamma = draw(4, 4, 3) * 10.0, 0.1, 0.2
    cpr = draw(4, 4, 3)

    g_prelu, g_slopes = prelu_backward(cp, x, slopes)
    gu, gs = materialize_weights_backward(cm, u, s)
    ge, g_gamma, g_sigma = project_noise_backward(cpr, e, sigma, gamma)
    return _errors({
        "reflexive_pad.input": (_pad_reflect_adjoint(c_pad, *x.shape[:2], 1),
                                _loss(c_pad, lambda a: _pad_reflect(a, 1)), x),
        **_conv_table("conv2d", conv2d, conv2d_backward, c, x, fb),
        **_conv_table("conv_transpose2d", conv_transpose2d, conv_transpose2d_backward, ct, xt, fbt),
        "prelu.input": (g_prelu, _loss(cp, lambda a: prelu(a, slopes)), x),
        "prelu.slopes": (g_slopes, _loss(cp, lambda k: prelu(x, k)), slopes),
        "clip.input": (clip_backward(cc, xc, 0.0, 1.0), _loss(cc, lambda a: clip(a, 0.0, 1.0)), xc),
        "materialize.u": (gu, _loss(cm, lambda a: materialize_weights(a, s)), u),
        "materialize.s": (gs, _loss(cm, lambda a: materialize_weights(u, a)), s),
        "project.e": (ge, _loss(cpr, lambda a: project_noise(a, sigma, gamma)), e),
        "project.gamma": (g_gamma, _loss(cpr, lambda g: project_noise(e, sigma, float(g))), gamma),
        "project.sigma": (g_sigma, _loss(cpr, lambda sg: project_noise(e, float(sg), gamma)), sigma),
    })


def _param_table(params, grads: dict, loss) -> dict:
    """One entry per flattened parameter of ``params``: ``loss`` of the
    model rebuilt from the flat parameters with that one array replaced."""
    flat = params.flatten()
    return {
        key: (grads[key], lambda a, k=key: loss(type(params).from_flat({**flat, k: a})), val)
        for key, val in flat.items()
    }


def check_resdnet(seed: int = 0, interior: bool = False) -> dict:
    """Full-network check on a D = 1, 8-filter, 8x8 instance.

    interior=True raises sigma until the projection ball contains the
    residual (identity branch); otherwise the residual is projected (the
    branch with live gamma/sigma gradients).
    """
    gen = _gen(seed)
    params = init_resdnet(depth=1, seed=seed + 1, num_filters=8)
    sigma = 1e4 if interior else 2.0
    x = gen.uniform(40, 215, size=(8, 8, 3))
    c = gen.uniform(-1, 1, size=(8, 8, 3))

    _, cache = resdnet_forward(x, sigma, params)
    g_x, grads, g_sigma = resdnet_backward(c, cache, params)

    def loss(p, xin=x, sig=sigma):
        return float((c * resdnet_forward(xin, float(sig), p)[0]).sum())

    return _errors({
        "input": (g_x, lambda a: loss(params, xin=a), x),
        "sigma": (g_sigma, lambda sg: loss(params, sig=sg), sigma),
        **_param_table(params, filter_grads(grads, params), loss),
    })


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

    grads = demosaick_backward(c, demosaick_forward(y, cp)[1], cp)
    return _errors(_param_table(cp, grads, _loss(c, lambda p: demosaick(y, p))))


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
