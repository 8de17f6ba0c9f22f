"""What a cascade trajectory keeps for backpropagation through time,
measured by ``retained_bytes``, the measure behind the benchmark's
``cascade.trajectory_mib``, and what inference keeps: nothing past the
step it is in."""
import tracemalloc

import numpy as np

from demosaick.cascade import CascadeParams, demosaick, demosaick_forward, init_schedule
from demosaick.cfa import make_pattern, mosaic
from demosaick.resdnet import init_resdnet


def test_step_keeps_prelu_inputs_and_tail_input_only(load):
    D, F, K, H, W = 2, 8, 3, 16, 16
    w, sigmas = init_schedule(K, 15.0, 1.0)
    cp = CascadeParams(init_resdnet(D, seed=0, num_filters=F), w, sigmas)
    gen = np.random.Generator(np.random.Philox(key=1))
    y = mosaic(gen.uniform(0, 255, size=(H, W, 3)), make_pattern("bayer_rggb"))
    _, traj = demosaick_forward(y, cp)

    # per step: the 2D PReLU inputs and the tail input
    f_channel = K * (2 * D + 1) * F * H * W * 8
    # the K + 2 states, the observation, and per step the denoiser's
    # input and its residual
    three_channel = ((K + 2) + 1 + 2 * K) * 3 * H * W * 8
    retained = load("perfbench/spans.py").retained_bytes(traj)
    assert retained == f_channel + three_channel + y.pattern.cell.nbytes


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _inference_peak(depth: int, num_filters: int, y) -> int:
    """Peak bytes of one ``demosaick`` call of a 4-step cascade of the given
    depth and width, its filters materialized beforehand."""
    den = init_resdnet(depth, seed=0, num_filters=num_filters)
    cp = CascadeParams(den, *init_schedule(4, 15.0, 1.0))
    demosaick(y, cp)
    return _peak_bytes(lambda: demosaick(y, cp))


def test_inference_holds_one_step():
    """The peak of a K-step ``demosaick`` stays within half a step's cache
    of a one-step cascade's peak, one step's working set; a cache kept
    across steps adds a whole one per step. Nor does it grow with depth:
    at D=5 it stays within one F-channel image of the peak at D=1, where a
    step that kept every PReLU input would add eight."""
    D, F, K, H, W = 2, 8, 6, 32, 32
    w, sigmas = init_schedule(K, 15.0, 1.0)
    den = init_resdnet(D, seed=0, num_filters=F)
    cp, one = CascadeParams(den, w, sigmas), CascadeParams(den, w[:1], sigmas[:1])
    gen = np.random.Generator(np.random.Philox(key=2))
    y = mosaic(gen.uniform(0, 255, size=(H, W, 3)), make_pattern("bayer_rggb"))
    demosaick(y, cp)  # materialize the shared filters outside the measurement

    step_cache = (2 * D + 1) * F * H * W * 8
    bound = _peak_bytes(lambda: demosaick(y, one)) + step_cache // 2
    assert _peak_bytes(lambda: demosaick(y, cp)) <= bound
    assert _peak_bytes(lambda: demosaick_forward(y, cp)) > bound + (K - 2) * step_cache

    y = mosaic(gen.uniform(0, 255, size=(64, 64, 3)), make_pattern("bayer_rggb"))
    assert _inference_peak(5, F, y) <= _inference_peak(1, F, y) + F * 64 * 64 * 8
