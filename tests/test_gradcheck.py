from demosaick import gradcheck as gc

TENSOR = [
    "reflexive_pad.input",
    *(f"{op}.{arg}" for op in ("conv2d", "conv_transpose2d") for arg in ("input", "weights", "bias")),
    "prelu.input", "prelu.slopes", "clip.input", "materialize.u", "materialize.s",
    "project.e", "project.gamma", "project.sigma",
]
DENOISER = [
    "head.u", "head.s", "head.bias",
    *(f"block0{i}.{p}" for i in (0, 1) for p in ("u", "s", "bias", "kappa")),
    "tail.u", "tail.s", "tail.bias", "gamma",
]


def test_run_all_checks_every_adjoint():
    """A dropped check fails here, not silently in the tests that loop over
    whatever keys come back."""
    expected = (
        [f"tensor.{k}" for k in TENSOR]
        + [f"{suite}.{k}" for suite in ("resdnet", "resdnet_interior")
           for k in ("input", "sigma", *DENOISER)]
        + [f"cascade.{k}" for k in (*DENOISER, "cascade.w", "cascade.sigmas")]
    )
    assert len(expected) == 66
    assert sorted(gc.run_all(seed=0)) == sorted(expected)
