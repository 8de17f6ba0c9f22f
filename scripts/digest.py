#!/usr/bin/env python3
"""Print one ``name sha256`` line per artifact of a fixed set of runs, so
that two source trees can be shown to compute the same bits:

    python3 scripts/digest.py > change.txt
    PYTHONPATH=/path/to/other/checkout/src python3 scripts/digest.py > other.txt
    cmp change.txt other.txt

The artifacts are:
- ``demosaick gradcheck`` stdout at seeds 0 and 3;
- ``demosaick params`` stdout at the defaults and at depth 1, 4 filters,
  3 steps;
- saved ``init_resdnet`` model files at (D, F, seed) = (1, 8, 0),
  (2, 4, 3) and (5, 64, 0);
- a short pretraining (D=2, F=4) plus joint training (X-Trans, K=3,
  sigma 5) run: both lists of log rows and both saved model files;
- one 64x64 X-Trans image at paper scale (D=5, F=64, K=10): the
  ``demosaick`` and ``demosaick_forward`` estimates, the
  ``demosaick_backward`` gradients and one ``resdnet_backward``;
- the paper-scale ``demosaick`` estimate of one 37x53 Bayer image, whose
  odd size puts band and tile edges where no square image does.

It calls only public functions of the package, so the same file runs
against older source trees. It checks in no expected hashes: BLAS builds
may differ in the last bit, so compare two trees on one machine. The
whole run takes well under a minute on one core.
"""
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

# appended, not prepended, so that a PYTHONPATH checkout takes precedence
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from demosaick.cascade import (  # noqa: E402
    CascadeParams,
    demosaick,
    demosaick_backward,
    demosaick_forward,
    init_schedule,
)
from demosaick.cfa import make_pattern, mosaic  # noqa: E402
from demosaick.cli import main as cli_main  # noqa: E402
from demosaick.datagen import make_dataset  # noqa: E402
from demosaick.modelfile import save_model  # noqa: E402
from demosaick.resdnet import init_resdnet, resdnet_backward  # noqa: E402
from demosaick.training import TrainConfig, pretrain_denoiser, train_joint  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _arrays(named: dict) -> str:
    """One digest over arrays sorted by name: each name, shape and the
    float64 bytes."""
    h = hashlib.sha256()
    for name, value in sorted(named.items()):
        arr = np.ascontiguousarray(value, dtype=np.float64)
        h.update(f"{name} {arr.shape}\n".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _rows(rows: list) -> str:
    return _sha(repr([tuple(float(v) for v in row) for row in rows]).encode())


def _model_file(params) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.rdnc"
        save_model(params, path)
        return _sha(path.read_bytes())


def _stdout(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return _sha(f"{out.getvalue()}exit {code}\n".encode())


def gradcheck() -> list:
    return [(f"gradcheck.seed{s}", _stdout(["gradcheck", "--seed", str(s)])) for s in (0, 3)]


def params() -> list:
    return [("params.default", _stdout(["params"])),
            ("params.d1f4k3", _stdout(["params", "--depth", "1", "--filters", "4",
                                       "--steps", "3"]))]


def init() -> list:
    return [(f"init.d{d}f{f}s{s}", _model_file(init_resdnet(d, seed=s, num_filters=f)))
            for d, f, s in ((1, 8, 0), (2, 4, 3), (5, 64, 0))]


def train() -> list:
    images = make_dataset(6, seed=4, height=32, width=32)
    common = dict(patch_size=18, batch_size=2, lr=1e-2, lr_decay_every=1, epochs=2,
                  steps_per_epoch=3)
    den, pre_rows = pretrain_denoiser(images, TrainConfig(depth=2, num_filters=4, seed=1,
                                                          **common))
    cas, joint_rows = train_joint(images, den, TrainConfig(steps=3, pattern="xtrans",
                                                           train_sigma=5.0, seed=2, **common))
    return [("pretrain.log", _rows(pre_rows)), ("pretrain.model", _model_file(den)),
            ("joint.log", _rows(joint_rows)), ("joint.model", _model_file(cas))]


def paper() -> list:
    clean = make_dataset(1, seed=9, height=64, width=64)[0][1]
    obs = mosaic(clean, make_pattern("xtrans"))
    cas = CascadeParams(init_resdnet(5, seed=0, num_filters=64), *init_schedule(10, 15.0, 1.0))
    est = demosaick(obs, cas)
    est_fwd, traj = demosaick_forward(obs, cas)
    grad = np.sign(est_fwd - clean) / clean.size
    g_x, g_params, g_sigma = resdnet_backward(grad, traj.caches[-1], cas.denoiser)
    odd = mosaic(make_dataset(1, seed=9, height=37, width=53)[0][1], make_pattern("bayer_rggb"))
    return [("paper.demosaick", _arrays({"estimate": est})),
            ("paper.demosaick_forward", _arrays({"estimate": est_fwd})),
            ("paper.demosaick_backward", _arrays(demosaick_backward(grad, traj, cas))),
            ("paper.resdnet_backward", _arrays({**g_params, "input": g_x, "sigma": g_sigma})),
            ("paper.demosaick_37x53", _arrays({"estimate": demosaick(odd, cas)}))]


def main() -> None:
    for part in (gradcheck, params, init, train, paper):
        for name, digest in part():
            print(f"{name} {digest}", flush=True)


if __name__ == "__main__":
    main()
