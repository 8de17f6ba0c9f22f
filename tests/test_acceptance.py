"""Acceptance gate: nine measured criteria, one pass/fail line each.

Criteria 6, 7 and 9 run the desk-scale experiment as its scripts do
(depth 1, 8 filters, 32x32 patches, 60 synthetic images):
``scripts/run_pretrain.py`` once, then ``scripts/run_joint.py`` twice
noise-free, so that criterion 9 can compare the two model files byte for
byte, and once with ``--train-sigma 10``. Every file the scripts write
goes to a temporary directory.
"""
import math
import time

import numpy as np
import pytest

from demosaick import gradcheck as gc
from demosaick.cascade import init_schedule
from demosaick.cfa import make_pattern, mosaic
from demosaick.cli import main
from demosaick.mm_reference import (
    mm_reference_iterate,
    objective_value,
    surrogate_value,
)
from demosaick.resdnet import materialize_weights, project_noise


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


# ---------------------------------------------------------------------------
# the desk-scale experiment scripts (module scoped, each run once)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("experiment")


def _run(load, script: str, workdir, name: str, *args: str):
    """Run ``scripts/<script>.py`` with its model file and log in ``workdir``;
    returns the model file's path and what the script measured."""
    out = workdir / f"{name}.rdnc"
    measured = load(f"scripts/{script}.py").main(
        [*args, "--out", str(out), "--log", str(workdir / f"{name}_log.csv")])
    return out, measured


@pytest.fixture(scope="module")
def pretrained(load, workdir):
    return _run(load, "run_pretrain", workdir, "denoiser")


@pytest.fixture(scope="module")
def joint_clean_runs(load, workdir, pretrained):
    init = ("--init", str(pretrained[0]))
    return [_run(load, "run_joint", workdir, f"clean{i}", *init) for i in (1, 2)]


@pytest.fixture(scope="module")
def joint_noisy_run(load, workdir, pretrained):
    return _run(load, "run_joint", workdir, "noisy", "--init", str(pretrained[0]),
                "--train-sigma", "10")


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    errs = gc.run_all(seed=0)
    elapsed = time.perf_counter() - start
    worst = max(errs.values())
    report(1, "gradient correctness", worst < 1e-4 and elapsed < 60.0,
           f"worst rel err {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_majorizer_validity():
    start = time.perf_counter()
    gen = rng(100)
    pattern = make_pattern("bayer_rggb")
    ok = True
    for trial in range(1050):
        alpha = (1.1, 2.0, 10.0)[trial % 3]
        sigma = float(gen.uniform(1.0, 20.0))
        clean = gen.uniform(0, 255, size=(2, 2, 3))
        y = mosaic(clean, pattern, sigma=sigma)
        x0 = gen.uniform(0, 255, size=(2, 2, 3))
        x = gen.uniform(0, 255, size=(2, 2, 3))
        q0 = objective_value(x0, y, sigma, 1e-3)
        touch = abs(surrogate_value(x0, x0, y, sigma, alpha, 1e-3) - q0)
        ok &= touch <= 1e-10 * max(1.0, abs(q0))
        ok &= surrogate_value(x, x0, y, sigma, alpha, 1e-3) > objective_value(x, y, sigma, 1e-3)

    # alpha = 0.5 violates the bound when only sampled positions move
    clean = gen.uniform(0, 255, size=(2, 2, 3))
    y = mosaic(clean, pattern, sigma=5.0)
    x0 = gen.uniform(0, 255, size=(2, 2, 3))
    x = x0 + 10.0 * pattern.mask(2, 2)
    violated = surrogate_value(x, x0, y, 5.0, 0.5, 1e-3) < objective_value(x, y, 5.0, 1e-3)
    elapsed = time.perf_counter() - start
    report(2, "majorizer validity", ok and violated and elapsed < 5.0,
           f"1050 instances, counterexample {'found' if violated else 'missing'}, {elapsed:.1f}s")


def test_criterion_3_mm_descent_and_limit():
    start = time.perf_counter()
    gen = rng(200)
    pattern = make_pattern("bayer_rggb")
    descent_ok = True
    for _ in range(100):
        clean = gen.uniform(0, 255, size=(2, 2, 3))
        y = mosaic(clean, pattern, sigma=5.0)
        alpha = float(gen.uniform(1.05, 10.0))
        lam = float(gen.uniform(0.0, 1e-2))
        sigma = float(gen.uniform(1.0, 20.0))
        iterates = mm_reference_iterate(y, sigma, alpha, lam, 25)
        values = [objective_value(x, y, sigma, lam) for x in iterates]
        descent_ok &= bool(np.all(np.diff(values) <= 1e-9 * np.maximum(1.0, np.abs(values[:-1]))))

    limit_ok = True
    for _ in range(10):
        clean = gen.uniform(0, 255, size=(2, 2, 3))  # 4 pixels <= 16
        y = mosaic(clean, pattern, sigma=5.0)
        alpha = float(gen.uniform(1.1, 3.0))
        lam = float(gen.uniform(1e-2, 1e-1))
        sigma = float(gen.uniform(2.0, 10.0))
        x_inf = mm_reference_iterate(y, sigma, alpha, lam, 2000)[-1]
        mask = np.diag(y.pattern.mask(2, 2).ravel())
        A = mask / sigma ** 2 + 2.0 * lam * np.eye(12)
        dense = np.linalg.solve(A, y.data.ravel() / sigma ** 2).reshape(2, 2, 3)
        limit_ok &= bool(np.allclose(x_inf, dense, atol=1e-8))
    elapsed = time.perf_counter() - start
    report(3, "MM descent and limit", descent_ok and limit_ok and elapsed < 10.0,
           f"descent {descent_ok}, dense match {limit_ok}, {elapsed:.1f}s")


def test_criterion_4_structural_identities():
    start = time.perf_counter()
    gen = rng(300)
    ok = True
    for name in ("bayer_rggb", "bayer_grbg", "bayer_gbrg", "bayer_bggr", "xtrans"):
        p = make_pattern(name)
        x = gen.uniform(0, 255, size=(12, 12, 3))
        once = mosaic(x, p)
        ok &= bool(np.array_equal(once.data, mosaic(once.data, p).data))
        from demosaick.cfa import data_consistency
        u = gen.uniform(0, 255, size=(12, 12, 3))
        z = data_consistency(u, once)
        m = p.mask(12, 12)
        ok &= bool(np.array_equal(z[m > 0], once.data[m > 0]))
        ok &= bool(np.array_equal(z[m == 0], u[m == 0]))

    for _ in range(50):
        e = gen.normal(size=(6, 6, 3)) * gen.uniform(0.1, 100)
        sigma, gamma = float(gen.uniform(0.5, 30)), float(gen.uniform(-1, 1))
        out = project_noise(e, sigma, gamma)
        eps = math.exp(gamma) * sigma * math.sqrt(e.size - 1)
        ok &= bool(np.linalg.norm(out) <= eps + 1e-9)
        if np.linalg.norm(e) <= eps:
            ok &= bool(np.array_equal(out, e))

    u = gen.normal(size=(8, 3, 5, 5))
    s = gen.uniform(-2, 2, size=8)
    v = materialize_weights(u, s)
    ok &= bool(np.all(np.abs(v.mean(axis=(1, 2, 3))) < 1e-12))
    norms = np.sqrt((v ** 2).sum(axis=(1, 2, 3)))
    ok &= bool(np.all(np.abs(norms - np.abs(s)) < 1e-10))
    elapsed = time.perf_counter() - start
    report(4, "structural identities", ok and elapsed < 5.0, f"{elapsed:.1f}s")


def test_criterion_5_schedule_reproduction():
    start = time.perf_counter()
    w, sigmas = init_schedule(10, 15.0, 1.0)
    i = np.arange(1, 11, dtype=float)
    ok = bool(np.array_equal(w, (i - 1) / (i + 2)))
    ok &= sigmas[0] == 15.0 and abs(sigmas[-1] - 1.0) < 1e-12
    elapsed = time.perf_counter() - start
    report(5, "schedule reproduction", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_6_desk_scale_pretraining(pretrained):
    measured = pretrained[1]
    gain, elapsed = measured["gain_db"], measured["train_s"]
    report(6, "desk-scale pretraining", gain >= 1.0 and elapsed < 900.0,
           f"denoising gain {gain:+.2f} dB at sigma 15, {elapsed:.0f}s")


def test_criterion_7_desk_scale_joint(joint_clean_runs, joint_noisy_run):
    (_, first), (_, second) = joint_clean_runs
    noisy = joint_noisy_run[1]
    total = (first["train_s"] + second["train_s"]) / 2 + noisy["train_s"]
    ok = first["margin_db"] >= 1.0 and noisy["margin_db"] >= 2.0 and total < 3600.0
    report(7, "desk-scale joint training", ok,
           f"vs bilinear {first['margin_db']:+.2f} dB noise-free, "
           f"{noisy['margin_db']:+.2f} dB at sigma 10, {total:.0f}s")


def test_criterion_8_parameter_audit(capsys):
    assert main(["params", "--depth", "5", "--filters", "64", "--steps", "10"]) == 0
    out = capsys.readouterr().out
    total = None
    for line in out.splitlines():
        if line.startswith("denoiser_total"):
            total = int(line.split()[-1])
    ok = total is not None and abs(total - 380356) / 380356 <= 0.005
    report(8, "parameter audit", ok, f"breakdown total {total} vs 380356")


def test_criterion_9_determinism(joint_clean_runs):
    (first, _), (second, _) = joint_clean_runs
    identical = first.read_bytes() == second.read_bytes()
    report(9, "determinism", identical,
           f"model files byte-identical: {identical}")
