#!/usr/bin/env python3
"""Benchmark of the demosaick package: cascade inference and training.

One workload, one process, one client in a closed loop:

    python3 perfbench/run.py --workload infer-paper --seed 1 --seconds 25 --trace 0

Every workload, each in its own process, untraced and then traced, with a
table of every metric and the determinism checks (``--smoke``: tiny sizes):

    python3 perfbench/run.py [--smoke]

With ``--trace 0`` a run reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run's record (environment, quality fingerprint, samples), which
also goes to ``perfbench/runs/``. Workloads and metrics are described in
``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / "perfbench" / "runs"
WORKLOADS = ("infer-paper", "train-desk", "train-paper")
SETUP_REPS = 5
CAL_REF_S = 0.05  # calibration time that defines the reference CPU speed

# (name, unit) of the end-to-end metrics, in report order
END_TO_END = (("setup_s", "s"), ("mpix_s", "Mpx/s"), ("item_s_mean", "s"), ("peak_rss_mib", "MiB"))
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _limit_blas_threads() -> int:
    """One BLAS thread, so the one client runs on one CPU and leaves the
    others to the rest of the host: a BLAS thread that waits for a CPU
    stalls every GEMM it takes part in. Must run before numpy loads."""
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    return 1


def _import_program():
    src = ROOT / "src"
    if not (src / "demosaick" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src / 'demosaick'}; run from the repository root")
    sys.path.insert(0, str(src))


# ---------------------------------------------------------------------------
# environment record


def environment(seed: int, workload: str, scale: str, blas_threads: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "nproc": _cpu_count(),
        "cpu_model": cpu,
    }


# ---------------------------------------------------------------------------
# one workload


def _peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted and failed operations; a failure never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args):
        """(result, seconds); result is None when fn raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:  # an operation failed; count it and carry on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None, time.perf_counter() - start
        return out, time.perf_counter() - start


class Calibration:
    """Fixed work, run between timed operations, that slows down the way the
    workload's own work does: a pure-Python loop for a workload bound by
    per-call Python overhead, or a 64-channel 3x3 convolution through
    ``einsum`` for a BLAS-bound one. The CPU speed a shared host gives this
    process drifts by tens of percent over seconds to minutes, and the
    calibration drifts with it. An operation's wall time times CAL_REF_S
    over the mean of the calibrations just before and after it is its time
    at a fixed reference speed."""

    def __init__(self, kind: str):
        import numpy as np

        rng = np.random.default_rng(0)
        x, w = rng.standard_normal((34, 34, 64)), rng.standard_normal((64, 64, 3, 3))
        patches = np.lib.stride_tricks.sliding_window_view(x, (3, 3), axis=(0, 1))

        def python_loop():
            acc = 0
            for i in range(700_000):
                acc += i * i

        def conv():
            for _ in range(15):
                np.einsum("hwcij,ocij->hwo", patches, w, optimize=True)

        self._work = {"python": python_loop, "conv": conv}[kind]
        self._work()  # warm-up
        self.times = []
        self()

    def __call__(self):
        start = time.perf_counter()
        self._work()
        self.times.append(time.perf_counter() - start)

    def adjust(self, secs: float) -> float:
        """Calibrate again and scale ``secs``, an operation timed since the
        previous calibration, to the reference speed."""
        self()
        return secs * 2.0 * CAL_REF_S / (self.times[-2] + self.times[-1])


def _fingerprint(first: dict) -> dict:
    """psnr_db and train_loss of the first pass over a round, averaged over
    its slots; bitwise equal across runs with the same seed."""
    def mean(key):
        vals = [getattr(first[s], key) for s in sorted(first)]
        value = math.fsum(vals) / len(vals)
        return value if math.isfinite(value) else None

    return {"psnr_db": mean("psnr_db"), "train_loss": mean("train_loss")}


def _same(a, b) -> bool:
    return a.digest == b.digest and all(
        x == y or (math.isnan(x) and math.isnan(y))
        for x, y in ((a.psnr_db, b.psnr_db), (a.train_loss, b.train_loss)))


def _measure(wl, seconds: float, tally: Tally, tracer, cal: Calibration) -> dict:
    """Repeat the workload's round of items until ``seconds`` have passed.
    Untraced, each item is timed once and calibrated. Traced, each item runs
    untraced and then traced on the same inputs. Every repeat of an item
    must reproduce the first one bit for bit."""
    first = {}
    loop = {"times": [], "adjusted": [], "pixels": 0, "patches": 0,
            "untraced_s": 0.0, "traced_s": 0.0}
    start = time.perf_counter()
    rnd = 0
    while True:
        for slot in range(wl.round):
            if tracer is None:
                out, secs = tally.run(wl.item, slot)
                adjusted = cal.adjust(secs)
                outcomes = [out]
                if out is not None:
                    loop["times"].append(secs)
                    loop["adjusted"].append(adjusted)
                    loop["pixels"] += out.pixels
                    loop["patches"] += out.patches
            else:
                tracer.uninstall()
                out, secs = tally.run(wl.item, slot)
                loop["untraced_s"] += secs
                tracer.install()
                tracer.item = f"{rnd}.{slot}"
                with tracer.span("bench.item"):
                    out2, secs = tally.run(wl.item, slot)
                loop["traced_s"] += secs
                outcomes = [out, out2]
            for o in outcomes:
                if o is not None and not _same(o, first.setdefault(slot, o)):
                    tally.failed += 1
                    print(f"perfbench: item {slot} is not deterministic", file=sys.stderr)
        rnd += 1
        if time.perf_counter() - start >= seconds:
            break
    loop["first"] = first
    return loop


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> int:
    blas_threads = _limit_blas_threads()
    _import_program()
    import workloads
    from spans import Tracer

    RUNS.mkdir(parents=True, exist_ok=True)
    workdir = RUNS / f"work-{name}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        wl = workloads.make(name, seed, scale, workdir)
        tally = Tally()
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.prepare()
            tracer.install()

        cal = Calibration(wl.calibration)
        setup_times, setup_adjusted = [], []
        for rep in range(SETUP_REPS):
            if tracer:
                tracer.item = f"setup{rep}"
            warm, secs = tally.run(wl.setup)
            adjusted = cal.adjust(secs)
            if warm is not None:
                setup_times.append(secs)
                setup_adjusted.append(adjusted)
        if not setup_times:
            print("perfbench: every set-up repetition failed", file=sys.stderr)
            return 1

        loop = _measure(wl, seconds, tally, tracer, cal)
        times, adjusted = loop["times"], loop["adjusted"]
        wall = {
            "setup_s": statistics.median(setup_times),
            "mpix_s": loop["pixels"] / sum(times) / 1e6 if times else 0.0,
            "item_s_mean": statistics.fmean(times) if times else 0.0,
        }
        complete = len(loop["first"]) == wl.round
        if tracer:
            tracer.uninstall()
            values = tracer.metrics()
            overhead = 100.0 * (loop["traced_s"] / loop["untraced_s"] - 1.0)
            values["trace.overhead_pct"] = (overhead, "%")
        else:
            values = {
                "setup_s": (statistics.median(setup_adjusted), "s"),
                "mpix_s": (loop["pixels"] / sum(adjusted) / 1e6 if times else 0.0, "Mpx/s"),
                "item_s_mean": (statistics.fmean(adjusted) if times else 0.0, "s"),
                "peak_rss_mib": (_peak_rss_mib(), "MiB"),
            }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        result = {"correct": tally.failed == 0 and complete, "attempted": tally.attempted,
                  "failed": tally.failed, "metrics": metrics}

        record = {
            "env": {**environment(seed, name, scale, blas_threads), "inputs_sha": wl.inputs_sha,
                    "trace": int(trace), "trace_missing": tracer.missing if tracer else []},
            "fingerprint": _fingerprint(loop["first"]) if complete else None,
            "error_rate": tally.failed / tally.attempted,
            "samples": {"setup": len(setup_times), "items": len(times),
                        "patches": loop["patches"]},
            "item_s_p50": statistics.median(times) if times else None,
            "item_s_p90": statistics.quantiles(times, n=10)[-1] if len(times) > 1 else None,
            "wall": wall,
            "calibration_runs_s": cal.times,
            "setup_runs_s": setup_times,
            "item_runs_s": times,
            "untraced_s": loop["untraced_s"],
            "traced_s": loop["traced_s"],
        }
        if tracer:
            tracer.write_spans(RUNS / f"{name}.spans.jsonl")
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        (RUNS / f"{stem}.json").write_text(json.dumps({**record, "result": result}, indent=1))
        print("# record " + json.dumps(record))
        print(json.dumps(result))
        return 0
    finally:
        for f in workdir.iterdir():
            f.unlink()
        workdir.rmdir()


# ---------------------------------------------------------------------------
# every workload


def _child(name: str, seed: int, seconds: float, trace: int, scale: str):
    """Run one workload in its own process; returns (result, record)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if scale == "smoke":
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{name} (trace {trace}) exited with {proc.returncode}")
    record = json.loads(lines[-2].removeprefix("# record "))
    return json.loads(lines[-1]), record


def _inputs_sha(name: str, seed: int, scale: str) -> str:
    import tempfile

    import workloads

    RUNS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS) as tmp:
        wl = workloads.make(name, seed, scale, Path(tmp))
        wl.generate_inputs()
        return wl.inputs_sha


def run_all(seed: int, seconds: float, scale: str) -> int:
    """Every workload untraced and traced, each in its own process. Checks
    that both runs of a workload give a bitwise-equal fingerprint (so tracing
    changes no result) and that another seed changes the inputs."""
    ok = True
    rows = []
    for name in WORKLOADS:
        res0, rec0 = _child(name, seed, seconds, 0, scale)
        res1, rec1 = _child(name, seed, seconds, 1, scale)
        print(f"== {name}: " + json.dumps(rec0["env"]))
        samples = rec0["samples"]
        for key, unit in END_TO_END:
            m = res0["metrics"].get(key)
            n = samples["setup"] if key == "setup_s" else samples["items"]
            rows.append((name, key, "missing" if m is None else f"{m['value']:.6g}", unit, n))
            ok &= m is not None and m["unit"] == unit
        for key, value in rec0["wall"].items():
            rows.append((name, f"{key} (wall)", f"{value:.6g}", "", "unadjusted"))
        for key in ("item_s_p50", "item_s_p90"):
            if rec0[key] is not None:
                rows.append((name, key, f"{rec0[key]:.6g}", "s", samples["items"]))
        if samples["patches"]:
            rate = samples["patches"] / sum(rec0["item_runs_s"])
            rows.append((name, "train_patches_s", f"{rate:.6g}", "1/s", samples["items"]))
        rows.append((name, "error_rate", f"{rec0['error_rate']:.6g}", "ratio", res0["attempted"]))
        for key, value in (rec0["fingerprint"] or {}).items():
            if value is not None:
                rows.append((name, key, f"{value:.10g}", "dB" if key == "psnr_db" else "l1", 1))
        for key in sorted(res1["metrics"]):
            m = res1["metrics"][key]
            rows.append((name, key, f"{m['value']:.6g}", m["unit"], "traced"))
        deterministic = rec0["fingerprint"] is not None and rec0["fingerprint"] == rec1["fingerprint"]
        seed_matters = _inputs_sha(name, seed + 1, scale) != rec0["env"]["inputs_sha"]
        rows.append((name, "determinism", "ok" if deterministic else "MISMATCH", "", "2 runs"))
        rows.append((name, "seed_changes_inputs", "ok" if seed_matters else "NO", "", "2 seeds"))
        ok &= res0["correct"] and res1["correct"] and deterministic and seed_matters
    width = max(len(r[1]) for r in rows)
    for name, key, value, unit, n in rows:
        print(f"{name:<12} {key:<{width}} {value:>14} {unit:<10} n={n}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes; no timing gate")
    args = ap.parse_args(argv)
    scale = "smoke" if args.smoke else "paper"
    if args.workload is None:
        if args.smoke:
            args.seconds = min(args.seconds, 1.0)
        _limit_blas_threads()
        _import_program()
        return run_all(args.seed, args.seconds, scale)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), scale)


if __name__ == "__main__":
    sys.exit(main())
