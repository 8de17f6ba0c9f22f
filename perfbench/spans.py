"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``demosaick`` modules from the
outside: every module attribute that refers to a traced function is swapped
for one shared wrapper, so calls made through any importing module (for
example ``demosaick.resdnet.conv2d`` and ``demosaick.tensor_core.conv2d``)
land in the same span name. Nothing under ``src/`` is changed; ``uninstall``
puts the original functions back.

A span is ``[name, start, end, parent, item]``. A span's self time is its
duration minus the time its direct child spans cover. Work the tracer does
for itself inside a span (hashing weights, sizing a trajectory) is excluded
from the enclosing span's self time.

FLOP and byte counts of the convolutions are computed from the argument
shapes, not measured.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) of every traced function; a method is "Class.method".
TRACED = (
    ("tensor_core", "conv2d"),
    ("tensor_core", "conv_transpose2d"),
    ("tensor_core", "conv2d_backward"),
    ("tensor_core", "conv_transpose2d_backward"),
    ("tensor_core", "prelu"),
    ("tensor_core", "prelu_backward"),
    ("tensor_core", "clip"),
    ("tensor_core", "clip_backward"),
    ("tensor_core", "_pad_reflect_adjoint"),
    ("resdnet", "resdnet_forward"),
    ("resdnet", "resdnet_backward"),
    ("resdnet", "materialize_weights"),
    ("resdnet", "materialize_weights_backward"),
    ("resdnet", "project_noise"),
    ("resdnet", "project_noise_backward"),
    ("cascade", "demosaick_forward"),
    ("cascade", "demosaick_backward"),
    ("cfa", "data_consistency"),
    ("cfa", "mosaic"),
    ("cfa", "bilinear_demosaick"),
    ("cfa", "CfaPattern.mask"),
    ("noise", "add_noise"),
    ("training", "adam_step"),
    ("training", "sample_patches"),
    ("training", "loss"),
    ("training", "pretrain_denoiser"),
    ("training", "train_joint"),
    ("modelfile", "load_model"),
    ("modelfile", "save_model"),
    ("pnm", "read_image"),
    ("pnm", "write_image"),
)

CONV_FORWARD = ("tensor_core.conv2d", "tensor_core.conv_transpose2d")
CONV_BACKWARD = ("tensor_core.conv2d_backward", "tensor_core.conv_transpose2d_backward")
MATERIALIZE = "resdnet.materialize_weights"
CASCADE_FORWARD = "cascade.demosaick_forward"


def conv_counts(name: str, args) -> tuple[float, float]:
    """Computed (FLOPs, bytes moved) of one convolution call.

    A forward call does 2*H*W*C_in*C_out*kh*kw FLOPs; a backward call does
    twice that (input gradient and weight gradient). Bytes count every
    array read or written once."""
    x = args[1] if name in CONV_BACKWARD else args[0]
    w, bias = args[-1].weights, args[-1].bias
    hw = x.shape[0] * x.shape[1]
    c_out, c_in, kh, kw = w.shape
    flop = 2.0 * hw * c_in * c_out * kh * kw
    if name in CONV_BACKWARD:
        # read grad_out, x, weights; write grad_x, grad_weights, grad_bias
        return 2.0 * flop, float(x.itemsize * (2 * hw * (c_in + c_out) + 2 * w.size + bias.size))
    # read x, weights, bias; write the output
    return flop, float(x.itemsize * (hw * (c_in + c_out) + w.size + bias.size))


def retained_bytes(obj) -> int:
    """Bytes of the distinct arrays reachable from ``obj`` through
    dataclass fields, lists, tuples and dicts. Views count their base once."""
    seen_obj, seen_buf = set(), set()
    total = 0
    stack = [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen_obj:
            continue
        seen_obj.add(id(o))
        if isinstance(o, np.ndarray):
            root = o
            while isinstance(root.base, np.ndarray):
                root = root.base
            if id(root) not in seen_buf:
                seen_buf.add(id(root))
                total += root.nbytes
        elif dataclasses.is_dataclass(o) and not isinstance(o, type):
            stack.extend(getattr(o, f.name) for f in dataclasses.fields(o))
        elif isinstance(o, (list, tuple)):
            stack.extend(o)
        elif isinstance(o, dict):
            stack.extend(o.values())
    return total


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self):
        self.spans = []
        self.item = None
        self.missing = []
        self._stack = []           # [span index, child time] of each open span
        self._originals = {}       # span name -> original function
        self._wrappers = {}        # span name -> wrapper
        self._sites = []           # (owner, attribute, span name)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.flop = defaultdict(float)
        self.bytes = defaultdict(float)
        self.materialize_keys = set()
        self.trajectory_bytes = 0

    # -- spans -----------------------------------------------------------

    def _open(self, name: str):
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item])

    def _close(self):
        end = time.perf_counter()
        index, child = self._stack.pop()
        rec = self.spans[index]
        rec[2] = end
        dur = end - rec[1]
        self.self_s[rec[0]] += dur - child
        self.calls[rec[0]] += 1
        if self._stack:
            self._stack[-1][1] += dur

    def _exclude(self, seconds: float):
        """Remove the tracer's own work from the enclosing span's self time."""
        if self._stack:
            self._stack[-1][1] += seconds

    @contextlib.contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        counted = name in CONV_FORWARD or name in CONV_BACKWARD

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            t0 = time.perf_counter()
            if counted:
                flop, nbytes = conv_counts(name, args)
                tracer.flop[name] += flop
                tracer.bytes[name] += nbytes
            elif name == MATERIALIZE:
                u, s = (np.ascontiguousarray(a, dtype=np.float64) for a in args[:2])
                tracer.materialize_keys.add(
                    hashlib.blake2b(u.tobytes() + s.tobytes(), digest_size=16).digest()
                )
            elif name == CASCADE_FORWARD:
                tracer.trajectory_bytes = max(tracer.trajectory_bytes, retained_bytes(out[1]))
            tracer._exclude(time.perf_counter() - t0)
            return out

        return wrapper

    def prepare(self):
        """Build wrappers and find every module attribute that refers to a
        traced function. Call after the program's modules are imported."""
        mods = {k: v for k, v in sys.modules.items()
                if k == "demosaick" or k.startswith("demosaick.")}
        for module, attr in TRACED:
            name = f"{module}.{attr}"
            owner = mods.get(f"demosaick.{module}")
            cls_name, _, meth = attr.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, meth, None) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            self._originals[name] = fn
            self._wrappers[name] = self._wrap(name, fn)
            if cls_name:
                self._sites.append((owner, meth, name))
                continue
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._sites.append((mod, key, name))

    def install(self):
        for owner, key, name in self._sites:
            setattr(owner, key, self._wrappers[name])

    def uninstall(self):
        for owner, key, name in self._sites:
            setattr(owner, key, self._originals[name])

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for module, attr in TRACED:
            name = f"{module}.{attr}"
            out[f"{name}.self_s"] = (self.self_s[name], "s")
            out[f"{name}.calls"] = (self.calls[name], "count")
        for name in CONV_FORWARD + CONV_BACKWARD:
            calls, secs = self.calls[name], self.self_s[name]
            out[f"{name}.gflop_s"] = (self.flop[name] / secs / 1e9 if secs else 0.0, "Gflop/s")
            out[f"{name}.computed_mflop_per_call"] = (
                self.flop[name] / calls / 1e6 if calls else 0.0, "Mflop")
            out[f"{name}.computed_mib_per_call"] = (
                self.bytes[name] / calls / 2**20 if calls else 0.0, "MiB")
        calls = self.calls[MATERIALIZE]
        out[f"{MATERIALIZE}.useful_ratio"] = (
            len(self.materialize_keys) / calls if calls else 0.0, "ratio")
        out["cascade.trajectory_mib"] = (self.trajectory_bytes / 2**20, "MiB")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
