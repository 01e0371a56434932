"""Low-level numeric kernels: activations, GRU cell, gated projection,
optimizer, checkpoints.

Everything operates on float64 numpy arrays. Parameters live in a flat
``dict[str, np.ndarray]`` keyed by dotted names ("his_gru.wz", ...); gradient
dicts mirror that layout. All backward functions are hand-derived and are
validated against central finite differences in the test suite.
"""

from __future__ import annotations

import functools
import json
import os
import zipfile
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .graph import atomic_write, check_array, check_fields

Params = dict[str, np.ndarray]
Grads = dict[str, np.ndarray]

CHECKPOINT_FORMAT = "grouptopo-checkpoint-v2"


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; identical seeds give identical streams."""
    return np.random.Generator(np.random.Philox(seed))


def no_overflow(fn):
    """``fn``, raising ValidationError where its float64 arithmetic overflows."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return fn(*args, **kwargs)
        except FloatingPointError as exc:
            raise ValidationError(f"values too large: {exc}") from exc
    return checked


def accumulate(grads: Grads, name: str, value: np.ndarray) -> None:
    """Add ``value`` into ``grads[name]``. A new slot holds ``value`` itself,
    not a copy, so pass an array that nothing else reuses."""
    if name in grads:
        grads[name] += value
    else:
        grads[name] = np.asarray(value, dtype=np.float64)


# ---------------------------------------------------------------------------
# Activations.


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) <= 1 never overflows; each sign takes the form that uses it.
    # minimum(x, -x) is -|x| that keeps a NaN's sign bit, as exp(x) does.
    # The numerator is 1 or e; one division by 1 + e gives both forms' bits.
    e = np.exp(np.minimum(x, -x))
    y = np.where(x >= 0, 1.0, e)
    y /= 1.0 + e
    return y


def sigmoid_backward(y: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient through sigmoid given its output ``y``."""
    return grad_out * y * (1.0 - y)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, grad_out, 0.0)


def softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Affine layers.


def affine(params: Mapping[str, np.ndarray], prefix: str, x: np.ndarray) -> np.ndarray:
    """Compute ``x @ W.T + b`` for the weight pair stored under ``prefix``;
    ``x`` is one input vector or a matrix with one input per row, and
    :func:`affine_backward` takes either."""
    return x @ params[f"{prefix}.w"].T + params[f"{prefix}.b"]


def _weight_backward(grads: Grads, name: str, x: np.ndarray, grad_out: np.ndarray) -> None:
    """Accumulate the gradient of ``x @ W.T`` wrt the weight ``name``, summed
    over the rows of ``x`` in one product; one vector counts as one row."""
    accumulate(grads, name, np.atleast_2d(grad_out).T @ np.atleast_2d(x))


def _bias_backward(grads: Grads, name: str, grad_out: np.ndarray) -> None:
    accumulate(grads, name, np.atleast_2d(grad_out).sum(axis=0))


def affine_backward(
    params: Mapping[str, np.ndarray],
    prefix: str,
    x: np.ndarray,
    grad_out: np.ndarray,
    grads: Grads,
) -> np.ndarray:
    """Accumulate weight gradients for an affine layer; return grad wrt x."""
    _weight_backward(grads, f"{prefix}.w", x, grad_out)
    _bias_backward(grads, f"{prefix}.b", grad_out)
    return grad_out @ params[f"{prefix}.w"]


# ---------------------------------------------------------------------------
# GRU cell.
#
# Convention (fixed across the package):
#   z = sigmoid(Wz x + Uz h + bz)          update gate
#   r = sigmoid(Wr x + Ur h + br)          reset gate
#   n = tanh(Wn x + r * (Un h) + bn)       candidate state
#   h' = (1 - z) * n + z * h
# With all weights zero this yields h' = 0.5 * h.

GRU_SUFFIXES = ("wz", "uz", "bz", "wr", "ur", "br", "wn", "un", "bn")


@dataclass
class GruCache:
    x: np.ndarray
    h: np.ndarray
    z: np.ndarray
    r: np.ndarray
    n: np.ndarray
    un_h: np.ndarray


def gru_step(
    params: Mapping[str, np.ndarray], prefix: str, x: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, GruCache]:
    """One GRU transition. Returns the next state and a backward cache."""
    p = params
    z = sigmoid(x @ p[f"{prefix}.wz"].T + h @ p[f"{prefix}.uz"].T + p[f"{prefix}.bz"])
    r = sigmoid(x @ p[f"{prefix}.wr"].T + h @ p[f"{prefix}.ur"].T + p[f"{prefix}.br"])
    un_h = h @ p[f"{prefix}.un"].T
    n = np.tanh(x @ p[f"{prefix}.wn"].T + r * un_h + p[f"{prefix}.bn"])
    h_next = (1.0 - z) * n + z * h
    return h_next, GruCache(x=x, h=h, z=z, r=r, n=n, un_h=un_h)


def gru_backward(
    params: Mapping[str, np.ndarray],
    prefix: str,
    cache: GruCache,
    grad_h_next: np.ndarray,
    grads: Grads,
) -> np.ndarray:
    """Backward through one GRU transition.

    Accumulates parameter gradients into ``grads`` and returns the gradient
    wrt the state ``h``. The input ``x`` gets none: the history GRU's inputs
    are fixed candidate rows.
    """
    p = params
    x, h, z, r, n, un_h = cache.x, cache.h, cache.z, cache.r, cache.n, cache.un_h

    grad_n = grad_h_next * (1.0 - z)
    grad_z = grad_h_next * (h - n)

    # Candidate branch: n = tanh(an), an = Wn x + r * un_h + bn.
    grad_an = grad_n * (1.0 - n * n)
    _weight_backward(grads, f"{prefix}.wn", x, grad_an)
    _bias_backward(grads, f"{prefix}.bn", grad_an)
    grad_un_h = grad_an * r
    _weight_backward(grads, f"{prefix}.un", h, grad_un_h)

    grad_az = sigmoid_backward(z, grad_z)
    _weight_backward(grads, f"{prefix}.wz", x, grad_az)
    _weight_backward(grads, f"{prefix}.uz", h, grad_az)
    _bias_backward(grads, f"{prefix}.bz", grad_az)

    grad_ar = sigmoid_backward(r, grad_an * un_h)
    _weight_backward(grads, f"{prefix}.wr", x, grad_ar)
    _weight_backward(grads, f"{prefix}.ur", h, grad_ar)
    _bias_backward(grads, f"{prefix}.br", grad_ar)

    # h reaches h' directly through z and each gate through its U weights.
    return (grad_h_next * z + grad_un_h @ p[f"{prefix}.un"]
            + grad_az @ p[f"{prefix}.uz"] + grad_ar @ p[f"{prefix}.ur"])


# ---------------------------------------------------------------------------
# Gated projection: the GRU cell above run from h = 0, where the reset gate
# and every U term drop out: y = (1 - sigmoid(Wz x + bz)) * tanh(Wn x + bn).
# Like :func:`affine`, it takes one vector or one row per site.

GATE_SUFFIXES = ("wz", "bz", "wn", "bn")


@dataclass
class GateCache:
    x: np.ndarray
    z: np.ndarray
    n: np.ndarray


def gate_step(
    params: Mapping[str, np.ndarray], prefix: str, x: np.ndarray
) -> tuple[np.ndarray, GateCache]:
    """One gated projection. Returns the output and a backward cache."""
    p = params
    z = sigmoid(x @ p[f"{prefix}.wz"].T + p[f"{prefix}.bz"])
    n = np.tanh(x @ p[f"{prefix}.wn"].T + p[f"{prefix}.bn"])
    return (1.0 - z) * n, GateCache(x=x, z=z, n=n)


def gate_backward(
    params: Mapping[str, np.ndarray],
    prefix: str,
    cache: GateCache,
    grad_y: np.ndarray,
    grads: Grads,
) -> np.ndarray:
    """Backward through :func:`gate_step`; returns the gradient wrt x. Each
    weight gradient is summed over the rows."""
    p = params
    x, z, n = cache.x, cache.z, cache.n
    grad_an = grad_y * (1.0 - z) * (1.0 - n * n)
    _weight_backward(grads, f"{prefix}.wn", x, grad_an)
    _bias_backward(grads, f"{prefix}.bn", grad_an)
    grad_az = sigmoid_backward(z, -grad_y * n)
    _weight_backward(grads, f"{prefix}.wz", x, grad_az)
    _bias_backward(grads, f"{prefix}.bz", grad_az)
    return grad_an @ p[f"{prefix}.wn"] + grad_az @ p[f"{prefix}.wz"]


# ---------------------------------------------------------------------------
# AdamW with global-norm clipping.

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """First/second moment accumulators plus the step counter, an integer >= 0."""

    m: Params = field(default_factory=dict)
    v: Params = field(default_factory=dict)
    step: int = 0

    def __post_init__(self) -> None:
        check_fields(self, ints={"step": 0})

    @classmethod
    def for_params(cls, params: Params) -> "OptimizerState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            step=0,
        )


def global_grad_norm(grads: Mapping[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


@no_overflow
def adamw_step(
    params: Params,
    grads: Mapping[str, np.ndarray],
    state: OptimizerState,
    *,
    lr: float,
    weight_decay: float = 0.0,
    clip_norm: float | None = None,
) -> float:
    """Apply one decoupled-weight-decay Adam update in place.

    Gradients are first clipped jointly to ``clip_norm`` (global L2 norm);
    weight decay multiplies the parameter directly rather than entering the
    moment estimates. Returns the pre-clip global gradient norm.

    Raises:
        ValidationError: if a gradient has no parameter or fails ``check_array``,
            or a gradient or moment is so large that the update overflows.
    """
    grads = dict(grads)
    for name, g in grads.items():
        if name not in params:
            raise ValidationError(f"gradient for unknown parameter '{name}'")
        grads[name] = check_array(g, params[name].shape, f"gradient entries for '{name}'",
                                  f"a gradient of shape {params[name].shape} for '{name}'")

    norm = global_grad_norm(grads)
    scale = 1.0
    if clip_norm is not None and norm > clip_norm > 0.0:
        scale = clip_norm / norm

    state.step += 1
    t = state.step
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        else:
            g = g * scale
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        update = (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
        p -= lr * (update + weight_decay * p)
    return norm


# ---------------------------------------------------------------------------
# Checkpoint IO. Arrays round-trip bit-exact (float64, no pickling).


def save_checkpoint(
    path: str | os.PathLike,
    params: Params,
    config: Mapping[str, object],
    opt_state: OptimizerState | None = None,
) -> None:
    arrays: dict[str, np.ndarray] = {
        "meta/format": np.array(CHECKPOINT_FORMAT),
        "meta/config": np.array(json.dumps(dict(config), sort_keys=True)),
    }
    for name, p in params.items():
        arrays[f"param/{name}"] = np.asarray(p, dtype=np.float64)
    if opt_state is not None:
        arrays["opt/step"] = np.array(opt_state.step, dtype=np.int64)
        for name, m in opt_state.m.items():
            arrays[f"opt/m/{name}"] = np.asarray(m, dtype=np.float64)
        for name, v in opt_state.v.items():
            arrays[f"opt/v/{name}"] = np.asarray(v, dtype=np.float64)
    with atomic_write(path) as fh:
        np.savez(fh, **arrays)


def load_checkpoint(
    path: str | os.PathLike,
) -> tuple[Params, OptimizerState | None, dict]:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Returns ``(params, opt_state, config)``; ``opt_state`` is None for
    checkpoints saved without optimizer moments.
    """
    if not os.path.exists(path):
        raise ValidationError(f"checkpoint not found: {os.fspath(path)}")
    # Reading any member can fail too: a bad CRC raises BadZipFile, and an
    # empty file raises EOFError. The file is opened here, because np.load
    # leaves its own handle open when the zip directory fails to parse.
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            keys = set(data.files)
            found = str(data["meta/format"]) if "meta/format" in keys else None
            if found != CHECKPOINT_FORMAT:
                raise ValidationError(
                    f"{os.fspath(path)} has checkpoint format {found}, this version "
                    f"reads only {CHECKPOINT_FORMAT}; retrain the model"
                )
            try:
                config = json.loads(str(data["meta/config"]))
            except (KeyError, json.JSONDecodeError):
                config = None
            if not isinstance(config, dict):
                raise ValidationError(f"{os.fspath(path)} has no meta/config JSON object")

            def section(prefix: str) -> Params:
                # Exactly the dtype save_checkpoint writes: a cast would drop
                # an imaginary part or read bools and dates as numbers.
                arrays = {key: data[key] for key in data.files if key.startswith(prefix)}
                for key, value in arrays.items():
                    if value.dtype != np.float64:
                        raise ValidationError(
                            f"{key} has dtype {value.dtype}, expected float64"
                        )
                return {key[len(prefix) :]: value for key, value in arrays.items()}

            params, opt_m, opt_v = section("param/"), section("opt/m/"), section("opt/v/")
            opt_state = None
            if "opt/step" in keys:
                step = data["opt/step"]
                if step.shape != () or step.dtype.kind not in "iu" or step < 0:
                    raise ValidationError(
                        f"opt/step must be a non-negative integer scalar, got {step!r}"
                    )
                if set(opt_m) != set(params) or set(opt_v) != set(params):
                    raise ValidationError("optimizer state does not match parameters")
                opt_state = OptimizerState(m=opt_m, v=opt_v, step=int(step))
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"unreadable checkpoint {os.fspath(path)}: {exc}") from exc
    return params, opt_state, config
