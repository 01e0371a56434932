"""Low-level numeric kernels: activations, GRU cell, gated projection,
optimizer, checkpoints.

Everything operates on float64 numpy arrays. Parameters live in a flat
``dict[str, np.ndarray]`` keyed by dotted names ("his_gru.wz", ...); gradient
dicts mirror that layout. All backward functions are hand-derived and are
validated against central finite differences in the test suite.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import ValidationError
from .graph import atomic_write

Params = dict[str, np.ndarray]
Grads = dict[str, np.ndarray]

CHECKPOINT_FORMAT = "grouptopo-checkpoint-v2"


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; identical seeds give identical streams."""
    return np.random.Generator(np.random.Philox(seed))


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
    # Split by sign to avoid overflow in exp.
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
    ``x`` is one input vector or a matrix with one input per row."""
    return x @ params[f"{prefix}.w"].T + params[f"{prefix}.b"]


def _weight_backward(
    params: Mapping[str, np.ndarray], name: str, x: np.ndarray, grad_out: np.ndarray,
    grads: Grads,
) -> np.ndarray:
    """Accumulate the gradient of ``x @ W.T`` wrt ``W = params[name]``,
    summed over the rows of ``x`` in one product; return the grad wrt x.
    One row takes ``np.outer``, several times faster than a matrix product
    of inner dimension 1."""
    if grad_out.ndim == 1:
        accumulate(grads, name, np.outer(grad_out, x))
    else:
        accumulate(grads, name, grad_out.T @ x)
    return grad_out @ params[name]


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
    grad_x = _weight_backward(params, f"{prefix}.w", x, grad_out, grads)
    _bias_backward(grads, f"{prefix}.b", grad_out)
    return grad_x


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
) -> tuple[np.ndarray, np.ndarray]:
    """Backward through one GRU transition.

    Accumulates parameter gradients into ``grads`` and returns
    ``(grad_x, grad_h)`` for the cell inputs.
    """
    p = params
    x, h, z, r, n, un_h = cache.x, cache.h, cache.z, cache.r, cache.n, cache.un_h

    grad_n = grad_h_next * (1.0 - z)
    grad_z = grad_h_next * (h - n)
    grad_h = grad_h_next * z

    # Candidate branch: n = tanh(an), an = Wn x + r * un_h + bn.
    grad_an = grad_n * (1.0 - n * n)
    grad_x = _weight_backward(p, f"{prefix}.wn", x, grad_an, grads)
    _bias_backward(grads, f"{prefix}.bn", grad_an)
    grad_r = grad_an * un_h
    grad_un_h = grad_an * r
    grad_h = grad_h + _weight_backward(p, f"{prefix}.un", h, grad_un_h, grads)

    grad_az = sigmoid_backward(z, grad_z)
    grad_x = grad_x + _weight_backward(p, f"{prefix}.wz", x, grad_az, grads)
    grad_h = grad_h + _weight_backward(p, f"{prefix}.uz", h, grad_az, grads)
    _bias_backward(grads, f"{prefix}.bz", grad_az)

    grad_ar = sigmoid_backward(r, grad_r)
    grad_x = grad_x + _weight_backward(p, f"{prefix}.wr", x, grad_ar, grads)
    grad_h = grad_h + _weight_backward(p, f"{prefix}.ur", h, grad_ar, grads)
    _bias_backward(grads, f"{prefix}.br", grad_ar)

    return grad_x, grad_h


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
    grad_x = _weight_backward(p, f"{prefix}.wn", x, grad_an, grads)
    _bias_backward(grads, f"{prefix}.bn", grad_an)
    grad_az = sigmoid_backward(z, -grad_y * n)
    grad_x = grad_x + _weight_backward(p, f"{prefix}.wz", x, grad_az, grads)
    _bias_backward(grads, f"{prefix}.bz", grad_az)
    return grad_x


# ---------------------------------------------------------------------------
# AdamW with global-norm clipping.


@dataclass
class OptimizerState:
    """First/second moment accumulators plus the step counter."""

    m: Params = field(default_factory=dict)
    v: Params = field(default_factory=dict)
    step: int = 0

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


def adamw_step(
    params: Params,
    grads: Mapping[str, np.ndarray],
    state: OptimizerState,
    *,
    lr: float,
    weight_decay: float = 0.0,
    clip_norm: float | None = None,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> float:
    """Apply one decoupled-weight-decay Adam update in place.

    Gradients are first clipped jointly to ``clip_norm`` (global L2 norm);
    weight decay multiplies the parameter directly rather than entering the
    moment estimates. Returns the pre-clip global gradient norm.

    Raises:
        ValidationError: if any gradient is non-finite, naming the parameter.
    """
    for name, g in grads.items():
        if name not in params:
            raise ValidationError(f"gradient for unknown parameter '{name}'")
        if not np.all(np.isfinite(g)):
            raise ValidationError(f"non-finite gradient for parameter '{name}'")

    norm = global_grad_norm(grads)
    scale = 1.0
    if clip_norm is not None and norm > clip_norm > 0.0:
        scale = clip_norm / norm

    state.step += 1
    t = state.step
    bias1 = 1.0 - beta1**t
    bias2 = 1.0 - beta2**t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        else:
            g = g * scale
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        update = (m / bias1) / (np.sqrt(v / bias2) + eps)
        p -= lr * (update + weight_decay * p)
    return norm


# ---------------------------------------------------------------------------
# Finite-difference gradient checking.


@dataclass
class FiniteDiffReport:
    max_rel_err: float
    worst_param: str
    worst_index: tuple[int, ...]
    n_checked: int


def finite_diff_check(
    loss_fn: Callable[[Params], float],
    params: Params,
    grads: Mapping[str, np.ndarray],
    *,
    step: float = 1e-5,
    floor: float = 1e-8,
    names: Iterable[str] | None = None,
    sample: int | None = None,
    rng: np.random.Generator | None = None,
) -> FiniteDiffReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` must be a deterministic function of the parameter dict.
    Relative error per coordinate is |a - f| / max(|a|, |f|, floor). When
    ``sample`` is given, that many coordinates per tensor are spot-checked
    instead of the full sweep.
    """
    worst = 0.0
    worst_param = ""
    worst_index: tuple[int, ...] = ()
    checked = 0
    selected = list(names) if names is not None else sorted(params)
    for name in selected:
        p = params[name]
        analytic = grads.get(name)
        if analytic is None:
            analytic = np.zeros_like(p)
        coords = np.arange(p.size)
        if sample is not None and sample < p.size:
            if rng is None:
                rng = make_rng(0)
            coords = rng.choice(p.size, size=sample, replace=False)
        for idx in coords:
            multi = np.unravel_index(idx, p.shape)
            original = p[multi]
            p[multi] = original + step
            f_plus = loss_fn(params)
            p[multi] = original - step
            f_minus = loss_fn(params)
            p[multi] = original
            fd = (f_plus - f_minus) / (2.0 * step)
            a = float(analytic[multi])
            rel = abs(a - fd) / max(abs(a), abs(fd), floor)
            checked += 1
            if rel > worst:
                worst = rel
                worst_param = name
                worst_index = tuple(int(i) for i in multi)
    return FiniteDiffReport(
        max_rel_err=worst,
        worst_param=worst_param,
        worst_index=worst_index,
        n_checked=checked,
    )


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
    # empty file raises EOFError.
    try:
        with np.load(path, allow_pickle=False) as data:
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
                return {
                    key[len(prefix) :]: np.array(data[key], dtype=np.float64)
                    for key in data.files
                    if key.startswith(prefix)
                }

            params, opt_m, opt_v = section("param/"), section("opt/m/"), section("opt/v/")
            opt_state = None
            if "opt/step" in keys:
                if set(opt_m) != set(params) or set(opt_v) != set(params):
                    raise ValidationError("optimizer state does not match parameters")
                opt_state = OptimizerState(m=opt_m, v=opt_v, step=int(data["opt/step"]))
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"unreadable checkpoint {os.fspath(path)}: {exc}") from exc
    return params, opt_state, config
