"""Low-level numeric kernels: activations, GRU cell, gated projection,
optimizer, checkpoints.

Everything operates on float64 numpy arrays. Parameters live in a
``dict[str, np.ndarray]`` keyed by dotted names ("his_gru.wz", ...). The
model lays its tensors out as consecutive views of one float64 vector
(:class:`Layout`), and the training gradient and the AdamW moments copy that
layout, so :func:`adamw_step` updates all parameters in one pass over the
vectors, a cache-sized chunk at a time. All backward functions are
hand-derived and are validated against central finite differences in the
test suite.
"""

from __future__ import annotations

import functools
import json
import math
import os
import zipfile
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Iterable, Mapping

import numpy as np

from .errors import ValidationError
from .graph import atomic_write, check_fields, check_int, check_items, check_path, check_type

Params = dict[str, np.ndarray]
Grads = dict[str, np.ndarray]

CHECKPOINT_FORMAT = "grouptopo-checkpoint-v2"


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; identical seeds give identical streams. Raises
    ValidationError unless ``seed`` is a non-negative integer, NumPy's included."""
    return np.random.Generator(np.random.Philox(check_int(seed, "seed")))


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


# ---------------------------------------------------------------------------
# One vector per parameter layout.


class Layout(dict):
    """Named float64 tensors, zeroed, as consecutive views of one vector.

    ``shapes`` lists each tensor's name and shape in vector order. The vector
    backs the dict while it holds exactly its own views in that order, intact
    (:meth:`fits`); an entry replaced, added or removed, or a deep copy,
    leaves a plain dict of arrays, which :func:`adamw_step` refuses.
    """

    def __init__(self, shapes: Iterable[tuple[str, tuple[int, ...]]]) -> None:
        super().__init__()
        self.shapes = tuple((name, tuple(shape)) for name, shape in shapes)
        self.vector = np.zeros(sum(math.prod(shape) for _, shape in self.shapes))
        start = 0
        for name, shape in self.shapes:
            size = math.prod(shape)
            self[name] = self.vector[start : start + size].reshape(shape)
            start += size
        self._views = tuple(self.values())

    @staticmethod
    def fits(value, shapes: Iterable[tuple[str, tuple[int, ...]]]) -> bool:
        """Whether ``value`` is an intact layout of these names and shapes."""
        if not (isinstance(value, Layout) and value.shapes == tuple(shapes)):
            return False
        return len(value) == len(value._views) and all(
            a is b and a.base is value.vector for a, b in zip(value.values(), value._views))


def accumulate(grads: Grads, name: str, value: np.ndarray) -> None:
    """Add ``value`` into ``grads[name]`` in place."""
    grads[name] += value


# ---------------------------------------------------------------------------
# Activations.


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) <= 1 never overflows; each sign takes the form that uses it.
    # minimum(x, -x) is -|x| that keeps a NaN's sign bit, as exp(x) does.
    # The numerator is 1 or e; one division by 1 + e gives both forms' bits.
    # Working in place in one array of its own lowers a training pass's peak memory.
    y = np.negative(x, out=np.empty(np.shape(x)))
    np.minimum(x, y, out=y)
    np.exp(y, out=y)
    denominator = y + 1.0
    np.copyto(y, 1.0, where=x >= 0)
    y /= denominator
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
# Elements per pass of the flat update: its six 128 KiB slices stay in cache.
ADAMW_CHUNK = 1 << 14


@dataclass
class OptimizerState:
    """First/second moment accumulators plus the step counter, an integer >= 0.
    :meth:`for_params` makes ``m`` and ``v`` zeroed :class:`Layout` dicts of the
    parameters' names and shapes, the form :func:`adamw_step` takes."""

    m: Params = field(default_factory=dict)
    v: Params = field(default_factory=dict)
    step: int = 0

    def __post_init__(self) -> None:
        check_fields(self, ints={"step": 0})

    @classmethod
    def for_params(cls, params: Params) -> "OptimizerState":
        shapes = [(name, np.shape(p)) for name, p in params.items()]
        return cls(m=Layout(shapes), v=Layout(shapes), step=0)


def global_grad_norm(grads: Layout) -> float:
    """The L2 norm of the gradient vector of ``grads``: ``np.sum`` of the
    squares of each ``ADAMW_CHUNK`` elements, added in vector order. Unlike a
    BLAS dot product, this sum does not depend on the thread count."""
    v = grads.vector
    squares = (np.sum(np.square(v[i : i + ADAMW_CHUNK])) for i in range(0, v.size, ADAMW_CHUNK))
    return math.sqrt(sum(squares, np.float64(0.0)))  # NumPy's adds report overflow


@no_overflow
def adamw_step(
    params: Layout,
    grads: Layout,
    state: OptimizerState,
    *,
    lr: float,
    weight_decay: float = 0.0,
    clip_norm: float | None = None,
) -> float:
    """Apply one decoupled-weight-decay Adam update in place.

    Gradients are first clipped jointly to ``clip_norm`` (the
    :func:`global_grad_norm`); weight decay multiplies the parameter directly
    rather than entering the moment estimates. Returns the pre-clip norm.

    ``params``, ``grads``, ``state.m`` and ``state.v`` are intact
    :class:`Layout` dicts of the same shapes, as
    :func:`~grouptopo.model.init_params`, ``nn.Layout(params.shapes)`` and
    :meth:`OptimizerState.for_params` make them. The update walks their four
    vectors in chunks of ``ADAMW_CHUNK`` elements with two scratch arrays.

    Raises:
        ValidationError: before any update, if ``state`` is not an OptimizerState, the
            operands are not such layouts, ``lr``, ``weight_decay`` or ``clip_norm`` (or
            None) is not a finite number >= 0, as in ``TrainConfig``, or a gradient entry
            is NaN or infinite; or if a gradient or moment is so large that the update overflows.
    """
    check_type(state, OptimizerState, "state", "an OptimizerState")
    tables = (params, grads, state.m, state.v)
    if not all(Layout.fits(t, getattr(params, "shapes", ())) for t in tables):
        raise ValidationError(
            "adamw_step takes 'params', 'grads', 'state.m' and 'state.v' as intact "
            "nn.Layout dicts of the same shapes, as init_params, nn.Layout(params.shapes) "
            "and OptimizerState.for_params make them")
    scalars = SimpleNamespace(lr=lr, weight_decay=weight_decay,
                              clip_norm=0.0 if clip_norm is None else clip_norm)
    check_fields(scalars, numbers=("lr", "weight_decay", "clip_norm"))
    lr, weight_decay, clip_norm = scalars.lr, scalars.weight_decay, scalars.clip_norm
    norm = global_grad_norm(grads)
    if not math.isfinite(norm):  # finite entries give a finite norm or overflow
        name = next(name for name, g in grads.items() if not np.isfinite(g).all())
        raise ValidationError(f"gradient entries for '{name}' hold NaN or infinite values")
    scale = clip_norm / norm if norm > clip_norm > 0.0 else 1.0  # 0.0 clips nothing, as None

    state.step += 1
    bias1 = 1.0 - ADAM_BETA1**state.step
    bias2 = 1.0 - ADAM_BETA2**state.step
    scratch = np.empty((2, min(params.vector.size, ADAMW_CHUNK)))
    for i in range(0, params.vector.size, ADAMW_CHUNK):
        p, g, m, v = (table.vector[i : i + ADAMW_CHUNK] for table in tables)
        a, b = scratch[:, : p.size]
        # In place, operand for operand: g = g * scale; m = b1 m + (1 - b1) g;
        # v = b2 v + (1 - b2) (g g); p -= lr ((m / bias1) / (sqrt(v / bias2) + eps) + wd p).
        np.multiply(g, scale, out=a)
        m *= ADAM_BETA1
        m += np.multiply(a, 1.0 - ADAM_BETA1, out=b)
        v *= ADAM_BETA2
        np.multiply(a, a, out=b)
        b *= 1.0 - ADAM_BETA2
        v += b
        np.divide(m, bias1, out=a)
        np.divide(v, bias2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        np.multiply(p, weight_decay, out=b)
        b += a
        b *= lr
        p -= b
    return norm


# ---------------------------------------------------------------------------
# Checkpoint IO. Arrays round-trip bit-exact (float64, no pickling).


def save_checkpoint(
    path: str | os.PathLike,
    params: Params,
    config: Mapping[str, object],
    opt_state: OptimizerState | None = None,
) -> None:
    """Write the mapping ``params`` of arrays, the JSON-ready mapping ``config`` and,
    when given, the :class:`OptimizerState` ``opt_state`` to one ``.npz`` file at
    ``path``, a str or PathLike, replacing it atomically; ValidationError otherwise,
    and for a tensor of neither integers nor floats, before anything is written."""
    path = check_path(path, "path")
    check_items(check_type(params, Mapping, "params", "a mapping").values(), np.ndarray, "params")
    check_type(config, Mapping, "config", "a mapping")
    check_type(opt_state, (OptimizerState, type(None)), "opt_state", "an OptimizerState or None")
    try:
        config_json = json.dumps(dict(config), sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"'config' cannot be written as JSON: {exc}") from exc
    arrays: dict[str, np.ndarray] = {
        "meta/format": np.array(CHECKPOINT_FORMAT),
        "meta/config": np.array(config_json),
    }
    sections = [("param/", params, np.float64)]
    if opt_state is not None:
        sections += [("opt/", {"step": opt_state.step}, np.int64),
                     ("opt/m/", opt_state.m, np.float64), ("opt/v/", opt_state.v, np.float64)]
    for prefix, tensors, dtype in sections:
        for name, tensor in tensors.items():
            try:
                array = np.asarray(tensor)
            except ValueError:  # ragged rows have no shape
                array = np.empty(0, dtype=object)
            if array.dtype.kind not in "iuf":
                raise ValidationError(
                    f"'{prefix}{name}' must hold integers or floats, got dtype {array.dtype}")
            arrays[prefix + name] = array.astype(dtype, copy=False)
    with atomic_write(path) as fh:
        np.savez(fh, **arrays)


def load_checkpoint(
    path: str | os.PathLike,
) -> tuple[Params, OptimizerState | None, dict]:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Returns ``(params, opt_state, config)``; ``opt_state`` is None for
    checkpoints saved without optimizer moments. ValidationError unless
    ``path`` is a str or PathLike naming a readable checkpoint.
    """
    path = check_path(path, "path")
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
