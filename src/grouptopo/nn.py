"""Low-level numeric kernels: activations, GRU cell, gated projection,
optimizer, checkpoints.

Everything operates on float64 numpy arrays. Parameters live in a
``dict[str, np.ndarray]`` keyed by dotted names ("his_gru.wz", ...). The
model lays its tensors out as consecutive views of one float64 vector
(:class:`Layout`), and the AdamW moments and the training gradient
(:class:`GradBuffer`) copy that layout, so :func:`adamw_step` updates all
parameters in one pass over the vectors, a cache-sized chunk at a time. A dict
of separate arrays still works: it takes the same loop one tensor at a time.
All backward functions are hand-derived and are validated against central
finite differences in the test suite.
"""

from __future__ import annotations

import functools
import json
import math
import os
import zipfile
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import ValidationError
from .graph import atomic_write, check_array, check_fields, check_int, check_path

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
    backs the dict while it holds exactly its own views in that order
    (:attr:`intact`); an entry replaced, added or removed, or a deep copy,
    leaves a plain dict of arrays, which the per-tensor paths take.
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

    @property
    def intact(self) -> bool:
        return len(self) == len(self._views) and all(
            a is b and a.base is self.vector for a, b in zip(self.values(), self._views))


class GradBuffer(dict):
    """A gradient dict over one float64 vector laid out like ``params``.

    A tensor enters the dict on its first :func:`accumulate`, as a view of its
    slot, so the dict lists the tensors in the order a backward pass first
    wrote them, and every slot not in it holds zero. :meth:`zero` readies the
    buffer for the next pass without freeing it.
    """

    def __init__(self, params: Mapping[str, np.ndarray]) -> None:
        super().__init__()
        self.slots = Layout((name, np.shape(p)) for name, p in params.items())

    def __missing__(self, name: str) -> np.ndarray:
        slot = self[name] = self.slots[name]
        return slot

    def zero(self) -> None:
        """Empty the dict and zero every slot."""
        self.clear()
        self.slots.vector.fill(0.0)


def accumulate(grads: Grads, name: str, value: np.ndarray) -> None:
    """Add ``value`` into ``grads[name]``; a :class:`GradBuffer` opens the slot
    on its first write."""
    grads[name] += value


# ---------------------------------------------------------------------------
# Activations.


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) <= 1 never overflows; each sign takes the form that uses it.
    # minimum(x, -x) is -|x| that keeps a NaN's sign bit, as exp(x) does.
    # The numerator is 1 or e; one division by 1 + e gives both forms' bits.
    y = np.negative(x, out=np.empty(np.shape(x)))
    np.minimum(x, y, out=y)
    np.exp(y, out=y)
    denominator = y + 1.0
    np.copyto(y, 1.0, where=x >= 0)
    y /= denominator
    return y


def sigmoid_backward(y: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient through sigmoid given its output ``y``: ``grad_out * y * (1 - y)``."""
    grad = grad_out * y
    grad *= np.subtract(1.0, y)
    return grad


def _one_minus_square(y: np.ndarray) -> np.ndarray:
    """``1 - y * y``, the derivative of tanh at its output ``y``."""
    out = np.multiply(y, y)
    return np.subtract(1.0, out, out=out)


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
    y = x @ params[f"{prefix}.w"].T
    y += params[f"{prefix}.b"]
    return y


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
    # Each pre-activation sums W x + (U h or r * U h) + b in that order, in place.
    z = x @ p[f"{prefix}.wz"].T
    z += h @ p[f"{prefix}.uz"].T
    z += p[f"{prefix}.bz"]
    z = sigmoid(z)
    r = x @ p[f"{prefix}.wr"].T
    r += h @ p[f"{prefix}.ur"].T
    r += p[f"{prefix}.br"]
    r = sigmoid(r)
    un_h = h @ p[f"{prefix}.un"].T
    n = x @ p[f"{prefix}.wn"].T
    n += r * un_h
    n += p[f"{prefix}.bn"]
    np.tanh(n, out=n)
    h_next = np.subtract(1.0, z)
    h_next *= n
    h_next += z * h
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

    # Candidate branch: n = tanh(an), an = Wn x + r * un_h + bn, and
    # grad_an = grad_h_next * (1 - z) * (1 - n * n).
    grad_an = np.subtract(1.0, z)
    grad_an *= grad_h_next
    grad_an *= _one_minus_square(n)
    _weight_backward(grads, f"{prefix}.wn", x, grad_an)
    _bias_backward(grads, f"{prefix}.bn", grad_an)
    grad_un_h = grad_an * r
    _weight_backward(grads, f"{prefix}.un", h, grad_un_h)

    grad_z = np.subtract(h, n)
    grad_z *= grad_h_next
    grad_az = sigmoid_backward(z, grad_z)
    _weight_backward(grads, f"{prefix}.wz", x, grad_az)
    _weight_backward(grads, f"{prefix}.uz", h, grad_az)
    _bias_backward(grads, f"{prefix}.bz", grad_az)

    grad_ar = sigmoid_backward(r, grad_an * un_h)
    _weight_backward(grads, f"{prefix}.wr", x, grad_ar)
    _weight_backward(grads, f"{prefix}.ur", h, grad_ar)
    _bias_backward(grads, f"{prefix}.br", grad_ar)

    # h reaches h' directly through z and each gate through its U weights.
    grad_h = grad_h_next * z
    grad_h += grad_un_h @ p[f"{prefix}.un"]
    grad_h += grad_az @ p[f"{prefix}.uz"]
    grad_h += grad_ar @ p[f"{prefix}.ur"]
    return grad_h


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
    z = x @ p[f"{prefix}.wz"].T
    z += p[f"{prefix}.bz"]
    z = sigmoid(z)
    n = x @ p[f"{prefix}.wn"].T
    n += p[f"{prefix}.bn"]
    np.tanh(n, out=n)
    y = np.subtract(1.0, z)
    y *= n
    return y, GateCache(x=x, z=z, n=n)


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
    # grad_an = grad_y * (1 - z) * (1 - n * n); grad_az through -grad_y * n.
    grad_an = np.subtract(1.0, z)
    grad_an *= grad_y
    grad_an *= _one_minus_square(n)
    _weight_backward(grads, f"{prefix}.wn", x, grad_an)
    _bias_backward(grads, f"{prefix}.bn", grad_an)
    grad_az = np.negative(grad_y)
    grad_az *= n
    grad_az = sigmoid_backward(z, grad_az)
    _weight_backward(grads, f"{prefix}.wz", x, grad_az)
    _bias_backward(grads, f"{prefix}.bz", grad_az)
    dx = grad_an @ p[f"{prefix}.wn"]
    dx += grad_az @ p[f"{prefix}.wz"]
    return dx


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
    :meth:`for_params` makes ``m`` and ``v`` zeroed :class:`Layout` dicts of
    the parameters' names and shapes, so :func:`adamw_step` can walk them as
    vectors."""

    m: Params = field(default_factory=dict)
    v: Params = field(default_factory=dict)
    step: int = 0

    def __post_init__(self) -> None:
        check_fields(self, ints={"step": 0})

    @classmethod
    def for_params(cls, params: Params) -> "OptimizerState":
        shapes = [(name, np.shape(p)) for name, p in params.items()]
        return cls(m=Layout(shapes), v=Layout(shapes), step=0)


def global_grad_norm(grads: Mapping[str, np.ndarray]) -> float:
    """The L2 norm of all gradients, summed tensor by tensor in dict order."""
    values = list(grads.values())
    square = np.empty(max((np.size(g) for g in values), default=0))
    total = 0.0
    for g in values:
        total += float(np.sum(np.multiply(g, g, out=square[: g.size].reshape(g.shape))))
    return float(np.sqrt(total))


def _flat_operands(
    params: Params, grads: Mapping[str, np.ndarray], state: OptimizerState
) -> list[np.ndarray] | None:
    """The parameter, gradient and moment vectors when ``params``,
    ``state.m``, ``state.v`` and the slots of a :class:`GradBuffer` are intact
    layouts of the same shapes and the buffer holds only its own slots;
    otherwise None."""
    if not isinstance(grads, GradBuffer):
        return None
    tables = (params, grads.slots, state.m, state.v)
    if not all(isinstance(t, Layout) and t.intact and t.shapes == tables[0].shapes
               for t in tables):
        return None
    if any(g is not grads.slots.get(name) for name, g in grads.items()):
        return None
    return [t.vector for t in tables]


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
    moment estimates. Returns the pre-clip global gradient norm, summed tensor
    by tensor in the order of ``grads``.

    When ``params``, ``state.m``, ``state.v`` and a :class:`GradBuffer` share
    one layout, the update walks the four vectors in chunks of
    ``ADAMW_CHUNK`` elements with two scratch arrays. Any other dicts take
    the same loop one tensor at a time, a missing gradient counting as zero.
    Each element sees the same operations in the same order either way.

    Raises:
        ValidationError: if a gradient has no parameter or fails ``check_array``,
            or a gradient or moment is so large that the update overflows.
    """
    def check(name: str, g) -> np.ndarray:
        if name not in params:
            raise ValidationError(f"gradient for unknown parameter '{name}'")
        return check_array(g, params[name].shape, f"gradient entries for '{name}'",
                           f"a gradient of shape {params[name].shape} for '{name}'")

    flat = _flat_operands(params, grads, state)
    if flat is None:
        grads = {name: check(name, g) for name, g in grads.items()}
    norm = global_grad_norm(grads)
    if not math.isfinite(norm):
        # Finite entries give a finite norm or overflow on the way, so one
        # entry is not finite: the per-tensor check names its tensor.
        for name, g in grads.items():
            check(name, g)
        raise ValidationError("gradient entries hold NaN or infinite values")
    scale = 1.0
    if clip_norm is not None and norm > clip_norm > 0.0:
        scale = clip_norm / norm

    state.step += 1
    t = state.step
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    if flat is not None:
        size = flat[0].size
        parts = [[x[i : i + ADAMW_CHUNK] for x in flat] for i in range(0, size, ADAMW_CHUNK)]
    else:
        parts = [[p, grads.get(name), state.m[name], state.v[name]]
                 for name, p in params.items()]
    scratch = np.empty((2, max((p.size for p, *_ in parts), default=0)))
    for p, g, m, v in parts:
        a, b = (row[: p.size].reshape(p.shape) for row in scratch)
        # In place, operand for operand: g = g * scale; m = b1 m + (1 - b1) g;
        # v = b2 v + (1 - b2) (g g); p -= lr ((m / bias1) / (sqrt(v / bias2) + eps) + wd p).
        if g is None:
            a.fill(0.0)
        else:
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
    """Write ``params``, the JSON-ready mapping ``config`` and, when given,
    ``opt_state`` to one ``.npz`` file at ``path``, replacing it atomically.
    ValidationError unless ``path`` is a str or PathLike and ``config`` a
    mapping that JSON can encode."""
    path = check_path(path, "path")
    if not isinstance(config, Mapping):
        raise ValidationError(f"'config' must be a mapping, got {config!r}")
    try:
        config_json = json.dumps(dict(config), sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"'config' cannot be written as JSON: {exc}") from exc
    arrays: dict[str, np.ndarray] = {
        "meta/format": np.array(CHECKPOINT_FORMAT),
        "meta/config": np.array(config_json),
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
