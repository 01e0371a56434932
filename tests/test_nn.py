"""Kernel-level tests: every backward pass is checked against central
finite differences before anything composite is trusted."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from grouptopo import nn
from grouptopo.errors import ValidationError

from finite_diff import finite_diff_check


def test_sigmoid_stable_at_extremes():
    x = np.array([-1e4, -10.0, 0.0, 10.0, 1e4])
    y = nn.sigmoid(x)
    assert np.all(np.isfinite(y))
    assert y[0] == 0.0 or y[0] < 1e-300
    assert y[2] == 0.5
    assert y[-1] == 1.0 or y[-1] > 1.0 - 1e-10


def masked_sigmoid(x):
    """The sign-masked form ``nn.sigmoid`` had before, kept as its reference."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_masked_form_bit_for_bit():
    special = np.array([0.0, -0.0, 800.0, -800.0, np.nan, -np.nan, np.inf, -np.inf,
                        5e-324, -5e-324, 36.7, -36.7, 710.0, -745.2])
    x = np.concatenate([special, nn.make_rng(0).normal(0.0, 30.0, size=420 * 384)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = nn.sigmoid(x)
    assert np.array_equal(got.view(np.int64), masked_sigmoid(x).view(np.int64))
    rows = x[: 7 * 384].reshape(7, 384)
    assert np.array_equal(nn.sigmoid(rows).view(np.int64),
                          masked_sigmoid(rows).view(np.int64))


def where_sigmoid(x):
    """The out-of-place form ``nn.sigmoid`` had before it wrote in place."""
    e = np.exp(np.minimum(x, -x))
    y = np.where(x >= 0, 1.0, e)
    y /= 1.0 + e
    return y


def signed_samples(rng, shape, scale):
    """Normal draws of ``scale`` with every tenth entry a signed zero."""
    x = rng.normal(0.0, scale, size=shape)
    x.flat[::10] = 0.0
    x.flat[::20] = -0.0
    return x


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def test_sigmoid_matches_out_of_place_form_bit_for_bit():
    rng = nn.make_rng(1)
    for shape in ((0,), (1,), (7,), (5, 384), (420, 3)):
        x = signed_samples(rng, shape, 200.0)
        x.flat[1::7] = np.clip(x.flat[1::7] * 4.0, -700.0, 700.0)
        assert np.array_equal(bits(nn.sigmoid(x)), bits(where_sigmoid(x))), shape


def zeros_like(params):
    return {name: np.zeros_like(p) for name, p in params.items()}


def test_relu_backward_gates_on_input_sign():
    x = np.array([-2.0, 0.0, 3.0])
    grad = np.array([1.0, 1.0, 1.0])
    out = nn.relu_backward(x, grad)
    assert np.array_equal(out, np.array([0.0, 0.0, 1.0]))


def test_softmax_normalizes_and_shifts():
    x = np.array([1000.0, 1001.0, 999.0])
    p = nn.softmax(x)
    assert np.isclose(p.sum(), 1.0)
    assert p[1] > p[0] > p[2]


def test_affine_backward_matches_fd():
    # One input vector, then one input per row with the weight gradient
    # summed over the rows.
    rng = nn.make_rng(0)
    params = {
        "lin.w": rng.normal(size=(3, 5)),
        "lin.b": rng.normal(size=3),
    }
    for rows in ((), (4,)):
        x = rng.normal(size=(*rows, 5))
        v = rng.normal(size=(*rows, 3))

        def loss_fn(p):
            return float(np.sum(nn.affine(p, "lin", x) * v))

        grads = zeros_like(params)
        dx = nn.affine_backward(params, "lin", x, v, grads)
        report = finite_diff_check(loss_fn, params, grads)
        assert report.max_rel_err < 1e-7
        assert np.allclose(dx, v @ params["lin.w"])


def test_gru_zero_weights_halves_state():
    dim = 6
    params = {f"g.{k}": np.zeros((dim, dim) if k[0] in "wu" else dim)
              for k in nn.GRU_SUFFIXES}
    h = np.arange(dim, dtype=np.float64)
    h_next, _ = nn.gru_step(params, "g", np.ones(dim), h)
    assert np.allclose(h_next, 0.5 * h)


def test_gru_backward_matches_fd():
    dim = 5
    rng = nn.make_rng(3)
    params = {
        f"g.{k}": rng.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, dim))
        if k[0] in "wu" else np.zeros(dim)
        for k in nn.GRU_SUFFIXES
    }
    # The input is a constant: gru_backward gives it no gradient.
    x = rng.normal(size=dim)
    params["h"] = rng.normal(size=dim)
    v = rng.normal(size=dim)

    def loss_fn(p):
        h_next, _ = nn.gru_step(p, "g", x, p["h"])
        return float(h_next @ v)

    _, cache = nn.gru_step(params, "g", x, params["h"])
    grads = zeros_like(params)
    grads["h"] = nn.gru_backward(params, "g", cache, v, grads)
    report = finite_diff_check(loss_fn, params, grads)
    assert report.max_rel_err < 1e-6, report


def random_gru(rng, dim):
    return {f"g.{k}": rng.normal(size=(dim, dim) if k[0] in "wu" else dim)
            for k in nn.GRU_SUFFIXES}


def test_gate_is_gru_from_zero_state():
    # The GRU run from h = 0 is the reference: the gated projection must give
    # the same output and gate gradients bit for bit, and the GRU's other
    # tensors must get exactly zero gradient. The GRU gives its input no
    # gradient; test_gate_backward_matches_fd checks the gate's.
    dim = 7
    rng = nn.make_rng(5)
    params = random_gru(rng, dim)
    x = rng.normal(size=dim)
    v = rng.normal(size=dim)
    ref_y, ref_cache = nn.gru_step(params, "g", x, np.zeros(dim))
    ref_grads = zeros_like(params)
    nn.gru_backward(params, "g", ref_cache, v, ref_grads)
    y, cache = nn.gate_step(params, "g", x)
    grads = zeros_like(params)
    nn.gate_backward(params, "g", cache, v, grads)
    assert np.array_equal(y, ref_y)
    for name, g in ref_grads.items():
        assert np.array_equal(g, grads[name]), name
    gru_only = [f"g.{k}" for k in nn.GRU_SUFFIXES if k not in nn.GATE_SUFFIXES]
    assert not any(grads[name].any() or ref_grads[name].any() for name in gru_only)


def test_gate_backward_matches_fd():
    dim = 5
    rng = nn.make_rng(8)
    params = {k: v for k, v in random_gru(rng, dim).items()
              if k.split(".")[1] in nn.GATE_SUFFIXES}
    for rows in ((), (3,)):
        params["x"] = rng.normal(size=(*rows, dim))
        v = rng.normal(size=(*rows, dim))

        def loss_fn(p):
            y, _ = nn.gate_step(p, "g", p["x"])
            return float(np.sum(y * v))

        _, cache = nn.gate_step(params, "g", params["x"])
        grads = zeros_like(params)
        grads["x"] = nn.gate_backward(params, "g", cache, v, grads)
        report = finite_diff_check(loss_fn, params, grads)
        assert report.max_rel_err < 1e-6, report


def ref_adamw_step(params, grads, state, *, norm, lr, weight_decay=0.0, clip_norm=None):
    """The per-tensor ``adamw_step`` body from before the flat update, given
    the pre-clip ``norm``; a missing gradient counts as zero."""
    scale = 1.0
    if clip_norm is not None and norm > clip_norm > 0.0:
        scale = clip_norm / norm
    state.step += 1
    t = state.step
    bias1 = 1.0 - nn.ADAM_BETA1**t
    bias2 = 1.0 - nn.ADAM_BETA2**t
    for name, p in params.items():
        g = grads.get(name)
        g = np.zeros_like(p) if g is None else g * scale
        m, v = state.m[name], state.v[name]
        m *= nn.ADAM_BETA1
        m += (1.0 - nn.ADAM_BETA1) * g
        v *= nn.ADAM_BETA2
        v += (1.0 - nn.ADAM_BETA2) * (g * g)
        update = (m / bias1) / (np.sqrt(v / bias2) + nn.ADAM_EPS)
        p -= lr * (update + weight_decay * p)


def ref_grad_norm(vector):
    """The norm's summation rule: the squares of each ``ADAMW_CHUNK`` slice
    summed by ``np.sum``, the slices' sums added in vector order."""
    total = 0.0
    for start in range(0, vector.size, nn.ADAMW_CHUNK):
        total += float(np.sum(vector[start : start + nn.ADAMW_CHUNK] ** 2))
    return math.sqrt(total)


# Larger than one AdamW chunk, so the flat update crosses chunk bounds
# inside a tensor.
ADAM_LAYOUT = [("w1", (150, 130)), ("b1", (130,)), ("w2", (3, 7)), ("e", (1,)),
               ("w3", (20, 30))]


def test_global_grad_norm_sums_chunk_by_chunk():
    grads = nn.Layout(ADAM_LAYOUT)
    assert grads.vector.size > nn.ADAMW_CHUNK
    grads.vector[...] = signed_samples(nn.make_rng(6), grads.vector.shape, 1e3)
    norm = nn.global_grad_norm(grads)
    assert norm == ref_grad_norm(grads.vector)
    exact = math.sqrt(math.fsum(float(x) ** 2 for x in grads.vector))
    assert abs(norm - exact) <= 1e-15 * exact
    assert nn.global_grad_norm(nn.Layout([])) == 0.0


@pytest.mark.parametrize("flat", [True, False], ids=["flat", "dicts"])
@pytest.mark.parametrize("clip_norm, weight_decay", [(None, 0.0), (1e9, 1e-2), (0.5, 1e-2)],
                         ids=["plain", "decay", "clipped"])
def test_adamw_matches_per_tensor_reference_bit_for_bit(flat, clip_norm, weight_decay):
    """Three steps against the per-tensor reference, given the norm of the
    chunk-order rule. The gradient is written as one vector, or from a dict
    of tensors in a backward pass's order, not the layout's; "b1" is never
    written."""
    rng = nn.make_rng(7)
    written = ["w3", "e", "w1", "w2"]
    params = nn.Layout(ADAM_LAYOUT)
    for p in params.values():
        p[...] = signed_samples(rng, p.shape, 1.0)
    state = nn.OptimizerState.for_params(params)
    ref_params = {k: p.copy() for k, p in params.items()}
    ref_state = nn.OptimizerState(m={k: m.copy() for k, m in state.m.items()},
                                  v={k: v.copy() for k, v in state.v.items()})
    grads = nn.Layout(params.shapes)
    for step in range(3):
        values = {name: signed_samples(rng, params[name].shape, 10.0 ** step) for name in written}
        if flat:
            grads.vector[...] = np.concatenate([values.get(name, np.zeros(shape)).ravel()
                                                for name, shape in ADAM_LAYOUT])
        else:
            grads.vector.fill(0.0)
            for name in written:
                nn.accumulate(grads, name, values[name])
        norm = nn.adamw_step(params, grads, state, lr=1e-2, weight_decay=weight_decay,
                             clip_norm=clip_norm)
        assert norm == ref_grad_norm(grads.vector)
        ref_adamw_step(ref_params, values, ref_state, norm=norm, lr=1e-2,
                       weight_decay=weight_decay, clip_norm=clip_norm)
        assert (clip_norm is not None and norm > clip_norm) == (clip_norm == 0.5)
        for name, _ in ADAM_LAYOUT:
            for got, ref in ((params, ref_params), (state.m, ref_state.m),
                             (state.v, ref_state.v)):
                assert np.array_equal(bits(got[name]), bits(ref[name])), (step, name)
    assert state.step == ref_state.step == 3


def laid_out(**tensors):
    """A :class:`nn.Layout` holding ``tensors``, in keyword order."""
    table = nn.Layout((name, np.shape(value)) for name, value in tensors.items())
    for name, value in tensors.items():
        table[name][...] = value
    return table


def test_adamw_refuses_operands_that_are_not_one_layout():
    params = laid_out(w=np.ones(2))
    state = nn.OptimizerState.for_params(params)
    grads = nn.Layout(params.shapes)
    replaced = nn.Layout(params.shapes)
    replaced["w"] = np.zeros(2)  # no longer a view of its vector
    for args in (({"w": np.ones(2)}, grads, state), (params, {"w": np.zeros(2)}, state),
                 (params, replaced, state),
                 (params, grads, nn.OptimizerState(m={"w": np.zeros(2)}, v=state.v))):
        with pytest.raises(ValidationError, match="init_params.*nn.Layout.*for_params"):
            nn.adamw_step(*args, lr=0.1)
    assert state.step == 0 and np.array_equal(params["w"], np.ones(2))


def test_adamw_weight_decay_is_decoupled():
    params = laid_out(w=np.full(3, 2.0))
    state = nn.OptimizerState.for_params(params)
    # Zero gradient: the only movement comes from decay, lr * wd * p.
    nn.adamw_step(params, nn.Layout(params.shapes), state,
                  lr=0.1, weight_decay=0.5, clip_norm=None)
    assert np.allclose(params["w"], 2.0 - 0.1 * 0.5 * 2.0)
    assert state.step == 1


def test_adamw_global_clip_rescales_jointly():
    params = laid_out(a=np.zeros(4), b=np.zeros(3))
    state = nn.OptimizerState.for_params(params)
    grads = laid_out(a=np.full(4, 100.0), b=np.full(3, 100.0))
    pre_norm = nn.global_grad_norm(grads)
    returned = nn.adamw_step(params, grads, state, lr=0.0, clip_norm=1.0)
    assert returned == pytest.approx(pre_norm)
    clipped = np.sqrt(
        np.sum(state.m["a"] ** 2) + np.sum(state.m["b"] ** 2)
    ) / 0.1  # m = 0.1 * clipped gradient after one step
    assert clipped == pytest.approx(1.0)


def test_adamw_rejects_nonfinite_gradient():
    """The message names the first tensor with a non-finite entry."""
    params = laid_out(**{"layer.b": np.zeros(3), "layer.w": np.zeros(2), "out.w": np.zeros(2)})
    state = nn.OptimizerState.for_params(params)
    grads = nn.Layout(params.shapes)
    for bad in (np.nan, np.inf, -np.inf):
        grads["layer.w"][1] = grads["out.w"][0] = bad
        with pytest.raises(ValidationError, match="entries for 'layer.w' hold NaN or infinite"):
            nn.adamw_step(params, grads, state, lr=0.1)
    assert state.step == 0 and not params.vector.any()


def test_adamw_rejects_unknown_parameter():
    params = laid_out(w=np.zeros(2))
    state = nn.OptimizerState.for_params(params)
    with pytest.raises(ValidationError, match="of the same shapes"):
        nn.adamw_step(params, nn.Layout([("mystery", (2,))]), state, lr=0.1)


def test_finite_diff_check_on_quadratic():
    params = {"w": np.array([1.0, -2.0, 3.0])}

    def loss_fn(p):
        return float(0.5 * np.sum(p["w"] ** 2))

    report = finite_diff_check(loss_fn, params, {"w": params["w"].copy()})
    assert report.max_rel_err < 1e-9
    assert report.n_checked == 3


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = nn.make_rng(9)
    params = nn.Layout([("enc.w", (4, 7)), ("enc.b", (4,))])
    params.vector[...] = rng.normal(size=params.vector.size)
    state = nn.OptimizerState.for_params(params)
    grads = nn.Layout(params.shapes)
    grads.vector[...] = rng.normal(size=grads.vector.size)
    nn.adamw_step(params, grads, state, lr=1e-3, weight_decay=1e-2, clip_norm=1.0)
    config = {"dim": 7, "note": "roundtrip"}
    path = tmp_path / "model.npz"
    nn.save_checkpoint(path, params, config, state)
    loaded_params, loaded_state, loaded_config = nn.load_checkpoint(path)
    assert loaded_config == config
    assert set(loaded_params) == set(params)
    for name in params:
        assert loaded_params[name].dtype == np.float64
        assert np.array_equal(loaded_params[name], params[name])
        assert np.array_equal(loaded_state.m[name], state.m[name])
        assert np.array_equal(loaded_state.v[name], state.v[name])
    assert loaded_state.step == state.step


def test_checkpoint_without_optimizer(tmp_path):
    params = {"w": np.ones(3)}
    path = tmp_path / "infer.npz"
    nn.save_checkpoint(path, params, {"dim": 3})
    loaded_params, loaded_state, _ = nn.load_checkpoint(path)
    assert loaded_state is None
    assert np.array_equal(loaded_params["w"], params["w"])


@pytest.mark.parametrize("params, opt_state, member", [
    ({"w": np.ones(2, dtype=complex)}, None, "param/w"),
    ({"w": np.array(["x", "y"])}, None, "param/w"),
    ({"w": np.ones(2, dtype=bool)}, None, "param/w"),
    ({"w": np.ones(2)}, nn.OptimizerState(m={"w": "x"}), "opt/m/w"),
    ({"w": np.ones(2)}, nn.OptimizerState(v={"w": [[1.0], [1.0, 2.0]]}), "opt/v/w"),
], ids=["complex", "string", "bool", "string_moment", "ragged_moment"])
def test_checkpoint_refuses_a_tensor_of_neither_integers_nor_floats(tmp_path, params,
                                                                     opt_state, member):
    path = tmp_path / "model.npz"
    with pytest.raises(ValidationError, match=f"'{member}' must hold integers or floats"):
        nn.save_checkpoint(path, params, {"dim": 2}, opt_state)
    assert list(tmp_path.iterdir()) == []
    state = nn.OptimizerState(m={"w": np.arange(2)}, v={"w": np.ones(2, np.float32)}, step=3)
    nn.save_checkpoint(path, {"w": np.arange(2, dtype=np.uint8)}, {"dim": 2}, state)
    loaded_params, loaded_state, _ = nn.load_checkpoint(path)
    assert loaded_params["w"].dtype == loaded_state.m["w"].dtype == np.float64
    assert loaded_params["w"].tolist() == loaded_state.m["w"].tolist() == [0.0, 1.0]
    assert loaded_state.v["w"].tolist() == [1.0, 1.0] and loaded_state.step == 3


def test_checkpoint_missing_file_is_validation_error(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        nn.load_checkpoint(tmp_path / "absent.npz")


def test_checkpoint_garbage_file_is_validation_error(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_bytes(b"this is not a checkpoint")
    with pytest.raises(ValidationError):
        nn.load_checkpoint(path)


def test_make_rng_streams_are_reproducible():
    a = nn.make_rng(123).standard_normal(5)
    b = nn.make_rng(123).standard_normal(5)
    c = nn.make_rng(124).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
