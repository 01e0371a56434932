"""Kernel-level tests: every backward pass is checked against central
finite differences before anything composite is trusted."""

from __future__ import annotations

import numpy as np
import pytest

from grouptopo import nn
from grouptopo.errors import ValidationError


def test_sigmoid_stable_at_extremes():
    x = np.array([-1e4, -10.0, 0.0, 10.0, 1e4])
    y = nn.sigmoid(x)
    assert np.all(np.isfinite(y))
    assert y[0] == 0.0 or y[0] < 1e-300
    assert y[2] == 0.5
    assert y[-1] == 1.0 or y[-1] > 1.0 - 1e-10


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

        grads: dict = {}
        dx = nn.affine_backward(params, "lin", x, v, grads)
        report = nn.finite_diff_check(loss_fn, params, grads)
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
    params["x"] = rng.normal(size=dim)
    params["h"] = rng.normal(size=dim)
    v = rng.normal(size=dim)

    def loss_fn(p):
        h_next, _ = nn.gru_step(p, "g", p["x"], p["h"])
        return float(h_next @ v)

    _, cache = nn.gru_step(params, "g", params["x"], params["h"])
    grads: dict = {}
    grad_x, grad_h = nn.gru_backward(params, "g", cache, v, grads)
    grads["x"] = grad_x
    grads["h"] = grad_h
    report = nn.finite_diff_check(loss_fn, params, grads)
    assert report.max_rel_err < 1e-6, report


def random_gru(rng, dim):
    return {f"g.{k}": rng.normal(size=(dim, dim) if k[0] in "wu" else dim)
            for k in nn.GRU_SUFFIXES}


def test_gate_is_gru_from_zero_state():
    # The GRU run from h = 0 is the reference: the gated projection must give
    # the same output, input gradient and gate gradients bit for bit, and the
    # GRU's other tensors must get exactly zero gradient.
    dim = 7
    rng = nn.make_rng(5)
    params = random_gru(rng, dim)
    x = rng.normal(size=dim)
    v = rng.normal(size=dim)
    ref_y, ref_cache = nn.gru_step(params, "g", x, np.zeros(dim))
    ref_grads: dict = {}
    ref_dx, _ = nn.gru_backward(params, "g", ref_cache, v, ref_grads)
    y, cache = nn.gate_step(params, "g", x)
    grads: dict = {}
    dx = nn.gate_backward(params, "g", cache, v, grads)
    assert np.array_equal(y, ref_y)
    assert np.array_equal(dx, ref_dx)
    assert list(grads) == [f"g.{k}" for k in ("wn", "bn", "wz", "bz")]
    for name, g in ref_grads.items():
        expected = grads.get(name, np.zeros_like(g))
        assert np.array_equal(g, expected), name


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
        grads: dict = {}
        grads["x"] = nn.gate_backward(params, "g", cache, v, grads)
        report = nn.finite_diff_check(loss_fn, params, grads)
        assert report.max_rel_err < 1e-6, report


def test_adamw_weight_decay_is_decoupled():
    params = {"w": np.full(3, 2.0)}
    state = nn.OptimizerState.for_params(params)
    # Zero gradient: the only movement comes from decay, lr * wd * p.
    nn.adamw_step(params, {"w": np.zeros(3)}, state,
                  lr=0.1, weight_decay=0.5, clip_norm=None)
    assert np.allclose(params["w"], 2.0 - 0.1 * 0.5 * 2.0)
    assert state.step == 1


def test_adamw_global_clip_rescales_jointly():
    params = {"a": np.zeros(4), "b": np.zeros(3)}
    state = nn.OptimizerState.for_params(params)
    grads = {"a": np.full(4, 100.0), "b": np.full(3, 100.0)}
    pre_norm = nn.global_grad_norm(grads)
    returned = nn.adamw_step(params, grads, state, lr=0.0, clip_norm=1.0)
    assert returned == pytest.approx(pre_norm)
    clipped = np.sqrt(
        np.sum(state.m["a"] ** 2) + np.sum(state.m["b"] ** 2)
    ) / 0.1  # m = 0.1 * clipped gradient after one step
    assert clipped == pytest.approx(1.0)


def test_adamw_rejects_nonfinite_gradient():
    params = {"layer.w": np.zeros(2)}
    state = nn.OptimizerState.for_params(params)
    bad = {"layer.w": np.array([1.0, np.nan])}
    with pytest.raises(ValidationError, match="layer.w"):
        nn.adamw_step(params, bad, state, lr=0.1)


def test_adamw_rejects_unknown_parameter():
    params = {"w": np.zeros(2)}
    state = nn.OptimizerState.for_params(params)
    with pytest.raises(ValidationError, match="mystery"):
        nn.adamw_step(params, {"mystery": np.zeros(2)}, state, lr=0.1)


def test_finite_diff_check_on_quadratic():
    params = {"w": np.array([1.0, -2.0, 3.0])}

    def loss_fn(p):
        return float(0.5 * np.sum(p["w"] ** 2))

    report = nn.finite_diff_check(loss_fn, params, {"w": params["w"].copy()})
    assert report.max_rel_err < 1e-9
    assert report.n_checked == 3


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = nn.make_rng(9)
    params = {
        "enc.w": rng.normal(size=(4, 7)),
        "enc.b": rng.normal(size=4),
    }
    state = nn.OptimizerState.for_params(params)
    nn.adamw_step(params, {k: rng.normal(size=v.shape) for k, v in params.items()},
                  state, lr=1e-3, weight_decay=1e-2, clip_norm=1.0)
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
