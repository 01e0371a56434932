"""Model-level tests: distribution identities, generation invariants,
the enumeration oracle for the graph measure, and gradient spot checks."""

from __future__ import annotations

import itertools
import json
import math
import pathlib

import numpy as np
import pytest

import grouptopo as gt
from grouptopo import model as model_mod
from grouptopo import nn
from grouptopo.errors import ValidationError

from conftest import make_tiny
from finite_diff import finite_diff_check


def zero_params_like(params: dict) -> dict:
    return {k: np.zeros_like(v) for k, v in params.items()}


# ---------------------------------------------------------------------------
# Config and initialization.


def test_config_validation():
    with pytest.raises(ValidationError):
        gt.ModelConfig(pool_size=0)
    with pytest.raises(ValidationError):
        gt.ModelConfig(pool_size=2, max_steps=0)
    with pytest.raises(ValidationError):
        gt.ModelConfig(pool_size=2, beta_edge=-0.1)
    for field, value in [("beta_group", float("nan")), ("beta_edge", float("inf"))]:
        with pytest.raises(ValidationError, match=field):
            gt.ModelConfig(pool_size=2, **{field: value})
    for field in ("dim", "hidden"):
        with pytest.raises(ValidationError, match=f"'{field}' must be an integer >= 1"):
            gt.ModelConfig(pool_size=2, **{field: 0})


def test_float32_config_round_trips_through_a_checkpoint(tmp_path):
    config = gt.ModelConfig(pool_size=2, dim=4, hidden=3, beta_edge=np.float32(0.3))
    assert type(config.beta_edge) is float
    path = tmp_path / "model.npz"
    gt.save_checkpoint(path, gt.init_params(config), {"model": config.to_dict()})
    _, _, saved = gt.load_checkpoint(path)
    assert gt.ModelConfig.from_dict(saved["model"]) == config


def test_config_dict_roundtrip():
    config = gt.ModelConfig(pool_size=5, dim=12, hidden=6, max_steps=3,
                            beta_group=0.1, beta_edge=0.2, seed=7)
    assert gt.ModelConfig.from_dict(config.to_dict()) == config
    assert gt.ModelConfig.from_dict({**config.to_dict(), "beta_edge": 1}).beta_edge == 1
    with pytest.raises(ValidationError, match="must be an object"):
        gt.ModelConfig.from_dict([config.to_dict()])


@pytest.mark.parametrize("field, value, needle", [
    ("beta_edge", True, "'beta_edge' must be a number"),
    ("beta_group", "0.1", "'beta_group' must be a number"),
    ("dim", 12.0, "'dim' must be an integer"),
    ("seed", False, "'seed' must be an integer"),
    ("pool_size", None, "'pool_size' must be an integer"),
])
def test_config_from_dict_checks_json_types(field, value, needle):
    data = gt.ModelConfig(pool_size=5, dim=12, hidden=6).to_dict()
    with pytest.raises(ValidationError, match=needle):
        gt.ModelConfig.from_dict({**data, field: value})
    del data[field]
    with pytest.raises(ValidationError, match=f"missing '{field}'"):
        gt.ModelConfig.from_dict(data)
    with pytest.raises(ValidationError, match="missing"):
        gt.ModelConfig.from_dict({"dim": 4})


def test_init_params_deterministic_and_shaped():
    config = gt.ModelConfig(pool_size=3, dim=8, hidden=4, max_steps=5, seed=2)
    a = gt.init_params(config)
    b = gt.init_params(config)
    assert set(a) == set(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), name
    assert a["step_embed"].shape == (5, 8)
    assert a["edge_mlp.l1.w"].shape == (4, 24)
    assert a["edge_head.l2.w"].shape == (1, 4)
    assert a["end_embed"].shape == (8,)
    gt.check_params(a, config)


def test_check_params_names_every_mismatch():
    config = gt.ModelConfig(pool_size=3, dim=8, hidden=4, max_steps=5, seed=2)
    params = gt.init_params(config)
    del params["edge_gru.wz"]
    params["end_embed"] = np.zeros(7)
    params["grp_gru.uz"] = np.zeros((8, 8))
    with pytest.raises(ValidationError) as info:
        gt.check_params(params, config)
    for name in ("edge_gru.wz", "end_embed", "grp_gru.uz"):
        assert name in str(info.value)
    with pytest.raises(ValidationError, match="step_embed"):
        gt.check_params(gt.init_params(config), gt.ModelConfig(
            pool_size=3, dim=8, hidden=4, max_steps=6))


# ---------------------------------------------------------------------------
# Gaussian identities.


def test_kl_self_is_zero():
    rng = nn.make_rng(0)
    q = gt.model.GaussianDiag(mu=rng.normal(size=6), log_sigma=rng.normal(size=6) * 0.3)
    assert abs(model_mod._kl_terms(q, q).sum()) <= 1e-12


def test_kl_unit_shift_is_half():
    q = gt.model.GaussianDiag(mu=np.array([1.0]), log_sigma=np.array([0.0]))
    p = gt.model.GaussianDiag(mu=np.zeros(1), log_sigma=np.zeros(1))
    assert abs(model_mod._kl_terms(q, p).sum() - 0.5) <= 1e-9


def test_kl_is_nonnegative():
    rng = nn.make_rng(4)
    for _ in range(20):
        q = gt.model.GaussianDiag(mu=rng.normal(size=4), log_sigma=rng.normal(size=4))
        p = gt.model.GaussianDiag(mu=rng.normal(size=4), log_sigma=rng.normal(size=4))
        assert model_mod._kl_terms(q, p).sum() >= -1e-12


def test_reparameterize_zero_noise_is_mean():
    q = gt.model.GaussianDiag(mu=np.array([0.3, -1.2]), log_sigma=np.array([0.5, -0.5]))
    assert np.array_equal(gt.model.reparameterize(q, np.zeros(2)), q.mu)


def test_zero_prior_net_is_standard_normal(tiny):
    zeros = zero_params_like(tiny.params)
    z = np.linspace(-1, 1, tiny.config.dim)
    prior = model_mod._bottleneck(zeros, "prior_g", z)[0]
    assert np.array_equal(prior.mu, np.zeros(tiny.config.dim))
    assert np.array_equal(prior.log_sigma, np.zeros(tiny.config.dim))


def test_log_sigma_clamped(tiny):
    params = dict(tiny.params)
    params["enc_g.ls.w"] = tiny.params["enc_g.ls.w"] * 0.0
    params["enc_g.ls.b"] = np.full(tiny.config.dim, 50.0)
    dist = model_mod._bottleneck(params, "enc_g", np.ones(tiny.config.dim))[0]
    assert np.all(dist.log_sigma <= model_mod.LOG_SIGMA_MAX)
    params["enc_g.ls.b"] = np.full(tiny.config.dim, -50.0)
    dist = model_mod._bottleneck(params, "enc_g", np.ones(tiny.config.dim))[0]
    assert np.all(dist.log_sigma >= model_mod.LOG_SIGMA_MIN)


# ---------------------------------------------------------------------------
# Fusion.


def test_fuse_zero_history_gate_is_half(tiny):
    z, _ = model_mod.project_task(tiny.params, tiny.task_vec)
    fused, cache = gt.model.fuse_step(tiny.params, np.zeros(tiny.config.dim), z, 0)
    assert cache.gate == pytest.approx(0.5)
    expected = 0.5 * z + tiny.params["step_embed"][0]
    assert np.allclose(fused, expected)
    # One row per step: every zero-history row gates at one half too.
    steps = np.arange(3)
    rows, cache = gt.model.fuse_step(tiny.params, np.zeros((3, tiny.config.dim)), z, steps)
    assert np.allclose(cache.gate, 0.5)
    assert np.allclose(rows, 0.5 * z + tiny.params["step_embed"][steps])


def test_fuse_step_bounds(tiny):
    z = np.zeros(tiny.config.dim)
    with pytest.raises(ValidationError, match="embedding table"):
        gt.model.fuse_step(tiny.params, z, z, tiny.config.max_steps)


def test_fuse_step_rejects_an_overflowing_gate_score():
    """``np.einsum`` reports no overflow, so a gate score that overflows is
    caught by checking it, even where overflow is set to raise."""
    config = gt.ModelConfig(pool_size=2, dim=4, hidden=3, max_steps=3)
    params = {name: np.zeros_like(value) for name, value in gt.init_params(config).items()}
    h_his = np.array([[1e308, -1e308, 1e308, -1e308]])
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(ValidationError, match="gate score is not finite"):
            gt.model.fuse_step(params, np.ones((1, 4)), h_his, 1)


# ---------------------------------------------------------------------------
# Site heads, at the posterior mean.


def first_fused_state(tiny):
    z, _ = model_mod.project_task(tiny.params, tiny.task_vec)
    fused, _ = gt.model.fuse_step(tiny.params, np.zeros(tiny.config.dim), z, 0)
    return fused, z


def first_group_probs(tiny):
    """Selection probabilities of step 0, from a one-row group-site pass."""
    fused, _ = first_fused_state(tiny)
    matrix = model_mod.scoring_matrix(tiny.params, tiny.config, tiny.candidates)
    probs, _ = model_mod._group_sites(
        tiny.params, matrix, fused[None], np.zeros((1, tiny.config.dim))
    )
    return probs[0]


def test_group_site_is_distribution(tiny):
    probs = first_group_probs(tiny)
    assert probs.shape == (tiny.pool.size + 1,)
    assert probs.min() > 0.0
    assert probs.sum() == pytest.approx(1.0)


def test_edge_site_in_unit_interval(tiny):
    fused, z = first_fused_state(tiny)
    first = np.zeros(1, dtype=int)
    p, _ = model_mod._edge_sites(
        tiny.params, fused[None], tiny.candidates, z[None], first, first, first,
        np.zeros((1, tiny.config.dim)),
    )
    assert p.shape == (1,)
    assert 0.0 < p[0] < 1.0


def test_scoring_matrix_appends_stop_row(tiny):
    matrix = model_mod.scoring_matrix(tiny.params, tiny.config, tiny.candidates)
    assert matrix.shape == (tiny.pool.size + 1, tiny.config.dim)
    assert np.array_equal(matrix[:-1], tiny.candidates)
    assert np.array_equal(matrix[-1], tiny.params["end_embed"])


def test_scoring_matrix_dim_mismatch(tiny):
    other = gt.build_candidate_matrix(gt.HashingTextEmbedder(8), tiny.pool)
    with pytest.raises(ValidationError, match="dim"):
        model_mod.scoring_matrix(tiny.params, tiny.config, other)


@pytest.mark.parametrize("rows", [-1, 1], ids=["fewer_rows", "extra_row"])
def test_scoring_matrix_row_count(tiny, rows):
    """One candidate row per pool group, no more and no fewer: with an extra
    row, STOP's index would score that row and not ``end_embed``."""
    n = tiny.pool.size + rows
    candidates = np.resize(tiny.candidates, (n, tiny.config.dim))
    with pytest.raises(ValidationError, match="pool of 4"):
        model_mod.scoring_matrix(tiny.params, tiny.config, candidates)


@pytest.mark.parametrize("selected", [(4,), (10,)])
def test_teacher_forcing_rejects_candidates_of_another_pool(tiny, selected):
    """A 16-group model given the 4 candidate rows of ``tiny``: group 4 would
    be scored against the STOP row, group 10 would index past the matrix."""
    config = gt.ModelConfig(pool_size=16, dim=tiny.config.dim, hidden=tiny.config.hidden,
                            max_steps=4)
    args = (gt.init_params(config), config, tiny.candidates)
    graph = gt.GroupGraph(selected=selected)
    with pytest.raises(ValidationError, match="pool of 16"):
        gt.graph_log_likelihood(*args, tiny.task_vec, graph)
    with pytest.raises(ValidationError, match="pool of 16"):
        model_mod.minibatch_loss_and_grads(
            *args, tiny.task_vec[None], [graph], [None]
        )


def test_nan_candidate_rows_are_rejected(tiny):
    candidates = tiny.candidates.copy()
    candidates[2] = np.nan
    args = (tiny.params, tiny.config, candidates)
    with pytest.raises(ValidationError, match="candidate rows hold NaN"):
        gt.generate_graphs(*args, tiny.task_vec[None], [0])
    with pytest.raises(ValidationError, match="candidate rows hold NaN"):
        gt.graph_log_likelihood(*args, tiny.task_vec, gt.GroupGraph(selected=(0,)))


# ---------------------------------------------------------------------------
# Generation.


def test_generate_zero_params_runs_to_budget(tiny):
    zeros = zero_params_like(tiny.params)
    graph = gt.generate_graph(zeros, tiny.config, tiny.candidates, tiny.task_vec, 3)
    # All-zero logits: ties resolve to index 0, STOP never wins.
    assert graph.selected == (0,) * tiny.config.max_steps
    assert graph.truncated
    gt.validate_group_graph(graph, tiny.pool.size, tiny.config.max_steps)


def test_generate_is_seed_deterministic(tiny):
    a = gt.generate_graph(tiny.params, tiny.config, tiny.candidates, tiny.task_vec, 42)
    b = gt.generate_graph(tiny.params, tiny.config, tiny.candidates, tiny.task_vec, 42)
    assert a == b


def test_generate_forced_steps(tiny):
    graph = gt.generate_graph(
        tiny.params, tiny.config, tiny.candidates, tiny.task_vec, 1,
        forced_steps=3,
    )
    assert graph.n_steps == 3
    assert not graph.truncated
    with pytest.raises(ValidationError, match="forced_steps"):
        gt.generate_graph(
            tiny.params, tiny.config, tiny.candidates, tiny.task_vec, 1,
            forced_steps=tiny.config.max_steps + 1,
        )


def test_generate_pool_size_mismatch(tiny):
    config = gt.ModelConfig(pool_size=tiny.pool.size + 1, dim=tiny.config.dim,
                            hidden=tiny.config.hidden)
    params = gt.init_params(config)
    with pytest.raises(ValidationError, match="pool"):
        gt.generate_graph(params, config, tiny.candidates, tiny.task_vec, 0)


def test_generate_graphs_rejects_bad_batches(tiny):
    vecs = np.stack([tiny.task_vec, -tiny.task_vec])
    args = (tiny.params, tiny.config, tiny.candidates)
    assert gt.generate_graphs(*args, vecs[:0], []) == []
    for bad_vecs, seeds in ((vecs, [0]), (vecs, [0, 1, 2]), (tiny.task_vec, [0, 1])):
        with pytest.raises(ValidationError, match="one task row per seed"):
            gt.generate_graphs(*args, bad_vecs, seeds)
    for forced in (0, -1, tiny.config.max_steps + 1):
        with pytest.raises(ValidationError, match="forced_steps"):
            gt.generate_graphs(*args, vecs, [0, 1], forced_steps=forced)
    for seeds in (None, 5, {0}, np.int64(0), np.array(0)):
        with pytest.raises(ValidationError, match="seeds must be non-negative integers"):
            gt.generate_graphs(*args, vecs[:1], seeds)
    assert gt.generate_graphs(*args, vecs, np.array([0, 1])) == gt.generate_graphs(
        *args, vecs, (0, 1))
    config = gt.ModelConfig(pool_size=tiny.pool.size + 1, dim=tiny.config.dim,
                            hidden=tiny.config.hidden)
    with pytest.raises(ValidationError, match="pool"):
        gt.generate_graphs(gt.init_params(config), config, tiny.candidates, vecs, [0, 1])


DATA = pathlib.Path(__file__).parent / "data"


def test_older_v2_checkpoint_generates_the_same_graphs():
    """``data/v2_tiny.npz`` (4 groups, dim 16, hidden 8, at most 4 steps,
    trained from seed 9, no optimizer state) and ``data/v2_tiny_graphs.json``,
    the graphs it gave, were written while ``init_params`` still drew and
    dropped the zero-state GRU matrices of ``grp_gru`` and ``edge_gru``.
    Parameter names and shapes did not change, so the file still loads,
    passes ``check_params`` and generates the same graphs."""
    params, opt_state, saved = gt.load_checkpoint(DATA / "v2_tiny.npz")
    config = gt.ModelConfig.from_dict(saved["model"])
    gt.check_params(params, config)
    assert opt_state is None
    provider = gt.HashingTextEmbedder(config.dim)
    pool = gt.GroupPool(groups=gt.default_pool().groups[: config.pool_size])
    candidates = gt.build_candidate_matrix(provider, pool)
    expected = json.loads((DATA / "v2_tiny_graphs.json").read_text())
    for forced in (None, 3):
        rows = [row for row in expected if row["forced_steps"] == forced]
        graphs = gt.generate_graphs(
            params, config, candidates, provider.encode([row["query"] for row in rows]),
            [row["seed"] for row in rows], forced_steps=forced,
        )
        assert [gt.graph.group_graph_to_record(g) for g in graphs] == [r["graph"] for r in rows]
    assert len({json.dumps(row["graph"]) for row in expected}) > 2


def test_generated_graphs_always_valid():
    # Mini version of the 1000-seed sweep in the acceptance suite.
    setup = make_tiny(pool_size=4, dim=12, hidden=6, max_steps=5, seed=1)
    for seed in range(60):
        if seed % 20 == 0:
            config = gt.ModelConfig(pool_size=4, dim=12, hidden=6, max_steps=5,
                                    seed=seed + 100)
            params = gt.init_params(config)
        task_vec = setup.provider.encode([f"probe number {seed}"])[0]
        graph = gt.generate_graph(params, config, setup.candidates, task_vec, seed)
        gt.validate_group_graph(graph, 4, 5)
        assert type(graph.truncated) is bool


# ---------------------------------------------------------------------------
# Likelihood: enumeration oracle.


def enumerate_outcomes(pool_size: int, max_steps: int):
    """Every terminated-or-truncated graph the sampler could emit, including
    edge patterns that leave steps unreachable."""
    yield gt.GroupGraph()
    for n in range(1, max_steps + 1):
        pairs = [(i, t) for t in range(n) for i in range(t)]
        for selection in itertools.product(range(pool_size), repeat=n):
            for mask in range(1 << len(pairs)):
                edges = tuple(p for b, p in enumerate(pairs) if mask >> b & 1)
                yield gt.GroupGraph(selected=selection, edges=edges)


def test_likelihood_measure_sums_to_one():
    setup = make_tiny(pool_size=2, dim=10, hidden=5, max_steps=2, seed=9)
    outcomes = list(enumerate_outcomes(2, 2))
    assert len(outcomes) == 11
    total = sum(
        math.exp(
            gt.graph_log_likelihood(
                setup.params, setup.config, setup.candidates, setup.task_vec, g
            )
        )
        for g in outcomes
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_likelihood_empty_graph_is_stop_probability(tiny):
    probs = first_group_probs(tiny)
    ll = gt.graph_log_likelihood(
        tiny.params, tiny.config, tiny.candidates, tiny.task_vec, gt.GroupGraph()
    )
    assert ll == pytest.approx(math.log(probs[tiny.config.pool_size]))


def test_likelihood_rejects_structural_problems(tiny):
    with pytest.raises(ValidationError):
        gt.graph_log_likelihood(
            tiny.params, tiny.config, tiny.candidates, tiny.task_vec,
            gt.GroupGraph(selected=(99,)),
        )
    with pytest.raises(ValidationError):
        gt.graph_log_likelihood(
            tiny.params, tiny.config, tiny.candidates, tiny.task_vec,
            gt.GroupGraph(selected=(0,) * (tiny.config.max_steps + 1)),
        )


def test_likelihood_scores_unreachable_edge_patterns(tiny):
    # Step 2 has no incoming edge: invalid to execute, but it has mass.
    graph = gt.GroupGraph(selected=(0, 1, 2), edges=((0, 1),))
    ll = gt.graph_log_likelihood(
        tiny.params, tiny.config, tiny.candidates, tiny.task_vec, graph
    )
    assert math.isfinite(ll)
    with pytest.raises(ValidationError):
        gt.validate_group_graph(graph, tiny.pool.size, tiny.config.max_steps)


# ---------------------------------------------------------------------------
# Teacher-forced loss.


def test_loss_mean_mode_agrees_with_likelihood(tiny):
    graph = gt.GroupGraph(selected=(1, 0, 2), edges=((0, 1), (1, 2)))
    breakdown, _ = gt.loss_and_grads(
        tiny.params, tiny.config, tiny.candidates, tiny.task_vec, graph,
        compute_grads=False,
    )
    ll = gt.graph_log_likelihood(
        tiny.params, tiny.config, tiny.candidates, tiny.task_vec, graph
    )
    # With zero KL weights and mean latents the loss is exactly -log p.
    assert breakdown.total == pytest.approx(-ll)
    assert breakdown.n_group_sites == 4  # three steps + STOP
    assert breakdown.n_edge_sites == 3


def test_loss_counts_sites_at_budget():
    setup = make_tiny(max_steps=2)
    graph = gt.GroupGraph(selected=(0, 1), edges=((0, 1),))
    breakdown, _ = gt.loss_and_grads(
        setup.params, setup.config, setup.candidates, setup.task_vec, graph,
        compute_grads=False,
    )
    assert breakdown.n_group_sites == 2  # no STOP site at the budget


def test_loss_gradients_match_fd_sampled():
    setup = make_tiny(beta_group=0.7, beta_edge=0.3, seed=6)
    graph = gt.GroupGraph(selected=(1, 0, 2), edges=((0, 1), (0, 2)))
    noise = model_mod.trajectory_noise(nn.make_rng(17), graph, setup.config)
    _, grads = gt.loss_and_grads(
        setup.params, setup.config, setup.candidates, setup.task_vec, graph,
        noise=noise,
    )

    def loss_fn(p):
        b, _ = gt.loss_and_grads(
            p, setup.config, setup.candidates, setup.task_vec, graph,
            noise=noise, compute_grads=False,
        )
        return b.total

    report = finite_diff_check(loss_fn, setup.params, grads, sample=4)
    assert report.max_rel_err < 1e-4, report


def test_every_parameter_gets_a_gradient():
    # A tensor that never receives gradient is dead weight: it is stored,
    # checkpointed and moment-tracked but can never learn.
    setup = make_tiny(max_steps=5, beta_group=0.4, beta_edge=0.3, seed=4)
    graph = gt.GroupGraph(selected=(1, 0, 2, 3), edges=((0, 1), (1, 2), (0, 3)))
    noise = model_mod.trajectory_noise(nn.make_rng(2), graph, setup.config)
    breakdown, grads = gt.loss_and_grads(
        setup.params, setup.config, setup.candidates, setup.task_vec, graph,
        noise=noise,
    )
    assert breakdown.n_group_sites == 5  # four steps + STOP
    dead = sorted(
        name for name in setup.params
        if name not in grads or not np.any(grads[name])
    )
    assert dead == []


def test_loss_rejects_short_noise_stream(tiny):
    graph = gt.GroupGraph(selected=(0, 1), edges=((0, 1),))
    with pytest.raises(ValidationError, match="noise"):
        gt.loss_and_grads(
            tiny.params, tiny.config, tiny.candidates, tiny.task_vec, graph,
            noise=[np.zeros(tiny.config.dim)],
        )


def test_loss_noise_stream_length(tiny):
    graph = gt.GroupGraph(selected=(0, 1, 2), edges=((0, 1), (0, 2)))
    noise = model_mod.trajectory_noise(nn.make_rng(3), graph, tiny.config)
    # 3 selection sites + 3 edge sites + STOP = 7 draws.
    assert len(noise) == 7
    gt.loss_and_grads(
        tiny.params, tiny.config, tiny.candidates, tiny.task_vec, graph,
        noise=noise, compute_grads=False,
    )


def _minibatch(setup, task_vecs, graphs):
    return model_mod.minibatch_loss_and_grads(
        setup.params, setup.config, setup.candidates, task_vecs, graphs,
        [None] * len(graphs),
    )


GRAPH = gt.GroupGraph(selected=(0, 1), edges=((0, 1),))


def _loss_with_noise(setup, dim, fill):
    """``loss_and_grads`` on GRAPH with one noise row per site, of ``dim``."""
    sites = len(model_mod.trajectory_noise(nn.make_rng(0), GRAPH, setup.config))
    return gt.loss_and_grads(setup.params, setup.config, setup.candidates, setup.task_vec,
                             GRAPH, noise=np.full((sites, dim), fill))


@pytest.mark.parametrize("call,match", [
    pytest.param(lambda s, dim: _minibatch(s, np.zeros((0, dim)), []),
                 "one graph or more", id="empty_minibatch"),
    pytest.param(lambda s, dim: _minibatch(s, np.zeros((1, dim)), [GRAPH, GRAPH]),
                 "task row", id="minibatch_short_of_rows"),
    pytest.param(lambda s, dim: _minibatch(s, np.zeros((2, dim + 1)), [GRAPH, GRAPH]),
                 "task row", id="minibatch_wrong_dim"),
    pytest.param(lambda s, dim: gt.loss_and_grads(
        s.params, s.config, s.candidates, np.zeros(dim + 1), GRAPH),
                 "task row", id="loss_wrong_dim"),
    pytest.param(lambda s, dim: gt.graph_log_likelihood(
        s.params, s.config, s.candidates, np.zeros(dim - 1), GRAPH),
                 "task row", id="likelihood_wrong_dim"),
    pytest.param(lambda s, dim: gt.generate_graphs(
        s.params, s.config, s.candidates, np.zeros((2, dim + 1)), [0, 1]),
                 "of dim", id="generate_wrong_dim"),
    pytest.param(lambda s, dim: _minibatch(s, np.full((2, dim), np.nan), [GRAPH, GRAPH]),
                 "NaN or infinite", id="minibatch_nan_rows"),
    pytest.param(lambda s, dim: _minibatch(s, np.full((2, dim), 1.7e308), [GRAPH, GRAPH]),
                 "too large: overflow", id="minibatch_overflowing_rows"),
    pytest.param(lambda s, dim: gt.generate_graphs(
        s.params, s.config, s.candidates, np.full((2, dim), 1.7e308), [0, 1]),
                 "too large: overflow", id="generate_overflowing_rows"),
    pytest.param(lambda s, dim: gt.graph_log_likelihood(
        s.params, s.config, s.candidates, np.full(dim, -np.inf), GRAPH),
                 "NaN or infinite", id="likelihood_infinite_row"),
    pytest.param(lambda s, dim: gt.generate_graphs(
        s.params, s.config, s.candidates, np.full((2, dim), np.nan), [0, 1]),
                 "NaN or infinite", id="generate_nan_rows"),
    pytest.param(lambda s, dim: model_mod.minibatch_loss_and_grads(
        s.params, s.config, s.candidates, np.zeros((2, dim)), [GRAPH, GRAPH], [None]),
                 "noise entry for each", id="minibatch_short_of_noises"),
    pytest.param(lambda s, dim: model_mod.minibatch_loss_and_grads(
        s.params, s.config, s.candidates, np.zeros((1, dim)), [GRAPH], [None, None]),
                 "noise entry for each", id="minibatch_extra_noises"),
    pytest.param(lambda s, dim: _loss_with_noise(s, dim + 1, 0.0),
                 "noise rows of dim", id="loss_wrong_dim_noise"),
    pytest.param(lambda s, dim: _loss_with_noise(s, dim, np.nan),
                 "NaN or infinite", id="loss_nan_noise"),
    pytest.param(lambda s, dim: gt.loss_and_grads(
        s.params, s.config, s.candidates, s.task_vec, GRAPH,
        noise=[np.zeros(dim)] * 3 + [np.zeros(3)]),
                 "got ragged noise rows", id="loss_ragged_noise"),
    pytest.param(lambda s, dim: gt.generate_graphs(
        s.params, s.config, [*s.candidates[:-1], np.zeros(3)], np.zeros((1, dim)), [0]),
                 "got ragged candidate rows", id="generate_ragged_candidates"),
    pytest.param(lambda s, dim: gt.generate_graphs(
        s.params, s.config, s.candidates, [np.zeros(dim), np.zeros(3)], [0, 1]),
                 "got ragged task rows", id="generate_ragged_task_rows"),
    pytest.param(lambda s, dim: gt.generate_graphs(
        s.params, s.config, s.candidates, np.zeros((1, dim)), [-1]),
                 "seeds must be non-negative integers", id="generate_negative_seed"),
    pytest.param(lambda s, dim: gt.generate_graphs(
        s.params, s.config, s.candidates, np.zeros((1, dim)), [1.5]),
                 "seeds must be non-negative integers", id="generate_float_seed"),
    pytest.param(lambda s, dim: gt.generate_graphs(
        s.params, s.config, s.candidates, np.zeros((1, dim)), [0], forced_steps=2.5),
                 "forced_steps must be in", id="generate_float_forced_steps"),
])
def test_bad_task_inputs_raise_validation_error(tiny, call, match):
    """Task vectors, candidate rows and noise that do not fit the model, are
    ragged or are not finite, noise lists of the wrong length, an empty
    minibatch, and seeds or step counts that are not integers in range end in
    ValidationError instead of a NumPy error from deep inside a pass, or a
    silent NaN."""
    with pytest.raises(ValidationError, match=match):
        call(tiny, tiny.config.dim)
