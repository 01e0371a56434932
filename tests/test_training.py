"""Training-loop and exploration/curation tests."""

from __future__ import annotations

import json

import numpy as np
import pytest

import grouptopo as gt
from grouptopo import nn
from grouptopo.errors import ValidationError
from grouptopo.training import family_edges, sample_candidate_topology

from conftest import make_tiny


# ---------------------------------------------------------------------------
# KL warmup schedule.


def test_warmup_schedule_values():
    assert gt.training.kl_warmup(0, 10, 0.3) == 0.0
    assert gt.training.kl_warmup(5, 10, 0.3) == pytest.approx(0.15)
    assert gt.training.kl_warmup(10, 10, 0.3) == 0.3
    assert gt.training.kl_warmup(25, 10, 0.3) == 0.3


def test_warmup_no_warmup_is_constant():
    assert gt.training.kl_warmup(0, 0, 0.4) == 0.4


def test_warmup_monotone():
    vals = [gt.training.kl_warmup(e, 7, 1.0) for e in range(15)]
    assert vals == sorted(vals)


def test_warmup_rejects_negative_epoch():
    with pytest.raises(ValidationError):
        gt.training.kl_warmup(-1, 10, 0.3)


# ---------------------------------------------------------------------------
# Config validation.


def test_train_config_validation():
    with pytest.raises(ValidationError):
        gt.TrainConfig(epochs=0)
    with pytest.raises(ValidationError):
        gt.TrainConfig(batch_size=0)
    with pytest.raises(ValidationError):
        gt.TrainConfig(lr=0.0)
    with pytest.raises(ValidationError):
        gt.TrainConfig(warmup_epochs=-1)
    for field, value in [("lr", float("nan")), ("lr", float("inf")),
                         ("weight_decay", float("nan")), ("clip_norm", float("inf")),
                         ("weight_decay", -1e-3), ("clip_norm", -1.0)]:
        with pytest.raises(ValidationError, match=field):
            gt.TrainConfig(**{field: value})


def test_exploration_config_validation():
    with pytest.raises(ValidationError):
        gt.ExplorationConfig(families=())
    with pytest.raises(ValidationError):
        gt.ExplorationConfig(families=("pentagon",))
    with pytest.raises(ValidationError):
        gt.ExplorationConfig(n_steps=0)


@pytest.mark.parametrize("make, field, value", [
    (lambda v: gt.ModelConfig(pool_size=2, dim=v), "dim", 2.5),
    (lambda v: gt.ModelConfig(pool_size=2, seed=v), "seed", -1),
    (lambda v: gt.TrainConfig(epochs=v), "epochs", float("nan")),
    (lambda v: gt.TrainConfig(batch_size=v), "batch_size", True),
    (lambda v: gt.ExplorationConfig(n_steps=v), "n_steps", 2.5),
    (lambda v: gt.ExplorationConfig(rounds=v), "rounds", 0),
], ids=["model_float_dim", "model_negative_seed", "train_nan_epochs", "train_bool_batch",
        "exploration_float_steps", "exploration_zero_rounds"])
def test_config_counts_must_be_integers_in_range(make, field, value):
    with pytest.raises(ValidationError, match=f"'{field}' must be an integer >= "):
        make(value)


def test_config_counts_are_stored_as_python_ints():
    config = gt.ModelConfig(pool_size=np.int64(3), dim=np.int32(8))
    assert type(config.pool_size) is int and type(config.dim) is int
    assert gt.ModelConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


# ---------------------------------------------------------------------------
# Topology templates.


def test_family_edges_shapes():
    assert family_edges("chain", 3) == ((0, 1), (1, 2))
    assert family_edges("star", 3) == ((0, 1), (0, 2))
    assert family_edges("full", 3) == ((0, 1), (0, 2), (1, 2))
    assert family_edges("chain", 1) == ()
    with pytest.raises(ValidationError):
        family_edges("ring", 3)


def test_sampled_topologies_are_valid():
    rng = nn.make_rng(12)
    for family in gt.training.TOPOLOGY_FAMILIES:
        for _ in range(10):
            graph = sample_candidate_topology(rng, 5, family, 3)
            gt.validate_group_graph(graph, 5, 8)
            assert graph.n_steps == 3


# ---------------------------------------------------------------------------
# Curation.


def _result(query, graph, correct, answer="x"):
    return gt.ExplorationResult(
        query=query, answer=answer, graph=graph, family="chain",
        correct=correct, final_text="", prompt_tokens=0, completion_tokens=0,
    )


def test_curate_prefers_fewer_steps():
    small = gt.GroupGraph(selected=(0,))
    big = gt.GroupGraph(selected=(0, 1), edges=((0, 1),))
    picked, excluded = gt.curate_minimal([
        _result("q", big, True), _result("q", small, True),
    ])
    assert excluded == []
    assert picked[0].graph == small


def test_curate_prefers_fewer_edges_then_lexicographic():
    sparse = gt.GroupGraph(selected=(0, 1, 2), edges=((0, 1), (1, 2)))
    dense = gt.GroupGraph(selected=(0, 1, 2), edges=((0, 1), (0, 2), (1, 2)))
    picked, _ = gt.curate_minimal([
        _result("q", dense, True), _result("q", sparse, True),
    ])
    assert picked[0].graph == sparse

    a = gt.GroupGraph(selected=(0, 2), edges=((0, 1),))
    b = gt.GroupGraph(selected=(1, 0), edges=((0, 1),))
    picked, _ = gt.curate_minimal([_result("q", b, True), _result("q", a, True)])
    assert picked[0].graph == a


def test_curate_excludes_unsolved_queries():
    g = gt.GroupGraph(selected=(0,))
    picked, excluded = gt.curate_minimal([
        _result("solved", g, True),
        _result("unsolved", g, False),
        _result("unsolved", g, False),
    ])
    assert [t.query for t in picked] == ["solved"]
    assert excluded == ["unsolved"]


def test_curate_preserves_first_seen_order():
    g = gt.GroupGraph(selected=(0,))
    picked, _ = gt.curate_minimal([
        _result("b", g, True), _result("a", g, True), _result("b", g, True),
    ])
    assert [t.query for t in picked] == ["b", "a"]


def test_exploration_record_roundtrip():
    graph = gt.GroupGraph(selected=(1, 2), edges=((0, 1),))
    result = gt.ExplorationResult(
        query="add two and two", answer="4", graph=graph, family="star",
        correct=True, final_text="the answer is 4",
        prompt_tokens=12, completion_tokens=5,
    )
    record = gt.training.exploration_result_to_record(result)
    assert record["v"] == "v1"
    assert record["kind"] == "exploration"
    assert gt.training.exploration_result_from_record(record) == result


@pytest.mark.parametrize("count", [-3, 2.5, True, "4"])
def test_exploration_result_rejects_bad_token_counts(count):
    graph = gt.GroupGraph(selected=(0,))
    for key in ("prompt_tokens", "completion_tokens"):
        fields = {"prompt_tokens": 1, "completion_tokens": 1, key: count}
        with pytest.raises(ValidationError, match=f"'{key}' must be an integer >= 0"):
            gt.ExplorationResult(query="q", answer="", graph=graph, family="",
                                 correct=True, final_text="", **fields)


@pytest.mark.parametrize("correct", ["no", 1, None])
def test_exploration_result_rejects_a_correct_that_is_not_a_bool(correct):
    with pytest.raises(ValidationError, match="'correct' must be true or false"):
        gt.ExplorationResult(query="q", answer="", graph=gt.GroupGraph(selected=(0,)),
                             family="", correct=correct, final_text="",
                             prompt_tokens=0, completion_tokens=0)


def test_exploration_result_stores_python_scalars():
    result = gt.ExplorationResult(
        query="q", answer="", graph=gt.GroupGraph(selected=(0,)), family="",
        correct=np.bool_(True), final_text="",
        prompt_tokens=np.int64(7), completion_tokens=np.int32(0),
    )
    assert (result.correct, result.prompt_tokens, result.completion_tokens) == (True, 7, 0)
    assert type(result.correct) is bool
    assert type(result.prompt_tokens) is int and type(result.completion_tokens) is int


# ---------------------------------------------------------------------------
# Exploration against a scripted backend.


def make_dataset():
    return [
        gt.EvalExample(query="what is 2 plus 3", answer="5"),
        gt.EvalExample(query="what is 10 minus 4", answer="6"),
    ]


def answer_backend(dataset):
    return gt.AnswerKeyBackend({ex.query: ex.answer for ex in dataset})


def test_explore_and_label_counts(pool4):
    dataset = make_dataset()
    config = gt.ExplorationConfig(
        families=("chain", "star"), n_steps=2, samples_per_family=2, seed=3,
    )
    results = gt.explore_and_label(pool4, dataset, answer_backend(dataset), config)
    assert len(results) == len(dataset) * 2 * 2
    # Dataset-major ordering.
    assert [r.query for r in results[:4]] == [dataset[0].query] * 4
    for r in results:
        gt.validate_group_graph(r.graph, pool4.size, 8)
        assert r.correct  # answer key always lands for these graphs
        assert r.prompt_tokens > 0
    assert gt.explore_and_label(pool4, [], answer_backend(dataset), config) == []


def test_explore_and_label_worker_parity(pool4):
    dataset = make_dataset()
    config = gt.ExplorationConfig(n_steps=2, samples_per_family=1, seed=8)
    backend = answer_backend(dataset)
    results = gt.explore_and_label(pool4, dataset, backend, config)
    # Each result is its graph evaluated on a schedule of its own.
    for example, result in zip([e for e in dataset for _ in config.families], results):
        (item,) = gt.evaluate([example], result.graph, pool4, backend).items
        assert result == gt.ExplorationResult(
            query=item.query, answer=item.expected, graph=result.graph,
            family=result.family, correct=item.correct, final_text=item.got,
            prompt_tokens=item.prompt_tokens, completion_tokens=item.completion_tokens,
        )


# ---------------------------------------------------------------------------
# The training loop itself.


def overfit_setup(n_examples=4, epochs=30):
    setup = make_tiny(pool_size=4, dim=16, hidden=8, max_steps=4, seed=5)
    graphs = [
        gt.GroupGraph(selected=(0,)),
        gt.GroupGraph(selected=(1,)),
        gt.GroupGraph(selected=(2, 3), edges=((0, 1),)),
        gt.GroupGraph(selected=(1, 0), edges=((0, 1),)),
    ]
    dataset = [
        gt.Trajectory(query=f"distinct probe query number {i}", graph=graphs[i])
        for i in range(n_examples)
    ]
    model_config = gt.ModelConfig(pool_size=4, dim=16, hidden=8, max_steps=4, seed=5)
    train_config = gt.TrainConfig(
        epochs=epochs, warmup_epochs=0, batch_size=4, lr=3e-2,
        weight_decay=0.0, seed=1,
    )
    return setup, dataset, model_config, train_config


def test_train_reduces_loss(pool4):
    setup, dataset, model_config, train_config = overfit_setup()
    result = gt.train(pool4, setup.provider, dataset, model_config, train_config)
    assert len(result.history) == train_config.epochs
    assert result.history[-1].loss < 0.5 * result.history[0].loss
    assert all(np.isfinite(log.loss) for log in result.history)


def test_train_is_bit_deterministic(pool4):
    setup, dataset, model_config, train_config = overfit_setup(epochs=5)
    a = gt.train(pool4, setup.provider, dataset, model_config, train_config)
    b = gt.train(pool4, setup.provider, dataset, model_config, train_config)
    assert a.history == b.history
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name]), name


def test_train_applies_warmup(pool4):
    setup, dataset, model_config, _ = overfit_setup()
    model_config = gt.ModelConfig(
        pool_size=4, dim=16, hidden=8, max_steps=4, seed=5,
        beta_group=0.2, beta_edge=0.4,
    )
    train_config = gt.TrainConfig(epochs=4, warmup_epochs=4, batch_size=4,
                                  lr=1e-3, seed=1)
    result = gt.train(pool4, setup.provider, dataset, model_config, train_config)
    assert result.history[0].beta_edge == 0.0
    assert result.history[2].beta_edge == pytest.approx(0.2)
    assert result.history[0].kl_edge >= 0.0


def test_train_rejects_pool_mismatch(pool4):
    setup, dataset, _, train_config = overfit_setup()
    model_config = gt.ModelConfig(pool_size=9, dim=16, hidden=8, max_steps=4)
    with pytest.raises(ValidationError, match="pool"):
        gt.train(pool4, setup.provider, dataset, model_config, train_config)


def test_train_rejects_invalid_trajectory(pool4):
    setup, dataset, model_config, train_config = overfit_setup()
    bad = gt.Trajectory(
        query="broken", graph=gt.GroupGraph(selected=(0, 1))
    )  # step 1 unreachable
    with pytest.raises(ValidationError, match="incoming"):
        gt.train(pool4, setup.provider, dataset + [bad], model_config, train_config)


def test_train_rejects_params_and_moments_that_do_not_match(pool4):
    setup, dataset, model_config, train_config = overfit_setup(epochs=1)
    args = (pool4, setup.provider, dataset, model_config, train_config)
    params = gt.init_params(model_config)
    del params["end_embed"]
    with pytest.raises(ValidationError, match="end_embed"):
        gt.train(*args, params=params)
    params = gt.init_params(model_config)
    for moments in ("m", "v"):
        for edit in ("drop", "reshape"):
            opt_state = nn.OptimizerState.for_params(params)
            getattr(opt_state, moments).pop("end_embed")
            if edit == "reshape":
                getattr(opt_state, moments)["end_embed"] = np.zeros(3)
            with pytest.raises(ValidationError, match="moments"):
                gt.train(*args, params=params, opt_state=opt_state)


def test_train_resume_from_params(pool4):
    setup, dataset, model_config, train_config = overfit_setup(epochs=6)
    full = gt.train(pool4, setup.provider, dataset, model_config, train_config)
    # Same data, fresh call, previous params passed back in: keeps improving.
    more = gt.train(
        pool4, setup.provider, dataset, model_config, train_config,
        params=full.params, opt_state=full.opt_state,
    )
    assert more.history[-1].loss <= full.history[-1].loss
