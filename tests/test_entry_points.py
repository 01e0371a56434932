"""Tests for the library's entry points. Given bad values inside their
annotations (ragged, NaN, infinite, huge, negative, a bool for an int, NumPy
scalars, empty, arrays of bools or complex numbers), the records, the configs,
the model and optimizer entry points, ``train`` and ``run_graph``'s backend
replies succeed or raise GroupTopoError, never a raw NumPy or Python error, and
what they return is finite. Values outside the annotations are swept: each
parameter of the README's top-level table that ``EXCLUDED`` does not name must
refuse every value that ``outside`` derives from its annotation, and
``test_the_type_rule_has_one_owner`` keeps each plain type check in ``graph.check_type``."""

from __future__ import annotations

import ast
import collections.abc
import dataclasses
import inspect
import json
import pathlib
import re
import threading
import types
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import grouptopo as gt
from grouptopo.graph import is_integer
from test_readme import readme_top_level

PROPERTY = settings(max_examples=60, deadline=None)

integers = st.one_of(
    st.integers(-3, 12),
    st.integers(-3, 12).map(np.int64),
    st.booleans(),
    st.sampled_from([None, 2.0, 2.5, float("nan"), float("inf"), np.float64(3.0)]),
)
numbers = st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0).map(np.float64),
    st.floats(-2.0, 2.0, width=32).map(np.float32),
    st.integers(-2, 3),
    st.booleans(),
    st.sampled_from([None, float("nan"), float("inf"), -float("inf")]),
)
entries = st.one_of(st.floats(), st.sampled_from([1.7e308, -1.7e308]))


def expect_checked(call):
    """Run ``call``; a GroupTopoError is an accepted outcome. Return its result,
    or None when it raised."""
    try:
        return call()
    except gt.GroupTopoError:
        return None


# ---------------------------------------------------------------------------
# GroupGraph.

selections = st.one_of(
    st.lists(integers, max_size=4),
    st.lists(st.integers(0, 3), max_size=4).map(np.array),
    st.sampled_from([None, 5, np.int64(2), 1.5, "012", ()]),
)
edge_items = st.one_of(
    st.tuples(integers, integers),
    st.lists(st.integers(-1, 4), max_size=3).map(tuple),
    st.sampled_from(["0->1", "01", None, 3, np.int64(1), (0, 1, 2), ()]),
)
edge_lists = st.one_of(
    st.lists(edge_items, max_size=4),
    st.sampled_from([None, 5, "0->1", np.array([[0, 1]]), np.zeros((1, 3), dtype=int)]),
)
truncations = st.sampled_from([True, False, np.bool_(True), 1, 0, "no", None])


@PROPERTY
@given(selected=selections, edges=edge_lists, truncated=truncations)
def test_group_graph_is_checked_or_well_formed(selected, edges, truncated):
    graph = expect_checked(
        lambda: gt.GroupGraph(selected=selected, edges=edges, truncated=truncated)
    )
    if graph is None:
        return
    assert all(type(s) is int and s >= 0 for s in graph.selected)
    assert all(type(i) is int and type(t) is int and 0 <= i < t < graph.n_steps
               for i, t in graph.edges)
    assert list(graph.edges) == sorted(set(graph.edges))
    assert type(graph.truncated) is bool


# ---------------------------------------------------------------------------
# Configs.


@PROPERTY
@given(pool_size=integers, dim=integers, hidden=integers, max_steps=integers,
       beta_group=numbers, beta_edge=numbers, seed=integers)
@example(pool_size=2, dim=4, hidden=3, max_steps=2, beta_group=0,
         beta_edge=np.float32(0.3), seed=0)
def test_model_config_is_checked_and_round_trips(**fields):
    config = expect_checked(lambda: gt.ModelConfig(**fields))
    if config is None:
        return
    # What a checkpoint stores must read back as the same config.
    assert gt.ModelConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


@PROPERTY
@given(epochs=integers, warmup_epochs=integers, batch_size=integers, lr=numbers,
       weight_decay=numbers, clip_norm=numbers, seed=integers)
@example(epochs=1, warmup_epochs=0, batch_size=1, lr=1, weight_decay=np.float32(0.5),
         clip_norm=0, seed=0)
def test_train_config_is_checked(**fields):
    config = expect_checked(lambda: gt.TrainConfig(**fields))
    if config is not None:
        assert all(type(getattr(config, name)) is int
                   for name in ("epochs", "warmup_epochs", "batch_size", "seed"))
        assert all(type(getattr(config, name)) is float
                   for name in ("lr", "weight_decay", "clip_norm"))


@PROPERTY
@given(families=st.lists(st.sampled_from(["chain", "star", "full", "ring", ""]),
                         max_size=3).map(tuple),
       n_steps=integers, samples_per_family=integers, rounds=integers, seed=integers)
def test_exploration_config_is_checked(**fields):
    config = expect_checked(lambda: gt.ExplorationConfig(**fields))
    if config is not None:
        assert all(type(getattr(config, name)) is int
                   for name in ("n_steps", "samples_per_family", "rounds", "seed"))


# ---------------------------------------------------------------------------
# AttackSpec.

# The expanded chain solver -> analyst, then the summarizer: three nodes.
ATTACK_GRAPH = gt.materialize_agent_graph(
    gt.GroupGraph(selected=(0, 1), edges=((0, 1),)), gt.default_pool(), mode="expanded"
)
NODE_NAMES = [node.name for node in ATTACK_GRAPH.nodes]


@PROPERTY
@given(target=st.one_of(integers, st.sampled_from([*NODE_NAMES, "nobody", "", "0"])))
@example(target=True)
@example(target=np.int64(1))
def test_attack_target_is_checked(target):
    n_nodes = len(ATTACK_GRAPH.nodes)
    if is_integer(target) and 0 <= target < n_nodes:
        index = gt.AttackSpec(target=target, text="x").resolve(ATTACK_GRAPH)
        assert type(index) is int and index == target
        return
    attack = expect_checked(lambda: gt.AttackSpec(target=target, text="x"))
    index = attack and expect_checked(lambda: attack.resolve(ATTACK_GRAPH))
    if index is not None:
        assert type(index) is int and ATTACK_GRAPH.nodes[index].name == target


# ---------------------------------------------------------------------------
# generate_graphs.

POOL, DIM, MAX_STEPS = 3, 4, 3


@pytest.fixture(scope="module")
def tiny_model():
    config = gt.ModelConfig(pool_size=POOL, dim=DIM, hidden=3, max_steps=MAX_STEPS)
    return config, gt.init_params(config)


def row_lists(n_rows, widths):
    """Lists of ``n_rows`` rows, each of a width drawn from ``widths``, so that
    some lists are ragged."""
    return n_rows.flatmap(lambda n: st.lists(
        widths.flatmap(lambda w: st.lists(entries, min_size=w, max_size=w)),
        min_size=n, max_size=n,
    ))


# Arrays of a dtype that is not a real number, which the model rejects.
ODD_DTYPES = (bool, complex, object, str)


def odd_arrays(shapes):
    """Arrays of ones of each shape in ``shapes`` and each of ``ODD_DTYPES``."""
    return st.sampled_from([np.ones(shape, dtype=dtype)
                            for shape in shapes for dtype in ODD_DTYPES])


def real_arrays(*values):
    """Whether every value was a real integer or float array."""
    return all(np.asarray(value).dtype.kind in "iuf" for value in values)


matrices = st.one_of(
    row_lists(st.sampled_from([POOL]), st.just(DIM)).map(np.array),
    row_lists(st.integers(0, POOL + 1), st.sampled_from([DIM, DIM, 2])),
    st.sampled_from([[], np.zeros((0, DIM)), np.zeros(DIM), 0.5]),
    odd_arrays([(POOL, DIM)]),
)
seed_lists = st.lists(
    st.one_of(st.integers(-2, 2**40), st.integers(0, 9).map(np.int64), st.booleans(),
              st.sampled_from([1.5, float("nan"), None])),
    max_size=3,
)
forced = st.one_of(st.none(), integers)


task_rows = st.one_of(
    row_lists(st.integers(0, 3), st.sampled_from([DIM, DIM, 1])),
    odd_arrays([(1, DIM), (2, DIM)]),
)


@PROPERTY
@given(candidates=matrices, rows=task_rows, seeds=seed_lists, forced_steps=forced)
@example(candidates=np.ones((POOL, DIM)), rows=[[1.7e308] * DIM], seeds=[0],
         forced_steps=None)
@example(candidates=np.ones((POOL, DIM)), rows=np.ones((1, DIM), dtype=bool), seeds=[0],
         forced_steps=None)
@example(candidates=np.ones((POOL, DIM)), rows=np.ones((1, DIM), dtype=complex), seeds=[0],
         forced_steps=None)
@example(candidates=np.ones((POOL, DIM), dtype=object), rows=np.ones((1, DIM)), seeds=[0],
         forced_steps=None)
@example(candidates=np.ones((POOL, DIM)), rows=[["1"] * DIM], seeds=[0], forced_steps=None)
def test_generate_graphs_is_checked(tiny_model, candidates, rows, seeds, forced_steps):
    config, params = tiny_model
    graphs = expect_checked(lambda: gt.generate_graphs(
        params, config, candidates, rows, seeds, forced_steps=forced_steps
    ))
    if graphs is None:
        return
    assert real_arrays(candidates, rows)
    assert len(graphs) == len(seeds)
    for graph in graphs:
        gt.validate_group_graph(graph, POOL, MAX_STEPS)
        if forced_steps is not None:
            assert graph.n_steps == forced_steps


# ---------------------------------------------------------------------------
# minibatch_loss_and_grads, check_params, adamw_step and train.
#
# Each array is built from a kind: a valid one of the shape asked for (float,
# negative, an integer dtype or nested lists), or a bad one of that length.

KINDS = st.sampled_from([float, float, "int", "list", "negative", "nan", "huge", "short",
                         "ragged", *ODD_DTYPES])
VALID = st.sampled_from([float, float, "int", "list"])
MOSTLY_VALID = st.one_of(VALID, VALID, KINDS)


def make_array(kind, shape):
    """An array-like by ``kind``: valid ones have ``shape``."""
    if kind == "list":
        return np.zeros(shape).tolist()
    if kind == "int":
        return np.ones(shape, dtype=np.int64)
    if kind in ("negative", "nan", "huge"):
        return np.full(shape, {"negative": -1.0, "nan": np.nan, "huge": 1.7e308}[kind])
    if kind == "short":
        return np.zeros((*shape[:-1], shape[-1] - 1))
    if kind == "ragged":
        return [np.zeros(shape).tolist(), [0.0]]
    return np.ones(shape, dtype=kind)


def finite(arrays):
    return all(np.isfinite(array).all() for array in arrays)


GRAPHS = (gt.GroupGraph(), gt.GroupGraph(selected=(0,)),
          gt.GroupGraph(selected=(1, 2), edges=((0, 1),)))
valid_graph_lists = st.lists(st.sampled_from(GRAPHS), min_size=1, max_size=3)
graph_lists = st.one_of(
    valid_graph_lists, valid_graph_lists,
    st.lists(st.one_of(st.sampled_from(GRAPHS), st.sampled_from([None, "0->1", 3])),
             max_size=3),
    st.sampled_from([None, GRAPHS[1], 5]),
)


@PROPERTY
@given(graphs=graph_lists, row_kind=MOSTLY_VALID,
       noise_kinds=st.lists(st.one_of(st.none(), VALID, KINDS), min_size=4, max_size=4),
       extra=st.sampled_from([0, 0, 0, 0, -1, 1, None]))
@example(graphs=[GRAPHS[2]], row_kind=str, noise_kinds=[None] * 4, extra=0)
@example(graphs=[GRAPHS[2]], row_kind=float, noise_kinds=[complex] * 4, extra=0)
def test_minibatch_loss_and_grads_is_checked(tiny_model, graphs, row_kind, noise_kinds,
                                            extra):
    config, params = tiny_model
    batch = graphs if isinstance(graphs, list) else [GRAPHS[1]]
    rows = make_array(row_kind, (len(batch), DIM))
    sites = [len(gt.model.trajectory_noise(gt.make_rng(0), graph, config))
             if isinstance(graph, gt.GroupGraph) else 1 for graph in batch + [GRAPHS[2]] * 2]
    noises = None if extra is None else [
        None if kind is None else make_array(kind, (count, DIM))
        for kind, count in zip(noise_kinds, sites)
    ][: len(batch) + extra]
    result = expect_checked(lambda: gt.minibatch_loss_and_grads(
        params, config, np.eye(POOL, DIM), rows, graphs, noises,
    ))
    if result is None:
        return
    breakdowns, grads = result
    assert real_arrays(rows, *(noise for noise in noises if noise is not None))
    assert finite([b.total for b in breakdowns]) and finite(grads.values())


param_edits = st.dictionaries(st.sampled_from(["end_embed", "his_gru.wz", "task_ffn.l1.b",
                                               "extra.w"]),
                              st.one_of(st.just("drop"), KINDS), max_size=2)


@PROPERTY
@given(edits=param_edits)
@example(edits={"end_embed": "list", "his_gru.wz": "list"})
def test_check_params_returns_checked_float64_arrays(tiny_model, edits):
    config, params = tiny_model
    given_params = dict(params)
    for name, kind in edits.items():
        if kind == "drop":
            given_params.pop(name, None)
        else:
            given_params[name] = make_array(kind, params.get(name, np.zeros(2)).shape)
    try:
        checked = gt.check_params(given_params, config)
    except gt.GroupTopoError:
        return
    # A plain dict, even of a layout's own views, is copied into a new layout.
    assert list(checked) == list(params)
    assert gt.nn.Layout.fits(checked, params.shapes)
    for name, value in checked.items():
        assert value.dtype == np.float64 and value.shape == params[name].shape
        assert value is not given_params[name]
        assert np.array_equal(value, np.asarray(given_params[name], dtype=np.float64))
    assert finite(checked.values())


ADAM_SHAPES = {"a": (2,), "b": (2, 3)}


@PROPERTY
@given(edits=st.dictionaries(st.sampled_from(["a", "b", "c"]), MOSTLY_VALID, max_size=3))
@example(edits={"a": "short"})
@example(edits={"a": "huge"})
@example(edits={"b": "list"})
def test_adamw_step_checks_each_gradient(edits):
    """A valid or non-finite value of the right length is written into its
    slot; any other edit replaces or adds an entry, which leaves a plain dict."""
    params = gt.nn.Layout(ADAM_SHAPES.items())
    params.vector.fill(1.0)
    state = gt.nn.OptimizerState.for_params(params)
    grads = gt.nn.Layout(ADAM_SHAPES.items())
    for name, kind in edits.items():
        value = make_array(kind, ADAM_SHAPES.get(name, (2,)))
        if name in grads and kind in (float, "int", "list", "negative", "nan", "huge"):
            grads[name][...] = value
        else:
            grads[name] = value
    norm = expect_checked(lambda: gt.adamw_step(params, grads, state, lr=0.1, clip_norm=1.0))
    if norm is None:
        return
    assert gt.nn.Layout.fits(grads, ADAM_SHAPES.items())
    assert finite([norm]) and finite(params.values())


@pytest.mark.parametrize("state, scalars, message", [
    (None, {}, "'state' must be an OptimizerState, got None"),
    ("moments", {}, "'state' must be an OptimizerState, got 'moments'"),
    ("fresh", {"lr": None}, "'lr' must be a finite number >= 0, got None"),
    ("fresh", {"lr": "0.1"}, "'lr' must be a finite number >= 0, got '0.1'"),
    ("fresh", {"weight_decay": -1.0}, "'weight_decay' must be a finite number >= 0, got -1.0"),
    ("fresh", {"clip_norm": float("nan")}, "'clip_norm' must be a finite number >= 0, got nan"),
    ("fresh", {"clip_norm": True}, "'clip_norm' must be a finite number >= 0, got True"),
], ids=["state_none", "state_str", "lr_none", "lr_str", "negative_decay", "nan_clip", "bool_clip"])
def test_adamw_step_checks_state_and_scalars_before_any_update(state, scalars, message):
    params = gt.nn.Layout(ADAM_SHAPES.items())
    params.vector.fill(1.0)
    grads = gt.nn.Layout(params.shapes)
    grads.vector.fill(0.5)
    fresh = gt.nn.OptimizerState.for_params(params)
    with pytest.raises(gt.ValidationError, match=message):
        gt.adamw_step(params, grads, fresh if state == "fresh" else state,
                      **{"lr": 0.1, **scalars})
    assert fresh.step == 0 and not fresh.m.vector.any() and (params.vector == 1.0).all()
    gt.adamw_step(params, grads, fresh, lr=np.float64(0.1), weight_decay=0, clip_norm=None)
    assert fresh.step == 1 and (params.vector < 1.0).all()


@pytest.mark.parametrize("step", ["x", -1, 1.5, True, None])
def test_optimizer_step_is_a_non_negative_integer(step):
    with pytest.raises(gt.ValidationError, match="'step' must be an integer >= 0"):
        gt.nn.OptimizerState(step=step)
    assert type(gt.nn.OptimizerState(step=np.int64(2)).step) is int


TRAIN_POOL = gt.GroupPool(gt.default_pool().groups[:POOL])
TRAIN_SET = [gt.Trajectory("q", GRAPHS[2])]
moment_edits = st.one_of(st.none(), st.tuples(
    st.sampled_from(["m", "v"]), st.sampled_from(["end_embed", "his_gru.wz", "extra.w"]),
    st.one_of(st.just("drop"), KINDS),
))


@PROPERTY
@given(edits=param_edits, moments=moment_edits)
@example(edits={}, moments=None)
@example(edits={"end_embed": "int"}, moments=None)
@example(edits={}, moments=("m", "his_gru.wz", "list"))
@example(edits={}, moments=("v", "end_embed", "nan"))
@example(edits={}, moments=("v", "end_embed", "negative"))
def test_train_checks_params_and_moments(tiny_model, edits, moments):
    config, params = tiny_model
    given_params = {name: value.copy() for name, value in params.items()}
    for name, kind in edits.items():
        if kind == "drop":
            given_params.pop(name, None)
        else:
            given_params[name] = make_array(kind, params.get(name, np.zeros(2)).shape)
    opt_state = None
    if moments is not None:
        opt_state = gt.nn.OptimizerState.for_params(params)
        which, name, kind = moments
        table = getattr(opt_state, which)
        if kind == "drop":
            table.pop(name, None)
        else:
            table[name] = make_array(kind, params.get(name, np.zeros(2)).shape)
    result = expect_checked(lambda: gt.train(
        TRAIN_POOL, gt.HashingTextEmbedder(DIM), TRAIN_SET, config,
        gt.TrainConfig(epochs=1, warmup_epochs=0, batch_size=1, lr=0.1),
        params=given_params, opt_state=opt_state,
    ))
    if result is None:
        return
    arrays = [*given_params.values()]
    if opt_state is not None:
        arrays += [*opt_state.m.values(), *opt_state.v.values()]
    assert real_arrays(*arrays)
    assert finite([result.history[-1].loss]) and finite(result.params.values())
    # Separate arrays are trained as one laid-out copy; the caller's stay as given.
    for table in (result.params, result.opt_state.m, result.opt_state.v):
        assert gt.nn.Layout.fits(table, params.shapes)
    for name, value in given_params.items():
        assert result.params[name] is not value
        if name not in edits:
            assert np.array_equal(value, params[name])


# ---------------------------------------------------------------------------
# Record types and evaluate.

strings = st.one_of(st.text(max_size=3),
                    st.sampled_from([None, 1, 2.5, b"q", ["q"], np.str_("q")]))
BUILDERS = {
    "RoleSpec": lambda s, graph, roles: gt.RoleSpec(s[0], s[1]),
    "CandidateGroup": lambda s, graph, roles: gt.CandidateGroup(s[0], s[1], roles, "chain"),
    "Trajectory": lambda s, graph, roles: gt.Trajectory(s[0], graph),
    "EvalExample": lambda s, graph, roles: gt.EvalExample(s[0], s[1]),
    "ExplorationResult": lambda s, graph, roles: gt.ExplorationResult(
        s[0], s[1], graph, s[2], True, s[3], 0, 0),
    "AgentNode": lambda s, graph, roles: gt.AgentNode(s[0], s[1], s[2]),
}
ROLE = gt.RoleSpec("solver", "solve it")


@PROPERTY
@given(kind=st.sampled_from(sorted(BUILDERS)),
       texts=st.lists(strings, min_size=4, max_size=4),
       graph=st.sampled_from([GRAPHS[2], None, "0->1"]),
       roles=st.sampled_from([[ROLE], (ROLE, ROLE), "ab", 5, [None], [ROLE, "x"], ()]))
def test_record_types_check_strings_and_parts(kind, texts, graph, roles):
    record = expect_checked(lambda: BUILDERS[kind](texts, graph, roles))
    if record is None:
        return
    for field in dataclasses.fields(record):
        if field.type == "str":
            assert type(getattr(record, field.name)) is str
    assert isinstance(getattr(record, "graph", GRAPHS[0]), gt.GroupGraph)
    if kind == "CandidateGroup":
        assert record.roles and all(isinstance(role, gt.RoleSpec) for role in record.roles)
        gt.materialize_agent_graph(GRAPHS[1], gt.GroupPool([record]), mode="expanded")
        record.text()


@pytest.mark.parametrize("seed", [-1, True, np.int64(-2)])
def test_make_rng_needs_a_non_negative_integer_seed(seed):
    with pytest.raises(gt.ValidationError, match="'seed' must be an integer >= 0"):
        gt.make_rng(seed)
    assert gt.make_rng(np.uint64(3)).random() == gt.make_rng(3).random()


@pytest.mark.parametrize("reply", [(None,), (b"ok",), ("ok", -5), ("ok", 2.5), ("ok", True),
                                   ("ok", None, -1), ("ok", 1, 2.5), ("ok", "3", None)],
                         ids=["text_none", "text_bytes", "negative", "float", "bool",
                              "negative_completion", "float_completion", "string"])
def test_backend_result_checks_its_text_and_counts(reply):
    fields = "text|prompt_tokens|completion_tokens"
    with pytest.raises(gt.ValidationError, match=f"'({fields})' must"):
        gt.BackendResult(*reply)
    result = gt.BackendResult(np.str_("ok"), np.int64(3), None)
    assert result == gt.BackendResult("ok", 3)
    assert type(result.text) is str and type(result.prompt_tokens) is int


@pytest.mark.parametrize("reply", [("ok", -5, 2.5), (None,), ("ok", 1, True)],
                         ids=["negative_and_float", "text_none", "bool"])
def test_run_graph_rejects_a_bad_reply_before_any_total(monkeypatch, reply):
    totals = []
    monkeypatch.setattr(gt.harness.TokenStats, "add",
                        lambda self, *counts: totals.append(counts))

    class Custom:
        def complete(self, system, user, *, role):
            return gt.BackendResult(*reply)

    with pytest.raises(gt.ValidationError, match="must be"):
        gt.run_graph(ATTACK_GRAPH, "q", Custom())
    assert totals == []


@pytest.mark.parametrize("rng, pool_size, n_steps", [
    (np.random.default_rng(0), 4, 0), (np.random.default_rng(0), 4, -1),
    (np.random.default_rng(0), 0, 2), (np.random.default_rng(0), True, 2),
])
def test_sample_candidate_topology_checks_its_arguments(rng, pool_size, n_steps):
    with pytest.raises(gt.ValidationError, match="'(pool_size|n_steps)' must"):
        gt.sample_candidate_topology(rng, pool_size, "chain", n_steps)
    graph = gt.sample_candidate_topology(np.random.default_rng(0), np.int64(4), "chain", 2)
    assert graph.n_steps == 2 and all(0 <= gid < 4 for gid in graph.selected)


EXAMPLE = gt.EvalExample("q", "a")
TINY = gt.ModelConfig(pool_size=POOL, dim=DIM, hidden=3, max_steps=MAX_STEPS)
TINY_PARAMS = gt.init_params(TINY)
CANDIDATES = np.eye(POOL, DIM)


@pytest.mark.parametrize("edges, message", [
    (None, "'edges' must be pairs of integers"),
    (((0, 1, 2),), "'edges' must be pairs of integers"),
    (((0.5, 1),), "'edges' must be pairs of integers"),
    ([(0, 1), (0, 1)], "duplicate edge 0->1"),
    ([(2, 1)], "edge 2->1 is out of range for 3 nodes"),
], ids=["none", "triple", "float", "duplicate", "backward"])
def test_agent_graph_checks_its_edges(edges, message):
    with pytest.raises(gt.ValidationError, match=message):
        gt.AgentGraph(ATTACK_GRAPH.nodes, edges)
    graph = gt.AgentGraph(ATTACK_GRAPH.nodes, [(np.int64(1), 2), (0, 1)])
    assert graph.edges == ((0, 1), (1, 2))
    assert all(type(i) is int and type(t) is int for i, t in graph.edges)


@pytest.mark.parametrize("entry", ["run_graph", "evaluate"])
def test_a_reply_that_is_not_a_backend_result_is_refused(monkeypatch, entry):
    """Under ``evaluate``, only calls on the shared pool's threads reply with a
    bare string, so the error is handed back from a pool thread."""
    totals, pooled = [], []
    monkeypatch.setattr(gt.harness.TokenStats, "add",
                        lambda self, *counts: totals.append(counts))

    class Plain:
        def complete(self, system, user, *, role):
            pooled.append(threading.current_thread() is not threading.main_thread())
            return "text" if pooled[-1] or entry == "run_graph" else gt.BackendResult("ok")

    star = gt.GroupGraph(selected=(0, 1, 2), edges=((0, 1), (0, 2)))
    calls = {
        "run_graph": lambda: gt.run_graph(ATTACK_GRAPH, "q", Plain()),
        "evaluate": lambda: gt.evaluate([EXAMPLE] * 4, star, gt.default_pool(), Plain()),
    }
    with pytest.raises(gt.ValidationError,
                       match="'complete' must return a BackendResult, got 'text'"):
        calls[entry]()
    assert totals == []
    assert any(pooled) == (entry == "evaluate")


# Bad arguments the sweep below does not reach: values inside the annotation,
# the embedders' methods and the unannotated argument of ``example_to_record``.
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: gt.HashingTextEmbedder(8).encode([None]), "'texts' must hold str",
                 id="hashing_encode_none"),
    pytest.param(lambda: gt.HashingTextEmbedder(8).encode("ab"),
                 "'texts' must be an ordered sequence, not a str", id="hashing_encode_str"),
    pytest.param(lambda: gt.HttpEncoderClient(8, url="http://enc.test", session=object())
                 .encode([None]), "'texts' must hold str", id="http_encode_none"),
    pytest.param(lambda: gt.example_to_record(None), "need an instance of a record type",
                 id="example_to_record"),
    pytest.param(lambda: gt.example_to_record(gt.EvalExample),
                 "need an instance of a record type", id="example_to_record_type"),
    pytest.param(lambda: gt.save_checkpoint("never-written.npz", {}, {"model": object()}),
                 "'config' cannot be written as JSON", id="save_checkpoint_json"),
    pytest.param(lambda: gt.generate_graph({}, TINY, CANDIDATES, np.zeros(DIM)),
                 "parameters do not match the model config: need task_ffn.l1.w",
                 id="generate_graph_empty_params"),
    pytest.param(lambda: gt.graph_log_likelihood({}, TINY, CANDIDATES, np.zeros(DIM), GRAPHS[1]),
                 "parameters do not match the model config", id="graph_log_likelihood_params"),
    pytest.param(lambda: gt.generate_graphs({**TINY_PARAMS, "end_embed": np.zeros(3)}, TINY,
                                            CANDIDATES, np.zeros((1, DIM)), [0]),
                 r"need end_embed of shape \(4,\); got end_embed entries of shape \(3,\)",
                 id="generate_graphs_misshaped_param"),
    pytest.param(lambda: gt.AnswerKeyBackend({5: "a"}), "'answers' must hold str values, got 5",
                 id="answer_key_backend_key"),
])
def test_entry_points_check_their_arguments(call, message):
    with pytest.raises(gt.ValidationError, match=message):
        call()


def test_write_records_refuses_a_value_json_cannot_encode(tmp_path):
    path = tmp_path / "records.jsonl"
    for records in ([gt.example_to_record(EXAMPLE), {"v": object()}], [{"v": {1, 2}}]):
        with pytest.raises(gt.ValidationError, match=r"record \d is not JSON"):
            gt.write_records(path, records)
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Every parameter of the top-level table, swept by its annotation.

ADAM_PARAMS = gt.nn.Layout(ADAM_SHAPES.items())
MODEL = dict(params=TINY_PARAMS, config=TINY, candidates=CANDIDATES)
ECHO = gt.CompressiveEchoBackend()
RESULT = dict(query="q", answer="a", graph=GRAPHS[1], family="chain", correct=True,
              final_text="a", prompt_tokens=1, completion_tokens=1)

# One valid call per callable of the README's top-level table: its required
# arguments, and any other that a sweep value needs. Paths are relative to the
# ``files`` fixture's directory.
VALID_CALLS = {
    "RoleSpec": dict(name="solver", prompt="solve it"),
    "CandidateGroup": dict(name="g", description="d", roles=(ROLE,), pattern="chain"),
    "GroupPool": dict(groups=TRAIN_POOL.groups),
    "GroupGraph": dict(selected=(0, 1), edges=((0, 1),)),
    "Trajectory": dict(query="q", graph=GRAPHS[2]),
    "AgentNode": dict(name="n", prompt="p", role="r"),
    "AgentGraph": dict(nodes=list(ATTACK_GRAPH.nodes), edges=ATTACK_GRAPH.edges),
    "validate_group_graph": dict(graph=GRAPHS[2], pool_size=POOL, max_steps=MAX_STEPS),
    "materialize_agent_graph": dict(graph=GRAPHS[2], pool=TRAIN_POOL),
    "render_diagram": dict(graph=GRAPHS[2], pool=TRAIN_POOL),
    "read_records": dict(path="pool.jsonl"),
    "write_records": dict(path="out.jsonl", records=[gt.example_to_record(EXAMPLE)]),
    "default_pool": dict(),
    "load_pool": dict(path="pool.jsonl"),
    "HashingTextEmbedder": dict(dim=DIM),
    "HttpEncoderClient": dict(dim=DIM, url="http://encoder.test", session=object()),
    "build_candidate_matrix": dict(provider=gt.HashingTextEmbedder(DIM), pool=TRAIN_POOL),
    "BackendResult": dict(text="ok"),
    "CompressiveEchoBackend": dict(),
    "AnswerKeyBackend": dict(answers={"q": "a"}),
    "HttpAgentBackend": dict(url="http://agent.test", session=object()),
    "AttackSpec": dict(target=0, text="x"),
    "EvalExample": dict(query="q", answer="a"),
    "example_to_record": dict(obj=EXAMPLE),
    "run_graph": dict(agent_graph=ATTACK_GRAPH, query="q", backend=ECHO),
    "evaluate": dict(dataset=[EXAMPLE], graphs=[GRAPHS[1]], pool=TRAIN_POOL, backend=ECHO),
    "answer_matches": dict(expected="a", got="a"),
    "count_tokens": dict(text="a b"),
    "ModelConfig": dict(pool_size=POOL),
    "init_params": dict(config=TINY),
    "check_params": dict(params=TINY_PARAMS, config=TINY),
    "generate_graph": dict(MODEL, task_vec=np.zeros(DIM)),
    "generate_graphs": dict(MODEL, task_vecs=np.zeros((1, DIM)), seeds=[0]),
    "graph_log_likelihood": dict(MODEL, task_vec=np.zeros(DIM), graph=GRAPHS[2]),
    "loss_and_grads": dict(MODEL, task_vec=np.zeros(DIM), graph=GRAPHS[2]),
    "minibatch_loss_and_grads": dict(MODEL, task_vecs=np.zeros((1, DIM)), graphs=[GRAPHS[2]],
                                     noises=[None]),
    "make_rng": dict(seed=0),
    "adamw_step": dict(params=ADAM_PARAMS, grads=gt.nn.Layout(ADAM_PARAMS.shapes), lr=0.1,
                       state=gt.nn.OptimizerState.for_params(ADAM_PARAMS)),
    "save_checkpoint": dict(path="out.npz", params=TINY_PARAMS, config={"model": TINY.to_dict()}),
    "load_checkpoint": dict(path="model.npz"),
    "TrainConfig": dict(),
    "ExplorationConfig": dict(),
    "ExplorationResult": RESULT,
    "train": dict(pool=TRAIN_POOL, provider=gt.HashingTextEmbedder(DIM), dataset=TRAIN_SET,
                  model_config=TINY, train_config=gt.TrainConfig(epochs=1, batch_size=1)),
    "explore_and_label": dict(pool=TRAIN_POOL, dataset=[EXAMPLE], backend=ECHO,
                              config=gt.ExplorationConfig(families=("chain",), n_steps=2)),
    "curate_minimal": dict(results=[gt.ExplorationResult(**RESULT)]),
    "sample_candidate_topology": dict(rng=np.random.default_rng(0), pool_size=POOL,
                                      family="chain", n_steps=2),
}

# What the sweep leaves out, and why: a callable, ``<callable>.<parameter>``, or
# ``<callable>.<parameter>:<kind>`` for one kind of value that ``outside`` gives.
EXCLUDED = {
    **dict.fromkeys(["GroupTopoError", "ValidationError", "BackendError"],
                    "an exception type: any message is valid"),
    "IntraPattern": "an Enum, whose unknown values raise ValueError by the Enum contract; "
                    "CandidateGroup's 'pattern' turns that into ValidationError",
    **dict.fromkeys(["build_candidate_matrix.provider", "train.provider"],
                    "a duck-typed protocol: anything with 'encode'"),
    **dict.fromkeys(["run_graph.backend", "evaluate.backend", "explore_and_label.backend"],
                    "a duck-typed protocol: anything with 'complete'"),
    **dict.fromkeys(["HttpEncoderClient.session", "HttpAgentBackend.session"],
                    "a duck-typed protocol: anything with 'post'"),
    "example_to_record.obj": "unannotated: a value of any of the five record types",
    **dict.fromkeys(["GroupGraph.edges:set", "AgentGraph.edges:set"],
                    "check_edges sorts the pairs, so a set of them has all they need"),
}

# The pattern a message must match where the check does not quote the
# parameter's own name, by ``<callable>.<parameter>`` or by parameter name.
REPORTED = {
    "params": "'params'|parameters do not match",
    "candidates": "candidate rows",
    **dict.fromkeys(["task_vec", "task_vecs"], "task rows"),
    "noise": "noise rows",
    "noises": "'noises'|noise rows",
    "mode": "'mode'|execution mode",
    **dict.fromkeys(["rule", "EvalExample.match"], "match rule"),
    "CandidateGroup.pattern": "intra pattern",
    "sample_candidate_topology.family": "topology family",
    "generate_graph.seed": "'seeds'",
    **dict.fromkeys(["graph_log_likelihood.graph", "loss_and_grads.graph"], "'graphs'"),
}

SEQUENCES = {tuple, list, collections.abc.Sequence}
MAPPINGS = {dict, collections.abc.Mapping}
CONTAINERS = SEQUENCES | MAPPINGS | {collections.abc.Iterable}
SCALARS = {int, float, bool, np.ndarray, gt.GroupGraph}  # a string is none of these


def outside(hint, valid) -> dict[str, object]:
    """Values outside the annotation ``hint``, by kind: None where it is not
    optional, a string for a number, an array, a graph or a container, a float for
    an integer, a number for a string, a set of ``valid``'s items for an ordered
    sequence, a container holding ``object()`` for one of anything narrower, and
    ``object()``."""
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    kinds = {typing.get_origin(member) or member: typing.get_args(member)
             for member in (typing.get_args(hint) if union else (hint,))}
    values = {"object": object()}
    if type(None) not in kinds:
        values["none"] = None
    if str not in kinds and kinds.keys() & (SCALARS | CONTAINERS):
        values["str"] = "3"
    if int in kinds and float not in kinds:
        values["float"] = 2.5
    if str in kinds and int not in kinds:
        values["number"] = 5
    if kinds.keys() & SEQUENCES:
        values["set"] = set(valid)
    for kind, items in kinds.items():
        if kind in CONTAINERS and object not in items:
            values["item"] = {"a": object()} if kind in MAPPINGS else [object()]
    return values


def valid_call(name) -> inspect.BoundArguments:
    """``name``'s valid call with defaults, bound to its signature, annotations resolved."""
    bound = inspect.signature(getattr(gt, name), eval_str=True).bind(**VALID_CALLS[name])
    bound.apply_defaults()
    return bound


class Uncalled:
    """The backend of the sweep's calls: every argument is checked before the first call."""

    def complete(self, system, user, *, role):
        raise AssertionError("a backend call before every argument was checked")


SWEPT = [(name, parameter) for name in VALID_CALLS for parameter in valid_call(name).arguments
         if f"{name}.{parameter}" not in EXCLUDED]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory with the pool file and the checkpoint that ``VALID_CALLS`` read."""
    directory = tmp_path_factory.mktemp("files")
    gt.write_records(directory / "pool.jsonl", [gt.graph.to_record(g) for g in TRAIN_POOL])
    gt.save_checkpoint(directory / "model.npz", TINY_PARAMS, {"model": TINY.to_dict()})
    return directory


def test_the_table_covers_the_top_level_and_its_calls_are_valid(files, monkeypatch):
    monkeypatch.chdir(files)
    callables = {name for name in readme_top_level() if callable(getattr(gt, name))}
    assert all(reason.strip() for reason in EXCLUDED.values())
    assert set(VALID_CALLS) | {key for key in EXCLUDED if "." not in key} == callables
    for key in EXCLUDED:  # none stale: each names a callable, and a parameter and kind it has
        name, parameter, kind = re.fullmatch(r"(\w+)\.?(\w*):?(\w*)", key).groups()
        assert name in callables, key
        if parameter:
            bound = valid_call(name)
            hint = bound.signature.parameters[parameter].annotation  # a KeyError if stale
            assert kind in ("", *outside(hint, bound.arguments[parameter])), key
    for name, arguments in VALID_CALLS.items():
        getattr(gt, name)(**arguments)
    assert gt.GroupPool(iter(TRAIN_POOL.groups)) == TRAIN_POOL  # any ordered iterable
    assert gt.AgentGraph(**VALID_CALLS["AgentGraph"]) == ATTACK_GRAPH  # a list of nodes


@pytest.mark.parametrize("name, parameter", SWEPT, ids=[f"{n}.{p}" for n, p in SWEPT])
def test_every_parameter_refuses_values_outside_its_annotation(files, monkeypatch, name,
                                                               parameter):
    """Each value that ``outside`` gives raises ValidationError, with a message
    that quotes the parameter's name or matches its ``REPORTED`` pattern."""
    monkeypatch.chdir(files)
    bound = valid_call(name)
    if "backend" in bound.arguments:
        bound.arguments["backend"] = Uncalled()
    reported = REPORTED.get(f"{name}.{parameter}", REPORTED.get(parameter, f"'{parameter}'"))
    wrong = []
    hint = bound.signature.parameters[parameter].annotation
    for kind, value in outside(hint, bound.arguments[parameter]).items():
        if f"{name}.{parameter}:{kind}" in EXCLUDED:
            continue
        try:
            getattr(gt, name)(**{**bound.arguments, parameter: value})
            wrong.append(f"{kind}: accepted {value!r}")
        except gt.ValidationError as exc:
            if not re.search(reported, str(exc)):
                wrong.append(f"{kind}: {exc}")
        except Exception as exc:
            wrong.append(f"{kind}: {type(exc).__name__}: {exc}")
    assert wrong == []


# ---------------------------------------------------------------------------
# One owner for the type rule.

# The checks that keep their own ``if not isinstance(...)``, because each owns
# a rule other than the plain ``'<name>' must be <kind>, got <value>``.
KEPT_TYPE_CHECKS = {
    "graph.check_items": "an ordered sequence of one kind, with its own messages for a set, "
                         "a string and an item of another kind",
    "graph.record_field": "the JSON type of a record key, named as a file's author reads it",
    "graph.check_header": "file content: a record line that is not a JSON object",
    "nn.load_checkpoint": "file content: a checkpoint without a meta/config JSON object",
    "harness._Schedule._call": "a backend's reply, named by the method that returned it",
}


def hand_written_type_checks(package: pathlib.Path) -> set[str]:
    """``<module>.<qualified name>`` of the function around each ``if`` in
    ``package/*.py`` whose test negates an ``isinstance`` call and whose body
    raises ValidationError."""
    def negates_isinstance(test):
        return any(isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)
                   and any(isinstance(call, ast.Call) and ast.unparse(call.func) == "isinstance"
                           for call in ast.walk(node.operand))
                   for node in ast.walk(test))

    def raises_validation_error(body):
        return any(isinstance(node, ast.Raise) and node.exc is not None
                   and ast.unparse(node.exc).startswith("ValidationError(")
                   for statement in body for node in ast.walk(statement))

    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = [*scope, child.name]
            elif (isinstance(child, ast.If) and negates_isinstance(child.test)
                  and raises_validation_error(child.body)):
                found.add(".".join(scope))
            visit(child, inner)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text("utf-8")), [path.stem])
    return found


def test_the_type_rule_has_one_owner():
    """Every plain type check goes through ``graph.check_type``; a hand-written
    one fails here unless ``KEPT_TYPE_CHECKS`` gives its reason."""
    assert all(reason.strip() for reason in KEPT_TYPE_CHECKS.values())
    found = hand_written_type_checks(pathlib.Path(gt.__file__).parent)
    assert found == {"graph.check_type", *KEPT_TYPE_CHECKS}
