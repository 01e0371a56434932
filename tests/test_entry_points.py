"""Property tests for the library's entry points: given bad values of their
documented types (ragged, NaN, infinite, huge, negative, a bool for an int,
NumPy scalars, empty, arrays of bools, complex numbers, strings or objects),
``GroupGraph``, the record types, ``GroupPool``, the three configs,
``AttackSpec``, ``OptimizerState``, ``generate_graphs``,
``minibatch_loss_and_grads``, ``check_params``, ``adamw_step`` and ``train``
either succeed or raise GroupTopoError, never a raw NumPy or Python error, and
what they return is finite."""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Sized

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import grouptopo as gt
from grouptopo.graph import is_integer

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
@example(graphs=[None], row_kind=float, noise_kinds=[None] * 4, extra=0)
@example(graphs=[GRAPHS[1]], row_kind=float, noise_kinds=[None] * 4, extra=None)
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
    assert checked.keys() == params.keys()
    for name, value in checked.items():
        assert value.dtype == np.float64 and value.shape == params[name].shape
        same = getattr(given_params[name], "dtype", None) == np.float64
        assert (value is given_params[name]) == same
    assert finite(checked.values())


ADAM_SHAPES = {"a": (2,), "b": (2, 3)}


@PROPERTY
@given(edits=st.dictionaries(st.sampled_from(["a", "b", "c"]), MOSTLY_VALID, max_size=3))
@example(edits={"a": "short"})
@example(edits={"a": "huge"})
@example(edits={"b": "list"})
def test_adamw_step_checks_each_gradient(edits):
    params = {name: np.ones(shape) for name, shape in ADAM_SHAPES.items()}
    state = gt.nn.OptimizerState.for_params(params)
    grads = {name: make_array(kind, ADAM_SHAPES.get(name, (2,))) for name, kind in edits.items()}
    norm = expect_checked(lambda: gt.adamw_step(params, grads, state, lr=0.1, clip_norm=1.0))
    if norm is None:
        return
    assert real_arrays(*grads.values())
    assert all(np.shape(grads[name]) == ADAM_SHAPES[name] for name in grads)
    assert finite([norm]) and finite(params.values())


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
    for name, value in given_params.items():
        assert (result.params[name] is value) == (getattr(value, "dtype", None) == np.float64)


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
}
ROLE = gt.RoleSpec("solver", "solve it")


@PROPERTY
@given(kind=st.sampled_from(sorted(BUILDERS)),
       texts=st.lists(strings, min_size=4, max_size=4),
       graph=st.sampled_from([GRAPHS[2], None, "0->1"]),
       roles=st.sampled_from([[ROLE], (ROLE, ROLE), "ab", 5, [None], [ROLE, "x"], ()]))
@example(kind="RoleSpec", texts=[1, "p", "", ""], graph=GRAPHS[2], roles=[ROLE])
@example(kind="CandidateGroup", texts=[5, "d", "", ""], graph=GRAPHS[2], roles=[ROLE])
@example(kind="CandidateGroup", texts=["g", "d", "", ""], graph=GRAPHS[2], roles="ab")
@example(kind="Trajectory", texts=[3, "", "", ""], graph=GRAPHS[2], roles=[ROLE])
@example(kind="Trajectory", texts=["q", "", "", ""], graph=None, roles=[ROLE])
@example(kind="EvalExample", texts=[1, 2, "", ""], graph=GRAPHS[2], roles=[ROLE])
@example(kind="ExplorationResult", texts=["q", "a", "chain", None], graph=GRAPHS[2],
         roles=[ROLE])
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


@pytest.mark.parametrize("groups", [None, 5, [None], "ab", [ROLE],
                                    [gt.default_pool()[0], "x"]])
def test_group_pool_holds_candidate_groups(groups):
    with pytest.raises(gt.ValidationError, match="'groups'"):
        gt.GroupPool(groups)
    assert gt.GroupPool(iter(gt.default_pool())).groups == gt.default_pool().groups


@pytest.mark.parametrize("graphs", [None, [None], 5, "0->1", [GRAPHS[1], "x"]])
def test_evaluate_needs_a_sequence_of_graphs(graphs):
    dataset = [gt.EvalExample("q", "a")] * (len(graphs) if isinstance(graphs, Sized) else 1)
    with pytest.raises(gt.ValidationError, match="graphs"):
        gt.evaluate(dataset, graphs, gt.default_pool(), gt.CompressiveEchoBackend())
