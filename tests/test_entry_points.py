"""Property tests for the library's entry points: given bad values of their
documented types (ragged, NaN, infinite, huge, negative, a bool for an int,
NumPy scalars, empty), ``GroupGraph``, the three configs, ``AttackSpec`` and
``generate_graphs`` either succeed or raise GroupTopoError, never a raw NumPy
or Python error."""

from __future__ import annotations

import json

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


matrices = st.one_of(
    row_lists(st.sampled_from([POOL]), st.just(DIM)).map(np.array),
    row_lists(st.integers(0, POOL + 1), st.sampled_from([DIM, DIM, 2])),
    st.sampled_from([[], np.zeros((0, DIM)), np.zeros(DIM), 0.5]),
)
seed_lists = st.lists(
    st.one_of(st.integers(-2, 2**40), st.integers(0, 9).map(np.int64), st.booleans(),
              st.sampled_from([1.5, float("nan"), None])),
    max_size=3,
)
forced = st.one_of(st.none(), integers)


@PROPERTY
@given(candidates=matrices, rows=row_lists(st.integers(0, 3), st.sampled_from([DIM, DIM, 1])),
       seeds=seed_lists, forced_steps=forced)
@example(candidates=np.ones((POOL, DIM)), rows=[[1.7e308] * DIM], seeds=[0],
         forced_steps=None)
def test_generate_graphs_is_checked(tiny_model, candidates, rows, seeds, forced_steps):
    config, params = tiny_model
    graphs = expect_checked(lambda: gt.generate_graphs(
        params, config, candidates, rows, seeds, forced_steps=forced_steps
    ))
    if graphs is None:
        return
    assert len(graphs) == len(seeds)
    for graph in graphs:
        gt.validate_group_graph(graph, POOL, MAX_STEPS)
        if forced_steps is not None:
            assert graph.n_steps == forced_steps
