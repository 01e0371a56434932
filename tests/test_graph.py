"""Graph types, validation, materialization, and record codecs."""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grouptopo as gt
from grouptopo.errors import ValidationError
from grouptopo.graph import (
    DEFAULT_SUMMARIZER_PROMPT,
    _slug,
    compose_group_prompt,
    format_edge,
    group_graph_from_record,
    group_graph_to_record,
    parse_edge,
    read_records,
    trajectory_from_record,
    trajectory_to_record,
    write_records,
)


def two_role_pool() -> gt.GroupPool:
    a = gt.CandidateGroup(
        name="duo-chain",
        description="write then check",
        roles=(gt.RoleSpec("writer", "write it"), gt.RoleSpec("checker", "check it")),
        pattern=gt.IntraPattern.CHAIN,
    )
    b = gt.CandidateGroup(
        name="trio-star",
        description="two attempts, one merge",
        roles=(
            gt.RoleSpec("first", "attempt one"),
            gt.RoleSpec("second", "attempt two"),
            gt.RoleSpec("merge", "combine them"),
        ),
        pattern=gt.IntraPattern.STAR,
    )
    return gt.GroupPool(groups=(a, b))


# ---------------------------------------------------------------------------
# Validation.


def test_group_graph_stores_python_scalars():
    graph = gt.GroupGraph(selected=np.array([2, 0]), edges=[(np.int64(0), np.int64(1))],
                          truncated=np.bool_(True))
    assert graph == gt.GroupGraph(selected=(2, 0), edges=((0, 1),), truncated=True)
    assert type(graph.truncated) is bool
    assert all(type(x) is int for x in (*graph.selected, *graph.edges[0]))


def test_validate_accepts_wellformed():
    graph = gt.GroupGraph(selected=(0, 1, 0), edges=((0, 1), (0, 2), (1, 2)))
    gt.validate_group_graph(graph, pool_size=2, max_steps=4)


def test_validate_accepts_empty():
    gt.validate_group_graph(gt.GroupGraph(), pool_size=3, max_steps=2)


def test_validate_rejects_budget_overflow():
    graph = gt.GroupGraph(selected=(0, 0, 0), edges=((0, 1), (0, 2)))
    with pytest.raises(ValidationError, match="budget"):
        gt.validate_group_graph(graph, pool_size=2, max_steps=2)


def test_validate_rejects_unknown_group():
    graph = gt.GroupGraph(selected=(5,))
    with pytest.raises(ValidationError, match="pool"):
        gt.validate_group_graph(graph, pool_size=2, max_steps=4)


def test_validate_rejects_backward_edge():
    with pytest.raises(ValidationError):
        graph = gt.GroupGraph(selected=(0, 1), edges=((1, 0),))
        gt.validate_group_graph(graph, pool_size=2, max_steps=4)


def test_validate_rejects_duplicate_edge():
    with pytest.raises(ValidationError, match="duplicate"):
        graph = gt.GroupGraph(selected=(0, 1), edges=((0, 1), (0, 1)))
        gt.validate_group_graph(graph, pool_size=2, max_steps=4)


NOT_INTEGERS = "'selected' must be a list of non-negative integers"


@pytest.mark.parametrize("fields, message", [
    (dict(selected=(0, 1), edges=((1, 0),)), "edge 1->0 is out of range for 2 steps"),
    (dict(selected=(0, 1), edges=((0, 2),)), "edge 0->2 is out of range for 2 steps"),
    (dict(selected=(0, 1), edges=((-1, 1),)), "edge -1->1 is out of range for 2 steps"),
    (dict(selected=(0, 1, 1), edges=((0, 1), (1, 2), (0, 1))), "duplicate edge 0->1"),
    (dict(selected=(0, -1), edges=((0, 1),)), NOT_INTEGERS),
    (dict(selected=(2.5, "1"), edges=((0, 1),)), NOT_INTEGERS),
    (dict(selected=(0, "1")), NOT_INTEGERS),
    (dict(selected=(True,)), NOT_INTEGERS),
    (dict(selected=(0, 1), edges=((0.9, 1.2),)), "'edges' must be pairs of integers"),
    (dict(selected=(0, 1), edges=((False, True),)), "'edges' must be pairs of integers"),
    (dict(selected=(0, 1, 2), edges=("0->1",)), "'edges' must be pairs of integers"),
    (dict(selected=(0, 1, 2), edges=((0, 1, 2),)), "'edges' must be pairs of integers"),
    (dict(selected=(0, 1), edges=1), "'edges' must be pairs of integers"),
    (dict(selected=5), NOT_INTEGERS),
    (dict(selected=(0,), truncated="no"), "'truncated' must be true or false, got 'no'"),
    (dict(selected=(0,), truncated=1), "'truncated' must be true or false, got 1"),
], ids=["backward", "past_steps", "negative_source", "duplicate", "negative_selection",
        "float_selection", "string_selection", "bool_selection", "float_edge", "bool_edge",
        "string_edge", "triple_edge", "scalar_edges", "scalar_selection",
        "string_truncated", "int_truncated"])
def test_group_graph_checks_itself_when_made(fields, message):
    with pytest.raises(ValidationError) as info:
        gt.GroupGraph(**fields)
    assert str(info.value) == message


def test_validate_rejects_unreachable_step():
    graph = gt.GroupGraph(selected=(0, 1, 1), edges=((0, 2),))
    with pytest.raises(ValidationError, match="no incoming edge"):
        gt.validate_group_graph(graph, pool_size=2, max_steps=4)


def test_group_requires_roles():
    with pytest.raises(ValidationError, match="no roles"):
        gt.CandidateGroup(name="x", description="", roles=(), pattern="single")


def test_group_rejects_unknown_pattern():
    with pytest.raises(ValidationError, match="unknown intra pattern 'ring'"):
        gt.CandidateGroup(name="x", description="", roles=(gt.RoleSpec("r", "p"),),
                          pattern="ring")


def test_group_stores_roles_as_a_tuple():
    group = gt.CandidateGroup(name="x", description="", roles=[gt.RoleSpec("r", "p")],
                              pattern="single")
    assert group.roles == (gt.RoleSpec("r", "p"),)
    assert hash(group) == hash(gt.CandidateGroup("x", "", (gt.RoleSpec("r", "p"),), "single"))


def test_pool_rejects_duplicate_names():
    g = gt.CandidateGroup(
        name="dup", description="", roles=(gt.RoleSpec("r", "p"),), pattern="single"
    )
    with pytest.raises(ValidationError, match="duplicate"):
        gt.GroupPool(groups=(g, g))


def test_intra_pattern_wiring():
    pool = two_role_pool()
    chain, star = pool[0], pool[1]
    assert chain.intra_edges() == ((0, 1),)
    assert chain.sources() == (0,)
    assert chain.sinks() == (1,)
    assert star.intra_edges() == ((0, 2), (1, 2))
    assert star.sources() == (0, 1)
    assert star.sinks() == (2,)


# ---------------------------------------------------------------------------
# Edge strings and records.


def test_edge_roundtrip():
    assert parse_edge(format_edge((2, 5))) == (2, 5)
    assert parse_edge(" 0 -> 3 ") == (0, 3)


@pytest.mark.parametrize("bad", ["3->1", "2->2", "a->b", "1-2", "->", ""])
def test_parse_edge_rejects(bad):
    with pytest.raises(ValidationError):
        parse_edge(bad)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    selected = tuple(
        draw(st.integers(min_value=0, max_value=5)) for _ in range(n)
    )
    pairs = [(i, t) for t in range(n) for i in range(t)]
    chosen = tuple(
        sorted(p for p in pairs if draw(st.booleans()))
    )
    truncated = draw(st.booleans())
    return gt.GroupGraph(selected=selected, edges=chosen, truncated=truncated)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_graph_record_roundtrip(graph):
    assert group_graph_from_record(group_graph_to_record(graph)) == graph


def test_graph_record_rejects_edge_past_steps():
    record = {
        "v": "v1",
        "kind": "group_graph",
        "selected": [0, 1],
        "edges": ["1->2"],
    }
    with pytest.raises(ValidationError, match="edge 1->2 is out of range for 2 steps"):
        group_graph_from_record(record)


def test_graph_record_rejects_bool_selection():
    record = {"v": "v1", "kind": "group_graph", "selected": [True], "edges": []}
    with pytest.raises(ValidationError):
        group_graph_from_record(record)


@pytest.mark.parametrize("value", ["false", 0, None, [True]])
def test_graph_record_rejects_non_bool_truncated(value):
    record = {"v": "v1", "kind": "group_graph", "selected": [0], "edges": [],
              "truncated": value}
    with pytest.raises(ValidationError, match="truncated"):
        group_graph_from_record(record)
    record["truncated"] = True
    assert group_graph_from_record(record).truncated


def test_pool_record_roundtrip(tmp_path):
    pool = gt.default_pool()
    gt.write_records(tmp_path / "pool.jsonl", [gt.graph.group_to_record(g) for g in pool])
    assert gt.load_pool(tmp_path / "pool.jsonl") == pool


def test_trajectory_record_roundtrip():
    traj = gt.Trajectory(
        query="what is nine times three",
        graph=gt.GroupGraph(selected=(2, 0), edges=((0, 1),)),
    )
    assert trajectory_from_record(trajectory_to_record(traj)) == traj


def test_read_records_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"v": "v1", "kind": "group_graph"}\nnot json\n')
    with pytest.raises(ValidationError, match="line 2"):
        read_records(path)


def test_read_records_rejects_missing_version(tmp_path):
    path = tmp_path / "nover.jsonl"
    path.write_text('{"kind": "group_graph"}\n')
    with pytest.raises(ValidationError, match="line 1"):
        read_records(path)


def test_read_records_rejects_wrong_version(tmp_path):
    path = tmp_path / "v2.jsonl"
    path.write_text('{"v": "v2", "kind": "group_graph"}\n')
    with pytest.raises(ValidationError, match="unsupported"):
        read_records(path)


def test_write_then_read_records(tmp_path):
    path = tmp_path / "out.jsonl"
    records = [group_graph_to_record(gt.GroupGraph(selected=(1,)))]
    write_records(path, records)
    assert read_records(path) == records


def test_concurrent_writers_to_one_path(tmp_path):
    path = tmp_path / "out.jsonl"
    batches = [
        [group_graph_to_record(gt.GroupGraph(selected=(w,) * n)) for n in range(1, 40)]
        for w in range(4)
    ]
    errors: list[BaseException] = []

    def writer(records):
        try:
            for _ in range(5):
                write_records(path, records)
        except BaseException as exc:  # reported below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(b,)) for b in batches]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert read_records(path) in batches
    assert os.listdir(tmp_path) == ["out.jsonl"]
    (tmp_path / "plain").write_bytes(b"")
    assert path.stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_failed_write_keeps_old_file(tmp_path):
    path = tmp_path / "out.jsonl"
    records = [group_graph_to_record(gt.GroupGraph(selected=(1,)))]
    write_records(path, records)
    with pytest.raises(TypeError):
        write_records(path, [*records, {"v": "v1", "kind": "x", "bad": object()}])
    assert read_records(path) == records
    assert os.listdir(tmp_path) == ["out.jsonl"]


def test_read_records_missing_file():
    with pytest.raises(ValidationError, match="cannot read /nonexistent/records.jsonl"):
        read_records("/nonexistent/records.jsonl")


# ---------------------------------------------------------------------------
# Materialization and scheduling.


def test_materialize_composite_shape():
    pool = two_role_pool()
    graph = gt.GroupGraph(selected=(0, 1), edges=((0, 1),))
    agents = gt.materialize_agent_graph(graph, pool, "composite")
    assert len(agents.nodes) == 3  # two steps + summarizer
    assert agents.summarizer == 2
    assert set(agents.edges) == {(0, 1), (1, 2)}
    assert "team" in agents.nodes[0].prompt


def test_materialize_expanded_wiring():
    pool = two_role_pool()
    graph = gt.GroupGraph(selected=(0, 1), edges=((0, 1),))
    agents = gt.materialize_agent_graph(graph, pool, "expanded")
    # chain pair -> nodes 0,1; star trio -> nodes 2,3,4; summarizer 5.
    assert len(agents.nodes) == 6
    edge_set = set(agents.edges)
    assert (0, 1) in edge_set                  # intra chain
    assert {(2, 4), (3, 4)} <= edge_set        # intra star
    assert {(1, 2), (1, 3)} <= edge_set        # chain sink -> star sources
    assert (4, 5) in edge_set                  # star sink -> summarizer
    assert agents.nodes[5].role == "summarizer"


def test_materialize_rejects_empty_and_bad_mode():
    pool = two_role_pool()
    with pytest.raises(ValidationError, match="empty"):
        gt.materialize_agent_graph(gt.GroupGraph(), pool, "composite")
    with pytest.raises(ValidationError, match="mode"):
        gt.materialize_agent_graph(
            gt.GroupGraph(selected=(0,)), pool, "recursive"
        )


def test_repeated_selection_creates_distinct_agents():
    pool = two_role_pool()
    graph = gt.GroupGraph(selected=(0, 0), edges=((0, 1),))
    agents = gt.materialize_agent_graph(graph, pool, "composite")
    assert agents.nodes[0].name != agents.nodes[1].name


@pytest.mark.parametrize("n_nodes,edges", [
    (3, ((0, 2), (2, 1))),  # backward edge
    (3, ((0, 1), (1, 1))),  # self-loop
    (3, ((0, 3),)),         # target out of range
    (3, ((-1, 2),)),        # source out of range
    (0, ()),                # no nodes
])
def test_agent_graph_rejects_backward_edges(n_nodes, edges):
    nodes = tuple(
        gt.AgentNode(name=f"n{i}", prompt="p", role="r") for i in range(n_nodes)
    )
    with pytest.raises(ValidationError):
        gt.AgentGraph(nodes=nodes, edges=edges)


def reference_materialize(graph, pool, mode):
    """The two-branch builder that ``materialize_agent_graph`` replaced: one
    loop per mode, expanded mode wiring sink roles to source roles by hand."""
    nodes, edges = [], []
    if mode == "composite":
        for t, gid in enumerate(graph.selected):
            group = pool[gid]
            nodes.append(gt.AgentNode(
                f"s{t}-{_slug(group.name)}", compose_group_prompt(group), group.name
            ))
        edges.extend(graph.edges)
    else:
        step_locals = []
        for t, gid in enumerate(graph.selected):
            group = pool[gid]
            base = len(nodes)
            local = []
            for k, role in enumerate(group.roles):
                nodes.append(gt.AgentNode(
                    f"s{t}-{_slug(group.name)}-{_slug(role.name)}", role.prompt, role.name
                ))
                local.append(base + k)
            for j, k in group.intra_edges():
                edges.append((local[j], local[k]))
            step_locals.append(local)
        for i, t in graph.edges:
            for j in pool[graph.selected[i]].sinks():
                for k in pool[graph.selected[t]].sources():
                    edges.append((step_locals[i][j], step_locals[t][k]))
    summarizer_idx = len(nodes)
    nodes.append(gt.AgentNode("summarizer", DEFAULT_SUMMARIZER_PROMPT, "summarizer"))
    with_out = {i for i, _ in edges}
    edges.extend((i, summarizer_idx) for i in range(summarizer_idx) if i not in with_out)
    return gt.AgentGraph(nodes=tuple(nodes), edges=tuple(edges))


@pytest.mark.parametrize("mode", ["composite", "expanded"])
@pytest.mark.parametrize("family", ["chain", "star", "full"])
def test_materialize_lists_nodes_in_run_order(family, mode):
    """Random graphs of 1-8 steps with extra forward edges build the same
    nodes and the same edge order as the two-branch reference builder."""
    pool = gt.default_pool()
    rng = gt.make_rng(5)
    for steps in range(1, 9):
        for _ in range(4):
            graph = gt.sample_candidate_topology(rng, pool.size, family, steps)
            extra = {
                (int(i), int(t)) for t in range(1, steps) for i in range(t)
                if rng.random() < 0.3
            }
            graph = gt.GroupGraph(graph.selected, tuple(set(graph.edges) | extra))
            agents = gt.materialize_agent_graph(graph, pool, mode)
            assert agents.summarizer == len(agents.nodes) - 1
            assert agents.nodes[agents.summarizer].role == "summarizer"
            assert all(i < t for i, t in agents.edges)
            assert agents == reference_materialize(graph, pool, mode)


def test_compose_group_prompt_mentions_roles():
    pool = two_role_pool()
    prompt = compose_group_prompt(pool[0])
    assert "writer" in prompt and "checker" in prompt
    assert "write it" in prompt and "check it" in prompt


def test_render_diagram_lists_steps_and_edges():
    pool = two_role_pool()
    graph = gt.GroupGraph(selected=(1, 0), edges=((0, 1),))
    text = gt.render_diagram(graph, pool)
    assert "step 0: trio-star" in text
    assert "0->1" in text
