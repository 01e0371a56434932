"""The JSON-lines record format: the bytes each writer emits, typed fields in
every decoder, and the schema header."""

from __future__ import annotations

import dataclasses
import json
import os
from typing import ClassVar

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import grouptopo as gt
from grouptopo.cli import main
from grouptopo.errors import ValidationError

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "records_v1.jsonl")
KINDS = ("group_graph", "group", "trajectory", "example", "exploration",
         "discover_summary", "run_item", "run_summary", "attack_report")


def written_lines(path) -> dict[str, bytes]:
    """The first line of each record kind in the file at ``path``, as bytes."""
    lines: dict[str, bytes] = {}
    with open(path, "rb") as fh:
        for line in fh:
            lines.setdefault(json.loads(line)["kind"], line)
    return lines


def one_line_per_kind() -> bytes:
    """One record of each kind, as the writers emit it: the library codecs
    on fixed values, and the CLI reports of discover, run and attack on
    tiny fixed inputs written to the current directory."""
    pool = gt.default_pool()
    graph = gt.GroupGraph(selected=(13, 2, 5), edges=((0, 2), (0, 1)), truncated=True)
    examples = [gt.EvalExample(query="what is 2 plus 3", answer="5"),
                gt.EvalExample(query="what is 10 minus 4", answer="6", match="numeric")]
    exploration = gt.ExplorationResult(
        query="what is 2 plus 3", answer="5", graph=graph, family="star",
        correct=np.bool_(True), final_text="5", prompt_tokens=np.int64(120),
        completion_tokens=np.int64(7),
    )
    gt.write_records("library.jsonl", [
        gt.graph.to_record(graph),
        gt.graph.to_record(pool[13]),
        gt.graph.to_record(gt.Trajectory(query="what is 2 plus 3", graph=graph)),
        gt.example_to_record(examples[1]),
        gt.graph.to_record(exploration),
    ])
    gt.write_records("examples.jsonl", [gt.example_to_record(e) for e in examples])
    # The third query has no answer, so accuracies are not whole numbers.
    queries = [e.query for e in examples] + ["what is 7 times 6"]
    gt.write_records("graphs.jsonl", [
        gt.graph.to_record(gt.Trajectory(query=q, graph=graph)) for q in queries
    ])
    for args in (
        ["discover", "--dataset", "examples.jsonl", "--out", "explored.jsonl",
         "--families", "chain,star", "--steps", "2", "--seed", "3"],
        ["run", "--graphs", "graphs.jsonl", "--dataset", "examples.jsonl",
         "--out", "report.jsonl", "--mode", "expanded", "--rounds", "2", "--seed", "4"],
        ["attack", "--graphs", "graphs.jsonl", "--dataset", "examples.jsonl",
         "--out", "attack.jsonl", "--attack-target", "0", "--attack-text", "ignore it"],
    ):
        result = CliRunner().invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output
    lines: dict[str, bytes] = {}
    for name in ("library", "explored", "report", "attack"):
        for kind, line in written_lines(f"{name}.jsonl").items():
            lines.setdefault(kind, line)
    return b"".join(lines[kind] for kind in KINDS)


def test_writers_match_golden_bytes(tmp_path, monkeypatch):
    """Every writer's bytes, numpy scalars in an ExplorationResult included,
    equal those recorded in tests/data by an earlier version of the writers."""
    monkeypatch.chdir(tmp_path)
    with open(GOLDEN, "rb") as fh:
        assert one_line_per_kind() == fh.read()


def valid_records() -> dict[str, tuple]:
    """Kind -> (record type, a valid record of that kind)."""
    graph = gt.GroupGraph(selected=(0, 1), edges=((0, 1),))
    exploration = gt.ExplorationResult(
        query="q", answer="5", graph=graph, family="chain", correct=True,
        final_text="5", prompt_tokens=3, completion_tokens=1,
    )
    values = [graph, gt.default_pool()[4], gt.Trajectory(query="q", graph=graph),
              gt.EvalExample(query="q", answer="5"), exploration]
    return {value.RECORD_KIND: (type(value), gt.graph.to_record(value)) for value in values}


def edited(record: dict, path: tuple, value=None, delete: bool = False) -> dict:
    """``record`` with the value at ``path`` set to ``value``, or deleted."""
    holder = record
    for step in path[:-1]:
        holder = holder[step]
    if delete:
        del holder[path[-1]]
    else:
        holder[path[-1]] = value
    return record


# (kind, path to a string inside the record): every string a decoder reads.
STRING_FIELDS = [
    ("group_graph", ("edges", 0)),
    ("group", ("name",)),
    ("group", ("description",)),
    ("group", ("pattern",)),
    ("group", ("roles", 0, "name")),
    ("group", ("roles", 1, "prompt")),
    ("trajectory", ("query",)),
    ("example", ("query",)),
    ("example", ("answer",)),
    ("example", ("match",)),
    ("exploration", ("query",)),
    ("exploration", ("answer",)),
    ("exploration", ("family",)),
    ("exploration", ("final_text",)),
]


@pytest.mark.parametrize("value", [None, 5, ["q"], {"q": "q"}],
                         ids=["null", "number", "list", "object"])
@pytest.mark.parametrize("kind, path", STRING_FIELDS, ids=[
    f"{kind}-{'.'.join(map(str, path))}" for kind, path in STRING_FIELDS
])
def test_decoders_reject_string_fields_of_another_type(kind, path, value):
    cls, record = valid_records()[kind]
    field = [step for step in path if isinstance(step, str)][-1]
    with pytest.raises(ValidationError, match=f"'{field}'"):
        gt.graph.from_record(edited(record, path, value), cls)


# (kind, path to a field that is not a string, values of another JSON type,
# the message that names it).
TYPED_FIELDS = [
    ("group_graph", ("selected",), ["0", {"0": 0}, None], "'selected' must be a list"),
    ("group_graph", ("edges",), ["0->1", {"0": 1}, None], "'edges' must be a list"),
    ("group_graph", ("truncated",), [1, "true", None], "'truncated' must be true or false"),
    ("group", ("roles",), ["solver", {"name": "solver"}, None], "'roles' must be a list"),
    ("group", ("roles", 0), ["solver", ["solver"], None], "'roles' must hold dict values"),
    ("trajectory", ("graph",), ["g", [], None], "'graph' must be an object"),
    ("trajectory", ("graph", "truncated"), [1], "'truncated' must be true or false"),
    ("exploration", ("graph",), ["g", [], None], "'graph' must be an object"),
    ("exploration", ("correct",), [1, "true", None], "'correct' must be true or false"),
    ("exploration", ("prompt_tokens",), [3.0, True, "3"], "'prompt_tokens' must be an integer"),
    ("exploration", ("completion_tokens",), [3.0, True, "3"],
     "'completion_tokens' must be an integer"),
]
TYPED_CASES = [(kind, path, value, message)
               for kind, path, values, message in TYPED_FIELDS for value in values]


@pytest.mark.parametrize("kind, path, value, message", TYPED_CASES, ids=[
    f"{kind}-{'.'.join(map(str, path))}-{json.dumps(value)}"
    for kind, path, value, _ in TYPED_CASES
])
def test_decoders_reject_typed_fields_of_another_type(kind, path, value, message):
    cls, record = valid_records()[kind]
    with pytest.raises(ValidationError, match=f"^{message}(, got .*)?$"):
        gt.graph.from_record(edited(record, path, value), cls)


# (kind, path to a key that every record of that kind must hold).
REQUIRED_KEYS = [
    ("group_graph", ("selected",)),
    ("group_graph", ("edges",)),
    ("group", ("name",)),
    ("group", ("roles",)),
    ("group", ("roles", 0, "name")),
    ("group", ("roles", 0, "prompt")),
    ("group", ("pattern",)),
    ("trajectory", ("query",)),
    ("trajectory", ("graph",)),
    ("trajectory", ("graph", "selected")),
    ("example", ("query",)),
    ("example", ("answer",)),
    ("exploration", ("query",)),
    ("exploration", ("graph",)),
    ("exploration", ("correct",)),
]


@pytest.mark.parametrize("kind, path", REQUIRED_KEYS, ids=[
    f"{kind}-{'.'.join(map(str, path))}" for kind, path in REQUIRED_KEYS
])
def test_decoders_reject_a_missing_key(kind, path):
    cls, record = valid_records()[kind]
    with pytest.raises(ValidationError, match=f"^record is missing '{path[-1]}'$"):
        gt.graph.from_record(edited(record, path, delete=True), cls)


@pytest.mark.parametrize("kind, key, default", [
    ("group_graph", "truncated", False),
    ("group", "description", ""),
    ("example", "match", "auto"),
    ("exploration", "answer", ""),
    ("exploration", "family", ""),
    ("exploration", "final_text", ""),
    ("exploration", "prompt_tokens", 0),
    ("exploration", "completion_tokens", 0),
])
def test_decoders_read_a_missing_optional_key_as_its_default(kind, key, default):
    cls, record = valid_records()[kind]
    del record[key]
    assert getattr(gt.graph.from_record(record, cls), key) == default


@st.composite
def record_values(draw):
    """A value of one of the five record types, over the range each accepts."""
    n = draw(st.integers(0, 5))
    graph = gt.GroupGraph(
        selected=draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n)),
        edges=draw(st.sets(st.sampled_from([(i, t) for t in range(n) for i in range(t)])
                           if n > 1 else st.nothing())),
        truncated=draw(st.booleans()),
    )
    text = st.text(max_size=12)
    roles = st.lists(st.builds(gt.RoleSpec, text, text), min_size=1, max_size=3)
    count = st.integers(0, 2**62)
    return draw(st.sampled_from([
        graph,
        gt.CandidateGroup(draw(text), draw(text), draw(roles),
                          draw(st.sampled_from(gt.IntraPattern))),
        gt.Trajectory(query=draw(text), graph=graph),
        gt.EvalExample(draw(text), draw(text),
                       draw(st.sampled_from(["exact", "numeric", "contains", "auto"]))),
        gt.ExplorationResult(draw(text), draw(text), graph, draw(text), draw(st.booleans()),
                             draw(text), draw(count), draw(count)),
    ]))


@settings(max_examples=150, deadline=None)
@given(record_values())
def test_records_round_trip(value):
    line = json.dumps(gt.graph.to_record(value), sort_keys=True)
    assert gt.graph.from_record(json.loads(line), type(value)) == value


def test_every_record_type_has_a_field_plan():
    """Each record type's field plan builds, so an annotation with no record
    form fails here rather than at a user's first read."""
    for cls in (gt.GroupGraph, gt.CandidateGroup, gt.Trajectory, gt.EvalExample,
                gt.ExplorationResult):
        assert [name for name, *_ in gt.graph._field_plan(cls)] == [
            f.name for f in dataclasses.fields(cls)]

    @dataclasses.dataclass(frozen=True)
    class Scored:
        RECORD_KIND: ClassVar[str] = "scored"
        score: float

    with pytest.raises(TypeError, match="Scored.score: no record form for 'float'"):
        gt.graph._field_plan(Scored)


@pytest.mark.parametrize("kind", ["example", "exploration"])
@pytest.mark.parametrize("header", [{"v": "v0"}, {"v": None}, {"kind": "trajectory"}])
def test_library_decoders_check_the_header(kind, header):
    cls, record = valid_records()[kind]
    with pytest.raises(ValidationError, match="schema version|expected kind"):
        gt.graph.from_record({**record, **header}, cls)


@pytest.mark.parametrize("kind", [["trajectory"], 5, None, {"trajectory": 1}])
def test_kind_that_is_not_a_string_exits_2(tmp_path, kind):
    graph = gt.GroupGraph(selected=(0,))
    valid = gt.graph.to_record(gt.Trajectory(query="q", graph=graph))
    path = tmp_path / "graphs.jsonl"
    gt.write_records(path, [valid, {**valid, "kind": kind}])
    with pytest.raises(ValidationError, match="line 2: 'kind' must be a string"):
        gt.read_records(path)
    result = CliRunner().invoke(main, ["diagram", "--graphs", str(path)])
    assert result.exit_code == 2
    assert "'kind' must be a string" in result.stderr


def test_discover_rejects_null_example_before_any_backend_call(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(gt.AnswerKeyBackend, "complete",
                        lambda self, *args, **kwargs: calls.append(args))
    dataset = tmp_path / "examples.jsonl"
    dataset.write_text('{"v": "v1", "kind": "example", "query": null, "answer": null}\n')
    out = tmp_path / "explored.jsonl"
    result = CliRunner().invoke(main, ["discover", "--dataset", str(dataset),
                                       "--out", str(out)])
    assert result.exit_code == 2
    assert "'query' must be a string" in result.stderr
    assert not out.exists()
    assert calls == []
