"""The JSON-lines record format: the bytes each writer emits, typed fields in
every decoder, and the schema header."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

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
        gt.graph.group_graph_to_record(graph),
        gt.graph.group_to_record(pool[13]),
        gt.graph.trajectory_to_record(gt.Trajectory(query="what is 2 plus 3", graph=graph)),
        gt.example_to_record(examples[1]),
        gt.training.exploration_result_to_record(exploration),
    ])
    gt.write_records("examples.jsonl", [gt.example_to_record(e) for e in examples])
    # The third query has no answer, so accuracies are not whole numbers.
    queries = [e.query for e in examples] + ["what is 7 times 6"]
    gt.write_records("graphs.jsonl", [
        gt.graph.trajectory_to_record(gt.Trajectory(query=q, graph=graph)) for q in queries
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
    """Kind -> (decoder, a valid record of that kind)."""
    graph = gt.GroupGraph(selected=(0, 1), edges=((0, 1),))
    exploration = gt.ExplorationResult(
        query="q", answer="5", graph=graph, family="chain", correct=True,
        final_text="5", prompt_tokens=3, completion_tokens=1,
    )
    return {
        "group_graph": (gt.graph.group_graph_from_record, gt.graph.group_graph_to_record(graph)),
        "group": (gt.graph.group_from_record, gt.graph.group_to_record(gt.default_pool()[4])),
        "trajectory": (gt.graph.trajectory_from_record,
                       gt.graph.trajectory_to_record(gt.Trajectory(query="q", graph=graph))),
        "example": (gt.harness.example_from_record,
                    gt.example_to_record(gt.EvalExample(query="q", answer="5"))),
        "exploration": (gt.training.exploration_result_from_record,
                        gt.training.exploration_result_to_record(exploration)),
    }


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
    decode, record = valid_records()[kind]
    holder = record
    for step in path[:-1]:
        holder = holder[step]
    holder[path[-1]] = value
    field = [step for step in path if isinstance(step, str)][-1]
    with pytest.raises(ValidationError, match=f"'{field}'"):
        decode(record)


@pytest.mark.parametrize("kind", ["example", "exploration"])
@pytest.mark.parametrize("header", [{"v": "v0"}, {"v": None}, {"kind": "trajectory"}])
def test_library_decoders_check_the_header(kind, header):
    decode, record = valid_records()[kind]
    with pytest.raises(ValidationError, match="schema version|expected kind"):
        decode({**record, **header})


@pytest.mark.parametrize("kind", [["trajectory"], 5, None, {"trajectory": 1}])
def test_kind_that_is_not_a_string_exits_2(tmp_path, kind):
    graph = gt.GroupGraph(selected=(0,))
    valid = gt.graph.trajectory_to_record(gt.Trajectory(query="q", graph=graph))
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
