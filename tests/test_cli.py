"""End-to-end CLI tests: the discover -> curate -> train -> generate -> run
pipeline in a temp directory, plus the exit-code contract."""

from __future__ import annotations

import io
import json
import os
import pathlib
import tempfile
import threading
import time

import numpy as np
import pytest
import requests
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import grouptopo as gt
from grouptopo import cli as cli_mod
from grouptopo.cli import main

from conftest import FakeResponse


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workdir(tmp_path, pool4):
    gt.write_records(tmp_path / "pool.jsonl", [gt.graph.group_to_record(g) for g in pool4])
    examples = [
        gt.EvalExample(query="what is 2 plus 3", answer="5"),
        gt.EvalExample(query="what is 10 minus 4", answer="6"),
    ]
    gt.write_records(
        str(tmp_path / "dataset.jsonl"),
        [gt.example_to_record(e) for e in examples],
    )
    return tmp_path


DATA = pathlib.Path(__file__).parent / "data"


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


def test_version(runner):
    result = invoke(runner, ["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output


def test_full_pipeline(runner, workdir):
    pool = str(workdir / "pool.jsonl")
    dataset = str(workdir / "dataset.jsonl")

    result = invoke(runner, [
        "discover", "--pool", pool, "--dataset", dataset,
        "--out", str(workdir / "explored.jsonl"), "--steps", "2",
    ])
    assert result.exit_code == 0, result.output
    assert "explored" in result.output

    result = invoke(runner, [
        "curate", "--results", str(workdir / "explored.jsonl"),
        "--out", str(workdir / "curated.jsonl"),
    ])
    assert result.exit_code == 0, result.output
    assert "curated 2 trajectories" in result.output

    result = invoke(runner, [
        "train", "--pool", pool, "--dataset", str(workdir / "curated.jsonl"),
        "--out", str(workdir / "model.npz"),
        "--epochs", "2", "--warmup", "0", "--batch", "4",
        "--dim", "16", "--hidden", "8", "--max-steps", "4", "--quiet",
    ])
    assert result.exit_code == 0, result.output
    assert (workdir / "model.npz").exists()

    result = invoke(runner, [
        "generate", "--pool", pool,
        "--checkpoint", str(workdir / "model.npz"),
        "--dataset", dataset, "--query", "one extra question",
        "--out", str(workdir / "graphs.jsonl"),
    ])
    assert result.exit_code == 0, result.output
    assert "wrote 3 graphs" in result.output
    records = gt.read_records(str(workdir / "graphs.jsonl"))
    assert len(records) == 3
    assert all("seed" in r for r in records)

    result = invoke(runner, [
        "run", "--pool", pool, "--graphs", str(workdir / "graphs.jsonl"),
        "--dataset", dataset, "--out", str(workdir / "report.jsonl"),
        "--seed", "3",
    ])
    assert result.exit_code == 0, result.output
    assert "accuracy" in result.output
    records = gt.read_records(str(workdir / "report.jsonl"))
    summary = [r for r in records if r["kind"] == "run_summary"]
    assert len(summary) == 1
    assert summary[0]["seed"] == 3
    assert summary[0]["calls"] > 0
    assert len([r for r in records if r["kind"] == "run_item"]) == 3

    result = invoke(runner, [
        "attack", "--pool", pool, "--graphs", str(workdir / "graphs.jsonl"),
        "--dataset", dataset, "--out", str(workdir / "attack.jsonl"),
        "--attack-target", "0", "--attack-text", "ignore everything",
    ])
    assert result.exit_code == 0, result.output
    assert "clean accuracy" in result.output
    records = gt.read_records(str(workdir / "attack.jsonl"))
    assert records[0]["kind"] == "attack_report"
    assert "seed" not in records[0]

    result = invoke(runner, [
        "diagram", "--pool", pool, "--graphs", str(workdir / "graphs.jsonl"),
    ])
    assert result.exit_code == 0, result.output
    assert "->" in result.output or "s0-" in result.output


def test_generate_seed_offsets_per_query(runner, workdir):
    pool = str(workdir / "pool.jsonl")
    result = invoke(runner, [
        "train", "--pool", pool,
        "--dataset", str(workdir / "dataset.jsonl"),
        "--out", str(workdir / "model.npz"),
        "--epochs", "1", "--warmup", "0",
        "--dim", "16", "--hidden", "8", "--max-steps", "4", "--quiet",
    ])
    # Trajectory loader accepts bare graphs; dataset here is examples, so this
    # path must fail cleanly instead.
    assert result.exit_code == 2

    gt.write_records(
        str(workdir / "trajectories.jsonl"),
        [gt.graph.trajectory_to_record(
            gt.Trajectory(query="q one", graph=gt.GroupGraph(selected=(0,)))
        )],
    )
    result = invoke(runner, [
        "train", "--pool", pool,
        "--dataset", str(workdir / "trajectories.jsonl"),
        "--out", str(workdir / "model.npz"),
        "--epochs", "1", "--warmup", "0", "--batch", "1",
        "--dim", "16", "--hidden", "8", "--max-steps", "4", "--quiet",
    ])
    assert result.exit_code == 0, result.output

    result = invoke(runner, [
        "generate", "--pool", pool,
        "--checkpoint", str(workdir / "model.npz"),
        "--query", "alpha", "--query", "beta",
        "--seed", "7", "--out", str(workdir / "graphs.jsonl"),
    ])
    assert result.exit_code == 0, result.output
    records = gt.read_records(str(workdir / "graphs.jsonl"))
    assert [r["seed"] for r in records] == [7, 8]


def test_exit_code_missing_file(runner, workdir):
    result = invoke(runner, [
        "run", "--pool", str(workdir / "pool.jsonl"),
        "--graphs", str(workdir / "no-such-file.jsonl"),
    ])
    assert result.exit_code == 2


def test_exit_code_malformed_records(runner, workdir):
    bad = workdir / "bad.jsonl"
    bad.write_text("this is not json\n")
    result = invoke(runner, [
        "run", "--pool", str(workdir / "pool.jsonl"), "--graphs", str(bad),
    ])
    assert result.exit_code == 2
    assert "line 1" in result.stderr


def test_exit_code_missing_backend_env(runner, workdir, monkeypatch):
    monkeypatch.delenv("GOA_LLM_URL", raising=False)
    gt.write_records(
        str(workdir / "graphs.jsonl"),
        [gt.graph.trajectory_to_record(
            gt.Trajectory(query="q", graph=gt.GroupGraph(selected=(0,)))
        )],
    )
    result = invoke(runner, [
        "run", "--pool", str(workdir / "pool.jsonl"),
        "--graphs", str(workdir / "graphs.jsonl"), "--backend", "http",
    ])
    assert result.exit_code == 3
    assert "GOA_LLM_URL" in result.stderr


class OffMainThreadFailure:
    """A ``requests.Session`` stand-in: a call on the main thread gets a reply,
    a call on any other thread gets HTTP 401 (a backend error, not retried)."""

    failed: list = []  # thread names of the failed calls

    def post(self, url, **kwargs):
        if threading.current_thread() is threading.main_thread():
            return FakeResponse(200, {"choices": [{"message": {"content": "5"}}]})
        self.failed.append(threading.current_thread().name)
        return FakeResponse(401, text="denied")


@pytest.mark.parametrize("command, args", [
    ("discover", ["--dataset", "dataset.jsonl", "--out", "out.jsonl",
                  "--families", "star"]),
    ("run", ["--graphs", "graphs.jsonl"]),
    ("attack", ["--graphs", "graphs.jsonl", "--dataset", "dataset.jsonl",
                "--attack-target", "0", "--attack-text", "x"]),
])
def test_backend_error_in_worker_thread_exits_3(runner, workdir, monkeypatch,
                                                 command, args):
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("GOA_LLM_URL", "http://llm.test")
    monkeypatch.setattr(requests, "Session", OffMainThreadFailure)
    monkeypatch.setattr(OffMainThreadFailure, "failed", [])
    # Steps 1 and 2 both wait only for step 0, so they run on pool threads.
    star = gt.GroupGraph(selected=(0, 1, 2), edges=((0, 1), (0, 2)))
    gt.write_records("graphs.jsonl", [
        gt.graph.trajectory_to_record(gt.Trajectory(query="what is 2 plus 3", graph=star))
    ])
    result = invoke(runner, [command, "--pool", "pool.jsonl", *args, "--backend", "http"])
    assert result.exit_code == 3, result.output
    assert "HTTP 401" in result.stderr
    assert OffMainThreadFailure.failed


class SleepingBackend:
    """Answers "5" after a short sleep; records the most calls in flight at once."""

    def __init__(self):
        self.running = 0
        self.peak = 0
        self.lock = threading.Lock()

    def complete(self, system, user, *, role):
        with self.lock:
            self.running += 1
            self.peak = max(self.peak, self.running)
        time.sleep(0.01)
        with self.lock:
            self.running -= 1
        return gt.BackendResult(text="5")


def test_discover_runs_independent_calls_concurrently(runner, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    backend = SleepingBackend()
    monkeypatch.setattr(cli_mod, "_make_backend", lambda *args, **kwargs: backend)
    args = ["discover", "--pool", "pool.jsonl", "--dataset", "dataset.jsonl",
            "--out", "out.jsonl", "--families", "star"]
    result = invoke(runner, args)
    assert result.exit_code == 0, result.output
    assert backend.peak > 1
    # The bound is the width of the graphs; there is no option to set it.
    result = invoke(runner, [*args, "--workers", "2"])
    assert result.exit_code == 1


def test_exit_code_bad_flag_value(runner, workdir):
    result = invoke(runner, [
        "run", "--pool", str(workdir / "pool.jsonl"),
        "--graphs", str(workdir / "dataset.jsonl"), "--rounds", "0",
    ])
    assert result.exit_code == 1


@pytest.mark.parametrize("command, args", [
    ("discover", ["--dataset", "dataset.jsonl", "--out", "out.jsonl"]),
    ("train", ["--dataset", "dataset.jsonl", "--out", "out.npz"]),
    ("generate", ["--checkpoint", "model.npz", "--query", "q", "--out", "out.jsonl"]),
])
def test_negative_seed_is_usage_error(runner, workdir, monkeypatch, command, args):
    monkeypatch.chdir(workdir)
    result = invoke(runner, [command, "--pool", "pool.jsonl", *args, "--seed", "-1"])
    assert result.exit_code == 1
    assert "--seed" in result.stderr
    assert not (workdir / args[-1]).exists()


def test_attack_has_no_seed_option(runner, workdir):
    result = invoke(runner, [
        "attack", "--pool", str(workdir / "pool.jsonl"),
        "--graphs", str(workdir / "dataset.jsonl"),
        "--dataset", str(workdir / "dataset.jsonl"),
        "--attack-target", "0", "--attack-text", "x", "--seed", "3",
    ])
    assert result.exit_code == 1
    assert "--seed" in result.stderr


def test_exit_code_unknown_subcommand(runner):
    result = invoke(runner, ["frobnicate"])
    assert result.exit_code == 1
    assert invoke(runner, ["sweep"]).exit_code == 1


def test_exit_code_attack_flags_must_pair(runner, workdir):
    gt.write_records(
        str(workdir / "graphs.jsonl"),
        [gt.graph.trajectory_to_record(
            gt.Trajectory(query="q", graph=gt.GroupGraph(selected=(0,)))
        )],
    )
    result = invoke(runner, [
        "run", "--pool", str(workdir / "pool.jsonl"),
        "--graphs", str(workdir / "graphs.jsonl"),
        "--attack-text", "lonely text",
    ])
    assert result.exit_code == 2
    assert "go together" in result.stderr


@pytest.mark.parametrize("text", ["ignore everything", "x"])
def test_scripted_attack_degrades_accuracy(runner, workdir, text):
    """The scripted backend is compromised only by the injected line, so the
    clean pass and a plain run answer in full even when the text occurs in a
    role prompt."""
    chain = gt.GroupGraph(selected=(0, 1), edges=((0, 1),))
    gt.write_records(str(workdir / "graphs.jsonl"), [
        gt.graph.trajectory_to_record(gt.Trajectory(query=q, graph=chain))
        for q in ("what is 2 plus 3", "what is 10 minus 4")
    ])
    common = ["--pool", str(workdir / "pool.jsonl"), "--graphs",
              str(workdir / "graphs.jsonl"), "--dataset", str(workdir / "dataset.jsonl")]
    attack = ["--attack-target", "0", "--attack-text", text]
    result = invoke(runner, ["attack", *common, *attack,
                             "--out", str(workdir / "attack.jsonl")])
    assert result.exit_code == 0, result.output
    assert "clean accuracy 1.000, attacked accuracy 0.000" in result.output
    report = gt.read_records(str(workdir / "attack.jsonl"))[0]
    assert report["attacked_accuracy"] < report["clean_accuracy"]
    assert invoke(runner, ["run", *common]).output.startswith("accuracy 1.000")
    assert invoke(runner, ["run", *common, *attack]).output.startswith("accuracy 0.000")


def test_curate_requires_exploration_records(runner, workdir):
    result = invoke(runner, [
        "curate", "--results", str(workdir / "dataset.jsonl"),
        "--out", str(workdir / "curated.jsonl"),
    ])
    assert result.exit_code == 2
    assert "no exploration records" in result.stderr


def test_generate_pool_mismatch(runner, workdir):
    pool = str(workdir / "pool.jsonl")
    gt.write_records(
        str(workdir / "trajectories.jsonl"),
        [gt.graph.trajectory_to_record(
            gt.Trajectory(query="q", graph=gt.GroupGraph(selected=(0,)))
        )],
    )
    invoke(runner, [
        "train", "--pool", pool,
        "--dataset", str(workdir / "trajectories.jsonl"),
        "--out", str(workdir / "model.npz"),
        "--epochs", "1", "--warmup", "0", "--batch", "1",
        "--dim", "16", "--hidden", "8", "--max-steps", "4", "--quiet",
    ])
    # Bundled default pool has a different size than the 4-group pool file.
    result = invoke(runner, [
        "generate", "--checkpoint", str(workdir / "model.npz"),
        "--query", "q", "--out", str(workdir / "graphs.jsonl"),
    ])
    assert result.exit_code == 2
    assert "pool" in result.stderr


TINY_TRAIN = ["--epochs", "1", "--warmup", "0", "--batch", "1",
              "--dim", "16", "--hidden", "8", "--max-steps", "4", "--quiet"]


def train_tiny(runner, workdir, *extra):
    gt.write_records(
        str(workdir / "chain.jsonl"),
        [gt.graph.trajectory_to_record(gt.Trajectory(
            query="q", graph=gt.GroupGraph(selected=(0, 1, 2), edges=((0, 1), (1, 2))),
        ))],
    )
    return invoke(runner, [
        "train", "--pool", str(workdir / "pool.jsonl"),
        "--dataset", str(workdir / "chain.jsonl"),
        "--out", str(workdir / "model.npz"), *TINY_TRAIN, *extra,
    ])


@pytest.mark.parametrize("flag, value, field", [
    ("--lr", "nan", "lr"),
    ("--beta-e", "inf", "beta_edge"),
])
def test_train_rejects_non_finite_config(runner, workdir, flag, value, field):
    result = train_tiny(runner, workdir, flag, value)
    assert result.exit_code == 2
    assert field in result.stderr
    assert not (workdir / "model.npz").exists()


def set_format(arrays):
    arrays["meta/format"] = np.array("grouptopo-checkpoint-v1")


def drop_param(arrays):
    for section in ("param", "opt/m", "opt/v"):
        del arrays[f"{section}/edge_gru.wz"]


def misshape_param(arrays):
    arrays["param/end_embed"] = np.zeros(5)


def drop_config(arrays):
    del arrays["meta/config"]


def garble_config(arrays):
    arrays["meta/config"] = np.array("{not json")


def edit_config(arrays, edit):
    config = json.loads(str(arrays["meta/config"]))
    edit(config)
    arrays["meta/config"] = np.array(json.dumps(config))


def list_model(arrays):
    edit_config(arrays, lambda config: config.update(model=[1, 2]))


def string_dim(arrays):
    edit_config(arrays, lambda config: config["model"].update(dim="8"))


def list_encoder(arrays):
    edit_config(arrays, lambda config: config.update(encoder=[1]))


def set_encoder_kind(kind):
    def damage(arrays):
        edit_config(arrays, lambda config: config["encoder"].update(kind=kind))
    damage.__name__ = f"encoder_kind_{kind}"
    return damage


def non_finite_params(arrays):
    arrays["param/end_embed"][0] = np.nan
    arrays["param/edge_head.l2.b"][:] = np.inf


def vector_step(arrays):
    arrays["opt/step"] = np.array([1, 2, 3])


def float_step(arrays):
    arrays["opt/step"] = np.array(1.0)


def negative_step(arrays):
    arrays["opt/step"] = np.array(-1)


def complex_param(arrays):
    arrays["param/end_embed"] = arrays["param/end_embed"] + 1j


def bool_param(arrays):
    arrays["param/end_embed"] = arrays["param/end_embed"] > 0


def datetime_param(arrays):
    arrays["param/end_embed"] = np.zeros(16, dtype="datetime64[s]")


def float32_moment(arrays):
    arrays["opt/v/end_embed"] = arrays["opt/v/end_embed"].astype(np.float32)


def zip_magic_only(arrays):
    """Bytes in place of the checkpoint: the zip magic, then no zip."""
    return b"PK\x03\x04 is not a zip archive"


def empty_file(arrays):
    return b""


def corrupt_member(arrays):
    """The checkpoint's bytes with one flipped inside its largest array, so
    that member fails its CRC check when read."""
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    data = bytearray(buffer.getvalue())
    payload = max(arrays.values(), key=np.size).tobytes()
    offset = data.find(payload)
    assert offset >= 0
    data[offset + len(payload) // 2] ^= 0xFF
    return bytes(data)


@pytest.mark.parametrize("damage, needle", [
    (set_format, "retrain"),
    (drop_param, "edge_gru.wz"),
    (misshape_param, "end_embed"),
    (drop_config, "meta/config"),
    (garble_config, "meta/config"),
    (list_model, "object"),
    (string_dim, "dim"),
    (list_encoder, "encoder"),
    (set_encoder_kind("word2vec"), "unknown encoder 'word2vec'"),
    (set_encoder_kind(None), "'kind' must be a string"),
    (set_encoder_kind(7), "'kind' must be a string"),
    (zip_magic_only, "unreadable checkpoint"),
    (corrupt_member, "Bad CRC-32"),
    (empty_file, "unreadable checkpoint"),
    (non_finite_params,
     "edge_head.l2.b entries hold NaN or infinite values, end_embed entries hold NaN"),
    (vector_step, "opt/step must be a non-negative integer scalar"),
    (float_step, "opt/step must be a non-negative integer scalar"),
    (negative_step, "opt/step must be a non-negative integer scalar"),
    (complex_param, "param/end_embed has dtype complex128, expected float64"),
    (bool_param, "param/end_embed has dtype bool, expected float64"),
    (datetime_param, "param/end_embed has dtype datetime64[s], expected float64"),
    (float32_moment, "opt/v/end_embed has dtype float32, expected float64"),
])
def test_generate_rejects_mismatched_checkpoint(runner, workdir, damage, needle):
    """``damage`` edits the arrays in place, or returns the bytes to write."""
    assert train_tiny(runner, workdir).exit_code == 0
    path = workdir / "model.npz"
    with np.load(path) as data:
        arrays = dict(data)
    raw = damage(arrays)
    with open(path, "wb") as fh:
        if raw is None:
            np.savez(fh, **arrays)
        else:
            fh.write(raw)
    result = invoke(runner, [
        "generate", "--pool", str(workdir / "pool.jsonl"),
        "--checkpoint", str(path), "--query", "q",
        "--out", str(workdir / "graphs.jsonl"),
    ])
    assert result.exit_code == 2
    assert needle in result.stderr
    assert not (workdir / "graphs.jsonl").exists()


def test_generate_with_http_encoder_kind_needs_its_url(runner, workdir, monkeypatch):
    monkeypatch.delenv("GOA_ENCODER_URL", raising=False)
    assert train_tiny(runner, workdir).exit_code == 0
    path = workdir / "model.npz"
    with np.load(path) as data:
        arrays = dict(data)
    set_encoder_kind("http")(arrays)
    np.savez(path, **arrays)
    result = invoke(runner, [
        "generate", "--pool", str(workdir / "pool.jsonl"),
        "--checkpoint", str(path), "--query", "q",
        "--out", str(workdir / "graphs.jsonl"),
    ])
    assert result.exit_code == 3
    assert "GOA_ENCODER_URL" in result.stderr
    assert not (workdir / "graphs.jsonl").exists()


def test_train_logs_each_epoch_and_saves_model_and_encoder_kind(runner, workdir):
    gt.write_records(str(workdir / "chain.jsonl"), [gt.graph.trajectory_to_record(
        gt.Trajectory(query="q", graph=gt.GroupGraph(selected=(0, 1), edges=((0, 1),))),
    )])
    result = invoke(runner, [
        "train", "--pool", str(workdir / "pool.jsonl"),
        "--dataset", str(workdir / "chain.jsonl"), "--out", str(workdir / "model.npz"),
        *[arg for arg in TINY_TRAIN if arg != "--quiet"], "--epochs", "3",
    ])
    assert result.exit_code == 0, result.output
    lines = result.stdout.splitlines()
    assert [line.split()[:2] for line in lines[:-1]] == [["epoch", str(e)] for e in range(3)]
    assert all(np.isfinite(float(line.split()[3])) for line in lines[:-1])
    assert lines[-1] == f"saved checkpoint -> {workdir / 'model.npz'}"
    _, _, config = gt.load_checkpoint(workdir / "model.npz")
    assert config == {
        "model": {"pool_size": 4, "dim": 16, "hidden": 8, "max_steps": 4,
                  "beta_group": 0.0, "beta_edge": 0.3, "seed": 0},
        "encoder": {"kind": "hash"},
    }


def test_generate_from_a_checkpoint_with_encoder_dim_and_train_seed(runner, workdir):
    """``data/v2_tiny.npz`` was written when ``train`` also stored
    ``encoder.dim`` and ``train_seed``; generate ignores both and gives the
    free-running graphs recorded beside it, seed ``--seed`` + i per query."""
    expected = [row for row in json.loads((DATA / "v2_tiny_graphs.json").read_text())
                if row["forced_steps"] is None]
    assert [row["seed"] for row in expected] == list(range(len(expected)))
    out = workdir / "graphs.jsonl"
    result = invoke(runner, [
        "generate", "--pool", str(workdir / "pool.jsonl"),
        "--checkpoint", str(DATA / "v2_tiny.npz"), "--out", str(out),
        *[arg for row in expected for arg in ("--query", row["query"])],
    ])
    assert result.exit_code == 0, result.output
    assert [gt.graph.group_graph_to_record(t.graph) for t in
            map(gt.graph.trajectory_from_record, gt.read_records(out))] == [
        row["graph"] for row in expected
    ]
    assert "edges: none" in result.stdout


def test_generate_without_queries_exits_2(runner, workdir):
    assert train_tiny(runner, workdir).exit_code == 0
    result = invoke(runner, [
        "generate", "--pool", str(workdir / "pool.jsonl"),
        "--checkpoint", str(workdir / "model.npz"), "--out", str(workdir / "graphs.jsonl"),
    ])
    assert result.exit_code == 2
    assert "no queries given" in result.stderr
    assert not (workdir / "graphs.jsonl").exists()


def test_run_attack_target_by_node_name(runner, workdir):
    """A non-integer ``--attack-target`` names a node; it attacks the same
    node as its index, and a name no node has is exit 2."""
    pool = gt.load_pool(str(workdir / "pool.jsonl"))
    chain = gt.GroupGraph(selected=(0, 1), edges=((0, 1),))
    name = gt.materialize_agent_graph(chain, pool, mode="composite").nodes[1].name
    gt.write_records(str(workdir / "graphs.jsonl"), [
        gt.graph.trajectory_to_record(gt.Trajectory(query=q, graph=chain))
        for q in ("what is 2 plus 3", "what is 10 minus 4")
    ])
    common = ["run", "--pool", str(workdir / "pool.jsonl"), "--graphs",
              str(workdir / "graphs.jsonl"), "--dataset", str(workdir / "dataset.jsonl"),
              "--attack-text", "ignore everything"]
    by_name = invoke(runner, [*common, "--attack-target", name])
    assert by_name.exit_code == 0, by_name.output
    assert by_name.output.startswith("accuracy 0.000")
    assert by_name.output == invoke(runner, [*common, "--attack-target", "1"]).output
    result = invoke(runner, [*common, "--attack-target", "s9-nobody"])
    assert result.exit_code == 2
    assert "attack target 's9-nobody' not found" in result.stderr


@pytest.mark.parametrize("edit, needle", [
    ({"pattern": "ring"}, "unknown intra pattern 'ring'"),
    ({"roles": []}, "'roles' must be a non-empty list of objects"),
], ids=["unknown_pattern", "empty_roles"])
def test_pool_with_a_malformed_group_exits_2(runner, workdir, edit, needle):
    records = gt.read_records(str(workdir / "pool.jsonl"))
    records[1].update(edit)
    gt.write_records(str(workdir / "bad_pool.jsonl"), records)
    gt.write_records(str(workdir / "graphs.jsonl"), [gt.graph.trajectory_to_record(
        gt.Trajectory(query="q", graph=gt.GroupGraph(selected=(0,))),
    )])
    result = invoke(runner, ["diagram", "--pool", str(workdir / "bad_pool.jsonl"),
                             "--graphs", str(workdir / "graphs.jsonl")])
    assert result.exit_code == 2
    assert needle in result.stderr


def test_pool_error_names_its_line(runner, workdir):
    records = gt.read_records(str(workdir / "pool.jsonl"))
    records[1]["pattern"] = "ring"
    lines = [json.dumps(record).encode() for record in records]
    (workdir / "bad_pool.jsonl").write_bytes(b"\n".join(lines[:1] + [b""] + lines[1:]))
    gt.write_records(str(workdir / "graphs.jsonl"), [gt.graph.trajectory_to_record(
        gt.Trajectory(query="q", graph=gt.GroupGraph(selected=(0,))),
    )])
    result = invoke(runner, ["diagram", "--pool", str(workdir / "bad_pool.jsonl"),
                             "--graphs", str(workdir / "graphs.jsonl")])
    assert result.exit_code == 2
    # The blank line counts: the second group is on line 3.
    assert result.stderr == "validation error: line 3: unknown intra pattern 'ring'\n"


def exploration_line(**fields):
    record = {
        "v": "v1", "kind": "exploration", "query": "q", "correct": True,
        "graph": gt.graph.group_graph_to_record(gt.GroupGraph(selected=(0,))),
    }
    return json.dumps({**record, **fields}).encode() + b"\n"


@pytest.mark.parametrize("content, needle", [
    (b"\xff\xfe" + exploration_line(), "line 1"),
    (exploration_line(correct="no"), "correct"),
    (exploration_line(prompt_tokens="x"), "prompt_tokens"),
    (exploration_line(completion_tokens=-1), "completion_tokens"),
    (b"[" * 200_000 + b"\n", "line 1"),
    (exploration_line(graph={"v": "v1", "kind": "group_graph", "selected": [0, 1],
                             "edges": ["0->1", "0->1"]}), "duplicate edge 0->1"),
    (exploration_line() * 2 + exploration_line(graph={
        "v": "v1", "kind": "group_graph", "selected": [0, 1], "edges": ["0->1", "0->1"]}),
     "validation error: line 3: duplicate edge 0->1"),
], ids=["not_utf8", "correct_string", "tokens_string", "tokens_negative", "deep_nesting",
        "duplicate_edge", "third_line"])
def test_curate_rejects_bad_results(runner, workdir, content, needle):
    bad = workdir / "explored.jsonl"
    bad.write_bytes(content)
    result = invoke(runner, [
        "curate", "--results", str(bad), "--out", str(workdir / "curated.jsonl"),
    ])
    assert result.exit_code == 2
    assert needle in result.stderr
    assert not (workdir / "curated.jsonl").exists()


def test_curate_reports_queries_without_a_correct_graph(runner, workdir):
    (workdir / "explored.jsonl").write_bytes(
        exploration_line() + exploration_line(query="unsolved", correct=False)
    )
    result = invoke(runner, [
        "curate", "--results", str(workdir / "explored.jsonl"),
        "--out", str(workdir / "curated.jsonl"),
    ])
    assert result.exit_code == 0, result.output
    assert "curated 1 trajectories" in result.stdout
    assert result.stderr == "excluded (no correct graph): unsolved\n"
    assert [r["query"] for r in gt.read_records(str(workdir / "curated.jsonl"))] == ["q"]


# ---------------------------------------------------------------------------
# Property: any bytes in a record file end in exit 0 or 2, never a traceback.

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
edge_lists = st.lists(
    st.builds("{}->{}".format, st.integers(0, 5), st.integers(0, 5)) | json_values,
    max_size=4,
)
graph_records = st.fixed_dictionaries(
    {"v": st.just("v1"), "kind": st.just("group_graph"),
     "selected": st.lists(st.integers(-1, 20), max_size=5) | json_values,
     "edges": edge_lists},
    optional={"truncated": json_values},
)
record_fields = {
    name: json_values
    for name in ("query", "answer", "family", "correct", "final_text", "match")
}
records = st.fixed_dictionaries(
    {"v": st.sampled_from(["v1", "v0"]),
     "kind": st.sampled_from(["exploration", "trajectory", "group_graph", "example"])},
    optional={
        **record_fields,
        "graph": graph_records | json_values,
        "selected": st.lists(st.integers(-1, 20), max_size=5) | json_values,
        "edges": edge_lists,
        "prompt_tokens": st.integers(-2, 10**6) | json_values,
        "completion_tokens": st.integers(-2, 10**6) | json_values,
    },
)
record_files = st.binary(max_size=200) | st.lists(
    records | graph_records | json_values, min_size=1, max_size=4
).map(lambda rows: "\n".join(json.dumps(row) for row in rows).encode())

# command -> its arguments, with the fuzzed file as {path} and the valid
# files of ``valid_inputs`` as {pool}, {dataset}, {graphs} and {checkpoint}.
RECORD_COMMANDS = {
    "curate": ["curate", "--results", "{path}", "--out", "{path}.out"],
    "train": ["train", "--dataset", "{path}", "--out", "{path}.npz", "--epochs", "1",
              "--dim", "8", "--hidden", "4", "--quiet"],
    "run": ["run", "--graphs", "{path}"],
    "discover": ["discover", "--pool", "{pool}", "--dataset", "{path}",
                 "--out", "{path}.out", "--families", "chain", "--steps", "2"],
    "generate": ["generate", "--pool", "{pool}", "--checkpoint", "{checkpoint}",
                 "--dataset", "{path}", "--out", "{path}.out"],
    "generate_checkpoint": ["generate", "--pool", "{pool}", "--checkpoint", "{path}",
                            "--query", "q", "--out", "{path}.out"],
    "attack": ["attack", "--pool", "{pool}", "--graphs", "{path}",
               "--dataset", "{dataset}", "--attack-target", "0", "--attack-text", "x"],
    "diagram": ["diagram", "--pool", "{pool}", "--graphs", "{path}"],
    "diagram_pool": ["diagram", "--pool", "{path}", "--graphs", "{graphs}"],
}


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A 4-group pool, one example, one graph for it, a checkpoint trained on
    that graph and exploration results for the example: the inputs a fuzzed
    command reads besides its {path}."""
    root = tmp_path_factory.mktemp("valid")
    files = {name: str(root / name) for name in ("pool", "dataset", "graphs")}
    files["checkpoint"] = str(root / "model.npz")
    gt.write_records(files["pool"],
                     [gt.graph.group_to_record(g) for g in gt.default_pool().groups[:4]])
    gt.write_records(files["dataset"], [
        gt.example_to_record(gt.EvalExample(query="what is 2 plus 3", answer="5")),
    ])
    gt.write_records(files["graphs"], [gt.graph.trajectory_to_record(gt.Trajectory(
        query="what is 2 plus 3", graph=gt.GroupGraph(selected=(0, 1), edges=((0, 1),)),
    ))])
    result = CliRunner().invoke(main, [
        "train", "--pool", files["pool"], "--dataset", files["graphs"],
        "--out", files["checkpoint"], *TINY_TRAIN,
    ])
    assert result.exit_code == 0, result.output
    files["results"] = str(root / "explored.jsonl")
    result = CliRunner().invoke(main, [
        "discover", "--pool", files["pool"], "--dataset", files["dataset"],
        "--out", files["results"], "--families", "chain", "--steps", "2",
    ])
    assert result.exit_code == 0, result.output
    return files


@pytest.mark.parametrize("command", sorted(RECORD_COMMANDS))
@settings(max_examples=40, deadline=None)
@given(content=record_files)
@example(content=b"1" * 5000)
@example(content=b'{"v": "v1", "kind": "group_graph", "selected": [99], "edges": []}')
def test_record_files_fail_cleanly(valid_inputs, command, content):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.jsonl")
        with open(path, "wb") as fh:
            fh.write(content)
        args = [arg.format(path=path, **valid_inputs) for arg in RECORD_COMMANDS[command]]
        result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2), result.output
    assert "Traceback" not in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


# command -> its arguments, with the valid files of ``valid_inputs`` as above,
# an existing directory as {dir} and a file in a missing directory as {missing}.
PATH_CASES = {
    "graphs_dir": ["run", "--pool", "{pool}", "--graphs", "{dir}"],
    "dataset_dir": ["discover", "--pool", "{pool}", "--dataset", "{dir}",
                    "--out", "{tmp}/out.jsonl"],
    "results_dir": ["curate", "--results", "{dir}", "--out", "{tmp}/out.jsonl"],
    "pool_dir": ["diagram", "--pool", "{dir}", "--graphs", "{graphs}"],
    "curate_out_missing": ["curate", "--results", "{results}", "--out", "{missing}"],
    "run_out_missing": ["run", "--pool", "{pool}", "--graphs", "{graphs}",
                        "--dataset", "{dataset}", "--out", "{missing}"],
    "run_out_dir": ["run", "--pool", "{pool}", "--graphs", "{graphs}",
                    "--dataset", "{dataset}", "--out", "{dir}"],
    "generate_out_missing": ["generate", "--pool", "{pool}", "--checkpoint",
                             "{checkpoint}", "--query", "q", "--out", "{missing}"],
    "train_out_dir": ["train", "--pool", "{pool}", "--dataset", "{graphs}",
                      "--out", "{dir}", *TINY_TRAIN],
}


@pytest.mark.parametrize("case", sorted(PATH_CASES))
def test_unusable_paths_exit_2(valid_inputs, tmp_path, case):
    """A directory where a file is read, or an output path that cannot be
    written, is a validation error that names the path and leaves no temp file."""
    (tmp_path / "dir").mkdir()
    paths = {"tmp": str(tmp_path), "dir": str(tmp_path / "dir"),
             "missing": str(tmp_path / "missing" / "out.jsonl")}
    args = [arg.format(**paths, **valid_inputs) for arg in PATH_CASES[case]]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "validation error: cannot" in result.stderr
    assert not list(tmp_path.rglob("*.tmp"))


# Commands that call the backend, with {out} as their --out path.
BACKEND_COMMANDS = {
    "discover": ["discover", "--pool", "{pool}", "--dataset", "{dataset}", "--out", "{out}",
                 "--families", "chain", "--steps", "2"],
    "run": ["run", "--pool", "{pool}", "--graphs", "{graphs}", "--dataset", "{dataset}",
            "--out", "{out}"],
    "attack": ["attack", "--pool", "{pool}", "--graphs", "{graphs}", "--dataset",
               "{dataset}", "--attack-target", "0", "--attack-text", "x", "--out", "{out}"],
}


@pytest.mark.parametrize("command", sorted(BACKEND_COMMANDS))
def test_unusable_out_exits_before_any_backend_call(valid_inputs, tmp_path, monkeypatch,
                                                    command):
    calls = []
    complete = gt.AnswerKeyBackend.complete

    def counting(self, *args, **kwargs):
        calls.append(kwargs.get("role"))
        return complete(self, *args, **kwargs)

    monkeypatch.setattr(gt.AnswerKeyBackend, "complete", counting)

    def invoke_with(out):
        args = [arg.format(out=out, **valid_inputs) for arg in BACKEND_COMMANDS[command]]
        return CliRunner().invoke(main, args)

    missing = tmp_path / "missing" / "out.jsonl"
    result = invoke_with(missing)
    assert result.exit_code == 2, result.output
    assert f"validation error: cannot write {missing}" in result.stderr
    assert calls == []
    assert result.stdout == ""
    assert not missing.parent.exists()
    # The same command with a usable --out makes calls, so the count is live.
    result = invoke_with(tmp_path / "out.jsonl")
    assert result.exit_code == 0, result.output
    assert calls


def test_unusable_out_exits_before_generating(valid_inputs, tmp_path):
    def invoke_with(out):
        return CliRunner().invoke(main, [
            "generate", "--pool", valid_inputs["pool"], "--checkpoint",
            valid_inputs["checkpoint"], "--query", "q", "--out", str(out),
        ])

    missing = tmp_path / "missing" / "graphs.jsonl"
    result = invoke_with(missing)
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert f"validation error: cannot write {missing}" in result.stderr
    result = invoke_with(tmp_path / "graphs.jsonl")
    assert result.exit_code == 0, result.output
    assert "query: q" in result.stdout


def test_unusable_out_exits_before_training(valid_inputs, tmp_path, monkeypatch):
    trained = []
    monkeypatch.setattr(cli_mod, "train", lambda *args, **kwargs: trained.append(args))
    result = CliRunner().invoke(main, [
        "train", "--pool", valid_inputs["pool"], "--dataset", valid_inputs["graphs"],
        "--out", str(tmp_path / "missing" / "model.npz"), *TINY_TRAIN,
    ])
    assert trained == []
    assert result.exit_code == 2, result.output


@pytest.fixture(scope="module")
def varied_checkpoint(valid_inputs, tmp_path_factory):
    """A checkpoint trained like ``valid_inputs``'s but with ``--seed 2``: its
    free-running graphs differ across the queries below, where the shared
    checkpoint's all come out the same."""
    path = str(tmp_path_factory.mktemp("varied") / "model.npz")
    result = CliRunner().invoke(main, [
        "train", "--pool", valid_inputs["pool"], "--dataset", valid_inputs["graphs"],
        "--out", path, *TINY_TRAIN, "--seed", "2",
    ])
    assert result.exit_code == 0, result.output
    return path


@pytest.mark.parametrize("forced", [None, 3], ids=["free", "forced3"])
@pytest.mark.parametrize("batch", [3, cli_mod.GENERATE_BATCH], ids=["batch3", "default"])
def test_generate_dataset_matches_per_query_generation(valid_inputs, varied_checkpoint,
                                                       tmp_path, monkeypatch, forced, batch):
    """``generate --dataset`` encodes and samples its queries in batches; its
    records and stdout are those of ``generate_graph`` per query with seed
    ``--seed`` + i."""
    monkeypatch.setattr(cli_mod, "GENERATE_BATCH", batch)
    encoded = []
    encode = gt.HashingTextEmbedder.encode
    monkeypatch.setattr(gt.HashingTextEmbedder, "encode",
                        lambda self, texts: encoded.append(list(texts)) or encode(self, texts))
    queries = [f"what is {a} plus {a + 7}, then check it twice" for a in range(8)]
    dataset, out = str(tmp_path / "examples.jsonl"), str(tmp_path / "graphs.jsonl")
    gt.write_records(dataset, [gt.example_to_record(gt.EvalExample(query=q, answer="1"))
                               for q in queries])
    args = ["generate", "--pool", valid_inputs["pool"], "--checkpoint",
            varied_checkpoint, "--dataset", dataset, "--out", out, "--seed", "5"]
    if forced is not None:
        args += ["--forced-steps", str(forced)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert [texts for texts in encoded if texts[0] in queries] == [
        queries[s : s + batch] for s in range(0, len(queries), batch)
    ]

    pool = gt.load_pool(valid_inputs["pool"])
    params, _, saved = gt.load_checkpoint(varied_checkpoint)
    config = gt.ModelConfig.from_dict(saved["model"])
    provider = gt.HashingTextEmbedder(config.dim)
    candidates = gt.build_candidate_matrix(provider, pool)
    graphs = [
        gt.generate_graph(params, config, candidates, provider.encode([q])[0], 5 + i,
                          forced_steps=forced)
        for i, q in enumerate(queries)
    ]
    assert len(set(graphs)) > 1
    assert gt.read_records(out) == [
        {**gt.graph.trajectory_to_record(gt.Trajectory(query=q, graph=g)), "seed": 5 + i}
        for i, (q, g) in enumerate(zip(queries, graphs))
    ]
    assert result.stdout == "".join(
        f"query: {q}\n{gt.render_diagram(g, pool)}\n" for q, g in zip(queries, graphs)
    ) + f"wrote {len(queries)} graphs -> {out}\n"


MEMBER_DTYPES = ("float64", "float32", ">f8", "int64", "uint8", "bool", "complex128",
                 "datetime64[s]", "<U3", "object", "f8,i4")
member_shapes = st.lists(st.integers(0, 3), max_size=3).map(tuple)
member_edits = st.dictionaries(
    st.sampled_from(["param/end_embed", "param/edge_head.l2.b", "param/his_gru.wz",
                     "opt/m/end_embed", "opt/v/step_embed", "opt/step", "meta/config",
                     "meta/format"])
    | st.builds(str.__add__, st.sampled_from(["param/", "opt/m/", "opt/v/", ""]),
                st.text("ab._/", min_size=1, max_size=6)),
    st.none()
    | st.tuples(st.sampled_from(MEMBER_DTYPES), st.none() | member_shapes,
                st.sampled_from([0.0, 1.5, -2.0, float("nan"), float("inf")])),
    max_size=4,
)


@settings(max_examples=75, deadline=None)
@given(edits=member_edits)
def test_checkpoint_members_fail_cleanly(valid_inputs, edits):
    """Arbitrary members as ``generate --checkpoint``: each edit deletes a
    member (None) or writes one of the drawn dtype, shape (None keeps the
    member's own) and fill value. Exit 0 only when every parameter is
    float64 and ``check_params`` accepts them."""
    with np.load(valid_inputs["checkpoint"]) as data:
        arrays = dict(data)
    for name, edit in edits.items():
        if edit is None:
            arrays.pop(name, None)
            continue
        dtype, shape, fill = edit
        if shape is None:
            shape = arrays[name].shape if name in arrays else ()
        value = np.zeros(shape, dtype=dtype)
        if value.dtype.kind in "fc":
            value[...] = fill
        arrays[name] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.npz")
        np.savez(path, **arrays)
        result = CliRunner().invoke(main, [
            "generate", "--pool", valid_inputs["pool"], "--checkpoint", path,
            "--query", "q", "--out", os.path.join(tmp, "graphs.jsonl"),
        ])
    assert result.exit_code in (0, 2), result.output
    assert "Traceback" not in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    if result.exit_code == 0:
        params = {k[len("param/"):]: v for k, v in arrays.items() if k.startswith("param/")}
        assert all(v.dtype == np.float64 for v in params.values())
        config = json.loads(str(arrays["meta/config"]))["model"]
        gt.check_params(params, gt.ModelConfig.from_dict(config))
