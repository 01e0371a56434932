"""End-to-end CLI tests: the discover -> curate -> train -> generate -> run
pipeline in a temp directory, plus the exit-code contract."""

from __future__ import annotations

import numpy as np
import pytest
from click.testing import CliRunner

import grouptopo as gt
from grouptopo.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workdir(tmp_path, pool4):
    gt.save_pool(str(tmp_path / "pool.jsonl"), pool4)
    examples = [
        gt.EvalExample(query="what is 2 plus 3", answer="5"),
        gt.EvalExample(query="what is 10 minus 4", answer="6"),
    ]
    gt.write_records(
        str(tmp_path / "dataset.jsonl"),
        [gt.example_to_record(e) for e in examples],
    )
    return tmp_path


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
    ])
    assert result.exit_code == 0, result.output
    assert "accuracy" in result.output
    records = gt.read_records(str(workdir / "report.jsonl"))
    summary = [r for r in records if r["kind"] == "run_summary"]
    assert len(summary) == 1
    assert summary[0]["seed"] == 0
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
        [gt.trajectory_to_record(
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
        [gt.trajectory_to_record(
            gt.Trajectory(query="q", graph=gt.GroupGraph(selected=(0,)))
        )],
    )
    result = invoke(runner, [
        "run", "--pool", str(workdir / "pool.jsonl"),
        "--graphs", str(workdir / "graphs.jsonl"), "--backend", "http",
    ])
    assert result.exit_code == 3
    assert "GOA_LLM_URL" in result.stderr


def test_exit_code_bad_flag_value(runner, workdir):
    result = invoke(runner, [
        "run", "--pool", str(workdir / "pool.jsonl"),
        "--graphs", str(workdir / "dataset.jsonl"), "--rounds", "0",
    ])
    assert result.exit_code == 1


def test_exit_code_unknown_subcommand(runner):
    result = invoke(runner, ["frobnicate"])
    assert result.exit_code == 1


def test_exit_code_attack_flags_must_pair(runner, workdir):
    gt.write_records(
        str(workdir / "graphs.jsonl"),
        [gt.trajectory_to_record(
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
        [gt.trajectory_to_record(
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


def test_sweep_quick(runner, tmp_path):
    result = invoke(runner, [
        "sweep", "--sizes", "1,2,3", "--repeats", "3",
        "--dim", "8", "--pool-size", "4",
        "--out", str(tmp_path / "sweep.jsonl"),
    ])
    assert result.exit_code == 0, result.output
    assert "quadratic fit" in result.output
    records = gt.read_records(str(tmp_path / "sweep.jsonl"))
    assert records[0]["kind"] == "timing_sweep"
    assert records[0]["sizes"] == [1, 2, 3]


def test_sweep_needs_three_sizes(runner):
    result = invoke(runner, ["sweep", "--sizes", "2,4", "--repeats", "3"])
    assert result.exit_code == 2


TINY_TRAIN = ["--epochs", "1", "--warmup", "0", "--batch", "1",
              "--dim", "16", "--hidden", "8", "--max-steps", "4", "--quiet"]


def train_tiny(runner, workdir, *extra):
    gt.write_records(
        str(workdir / "chain.jsonl"),
        [gt.trajectory_to_record(gt.Trajectory(
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


@pytest.mark.parametrize("damage, needle", [
    (set_format, "retrain"),
    (drop_param, "edge_gru.wz"),
    (misshape_param, "end_embed"),
])
def test_generate_rejects_mismatched_checkpoint(runner, workdir, damage, needle):
    assert train_tiny(runner, workdir).exit_code == 0
    path = workdir / "model.npz"
    with np.load(path) as data:
        arrays = dict(data)
    damage(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    result = invoke(runner, [
        "generate", "--pool", str(workdir / "pool.jsonl"),
        "--checkpoint", str(path), "--query", "q",
        "--out", str(workdir / "graphs.jsonl"),
    ])
    assert result.exit_code == 2
    assert needle in result.stderr
    assert not (workdir / "graphs.jsonl").exists()
