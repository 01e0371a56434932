"""Command-line interface.

Pipeline: ``discover`` runs topology families against a backend, ``curate``
keeps the cheapest correct graph per query, ``train`` fits the generator on
those trajectories, ``generate`` samples graphs for new queries, ``run`` and
``attack`` execute them, ``diagram`` prints a graph as text.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 backend error.
"""

from __future__ import annotations

import functools
import sys

import click

from .embedding import (
    EmbeddingProvider,
    HashingTextEmbedder,
    HttpEncoderClient,
    build_candidate_matrix,
)
from .errors import BackendError, ValidationError
from .graph import (
    RECORD_VERSION,
    GroupPool,
    Trajectory,
    group_graph_from_record,
    read_records,
    render_diagram,
    trajectory_from_record,
    trajectory_to_record,
    write_records,
)
from .harness import (
    AnswerKeyBackend,
    AttackSpec,
    EvalExample,
    HttpAgentBackend,
    evaluate,
    example_from_record,
)
from .model import ModelConfig, check_params, generate_graph
from .nn import load_checkpoint, save_checkpoint
from .pools import default_pool, load_pool
from .training import (
    ExplorationConfig,
    TrainConfig,
    curate_minimal,
    explore_and_label,
    exploration_result_from_record,
    exploration_result_to_record,
    train,
)

# Exit-code contract: usage errors are 1 (click defaults to 2).
click.UsageError.exit_code = 1


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValidationError as exc:
            click.echo(f"validation error: {exc}", err=True)
            sys.exit(2)
        except BackendError as exc:
            click.echo(f"backend error: {exc}", err=True)
            sys.exit(3)

    return wrapper


def _load_pool(path: str | None) -> GroupPool:
    return load_pool(path) if path else default_pool()


def _load_examples(path: str) -> list[EvalExample]:
    records = read_records(path)
    examples = [example_from_record(r) for r in records if r.get("kind") == "example"]
    if not examples:
        raise ValidationError(f"no example records in {path}")
    return examples


def _load_trajectories(path: str) -> list[Trajectory]:
    records = read_records(path)
    out = []
    for record in records:
        kind = record.get("kind")
        if kind == "trajectory":
            out.append(trajectory_from_record(record))
        elif kind == "group_graph":
            out.append(Trajectory(query="", graph=group_graph_from_record(record)))
    if not out:
        raise ValidationError(f"no trajectory or group_graph records in {path}")
    return out


def _make_provider(kind: str, dim: int) -> EmbeddingProvider:
    if kind == "hash":
        return HashingTextEmbedder(dim)
    if kind == "http":
        return HttpEncoderClient(dim)
    raise ValidationError(f"unknown encoder '{kind}'")


def _make_backend(kind: str, examples: list[EvalExample] | None):
    if kind == "http":
        return HttpAgentBackend()
    if kind == "scripted":
        answers = {e.query: e.answer for e in examples} if examples else {}
        return AnswerKeyBackend(answers)
    raise ValidationError(f"unknown backend '{kind}'")


def _parse_attack(target: str | None, text: str | None) -> AttackSpec | None:
    if target is None and text is None:
        return None
    if target is None or text is None:
        raise ValidationError("--attack-target and --attack-text go together")
    resolved: int | str
    try:
        resolved = int(target)
    except ValueError:
        resolved = target
    return AttackSpec(target=resolved, text=text)


pool_option = click.option(
    "--pool", "pool_path", type=str, default=None, help="Pool records (bundled if omitted)."
)
backend_option = click.option(
    "--backend", type=click.Choice(["scripted", "http"]), default="scripted",
    show_default=True,
)
mode_option = click.option(
    "--mode", type=click.Choice(["composite", "expanded"]), default="composite",
    show_default=True,
)
rounds_option = click.option(
    "--rounds", type=click.IntRange(min=1), default=1, show_default=True
)
seed_option = click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)


@click.group()
@click.version_option(version="0.1.0", prog_name="grouptopo")
def main() -> None:
    """Group-level topology generation and execution for agent pipelines."""


@main.command()
@pool_option
@click.option("--dataset", required=True, type=str, help="Example records.")
@click.option("--out", required=True, type=str, help="Exploration records out.")
@backend_option
@mode_option
@rounds_option
@seed_option
@click.option("--families", default="chain,star,full", show_default=True)
@click.option("--steps", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--samples", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True,
              help="Most agent calls in flight.")
@_guarded
def discover(pool_path, dataset, out, backend, mode, rounds, seed, families,
             steps, samples, workers) -> None:
    """Probe topology families against the backend and label the outcomes."""
    pool = _load_pool(pool_path)
    examples = _load_examples(dataset)
    backend_obj = _make_backend(backend, examples)
    config = ExplorationConfig(
        families=tuple(f.strip() for f in families.split(",") if f.strip()),
        n_steps=steps,
        samples_per_family=samples,
        rounds=rounds,
        mode=mode,
        seed=seed,
    )
    results = explore_and_label(
        pool, examples, backend_obj, config, max_workers=workers
    )
    records = [exploration_result_to_record(r) for r in results]
    records.append(
        {
            "v": RECORD_VERSION,
            "kind": "discover_summary",
            "seed": seed,
            "n_results": len(results),
            "n_correct": sum(1 for r in results if r.correct),
        }
    )
    write_records(out, records)
    click.echo(
        f"explored {len(results)} runs, "
        f"{sum(1 for r in results if r.correct)} correct -> {out}"
    )


@main.command()
@click.option("--results", "results_path", required=True, type=str,
              help="Exploration records from discover.")
@click.option("--out", required=True, type=str, help="Trajectory records out.")
@_guarded
def curate(results_path, out) -> None:
    """Keep the cheapest correct graph per query."""
    records = read_records(results_path)
    results = [
        exploration_result_from_record(r)
        for r in records
        if r.get("kind") == "exploration"
    ]
    if not results:
        raise ValidationError(f"no exploration records in {results_path}")
    trajectories, excluded = curate_minimal(results)
    write_records(out, [trajectory_to_record(t) for t in trajectories])
    click.echo(f"curated {len(trajectories)} trajectories -> {out}")
    for query in excluded:
        click.echo(f"excluded (no correct graph): {query}", err=True)


@main.command(name="train")
@pool_option
@click.option("--dataset", required=True, type=str, help="Trajectory records.")
@click.option("--out", "out_path", required=True, type=str, help="Checkpoint out.")
@click.option("--epochs", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--warmup", type=click.IntRange(min=0), default=10, show_default=True)
@click.option("--batch", type=click.IntRange(min=1), default=40, show_default=True)
@click.option("--lr", type=float, default=1e-4, show_default=True)
@click.option("--beta-g", type=float, default=0.0, show_default=True)
@click.option("--beta-e", type=float, default=0.3, show_default=True)
@click.option("--dim", type=click.IntRange(min=1), default=384, show_default=True)
@click.option("--hidden", type=click.IntRange(min=1), default=256, show_default=True)
@click.option("--max-steps", type=click.IntRange(min=1), default=8, show_default=True)
@click.option("--encoder", type=click.Choice(["hash", "http"]), default="hash",
              show_default=True)
@seed_option
@click.option("--quiet", is_flag=True, default=False)
@_guarded
def train_cmd(pool_path, dataset, out_path, epochs, warmup, batch, lr, beta_g,
              beta_e, dim, hidden, max_steps, encoder, seed, quiet) -> None:
    """Teacher-force the generator on curated trajectories."""
    pool = _load_pool(pool_path)
    trajectories = _load_trajectories(dataset)
    provider = _make_provider(encoder, dim)
    model_config = ModelConfig(
        pool_size=pool.size,
        dim=dim,
        hidden=hidden,
        max_steps=max_steps,
        beta_group=beta_g,
        beta_edge=beta_e,
        seed=seed,
    )
    train_config = TrainConfig(
        epochs=epochs, warmup_epochs=warmup, batch_size=batch, lr=lr, seed=seed
    )
    callback = None
    if not quiet:
        def callback(log):
            click.echo(
                f"epoch {log.epoch:4d}  loss {log.loss:.6f}  "
                f"nll {log.group_nll:.6f}  bce {log.edge_bce:.6f}  "
                f"klg {log.kl_group:.4f}  kle {log.kl_edge:.4f}"
            )
    result = train(
        pool, provider, trajectories, model_config, train_config, callback=callback
    )
    config = {
        "model": model_config.to_dict(),
        "encoder": {"kind": encoder, "dim": dim},
        "train_seed": seed,
    }
    save_checkpoint(out_path, result.params, config, result.opt_state)
    click.echo(f"saved checkpoint -> {out_path}")


@main.command()
@pool_option
@click.option("--checkpoint", required=True, type=str)
@click.option("--query", "queries", multiple=True, help="Query (repeatable).")
@click.option("--dataset", type=str, default=None, help="Example records to batch over.")
@click.option("--out", required=True, type=str, help="Trajectory records out.")
@click.option("--forced-steps", type=click.IntRange(min=1), default=None)
@seed_option
@_guarded
def generate(pool_path, checkpoint, queries, dataset, out, forced_steps, seed) -> None:
    """Generate a group graph per query from a trained checkpoint."""
    pool = _load_pool(pool_path)
    params, _, config = load_checkpoint(checkpoint)
    model_config = ModelConfig.from_dict(config.get("model", {}))
    if model_config.pool_size != pool.size:
        raise ValidationError(
            f"checkpoint was trained against a pool of {model_config.pool_size} "
            f"groups, this pool has {pool.size}"
        )
    check_params(params, model_config)
    encoder = config.get("encoder", {})
    dim = model_config.dim
    if not isinstance(encoder, dict) or encoder.get("dim", dim) != dim:
        raise ValidationError(f"checkpoint encoder {encoder!r} does not match dim {dim}")
    provider = _make_provider(str(encoder.get("kind", "hash")), dim)
    query_list = list(queries)
    if dataset:
        query_list.extend(e.query for e in _load_examples(dataset))
    if not query_list:
        raise ValidationError("no queries given; use --query or --dataset")
    candidates = build_candidate_matrix(provider, pool)
    records = []
    for i, query in enumerate(query_list):
        task_vec = provider.encode([query])[0]
        graph = generate_graph(
            params, model_config, candidates, task_vec, seed + i,
            forced_steps=forced_steps,
        )
        record = trajectory_to_record(Trajectory(query=query, graph=graph))
        record["seed"] = seed + i
        records.append(record)
        click.echo(f"query: {query}")
        click.echo(render_diagram(graph, pool))
    write_records(out, records)
    click.echo(f"wrote {len(records)} graphs -> {out}")


def _run_eval(pool, trajectories, examples, backend_obj, mode, rounds, attack):
    answers = {e.query: e for e in examples} if examples else {}
    dataset = []
    graphs = []
    for traj in trajectories:
        example = answers.get(traj.query)
        if example is None:
            example = EvalExample(query=traj.query, answer="", match="contains")
        dataset.append(example)
        graphs.append(traj.graph)
    return evaluate(
        dataset, graphs, pool, backend_obj, mode=mode, rounds=rounds, attack=attack
    )


@main.command(name="run")
@pool_option
@click.option("--graphs", "graphs_path", required=True, type=str,
              help="Trajectory records to execute.")
@click.option("--dataset", type=str, default=None,
              help="Example records supplying answers (and the scripted key).")
@click.option("--out", type=str, default=None, help="Run report records out.")
@backend_option
@mode_option
@rounds_option
@seed_option
@click.option("--attack-target", type=str, default=None)
@click.option("--attack-text", type=str, default=None)
@_guarded
def run_cmd(pool_path, graphs_path, dataset, out, backend, mode, rounds, seed,
            attack_target, attack_text) -> None:
    """Execute stored graphs against a backend and score the answers."""
    pool = _load_pool(pool_path)
    trajectories = _load_trajectories(graphs_path)
    examples = _load_examples(dataset) if dataset else None
    backend_obj = _make_backend(backend, examples)
    attack = _parse_attack(attack_target, attack_text)
    report = _run_eval(pool, trajectories, examples, backend_obj, mode, rounds, attack)
    click.echo(
        f"accuracy {report.accuracy:.3f} on {len(report.items)} items, "
        f"{report.stats.prompt_tokens} prompt + "
        f"{report.stats.completion_tokens} completion tokens, "
        f"{report.stats.calls} calls"
    )
    if out:
        records = [
            {
                "v": RECORD_VERSION,
                "kind": "run_item",
                "query": item.query,
                "expected": item.expected,
                "got": item.got,
                "correct": item.correct,
                "prompt_tokens": item.prompt_tokens,
                "completion_tokens": item.completion_tokens,
                "calls": item.calls,
            }
            for item in report.items
        ]
        records.append(
            {
                "v": RECORD_VERSION,
                "kind": "run_summary",
                "seed": seed,
                "mode": mode,
                "rounds": rounds,
                "accuracy": report.accuracy,
                "prompt_tokens": report.stats.prompt_tokens,
                "completion_tokens": report.stats.completion_tokens,
                "calls": report.stats.calls,
                "attacked": attack is not None,
            }
        )
        write_records(out, records)
        click.echo(f"wrote report -> {out}")


@main.command()
@pool_option
@click.option("--graphs", "graphs_path", required=True, type=str)
@click.option("--dataset", required=True, type=str)
@click.option("--out", type=str, default=None)
@backend_option
@mode_option
@rounds_option
@click.option("--attack-target", required=True, type=str)
@click.option("--attack-text", required=True, type=str)
@_guarded
def attack(pool_path, graphs_path, dataset, out, backend, mode, rounds,
           attack_target, attack_text) -> None:
    """Compare clean accuracy against accuracy under prompt injection."""
    pool = _load_pool(pool_path)
    trajectories = _load_trajectories(graphs_path)
    examples = _load_examples(dataset)
    backend_obj = _make_backend(backend, examples)
    injection = _parse_attack(attack_target, attack_text)
    clean = _run_eval(pool, trajectories, examples, backend_obj, mode, rounds, None)
    attacked = _run_eval(
        pool, trajectories, examples, backend_obj, mode, rounds, injection
    )
    click.echo(
        f"clean accuracy {clean.accuracy:.3f}, "
        f"attacked accuracy {attacked.accuracy:.3f}"
    )
    if out:
        write_records(
            out,
            [
                {
                    "v": RECORD_VERSION,
                    "kind": "attack_report",
                    "clean_accuracy": clean.accuracy,
                    "attacked_accuracy": attacked.accuracy,
                    "degradation": clean.accuracy - attacked.accuracy,
                    "target": attack_target,
                }
            ],
        )
        click.echo(f"wrote report -> {out}")


@main.command()
@pool_option
@click.option("--graphs", "graphs_path", required=True, type=str)
@_guarded
def diagram(pool_path, graphs_path) -> None:
    """Print stored graphs as static node/edge text."""
    pool = _load_pool(pool_path)
    for traj in _load_trajectories(graphs_path):
        if traj.query:
            click.echo(f"# {traj.query}")
        click.echo(render_diagram(traj.graph, pool))
        click.echo("")


if __name__ == "__main__":
    main()
