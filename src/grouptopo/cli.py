"""Command-line interface.

Pipeline: ``discover`` runs topology families against a backend, ``curate``
keeps the cheapest correct graph per query, ``train`` fits the generator on
those trajectories, ``generate`` samples graphs for new queries, ``run`` and
``attack`` execute them, ``diagram`` prints a graph as text.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 backend error.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, fields
from typing import Callable

import click

from . import __version__
from .embedding import (
    EmbeddingProvider,
    HashingTextEmbedder,
    HttpEncoderClient,
    build_candidate_matrix,
)
from .errors import BackendError, ValidationError
from .graph import (
    GroupGraph,
    GroupPool,
    Trajectory,
    check_writable,
    decode_records,
    from_record,
    make_record,
    record_field,
    render_diagram,
    to_record,
    write_records,
)
from .harness import (
    AnswerKeyBackend,
    AttackSpec,
    EvalExample,
    HttpAgentBackend,
    evaluate,
)
from .model import ModelConfig, check_params, generate_graphs
from .nn import load_checkpoint, save_checkpoint
from .pools import default_pool, load_pool
from .training import (
    ExplorationConfig,
    ExplorationResult,
    TrainConfig,
    curate_minimal,
    explore_and_label,
    train,
)

# Exit-code contract: usage errors are 1 (click defaults to 2).
click.UsageError.exit_code = 1

# Queries per encoder request and generate_graphs call: the edge pass holds
# about 0.6 MiB per query at dim 384 and 8 steps, so a large --dataset runs in
# bounded memory and never sends the encoder one unbounded request.
GENERATE_BATCH = 64


# The defaults the options show are the config classes' own.
MODEL, TRAIN, EXPLORE = ({f.name: f.default for f in fields(config)}
                         for config in (ModelConfig, TrainConfig, ExplorationConfig))


def _load_pool(path: str | None) -> GroupPool:
    return load_pool(path) if path else default_pool()


EXAMPLES = {"example": lambda r: from_record(r, EvalExample)}
GRAPHS = {
    "trajectory": lambda r: from_record(r, Trajectory),
    "group_graph": lambda r: Trajectory(query="", graph=from_record(r, GroupGraph)),
}
EXPLORATIONS = {"exploration": lambda r: from_record(r, ExplorationResult)}


def _load(path: str, decoders: dict[str, Callable[[dict], object]]) -> list:
    """Decode the records in ``path`` whose kind has a decoder, in file order;
    other kinds are skipped. Raises ValidationError if none has one."""
    out = decode_records(
        path, lambda r: decoders[r["kind"]](r) if r["kind"] in decoders else None
    )
    if not out:
        raise ValidationError(f"no {' or '.join(decoders)} records in {path}")
    return out


def _make_provider(kind: str, dim: int) -> EmbeddingProvider:
    if kind == "hash":
        return HashingTextEmbedder(dim)
    if kind == "http":
        return HttpEncoderClient(dim)
    raise ValidationError(f"unknown encoder '{kind}'")


def _make_backend(kind: str, examples: list[EvalExample], attack: AttackSpec | None = None):
    """The agent backend. A scripted backend takes the attack text as its
    compromise marker, which fires only on the line the attack prepends, so
    one backend serves a clean and an attacked pass alike."""
    if kind == "http":
        return HttpAgentBackend()
    answers = {e.query: e.answer for e in examples}
    return AnswerKeyBackend(answers, attack.text if attack else None)


def _parse_attack(target: str | None, text: str | None) -> AttackSpec | None:
    if target is None and text is None:
        return None
    if target is None or text is None:
        raise ValidationError("--attack-target and --attack-text go together")
    try:
        return AttackSpec(target=int(target), text=text)
    except ValueError:  # not an integer: a node name
        return AttackSpec(target=target, text=text)


pool_option = click.option(
    "--pool", "pool_path", type=str, default=None, help="Pool records (bundled if omitted)."
)
backend_option = click.option(
    "--backend", type=click.Choice(["scripted", "http"]), default="scripted")
mode_option = click.option(
    "--mode", type=click.Choice(["composite", "expanded"]), default="composite")
rounds_option = click.option("--rounds", type=click.IntRange(min=1), default=1)
seed_option = click.option("--seed", type=click.IntRange(min=0), default=0)


class _Commands(click.Group):
    """The command group. Every command runs inside its ``invoke``, the one
    place that maps a ValidationError to exit 2 and a BackendError to exit 3."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ValidationError as exc:
            click.echo(f"validation error: {exc}", err=True)
            sys.exit(2)
        except BackendError as exc:
            click.echo(f"backend error: {exc}", err=True)
            sys.exit(3)


@click.group(cls=_Commands, context_settings={"show_default": True})
@click.version_option(version=__version__, prog_name="grouptopo")
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
@click.option("--families", default=",".join(EXPLORE["families"]))
@click.option("--steps", type=click.IntRange(min=1), default=EXPLORE["n_steps"])
@click.option("--samples", type=click.IntRange(min=1), default=EXPLORE["samples_per_family"])
def discover(pool_path, dataset, out, backend, mode, rounds, seed, families,
             steps, samples) -> None:
    """Probe topology families against the backend and label the outcomes."""
    check_writable(out)
    pool = _load_pool(pool_path)
    examples = _load(dataset, EXAMPLES)
    backend_obj = _make_backend(backend, examples)
    config = ExplorationConfig(
        families=tuple(f.strip() for f in families.split(",") if f.strip()),
        n_steps=steps,
        samples_per_family=samples,
        rounds=rounds,
        mode=mode,
        seed=seed,
    )
    results = explore_and_label(pool, examples, backend_obj, config)
    n_correct = sum(1 for r in results if r.correct)
    records = [to_record(r) for r in results]
    records.append(
        make_record(
            "discover_summary",
            seed=seed,
            n_results=len(results),
            n_correct=n_correct,
        )
    )
    write_records(out, records)
    click.echo(f"explored {len(results)} runs, {n_correct} correct -> {out}")


@main.command()
@click.option("--results", "results_path", required=True, type=str,
              help="Exploration records from discover.")
@click.option("--out", required=True, type=str, help="Trajectory records out.")
def curate(results_path, out) -> None:
    """Keep the cheapest correct graph per query."""
    check_writable(out)
    results = _load(results_path, EXPLORATIONS)
    trajectories, excluded = curate_minimal(results)
    write_records(out, [to_record(t) for t in trajectories])
    click.echo(f"curated {len(trajectories)} trajectories -> {out}")
    for query in excluded:
        click.echo(f"excluded (no correct graph): {query}", err=True)


@main.command(name="train")
@pool_option
@click.option("--dataset", required=True, type=str, help="Trajectory records.")
@click.option("--out", "out_path", required=True, type=str, help="Checkpoint out.")
@click.option("--epochs", type=click.IntRange(min=1), default=TRAIN["epochs"])
@click.option("--warmup", type=click.IntRange(min=0), default=TRAIN["warmup_epochs"])
@click.option("--batch", type=click.IntRange(min=1), default=TRAIN["batch_size"])
@click.option("--lr", type=float, default=TRAIN["lr"])
@click.option("--beta-g", type=float, default=MODEL["beta_group"])
@click.option("--beta-e", type=float, default=MODEL["beta_edge"])
@click.option("--dim", type=click.IntRange(min=1), default=MODEL["dim"])
@click.option("--hidden", type=click.IntRange(min=1), default=MODEL["hidden"])
@click.option("--max-steps", type=click.IntRange(min=1), default=MODEL["max_steps"])
@click.option("--encoder", type=click.Choice(["hash", "http"]), default="hash")
@seed_option
@click.option("--quiet", is_flag=True, default=False)
def train_cmd(pool_path, dataset, out_path, epochs, warmup, batch, lr, beta_g,
              beta_e, dim, hidden, max_steps, encoder, seed, quiet) -> None:
    """Teacher-force the generator on curated trajectories."""
    check_writable(out_path)
    pool = _load_pool(pool_path)
    trajectories = _load(dataset, GRAPHS)
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
    config = {"model": model_config.to_dict(), "encoder": {"kind": encoder}}
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
def generate(pool_path, checkpoint, queries, dataset, out, forced_steps, seed) -> None:
    """Generate a group graph per query from a trained checkpoint."""
    check_writable(out)
    pool = _load_pool(pool_path)
    params, _, config = load_checkpoint(checkpoint)
    model_config = ModelConfig.from_dict(record_field(config, "model", dict))
    if model_config.pool_size != pool.size:
        raise ValidationError(
            f"checkpoint was trained against a pool of {model_config.pool_size} "
            f"groups, this pool has {pool.size}"
        )
    params = check_params(params, model_config)
    encoder = record_field(config, "encoder", dict, {})
    provider = _make_provider(record_field(encoder, "kind", str, "hash"), model_config.dim)
    query_list = list(queries)
    if dataset:
        query_list.extend(e.query for e in _load(dataset, EXAMPLES))
    if not query_list:
        raise ValidationError("no queries given; use --query or --dataset")
    candidates = build_candidate_matrix(provider, pool)
    seeds = [seed + i for i in range(len(query_list))]
    graphs = []
    for start in range(0, len(query_list), GENERATE_BATCH):
        batch = slice(start, start + GENERATE_BATCH)
        graphs += generate_graphs(params, model_config, candidates,
                                  provider.encode(query_list[batch]), seeds[batch],
                                  forced_steps=forced_steps)
    records = []
    for query, query_seed, graph in zip(query_list, seeds, graphs):
        record = to_record(Trajectory(query=query, graph=graph))
        record["seed"] = query_seed
        records.append(record)
        click.echo(f"query: {query}")
        click.echo(render_diagram(graph, pool))
    write_records(out, records)
    click.echo(f"wrote {len(records)} graphs -> {out}")


def _evaluator(pool_path, graphs_path, dataset, out, backend, mode, rounds,
               attack_target, attack_text):
    """``run``'s and ``attack``'s inputs: check ``out``, load the pool, graphs
    and examples, parse the attack and build the backend, in that order.
    Returns the attack, or None, and a function that scores the graphs under
    the attack it is given; a graph whose query has no example is scored
    against an empty answer."""
    if out:
        check_writable(out)
    pool = _load_pool(pool_path)
    trajectories = _load(graphs_path, GRAPHS)
    examples = _load(dataset, EXAMPLES) if dataset else []
    attack = _parse_attack(attack_target, attack_text)
    backend_obj = _make_backend(backend, examples, attack)
    answers = {e.query: e for e in examples}
    scored = [answers.get(t.query, EvalExample(query=t.query, answer="", match="contains"))
              for t in trajectories]
    graphs = [t.graph for t in trajectories]
    return attack, lambda injection: evaluate(
        scored, graphs, pool, backend_obj, mode=mode, rounds=rounds, attack=injection)


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
def run_cmd(pool_path, graphs_path, dataset, out, backend, mode, rounds, seed,
            attack_target, attack_text) -> None:
    """Execute stored graphs against a backend and score the answers."""
    attack, score = _evaluator(pool_path, graphs_path, dataset, out, backend, mode, rounds,
                               attack_target, attack_text)
    report = score(attack)
    click.echo(
        f"accuracy {report.accuracy:.3f} on {len(report.items)} items, "
        f"{report.stats.prompt_tokens} prompt + "
        f"{report.stats.completion_tokens} completion tokens, "
        f"{report.stats.calls} calls"
    )
    if out:
        records = [make_record("run_item", **asdict(item)) for item in report.items]
        records.append(
            make_record(
                "run_summary",
                seed=seed,
                mode=mode,
                rounds=rounds,
                accuracy=report.accuracy,
                attacked=attack is not None,
                **asdict(report.stats),
            )
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
def attack(pool_path, graphs_path, dataset, out, backend, mode, rounds,
           attack_target, attack_text) -> None:
    """Compare clean accuracy against accuracy under prompt injection."""
    injection, score = _evaluator(pool_path, graphs_path, dataset, out, backend, mode,
                                  rounds, attack_target, attack_text)
    clean, attacked = score(None), score(injection)
    click.echo(
        f"clean accuracy {clean.accuracy:.3f}, "
        f"attacked accuracy {attacked.accuracy:.3f}"
    )
    if out:
        write_records(
            out,
            [
                make_record(
                    "attack_report",
                    clean_accuracy=clean.accuracy,
                    attacked_accuracy=attacked.accuracy,
                    degradation=clean.accuracy - attacked.accuracy,
                    target=attack_target,
                )
            ],
        )
        click.echo(f"wrote report -> {out}")


@main.command()
@pool_option
@click.option("--graphs", "graphs_path", required=True, type=str)
def diagram(pool_path, graphs_path) -> None:
    """Print stored graphs as static node/edge text."""
    pool = _load_pool(pool_path)
    for traj in _load(graphs_path, GRAPHS):
        if traj.query:
            click.echo(f"# {traj.query}")
        click.echo(render_diagram(traj.graph, pool))
        click.echo("")


if __name__ == "__main__":
    main()
