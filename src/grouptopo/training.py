"""Training pipeline: topology exploration, label curation, optimization.

Supervision is built by running a few structured topology families per query
against a backend, keeping the cheapest successful graph per query, and then
teacher-forcing the generator on those trajectories. The bottleneck KL terms
ramp in linearly over the first warm-up epochs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import model as model_mod
from . import nn
from .embedding import EmbeddingProvider, build_candidate_matrix
from .errors import ValidationError
from .graph import (
    GroupGraph,
    GroupPool,
    Trajectory,
    check_fields,
    check_header,
    group_graph_from_record,
    group_graph_to_record,
    make_record,
    record_field,
    validate_group_graph,
)
from .harness import AgentBackend, EvalExample, evaluate
from .model import ModelConfig
from .nn import OptimizerState, Params, make_rng

TOPOLOGY_FAMILIES = ("chain", "star", "full")


def kl_warmup(epoch: int, warmup_epochs: int, target: float) -> float:
    """Linear KL weight ramp: 0 at epoch 0, ``target`` from ``warmup_epochs`` on."""
    if epoch < 0:
        raise ValidationError(f"epoch must be non-negative, got {epoch}")
    if warmup_epochs <= 0:
        return float(target)
    return float(target) * min(1.0, epoch / warmup_epochs)


@dataclass
class TrainConfig:
    """Epoch loop and AdamW settings. ``weight_decay`` and ``clip_norm`` must
    be non-negative; 0 turns off weight decay or gradient clipping."""

    epochs: int = 100
    warmup_epochs: int = 10
    batch_size: int = 40
    lr: float = 1e-4
    weight_decay: float = 1e-3
    clip_norm: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        ints = {"epochs": 1, "warmup_epochs": 0, "batch_size": 1, "seed": 0}
        check_fields(self, ints=ints, numbers=("lr", "weight_decay", "clip_norm"))
        if self.lr == 0.0:
            raise ValidationError(f"'lr' must be a finite number > 0, got {self.lr!r}")


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    loss: float
    group_nll: float
    edge_bce: float
    kl_group: float
    kl_edge: float
    beta_group: float
    beta_edge: float
    grad_norm: float


@dataclass
class TrainResult:
    params: Params
    opt_state: OptimizerState
    history: list[EpochLog] = field(default_factory=list)


def train(
    pool: GroupPool,
    provider: EmbeddingProvider,
    dataset: Sequence[Trajectory],
    model_config: ModelConfig,
    train_config: TrainConfig,
    *,
    params: Params | None = None,
    opt_state: OptimizerState | None = None,
    callback: Callable[[EpochLog], None] | None = None,
) -> TrainResult:
    """Teacher-force the generator on labeled trajectories.

    Each minibatch is scored in one row-batched pass of
    :func:`~grouptopo.model.minibatch_loss_and_grads`, and AdamW steps on the
    mean of its gradient. Fully deterministic for a fixed seed: shuffling and
    latent noise come from one counter-based stream, drawn trajectory by
    trajectory in minibatch order, so two runs with identical inputs produce
    bit-identical loss histories.

    Caller-supplied ``params`` and ``opt_state`` moments (``v`` >= 0) must pass
    :func:`~grouptopo.model.check_params`, or ValidationError is raised before
    any work; the result holds float64 copies of other real dtypes.
    """
    if not dataset:
        raise ValidationError("training dataset is empty")
    if model_config.pool_size != pool.size:
        raise ValidationError(
            f"model expects pool of {model_config.pool_size}, got {pool.size}"
        )
    for traj in dataset:
        validate_group_graph(traj.graph, pool.size, model_config.max_steps)

    params = (model_mod.init_params(model_config) if params is None
              else model_mod.check_params(params, model_config))
    if opt_state is None:
        opt_state = OptimizerState.for_params(params)
    else:
        try:
            opt_state.m, opt_state.v = (model_mod.check_params(moments, model_config)
                                        for moments in (opt_state.m, opt_state.v))
            if any((v < 0.0).any() for v in opt_state.v.values()):
                raise ValidationError("second moments 'v' hold negative values")
        except ValidationError as exc:
            raise ValidationError(f"optimizer moments: {exc}") from exc

    candidates = build_candidate_matrix(provider, pool)
    task_vecs = provider.encode([traj.query for traj in dataset])

    rng = make_rng(train_config.seed)
    n = len(dataset)
    history: list[EpochLog] = []

    for epoch in range(train_config.epochs):
        beta_g = kl_warmup(epoch, train_config.warmup_epochs, model_config.beta_group)
        beta_e = kl_warmup(epoch, train_config.warmup_epochs, model_config.beta_edge)
        epoch_config = dataclasses.replace(model_config, beta_group=beta_g, beta_edge=beta_e)
        order = rng.permutation(n)
        sums = {"loss": 0.0, "nll": 0.0, "bce": 0.0, "klg": 0.0, "kle": 0.0}
        last_norm = 0.0
        for start in range(0, n, train_config.batch_size):
            batch = order[start : start + train_config.batch_size]
            graphs = [dataset[int(idx)].graph for idx in batch]
            breakdowns, grads = model_mod.minibatch_loss_and_grads(
                params,
                epoch_config,
                candidates,
                task_vecs[batch],
                graphs,
                [model_mod.trajectory_noise(rng, graph, model_config) for graph in graphs],
            )
            for breakdown in breakdowns:
                sums["loss"] += breakdown.total
                sums["nll"] += breakdown.group_nll
                sums["bce"] += breakdown.edge_bce
                sums["klg"] += breakdown.kl_group
                sums["kle"] += breakdown.kl_edge
            scale = 1.0 / len(batch)
            for name in grads:
                grads[name] *= scale
            last_norm = nn.adamw_step(
                params,
                grads,
                opt_state,
                lr=train_config.lr,
                weight_decay=train_config.weight_decay,
                clip_norm=train_config.clip_norm,
            )
            # Free this gradient before the next minibatch builds its own, so
            # that two full gradient dicts never coexist.
            del grads
        log = EpochLog(
            epoch=epoch,
            loss=sums["loss"] / n,
            group_nll=sums["nll"] / n,
            edge_bce=sums["bce"] / n,
            kl_group=sums["klg"] / n,
            kl_edge=sums["kle"] / n,
            beta_group=beta_g,
            beta_edge=beta_e,
            grad_norm=last_norm,
        )
        history.append(log)
        if callback is not None:
            callback(log)

    return TrainResult(params=params, opt_state=opt_state, history=history)


# ---------------------------------------------------------------------------
# Exploration over structured topology families.


@dataclass
class ExplorationConfig:
    families: tuple[str, ...] = TOPOLOGY_FAMILIES
    n_steps: int = 3
    samples_per_family: int = 1
    rounds: int = 1
    mode: str = "composite"
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.families:
            raise ValidationError("families must not be empty")
        for fam in self.families:
            if fam not in TOPOLOGY_FAMILIES:
                raise ValidationError(f"unknown topology family '{fam}'")
        ints = {"n_steps": 1, "samples_per_family": 1, "rounds": 1, "seed": 0}
        check_fields(self, ints=ints)


def family_edges(family: str, n_steps: int) -> tuple[tuple[int, int], ...]:
    """Edge template for one structured family over ``n_steps`` steps."""
    if family == "chain":
        return tuple((i, i + 1) for i in range(n_steps - 1))
    if family == "star":
        return tuple((0, t) for t in range(1, n_steps))
    if family == "full":
        return tuple((i, t) for i in range(n_steps) for t in range(i + 1, n_steps))
    raise ValidationError(f"unknown topology family '{family}'")


def sample_candidate_topology(
    rng: np.random.Generator, pool_size: int, family: str, n_steps: int
) -> GroupGraph:
    """Uniformly choose groups (with repeats) into a family edge template."""
    if pool_size < 1:
        raise ValidationError("pool_size must be >= 1")
    selected = rng.integers(0, pool_size, size=n_steps)
    return GroupGraph(selected=selected, edges=family_edges(family, n_steps))


@dataclass(frozen=True)
class ExplorationResult:
    """One explored graph's outcome on one query. ``query``, ``answer``,
    ``family`` and ``final_text`` must be strings, ``graph`` a GroupGraph,
    ``correct`` a bool and each token count a non-negative integer, NumPy's
    included."""

    query: str
    answer: str
    graph: GroupGraph
    family: str
    correct: bool
    final_text: str
    prompt_tokens: int
    completion_tokens: int

    def __post_init__(self) -> None:
        check_fields(self, ints={"prompt_tokens": 0, "completion_tokens": 0},
                     bools=("correct",), strs=("query", "answer", "family", "final_text"))
        if not isinstance(self.graph, GroupGraph):
            raise ValidationError(f"'graph' must be a GroupGraph, got {self.graph!r}")


def exploration_result_to_record(result: ExplorationResult) -> dict:
    return make_record(
        "exploration",
        query=result.query,
        answer=result.answer,
        graph=group_graph_to_record(result.graph),
        family=result.family,
        correct=result.correct,
        final_text=result.final_text,
        prompt_tokens=result.prompt_tokens,
        completion_tokens=result.completion_tokens,
    )


def exploration_result_from_record(record: dict) -> ExplorationResult:
    check_header(record, "exploration")
    return ExplorationResult(
        query=record_field(record, "query", str),
        answer=record_field(record, "answer", str, ""),
        graph=group_graph_from_record(record_field(record, "graph", dict)),
        family=record_field(record, "family", str, ""),
        correct=record_field(record, "correct", bool),
        final_text=record_field(record, "final_text", str, ""),
        prompt_tokens=record_field(record, "prompt_tokens", int, 0),
        completion_tokens=record_field(record, "completion_tokens", int, 0),
    )


def explore_and_label(
    pool: GroupPool,
    dataset: Sequence[EvalExample],
    backend: AgentBackend,
    config: ExplorationConfig,
) -> list[ExplorationResult]:
    """Run every (query, family, sample) combination and mark correctness.

    Sampling happens up front from one seeded stream, so results are
    reproducible and independent of which call finishes first; the graphs
    then run on one schedule through :func:`~grouptopo.harness.evaluate`,
    dataset-major, family-minor.
    """
    rng = make_rng(config.seed)
    tasks: list[tuple[EvalExample, str, GroupGraph]] = []
    for example in dataset:
        for family in config.families:
            for _ in range(config.samples_per_family):
                graph = sample_candidate_topology(
                    rng, pool.size, family, config.n_steps
                )
                tasks.append((example, family, graph))

    if not tasks:
        return []
    report = evaluate(
        [example for example, _, _ in tasks],
        [graph for _, _, graph in tasks],
        pool,
        backend,
        mode=config.mode,
        rounds=config.rounds,
    )
    return [
        ExplorationResult(
            query=item.query,
            answer=item.expected,
            graph=graph,
            family=family,
            correct=item.correct,
            final_text=item.got,
            prompt_tokens=item.prompt_tokens,
            completion_tokens=item.completion_tokens,
        )
        for item, (_, family, graph) in zip(report.items, tasks)
    ]


def curate_minimal(
    results: Sequence[ExplorationResult],
) -> tuple[list[Trajectory], list[str]]:
    """Keep the cheapest correct graph per query.

    Cheapest means fewest steps, then fewest edges, then lexicographically
    smallest (selection tuple, edge list), which makes curation a pure
    function of the result set. Queries with no correct graph are excluded
    and reported back.
    """
    by_query: dict[str, list[ExplorationResult]] = {}
    for result in results:
        by_query.setdefault(result.query, []).append(result)

    trajectories: list[Trajectory] = []
    excluded: list[str] = []
    for query, query_results in by_query.items():
        correct = [r for r in query_results if r.correct]
        if not correct:
            excluded.append(query)
            continue
        best = min(
            correct,
            key=lambda r: (
                r.graph.n_steps,
                len(r.graph.edges),
                r.graph.selected,
                r.graph.edges,
            ),
        )
        trajectories.append(Trajectory(query=query, graph=best.graph))
    return trajectories, excluded
