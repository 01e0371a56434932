"""The four benchmark workloads.

Each workload drives the package only through its public functions. With
tracing off it measures the end-to-end metrics over a closed loop that runs
for the requested number of seconds. With tracing on it runs a fixed unit of
work, alternately untraced and traced, and reports per-layer metrics from the
traced units, so structural counts repeat exactly for a given seed.

The package is imported afresh for every set-up sample, so NumPy and click
are imported once by the benchmark and ``setup_s`` counts the package's own
import plus its model and candidate-matrix set-up.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import inspect
import io
import itertools
import json
import math
import os
import re
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from latency_backend import LatencyBackend
from tracing import Tracer

PACKAGE = "grouptopo"
SETUP_BURSTS = 17
SETUP_BURST_SIZE = 2
WINDOW_ITEMS = 100
FAMILIES = ("chain", "star", "full")
OPS = {"plus": lambda a, b: a + b, "minus": lambda a, b: a - b, "times": lambda a, b: a * b}

TRAIN_TRAJECTORIES = 40
TRAIN_EPOCHS = 2
# The generate checkpoint does not depend on --seed: at initialization the
# free-running graph length is set by the model seed far more than by the
# query, so per-seed models would make runs of different seeds incomparable.
GENERATE_MODEL_SEED = 0
GENERATE_UNIT = 100
EXECUTE_UNIT = 100
EXECUTE_ROUNDS = 2
PIPELINE_QUERIES = 30
# Ten epochs at lr 1e-2 teach the tiny generator the curated three-step
# graphs; at the CLI's default lr 1e-4 an almost untrained model picks STOP
# first for some seeds, and ``run`` then rejects the empty graph.
PIPELINE_TRAIN_ARGS = ("--dim", "64", "--hidden", "32", "--epochs", "10", "--lr", "1e-2")


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    spans_path: Path


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)
    # Printed by name and unit beside the metrics, but not in the result
    # object: each exists on only some workloads, and every end-to-end metric
    # must be reported on all of them.
    figures: dict[str, tuple[float, str]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Shared helpers.


def import_package(with_cli: bool = False):
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    gt = importlib.import_module(PACKAGE)
    if with_cli:
        importlib.import_module(PACKAGE + ".cli")
    return gt


class SetupClock:
    """Times the program's set-up in bursts spread over the measured run.

    The workload's own set-up runs once, untimed, and yields the state it
    uses. Every timed set-up runs in a forked copy of the process, so its
    memory does not count in ``peak_rss_mb`` and its fresh module objects
    never replace the ones the workload (or the tracer) holds. The machine's
    speed drifts over seconds, so set-ups timed back to back would all land
    in one phase of it: the first burst runs before the first item, and in an
    untraced run the others are due at even intervals up to ``ctx.seconds``;
    ``tick`` runs them between items. A traced run reports no ``setup_s`` and
    times the first burst only.

    Each set-up starts from a collected and frozen heap, as in a fresh
    process, so collection pauses neither scan the benchmark's own objects
    nor land in some samples and not others.
    """

    def __init__(self, ctx: Context, setup):
        self.ctx = ctx
        self.setup = setup
        self.state = setup()
        self.times: list[float] = []
        self.bursts = 0
        self._burst()
        self.start = time.perf_counter()

    def _time_setups(self) -> list[float]:
        times = []
        for _ in range(SETUP_BURST_SIZE):
            gc.collect()
            gc.freeze()
            start = time.perf_counter()
            self.setup()
            times.append(time.perf_counter() - start)
            gc.unfreeze()
        return times

    def _burst(self) -> None:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_fd)
                os.write(write_fd, json.dumps(self._time_setups()).encode())
            except BaseException:
                traceback.print_exc()
                os._exit(1)
            os._exit(0)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        if status != 0:
            raise RuntimeError(f"timed set-up failed with wait status {status}")
        self.times.extend(json.loads(data))
        self.bursts += 1

    def tick(self) -> None:
        due = self.bursts * self.ctx.seconds / (SETUP_BURSTS - 1)
        if not self.ctx.trace and time.perf_counter() - self.start >= due:
            self._burst()

    def median(self) -> float:
        while not self.ctx.trace and self.bursts < SETUP_BURSTS:
            self._burst()
        return statistics.median(self.times)


def make_query(rng: np.random.Generator) -> tuple[str, str]:
    a, b = (int(v) for v in rng.integers(1, 100, size=2))
    op = list(OPS)[int(rng.integers(len(OPS)))]
    return f"what is {a} {op} {b}", str(OPS[op](a, b))


def stratified(rng: np.random.Generator, values):
    """Endless stream cycling through ``values`` in freshly shuffled blocks."""
    values = list(values)
    while True:
        for idx in rng.permutation(len(values)):
            yield values[int(idx)]


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[int(round(q * 100)) - 1])


def stream_metrics(item_seconds: list[float]) -> dict:
    """Rate and latency percentiles of a stream of single items.

    The run is cut into windows of at least ``WINDOW_ITEMS`` consecutive
    items; each metric is the median over windows of its value in each window,
    so a few seconds of a slower or faster machine move it little.
    """
    windows = max(1, len(item_seconds) // WINDOW_ITEMS)
    size = len(item_seconds) // windows
    parts = [item_seconds[i * size : (i + 1) * size] for i in range(windows)]
    return {
        "items_per_s": statistics.median(len(p) / sum(p) for p in parts),
        "item_p50_s": statistics.median(quantile(p, 0.5) for p in parts),
        "item_p90_s": statistics.median(quantile(p, 0.9) for p in parts),
    }


def batch_metrics(batch_seconds: list[float], items_per_batch: int) -> dict:
    """Rate and per-item percentiles when items are only timed in batches."""
    per_item = [s / items_per_batch for s in batch_seconds]
    return {
        "items_per_s": statistics.median(1.0 / t for t in per_item),
        "item_p50_s": quantile(per_item, 0.5),
        "item_p90_s": quantile(per_item, 0.9),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mebibytes(path) -> float:
    return os.path.getsize(path) / float(1 << 20)


def param_count(params) -> int:
    return int(sum(p.size for p in params.values()))


def critical_path_calls(agent_graph, rounds: int) -> int:
    """Longest chain of dependent backend calls in ``run_graph``.

    A worker call in round r waits for its predecessors in round r and for its
    own reply from round r - 1; the summarizer waits for its predecessors'
    last-round replies.
    """
    summarizer = agent_graph.summarizer
    preds: dict[int, list[int]] = {i: [] for i in range(len(agent_graph.nodes))}
    for i, t in agent_graph.edges:
        preds[t].append(i)
    workers = [i for i in preds if i != summarizer]

    def longest(round_no: int, previous: dict[int, int]) -> dict[int, int]:
        depth: dict[int, int] = {}

        def visit(node: int) -> int:
            if node not in depth:
                inputs = [visit(u) for u in preds[node] if u != summarizer]
                if round_no > 1:
                    inputs.append(previous[node])
                depth[node] = 1 + max(inputs, default=0)
            return depth[node]

        for node in workers:
            visit(node)
        return depth

    depth: dict[int, int] = {}
    for round_no in range(1, rounds + 1):
        depth = longest(round_no, depth)
    if summarizer is None:
        return max(depth.values(), default=0)
    return 1 + max((depth[u] for u in preds[summarizer]), default=0)


# ---------------------------------------------------------------------------
# Tracing: which public functions are wrapped, and what is counted there.


def _count_texts(tracer, bound, result) -> None:
    tracer.counts["embedding.texts"] += len(bound.arguments["texts"])


def _count_generated(tracer, bound, graph) -> None:
    n = graph.n_steps
    tracer.counts["model.generated_steps"] += n
    tracer.counts["model.generated_edge_sites"] += n * (n - 1) // 2


def _count_agent_graph(tracer, bound, agent_graph) -> None:
    tracer.counts["graph.agent_nodes"] += len(agent_graph.nodes)
    tracer.counts["graph.agent_edges"] += len(agent_graph.edges)


def _count_run(tracer, bound, transcript) -> None:
    bound.apply_defaults()
    tracer.counts["graph.critical_path_calls"] += critical_path_calls(
        bound.arguments["agent_graph"], bound.arguments["rounds"]
    )
    tracer.counts["harness.prompt_tokens"] += transcript.stats.prompt_tokens
    tracer.counts["harness.completion_tokens"] += transcript.stats.completion_tokens


def _loss_wrapper(tracer: Tracer, gt, fn):
    """Trace ``loss_and_grads`` and time its forward half separately.

    The noise the call would draw from ``rng`` is drawn here instead, with
    ``trajectory_noise`` on the same generator, so the caller's random stream
    and the result stay exactly as untraced. The forward half is the same
    call with ``compute_grads=False`` on that noise; its span belongs to the
    ``trace`` layer because it is work only the traced run does.
    """
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer._quiet():
            return fn(*args, **kwargs)
        bound = signature.bind(*args, **kwargs)
        arguments = bound.arguments
        if arguments.get("compute_grads", True):
            rng = arguments.get("rng")
            if arguments.get("noise") is None and rng is not None:
                if not isinstance(rng, np.random.Generator):
                    rng = gt.make_rng(int(rng))
                arguments["noise"] = gt.model.trajectory_noise(
                    rng, arguments["graph"], arguments["config"]
                )
                arguments["rng"] = None
            with tracer.span("trace.forward_probe"):
                tracer.untraced(
                    fn, *bound.args, **{**bound.kwargs, "compute_grads": False}
                )
        with tracer.span("model.loss_and_grads"):
            result = fn(*bound.args, **bound.kwargs)
        tracer.counts["model.group_sites"] += result[0].n_group_sites
        tracer.counts["model.edge_sites"] += result[0].n_edge_sites
        return result

    return traced


def install_tracing(tracer: Tracer, gt, backend_classes=()) -> None:
    wrap = functools.partial(tracer.wrap_function, PACKAGE)
    tracer.wrap_method(
        gt.embedding.HashingTextEmbedder, "encode", "embedding.encode", hook=_count_texts
    )
    wrap("embedding.build_candidate_matrix", gt.embedding.build_candidate_matrix)
    loss = gt.model.loss_and_grads
    wrap("model.loss_and_grads", loss, wrapper=_loss_wrapper(tracer, gt, loss))
    wrap("model.generate_graph", gt.model.generate_graph, hook=_count_generated)
    wrap("model.init_params", gt.model.init_params)
    for name in ("adamw_step", "accumulate", "gru_step", "save_checkpoint", "load_checkpoint"):
        wrap(f"nn.{name}", getattr(gt.nn, name))
    for name in ("train", "explore_and_label", "curate_minimal"):
        wrap(f"training.{name}", getattr(gt.training, name))
    wrap(
        "graph.materialize_agent_graph",
        gt.graph.materialize_agent_graph,
        hook=_count_agent_graph,
    )
    wrap("graph.read_records", gt.graph.read_records)
    wrap("graph.write_records", gt.graph.write_records)
    wrap("harness.run_graph", gt.harness.run_graph, hook=_count_run)
    wrap("harness.count_tokens", gt.harness.count_tokens)
    for cls in backend_classes:
        tracer.wrap_method(cls, "complete", "backend.complete")


# Per-layer metrics a workload measures itself; 0 where it does not apply.
WORKLOAD_METRICS = (
    "training.epoch_s",
    "training.final_loss",
    "harness.answers_correct",
    "harness.tokens_per_query",
    "nn.param_count",
    "nn.checkpoint_mb",
)

# Per-layer metrics that are structural counts; they must repeat exactly
# across traced units of the same seed.
COUNT_METRICS = (
    "embedding.texts",
    "model.group_sites",
    "model.edge_sites",
    "model.generated_steps",
    "model.generated_edge_sites",
    "nn.adamw_calls",
    "nn.gru_step_calls",
    "nn.accumulate_calls",
    "graph.agent_nodes",
    "graph.agent_edges",
    "graph.critical_path_calls",
    "harness.backend_calls",
    "harness.count_tokens_calls",
    "harness.prompt_tokens",
    "harness.completion_tokens",
    "trace.spans",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced unit, from its spans and counts."""
    summary = tracer.summary()
    sec, calls, own = summary["seconds"], summary["calls"], summary["self"]
    counts = tracer.counts
    run_graph_s = sec["harness.run_graph"]
    busy_s = sec["backend.complete"]
    backend_calls = calls["backend.complete"]
    critical = counts["graph.critical_path_calls"]
    metrics = {
        "embedding.encode_s": sec["embedding.encode"],
        "embedding.texts": counts["embedding.texts"],
        "embedding.build_candidate_matrix_s": sec["embedding.build_candidate_matrix"],
        "model.loss_and_grads_s": sec["model.loss_and_grads"],
        "model.forward_s": sec["trace.forward_probe"],
        "model.backward_s": sec["model.loss_and_grads"] - sec["trace.forward_probe"],
        "model.group_sites": counts["model.group_sites"],
        "model.edge_sites": counts["model.edge_sites"],
        "model.generate_graph_s": sec["model.generate_graph"],
        "model.generated_steps": counts["model.generated_steps"],
        "model.generated_edge_sites": counts["model.generated_edge_sites"],
        "model.init_params_s": sec["model.init_params"],
        "nn.adamw_step_s": sec["nn.adamw_step"],
        "nn.adamw_calls": calls["nn.adamw_step"],
        "nn.gru_step_calls": calls["nn.gru_step"],
        "nn.gru_step_s": sec["nn.gru_step"],
        "nn.accumulate_calls": calls["nn.accumulate"],
        "nn.save_checkpoint_s": sec["nn.save_checkpoint"],
        "nn.load_checkpoint_s": sec["nn.load_checkpoint"],
        "training.explore_and_label_s": sec["training.explore_and_label"],
        "training.curate_minimal_s": sec["training.curate_minimal"],
        "graph.materialize_agent_graph_s": sec["graph.materialize_agent_graph"],
        "graph.agent_nodes": counts["graph.agent_nodes"],
        "graph.agent_edges": counts["graph.agent_edges"],
        "graph.critical_path_calls": critical,
        "graph.read_records_s": sec["graph.read_records"],
        "graph.write_records_s": sec["graph.write_records"],
        "harness.run_graph_s": run_graph_s,
        "harness.backend_calls": backend_calls,
        "harness.backend_busy_s": busy_s,
        "harness.overlap": busy_s / run_graph_s if run_graph_s else 0.0,
        "harness.calls_per_critical_call": backend_calls / critical if critical else 0.0,
        "harness.count_tokens_calls": calls["harness.count_tokens"],
        "harness.prompt_tokens": counts["harness.prompt_tokens"],
        "harness.completion_tokens": counts["harness.completion_tokens"],
        "trace.spans": len(tracer.spans),
    }
    for command in ("discover", "curate", "train", "generate", "run"):
        metrics[f"cli.{command}_s"] = sec[f"cli.{command}"]
    for layer in ("embedding", "model", "nn", "training", "graph", "harness", "cli"):
        metrics[f"{layer}.self_s"] = own[layer]
    return metrics


def traced_pairs(ctx: Context, outcome: Outcome, unit, install) -> dict[str, float]:
    """Alternate untraced and traced runs of ``unit`` for ``ctx.seconds``.

    ``unit(tracer)`` returns ``(wall_s, extras)``; ``extras`` holds per-layer
    metrics the workload measures itself. At least two pairs run, so that the
    repeat check below compares two units. Times are medians over the traced
    units; counts must repeat exactly and are reported once.
    """
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    per_unit: list[dict[str, float]] = []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        wall, _ = unit(None)
        untraced_walls.append(wall)
        tracer = Tracer()
        install(tracer)
        try:
            wall, extras = unit(tracer)
        finally:
            tracer.remove()
        metrics = layer_metrics(tracer)
        metrics.update(extras)
        traced_walls.append(wall - metrics["model.forward_s"])
        per_unit.append(metrics)
        elapsed = time.perf_counter() - start
        if len(per_unit) >= 2 and elapsed + (time.perf_counter() - pair_start) > ctx.seconds:
            break
    for name in COUNT_METRICS:
        values = {m[name] for m in per_unit}
        if len(values) > 1:
            outcome.problems.append(f"{name} differs between traced units: {sorted(values)}")
    result = dict.fromkeys(WORKLOAD_METRICS, 0.0)
    result.update(
        (name, statistics.median(m.get(name, 0.0) for m in per_unit))
        for name in set().union(*per_unit)
    )
    result["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(
        untraced_walls
    )
    outcome.notes["trace_pairs"] = len(per_unit)
    tracer.write(ctx.spans_path, {"units": len(per_unit), "last_unit": True})
    outcome.notes["spans_file"] = str(ctx.spans_path)
    return result


def finish(ctx: Context, outcome: Outcome, setup_s: float, metrics: dict) -> Outcome:
    """Attach set-up time and peak memory; they are end-to-end metrics only."""
    ends = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
    if ctx.trace:
        outcome.notes.update(ends)
        outcome.metrics = metrics
    else:
        outcome.metrics = {**ends, **metrics}
    return outcome


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# train: default-size teacher forcing and checkpointing, as `grouptopo train`.


def train(ctx: Context) -> Outcome:
    def setup():
        gt = import_package()
        pool = gt.default_pool()
        config = gt.ModelConfig(pool_size=pool.size, seed=ctx.seed)
        params = gt.init_params(config)
        provider = gt.HashingTextEmbedder(config.dim)
        gt.build_candidate_matrix(provider, pool)
        return SimpleNamespace(
            gt=gt, pool=pool, config=config, provider=provider, params=params
        )

    clock = SetupClock(ctx, setup)
    prog = clock.state
    gt = prog.gt
    rng = gt.make_rng(ctx.seed)
    steps = stratified(rng, range(1, prog.config.max_steps + 1))
    dataset = []
    for _ in range(TRAIN_TRAJECTORIES):
        family = FAMILIES[int(rng.integers(len(FAMILIES)))]
        graph = gt.sample_candidate_topology(rng, prog.pool.size, family, next(steps))
        dataset.append(gt.Trajectory(query=make_query(rng)[0], graph=graph))
    train_config = gt.TrainConfig(
        epochs=TRAIN_EPOCHS, warmup_epochs=10, batch_size=40, lr=1e-4, seed=ctx.seed
    )
    checkpoint = ctx.workdir / "train.npz"
    outcome = Outcome()
    histories: list[tuple[float, ...]] = []
    epochs: list[float] = []

    def unit(tracer):
        """One `grouptopo train` run: init, train, save."""
        epoch_ends: list[float] = []
        start = time.perf_counter()
        params = gt.init_params(prog.config)
        train_start = time.perf_counter()
        result = gt.train(
            prog.pool,
            prog.provider,
            dataset,
            prog.config,
            train_config,
            params=params,
            callback=lambda log: epoch_ends.append(time.perf_counter()),
        )
        gt.save_checkpoint(
            checkpoint,
            result.params,
            {"model": prog.config.to_dict(), "encoder": {"kind": "hash", "dim": prog.config.dim}},
            result.opt_state,
        )
        wall = time.perf_counter() - start
        unit_epochs = np.diff([train_start] + epoch_ends).tolist()
        history = tuple(log.loss for log in result.history)
        outcome.attempted += TRAIN_TRAJECTORIES * len(unit_epochs)
        if not all(math.isfinite(v) for v in history) or (
            histories and history != histories[0]
        ):
            outcome.failed += TRAIN_TRAJECTORIES * len(unit_epochs)
            outcome.problems.append(f"loss history {history} differs from {histories[:1]}")
        histories.append(history)
        if tracer is None:
            epochs.extend(unit_epochs)
        return wall, {"training.final_loss": history[-1]}

    if ctx.trace:
        metrics = traced_pairs(
            ctx, outcome, unit, lambda tracer: install_tracing(tracer, gt)
        )
        # Epoch time comes from the untraced units' callback timestamps, which
        # the forward probe of the traced units does not inflate.
        metrics["training.epoch_s"] = statistics.median(epochs)
        metrics["nn.param_count"] = param_count(prog.params)
        metrics["nn.checkpoint_mb"] = mebibytes(checkpoint)
    else:
        start = time.perf_counter()
        while True:
            clock.tick()
            wall, _ = unit(None)
            if len(histories) >= 2 and time.perf_counter() - start + wall > ctx.seconds:
                break
        metrics = batch_metrics(epochs, TRAIN_TRAJECTORIES)
    outcome.figures["final_loss"] = (histories[-1][-1], "nats")
    return finish(ctx, outcome, clock.median(), metrics)


# ---------------------------------------------------------------------------
# generate: forward-only graph generation from a default-size checkpoint.


def generate(ctx: Context) -> Outcome:
    checkpoint = ctx.workdir / "generator.npz"
    gt = import_package()
    config = gt.ModelConfig(pool_size=gt.default_pool().size, seed=GENERATE_MODEL_SEED)
    gt.save_checkpoint(
        checkpoint,
        gt.init_params(config),
        {"model": config.to_dict(), "encoder": {"kind": "hash", "dim": config.dim}},
    )

    def setup():
        gt = import_package()
        params, _, saved = gt.load_checkpoint(checkpoint)
        config = gt.ModelConfig.from_dict(saved["model"])
        provider = gt.HashingTextEmbedder(int(saved["encoder"]["dim"]))
        candidates = gt.build_candidate_matrix(provider, gt.default_pool())
        return SimpleNamespace(
            gt=gt, params=params, config=config, provider=provider, candidates=candidates
        )

    clock = SetupClock(ctx, setup)
    prog = clock.state
    gt = prog.gt
    outcome = Outcome()

    def items():
        """Seeded queries; free-running ones alternate with forced 2-8 steps."""
        rng = gt.make_rng(ctx.seed)
        forced = stratified(rng, range(2, prog.config.max_steps + 1))
        index = 0
        while True:
            query = make_query(rng)[0]
            steps = None if index % 2 == 0 else next(forced)
            yield index, query, steps, int(rng.integers(2**31))
            index += 1

    def run_item(params, candidates, query, steps, seed) -> float:
        start = time.perf_counter()
        task_vec = prog.provider.encode([query])[0]
        graph = gt.generate_graph(
            params, prog.config, candidates, task_vec, seed, forced_steps=steps
        )
        elapsed = time.perf_counter() - start
        outcome.attempted += 1
        try:
            gt.validate_group_graph(graph, prog.config.pool_size, prog.config.max_steps)
            valid = steps is None or graph.n_steps == steps
        except gt.ValidationError:
            valid = False
        if not valid:
            outcome.failed += 1
            outcome.problems.append(f"bad graph {graph} for forced_steps={steps}")
        return elapsed

    if ctx.trace:

        def unit(tracer):
            start = time.perf_counter()
            params, _, _ = gt.load_checkpoint(checkpoint)
            candidates = gt.build_candidate_matrix(prog.provider, gt.default_pool())
            for index, query, steps, seed in itertools.islice(items(), GENERATE_UNIT):
                if tracer is not None:
                    tracer.item = index
                run_item(params, candidates, query, steps, seed)
            return time.perf_counter() - start, {}

        metrics = traced_pairs(
            ctx, outcome, unit, lambda tracer: install_tracing(tracer, gt)
        )
        metrics["nn.param_count"] = param_count(prog.params)
        metrics["nn.checkpoint_mb"] = mebibytes(checkpoint)
    else:
        times = []
        start = time.perf_counter()
        for _, query, steps, seed in items():
            clock.tick()
            times.append(run_item(prog.params, prog.candidates, query, steps, seed))
            if time.perf_counter() - start >= ctx.seconds:
                break
        metrics = stream_metrics(times)
    return finish(ctx, outcome, clock.median(), metrics)


# ---------------------------------------------------------------------------
# execute: expanded family graphs run for two rounds on a latency backend.


def execute(ctx: Context) -> Outcome:
    def setup():
        gt = import_package()
        return SimpleNamespace(gt=gt, pool=gt.default_pool())

    clock = SetupClock(ctx, setup)
    prog = clock.state
    gt = prog.gt
    outcome = Outcome()
    backend = LatencyBackend(gt.CompressiveEchoBackend(), gt.count_tokens, {})
    tokens: list[int] = []

    def items():
        """The graphs `discover` explores: three families, 2-6 steps."""
        rng = gt.make_rng(ctx.seed)
        shapes = stratified(rng, [(f, s) for f in FAMILIES for s in range(2, 7)])
        index = 0
        while True:
            family, steps = next(shapes)
            graph = gt.sample_candidate_topology(rng, prog.pool.size, family, steps)
            query, answer = make_query(rng)
            backend.answers[query] = answer
            yield index, query, answer, graph
            index += 1

    def run_item(query, answer, graph) -> tuple[float, bool]:
        start = time.perf_counter()
        agent_graph = gt.materialize_agent_graph(graph, prog.pool, "expanded")
        transcript = gt.run_graph(agent_graph, query, backend, rounds=EXECUTE_ROUNDS)
        elapsed = time.perf_counter() - start
        entries = transcript.entries
        workers = len(agent_graph.nodes) - 1
        correct = gt.answer_matches(answer, transcript.final_text, "contains")
        ok = (
            len(entries) == EXECUTE_ROUNDS * workers + 1
            and transcript.stats.calls == len(entries)
            and transcript.stats.prompt_tokens == sum(e.prompt_tokens for e in entries)
            and transcript.stats.completion_tokens
            == sum(e.completion_tokens for e in entries)
            and correct
        )
        outcome.attempted += 1
        if not ok:
            outcome.failed += 1
            outcome.problems.append(f"transcript check failed for {query!r}")
        tokens.append(transcript.stats.total_tokens)
        return elapsed, correct

    if ctx.trace:

        def unit(tracer):
            start = time.perf_counter()
            del tokens[:]
            calls_before = backend.calls
            correct = 0
            for index, query, answer, graph in itertools.islice(items(), EXECUTE_UNIT):
                if tracer is not None:
                    tracer.item = index
                correct += run_item(query, answer, graph)[1]
            if tracer is not None:
                spans = tracer.summary()["calls"]["backend.complete"]
                if spans != backend.calls - calls_before:
                    outcome.problems.append(
                        f"{spans} backend spans for {backend.calls - calls_before} calls"
                    )
            extras = {
                "harness.answers_correct": correct,
                "harness.tokens_per_query": sum(tokens) / len(tokens),
            }
            return time.perf_counter() - start, extras

        metrics = traced_pairs(
            ctx,
            outcome,
            unit,
            lambda tracer: install_tracing(tracer, gt, [LatencyBackend]),
        )
    else:
        times = []
        start = time.perf_counter()
        for _, query, answer, graph in items():
            clock.tick()
            times.append(run_item(query, answer, graph)[0])
            if time.perf_counter() - start >= ctx.seconds:
                break
        metrics = stream_metrics(times)
        outcome.figures["tokens_per_query"] = (sum(tokens) / len(tokens), "tokens")
        outcome.notes.update(
            backend_calls=backend.calls,
            backend_busy_s=backend.busy_s,
            overlap=backend.busy_s / sum(times),
        )
    return finish(ctx, outcome, clock.median(), metrics)


# ---------------------------------------------------------------------------
# pipeline: the CLI loop discover -> curate -> train -> generate -> run.


def _invoke_cli(cli, args: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            cli.main.main(args=args, prog_name="grouptopo")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # a crash is a failed command, reported with its traceback
            traceback.print_exc(file=out)
            code = -1
    return code, out.getvalue()


def pipeline(ctx: Context) -> Outcome:
    def setup():
        gt = import_package(with_cli=True)
        return SimpleNamespace(gt=gt, cli=sys.modules[PACKAGE + ".cli"])

    clock = SetupClock(ctx, setup)
    prog = clock.state
    gt = prog.gt
    outcome = Outcome()
    rng = gt.make_rng(ctx.seed)
    examples = [gt.EvalExample(*make_query(rng)) for _ in range(PIPELINE_QUERIES)]
    work = ctx.workdir
    gt.write_records(work / "examples.jsonl", [gt.example_to_record(e) for e in examples])
    seed = str(ctx.seed)
    commands = [
        ("discover", ["discover", "--dataset", f"{work}/examples.jsonl",
                      "--out", f"{work}/explored.jsonl", "--seed", seed]),
        ("curate", ["curate", "--results", f"{work}/explored.jsonl",
                    "--out", f"{work}/curated.jsonl"]),
        ("train", ["train", "--dataset", f"{work}/curated.jsonl",
                   "--out", f"{work}/model.npz", *PIPELINE_TRAIN_ARGS, "--seed", seed]),
        ("generate", ["generate", "--checkpoint", f"{work}/model.npz",
                      "--dataset", f"{work}/examples.jsonl",
                      "--out", f"{work}/generated.jsonl", "--seed", seed]),
        ("run", ["run", "--graphs", f"{work}/generated.jsonl",
                 "--dataset", f"{work}/examples.jsonl",
                 "--out", f"{work}/report.jsonl", "--seed", seed]),
    ]
    first_outputs: list[tuple] = []

    def unit(tracer):
        start = time.perf_counter()
        outputs = {}
        for name, args in commands:
            with _span(tracer, f"cli.{name}"):
                code, text = _invoke_cli(prog.cli, args)
            outputs[name] = text
            if code != 0:
                outcome.problems.append(f"{name} exited {code}: {text.strip()[-300:]}")
                break
        wall = time.perf_counter() - start
        outcome.attempted += PIPELINE_QUERIES
        if code != 0:
            outcome.failed += PIPELINE_QUERIES
            return wall, {}
        losses = re.findall(r"^epoch\s+\d+\s+loss (\S+)", outputs["train"], re.M)
        report = (work / "report.jsonl").read_text(encoding="utf-8")
        records = [json.loads(line) for line in report.splitlines() if line.strip()]
        summary = next(r for r in records if r["kind"] == "run_summary")
        correct = sum(1 for r in records if r["kind"] == "run_item" and r["correct"])
        outcome.failed += PIPELINE_QUERIES - correct
        final_loss = float(losses[-1])
        if not first_outputs:
            first_outputs.append((final_loss, report))
        if not math.isfinite(final_loss) or (final_loss, report) != first_outputs[0]:
            outcome.problems.append("pipeline outputs differ between identical loops")
        extras = {
            "training.final_loss": final_loss,
            "harness.answers_correct": correct,
            "harness.tokens_per_query": (
                summary["prompt_tokens"] + summary["completion_tokens"]
            ) / PIPELINE_QUERIES,
        }
        outcome.notes["run_accuracy"] = summary["accuracy"]
        return wall, extras

    if ctx.trace:
        metrics = traced_pairs(
            ctx,
            outcome,
            unit,
            lambda tracer: install_tracing(tracer, gt, [gt.AnswerKeyBackend]),
        )
        checkpoint = work / "model.npz"
        metrics["nn.param_count"] = param_count(gt.load_checkpoint(checkpoint)[0])
        metrics["nn.checkpoint_mb"] = mebibytes(checkpoint)
    else:
        loops = []
        start = time.perf_counter()
        while True:
            clock.tick()
            wall, extras = unit(None)
            loops.append(wall)
            if extras:
                outcome.figures["final_loss"] = (extras["training.final_loss"], "nats")
                outcome.figures["tokens_per_query"] = (
                    extras["harness.tokens_per_query"], "tokens"
                )
            if time.perf_counter() - start >= ctx.seconds:
                break
        metrics = batch_metrics(loops, PIPELINE_QUERIES)
    return finish(ctx, outcome, clock.median(), metrics)


WORKLOADS = {"train": train, "generate": generate, "execute": execute, "pipeline": pipeline}
