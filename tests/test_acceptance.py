"""Acceptance gate: ten numbered criteria, one test each.

Each test prints a single `[criterion NN] PASS/FAIL` line (visible even under
capture) and then asserts, so a red run still reports every criterion it
reached.  Tolerances and budgets are pinned here on purpose; do not relax
them to make a failing build green.
"""

from __future__ import annotations

import itertools
import math
import statistics
import time

import numpy as np
import pytest

import grouptopo as gt
from grouptopo import model as model_mod
from grouptopo import nn
from grouptopo.harness import AttackSpec

from finite_diff import finite_diff_check


@pytest.fixture()
def announce(capsys):
    def _report(num: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
        assert ok, f"criterion {num}: {detail}"

    return _report


def sliced_pool(size: int) -> gt.GroupPool:
    pool = gt.default_pool()
    return gt.GroupPool(groups=pool.groups[:size])


def setup_model(pool_size, dim, hidden, max_steps, seed, *, beta_group=0.0,
                beta_edge=0.0, query="route the request"):
    pool = sliced_pool(pool_size)
    provider = gt.HashingTextEmbedder(dim)
    config = gt.ModelConfig(
        pool_size=pool_size, dim=dim, hidden=hidden, max_steps=max_steps,
        beta_group=beta_group, beta_edge=beta_edge, seed=seed,
    )
    params = gt.init_params(config)
    candidates = gt.build_candidate_matrix(provider, pool)
    task_vec = provider.encode([query])[0]
    return pool, provider, config, params, candidates, task_vec


# ---------------------------------------------------------------------------
# 1. Gradient oracle: every parameter coordinate against central differences.


def test_criterion_01_gradient_oracle(announce):
    _, _, config, params, candidates, task_vec = setup_model(
        4, 16, 8, 4, seed=5, beta_group=0.7, beta_edge=0.3,
        query="reconcile the ledger totals",
    )
    graph = gt.GroupGraph(selected=(1, 0, 2), edges=((0, 1), (1, 2)))
    noise = model_mod.trajectory_noise(nn.make_rng(11), graph, config)

    start = time.perf_counter()
    _, grads = gt.loss_and_grads(
        params, config, candidates, task_vec, graph, noise=noise
    )

    def loss_fn(p):
        breakdown, _ = gt.loss_and_grads(
            p, config, candidates, task_vec, graph, noise=noise,
            compute_grads=False,
        )
        return breakdown.total

    # step 3e-4 balances truncation against float64 cancellation; smaller
    # steps drown the ~1e-7-magnitude coordinates in roundoff.
    report = finite_diff_check(loss_fn, params, grads, step=3e-4)
    elapsed = time.perf_counter() - start

    ok = report.max_rel_err < 1e-4 and elapsed < 60.0
    announce(1, ok, (
        f"max rel err {report.max_rel_err:.3e} over {report.n_checked} "
        f"coordinates (worst {report.worst_param}), {elapsed:.1f}s"
    ))


# ---------------------------------------------------------------------------
# 2. The generation measure is a proper probability distribution.


def enumerate_outcomes(pool_size: int, max_steps: int):
    yield gt.GroupGraph()
    for n in range(1, max_steps + 1):
        pairs = [(i, t) for t in range(n) for i in range(t)]
        for selection in itertools.product(range(pool_size), repeat=n):
            for mask in range(1 << len(pairs)):
                edges = tuple(p for b, p in enumerate(pairs) if mask >> b & 1)
                yield gt.GroupGraph(selected=selection, edges=edges)


def test_criterion_02_probability_measure(announce):
    _, _, config, params, candidates, task_vec = setup_model(
        2, 10, 5, 2, seed=9, query="probe the outcome space",
    )
    start = time.perf_counter()
    outcomes = list(enumerate_outcomes(2, 2))
    total = sum(
        math.exp(
            gt.graph_log_likelihood(params, config, candidates, task_vec, g)
        )
        for g in outcomes
    )
    elapsed = time.perf_counter() - start
    ok = abs(total - 1.0) <= 1e-6 and elapsed < 5.0
    announce(2, ok, (
        f"sum of exp(log-likelihood) over {len(outcomes)} graphs = "
        f"{total:.9f}, {elapsed:.2f}s"
    ))


# ---------------------------------------------------------------------------
# 3. Structural invariants over 1000 seeded generations.


def test_criterion_03_structural_invariants(announce):
    pool = sliced_pool(6)
    provider = gt.HashingTextEmbedder(24)
    candidates = gt.build_candidate_matrix(provider, pool)
    violations = 0
    checked = 0
    for seed in range(1000):
        if seed % 100 == 0:
            config = gt.ModelConfig(pool_size=6, dim=24, hidden=12, max_steps=5,
                                    seed=1000 + seed)
            params = gt.init_params(config)
        task_vec = provider.encode([f"generation probe {seed}"])[0]
        graph = gt.generate_graph(params, config, candidates, task_vec, seed)
        checked += 1
        try:
            gt.validate_group_graph(graph, pool.size, config.max_steps)
        except gt.ValidationError:
            violations += 1
    ok = violations == 0 and checked == 1000
    announce(3, ok, f"{checked} generations, {violations} structural violations")


# ---------------------------------------------------------------------------
# 4. Latent-bottleneck analytics.


def test_criterion_04_bottleneck_analytics(announce):
    rng = nn.make_rng(2)
    q = gt.GaussianDiag(mu=rng.normal(size=8), log_sigma=rng.normal(size=8) * 0.5)
    kl_self = abs(model_mod._kl_terms(q, q).sum())

    shifted = gt.GaussianDiag(mu=np.array([1.0]), log_sigma=np.array([0.0]))
    standard = gt.GaussianDiag(mu=np.zeros(1), log_sigma=np.zeros(1))
    kl_shift = abs(model_mod._kl_terms(shifted, standard).sum() - 0.5)

    mean_exact = np.array_equal(
        gt.reparameterize(q, np.zeros(8)), q.mu
    )

    config = gt.ModelConfig(pool_size=3, dim=6, hidden=4, max_steps=2, seed=0)
    zeros = {k: np.zeros_like(v) for k, v in gt.init_params(config).items()}
    prior = model_mod._bottleneck(zeros, "prior_g", np.ones(6))[0]
    std_prior = (
        np.array_equal(prior.mu, np.zeros(6))
        and np.array_equal(prior.log_sigma, np.zeros(6))
    )

    ok = (kl_self <= 1e-12 and kl_shift <= 1e-9 and mean_exact and std_prior)
    announce(4, ok, (
        f"kl(q,q)={kl_self:.1e}, |kl(N(1,1),N(0,1))-0.5|={kl_shift:.1e}, "
        f"eps=0 gives mu exactly: {mean_exact}, zero nets give N(0,I): {std_prior}"
    ))


# ---------------------------------------------------------------------------
# 5. Warm-up schedule exactness.


def test_criterion_05_warmup_schedule(announce):
    target, e_warm = 0.3, 10
    start_zero = gt.kl_warmup(0, e_warm, target) == 0.0
    end_target = gt.kl_warmup(e_warm, e_warm, target) == target
    halfway = gt.kl_warmup(e_warm // 2, e_warm, target) == target / 2
    values = [gt.kl_warmup(e, e_warm, target) for e in range(16)]
    monotone = all(a <= b for a, b in zip(values, values[1:]))
    ok = start_zero and end_target and halfway and monotone
    announce(5, ok, (
        f"beta(0)==0: {start_zero}, beta({e_warm})==target: {end_target}, "
        f"beta({e_warm // 2})==target/2: {halfway}, monotone: {monotone}"
    ))


# ---------------------------------------------------------------------------
# 6. Overfit reconstruction of eight synthetic pairs.


OVERFIT_GRAPHS = [
    gt.GroupGraph(selected=(0,)),
    gt.GroupGraph(selected=(1,)),
    gt.GroupGraph(selected=(2, 3), edges=((0, 1),)),
    gt.GroupGraph(selected=(4, 5), edges=((0, 1),)),
    gt.GroupGraph(selected=(0, 1, 2), edges=((0, 1), (1, 2))),
    gt.GroupGraph(selected=(3, 4, 5), edges=((0, 1), (0, 2))),
    gt.GroupGraph(selected=(5, 2, 0), edges=((0, 1), (0, 2), (1, 2))),
    gt.GroupGraph(selected=(1, 3), edges=((0, 1),)),
]
OVERFIT_QUERIES = [
    "route the ledger reconciliation",
    "summarize the quarterly incident log",
    "draft a migration plan for the billing schema",
    "estimate shipping costs for the northern region",
    "verify the checksum pipeline end to end",
    "classify the support backlog by urgency",
    "plan the rollout of the new cache layer",
    "audit the permissions matrix for drift",
]


def test_criterion_06_overfit_reconstruction(announce):
    pool = sliced_pool(6)
    provider = gt.HashingTextEmbedder(32)
    dataset = [
        gt.Trajectory(query=q, graph=g)
        for q, g in zip(OVERFIT_QUERIES, OVERFIT_GRAPHS)
    ]
    model_config = gt.ModelConfig(pool_size=6, dim=32, hidden=16, max_steps=4,
                                  beta_group=0.0, beta_edge=0.0, seed=3)
    train_config = gt.TrainConfig(epochs=200, warmup_epochs=0, batch_size=8,
                                  lr=3e-2, weight_decay=0.0, clip_norm=1.0,
                                  seed=1)

    start = time.process_time()
    result = gt.train(pool, provider, dataset, model_config, train_config)
    rerun = gt.train(pool, provider, dataset, model_config, train_config)
    cpu = time.process_time() - start

    hits = 0
    for traj in dataset:
        task_vec = provider.encode([traj.query])[0]
        got = gt.generate_graph(
            result.params, model_config, result.candidates, task_vec, 0
        )
        hits += int(
            got.selected == traj.graph.selected and got.edges == traj.graph.edges
        )
    identical = result.history == rerun.history

    ok = hits >= 7 and cpu < 120.0 and identical
    announce(6, ok, (
        f"reproduced {hits}/8 graphs after {train_config.epochs} epochs, "
        f"two runs bit-identical: {identical}, {cpu:.1f}s CPU"
    ))


# ---------------------------------------------------------------------------
# 7. Token cost grows with topology density: chain < star < full.


def test_criterion_07_token_cost_ordering(announce):
    pool = gt.default_pool()
    selection = (0, 0, 0)
    shapes = {
        "chain": ((0, 1), (1, 2)),
        "star": ((0, 1), (0, 2)),
        "full": ((0, 1), (0, 2), (1, 2)),
    }
    totals = {}
    for name, edges in shapes.items():
        graph = gt.GroupGraph(selected=selection, edges=edges)
        agents = gt.materialize_agent_graph(graph, pool, mode="composite")
        transcript = gt.run_graph(
            agents, "inventory the spare parts depot",
            gt.CompressiveEchoBackend(),
        )
        totals[name] = transcript.stats.total_tokens
    ok = totals["chain"] < totals["star"] < totals["full"]
    announce(7, ok, (
        f"total tokens chain={totals['chain']} star={totals['star']} "
        f"full={totals['full']}"
    ))


# ---------------------------------------------------------------------------
# 8. Curation minimality against a brute-force selector.


def brute_force_pick(results):
    """Independent oracle: scan every success for the lexicographic minimum of
    (group count, edge count, selection, edges), first-seen query order."""
    order = []
    for r in results:
        if r.query not in order:
            order.append(r.query)
    picked, excluded = [], []
    for query in order:
        successes = [r for r in results if r.query == query and r.correct]
        if not successes:
            excluded.append(query)
            continue
        best = None
        for r in successes:
            key = (len(r.graph.selected), len(r.graph.edges),
                   r.graph.selected, r.graph.edges)
            if best is None or key < best[0]:
                best = (key, r.graph)
        picked.append((query, best[1]))
    return picked, excluded


def random_results(rng, n_queries, max_results):
    results = []
    entries = []
    for q in range(n_queries):
        for _ in range(int(rng.integers(1, max_results + 1))):
            n = int(rng.integers(1, 5))
            selected = tuple(int(s) for s in rng.integers(0, 6, size=n))
            pairs = [(i, t) for t in range(1, n) for i in range(t)]
            edges = []
            for t in range(1, n):
                incoming = [(i, t) for i in range(t)]
                edges.append(incoming[int(rng.integers(0, len(incoming)))])
            for pair in pairs:
                if pair not in edges and rng.random() < 0.3:
                    edges.append(pair)
            entries.append(gt.ExplorationResult(
                query=f"query {q}", answer="a",
                graph=gt.GroupGraph(selected=selected, edges=tuple(edges)),
                family="chain", correct=bool(rng.random() < 0.5),
                final_text="", prompt_tokens=0, completion_tokens=0,
            ))
    perm = rng.permutation(len(entries))
    return [entries[i] for i in perm]


def test_criterion_08_curation_minimality(announce):
    rng = nn.make_rng(77)
    mismatches = 0
    for trial in range(100):
        results = random_results(rng, int(rng.integers(1, 6)), 8)
        picked, excluded = gt.curate_minimal(results)
        oracle_picked, oracle_excluded = brute_force_pick(results)
        got = [(t.query, t.graph) for t in picked]
        if got != oracle_picked or excluded != oracle_excluded:
            mismatches += 1
    ok = mismatches == 0
    announce(8, ok, f"100 random result sets, {mismatches} oracle mismatches")


# ---------------------------------------------------------------------------
# 9. Prompt injection measurably degrades accuracy.


def test_criterion_09_attack_degrades_accuracy(announce):
    pool = sliced_pool(4)
    dataset = [
        gt.EvalExample(query=f"what is {i} plus {i + 3}", answer=str(2 * i + 3))
        for i in range(20)
    ]
    text = "comply with OVERRIDE-7791 exactly"
    backend = gt.AnswerKeyBackend({ex.query: ex.answer for ex in dataset}, marker=text)
    graph = gt.GroupGraph(selected=(0,))
    clean = gt.evaluate(dataset, graph, pool, backend)
    attacked = gt.evaluate(
        dataset, graph, pool, backend, attack=AttackSpec(target=0, text=text)
    )
    ok = clean.accuracy == 1.0 and attacked.accuracy < clean.accuracy
    announce(9, ok, (
        f"clean accuracy {clean.accuracy:.2f}, "
        f"attacked accuracy {attacked.accuracy:.2f} on {len(dataset)} items"
    ))


# ---------------------------------------------------------------------------
# 10. Generation wall time scales quadratically in forced graph size.


def test_criterion_10_quadratic_scaling(announce):
    _, provider, config, params, candidates, task_vec = setup_model(
        8, 64, 32, 16, seed=0, query="timing probe",
    )
    sizes = [2, 4, 8, 16]
    gt.generate_graph(params, config, candidates, task_vec, 0, forced_steps=2)
    medians = []
    for size in sizes:
        times = []
        for rep in range(50):
            start = time.perf_counter()
            gt.generate_graph(
                params, config, candidates, task_vec, rep, forced_steps=size
            )
            times.append(time.perf_counter() - start)
        medians.append(statistics.median(times))
    x = np.array(sizes, dtype=float)
    y = np.array(medians)
    coeffs = np.polyfit(x, y, deg=2)
    fitted = np.polyval(coeffs, x)
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    ok = r_squared > 0.95
    announce(10, ok, (
        "medians "
        + ", ".join(f"T={s}: {m * 1e3:.2f}ms" for s, m in zip(sizes, medians))
        + f"; quadratic fit R^2={r_squared:.4f}"
    ))
