"""Oracle for the row-batched site passes in ``model.py``.

The per-site teacher-forced loss and the per-site generator that scored one
group or edge site at a time are kept here as the reference, written against
the ``nn`` kernels with one input vector per call. The batched code must give
the same loss and gradients, to relative 1e-12 per gradient tensor, and the
same generated graphs.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

import grouptopo as gt
from grouptopo import model as model_mod
from grouptopo import nn
from grouptopo.model import LOG_FLOOR, LOG_SIGMA_MAX, LOG_SIGMA_MIN
from grouptopo.training import family_edges

from finite_diff import finite_diff_check

# ---------------------------------------------------------------------------
# The per-site reference.


def ref_bottleneck(params, prefix, x):
    mu = nn.affine(params, f"{prefix}.mu", x)
    ls_raw = nn.affine(params, f"{prefix}.ls", x)
    ls = np.clip(ls_raw, LOG_SIGMA_MIN, LOG_SIGMA_MAX)
    return gt.model.GaussianDiag(mu=mu, log_sigma=ls), (x, ls_raw)


def ref_bottleneck_backward(params, prefix, cache, d_mu, d_ls, grads):
    x, ls_raw = cache
    inside = (ls_raw > LOG_SIGMA_MIN) & (ls_raw < LOG_SIGMA_MAX)
    dx = nn.affine_backward(params, f"{prefix}.mu", x, d_mu, grads)
    dx += nn.affine_backward(params, f"{prefix}.ls", x, np.where(inside, d_ls, 0.0), grads)
    return dx


def ref_kl_backward(q, p, weight):
    diff = q.mu - p.mu
    inv_var_p = np.exp(-2.0 * p.log_sigma)
    d_mu_q = weight * diff * inv_var_p
    d_ls_q = weight * (np.exp(2.0 * q.log_sigma - 2.0 * p.log_sigma) - 1.0)
    d_ls_p = weight * (1.0 - (np.exp(2.0 * q.log_sigma) + diff * diff) * inv_var_p)
    return d_mu_q, d_ls_q, -d_mu_q, d_ls_p


def ref_latent(params, gate_prefix, enc_prefix, x, eps):
    x_gated, gate_cache = nn.gate_step(params, gate_prefix, x)
    q, enc_cache = ref_bottleneck(params, enc_prefix, x_gated)
    code = gt.model.reparameterize(q, eps)
    return code, (gate_prefix, enc_prefix, gate_cache, enc_cache, q, eps)


def ref_latent_backward(params, cache, d_code, kl_weight, prior, prior_acc, grads):
    gate_prefix, enc_prefix, gate_cache, enc_cache, q, eps = cache
    d_mu = d_code.copy()
    d_ls = d_code * eps * np.exp(q.log_sigma)
    if kl_weight != 0.0:
        kq_mu, kq_ls, kp_mu, kp_ls = ref_kl_backward(q, prior, kl_weight)
        d_mu += kq_mu
        d_ls += kq_ls
        prior_acc[0] += kp_mu
        prior_acc[1] += kp_ls
    dx = ref_bottleneck_backward(params, enc_prefix, enc_cache, d_mu, d_ls, grads)
    return nn.gate_backward(params, gate_prefix, gate_cache, dx, grads)


def ref_edge_site(params, fused_source, group_vec, z, eps):
    features = np.concatenate([fused_source, group_vec, z])
    a1 = nn.affine(params, "edge_mlp.l1", features)
    h1 = nn.relu(a1)
    x_pre = nn.affine(params, "edge_mlp.l2", h1)
    code, latent = ref_latent(params, "edge_gru", "enc_e", x_pre, eps)
    head_a = nn.affine(params, "edge_head.l1", code)
    head_h = nn.relu(head_a)
    logit = float(nn.affine(params, "edge_head.l2", head_h)[0])
    prob = float(nn.sigmoid(np.array([logit]))[0])
    return prob, (features, a1, h1, latent, code, head_a, head_h)


def ref_edge_site_backward(params, cache, d_logit, kl_weight, prior, prior_acc, grads):
    features, a1, h1, latent, code, head_a, head_h = cache
    d_head_h = nn.affine_backward(params, "edge_head.l2", head_h, np.array([d_logit]), grads)
    d_head_a = nn.relu_backward(head_a, d_head_h)
    d_code = nn.affine_backward(params, "edge_head.l1", code, d_head_a, grads)
    dx_pre = ref_latent_backward(params, latent, d_code, kl_weight, prior, prior_acc, grads)
    dh1 = nn.affine_backward(params, "edge_mlp.l2", h1, dx_pre, grads)
    da1 = nn.relu_backward(a1, dh1)
    d_features = nn.affine_backward(params, "edge_mlp.l1", features, da1, grads)
    dim = code.shape[0]
    return d_features[:dim], d_features[2 * dim :]


def ref_project_task(params, task_vec):
    a1 = nn.affine(params, "task_ffn.l1", task_vec)
    h1 = nn.relu(a1)
    return nn.affine(params, "task_ffn.l2", h1), (task_vec, a1, h1)


def ref_fuse(params, h_his, z, step):
    scale = 1.0 / math.sqrt(z.shape[0])
    gate = float(nn.sigmoid(np.array([float(h_his @ z) * scale]))[0])
    fused = (1.0 - gate) * h_his + gate * z + params["step_embed"][step]
    return fused, (h_his, z, step, gate, scale)


def ref_fuse_backward(cache, d_fused, grads, table):
    h_his, z, step, g, scale = cache
    grads.setdefault("step_embed", np.zeros_like(table))[step] += d_fused
    d_raw = float(d_fused @ (z - h_his)) * g * (1.0 - g)
    return (1.0 - g) * d_fused + d_raw * scale * z, g * d_fused + d_raw * scale * h_his


def ref_decode(params, matrix, end_index, z, limit, eps, graph=None, rng=None,
               allow_stop=True):
    """The step loop that scored one site per call, for both teacher forcing
    (``graph`` given) and generation."""
    group_sites, edge_sites, his_caches, fused_states = [], [], [], []
    edge_set = set(graph.edges) if graph is not None else set()
    history = np.zeros(z.shape[0])
    for t in range(limit):
        fused, fuse_cache = ref_fuse(params, history, z, t)
        code, latent = ref_latent(params, "grp_gru", "enc_g", fused, next(eps))
        probs = nn.softmax(matrix @ code)
        if graph is not None:
            choice = graph.selected[t] if t < graph.n_steps else end_index
        elif allow_stop:
            choice = int(np.argmax(probs))
        else:
            choice = int(np.argmax(probs[:end_index]))
        group_sites.append((t, choice, fuse_cache, probs, latent, code))
        if choice == end_index:
            break
        group_vec = matrix[choice]
        sites = []
        for i in range(t):
            prob, e_cache = ref_edge_site(params, fused_states[i], group_vec, z, next(eps))
            label = (i, t) in edge_set if graph is not None else rng.random() < prob
            sites.append([i, t, int(label), prob, e_cache])
        if graph is None and sites and not any(site[2] for site in sites):
            max(sites, key=lambda site: site[3])[2] = 1
        edge_sites.extend(sites)
        fused_states.append(fused)
        history, his_cache = nn.gru_step(params, "his_gru", group_vec, history)
        his_caches.append(his_cache)
    return group_sites, edge_sites, his_caches


def ref_generate_graph(params, config, candidates, task_vec, seed, forced_steps=None):
    matrix = model_mod.scoring_matrix(params, config, candidates)
    z, _ = ref_project_task(params, task_vec)
    limit = config.max_steps if forced_steps is None else forced_steps
    eps = itertools.repeat(np.zeros(config.dim))
    group_sites, edge_sites, _ = ref_decode(
        params, matrix, config.pool_size, z, limit, eps, rng=nn.make_rng(seed),
        allow_stop=forced_steps is None,
    )
    choices = [site[1] for site in group_sites]
    stopped = choices[-1] == config.pool_size
    return gt.GroupGraph(
        selected=tuple(choices[:-1] if stopped else choices),
        edges=tuple((i, t) for i, t, taken, _, _ in edge_sites if taken),
        truncated=forced_steps is None and not stopped,
    )


def ref_loss_and_grads(params, config, candidates, task_vec, graph, noise):
    dim, n = config.dim, graph.n_steps
    beta_group, beta_edge = config.beta_group, config.beta_edge
    matrix = model_mod.scoring_matrix(params, config, candidates)
    end_index = config.pool_size
    z, (x, a1, h1) = ref_project_task(params, task_vec)
    prior_g, prior_g_cache = ref_bottleneck(params, "prior_g", z)
    prior_e, prior_e_cache = ref_bottleneck(params, "prior_e", z)
    group_sites, edge_sites, his_caches = ref_decode(
        params, matrix, end_index, z, min(n + 1, config.max_steps), iter(noise), graph
    )
    group_nll = edge_bce = kl_group = kl_edge = 0.0
    for _, target, _, probs, latent, _ in group_sites:
        group_nll += -math.log(max(float(probs[target]), LOG_FLOOR))
        kl_group += model_mod._kl_terms(latent[4], prior_g).sum()
    for _, _, label, prob, e_cache in edge_sites:
        edge_bce += -math.log(max(prob if label else 1.0 - prob, LOG_FLOOR))
        kl_edge += model_mod._kl_terms(e_cache[3][4], prior_e).sum()
    breakdown = gt.model.LossBreakdown(
        group_nll=group_nll, edge_bce=edge_bce, kl_group=kl_group, kl_edge=kl_edge,
        beta_group=beta_group, beta_edge=beta_edge,
        n_group_sites=len(group_sites), n_edge_sites=len(edge_sites),
    )

    grads = {}
    d_fused_acc = [np.zeros(dim) for _ in group_sites]
    d_state_acc = [np.zeros(dim) for _ in range(n + 1)]
    dz = np.zeros(dim)
    prior_g_acc = [np.zeros(dim), np.zeros(dim)]
    prior_e_acc = [np.zeros(dim), np.zeros(dim)]
    for site_idx, (_, target, _, probs, latent, code) in enumerate(group_sites):
        if float(probs[target]) > LOG_FLOOR:
            d_logits = probs.copy()
            d_logits[target] -= 1.0
        else:
            d_logits = np.zeros(end_index + 1)
        nn.accumulate(grads, "end_embed", d_logits[end_index] * code)
        d_fused_acc[site_idx] += ref_latent_backward(
            params, latent, matrix.T @ d_logits, beta_group, prior_g, prior_g_acc, grads
        )
    for i, _, label, p, e_cache in edge_sites:
        p_event = p if label else 1.0 - p
        d_logit = (p - float(label)) if p_event > LOG_FLOOR else 0.0
        d_src, d_z_part = ref_edge_site_backward(
            params, e_cache, d_logit, beta_edge, prior_e, prior_e_acc, grads
        )
        d_fused_acc[i] += d_src
        dz += d_z_part
    for site_idx, (t, _, fuse_cache, _, _, _) in enumerate(group_sites):
        d_his, d_z_part = ref_fuse_backward(
            fuse_cache, d_fused_acc[site_idx], grads, params["step_embed"]
        )
        d_state_acc[t] += d_his
        dz += d_z_part
    carry = np.zeros(dim)
    for j in range(n - 1, -1, -1):
        total = carry + d_state_acc[j + 1]
        carry = nn.gru_backward(params, "his_gru", his_caches[j], total, grads)
    dz += ref_bottleneck_backward(params, "prior_g", prior_g_cache, *prior_g_acc, grads)
    dz += ref_bottleneck_backward(params, "prior_e", prior_e_cache, *prior_e_acc, grads)
    dh1 = nn.affine_backward(params, "task_ffn.l2", h1, dz, grads)
    nn.affine_backward(params, "task_ffn.l1", x, nn.relu_backward(a1, dh1), grads)
    return breakdown, grads


# ---------------------------------------------------------------------------
# Batched against per-site.


def small_setup(dim, hidden, max_steps, seed, pool_size=6):
    pool = gt.GroupPool(groups=gt.default_pool().groups[:pool_size])
    provider = gt.HashingTextEmbedder(dim)
    config = gt.ModelConfig(pool_size=pool_size, dim=dim, hidden=hidden,
                            max_steps=max_steps, beta_group=0.7, beta_edge=0.3, seed=seed)
    return provider, config, gt.init_params(config), gt.build_candidate_matrix(provider, pool)


def oracle_graphs(max_steps, pool_size, rng):
    """Chain, star and full graphs of 1 to ``max_steps`` steps, deduplicated."""
    seen = {}
    for n in range(1, max_steps + 1):
        selected = tuple(int(g) for g in rng.integers(0, pool_size, size=n))
        for family in ("chain", "star", "full"):
            seen.setdefault((n, family_edges(family, n)), selected)
    return [gt.GroupGraph(selected=sel, edges=edges) for (_, edges), sel in seen.items()]


def assert_matches_reference(breakdown, grads, ref_breakdown, ref_grads, label):
    assert_breakdown_matches(breakdown, ref_breakdown, label)
    assert_grads_match(grads, ref_grads, label)


def assert_breakdown_matches(breakdown, ref_breakdown, label):
    for field in ("group_nll", "edge_bce", "kl_group", "kl_edge"):
        got, want = getattr(breakdown, field), getattr(ref_breakdown, field)
        assert abs(got - want) <= 1e-12 * abs(want), (label, field, got, want)
    for field in ("beta_group", "beta_edge", "n_group_sites", "n_edge_sites"):
        assert getattr(breakdown, field) == getattr(ref_breakdown, field), (label, field)


def assert_grads_match(grads, ref_grads, label):
    for name in sorted(grads.keys() | ref_grads.keys()):
        want = ref_grads.get(name)
        got = grads.get(name)
        if want is None:
            want = np.zeros_like(got)
        if got is None:
            got = np.zeros_like(want)
        err = float(np.max(np.abs(got - want)))
        assert err <= 1e-12 * float(np.max(np.abs(want))), (label, name, err)


@pytest.mark.parametrize("dim,hidden", [(16, 8), (384, 64)])
def test_loss_and_grads_match_per_site_reference(dim, hidden):
    provider, config, params, candidates = small_setup(dim, hidden, 8, seed=3)
    task_vec = provider.encode(["score every site of a kind at once"])[0]
    for graph in oracle_graphs(8, config.pool_size, nn.make_rng(4)):
        n = graph.n_steps
        # The full table gives a STOP site for n < 8; a table of exactly n
        # rows ends the graph at the budget, without one.
        budgets = {config.max_steps, n}
        for max_steps in budgets:
            cfg = gt.ModelConfig(**{**config.to_dict(), "max_steps": max_steps})
            prm = {**params, "step_embed": params["step_embed"][:max_steps]}
            for sampled in (True, False):
                noise = (
                    model_mod.trajectory_noise(nn.make_rng(n), graph, cfg) if sampled
                    else [np.zeros(dim)] * model_mod._site_count(graph, cfg)
                )
                got = gt.loss_and_grads(prm, cfg, candidates, task_vec, graph,
                                        noise=noise if sampled else None)
                want = ref_loss_and_grads(prm, cfg, candidates, task_vec, graph, noise)
                assert (n < max_steps) == (want[0].n_group_sites == n + 1)
                assert_matches_reference(*got, *want, (graph, max_steps, sampled))


def sharpened_setup(dim, hidden, n_queries=60):
    provider, config, params, candidates = small_setup(dim, hidden, 8, seed=7, pool_size=16)
    # Sharpen the heads so that STOP, edge draws and the fallback all occur.
    params = {**params, "end_embed": params["end_embed"] * 4.0,
              "edge_head.l2.w": params["edge_head.l2.w"] * 3.0}
    task_vecs = provider.encode([f"query {q}: route and check" for q in range(n_queries)])
    return config, params, candidates, task_vecs


def edge_pass_probs(params, config, candidates, task_vecs, forced):
    """The edge pass of ``generate_graphs`` over a whole batch, split per
    query into one probability row per target step."""
    limit = config.max_steps if forced is None else forced
    z, _ = model_mod.project_task(params, task_vecs)
    matrix = model_mod.scoring_matrix(params, config, candidates)
    _, n_steps, p_edge = model_mod._decode_batch(params, matrix, z, limit, forced is None)
    bounds = np.cumsum([t for n in n_steps for t in range(1, n)])[:-1]
    rows = iter(np.split(p_edge, bounds))
    return [[next(rows) for _ in range(1, n)] for n in n_steps]


@pytest.mark.parametrize("dim,hidden", [(64, 32), (384, 64)])
def test_generate_matches_per_site_reference(dim, hidden):
    """``generate_graphs`` at batch sizes 1, 7 and all gives the reference's
    graphs, free-running and forced to 2-8 steps; ``generate_graph`` is its
    batch of one."""
    config, params, candidates, task_vecs = sharpened_setup(dim, hidden)
    seeds = list(range(len(task_vecs)))
    stopped = drawn = forced_edges = 0
    for forced in (None, *range(2, 9)):
        want = [ref_generate_graph(params, config, candidates, vec, q, forced)
                for q, vec in zip(seeds, task_vecs)]
        for size in (1, 7, len(seeds)):
            got = []
            for s in range(0, len(seeds), size):
                got += gt.generate_graphs(params, config, candidates, task_vecs[s : s + size],
                                          seeds[s : s + size], forced_steps=forced)
            assert got == want, (forced, size)
        assert gt.generate_graph(params, config, candidates, task_vecs[3], 3,
                                 forced_steps=forced) == want[3]
        stopped += sum(0 < g.n_steps < config.max_steps for g in want if forced is None)
        # Replay each query's draws: some steps get a drawn edge, some the fallback.
        for seed, rows in zip(seeds, edge_pass_probs(params, config, candidates,
                                                     task_vecs, forced)):
            rng = nn.make_rng(seed)
            for p in rows:
                hit = bool(np.any(rng.random(len(p)) < p))
                drawn += hit
                forced_edges += not hit
    assert stopped > 0 and drawn > 0 and forced_edges > 0


@pytest.mark.parametrize("dim,hidden", [(64, 32), (384, 64)])
def test_edge_pass_matches_per_site_probabilities(dim, hidden):
    """Every probability of the one-pass edge scoring, with ``edge_mlp.l1``
    split by input, is within relative 1e-12 of ``ref_edge_site``."""
    config, params, candidates, task_vecs = sharpened_setup(dim, hidden, n_queries=20)
    matrix = model_mod.scoring_matrix(params, config, candidates)
    checked = 0
    for forced in (None, 8):
        limit = config.max_steps if forced is None else forced
        got = edge_pass_probs(params, config, candidates, task_vecs, forced)
        for q, (task_vec, rows) in enumerate(zip(task_vecs, got)):
            z, _ = ref_project_task(params, task_vec)
            _, edge_sites, _ = ref_decode(
                params, matrix, config.pool_size, z, limit,
                itertools.repeat(np.zeros(dim)), rng=nn.make_rng(q),
                allow_stop=forced is None,
            )
            want = np.array([site[3] for site in edge_sites])
            have = np.concatenate([np.zeros(0), *rows])
            assert have.shape == want.shape, (forced, q)
            assert np.all(np.abs(have - want) <= 1e-12 * want), (forced, q)
            checked += len(want)
    assert checked > 0


def test_generation_never_reads_posterior_ls_heads():
    """Generation decodes at the posterior mean, so NaN in every weight of
    the ``enc_g.ls`` and ``enc_e.ls`` heads changes no graph and no edge
    probability."""
    config, params, candidates, task_vecs = sharpened_setup(64, 32, n_queries=20)
    blind = {name: np.full_like(value, np.nan) if name.startswith(("enc_g.ls.", "enc_e.ls."))
             else value for name, value in params.items()}
    assert sum(np.isnan(value).all() for value in blind.values()) == 4
    seeds = list(range(len(task_vecs)))
    for forced in (None, 2, 5, 8):
        want = gt.generate_graphs(params, config, candidates, task_vecs, seeds,
                                  forced_steps=forced)
        assert gt.generate_graphs(blind, config, candidates, task_vecs, seeds,
                                  forced_steps=forced) == want, forced
        for a, b in zip(edge_pass_probs(params, config, candidates, task_vecs, forced),
                        edge_pass_probs(blind, config, candidates, task_vecs, forced),
                        strict=True):
            assert all(np.array_equal(x, y) for x, y in zip(a, b, strict=True)), forced


# ---------------------------------------------------------------------------
# Minibatch against per-trajectory.


def assert_minibatch_matches_reference(params, config, candidates, task_vecs, graphs,
                                       noises, label):
    """The minibatch pass against one per-site reference call per trajectory:
    each breakdown to relative 1e-12, and every tensor of the summed gradient
    to 1e-12 of its largest entry."""
    breakdowns, grads = model_mod.minibatch_loss_and_grads(
        params, config, candidates, task_vecs, graphs, noises
    )
    assert len(breakdowns) == len(graphs)
    ref_grads = {}
    for b, (task_vec, graph, noise) in enumerate(zip(task_vecs, graphs, noises)):
        want, want_grads = ref_loss_and_grads(params, config, candidates, task_vec, graph, noise)
        assert_breakdown_matches(breakdowns[b], want, (label, b))
        for name, g in want_grads.items():
            nn.accumulate(ref_grads, name, g)
    assert_grads_match(grads, ref_grads, label)
    return breakdowns, grads


def bench_first_minibatch(seed):
    """The first minibatch of the benchmark's ``train`` workload: its 40
    trajectories of 1-8 steps, drawn as it draws them, in the order and with
    the noise that ``train`` gives them in epoch 0."""
    pool = gt.default_pool()
    config = gt.ModelConfig(pool_size=pool.size, seed=seed)
    provider = gt.HashingTextEmbedder(config.dim)
    rng = nn.make_rng(seed)

    def step_counts():
        while True:
            for idx in rng.permutation(config.max_steps):
                yield int(idx) + 1

    steps = step_counts()
    queries, graphs = [], []
    for _ in range(40):
        family = ("chain", "star", "full")[int(rng.integers(3))]
        graphs.append(gt.sample_candidate_topology(rng, pool.size, family, next(steps)))
        a, b = (int(v) for v in rng.integers(1, 100, size=2))
        queries.append(f"what is {a} {('plus', 'minus', 'times')[int(rng.integers(3))]} {b}")
    train_rng = nn.make_rng(seed)
    order = train_rng.permutation(len(graphs))
    graphs = [graphs[int(i)] for i in order]
    noises = [model_mod.trajectory_noise(train_rng, g, config) for g in graphs]
    task_vecs = provider.encode(queries)[order]
    candidates = gt.build_candidate_matrix(provider, pool)
    return config, gt.init_params(config), candidates, task_vecs, graphs, noises


@pytest.mark.parametrize("betas", [(0.0, 0.0), (0.7, 0.3)])
def test_minibatch_matches_reference_on_bench_minibatch(betas):
    config, params, candidates, task_vecs, graphs, noises = bench_first_minibatch(1)
    assert sorted({g.n_steps for g in graphs}) == list(range(1, 9))
    config = dataclasses.replace(config, beta_group=betas[0], beta_edge=betas[1])
    assert_minibatch_matches_reference(
        params, config, candidates, task_vecs, graphs, noises, betas
    )


def mixed_graphs(counts, pool_size, seed):
    rng = nn.make_rng(seed)
    families = itertools.cycle(("chain", "star", "full"))
    return [
        gt.sample_candidate_topology(rng, pool_size, next(families), n) for n in counts
    ]


@pytest.mark.parametrize("counts", [
    (1, 1, 1),                # only 1-step graphs: no edge rows at all
    (8, 8, 8),                # all at the budget: no STOP site
    (3, 1, 8, 5, 2, 7, 4, 6),  # one per step count, mixed
    (5,),                     # a minibatch of one
], ids=["one_step", "at_budget", "mixed", "single"])
def test_minibatch_edge_cases_match_reference(counts):
    provider, config, params, candidates = small_setup(16, 8, 8, seed=2)
    graphs = mixed_graphs(counts, config.pool_size, seed=len(counts))
    task_vecs = provider.encode([f"batch query {b}" for b in range(len(graphs))])
    noises = [model_mod.trajectory_noise(nn.make_rng(b), g, config)
              for b, g in enumerate(graphs)]
    breakdowns, _ = assert_minibatch_matches_reference(
        params, config, candidates, task_vecs, graphs, noises, counts,
    )
    assert [b.n_group_sites for b in breakdowns] == [min(n + 1, 8) for n in counts]
    assert [b.n_edge_sites for b in breakdowns] == [n * (n - 1) // 2 for n in counts]


def test_minibatch_gradient_matches_finite_differences():
    """Criterion 01's check, on the summed loss of a minibatch whose
    trajectories end at different steps, one of them at the budget."""
    provider, config, params, candidates = small_setup(8, 4, 4, seed=5, pool_size=4)
    graphs = mixed_graphs((2, 4, 1), config.pool_size, seed=9)
    task_vecs = provider.encode(["first query", "second query", "third query"])
    noises = [model_mod.trajectory_noise(nn.make_rng(20 + b), g, config)
              for b, g in enumerate(graphs)]

    def minibatch(p, compute_grads):
        return model_mod.minibatch_loss_and_grads(
            p, config, candidates, task_vecs, graphs, noises, compute_grads=compute_grads,
        )

    _, grads = minibatch(params, True)
    report = finite_diff_check(
        lambda p: sum(b.total for b in minibatch(p, False)[0]), params, grads, step=3e-4
    )
    assert report.max_rel_err < 1e-4, report
