"""Oracle for the row-batched site passes in ``model.py``.

The per-site teacher-forced loss and the per-site generator that scored one
group or edge site at a time are kept here as the reference, written against
the ``nn`` kernels with one input vector per call. The batched code must give
the same loss and gradients, to relative 1e-12 per gradient tensor, and the
same generated graphs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import grouptopo as gt
from grouptopo import model as model_mod
from grouptopo import nn
from grouptopo.model import LOG_FLOOR, LOG_SIGMA_MAX, LOG_SIGMA_MIN
from grouptopo.training import family_edges

# ---------------------------------------------------------------------------
# The per-site reference.


def ref_bottleneck(params, prefix, x):
    mu = nn.affine(params, f"{prefix}.mu", x)
    ls_raw = nn.affine(params, f"{prefix}.ls", x)
    ls = np.clip(ls_raw, LOG_SIGMA_MIN, LOG_SIGMA_MAX)
    return gt.GaussianDiag(mu=mu, log_sigma=ls), (x, ls_raw)


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
    code = gt.reparameterize(q, eps)
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
    matrix = model_mod.scoring_matrix(params, candidates)
    z, _ = ref_project_task(params, task_vec)
    limit = config.max_steps if forced_steps is None else forced_steps
    eps = itertools.repeat(np.zeros(config.dim))
    group_sites, edge_sites, _ = ref_decode(
        params, matrix, candidates.end_index, z, limit, eps, rng=nn.make_rng(seed),
        allow_stop=forced_steps is None,
    )
    choices = [site[1] for site in group_sites]
    stopped = choices[-1] == candidates.end_index
    return gt.GroupGraph(
        selected=tuple(choices[:-1] if stopped else choices),
        edges=tuple((i, t) for i, t, taken, _, _ in edge_sites if taken),
        truncated=forced_steps is None and not stopped,
    )


def ref_loss_and_grads(params, config, candidates, task_vec, graph, beta_group,
                       beta_edge, noise):
    dim, n = config.dim, graph.n_steps
    matrix = model_mod.scoring_matrix(params, candidates)
    end_index = candidates.end_index
    z, (x, a1, h1) = ref_project_task(params, task_vec)
    prior_g, prior_g_cache = ref_bottleneck(params, "prior_g", z)
    prior_e, prior_e_cache = ref_bottleneck(params, "prior_e", z)
    group_sites, edge_sites, his_caches = ref_decode(
        params, matrix, end_index, z, min(n + 1, config.max_steps), iter(noise), graph
    )
    group_nll = edge_bce = kl_group = kl_edge = 0.0
    for _, target, _, probs, latent, _ in group_sites:
        group_nll += -math.log(max(float(probs[target]), LOG_FLOOR))
        kl_group += gt.kl_diag(latent[4], prior_g)
    for _, _, label, prob, e_cache in edge_sites:
        edge_bce += -math.log(max(prob if label else 1.0 - prob, LOG_FLOOR))
        kl_edge += gt.kl_diag(e_cache[3][4], prior_e)
    breakdown = gt.LossBreakdown(
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
        _, carry = nn.gru_backward(params, "his_gru", his_caches[j], total, grads)
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
    for field in ("group_nll", "edge_bce", "kl_group", "kl_edge"):
        got, want = getattr(breakdown, field), getattr(ref_breakdown, field)
        assert abs(got - want) <= 1e-12 * abs(want), (label, field, got, want)
    for field in ("beta_group", "beta_edge", "n_group_sites", "n_edge_sites"):
        assert getattr(breakdown, field) == getattr(ref_breakdown, field), (label, field)
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
                want = ref_loss_and_grads(prm, cfg, candidates, task_vec, graph,
                                          cfg.beta_group, cfg.beta_edge, noise)
                assert (n < max_steps) == (want[0].n_group_sites == n + 1)
                assert_matches_reference(*got, *want, (graph, max_steps, sampled))


@pytest.mark.parametrize("dim,hidden", [(64, 32), (384, 64)])
def test_generate_matches_per_site_reference(dim, hidden):
    provider, config, params, candidates = small_setup(dim, hidden, 8, seed=7, pool_size=16)
    # Sharpen the heads so that STOP, edge draws and the fallback all occur.
    params = {**params, "end_embed": params["end_embed"] * 4.0,
              "edge_head.l2.w": params["edge_head.l2.w"] * 3.0}
    task_vecs = provider.encode([f"query {q}: route and check" for q in range(60)])
    stopped = 0
    for q, task_vec in enumerate(task_vecs):
        for forced in (None, 2, 5, 8):
            got = gt.generate_graph(params, config, candidates, task_vec, q,
                                    forced_steps=forced)
            want = ref_generate_graph(params, config, candidates, task_vec, q, forced)
            assert got == want, (q, forced)
            stopped += forced is None and not got.truncated
    assert stopped > 0
