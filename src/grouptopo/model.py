"""Autoregressive group-topology generator with a conditional latent bottleneck.

The model factorizes a graph's probability into per-step group selections and
per-pair edge decisions. Each step fuses a recurrent history summary with the
projected task vector through a scalar gate, refines the fused state, and
passes it through a stochastic bottleneck whose prior is conditioned on the
task. Selection scores come from similarity against the candidate matrix; a
learnable STOP row terminates generation.

All gradients are derived by hand; :func:`loss_and_grads` returns the exact
gradient of the teacher-forced objective for a fixed noise draw, which the
test suite verifies coordinate-by-coordinate against central differences.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import nn
from .embedding import CandidateMatrix
from .errors import ValidationError
from .graph import GroupGraph, check_graph_shape
from .nn import Grads, Params, accumulate, make_rng

LOG_SIGMA_MIN = -6.0
LOG_SIGMA_MAX = 2.0
LOG_FLOOR = 1e-12


@dataclass
class ModelConfig:
    """Shapes and objective weights; serialized into every checkpoint."""

    pool_size: int
    dim: int = 384
    hidden: int = 256
    max_steps: int = 8
    beta_group: float = 0.0
    beta_edge: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise ValidationError(f"pool_size must be >= 1, got {self.pool_size}")
        if self.dim < 1 or self.hidden < 1:
            raise ValidationError("dim and hidden must be positive")
        if self.max_steps < 1:
            raise ValidationError(f"max_steps must be >= 1, got {self.max_steps}")
        for name in ("beta_group", "beta_edge"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValidationError(
                    f"{name} must be finite and non-negative, got {value}"
                )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        if not isinstance(data, dict):
            raise ValidationError(f"model config must be an object, got {data!r}")
        values = {}
        for field in dataclasses.fields(cls):
            if field.name not in data:
                raise ValidationError(f"model config is missing '{field.name}'")
            value = values[field.name] = data[field.name]
            kinds = (int, float) if field.type == "float" else int
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValidationError(
                    f"model config '{field.name}' must be {field.type}, got {value!r}"
                )
        return cls(**values)


def _draw_order(config: ModelConfig) -> list[tuple[str | None, tuple[int, ...]]]:
    """Name and shape of every tensor :func:`init_params` draws, in order.

    The gated projections ``grp_gru`` and ``edge_gru`` draw a full GRU and
    keep only their gate tensors, so a seed gives the same numbers as when
    all three were GRUs. Tensors drawn and dropped have no name.
    """
    d, h = config.dim, config.hidden
    order: list[tuple[str | None, tuple[int, ...]]] = []

    def affine(prefix: str, n_out: int, n_in: int) -> None:
        order.append((f"{prefix}.w", (n_out, n_in)))
        order.append((f"{prefix}.b", (n_out,)))

    affine("task_ffn.l1", h, d)
    affine("task_ffn.l2", d, h)
    for prefix in ("his_gru", "grp_gru", "edge_gru"):
        for key in nn.GRU_SUFFIXES:
            kept = prefix == "his_gru" or key in nn.GATE_SUFFIXES
            shape = (d,) if key.startswith("b") else (d, d)
            order.append((f"{prefix}.{key}" if kept else None, shape))
    affine("edge_mlp.l1", h, 3 * d)
    affine("edge_mlp.l2", d, h)
    order.append(("step_embed", (config.max_steps, d)))
    for prefix in ("enc_g", "prior_g", "enc_e", "prior_e"):
        affine(f"{prefix}.mu", d, d)
        affine(f"{prefix}.ls", d, d)
    affine("edge_head.l1", h, d)
    affine("edge_head.l2", 1, h)
    order.append(("end_embed", (d,)))
    return order


def init_params(config: ModelConfig) -> Params:
    """Fresh parameters, seeded from ``config.seed``.

    Weight matrices, the step table and the STOP embedding are drawn at
    scale 1/sqrt(fan_in); biases start at zero.
    """
    rng = make_rng(config.seed)
    p: Params = {}
    for name, shape in _draw_order(config):
        if len(shape) == 2 or name == "end_embed":
            value = rng.normal(0.0, 1.0 / math.sqrt(shape[-1]), size=shape)
        else:
            value = np.zeros(shape)
        if name is not None:
            p[name] = value
    return p


def check_params(params: Params, config: ModelConfig) -> None:
    """Raise :class:`ValidationError` unless ``params`` has exactly the names
    and shapes that ``config`` implies; the message lists every mismatch."""
    expected = {name: shape for name, shape in _draw_order(config) if name}
    found = {name: value.shape for name, value in params.items()}
    wrong = [n for n in sorted(expected.keys() | found.keys())
             if expected.get(n) != found.get(n)]
    if wrong:
        raise ValidationError("parameters do not match the model config: " + ", ".join(
            f"{n} has shape {found.get(n)}, expected {expected.get(n)}" for n in wrong
        ))


# ---------------------------------------------------------------------------
# Diagonal Gaussians.


@dataclass(frozen=True)
class GaussianDiag:
    """Mean and log standard deviation, one scalar pair per coordinate."""

    mu: np.ndarray
    log_sigma: np.ndarray

    @classmethod
    def standard(cls, dim: int) -> "GaussianDiag":
        return cls(mu=np.zeros(dim), log_sigma=np.zeros(dim))


def kl_diag(q: GaussianDiag, p: GaussianDiag) -> float:
    """KL(q || p) between diagonal Gaussians, in nats."""
    lq, lp = q.log_sigma, p.log_sigma
    diff = q.mu - p.mu
    terms = lp - lq + 0.5 * (np.exp(2.0 * lq) + diff * diff) * np.exp(-2.0 * lp) - 0.5
    return float(np.sum(terms))


def _kl_diag_backward(
    q: GaussianDiag, p: GaussianDiag, weight: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``weight * KL(q || p)`` wrt (mu_q, ls_q, mu_p, ls_p)."""
    lq, lp = q.log_sigma, p.log_sigma
    diff = q.mu - p.mu
    inv_var_p = np.exp(-2.0 * lp)
    d_mu_q = weight * diff * inv_var_p
    d_ls_q = weight * (np.exp(2.0 * lq - 2.0 * lp) - 1.0)
    d_ls_p = weight * (1.0 - (np.exp(2.0 * lq) + diff * diff) * inv_var_p)
    return d_mu_q, d_ls_q, -d_mu_q, d_ls_p


def reparameterize(dist: GaussianDiag, eps: np.ndarray) -> np.ndarray:
    """Pathwise sample ``mu + exp(log_sigma) * eps``; eps = 0 gives the mean."""
    return dist.mu + np.exp(dist.log_sigma) * eps


# ---------------------------------------------------------------------------
# Forward building blocks (each with a cache consumed by the backward pass).


@dataclass
class _BottleneckCache:
    x: np.ndarray
    ls_raw: np.ndarray


def _bottleneck(
    params: Params, prefix: str, x: np.ndarray
) -> tuple[GaussianDiag, _BottleneckCache]:
    mu = nn.affine(params, f"{prefix}.mu", x)
    ls_raw = nn.affine(params, f"{prefix}.ls", x)
    ls = np.clip(ls_raw, LOG_SIGMA_MIN, LOG_SIGMA_MAX)
    return GaussianDiag(mu=mu, log_sigma=ls), _BottleneckCache(x=x, ls_raw=ls_raw)


def _bottleneck_backward(
    params: Params,
    prefix: str,
    cache: _BottleneckCache,
    d_mu: np.ndarray,
    d_ls: np.ndarray,
    grads: Grads,
) -> np.ndarray:
    # The clamp blocks gradient outside the open interval.
    inside = (cache.ls_raw > LOG_SIGMA_MIN) & (cache.ls_raw < LOG_SIGMA_MAX)
    d_ls_raw = np.where(inside, d_ls, 0.0)
    dx = nn.affine_backward(params, f"{prefix}.mu", cache.x, d_mu, grads)
    dx += nn.affine_backward(params, f"{prefix}.ls", cache.x, d_ls_raw, grads)
    return dx


def conditional_prior(params: Params, prefix: str, z: np.ndarray) -> GaussianDiag:
    """The Gaussian head under ``prefix``: the task-conditioned prior for
    "prior_g"/"prior_e", the posterior for "enc_g"/"enc_e". All-zero weights
    give the standard normal."""
    dist, _ = _bottleneck(params, prefix, z)
    return dist


@dataclass
class _TaskCache:
    x: np.ndarray
    a1: np.ndarray
    h1: np.ndarray


def project_task(params: Params, task_vec: np.ndarray) -> tuple[np.ndarray, _TaskCache]:
    """Two-layer projection of the raw sentence vector into model space."""
    x = np.asarray(task_vec, dtype=np.float64)
    a1 = nn.affine(params, "task_ffn.l1", x)
    h1 = nn.relu(a1)
    z = nn.affine(params, "task_ffn.l2", h1)
    return z, _TaskCache(x=x, a1=a1, h1=h1)


def _project_task_backward(
    params: Params, cache: _TaskCache, dz: np.ndarray, grads: Grads
) -> None:
    dh1 = nn.affine_backward(params, "task_ffn.l2", cache.h1, dz, grads)
    da1 = nn.relu_backward(cache.a1, dh1)
    nn.affine_backward(params, "task_ffn.l1", cache.x, da1, grads)


@dataclass(frozen=True)
class StepState:
    """Per-step fusion output: history summary, gate value, fused vector."""

    history: np.ndarray
    gate: float
    fused: np.ndarray


@dataclass
class _FuseCache:
    h_his: np.ndarray
    z: np.ndarray
    step: int
    gate: float
    scale: float


def fuse_step(
    params: Params, h_his: np.ndarray, z: np.ndarray, step: int
) -> tuple[StepState, _FuseCache]:
    """Gate the history summary against the task vector, add step embedding.

    The gate is sigmoid(<h_his, z> / sqrt(dim)), a scalar; the fused state is
    ``(1 - g) * h_his + g * z + step_embed[step]``.
    """
    table = params["step_embed"]
    if not 0 <= step < table.shape[0]:
        raise ValidationError(
            f"step {step} outside the embedding table ({table.shape[0]} rows)"
        )
    scale = 1.0 / math.sqrt(z.shape[0])
    raw = float(h_his @ z) * scale
    gate = float(nn.sigmoid(np.array([raw]))[0])
    fused = (1.0 - gate) * h_his + gate * z + table[step]
    state = StepState(history=h_his, gate=gate, fused=fused)
    return state, _FuseCache(h_his=h_his, z=z, step=step, gate=gate, scale=scale)


def _fuse_backward(
    cache: _FuseCache, d_fused: np.ndarray, grads: Grads, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Returns (d_h_his, d_z); accumulates the step-embedding gradient."""
    if "step_embed" not in grads:
        grads["step_embed"] = np.zeros_like(table)
    grads["step_embed"][cache.step] += d_fused
    g = cache.gate
    d_gate = float(d_fused @ (cache.z - cache.h_his))
    d_h = (1.0 - g) * d_fused
    d_z = g * d_fused
    d_raw = d_gate * g * (1.0 - g)
    d_h = d_h + d_raw * cache.scale * cache.z
    d_z = d_z + d_raw * cache.scale * cache.h_his
    return d_h, d_z


def scoring_matrix(params: Params, candidates: CandidateMatrix) -> np.ndarray:
    """Candidate rows with the learnable STOP embedding swapped in."""
    if candidates.dim != params["end_embed"].shape[0]:
        raise ValidationError(
            f"candidate dim {candidates.dim} does not match model dim "
            f"{params['end_embed'].shape[0]}"
        )
    matrix = candidates.matrix.copy()
    matrix[candidates.end_index] = params["end_embed"]
    return matrix


# ---------------------------------------------------------------------------
# Group-selection and edge sites.


@dataclass
class _LatentCache:
    gate_prefix: str
    enc_prefix: str
    gate: nn.GateCache
    enc: _BottleneckCache
    q: GaussianDiag
    eps: np.ndarray
    code: np.ndarray


def _latent(
    params: Params, gate_prefix: str, enc_prefix: str, x: np.ndarray, eps: np.ndarray
) -> tuple[np.ndarray, _LatentCache]:
    """A site's bottleneck: gated projection, posterior, pathwise sample."""
    x_gated, gate_cache = nn.gate_step(params, gate_prefix, x)
    q, enc_cache = _bottleneck(params, enc_prefix, x_gated)
    code = reparameterize(q, eps)
    return code, _LatentCache(
        gate_prefix=gate_prefix, enc_prefix=enc_prefix, gate=gate_cache,
        enc=enc_cache, q=q, eps=eps, code=code,
    )


def _latent_backward(
    params: Params,
    cache: _LatentCache,
    d_code: np.ndarray,
    kl_weight: float,
    prior: GaussianDiag,
    prior_acc: list[np.ndarray],
    grads: Grads,
) -> np.ndarray:
    """Backward through :func:`_latent` plus ``kl_weight`` * KL(q || prior);
    accumulates the prior's gradient into ``prior_acc``, returns d x."""
    d_mu = d_code.copy()
    d_ls = d_code * cache.eps * np.exp(cache.q.log_sigma)
    if kl_weight != 0.0:
        kq_mu, kq_ls, kp_mu, kp_ls = _kl_diag_backward(cache.q, prior, kl_weight)
        d_mu += kq_mu
        d_ls += kq_ls
        prior_acc[0] += kp_mu
        prior_acc[1] += kp_ls
    dx = _bottleneck_backward(params, cache.enc_prefix, cache.enc, d_mu, d_ls, grads)
    return nn.gate_backward(params, cache.gate_prefix, cache.gate, dx, grads)


def _group_site(
    params: Params, matrix: np.ndarray, fused: np.ndarray, eps: np.ndarray
) -> tuple[np.ndarray, _LatentCache]:
    code, latent = _latent(params, "grp_gru", "enc_g", fused, eps)
    return nn.softmax(matrix @ code), latent


@dataclass
class _EdgeSiteCache:
    features: np.ndarray
    a1: np.ndarray
    h1: np.ndarray
    latent: _LatentCache
    head_a: np.ndarray
    head_h: np.ndarray
    prob: float


def _edge_site(
    params: Params,
    fused_source: np.ndarray,
    group_vec: np.ndarray,
    z: np.ndarray,
    eps: np.ndarray,
) -> tuple[float, _EdgeSiteCache]:
    features = np.concatenate([fused_source, group_vec, z])
    a1 = nn.affine(params, "edge_mlp.l1", features)
    h1 = nn.relu(a1)
    x_pre = nn.affine(params, "edge_mlp.l2", h1)
    code, latent = _latent(params, "edge_gru", "enc_e", x_pre, eps)
    head_a = nn.affine(params, "edge_head.l1", code)
    head_h = nn.relu(head_a)
    logit = float(nn.affine(params, "edge_head.l2", head_h)[0])
    prob = float(nn.sigmoid(np.array([logit]))[0])
    return prob, _EdgeSiteCache(
        features=features, a1=a1, h1=h1, latent=latent,
        head_a=head_a, head_h=head_h, prob=prob,
    )


def _edge_site_backward(
    params: Params,
    cache: _EdgeSiteCache,
    d_logit: float,
    kl_weight: float,
    prior: GaussianDiag,
    prior_acc: list[np.ndarray],
    grads: Grads,
) -> tuple[np.ndarray, np.ndarray]:
    """Backward for one edge site; returns (d_fused_source, d_z)."""
    dim = cache.latent.code.shape[0]
    d_head_h = nn.affine_backward(
        params, "edge_head.l2", cache.head_h, np.array([d_logit]), grads
    )
    d_head_a = nn.relu_backward(cache.head_a, d_head_h)
    d_code = nn.affine_backward(
        params, "edge_head.l1", cache.latent.code, d_head_a, grads
    )
    dx_pre = _latent_backward(
        params, cache.latent, d_code, kl_weight, prior, prior_acc, grads
    )
    dh1 = nn.affine_backward(params, "edge_mlp.l2", cache.h1, dx_pre, grads)
    da1 = nn.relu_backward(cache.a1, dh1)
    d_features = nn.affine_backward(params, "edge_mlp.l1", cache.features, da1, grads)
    # Feature layout: [fused_source, group embedding (frozen), task vector].
    return d_features[:dim], d_features[2 * dim :]


def predict_group(
    params: Params, candidates: CandidateMatrix, fused: np.ndarray
) -> np.ndarray:
    """Selection probabilities over the K groups plus the STOP entry, from
    the posterior mean."""
    matrix = scoring_matrix(params, candidates)
    probs, _ = _group_site(params, matrix, fused, np.zeros(fused.shape[0]))
    return probs


def predict_edge(
    params: Params, fused_source: np.ndarray, group_vec: np.ndarray, z: np.ndarray
) -> float:
    """Probability of wiring an earlier step into the current group, from the
    posterior mean."""
    prob, _ = _edge_site(params, fused_source, group_vec, z, np.zeros(z.shape[0]))
    return prob


# ---------------------------------------------------------------------------
# The step loop, shared by generation and the teacher-forced objective.


def _as_rng(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return make_rng(int(seed))


# step, choice, fusion cache, selection probabilities, latent cache
_GroupSite = tuple[int, int, _FuseCache, np.ndarray, _LatentCache]
_EdgeSite = tuple[int, int, int, _EdgeSiteCache]  # source, step, edge taken


def _decode(
    params: Params,
    matrix: np.ndarray,
    end_index: int,
    z: np.ndarray,
    limit: int,
    *,
    eps: Iterator[np.ndarray],
    graph: GroupGraph | None = None,
    rng: np.random.Generator | None = None,
    allow_stop: bool = True,
) -> tuple[list[_GroupSite], list[_EdgeSite], list[nn.GruCache]]:
    """Run at most ``limit`` steps of the autoregressive decoder.

    Each step fuses the history with ``z``, scores the group site, scores
    one edge site per earlier step against the chosen group, and folds that
    group into the history. With ``graph`` the choices are the graph's own
    (teacher forcing), and STOP is the target after its last step. Without
    it they are made as :func:`generate_graph` describes, with STOP only
    when ``allow_stop``. Each site takes its latent noise from ``eps``.

    Returns the group sites, the edge sites and the history-fold caches,
    each in order.
    """
    group_sites: list[_GroupSite] = []
    edge_sites: list[_EdgeSite] = []
    his_caches: list[nn.GruCache] = []
    edge_set = set(graph.edges) if graph is not None else set()
    history = np.zeros(z.shape[0])
    fused_states: list[np.ndarray] = []
    for t in range(limit):
        state, fuse_cache = fuse_step(params, history, z, t)
        probs, latent = _group_site(params, matrix, state.fused, next(eps))
        if graph is not None:
            choice = graph.selected[t] if t < graph.n_steps else end_index
        elif allow_stop:
            choice = int(np.argmax(probs))
        else:
            choice = int(np.argmax(probs[:end_index]))
        group_sites.append((t, choice, fuse_cache, probs, latent))
        if choice == end_index:
            break
        group_vec = matrix[choice]
        sites = []
        for i in range(t):
            prob, e_cache = _edge_site(
                params, fused_states[i], group_vec, z, next(eps)
            )
            if graph is not None:
                label = (i, t) in edge_set
            else:
                label = rng.random() < prob
            sites.append((i, t, int(label), e_cache))
        if graph is None and sites and not any(site[2] for site in sites):
            # Connectivity fallback: force the most likely source.
            best = max(range(t), key=lambda i: sites[i][3].prob)
            sites[best] = (best, t, 1, sites[best][3])
        edge_sites.extend(sites)
        fused_states.append(state.fused)
        history, his_cache = nn.gru_step(params, "his_gru", group_vec, history)
        his_caches.append(his_cache)
    return group_sites, edge_sites, his_caches


def generate_graph(
    params: Params,
    config: ModelConfig,
    candidates: CandidateMatrix,
    task_vec: np.ndarray,
    seed: int | np.random.Generator = 0,
    *,
    forced_steps: int | None = None,
) -> GroupGraph:
    """Sample one group graph autoregressively.

    Group selection is greedy over the mean-latent probabilities (ties go to
    the lowest index); edges are Bernoulli draws, with the single
    highest-probability edge forced whenever a later step would otherwise be
    unreachable. Generation stops at STOP or at ``config.max_steps``
    (``truncated`` marks the latter).

    ``forced_steps`` suppresses STOP and runs exactly that many steps; it is
    capped by the step-embedding table, so it must not exceed
    ``config.max_steps``.
    """
    if candidates.pool_size != config.pool_size:
        raise ValidationError(
            f"candidate pool size {candidates.pool_size} does not match "
            f"config pool_size {config.pool_size}"
        )
    limit = config.max_steps
    if forced_steps is not None:
        if not 1 <= forced_steps <= config.max_steps:
            raise ValidationError(
                f"forced_steps must be in [1, {config.max_steps}], got {forced_steps}"
            )
        limit = forced_steps
    rng = _as_rng(seed)
    matrix = scoring_matrix(params, candidates)
    z, _ = project_task(params, task_vec)
    group_sites, edge_sites, _ = _decode(
        params, matrix, candidates.end_index, z, limit,
        eps=itertools.repeat(np.zeros(config.dim)), rng=rng,
        allow_stop=forced_steps is None,
    )
    choices = [site[1] for site in group_sites]
    stopped = choices[-1] == candidates.end_index
    return GroupGraph(
        selected=tuple(choices[:-1] if stopped else choices),
        edges=tuple((i, t) for i, t, taken, _ in edge_sites if taken),
        truncated=forced_steps is None and not stopped,
    )


# ---------------------------------------------------------------------------
# Likelihood and the teacher-forced objective.


def graph_log_likelihood(
    params: Params,
    config: ModelConfig,
    candidates: CandidateMatrix,
    task_vec: np.ndarray,
    graph: GroupGraph,
) -> float:
    """Log probability of ``graph`` under mean-latent decoding.

    Sums the log of each step's selection probability and of every pairwise
    edge decision (presence or absence). A STOP factor applies only when the
    graph ends before ``max_steps``; length-``max_steps`` graphs terminate by
    budget, so the measure over the whole outcome space sums to one.
    """
    breakdown, _ = loss_and_grads(
        params, config, candidates, task_vec, graph, compute_grads=False
    )
    return -(breakdown.group_nll + breakdown.edge_bce)


@dataclass
class LossBreakdown:
    group_nll: float
    edge_bce: float
    kl_group: float
    kl_edge: float
    beta_group: float
    beta_edge: float
    n_group_sites: int
    n_edge_sites: int

    @property
    def total(self) -> float:
        return (
            self.group_nll
            + self.edge_bce
            + self.beta_group * self.kl_group
            + self.beta_edge * self.kl_edge
        )


def trajectory_noise(
    rng: np.random.Generator, graph: GroupGraph, config: ModelConfig
) -> list[np.ndarray]:
    """Draw the latent noise for every site of a teacher-forced pass.

    Site order is fixed: for each step, the selection site first, then its
    edge sites by ascending source; the STOP site (present when the graph
    ends before the budget) comes last. The draw count depends only on the
    graph shape, so a fixed seed yields the same noise for any parameters.
    """
    return [rng.standard_normal(config.dim) for _ in range(_site_count(graph, config))]


def _site_count(graph: GroupGraph, config: ModelConfig) -> int:
    """Selection sites, edge sites and the STOP site of a teacher-forced pass."""
    n = graph.n_steps
    return n + n * (n - 1) // 2 + (n < config.max_steps)


def loss_and_grads(
    params: Params,
    config: ModelConfig,
    candidates: CandidateMatrix,
    task_vec: np.ndarray,
    graph: GroupGraph,
    *,
    beta_group: float | None = None,
    beta_edge: float | None = None,
    noise: list[np.ndarray] | None = None,
    rng: np.random.Generator | int | None = None,
    compute_grads: bool = True,
) -> tuple[LossBreakdown, Grads]:
    """Teacher-forced loss for one trajectory, with exact gradients.

    The objective is selection NLL + edge BCE + weighted KL between the
    latent posteriors and the task-conditioned priors. Noise can be passed
    explicitly (one vector per site, see :func:`trajectory_noise`) or drawn
    from ``rng``; with neither, the posterior means are used.
    """
    if beta_group is None:
        beta_group = config.beta_group
    if beta_edge is None:
        beta_edge = config.beta_edge
    # Shape only: a step without an incoming edge still has probability mass.
    check_graph_shape(graph, config.pool_size, config.max_steps)
    n = graph.n_steps
    n_sites = _site_count(graph, config)
    if noise is None and rng is not None:
        noise = trajectory_noise(_as_rng(rng), graph, config)
    elif noise is None:
        noise = [np.zeros(config.dim)] * n_sites
    if len(noise) < n_sites:
        raise ValidationError("noise stream shorter than the site count")

    matrix = scoring_matrix(params, candidates)
    end_index = candidates.end_index
    z, task_cache = project_task(params, task_vec)
    prior_g, prior_g_cache = _bottleneck(params, "prior_g", z)
    prior_e, prior_e_cache = _bottleneck(params, "prior_e", z)
    group_sites, edge_sites, his_caches = _decode(
        params, matrix, end_index, z, min(n + 1, config.max_steps),
        eps=iter(noise), graph=graph,
    )

    group_nll = 0.0
    edge_bce = 0.0
    kl_group = 0.0
    kl_edge = 0.0
    for _, target, _, probs, latent in group_sites:
        group_nll += -math.log(max(float(probs[target]), LOG_FLOOR))
        kl_group += kl_diag(latent.q, prior_g)
    for _, _, label, e_cache in edge_sites:
        p_event = e_cache.prob if label else 1.0 - e_cache.prob
        edge_bce += -math.log(max(p_event, LOG_FLOOR))
        kl_edge += kl_diag(e_cache.latent.q, prior_e)

    breakdown = LossBreakdown(
        group_nll=group_nll,
        edge_bce=edge_bce,
        kl_group=kl_group,
        kl_edge=kl_edge,
        beta_group=beta_group,
        beta_edge=beta_edge,
        n_group_sites=len(group_sites),
        n_edge_sites=len(edge_sites),
    )
    if not compute_grads:
        return breakdown, {}

    grads: Grads = {}
    d_fused_acc = [np.zeros(config.dim) for _ in group_sites]
    d_state_acc = [np.zeros(config.dim) for _ in range(n + 1)]
    dz = np.zeros(config.dim)
    prior_g_acc = [np.zeros(config.dim), np.zeros(config.dim)]
    prior_e_acc = [np.zeros(config.dim), np.zeros(config.dim)]

    for site_idx, (_, target, _, probs, latent) in enumerate(group_sites):
        if float(probs[target]) > LOG_FLOOR:
            d_logits = probs.copy()
            d_logits[target] -= 1.0
        else:
            d_logits = np.zeros(end_index + 1)
        # The STOP row of the scoring matrix is the learnable end_embed.
        accumulate(grads, "end_embed", d_logits[end_index] * latent.code)
        d_fused_acc[site_idx] += _latent_backward(
            params, latent, matrix.T @ d_logits, beta_group, prior_g,
            prior_g_acc, grads,
        )

    for i, t, label, e_cache in edge_sites:
        p = e_cache.prob
        p_event = p if label else 1.0 - p
        d_logit = (p - float(label)) if p_event > LOG_FLOOR else 0.0
        d_src, d_z_part = _edge_site_backward(
            params, e_cache, d_logit, beta_edge, prior_e, prior_e_acc, grads
        )
        d_fused_acc[i] += d_src
        dz += d_z_part

    # Fusion sites, in any order; each feeds one history state and z.
    for site_idx, (t, _, fuse_cache, _, _) in enumerate(group_sites):
        d_his, d_z_part = _fuse_backward(
            fuse_cache, d_fused_acc[site_idx], grads, params["step_embed"]
        )
        d_state_acc[t] += d_his
        dz += d_z_part

    # Backprop through time over the history fold. State 0 is a constant.
    carry = np.zeros(config.dim)
    for j in range(n - 1, -1, -1):
        total = carry + d_state_acc[j + 1]
        _, carry = nn.gru_backward(params, "his_gru", his_caches[j], total, grads)

    # Task-conditioned priors, then the task projection itself.
    dz += _bottleneck_backward(
        params, "prior_g", prior_g_cache, prior_g_acc[0], prior_g_acc[1], grads
    )
    dz += _bottleneck_backward(
        params, "prior_e", prior_e_cache, prior_e_acc[0], prior_e_acc[1], grads
    )
    _project_task_backward(params, task_cache, dz, grads)

    return breakdown, grads
