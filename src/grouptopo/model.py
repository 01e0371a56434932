"""Autoregressive group-topology generator with a conditional latent bottleneck.

The model factorizes a graph's probability into per-step group selections and
per-pair edge decisions. Each step fuses a recurrent history summary with the
projected task vector through a scalar gate, refines the fused state, and
passes it through a stochastic bottleneck whose prior is conditioned on the
task. Selection scores come from similarity against the candidate matrix; a
learnable STOP row terminates generation.

Every site function takes one site per row. Under teacher forcing the
history depends only on the graph's own selections, so :func:`loss_and_grads`
folds the history first and then scores all group sites in one pass and all
edge sites in another; :func:`generate_graph` runs the same functions step by
step, with one group row and one edge row per earlier step.

All gradients are derived by hand; :func:`loss_and_grads` returns the exact
gradient of the teacher-forced objective for a fixed noise draw, which the
test suite verifies coordinate-by-coordinate against central differences.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

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
    and shapes that ``config`` implies and only finite values; the message
    lists every mismatch."""
    expected = {name: shape for name, shape in _draw_order(config) if name}
    found = {name: value.shape for name, value in params.items()}
    wrong = [n for n in sorted(expected.keys() | found.keys())
             if expected.get(n) != found.get(n)]
    if wrong:
        raise ValidationError("parameters do not match the model config: " + ", ".join(
            f"{n} has shape {found.get(n)}, expected {expected.get(n)}" for n in wrong
        ))
    non_finite = [n for n in sorted(params) if not np.all(np.isfinite(params[n]))]
    if non_finite:
        raise ValidationError(
            "parameters hold NaN or infinite values: " + ", ".join(non_finite)
        )


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
class _MlpCache:
    x: np.ndarray
    a1: np.ndarray
    h1: np.ndarray


def _mlp(params: Params, prefix: str, x: np.ndarray) -> tuple[np.ndarray, _MlpCache]:
    """Two affine layers ``l1`` and ``l2`` under ``prefix`` with a ReLU between."""
    a1 = nn.affine(params, f"{prefix}.l1", x)
    h1 = nn.relu(a1)
    return nn.affine(params, f"{prefix}.l2", h1), _MlpCache(x=x, a1=a1, h1=h1)


def _mlp_backward(
    params: Params, prefix: str, cache: _MlpCache, d_out: np.ndarray, grads: Grads
) -> np.ndarray:
    dh1 = nn.affine_backward(params, f"{prefix}.l2", cache.h1, d_out, grads)
    da1 = nn.relu_backward(cache.a1, dh1)
    return nn.affine_backward(params, f"{prefix}.l1", cache.x, da1, grads)


def project_task(params: Params, task_vec: np.ndarray) -> tuple[np.ndarray, _MlpCache]:
    """Two-layer projection of the raw sentence vector into model space."""
    return _mlp(params, "task_ffn", np.asarray(task_vec, dtype=np.float64))


@dataclass
class _FuseCache:
    h_his: np.ndarray
    z: np.ndarray
    step: np.ndarray
    gate: np.ndarray
    scale: float


def fuse_step(
    params: Params, h_his: np.ndarray, z: np.ndarray, step: int | np.ndarray
) -> tuple[np.ndarray, _FuseCache]:
    """Gate the history summary against the task vector, add step embedding.

    ``h_his`` is one history vector at step ``step``, or one row per step
    with ``step`` the array of step indices. Per row the gate is
    sigmoid(<h_his, z> / sqrt(dim)), a scalar kept in the cache, and the
    fused state is ``(1 - g) * h_his + g * z + step_embed[step]``.
    """
    table = params["step_embed"]
    steps = np.asarray(step)
    if steps.size and not (steps.min() >= 0 and steps.max() < table.shape[0]):
        raise ValidationError(
            f"step {step} outside the embedding table ({table.shape[0]} rows)"
        )
    scale = 1.0 / math.sqrt(z.shape[0])
    gate = nn.sigmoid(np.asarray(h_his @ z * scale)[..., None])
    fused = (1.0 - gate) * h_his + gate * z + table[steps]
    return fused, _FuseCache(h_his=h_his, z=z, step=steps, gate=gate, scale=scale)


def _fuse_backward(
    cache: _FuseCache, d_fused: np.ndarray, grads: Grads, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Backward through a row-batched :func:`fuse_step`. Returns (d_h_his,
    d_z), with d_z summed over the rows; adds the step-embedding gradient."""
    d_table = np.zeros_like(table)
    np.add.at(d_table, cache.step, d_fused)
    accumulate(grads, "step_embed", d_table)
    g, h, z = cache.gate, cache.h_his, cache.z
    d_raw = np.sum(d_fused * (z - h), axis=-1, keepdims=True) * g * (1.0 - g)
    d_h = (1.0 - g) * d_fused + d_raw * cache.scale * z
    d_z = g * d_fused + d_raw * cache.scale * h
    return d_h, d_z.sum(axis=0)


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
# Group-selection and edge sites. Every function takes one site per row, so a
# pass scores all the sites of one kind at once.


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
    """The sites' bottleneck: gated projection, posterior, pathwise sample."""
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
    grads: Grads,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward through :func:`_latent` plus ``kl_weight`` * KL(q || prior)
    summed over the rows. Returns d x and the prior's (d_mu, d_log_sigma)."""
    kq_mu, kq_ls, kp_mu, kp_ls = _kl_diag_backward(cache.q, prior, kl_weight)
    d_mu = d_code + kq_mu
    d_ls = d_code * cache.eps * np.exp(cache.q.log_sigma) + kq_ls
    dx = _bottleneck_backward(params, cache.enc_prefix, cache.enc, d_mu, d_ls, grads)
    dx = nn.gate_backward(params, cache.gate_prefix, cache.gate, dx, grads)
    return dx, kp_mu.sum(axis=0), kp_ls.sum(axis=0)


def _group_sites(
    params: Params, matrix: np.ndarray, fused: np.ndarray, eps: np.ndarray
) -> tuple[np.ndarray, _LatentCache]:
    """Selection probabilities over the K groups and STOP, per fused row."""
    code, latent = _latent(params, "grp_gru", "enc_g", fused, eps)
    return nn.softmax(code @ matrix.T), latent


def _edge_sites(
    params: Params, features: np.ndarray, eps: np.ndarray
) -> tuple[np.ndarray, tuple[_MlpCache, _LatentCache, _MlpCache]]:
    """Edge probabilities, one per row of ``features``: the source step's
    fused state, the target's group embedding and the task vector."""
    x_pre, mlp_cache = _mlp(params, "edge_mlp", features)
    code, latent = _latent(params, "edge_gru", "enc_e", x_pre, eps)
    logit, head_cache = _mlp(params, "edge_head", code)
    return nn.sigmoid(logit[:, 0]), (mlp_cache, latent, head_cache)


def _edge_features(
    fused: np.ndarray, sources: np.ndarray, group_rows: np.ndarray, z: np.ndarray
) -> np.ndarray:
    return np.concatenate(
        [fused[sources], group_rows, np.broadcast_to(z, group_rows.shape)], axis=1
    )


# ---------------------------------------------------------------------------
# Generation.


def _as_rng(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return make_rng(int(seed))


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

    Each step fuses the history with the task vector, scores its group site,
    scores one edge site per earlier step against the chosen group, and
    folds that group into the history. Group selection is greedy over the
    mean-latent probabilities (ties go to the lowest index); edges are
    Bernoulli draws in source order, with the single highest-probability
    edge forced whenever a later step would otherwise be unreachable.
    Generation stops at STOP or at ``config.max_steps`` (``truncated`` marks
    the latter).

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
    end_index = candidates.end_index
    z, _ = project_task(params, task_vec)
    zeros = np.zeros((limit, config.dim))
    fused = np.zeros((limit, config.dim))
    history = np.zeros(config.dim)
    selected: list[int] = []
    edges: list[tuple[int, int]] = []
    for t in range(limit):
        fused[t], _ = fuse_step(params, history, z, t)
        probs, _ = _group_sites(params, matrix, fused[t : t + 1], zeros[:1])
        scored = probs[0] if forced_steps is None else probs[0, :end_index]
        choice = int(np.argmax(scored))
        if choice == end_index:
            break
        if t:
            group_rows = np.broadcast_to(matrix[choice], (t, config.dim))
            features = _edge_features(fused, np.arange(t), group_rows, z)
            p_edge, _ = _edge_sites(params, features, zeros[:t])
            taken = rng.random(t) < p_edge
            if not taken.any():
                # Connectivity fallback: force the most likely source.
                taken[np.argmax(p_edge)] = True
            edges.extend((int(i), t) for i in np.flatnonzero(taken))
        selected.append(choice)
        if t + 1 < limit:
            history, _ = nn.gru_step(params, "his_gru", matrix[choice], history)
    return GroupGraph(
        selected=tuple(selected),
        edges=tuple(edges),
        truncated=forced_steps is None and len(selected) == limit,
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
    edge sites by ascending source, so step t's sites start at index
    t(t+1)/2; the STOP site (present when the graph ends before the budget)
    comes last. The draw count depends only on the graph shape, so a fixed
    seed yields the same noise for any parameters.
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

    Under teacher forcing the history depends only on the graph's own
    selections, so the history GRU runs first and then every group site
    (STOP last) is scored in one row-batched pass and every edge site
    ``(i, t)`` in another; the backward pass mirrors that, one pass per site
    kind plus backprop through time over the history.
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

    # Group sites: one per step, then STOP when the graph ends early.
    n_group = min(n + 1, config.max_steps)
    targets = np.array((*graph.selected, end_index)[:n_group])
    histories = [np.zeros(config.dim)]
    his_caches: list[nn.GruCache] = []
    for choice in targets[: n_group - 1]:
        history, his_cache = nn.gru_step(params, "his_gru", matrix[choice], histories[-1])
        histories.append(history)
        his_caches.append(his_cache)
    steps = np.arange(n_group)
    fused, fuse_cache = fuse_step(params, np.stack(histories), z, steps)
    eps = np.asarray(noise[:n_sites])
    probs, g_latent = _group_sites(params, matrix, fused, eps[steps * (steps + 1) // 2])

    # Edge sites (i, t) by step, then source; row t(t+1)/2 + 1 + i of eps.
    sources = np.array([i for t in range(n) for i in range(t)], dtype=int)
    dests = np.array([t for t in range(n) for _ in range(t)], dtype=int)
    edge_set = set(graph.edges)
    labels = np.array([(i, t) in edge_set for i, t in zip(sources, dests)], dtype=bool)
    features = _edge_features(fused, sources, matrix[targets[dests]], z)
    p_edge, (mlp_cache, e_latent, head_cache) = _edge_sites(
        params, features, eps[dests * (dests + 1) // 2 + 1 + sources]
    )

    p_target = probs[steps, targets]
    p_event = np.where(labels, p_edge, 1.0 - p_edge)
    breakdown = LossBreakdown(
        group_nll=-float(np.sum(np.log(np.maximum(p_target, LOG_FLOOR)))),
        edge_bce=-float(np.sum(np.log(np.maximum(p_event, LOG_FLOOR)))),
        kl_group=kl_diag(g_latent.q, prior_g),
        kl_edge=kl_diag(e_latent.q, prior_e),
        beta_group=beta_group,
        beta_edge=beta_edge,
        n_group_sites=n_group,
        n_edge_sites=len(sources),
    )
    if not compute_grads:
        return breakdown, {}

    grads: Grads = {}
    # Group sites. The STOP row of the scoring matrix is the learnable end_embed.
    d_logits = probs.copy()
    d_logits[steps, targets] -= 1.0
    d_logits[p_target <= LOG_FLOOR] = 0.0
    accumulate(grads, "end_embed", d_logits[:, end_index] @ g_latent.code)
    d_fused, *d_prior_g = _latent_backward(
        params, g_latent, d_logits @ matrix, beta_group, prior_g, grads
    )

    # Edge sites. Feature layout: [fused source, group embedding (frozen), z].
    d_logit = np.where(p_event > LOG_FLOOR, p_edge - labels, 0.0)
    d_code = _mlp_backward(params, "edge_head", head_cache, d_logit[:, None], grads)
    d_pre, *d_prior_e = _latent_backward(
        params, e_latent, d_code, beta_edge, prior_e, grads
    )
    d_features = _mlp_backward(params, "edge_mlp", mlp_cache, d_pre, grads)
    np.add.at(d_fused, sources, d_features[:, : config.dim])
    dz = d_features[:, 2 * config.dim :].sum(axis=0)

    d_his, d_z_fuse = _fuse_backward(fuse_cache, d_fused, grads, params["step_embed"])
    dz += d_z_fuse

    # Backprop through time over the history fold. State 0 is a constant.
    carry = np.zeros(config.dim)
    for j in range(len(his_caches) - 1, -1, -1):
        _, carry = nn.gru_backward(
            params, "his_gru", his_caches[j], carry + d_his[j + 1], grads
        )

    # Task-conditioned priors, then the task projection itself.
    dz += _bottleneck_backward(params, "prior_g", prior_g_cache, *d_prior_g, grads)
    dz += _bottleneck_backward(params, "prior_e", prior_e_cache, *d_prior_e, grads)
    _mlp_backward(params, "task_ffn", task_cache, dz, grads)

    return breakdown, grads
