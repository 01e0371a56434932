"""Autoregressive group-topology generator with a conditional latent bottleneck.

The model factorizes a graph's probability into per-step group selections and
per-pair edge decisions. Each step fuses a recurrent history summary with the
projected task vector through a scalar gate, refines the fused state, and
passes it through a stochastic bottleneck whose prior is conditioned on the
task. Selection scores come from similarity against the candidate group
embeddings; a learnable STOP row terminates generation.

Teacher forcing and generation share one forward function per site kind. A
group site is a fused row; an edge site reads its source's fused row, its
target's group row and its task row through three index arrays. No edge
feeds back into the history, so both paths fold it first:
:func:`minibatch_loss_and_grads` then scores all the group sites of a
minibatch in one pass and all its edge sites in another; :func:`generate_graphs`
selects greedily, then scores every edge site in one pass at the posterior mean.

All gradients are derived by hand; :func:`minibatch_loss_and_grads` returns
the exact gradient of the teacher-forced objective for a fixed noise draw,
which the test suite verifies coordinate-by-coordinate against central
differences.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import nn
from .errors import ValidationError
from .graph import (
    GroupGraph,
    check_array,
    check_fields,
    check_graph_shape,
    check_int,
    check_items,
    check_type,
    record_field,
)
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
        ints = {"pool_size": 1, "dim": 1, "hidden": 1, "max_steps": 1, "seed": 0}
        check_fields(self, ints=ints, numbers=("beta_group", "beta_edge"))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        check_type(data, dict, "data", "an object")
        return cls(**{
            f.name: record_field(data, f.name, float if f.type == "float" else int)
            for f in dataclasses.fields(cls)
        })


def _draw_order(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every parameter tensor, in the order
    :func:`init_params` draws them."""
    d, h = config.dim, config.hidden
    order: list[tuple[str, tuple[int, ...]]] = []

    def affine(prefix: str, n_out: int, n_in: int) -> None:
        order.append((f"{prefix}.w", (n_out, n_in)))
        order.append((f"{prefix}.b", (n_out,)))

    affine("task_ffn.l1", h, d)
    affine("task_ffn.l2", d, h)
    for prefix, keys in (("his_gru", nn.GRU_SUFFIXES), ("grp_gru", nn.GATE_SUFFIXES),
                         ("edge_gru", nn.GATE_SUFFIXES)):
        order.extend((f"{prefix}.{key}", (d,) if key.startswith("b") else (d, d))
                     for key in keys)
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
    """Fresh parameters, seeded from ``config.seed``, as views of one float64
    vector in :func:`_draw_order`, a :class:`~grouptopo.nn.Layout`.

    Weight matrices, the step table and the STOP embedding are drawn at
    scale 1/sqrt(fan_in); biases start at zero. ValidationError unless
    ``config`` is a ModelConfig.
    """
    rng = make_rng(check_type(config, ModelConfig, "config").seed)
    p = nn.Layout(_draw_order(config))
    for name, shape in _draw_order(config):
        if len(shape) == 2 or name == "end_embed":
            p[name][...] = rng.normal(0.0, 1.0 / math.sqrt(shape[-1]), size=shape)
    return p


def check_params(params: Params, config: ModelConfig) -> Params:
    """``params``, each entry checked through :func:`~grouptopo.graph.check_array`
    by :func:`_check_entries`, as views of one float64 vector in
    :func:`_draw_order`. An intact :class:`~grouptopo.nn.Layout` in that order,
    as :func:`init_params` gives it, comes back as it is, so training it
    updates the caller's arrays in place. Any other mapping is copied into a
    new layout, and the caller's arrays are left as they are."""
    order, checked = _check_entries(params, config, check_array)
    if nn.Layout.fits(params, order):
        return params
    laid_out = nn.Layout(order)
    for name, tensor in laid_out.items():
        tensor[...] = checked[name]
    return laid_out


def _check_entries(params: Params, config: ModelConfig, check=None) -> tuple[list, dict]:
    """``config``'s :func:`_draw_order` and each entry of ``params`` as ``check(value, shape,
    name, need)`` returns it, or without ``check`` its array shape alone, reading no value;
    ValidationError, listing every mismatch, unless ``params`` maps exactly those names."""
    order, checked, wrong = _draw_order(check_type(config, ModelConfig, "config")), {}, []
    expected = dict(order)
    for name, shape in {**dict.fromkeys(check_type(params, Mapping, "params", "a mapping")),
                        **expected}.items():
        need = f"{name} of shape {shape}" if shape else f"no {name}"  # None fits no array
        try:
            if name not in params:
                raise ValidationError(f"need {need}; got none")
            if check:
                checked[name] = check(params[name], shape, f"{name} entries", need)
            elif (found := getattr(params[name], "shape", None)) != shape:
                raise ValidationError(f"need {need}; got {name} entries of shape {found}")
        except ValidationError as exc:
            wrong.append(str(exc))
    if wrong:
        raise ValidationError("parameters do not match the model config: " + ", ".join(wrong))
    return order, checked


# ---------------------------------------------------------------------------
# Diagonal Gaussians.


@dataclass(frozen=True)
class GaussianDiag:
    """Mean and log standard deviation, one scalar pair per coordinate."""

    mu: np.ndarray
    log_sigma: np.ndarray

    def take(self, rows: np.ndarray) -> "GaussianDiag":
        """The distributions at ``rows``, one per index."""
        return GaussianDiag(mu=self.mu[rows], log_sigma=self.log_sigma[rows])


# The two functions below run their formulas in place, on arrays they own;
# each product or sum takes the operands of the written formula, so every
# bit matches it.


def _kl_terms(q: GaussianDiag, p: GaussianDiag) -> np.ndarray:
    """KL(q || p) between diagonal Gaussians per coordinate, in nats:
    ``lp - lq + 0.5 * (exp(2 lq) + (mu_q - mu_p)^2) * exp(-2 lp) - 0.5``."""
    lq, lp = q.log_sigma, p.log_sigma
    diff = q.mu - p.mu
    diff *= diff
    kl = np.multiply(lq, 2.0)
    np.exp(kl, out=kl)
    kl += diff
    kl *= 0.5
    np.multiply(lp, -2.0, out=diff)
    kl *= np.exp(diff, out=diff)
    kl += np.subtract(lp, lq, out=diff)
    kl -= 0.5
    return kl


def _kl_diag_backward(
    q: GaussianDiag, p: GaussianDiag, weight: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``weight * KL(q || p)`` wrt (mu_q, ls_q, mu_p, ls_p): with
    ``diff = mu_q - mu_p`` and ``inv = exp(-2 lp)``, ``weight * diff * inv``,
    ``weight * (exp(2 lq - 2 lp) - 1)``, the first negated, and
    ``weight * (1 - (exp(2 lq) + diff^2) * inv)``."""
    lq, lp = q.log_sigma, p.log_sigma
    diff = q.mu - p.mu
    inv_var_p = np.multiply(lp, -2.0)
    np.exp(inv_var_p, out=inv_var_p)
    d_mu_q = np.multiply(diff, weight)
    d_mu_q *= inv_var_p
    diff *= diff
    d_ls_p = np.multiply(lq, 2.0)
    np.exp(d_ls_p, out=d_ls_p)
    d_ls_p += diff
    d_ls_p *= inv_var_p
    np.subtract(1.0, d_ls_p, out=d_ls_p)
    d_ls_p *= weight
    d_ls_q = np.multiply(lq, 2.0, out=diff)
    d_ls_q -= np.multiply(lp, 2.0, out=inv_var_p)
    np.exp(d_ls_q, out=d_ls_q)
    d_ls_q -= 1.0
    d_ls_q *= weight
    return d_mu_q, d_ls_q, np.negative(d_mu_q, out=inv_var_p), d_ls_p


def reparameterize(dist: GaussianDiag, eps: np.ndarray) -> np.ndarray:
    """Pathwise sample ``mu + exp(log_sigma) * eps``; eps = 0 gives the mean."""
    return dist.mu + np.exp(dist.log_sigma) * eps


# ---------------------------------------------------------------------------
# Forward building blocks (each with a cache consumed by the backward pass).


@dataclass
class _BottleneckCache:
    x: np.ndarray
    ls: np.ndarray  # clipped, as in the distribution


def _bottleneck(
    params: Params, prefix: str, x: np.ndarray
) -> tuple[GaussianDiag, _BottleneckCache]:
    """The Gaussian head under ``prefix``: a task-conditioned prior
    ("prior_g", "prior_e") or a posterior ("enc_g", "enc_e")."""
    mu = nn.affine(params, f"{prefix}.mu", x)
    ls = nn.affine(params, f"{prefix}.ls", x)
    np.clip(ls, LOG_SIGMA_MIN, LOG_SIGMA_MAX, out=ls)
    return GaussianDiag(mu=mu, log_sigma=ls), _BottleneckCache(x=x, ls=ls)


def _bottleneck_backward(
    params: Params,
    prefix: str,
    cache: _BottleneckCache,
    d_mu: np.ndarray,
    d_ls: np.ndarray,
    grads: Grads,
) -> np.ndarray:
    # The clamp blocks gradient outside the open interval, where the clipped
    # value is strictly inside too; d_ls, which the callers own, is masked in place.
    inside = (cache.ls > LOG_SIGMA_MIN) & (cache.ls < LOG_SIGMA_MAX)
    np.copyto(d_ls, 0.0, where=~inside)
    dx = nn.affine_backward(params, f"{prefix}.mu", cache.x, d_mu, grads)
    dx += nn.affine_backward(params, f"{prefix}.ls", cache.x, d_ls, grads)
    return dx


@dataclass
class _MlpCache:
    x: np.ndarray
    h1: np.ndarray


def _mlp(params: Params, prefix: str, x: np.ndarray) -> tuple[np.ndarray, _MlpCache]:
    """Two affine layers ``l1`` and ``l2`` under ``prefix`` with a ReLU between."""
    h1 = nn.relu(nn.affine(params, f"{prefix}.l1", x))
    return nn.affine(params, f"{prefix}.l2", h1), _MlpCache(x=x, h1=h1)


def _mlp_backward(
    params: Params, prefix: str, cache: _MlpCache, d_out: np.ndarray, grads: Grads
) -> np.ndarray:
    # ReLU's output is positive exactly where its input is.
    dh1 = nn.affine_backward(params, f"{prefix}.l2", cache.h1, d_out, grads)
    da1 = nn.relu_backward(cache.h1, dh1)
    return nn.affine_backward(params, f"{prefix}.l1", cache.x, da1, grads)


def project_task(params: Params, task_vec: np.ndarray) -> tuple[np.ndarray, _MlpCache]:
    """Two-layer projection of the raw sentence vector into model space."""
    return _mlp(params, "task_ffn", task_vec)


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
    with ``step`` the array of step indices; ``z`` is one task vector, or
    one per row of ``h_his``. Per row the gate is
    sigmoid(<h_his, z> / sqrt(dim)), a scalar kept in the cache, and the
    fused state is ``(1 - g) * h_his + g * z + step_embed[step]``. A step
    outside the table or a non-finite <h_his, z> raises ValidationError.
    """
    table = params["step_embed"]
    steps = np.asarray(step)
    if steps.size and not (steps.min() >= 0 and steps.max() < table.shape[0]):
        raise ValidationError(f"step {step} outside the embedding table ({len(table)} rows)")
    scale = 1.0 / math.sqrt(z.shape[-1])
    raw = np.einsum("...d,...d->...", h_his, z)
    if not np.isfinite(raw).all():  # np.einsum reports no overflow
        raise ValidationError("values too large: gate score is not finite")
    gate = nn.sigmoid(np.asarray(raw * scale)[..., None])
    fused = (1.0 - gate) * h_his + gate * z + table[steps]
    return fused, _FuseCache(h_his=h_his, z=z, step=steps, gate=gate, scale=scale)


def _fuse_backward(
    cache: _FuseCache, d_fused: np.ndarray, grads: Grads, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Backward through a row-batched :func:`fuse_step` with one ``z`` per
    row. Returns (d_h_his, d_z) per row; adds the step-embedding gradient."""
    accumulate(grads, "step_embed", _sum_by(cache.step, d_fused, len(table)))
    g, h, z = cache.gate, cache.h_his, cache.z
    d_raw = np.sum(d_fused * (z - h), axis=-1, keepdims=True) * g * (1.0 - g)
    d_h = (1.0 - g) * d_fused + d_raw * cache.scale * z
    d_z = g * d_fused + d_raw * cache.scale * h
    return d_h, d_z


def scoring_matrix(
    params: Params, config: ModelConfig, candidates: np.ndarray
) -> np.ndarray:
    """The ``(pool_size, dim)`` candidate rows with the learnable STOP
    embedding appended as row ``pool_size``."""
    shape = (config.pool_size, config.dim)
    need = f"one candidate row per group of the pool of {shape[0]}, of dim {shape[1]}"
    candidates = check_array(candidates, shape, "candidate rows", need)
    return np.vstack([candidates, params["end_embed"]])


# ---------------------------------------------------------------------------
# Group-selection and edge sites: one forward function per kind, one site per row.


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
    params: Params, gate_prefix: str, enc_prefix: str, x: np.ndarray,
    eps: np.ndarray | None,
) -> tuple[np.ndarray, _LatentCache | None]:
    """The sites' bottleneck: gated projection, posterior, pathwise sample.
    ``eps=None`` gives the posterior mean and no cache, skipping the ``ls`` head."""
    x_gated, gate_cache = nn.gate_step(params, gate_prefix, x)
    if eps is None:
        return nn.affine(params, f"{enc_prefix}.mu", x_gated), None
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
    summed over the rows, with one prior per row. Returns d x and the
    prior's (d_mu, d_log_sigma), per row."""
    d_mu, d_ls, kp_mu, kp_ls = _kl_diag_backward(cache.q, prior, kl_weight)
    del prior  # callers gather it for this call alone
    d_mu += d_code
    d_ls += d_code * cache.eps * np.exp(cache.q.log_sigma)
    dx = _bottleneck_backward(params, cache.enc_prefix, cache.enc, d_mu, d_ls, grads)
    dx = nn.gate_backward(params, cache.gate_prefix, cache.gate, dx, grads)
    return dx, kp_mu, kp_ls


def _group_sites(
    params: Params, matrix: np.ndarray, fused: np.ndarray, eps: np.ndarray | None
) -> tuple[np.ndarray, _LatentCache | None]:
    """Selection probabilities over the K groups and STOP, per fused row."""
    code, latent = _latent(params, "grp_gru", "enc_g", fused, eps)
    return nn.softmax(code @ matrix.T), latent


def _edge_site_index(n_steps: Sequence[int]) -> np.ndarray:
    """Rows query, source, target of every edge site, by query, target, then source."""
    sites = [(b, i, t) for b, n in enumerate(n_steps) for t in range(n) for i in range(t)]
    return np.array(sites, dtype=int).reshape(-1, 3).T


def _edge_sites(
    params: Params, fused: np.ndarray, groups: np.ndarray, z: np.ndarray,
    sources: np.ndarray | tuple[np.ndarray, ...], targets: np.ndarray, tasks: np.ndarray,
    eps: np.ndarray | None,
) -> tuple[np.ndarray, tuple[np.ndarray, _LatentCache | None, _MlpCache]]:
    """Edge probabilities: site k sums the ``edge_mlp.l1`` projections of its
    source's fused state ``fused[sources][k]``, its target's group row
    ``groups[targets[k]]`` and its task row ``z[tasks[k]]``, each row projected
    once. The cache starts with the ReLU output."""
    w, d = params["edge_mlp.l1.w"], z.shape[-1]
    # Summed in place, (source + group) + task, to hold one site-sized array.
    h1 = (fused @ w[:, :d].T)[sources]
    h1 += (groups @ w[:, d : 2 * d].T)[targets]
    h1 += (z @ w[:, 2 * d :].T + params["edge_mlp.l1.b"])[tasks]
    np.maximum(h1, 0.0, out=h1)
    x_pre = nn.affine(params, "edge_mlp.l2", h1)
    code, latent = _latent(params, "edge_gru", "enc_e", x_pre, eps)
    logit, head_cache = _mlp(params, "edge_head", code)
    return nn.sigmoid(logit[:, 0]), (h1, latent, head_cache)


# ---------------------------------------------------------------------------
# Generation.


def _decode_batch(
    params: Params, matrix: np.ndarray, z: np.ndarray, limit: int, allow_stop: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy selection for every task row of ``z``, then one pass over all
    edge sites; the last row of ``matrix`` is STOP. Returns the chosen groups
    ``(B, limit)``, each query's step count and the probability of every edge
    site ``(b, i, t)``, ordered by query b, target t, then source i."""
    batch, d = z.shape
    fused = np.zeros((batch, limit, d))
    chosen = np.zeros((batch, limit), dtype=int)
    n_steps = np.zeros(batch, dtype=int)
    end_index = len(matrix) - 1
    running, history = np.arange(batch), np.zeros_like(z)
    for t in range(limit):
        rows, _ = fuse_step(params, history, z[running], t)
        fused[running, t] = rows
        probs, _ = _group_sites(params, matrix, rows, None)
        choice = np.argmax(probs if allow_stop else probs[:, :end_index], axis=1)
        keep = choice != end_index
        running, choice, history = running[keep], choice[keep], history[keep]
        chosen[running, t], n_steps[running] = choice, t + 1
        if not running.size or t + 1 == limit:
            break
        history, _ = nn.gru_step(params, "his_gru", matrix[choice], history)
    q, src, dst = _edge_site_index(n_steps)
    p_edge, _ = _edge_sites(params, fused, matrix, z, (q, src), chosen[q, dst], q, None)
    return chosen, n_steps, p_edge


@nn.no_overflow
def generate_graphs(
    params: Params,
    config: ModelConfig,
    candidates: np.ndarray,
    task_vecs: np.ndarray,
    seeds: Sequence[int],
    *,
    forced_steps: int | None = None,
) -> list[GroupGraph]:
    """Sample one group graph per row of ``task_vecs``; query b draws its
    edges from the stream ``make_rng(seeds[b])``.

    Selection runs first for the whole batch: each step fuses the history
    with the task vector, picks a group greedily over the mean-latent
    probabilities (ties go to the lowest index) and folds it into the
    history. One pass then scores every edge site. Each query draws its
    edges by target, then source, forcing the most likely edge whenever a
    step would otherwise be unreachable. Graphs equal per-query generation on
    every input tested, but a product over more rows may round a last bit
    differently and flip a near-tie. Generation stops at STOP or at
    ``config.max_steps`` (``truncated``).

    ``forced_steps`` suppresses STOP and runs exactly that many steps, at
    most ``config.max_steps`` (the rows of the step-embedding table).
    ``seeds`` is an ordered sequence of integers >= 0, not a set, ``config`` a
    ModelConfig and ``params`` of its names and shapes, or ValidationError is raised.
    """
    _check_entries(params, config)
    seeds = [check_int(seed, "seeds") for seed in check_items(seeds, object, "seeds")]
    task_vecs = check_array(task_vecs, (len(seeds), config.dim), "task rows",
                            f"one task row per seed, of dim {config.dim}")
    limit = (config.max_steps if forced_steps is None
             else check_int(forced_steps, "forced_steps", 1, config.max_steps))
    matrix = scoring_matrix(params, config, candidates)
    z, _ = project_task(params, task_vecs)
    chosen, n_steps, p_edge = _decode_batch(params, matrix, z, limit, forced_steps is None)
    graphs, start = [], 0
    for seed, selected, n in zip(seeds, chosen, n_steps):
        rng = make_rng(seed)
        edges: list[tuple[int, int]] = []
        for t in range(1, n):
            p = p_edge[start : start + t]
            start += t
            taken = rng.random(t) < p
            if not taken.any():
                # Connectivity fallback: force the most likely source.
                taken[np.argmax(p)] = True
            edges.extend((i, t) for i in np.flatnonzero(taken))
        graphs.append(GroupGraph(
            selected=selected[:n],
            edges=tuple(edges),
            truncated=forced_steps is None and n == limit,
        ))
    return graphs


def generate_graph(
    params: Params,
    config: ModelConfig,
    candidates: np.ndarray,
    task_vec: np.ndarray,
    seed: int = 0,
    *,
    forced_steps: int | None = None,
) -> GroupGraph:
    """Sample one group graph: :func:`generate_graphs`, with its checks, on a batch of one."""
    return generate_graphs(
        params, config, candidates, [task_vec], [seed],
        forced_steps=forced_steps,
    )[0]


# ---------------------------------------------------------------------------
# Likelihood and the teacher-forced objective.


def graph_log_likelihood(
    params: Params,
    config: ModelConfig,
    candidates: np.ndarray,
    task_vec: np.ndarray,
    graph: GroupGraph,
) -> float:
    """Log probability of ``graph`` under mean-latent decoding; checks as :func:`loss_and_grads`.

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
) -> np.ndarray:
    """Draw the latent noise for every site of a teacher-forced pass: one
    ``(sites, dim)`` array, a row per site.

    Site order is fixed: for each step, the selection site first, then its
    edge sites by ascending source, so step t's sites start at index
    t(t+1)/2; the STOP site (present when the graph ends before the budget)
    comes last. The draw count depends only on the graph shape, so a fixed
    seed yields the same noise for any parameters.
    """
    return rng.standard_normal((_site_count(graph, config), config.dim))


def _site_count(graph: GroupGraph, config: ModelConfig) -> int:
    """Selection sites, edge sites and the STOP site of a teacher-forced pass."""
    n = graph.n_steps
    return n + n * (n - 1) // 2 + (n < config.max_steps)


def loss_and_grads(
    params: Params,
    config: ModelConfig,
    candidates: np.ndarray,
    task_vec: np.ndarray,
    graph: GroupGraph,
    *,
    noise: np.ndarray | None = None,
    compute_grads: bool = True,
) -> tuple[LossBreakdown, Grads]:
    """Teacher-forced loss for one trajectory, with exact gradients.

    The objective is selection NLL + edge BCE + weighted KL between the
    latent posteriors and the task-conditioned priors, weighted by the
    config's betas. ``noise`` holds one row per site (see
    :func:`trajectory_noise`); without it, the posterior means are used. This
    is :func:`minibatch_loss_and_grads`, with its checks, on a minibatch of one.
    """
    breakdowns, grads = minibatch_loss_and_grads(
        params, config, candidates, [task_vec], [graph], [noise], compute_grads=compute_grads
    )
    return breakdowns[0], grads


def _add_by(out: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(out, index, values)``: row k of ``values`` is added into
    ``out[index[k]]``, each slot's rows in row order, so every sum is the
    same. One fancy-index add per occurrence rank does it: the first row of
    each slot, then the second, and so on."""
    order = np.argsort(index, kind="stable")
    ranked = index[order]
    starts = np.flatnonzero(np.diff(ranked, prepend=-1))
    counts = np.diff(starts, append=len(index))
    for rank in range(counts.max(initial=0)):
        rows = order[starts[counts > rank] + rank]
        out[index[rows]] += values[rows]


def _sum_by(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Sum ``values`` into ``n`` slots by the slot ``index`` of each row, each
    slot's rows in row order from zero, as ``np.add.at`` does. One value per
    row takes ``np.bincount``, which adds in that order too."""
    if values.ndim == 1:
        return np.bincount(index, weights=values, minlength=n)
    out = np.zeros((n, *values.shape[1:]))
    _add_by(out, index, values)
    return out


@nn.no_overflow
def minibatch_loss_and_grads(
    params: Params,
    config: ModelConfig,
    candidates: np.ndarray,
    task_vecs: np.ndarray,
    graphs: Sequence[GroupGraph],
    noises: Sequence[np.ndarray | None],
    *,
    compute_grads: bool = True,
    out: nn.Layout | None = None,
) -> tuple[list[LossBreakdown], Grads]:
    """Teacher-forced loss of every trajectory of a minibatch, with the exact
    gradient of their sum.

    Trajectory b is the task vector ``task_vecs[b]``, the graph ``graphs[b]``
    and its noise ``noises[b]`` (a finite ``(sites, dim)`` array in the site
    order of :func:`trajectory_noise`, or None for the posterior means). The
    config's betas weight the KL terms. Returns one :class:`LossBreakdown` per
    trajectory.

    Under teacher forcing the history depends only on the graph's own
    selections, so every pass covers the whole minibatch, with one row per
    site: the task projection and priors run once over the task rows; the
    history GRU folds step by step over the trajectories still running; all
    group sites (STOP last in each trajectory) are fused and scored in one
    pass and all edge sites ``(i, t)`` in another. The backward pass mirrors
    that, plus backprop through time over the history, and sums each row's
    prior and task gradient back into its trajectory.

    The gradient is added into ``out``, an intact :class:`~grouptopo.nn.Layout`
    of the parameters in :func:`_draw_order` that the caller zeroes, and ``out``
    is returned; without one, a fresh zeroed layout is. Either way it lists every
    tensor, zero where the pass wrote nothing. With ``compute_grads=False`` the
    gradient is an empty dict and ``out`` is left alone. Any other argument, such as
    ``params`` without ``config``'s names and shapes, raises ValidationError first.
    """
    order, _ = _check_entries(params, config)
    check_type(compute_grads, (bool, np.bool_), "compute_grads", "true or false")
    d = config.dim
    graphs = check_items(graphs, GroupGraph, "graphs")
    noises = check_items(noises, object, "noises")
    batch = len(graphs)
    if not batch or len(noises) != batch:
        raise ValidationError(
            f"need one graph or more, and a noise entry for each; got {batch} graphs "
            f"and {len(noises)} noise entries"
        )
    task_vecs = check_array(task_vecs, (batch, d), "task rows",
                            f"a task row of dim {d} per graph")
    if out is not None and not nn.Layout.fits(out, order):
        raise ValidationError(f"'out' must be an intact nn.Layout of the parameters' names "
                              f"and shapes, got {type(out).__name__}")
    for graph in graphs:
        # Shape only: a step without an incoming edge still has probability mass.
        check_graph_shape(graph, config.pool_size, config.max_steps)
    n_group = np.array([min(g.n_steps + 1, config.max_steps) for g in graphs], dtype=int)
    n_sites = np.array([_site_count(graph, config) for graph in graphs], dtype=int)
    eps = np.concatenate([
        np.zeros((count, d)) if noise is None else check_array(
            noise, (count, d), "noise rows", f"{count} noise rows of dim {d}, one per site")
        for noise, count in zip(noises, n_sites)
    ])
    site_base = np.cumsum(n_sites) - n_sites

    matrix = scoring_matrix(params, config, candidates)
    end_index = config.pool_size
    z, task_cache = project_task(params, task_vecs)
    prior_g, prior_g_cache = _bottleneck(params, "prior_g", z)
    prior_e, prior_e_cache = _bottleneck(params, "prior_e", z)

    # Group rows: per trajectory, one per step, then STOP when it ends early.
    g_traj = np.repeat(np.arange(batch), n_group)
    g_rows = np.arange(len(g_traj))
    g_base = np.cumsum(n_group) - n_group
    g_step = g_rows - g_base[g_traj]
    targets = np.array([
        choice for graph, k in zip(graphs, n_group)
        for choice in (*graph.selected, end_index)[:k]
    ], dtype=int)
    # History fold: step j feeds row j + 1 of every trajectory still running.
    states = np.zeros((len(g_rows), d))
    his_steps: list[tuple[np.ndarray, nn.GruCache]] = []
    for j in range(int(n_group.max()) - 1):
        rows = g_base[n_group - 1 > j] + j
        states[rows + 1], his_cache = nn.gru_step(
            params, "his_gru", matrix[targets[rows]], states[rows]
        )
        his_steps.append((rows, his_cache))
    fused, fuse_cache = fuse_step(params, states, z[g_traj], g_step)
    g_eps = site_base[g_traj] + g_step * (g_step + 1) // 2
    probs, g_latent = _group_sites(params, matrix, fused, eps[g_eps])

    # Edge rows (b, i, t) by trajectory, step, then source; site t(t+1)/2 + 1 + i.
    e_traj, e_src, e_dst = _edge_site_index([graph.n_steps for graph in graphs])
    edges = {(b, i, t) for b, graph in enumerate(graphs) for i, t in graph.edges}
    labels = np.array([site in edges for site in zip(e_traj, e_src, e_dst)], dtype=bool)
    e_fused, e_group = g_base[e_traj] + e_src, targets[g_base[e_traj] + e_dst]
    p_edge, (e_h1, e_latent, head_cache) = _edge_sites(
        params, fused, matrix, z, e_fused, e_group, e_traj,
        eps[site_base[e_traj] + e_dst * (e_dst + 1) // 2 + 1 + e_src],
    )
    del eps  # each site kind holds its own rows now

    p_target = probs[g_rows, targets]
    p_event = np.where(labels, p_edge, 1.0 - p_edge)
    nll = _sum_by(g_traj, -np.log(np.maximum(p_target, LOG_FLOOR)), batch)
    bce = _sum_by(e_traj, -np.log(np.maximum(p_event, LOG_FLOOR)), batch)
    # Each row's prior is gathered where it is used, and freed after.
    kl_g = _sum_by(g_traj, _kl_terms(g_latent.q, prior_g.take(g_traj)).sum(axis=-1), batch)
    kl_e = _sum_by(e_traj, _kl_terms(e_latent.q, prior_e.take(e_traj)).sum(axis=-1), batch)
    breakdowns = [
        LossBreakdown(
            group_nll=float(nll[b]),
            edge_bce=float(bce[b]),
            kl_group=float(kl_g[b]),
            kl_edge=float(kl_e[b]),
            beta_group=config.beta_group,
            beta_edge=config.beta_edge,
            n_group_sites=int(n_group[b]),
            n_edge_sites=int(n_sites[b] - n_group[b]),
        )
        for b in range(batch)
    ]
    if not compute_grads:
        return breakdowns, {}

    grads = nn.Layout(order) if out is None else out
    # Group sites. The STOP row of the scoring matrix is the learnable end_embed.
    d_logits = probs.copy()
    d_logits[g_rows, targets] -= 1.0
    d_logits[p_target <= LOG_FLOOR] = 0.0
    accumulate(grads, "end_embed", d_logits[:, end_index] @ g_latent.code)
    d_fused, d_mu_g, d_ls_g = _latent_backward(
        params, g_latent, d_logits @ matrix, config.beta_group, prior_g.take(g_traj), grads
    )
    d_mu_g, d_ls_g = _sum_by(g_traj, d_mu_g, batch), _sum_by(g_traj, d_ls_g, batch)
    # The group-site caches are dead now; free them before the edge pass.
    del g_latent

    # Edge sites: edge_mlp.l1 takes one product per input row, after summing
    # the sites by row. Group rows are frozen, as an edge never targets STOP.
    d_logit = np.where(p_event > LOG_FLOOR, p_edge - labels, 0.0)
    d_code = _mlp_backward(params, "edge_head", head_cache, d_logit[:, None], grads)
    d_pre, d_mu_e, d_ls_e = _latent_backward(
        params, e_latent, d_code, config.beta_edge, prior_e.take(e_traj), grads
    )
    dh1 = nn.affine_backward(params, "edge_mlp.l2", e_h1, d_pre, grads)
    da1 = nn.relu_backward(e_h1, dh1)
    d_src, d_task = _sum_by(e_fused, da1, len(fused)), _sum_by(e_traj, da1, batch)
    d_grp = _sum_by(e_group, da1, len(matrix))
    d_w = np.hstack([d_src.T @ fused, d_grp.T @ matrix, d_task.T @ z])
    accumulate(grads, "edge_mlp.l1.w", d_w)
    accumulate(grads, "edge_mlp.l1.b", d_task.sum(axis=0))
    w = params["edge_mlp.l1.w"]
    d_fused += d_src @ w[:, :d]
    dz = d_task @ w[:, 2 * d :]
    d_mu_e, d_ls_e = _sum_by(e_traj, d_mu_e, batch), _sum_by(e_traj, d_ls_e, batch)
    # The edge-site caches are dead now; free them before the passes below.
    del e_h1, e_latent, head_cache, d_code, d_pre, dh1, da1

    d_states, d_z_fuse = _fuse_backward(fuse_cache, d_fused, grads, params["step_embed"])
    _add_by(dz, g_traj, d_z_fuse)

    # Backprop through time over the history fold, latest step first, so that
    # a state's gradient is complete before it flows back. State 0 is a constant.
    for rows, his_cache in reversed(his_steps):
        d_prev = nn.gru_backward(params, "his_gru", his_cache, d_states[rows + 1], grads)
        d_states[rows] += d_prev

    # Task-conditioned priors, then the task projection itself.
    dz += _bottleneck_backward(params, "prior_g", prior_g_cache, d_mu_g, d_ls_g, grads)
    dz += _bottleneck_backward(params, "prior_e", prior_e_cache, d_mu_e, d_ls_e, grads)
    _mlp_backward(params, "task_ffn", task_cache, dz, grads)

    return breakdowns, grads
