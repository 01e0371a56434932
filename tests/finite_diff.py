"""Central finite differences, the reference every hand-derived backward
pass in the package is checked against."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from grouptopo.nn import Params, make_rng

# Smallest denominator of a relative error, so that two near-zero values agree.
FINITE_DIFF_FLOOR = 1e-8


@dataclass
class FiniteDiffReport:
    max_rel_err: float
    worst_param: str
    worst_index: tuple[int, ...]
    n_checked: int


def finite_diff_check(
    loss_fn: Callable[[Params], float],
    params: Params,
    grads: Mapping[str, np.ndarray],
    *,
    step: float = 1e-5,
    sample: int | None = None,
) -> FiniteDiffReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` must be a deterministic function of the parameter dict.
    Every parameter is checked, in name order, and the relative error per
    coordinate is |a - f| / max(|a|, |f|, FINITE_DIFF_FLOOR). When ``sample``
    is given, that many coordinates per tensor are spot-checked instead of
    the full sweep, drawn from one ``make_rng(0)`` stream.
    """
    rng = make_rng(0)
    worst = 0.0
    worst_param = ""
    worst_index: tuple[int, ...] = ()
    checked = 0
    for name in sorted(params):
        p = params[name]
        analytic = grads.get(name)
        if analytic is None:
            analytic = np.zeros_like(p)
        coords = np.arange(p.size)
        if sample is not None and sample < p.size:
            coords = rng.choice(p.size, size=sample, replace=False)
        for idx in coords:
            multi = np.unravel_index(idx, p.shape)
            original = p[multi]
            p[multi] = original + step
            f_plus = loss_fn(params)
            p[multi] = original - step
            f_minus = loss_fn(params)
            p[multi] = original
            fd = (f_plus - f_minus) / (2.0 * step)
            a = float(analytic[multi])
            rel = abs(a - fd) / max(abs(a), abs(fd), FINITE_DIFF_FLOOR)
            checked += 1
            if rel > worst:
                worst = rel
                worst_param = name
                worst_index = tuple(int(i) for i in multi)
    return FiniteDiffReport(
        max_rel_err=worst,
        worst_param=worst_param,
        worst_index=worst_index,
        n_checked=checked,
    )
