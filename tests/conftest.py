from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest

import grouptopo as gt


@pytest.fixture
def pool4() -> gt.GroupPool:
    return gt.GroupPool(groups=tuple(gt.default_pool().groups[:4]))


@pytest.fixture
def hash16() -> gt.HashingTextEmbedder:
    return gt.HashingTextEmbedder(16)


@dataclass
class TinySetup:
    pool: gt.GroupPool
    provider: gt.HashingTextEmbedder
    candidates: np.ndarray
    config: gt.ModelConfig
    params: dict
    task_vec: np.ndarray


def make_tiny(
    pool_size: int = 4,
    dim: int = 16,
    hidden: int = 8,
    max_steps: int = 4,
    seed: int = 5,
    beta_group: float = 0.0,
    beta_edge: float = 0.0,
    query: str = "inspect the pipeline output",
) -> TinySetup:
    pool = gt.GroupPool(groups=tuple(gt.default_pool().groups[:pool_size]))
    provider = gt.HashingTextEmbedder(dim)
    candidates = gt.build_candidate_matrix(provider, pool)
    config = gt.ModelConfig(
        pool_size=pool_size,
        dim=dim,
        hidden=hidden,
        max_steps=max_steps,
        beta_group=beta_group,
        beta_edge=beta_edge,
        seed=seed,
    )
    params = gt.init_params(config)
    task_vec = provider.encode([query])[0]
    return TinySetup(
        pool=pool,
        provider=provider,
        candidates=candidates,
        config=config,
        params=params,
        task_vec=task_vec,
    )


@pytest.fixture
def tiny() -> TinySetup:
    return make_tiny()


class FakeResponse:
    """A canned HTTP response; without a payload, ``json()`` fails."""

    def __init__(self, status_code=200, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text
        self.headers = headers or {}

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


class FakeSession:
    """Stands in for ``requests.Session``: each ``post`` records its arguments
    and returns, or raises, the next of ``responses``."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, **kwargs):
        self.calls.append({"url": url, **kwargs})
        item = self.responses.pop(0)
        if isinstance(item, BaseException):
            raise item
        return item


@pytest.fixture
def sleeps(monkeypatch) -> list:
    """Retry delays, recorded instead of slept."""
    slept: list = []
    monkeypatch.setattr(time, "sleep", slept.append)
    return slept
