"""Text embedding providers and the candidate group embeddings.

Two providers are shipped: a deterministic feature-hashing embedder that
needs no network (used throughout the tests), and a client for an external
sentence-encoder HTTP service configured through the ``GOA_ENCODER_URL`` /
``GOA_ENCODER_KEY`` environment variables.
"""

from __future__ import annotations

import re
from typing import Protocol, Sequence

import numpy as np

from .errors import BackendError, ValidationError
from .graph import GroupPool, check_array, check_int, check_items, check_type
from .harness import HttpEndpoint

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


class EmbeddingProvider(Protocol):
    """Anything that maps a batch of texts to fixed-width float64 vectors."""

    def encode(self, texts: Sequence[str]) -> np.ndarray: ...


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def _tokenize(text: str) -> list[str]:
    return re.findall(r"[a-z0-9]+", text.lower())


class HashingTextEmbedder:
    """Signed feature hashing over unigrams and bigrams, L2-normalized.

    Fully deterministic: the same text always maps to the same vector, with
    no vocabulary state. Empty or non-alphanumeric text maps to the zero
    vector.
    """

    def __init__(self, dim: int):
        self._dim = check_int(dim, "dim", 1)

    def encode_one(self, text: str) -> np.ndarray:
        vec = np.zeros(self._dim, dtype=np.float64)
        tokens = _tokenize(text)
        features = list(tokens)
        features.extend(f"{a} {b}" for a, b in zip(tokens, tokens[1:]))
        for feat in features:
            h = _fnv1a(feat.encode("utf-8"))
            bucket = h % self._dim
            sign = -1.0 if h >> 63 else 1.0
            vec[bucket] += sign
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        return vec

    def encode(self, texts: Sequence[str]) -> np.ndarray:
        texts = check_items(texts, str, "texts")
        return np.stack([self.encode_one(t) for t in texts]) if texts else np.zeros(
            (0, self._dim)
        )


class HttpEncoderClient:
    """Client for a remote sentence-encoder service.

    The service accepts ``POST {url}`` with ``{"texts": [...]}`` and returns
    ``{"embeddings": [[...], ...]}``. URL and bearer key default to the
    ``GOA_ENCODER_URL`` and ``GOA_ENCODER_KEY`` environment variables. A reply
    that is not one finite real row of ``dim`` per text raises BackendError.
    """

    def __init__(
        self, dim: int, url: str | None = None, key: str | None = None, *, session=None
    ):
        self._dim = check_int(dim, "dim", 1)
        self.endpoint = HttpEndpoint("encoder", "GOA_ENCODER", url, key, session)

    def encode(self, texts: Sequence[str]) -> np.ndarray:
        texts = check_items(texts, str, "texts")
        if not texts:
            return np.zeros((0, self._dim))
        body = self.endpoint.post_json({"texts": list(texts)})
        try:
            return check_array(body["embeddings"], (len(texts), self._dim), "embeddings",
                               f"one embedding of dim {self._dim} per text")
        except (KeyError, TypeError, ValidationError) as exc:
            raise BackendError(f"encoder returned an unusable payload: {exc}") from exc


def build_candidate_matrix(provider: EmbeddingProvider, pool: GroupPool) -> np.ndarray:
    """Embed every group's canonical text: one row per group, in pool order.
    The model appends its learnable STOP row when it scores them. ValidationError
    unless ``pool`` is a GroupPool."""
    return provider.encode([g.text() for g in check_type(pool, GroupPool, "pool")])
