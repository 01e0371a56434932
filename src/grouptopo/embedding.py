"""Text embedding providers and the candidate scoring matrix.

Two providers are shipped: a deterministic feature-hashing embedder that
needs no network (used throughout the tests), and a client for an external
sentence-encoder HTTP service configured through the ``GOA_ENCODER_URL`` /
``GOA_ENCODER_KEY`` environment variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import BackendError, ValidationError
from .graph import GroupPool
from .harness import HttpEndpoint

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


@runtime_checkable
class EmbeddingProvider(Protocol):
    """Anything that maps a batch of texts to fixed-width float64 vectors."""

    @property
    def dim(self) -> int: ...

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
        if dim < 1:
            raise ValidationError(f"embedding dim must be positive, got {dim}")
        self._dim = int(dim)

    @property
    def dim(self) -> int:
        return self._dim

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
        return np.stack([self.encode_one(t) for t in texts]) if texts else np.zeros(
            (0, self._dim)
        )


class HttpEncoderClient:
    """Client for a remote sentence-encoder service.

    The service accepts ``POST {url}`` with ``{"texts": [...]}`` and returns
    ``{"embeddings": [[...], ...]}``. URL and bearer key default to the
    ``GOA_ENCODER_URL`` and ``GOA_ENCODER_KEY`` environment variables.
    """

    def __init__(
        self, dim: int, url: str | None = None, key: str | None = None, *, session=None
    ):
        self._dim = int(dim)
        self.endpoint = HttpEndpoint("encoder", "GOA_ENCODER", url, key, session)

    @property
    def dim(self) -> int:
        return self._dim

    def encode(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, self._dim))
        body = self.endpoint.post_json({"texts": list(texts)})
        try:
            matrix = np.asarray(body["embeddings"], dtype=np.float64)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BackendError(f"encoder returned an unusable payload: {exc}") from exc
        if matrix.shape != (len(texts), self._dim):
            raise BackendError(
                f"encoder returned shape {matrix.shape}, "
                f"expected {(len(texts), self._dim)}"
            )
        if not np.all(np.isfinite(matrix)):
            raise BackendError("encoder returned NaN or infinite embeddings")
        return matrix


@dataclass(frozen=True)
class CandidateMatrix:
    """Frozen embeddings for the K pool groups plus a STOP row.

    Row ``end_index`` (== pool size) is a placeholder; the model swaps in its
    learnable STOP embedding when scoring, so the stored row stays zero.
    """

    matrix: np.ndarray
    pool_size: int

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != self.pool_size + 1:
            raise ValidationError(
                f"candidate matrix must have {self.pool_size + 1} rows, "
                f"got shape {mat.shape}"
            )
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    @property
    def end_index(self) -> int:
        return self.pool_size


def build_candidate_matrix(
    provider: EmbeddingProvider, pool: GroupPool
) -> CandidateMatrix:
    """Embed every group's canonical text; append a zero STOP row."""
    texts = [g.text() for g in pool]
    embedded = provider.encode(texts)
    matrix = np.vstack([embedded, np.zeros((1, provider.dim))])
    return CandidateMatrix(matrix=matrix, pool_size=pool.size)
