"""Embedding providers and the candidate matrix."""

from __future__ import annotations

import numpy as np
import pytest

import grouptopo as gt
from grouptopo.errors import BackendError, ValidationError

from conftest import FakeResponse, FakeSession


def test_hash_embedder_is_deterministic():
    emb = gt.HashingTextEmbedder(32)
    a = emb.encode_one("solve the riddle carefully")
    b = emb.encode_one("solve the riddle carefully")
    assert np.array_equal(a, b)


def test_hash_embedder_unit_norm():
    emb = gt.HashingTextEmbedder(64)
    vec = emb.encode_one("numbers and words mixed 42 times")
    assert np.isclose(np.linalg.norm(vec), 1.0)


def test_hash_embedder_empty_text_is_zero():
    emb = gt.HashingTextEmbedder(16)
    assert np.array_equal(emb.encode_one(""), np.zeros(16))
    assert np.array_equal(emb.encode_one("   ?!,  "), np.zeros(16))


def test_hash_embedder_distinguishes_texts():
    emb = gt.HashingTextEmbedder(64)
    a = emb.encode_one("add the two numbers")
    b = emb.encode_one("multiply the two numbers")
    assert not np.allclose(a, b)


def test_hash_embedder_word_order_matters():
    emb = gt.HashingTextEmbedder(64)
    a = emb.encode_one("alpha beta gamma")
    b = emb.encode_one("gamma beta alpha")
    assert not np.allclose(a, b)


def test_hash_embedder_case_insensitive():
    emb = gt.HashingTextEmbedder(32)
    assert np.array_equal(emb.encode_one("Solve This"), emb.encode_one("solve this"))


def test_hash_embedder_batch_shapes():
    emb = gt.HashingTextEmbedder(8)
    out = emb.encode(["one", "two", "three"])
    assert out.shape == (3, 8)
    assert emb.encode([]).shape == (0, 8)


def test_hash_embedder_rejects_bad_dim():
    with pytest.raises(ValidationError):
        gt.HashingTextEmbedder(0)


def test_candidate_matrix_layout():
    pool = gt.default_pool()
    emb = gt.HashingTextEmbedder(24)
    cand = gt.build_candidate_matrix(emb, pool)
    assert cand.matrix.shape == (pool.size + 1, 24)
    assert cand.end_index == pool.size
    assert cand.dim == 24
    assert np.array_equal(cand.matrix[-1], np.zeros(24))
    # Frozen rows are the embeddings of each group's canonical text.
    assert np.array_equal(cand.matrix[0], emb.encode_one(pool[0].text()))


def test_candidate_matrix_validates_shape():
    with pytest.raises(ValidationError, match="rows"):
        gt.CandidateMatrix(matrix=np.zeros((3, 8)), pool_size=4)


def test_http_encoder_success():
    session = FakeSession(
        [FakeResponse(payload={"embeddings": [[1.0, 0.0], [0.0, 1.0]]})]
    )
    client = gt.HttpEncoderClient(2, url="http://enc.test/v1", key="sk-1",
                                  session=session)
    out = client.encode(["a", "b"])
    assert out.shape == (2, 2)
    call = session.calls[0]
    assert call["headers"]["Authorization"] == "Bearer sk-1"
    assert call["json"] == {"texts": ["a", "b"]}


def test_http_encoder_bad_status(sleeps):
    session = FakeSession([FakeResponse(status_code=503, text="down")] * 3)
    client = gt.HttpEncoderClient(2, url="http://enc.test", session=session)
    with pytest.raises(BackendError, match="503"):
        client.encode(["a"])
    assert len(session.calls) == 3


def test_http_encoder_wrong_shape():
    session = FakeSession([FakeResponse(payload={"embeddings": [[1.0, 2.0, 3.0]]})])
    client = gt.HttpEncoderClient(2, url="http://enc.test", session=session)
    with pytest.raises(BackendError, match="shape"):
        client.encode(["a"])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_http_encoder_rejects_non_finite_embeddings(bad):
    session = FakeSession([FakeResponse(payload={"embeddings": [[1.0, 0.0], [bad, 1.0]]})])
    client = gt.HttpEncoderClient(2, url="http://enc.test", session=session)
    with pytest.raises(BackendError, match="NaN or infinite"):
        client.encode(["a", "b"])


def test_http_encoder_transport_error(sleeps):
    session = FakeSession([ConnectionError("refused")] * 3)
    client = gt.HttpEncoderClient(2, url="http://enc.test", session=session)
    with pytest.raises(BackendError, match="failed"):
        client.encode(["a"])
    assert len(session.calls) == 3


def test_http_encoder_requires_url(monkeypatch):
    monkeypatch.delenv("GOA_ENCODER_URL", raising=False)
    with pytest.raises(BackendError, match="GOA_ENCODER_URL"):
        gt.HttpEncoderClient(4)


def test_http_encoder_reads_env(monkeypatch):
    monkeypatch.setenv("GOA_ENCODER_URL", "http://enc.env")
    monkeypatch.setenv("GOA_ENCODER_KEY", "k-env")
    session = FakeSession([FakeResponse(payload={"embeddings": [[0.0] * 4]})])
    client = gt.HttpEncoderClient(4, session=session)
    client.encode(["x"])
    assert session.calls[0]["url"] == "http://enc.env"
    assert session.calls[0]["headers"]["Authorization"] == "Bearer k-env"
