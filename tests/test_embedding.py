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
    for dim in (0, 2.5, True, "8", None):
        with pytest.raises(ValidationError, match="'dim' must be an integer >= 1"):
            gt.HashingTextEmbedder(dim)
        with pytest.raises(ValidationError, match="'dim' must be an integer >= 1"):
            gt.HttpEncoderClient(dim, url="http://enc.test", session=object())


def test_embedders_store_dim_as_python_int():
    assert gt.HashingTextEmbedder(np.int64(8)).encode(["a b"]).shape == (1, 8)
    client = gt.HttpEncoderClient(np.int32(2), url="http://enc.test", session=object())
    assert client.encode([]).shape == (0, 2)


def test_candidate_matrix_layout():
    pool = gt.default_pool()
    emb = gt.HashingTextEmbedder(24)
    cand = gt.build_candidate_matrix(emb, pool)
    # One frozen row per group, the embedding of its canonical text; the
    # model appends its own STOP row.
    assert cand.shape == (pool.size, 24)
    assert cand.dtype == np.float64
    assert np.array_equal(cand[0], emb.encode_one(pool[0].text()))


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


@pytest.mark.parametrize("rows", [
    [[True, False], [False, True]],
    [["1.0", "0.0"], ["0.0", "1.0"]],
    [[10**400, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [1.0]],
    [[1.0, None], [0.0, 1.0]],
], ids=["bools", "strings", "huge_int", "ragged", "null"])
def test_http_encoder_rejects_rows_that_are_not_real_numbers(rows):
    session = FakeSession([FakeResponse(payload={"embeddings": rows})])
    client = gt.HttpEncoderClient(2, url="http://enc.test", session=session)
    with pytest.raises(BackendError, match="unusable payload"):
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
