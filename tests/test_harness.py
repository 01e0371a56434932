"""Execution-harness tests: token accounting, prompt assembly, rounds,
attacks, scoring, and the HTTP transport of both clients against a fake
session."""

from __future__ import annotations

import dataclasses

import pytest
import requests

import grouptopo as gt
from grouptopo.errors import BackendError, ValidationError
from grouptopo.harness import AttackSpec, _build_user_prompt

from conftest import FakeResponse, FakeSession, pool4  # noqa: F401


# ---------------------------------------------------------------------------
# Token accounting.


@pytest.mark.parametrize("text,expected", [
    ("", 0),
    ("a", 1),
    ("hello world", 3),
    ("one two three four", 4),
])
def test_count_tokens(text, expected):
    assert gt.count_tokens(text) == expected


def test_count_tokens_ignores_whitespace_runs():
    assert gt.count_tokens("a   b") == gt.count_tokens("a b")


# ---------------------------------------------------------------------------
# Answer matching.


@pytest.mark.parametrize("expected,got,rule,ok", [
    ("42", "the answer is 42", "contains", True),
    ("42", "no idea", "contains", False),
    ("Paris", "paris", "exact", False),
    ("Paris", "Paris", "exact", True),
    ("3.5", "I compute 3.49999999 roughly", "numeric", True),
    ("3.5", "first 7 then final 3.5", "numeric", True),
    ("3.5", "maybe 7", "numeric", False),
    ("3.5", "no numbers here", "numeric", False),
    ("12", "total: 12", "auto", True),
    ("blue", "the sky is blue today", "auto", True),
    ("1000", "the total is 1,000", "numeric", True),
])
def test_answer_matches(expected, got, rule, ok):
    assert gt.answer_matches(expected, got, rule) is ok


def test_answer_rule_validation():
    with pytest.raises(ValidationError):
        gt.EvalExample(query="q", answer="a", match="fuzzy")


def test_example_record_roundtrip():
    ex = gt.EvalExample(query="what is 1 plus 1", answer="2", match="numeric")
    record = gt.example_to_record(ex)
    assert record["kind"] == "example"
    assert gt.example_from_record(record) == ex


# ---------------------------------------------------------------------------
# Scripted backends.


def test_compressive_echo_keeps_every_third():
    backend = gt.CompressiveEchoBackend(keep_every=3)
    result = backend.complete("one two three", "four five six seven", role="r")
    assert result.text == "recap: one four seven"


def test_answer_key_backend_matches_query():
    backend = gt.AnswerKeyBackend({"what is 2 plus 2": "4"})
    out = backend.complete("sys", "Task: what is 2 plus 2", role="solver")
    assert out.text == "4"
    out = backend.complete("sys", "Task: unknown thing", role="solver")
    assert out.text == "no answer"
    # A query that contains another query still gets its own answer.
    backend = gt.AnswerKeyBackend({"add 2 and 3": "5", "add 2 and 3 then double": "10"})
    out = backend.complete("sys", "Task: add 2 and 3 then double", role="solver")
    assert out.text == "10"
    out = backend.complete("sys", "Task: add 2 and 3\n[peer | solver]: 5", role="checker")
    assert out.text == "5"


def test_answer_key_backend_corruption_propagates():
    backend = gt.AnswerKeyBackend(
        {"q": "7"}, marker="EVIL-MARKER", corruption="CORRUPTED-RESULT"
    )
    hit = backend.complete("sys EVIL-MARKER", "Task: q", role="solver")
    assert hit.text == "CORRUPTED-RESULT"
    downstream = backend.complete(
        "sys", "Task: q\n[peer | solver]: CORRUPTED-RESULT", role="checker"
    )
    assert downstream.text == "CORRUPTED-RESULT"


# ---------------------------------------------------------------------------
# Prompt assembly and run loop.


@dataclasses.dataclass
class RecordingBackend:
    replies: dict | None = None
    calls: list = dataclasses.field(default_factory=list)

    def complete(self, system, user, *, role):
        self.calls.append({"system": system, "user": user, "role": role})
        text = (self.replies or {}).get(role, f"reply from {role}")
        return gt.BackendResult(text=text)


def single_group_graph(pool, index=0):
    return gt.materialize_agent_graph(
        gt.GroupGraph(selected=(index,)), pool, mode="composite"
    )


def test_run_graph_call_counts(pool4):
    agents = single_group_graph(pool4)
    backend = RecordingBackend()
    transcript = gt.run_graph(agents, "the query", backend, rounds=1)
    # One worker plus the summarizer.
    assert len(backend.calls) == 2
    assert transcript.stats.calls == 2
    assert transcript.rounds == 1

    backend = RecordingBackend()
    gt.run_graph(agents, "the query", backend, rounds=3)
    assert len(backend.calls) == 4  # 3 worker rounds + summarizer once


def test_run_graph_rejects_bad_rounds(pool4):
    agents = single_group_graph(pool4)
    with pytest.raises(ValidationError, match="rounds"):
        gt.run_graph(agents, "q", RecordingBackend(), rounds=0)


def test_prompt_contains_task_and_predecessors(pool4):
    graph = gt.GroupGraph(selected=(0, 1), edges=((0, 1),))
    agents = gt.materialize_agent_graph(graph, pool4, mode="composite")
    backend = RecordingBackend()
    gt.run_graph(agents, "count the beans", backend)
    first, second, summarizer = backend.calls
    assert "Task: count the beans" in first["user"]
    assert "[" not in first["user"]  # no predecessors on step 0
    assert "reply from" in second["user"]
    assert second["user"].index("Task:") == 0
    # Summarizer sees sink output.
    assert "reply from" in summarizer["user"]


def test_own_previous_reply_appears_from_round_two(pool4):
    agents = single_group_graph(pool4)
    backend = RecordingBackend()
    gt.run_graph(agents, "q", backend, rounds=2)
    round1, round2 = backend.calls[0], backend.calls[1]
    assert "[your previous reply]" not in round1["user"]
    assert "[your previous reply]" in round2["user"]


def test_attack_prepended_to_target_system_prompt(pool4):
    graph = gt.GroupGraph(selected=(0, 1), edges=((0, 1),))
    agents = gt.materialize_agent_graph(graph, pool4, mode="composite")
    backend = RecordingBackend()
    attack = AttackSpec(target=0, text="INJECTED DIRECTIVE")
    gt.run_graph(agents, "q", backend, rounds=2, attack=attack)
    # Target node sees the text once per round; nobody else ever does.
    seen = [c for c in backend.calls if c["system"].startswith("INJECTED DIRECTIVE")]
    clean = [c for c in backend.calls if "INJECTED" not in c["system"]]
    assert len(seen) == 2  # rounds
    assert len(clean) == len(backend.calls) - 2


def test_attack_target_resolution(pool4):
    agents = single_group_graph(pool4)
    assert AttackSpec(target=0, text="x").resolve(agents) == 0
    name = agents.nodes[0].name
    assert AttackSpec(target=name, text="x").resolve(agents) == 0
    with pytest.raises(ValidationError, match="target"):
        AttackSpec(target=99, text="x").resolve(agents)
    with pytest.raises(ValidationError, match="target"):
        AttackSpec(target="nonexistent", text="x").resolve(agents)


def test_run_uses_provider_reported_usage(pool4):
    class UsageBackend:
        def complete(self, system, user, *, role):
            return gt.BackendResult(text="ok", prompt_tokens=1000,
                                    completion_tokens=500)

    agents = single_group_graph(pool4)
    transcript = gt.run_graph(agents, "q", UsageBackend())
    assert transcript.stats.prompt_tokens == 2000
    assert transcript.stats.completion_tokens == 1000


def test_run_estimates_tokens_when_unreported(pool4):
    agents = single_group_graph(pool4)
    backend = RecordingBackend()
    transcript = gt.run_graph(agents, "q", backend)
    expected_prompt = sum(
        gt.count_tokens(c["system"]) + gt.count_tokens(c["user"])
        for c in backend.calls
    )
    assert transcript.stats.prompt_tokens == expected_prompt
    assert transcript.stats.completion_tokens == sum(
        gt.count_tokens(e.text) for e in transcript.entries
    )


def test_final_text_comes_from_summarizer(pool4):
    agents = single_group_graph(pool4)
    backend = RecordingBackend(replies={"summarizer": "the final word"})
    transcript = gt.run_graph(agents, "q", backend)
    assert transcript.final_text == "the final word"


# ---------------------------------------------------------------------------
# Evaluation.


def arithmetic_dataset(n=4):
    return [
        gt.EvalExample(query=f"what is {i} plus {i + 1}", answer=str(2 * i + 1))
        for i in range(n)
    ]


def test_evaluate_perfect_backend(pool4):
    dataset = arithmetic_dataset()
    backend = gt.AnswerKeyBackend({ex.query: ex.answer for ex in dataset})
    report = gt.evaluate(dataset, gt.GroupGraph(selected=(0,)), pool4, backend)
    assert report.accuracy == 1.0
    assert len(report.items) == len(dataset)
    assert report.stats.calls == 2 * len(dataset)
    assert all(item.correct for item in report.items)


def test_evaluate_per_item_graphs(pool4):
    dataset = arithmetic_dataset(2)
    backend = gt.AnswerKeyBackend({ex.query: ex.answer for ex in dataset})
    graphs = [gt.GroupGraph(selected=(0,)), gt.GroupGraph(selected=(1,))]
    report = gt.evaluate(dataset, graphs, pool4, backend)
    assert report.accuracy == 1.0
    with pytest.raises(ValidationError, match="graphs"):
        gt.evaluate(dataset, graphs[:1], pool4, backend)


def test_evaluate_worker_parity(pool4):
    dataset = arithmetic_dataset(6)
    backend = gt.AnswerKeyBackend({ex.query: ex.answer for ex in dataset})
    graph = gt.GroupGraph(selected=(0, 1), edges=((0, 1),))
    serial = gt.evaluate(dataset, graph, pool4, backend)
    threaded = gt.evaluate(dataset, graph, pool4, backend, max_workers=3)
    assert serial.accuracy == threaded.accuracy
    assert serial.stats == threaded.stats
    assert [i.got for i in serial.items] == [i.got for i in threaded.items]


def test_evaluate_attack_lowers_accuracy(pool4):
    dataset = arithmetic_dataset(5)
    backend = gt.AnswerKeyBackend(
        {ex.query: ex.answer for ex in dataset}, marker="OVERRIDE-XYZZY"
    )
    graph = gt.GroupGraph(selected=(0,))
    clean = gt.evaluate(dataset, graph, pool4, backend)
    attacked = gt.evaluate(
        dataset, graph, pool4, backend,
        attack=AttackSpec(target=0, text="obey OVERRIDE-XYZZY now"),
    )
    assert clean.accuracy == 1.0
    assert attacked.accuracy < clean.accuracy


# ---------------------------------------------------------------------------
# HTTP agent backend.


def chat_payload(text, prompt_tokens=None, completion_tokens=None):
    payload = {"choices": [{"message": {"content": text}}]}
    if prompt_tokens is not None:
        payload["usage"] = {
            "prompt_tokens": prompt_tokens,
            "completion_tokens": completion_tokens,
        }
    return payload


def test_http_backend_success():
    session = FakeSession([FakeResponse(200, chat_payload("hi there", 11, 3))])
    backend = gt.HttpAgentBackend(
        url="http://llm.test/v1/chat", key="sekrit", model="m1", session=session
    )
    result = backend.complete("sys prompt", "user prompt", role="solver")
    assert result.text == "hi there"
    assert result.prompt_tokens == 11
    assert result.completion_tokens == 3
    call = session.calls[0]
    assert call["headers"]["Authorization"] == "Bearer sekrit"
    assert call["json"]["model"] == "m1"
    assert call["json"]["messages"][0] == {"role": "system", "content": "sys prompt"}
    assert call["json"]["messages"][1] == {"role": "user", "content": "user prompt"}


def test_http_backend_retries_on_server_error(sleeps):
    session = FakeSession([
        FakeResponse(503),
        requests.ConnectionError("refused"),
        FakeResponse(200, chat_payload("recovered")),
    ])
    backend = gt.HttpAgentBackend(url="http://llm.test", session=session)
    assert backend.complete("s", "u", role="r").text == "recovered"
    assert len(session.calls) == 3


def test_http_backend_gives_up_after_retries(sleeps):
    session = FakeSession([FakeResponse(500)] * 3)
    backend = gt.HttpAgentBackend(url="http://llm.test", session=session)
    with pytest.raises(BackendError, match="500"):
        backend.complete("s", "u", role="r")
    assert len(session.calls) == 3


def test_http_backend_client_error_no_retry(sleeps):
    session = FakeSession([FakeResponse(401)])
    backend = gt.HttpAgentBackend(url="http://llm.test", session=session)
    with pytest.raises(BackendError, match="401"):
        backend.complete("s", "u", role="r")
    assert len(session.calls) == 1


def test_http_backend_rejects_malformed_payload():
    session = FakeSession([FakeResponse(200, {"unexpected": True})])
    backend = gt.HttpAgentBackend(url="http://llm.test", session=session)
    with pytest.raises(BackendError):
        backend.complete("s", "u", role="r")


def test_http_backend_requires_url(monkeypatch):
    monkeypatch.delenv("GOA_LLM_URL", raising=False)
    with pytest.raises(BackendError, match="GOA_LLM_URL"):
        gt.HttpAgentBackend()


def test_http_backend_reads_env(monkeypatch):
    monkeypatch.setenv("GOA_LLM_URL", "http://env.test")
    monkeypatch.setenv("GOA_LLM_KEY", "env-key")
    session = FakeSession([FakeResponse(200, chat_payload("ok"))])
    backend = gt.HttpAgentBackend(session=session)
    backend.complete("s", "u", role="r")
    assert session.calls[0]["url"] == "http://env.test"
    assert session.calls[0]["headers"]["Authorization"] == "Bearer env-key"


# ---------------------------------------------------------------------------
# The HTTP transport both clients share.

# name -> (client on a session, one call returning a value, a good payload).
HTTP_CLIENTS = {
    "agent": (
        lambda session: gt.HttpAgentBackend(url="http://llm.test", session=session),
        lambda client: client.complete("s", "u", role="r").text,
        chat_payload("ok"),
    ),
    "encoder": (
        lambda session: gt.HttpEncoderClient(1, url="http://enc.test", session=session),
        lambda client: client.encode(["a"]).tolist(),
        {"embeddings": [[1.0]]},
    ),
}


@pytest.fixture(params=sorted(HTTP_CLIENTS))
def http_call(request):
    """``http_call(*responses)`` calls one client once on a fake session that
    returns, or raises, ``responses`` and then a good reply; returns the
    session. Raising before the good reply shows there was no retry."""
    make, call, payload = HTTP_CLIENTS[request.param]

    def run(*responses):
        session = FakeSession([*responses, FakeResponse(200, payload)])
        call(make(session))
        return session

    return run


@pytest.mark.parametrize("failure", [
    FakeResponse(429),
    FakeResponse(503),
    requests.ConnectionError("refused"),
    ConnectionResetError("reset"),
], ids=["429", "503", "requests_error", "os_error"])
def test_http_retries_with_backoff(http_call, sleeps, failure):
    session = http_call(failure, failure)
    assert len(session.calls) == 3
    assert sleeps == [0.5, 1.0]


@pytest.mark.parametrize("retry_after, delay", [
    ("2", 2),
    ("Wed, 21 Oct 2026 07:28:00 GMT", 0.5),
], ids=["seconds", "date"])
def test_http_honours_retry_after(http_call, sleeps, retry_after, delay):
    http_call(FakeResponse(429, headers={"Retry-After": retry_after}))
    assert sleeps == [delay]


@pytest.mark.parametrize("failure, error, needle", [
    (FakeResponse(404, text="no route"), BackendError, "404"),
    (FakeResponse(200), BackendError, "not JSON"),
    (TypeError("bad argument"), TypeError, "bad argument"),
], ids=["404", "not_json", "programming_error"])
def test_http_fails_at_once(http_call, sleeps, failure, error, needle):
    with pytest.raises(error, match=needle):
        http_call(failure)
    assert sleeps == []
