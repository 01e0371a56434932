"""Deterministic execution harness for agent graphs.

Runs an agent graph against a backend round by round in topological order,
accounts tokens with a fixed word/character formula, supports prompt-level
attack injection against a chosen node, and scores datasets with exact,
numeric, or containment matching.
"""

from __future__ import annotations

import math
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence, runtime_checkable

from .errors import BackendError, ValidationError
from .graph import (
    RECORD_VERSION,
    AgentGraph,
    GroupGraph,
    GroupPool,
    materialize_agent_graph,
    topological_schedule,
)

_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def count_tokens(text: str) -> int:
    """Deterministic token estimate: ceil((words + ceil(chars/4)) / 2).

    ``words`` splits on whitespace; ``chars`` counts non-whitespace
    characters. Empty or all-whitespace text counts as zero.
    """
    words = len(text.split())
    chars = sum(1 for c in text if not c.isspace())
    return math.ceil((words + math.ceil(chars / 4)) / 2)


@dataclass(frozen=True)
class BackendResult:
    """One completion; token fields are provider-reported when available."""

    text: str
    prompt_tokens: int | None = None
    completion_tokens: int | None = None


@runtime_checkable
class AgentBackend(Protocol):
    def complete(self, system: str, user: str, *, role: str) -> BackendResult: ...


class ScriptedBackend:
    """Deterministic backend driven by a plain function (role, system, user)."""

    def __init__(self, fn: Callable[[str, str, str], str]):
        self._fn = fn

    def complete(self, system: str, user: str, *, role: str) -> BackendResult:
        return BackendResult(text=self._fn(role, system, user))


class CompressiveEchoBackend:
    """Replies with a compressed echo of the prompt.

    The reply keeps every ``keep_every``-th word of the combined prompt, so
    reply length grows affinely (slope < 1) with prompt length. That makes
    token totals sensitive to topology in a realistic way: richer context in
    means longer replies out.
    """

    def __init__(self, keep_every: int = 3, prefix: str = "recap:"):
        if keep_every < 1:
            raise ValidationError("keep_every must be >= 1")
        self.keep_every = keep_every
        self.prefix = prefix

    def complete(self, system: str, user: str, *, role: str) -> BackendResult:
        words = f"{system} {user}".split()
        kept = words[:: self.keep_every]
        return BackendResult(text=" ".join([self.prefix] + kept))


class AnswerKeyBackend:
    """Scripted solver that answers queries from a fixed key.

    If ``marker`` appears anywhere in the prompt the node is considered
    compromised and replies with ``corruption`` instead; downstream nodes
    that see a corrupted reply propagate it, so one poisoned system prompt
    taints the whole path to the final answer.
    """

    def __init__(
        self,
        answers: dict[str, str],
        marker: str | None = None,
        corruption: str = "CORRUPTED-RESULT",
    ):
        self.answers = dict(answers)
        self.marker = marker
        self.corruption = corruption

    def complete(self, system: str, user: str, *, role: str) -> BackendResult:
        combined = f"{system}\n{user}"
        if self.marker and self.marker in combined:
            return BackendResult(text=self.corruption)
        if self.corruption in combined:
            return BackendResult(text=self.corruption)
        for query, answer in self.answers.items():
            if query in combined:
                return BackendResult(text=answer)
        return BackendResult(text="no answer")


class HttpAgentBackend:
    """Chat-completions client for a remote agent service.

    Endpoint and bearer key default to the ``GOA_LLM_URL`` / ``GOA_LLM_KEY``
    environment variables. The request body follows the common
    chat-completions shape (system + user messages); provider-reported usage
    is surfaced so token accounting can prefer it.
    """

    def __init__(
        self,
        url: str | None = None,
        key: str | None = None,
        *,
        model: str | None = None,
        timeout: float = 60.0,
        max_retries: int = 2,
        backoff: float = 0.5,
        session=None,
    ):
        self.url = url or os.environ.get("GOA_LLM_URL")
        self.key = key if key is not None else os.environ.get("GOA_LLM_KEY")
        if not self.url:
            raise BackendError(
                "no agent endpoint configured; set GOA_LLM_URL or pass url="
            )
        self.model = model
        self.timeout = timeout
        self.max_retries = max(0, int(max_retries))
        self.backoff = backoff
        if session is None:
            import requests

            session = requests.Session()
        self._session = session

    def complete(self, system: str, user: str, *, role: str) -> BackendResult:
        payload: dict = {
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ]
        }
        if self.model:
            payload["model"] = self.model
        headers = {"Content-Type": "application/json"}
        if self.key:
            headers["Authorization"] = f"Bearer {self.key}"
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                response = self._session.post(
                    self.url, json=payload, headers=headers, timeout=self.timeout
                )
            except Exception as exc:
                last_error = exc
                continue
            status = getattr(response, "status_code", 200)
            if status >= 500:
                last_error = BackendError(f"agent backend returned HTTP {status}")
                continue
            if status >= 400:
                raise BackendError(
                    f"agent backend rejected the request (HTTP {status}): "
                    f"{getattr(response, 'text', '')[:200]}"
                )
            try:
                body = response.json()
                text = body["choices"][0]["message"]["content"]
            except Exception as exc:
                raise BackendError(
                    f"agent backend returned an unusable payload: {exc}"
                ) from exc
            usage = body.get("usage") or {}
            return BackendResult(
                text=str(text),
                prompt_tokens=usage.get("prompt_tokens"),
                completion_tokens=usage.get("completion_tokens"),
            )
        raise BackendError(f"agent backend unreachable: {last_error}")


# ---------------------------------------------------------------------------
# Running graphs.


@dataclass(frozen=True)
class AttackSpec:
    """Prompt-injection attack: ``text`` is prepended to the system prompt of
    the ``target`` node (name or index) on every call."""

    target: int | str
    text: str

    def resolve(self, agent_graph: AgentGraph) -> int:
        if isinstance(self.target, int):
            if not 0 <= self.target < len(agent_graph.nodes):
                raise ValidationError(
                    f"attack target index {self.target} out of range"
                )
            return self.target
        for idx, node in enumerate(agent_graph.nodes):
            if node.name == self.target:
                return idx
        raise ValidationError(f"attack target '{self.target}' not found")


@dataclass(frozen=True)
class TranscriptEntry:
    round: int
    node: int
    name: str
    role: str
    prompt_tokens: int
    completion_tokens: int
    text: str


@dataclass
class TokenStats:
    prompt_tokens: int = 0
    completion_tokens: int = 0
    calls: int = 0

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def add(self, prompt: int, completion: int) -> None:
        self.prompt_tokens += prompt
        self.completion_tokens += completion
        self.calls += 1


@dataclass
class RunTranscript:
    query: str
    entries: tuple[TranscriptEntry, ...]
    final_text: str
    stats: TokenStats
    rounds: int


def _build_user_prompt(
    query: str,
    agent_graph: AgentGraph,
    node_idx: int,
    responses: dict[int, str],
    previous_own: str | None,
) -> str:
    parts = [f"Task: {query}"]
    for pred in sorted(agent_graph.predecessors(node_idx)):
        if pred in responses:
            pred_node = agent_graph.nodes[pred]
            parts.append(f"[{pred_node.name} | {pred_node.role}]: {responses[pred]}")
    if previous_own is not None:
        parts.append(f"[your previous reply]: {previous_own}")
    return "\n".join(parts)


def run_graph(
    agent_graph: AgentGraph,
    query: str,
    backend: AgentBackend,
    *,
    rounds: int = 1,
    attack: AttackSpec | None = None,
) -> RunTranscript:
    """Execute an agent graph and return the full transcript.

    Every non-summarizer node runs once per round in topological order,
    seeing the current round's upstream replies plus (after round one) its
    own previous reply. The summarizer runs once after the final round and
    produces the final answer. Tokens are counted with
    :func:`count_tokens` unless the backend reports usage.
    """
    if rounds < 1:
        raise ValidationError(f"rounds must be >= 1, got {rounds}")
    order = topological_schedule(agent_graph)
    worker_order = [i for i in order if i != agent_graph.summarizer]
    attack_idx = attack.resolve(agent_graph) if attack is not None else None

    stats = TokenStats()
    entries: list[TranscriptEntry] = []
    previous_round: dict[int, str] = {}

    def call(node_idx: int, round_no: int, responses: dict[int, str]) -> str:
        node = agent_graph.nodes[node_idx]
        system = node.prompt
        if attack_idx == node_idx and attack is not None:
            system = f"{attack.text}\n{system}"
        user = _build_user_prompt(
            query,
            agent_graph,
            node_idx,
            responses,
            previous_round.get(node_idx) if round_no > 1 else None,
        )
        result = backend.complete(system, user, role=node.role)
        prompt_tokens = (
            result.prompt_tokens
            if result.prompt_tokens is not None
            else count_tokens(system) + count_tokens(user)
        )
        completion_tokens = (
            result.completion_tokens
            if result.completion_tokens is not None
            else count_tokens(result.text)
        )
        stats.add(prompt_tokens, completion_tokens)
        entries.append(
            TranscriptEntry(
                round=round_no,
                node=node_idx,
                name=node.name,
                role=node.role,
                prompt_tokens=prompt_tokens,
                completion_tokens=completion_tokens,
                text=result.text,
            )
        )
        return result.text

    current: dict[int, str] = {}
    for round_no in range(1, rounds + 1):
        current = {}
        for node_idx in worker_order:
            current[node_idx] = call(node_idx, round_no, current)
        previous_round = current

    if agent_graph.summarizer is not None:
        final_text = call(agent_graph.summarizer, rounds, current)
    elif worker_order:
        final_text = current[worker_order[-1]]
    else:
        final_text = ""

    return RunTranscript(
        query=query,
        entries=tuple(entries),
        final_text=final_text,
        stats=stats,
        rounds=rounds,
    )


# ---------------------------------------------------------------------------
# Dataset evaluation.


@dataclass(frozen=True)
class EvalExample:
    """A query with its reference answer and a match rule.

    Rules: "exact" (stripped equality), "numeric" (last number in the reply
    within tolerance), "contains" (answer substring), or "auto" (numeric when
    the answer parses as a number, containment otherwise).
    """

    query: str
    answer: str
    match: str = "auto"

    def __post_init__(self) -> None:
        if self.match not in ("exact", "numeric", "contains", "auto"):
            raise ValidationError(f"unknown match rule '{self.match}'")


def example_to_record(example: EvalExample) -> dict:
    return {
        "v": RECORD_VERSION,
        "kind": "example",
        "query": example.query,
        "answer": example.answer,
        "match": example.match,
    }


def example_from_record(record: dict) -> EvalExample:
    if record.get("kind") != "example":
        raise ValidationError(f"expected kind 'example', found '{record.get('kind')}'")
    if "query" not in record or "answer" not in record:
        raise ValidationError("example record needs 'query' and 'answer'")
    return EvalExample(
        query=str(record["query"]),
        answer=str(record["answer"]),
        match=str(record.get("match", "auto")),
    )


def answer_matches(
    expected: str, got: str, rule: str = "auto", *, tol: float = 1e-6
) -> bool:
    expected = expected.strip()
    got = got.strip()
    if rule == "auto":
        try:
            float(expected)
            rule = "numeric"
        except ValueError:
            rule = "contains"
    if rule == "exact":
        return expected == got
    if rule == "contains":
        return bool(expected) and expected in got
    if rule == "numeric":
        try:
            want = float(expected)
        except ValueError:
            return False
        found = _NUMBER_RE.findall(got)
        if not found:
            return False
        have = float(found[-1])
        return math.isclose(want, have, rel_tol=tol, abs_tol=tol)
    raise ValidationError(f"unknown match rule '{rule}'")


@dataclass(frozen=True)
class ItemResult:
    query: str
    expected: str
    got: str
    correct: bool
    prompt_tokens: int
    completion_tokens: int
    calls: int


@dataclass
class EvalReport:
    accuracy: float
    items: tuple[ItemResult, ...]
    stats: TokenStats = field(default_factory=TokenStats)


def evaluate(
    dataset: Sequence[EvalExample],
    graphs: GroupGraph | Sequence[GroupGraph],
    pool: GroupPool,
    backend: AgentBackend,
    *,
    mode: str = "composite",
    rounds: int = 1,
    attack: AttackSpec | None = None,
    max_workers: int | None = None,
) -> EvalReport:
    """Run each example through its graph and score the final answers.

    ``graphs`` is either one graph reused for every example or a sequence
    aligned with the dataset. Results keep dataset order even when executed
    with a thread pool.
    """
    if not dataset:
        raise ValidationError("evaluation dataset is empty")
    if isinstance(graphs, GroupGraph):
        graph_list = [graphs] * len(dataset)
    else:
        graph_list = list(graphs)
        if len(graph_list) != len(dataset):
            raise ValidationError(
                f"{len(graph_list)} graphs for {len(dataset)} examples"
            )
    agent_graphs = [materialize_agent_graph(g, pool, mode) for g in graph_list]

    def run_one(idx: int) -> ItemResult:
        example = dataset[idx]
        transcript = run_graph(
            agent_graphs[idx], example.query, backend, rounds=rounds, attack=attack
        )
        correct = answer_matches(example.answer, transcript.final_text, example.match)
        return ItemResult(
            query=example.query,
            expected=example.answer,
            got=transcript.final_text,
            correct=correct,
            prompt_tokens=transcript.stats.prompt_tokens,
            completion_tokens=transcript.stats.completion_tokens,
            calls=transcript.stats.calls,
        )

    indices = range(len(dataset))
    if max_workers and max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool_exec:
            items = list(pool_exec.map(run_one, indices))
    else:
        items = [run_one(i) for i in indices]

    stats = TokenStats()
    for item in items:
        stats.prompt_tokens += item.prompt_tokens
        stats.completion_tokens += item.completion_tokens
        stats.calls += item.calls
    accuracy = sum(1 for i in items if i.correct) / len(items)
    return EvalReport(accuracy=accuracy, items=tuple(items), stats=stats)
