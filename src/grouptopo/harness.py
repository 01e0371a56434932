"""Deterministic execution harness for agent graphs.

Runs an agent graph against a backend, each call as soon as its inputs exist,
accounts tokens with a fixed word/character formula, supports prompt-level
attack injection against a chosen node, and scores datasets with exact,
numeric, or containment matching.
"""

from __future__ import annotations

import heapq
import math
import os
import re
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Protocol, Sequence

from .errors import BackendError, ValidationError
from .graph import (
    AgentGraph,
    GroupGraph,
    GroupPool,
    check_header,
    make_record,
    materialize_agent_graph,
    record_field,
)

# Numeric answers match within this relative and absolute tolerance.
NUMERIC_TOL = 1e-6
# Digits may carry thousands separators: "1,000" reads as 1000.
_NUMBER_RE = re.compile(r"-?(?:\d{1,3}(?:,\d{3})+(?!\d)|\d+)(?:\.\d+)?(?:[eE][-+]?\d+)?")


def count_tokens(text: str) -> int:
    """Deterministic token estimate: ceil((words + ceil(chars/4)) / 2).

    ``words`` splits on whitespace; ``chars`` counts non-whitespace
    characters. Empty or all-whitespace text counts as zero.
    """
    words = text.split()
    chars = sum(map(len, words))
    return math.ceil((len(words) + math.ceil(chars / 4)) / 2)


@dataclass(frozen=True)
class BackendResult:
    """One completion; token fields are provider-reported when available."""

    text: str
    prompt_tokens: int | None = None
    completion_tokens: int | None = None


class AgentBackend(Protocol):
    def complete(self, system: str, user: str, *, role: str) -> BackendResult: ...


ECHO_KEEP_EVERY = 3
ECHO_PREFIX = "recap:"


class CompressiveEchoBackend:
    """Replies with a compressed echo of the prompt.

    The reply is ``ECHO_PREFIX`` and every ``ECHO_KEEP_EVERY``-th word of the
    combined prompt, so reply length grows affinely (slope < 1) with prompt
    length. That makes token totals sensitive to topology in a realistic way:
    richer context in means longer replies out.
    """

    def complete(self, system: str, user: str, *, role: str) -> BackendResult:
        words = f"{system} {user}".split()
        return BackendResult(text=" ".join([ECHO_PREFIX] + words[::ECHO_KEEP_EVERY]))


CORRUPTION = "CORRUPTED-RESULT"


class AnswerKeyBackend:
    """Scripted solver that answers queries from a fixed key.

    The query is read from the ``Task: <query>`` line that :func:`run_graph`
    puts first in every user prompt, and must match a key exactly.

    If ``marker`` appears anywhere in the prompt the node is considered
    compromised and replies with ``CORRUPTION`` instead; downstream nodes
    that see a corrupted reply propagate it, so one poisoned system prompt
    taints the whole path to the final answer.
    """

    def __init__(self, answers: dict[str, str], marker: str | None = None):
        self.answers = dict(answers)
        self.marker = marker

    def complete(self, system: str, user: str, *, role: str) -> BackendResult:
        combined = f"{system}\n{user}"
        if (self.marker and self.marker in combined) or CORRUPTION in combined:
            return BackendResult(text=CORRUPTION)
        task_line = user.split("\n", 1)[0]
        query = task_line[len("Task: ") :] if task_line.startswith("Task: ") else None
        return BackendResult(text=self.answers.get(query, "no answer"))


# Retry policy of every HTTP client. Transport errors (``OSError``, which
# ``requests`` errors subclass), 429 and 5xx are retried with exponential backoff,
# or after the server's ``Retry-After`` when it gives whole seconds, capped at
# HTTP_TIMEOUT_S. Other 4xx and bodies that are not JSON raise BackendError at
# once; other exceptions propagate.
HTTP_TIMEOUT_S = 60.0
HTTP_ATTEMPTS = 3
HTTP_BACKOFF_S = 0.5


class HttpEndpoint:
    """A JSON service reached by POST, named ``name`` in error messages. URL and
    bearer key default to the ``{env}_URL`` / ``{env}_KEY`` environment variables."""

    def __init__(self, name: str, env: str, url=None, key=None, session=None):
        self.name = name
        self.url = url or os.environ.get(f"{env}_URL")
        key = key if key is not None else os.environ.get(f"{env}_KEY")
        self.headers = {"Authorization": f"Bearer {key}"} if key else {}
        if not self.url:
            raise BackendError(f"no {name} endpoint configured; set {env}_URL or pass url=")
        if session is None:
            import requests

            session = requests.Session()
        self.session = session

    def post_json(self, payload: dict):
        """POST ``payload`` under the retry policy; return the decoded body."""
        for attempt in range(HTTP_ATTEMPTS):
            if attempt:
                time.sleep(delay)
            delay = HTTP_BACKOFF_S * 2**attempt
            try:
                response = self.session.post(
                    self.url, json=payload, headers=self.headers, timeout=HTTP_TIMEOUT_S
                )
            except OSError as exc:
                failure = str(exc)
                continue
            status = response.status_code
            if status == 429 or status >= 500:
                failure = f"HTTP {status}"
                retry_after = response.headers.get("Retry-After", "")
                if retry_after.isdecimal():
                    delay = min(int(retry_after), HTTP_TIMEOUT_S)
                continue
            if status >= 400:
                raise BackendError(
                    f"{self.name} rejected the request (HTTP {status}): "
                    f"{response.text[:200]}"
                )
            try:
                return response.json()
            except ValueError as exc:
                raise BackendError(f"{self.name} sent a body that is not JSON: {exc}")
        raise BackendError(f"{self.name} failed after {HTTP_ATTEMPTS} attempts: {failure}")


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
        session=None,
    ):
        self.endpoint = HttpEndpoint("agent backend", "GOA_LLM", url, key, session)
        self.model = model

    def complete(self, system: str, user: str, *, role: str) -> BackendResult:
        payload: dict = {
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ]
        }
        if self.model:
            payload["model"] = self.model
        body = self.endpoint.post_json(payload)
        try:
            text = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(
                f"agent backend returned an unusable payload: {exc}"
            ) from exc
        if not isinstance(text, str):
            raise BackendError(
                f"agent backend returned an unusable payload: content is {text!r}"
            )
        usage = body.get("usage")
        usage = {} if usage is None else usage
        if not isinstance(usage, dict):
            raise BackendError(
                f"agent backend returned an unusable payload: usage is {usage!r}"
            )
        counts = [usage.get("prompt_tokens"), usage.get("completion_tokens")]
        for count in counts:
            if count is not None and (
                isinstance(count, bool) or not isinstance(count, int) or count < 0
            ):
                raise BackendError(
                    "agent backend returned an unusable payload: "
                    f"token count {count!r} is not a non-negative integer"
                )
        return BackendResult(text, *counts)


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


def _run_all(
    runs: Sequence[tuple[AgentGraph, str]], backend: AgentBackend, *,
    rounds: int, attack: AttackSpec | None, max_workers: int | None,
) -> list[RunTranscript]:
    """Execute each ``(agent_graph, query)`` run as :func:`run_graph` does, all on
    one schedule; return the transcripts in run order. At most ``max_workers``
    calls run at once (``None``: the worker count of the largest graph). Ready
    calls start in run order, then transcript order, so a bound of 1 runs the
    calls of a serial loop, in its order, on this thread."""
    if rounds < 1:
        raise ValidationError(f"rounds must be >= 1, got {rounds}")
    # A call is (run, round, node), numbered run by run in transcript order:
    # the n workers of a run, nodes 0 to n - 1, once per round, then its
    # summarizer, node n. A call waits for its predecessors' calls in the same
    # round and, for a worker, for its own call n positions back.
    calls: list[tuple[int, int, int]] = []
    waiting: list[int] = []
    dependents: list[list[int]] = []
    ends: list[int] = []
    # Per run and node, the nodes whose replies it reads, in prompt order.
    preds: list[list[list[int]]] = []
    attack_idx: list[int | None] = []
    widest = 1
    for r, (agent_graph, _) in enumerate(runs):
        n = agent_graph.summarizer
        widest = max(widest, n)
        attack_idx.append(attack.resolve(agent_graph) if attack is not None else None)
        preds.append([[] for _ in agent_graph.nodes])
        for i, t in sorted(agent_graph.edges):
            preds[r][t].append(i)
        for round_no in range(1, rounds + 1):
            base = len(calls)
            for node_idx in range(n + 1 if round_no == rounds else n):
                inputs = [base + u for u in preds[r][node_idx]]
                if round_no > 1 and node_idx < n:
                    inputs.append(base - n + node_idx)
                for source in inputs:
                    dependents[source].append(len(calls))
                calls.append((r, round_no, node_idx))
                waiting.append(len(inputs))
                dependents.append([])
        ends.append(len(calls))
    entries: dict[tuple[int, int, int], TranscriptEntry] = {}
    ready = [pos for pos, count in enumerate(waiting) if not count]  # a heap

    def prompts(pos: int) -> tuple[str, str]:
        r, round_no, node_idx = calls[pos]
        nodes = runs[r][0].nodes
        system = nodes[node_idx].prompt
        if node_idx == attack_idx[r]:
            system = f"{attack.text}\n{system}"
        parts = [f"Task: {runs[r][1]}"]
        for u in preds[r][node_idx]:
            reply = entries[r, round_no, u].text
            parts.append(f"[{nodes[u].name} | {nodes[u].role}]: {reply}")
        previous = entries.get((r, round_no - 1, node_idx))
        if previous is not None:
            parts.append(f"[your previous reply]: {previous.text}")
        return system, "\n".join(parts)

    def call(pos: int, system: str, user: str) -> TranscriptEntry:
        r, round_no, node_idx = calls[pos]
        node = runs[r][0].nodes[node_idx]
        result = backend.complete(system, user, role=node.role)
        prompt_tokens = result.prompt_tokens
        if prompt_tokens is None:
            prompt_tokens = count_tokens(system) + count_tokens(user)
        completion_tokens = result.completion_tokens
        if completion_tokens is None:
            completion_tokens = count_tokens(result.text)
        return TranscriptEntry(round_no, node_idx, node.name, node.role,
                               prompt_tokens, completion_tokens, result.text)

    def finish(pos: int, entry: TranscriptEntry) -> None:
        entries[calls[pos]] = entry
        for later in dependents[pos]:
            waiting[later] -= 1
            if not waiting[later]:
                heapq.heappush(ready, later)

    # Only this thread reads or writes the schedule; pool threads run ``call``.
    bound = max_workers or widest
    running: dict[Future, int] = {}
    executor: ThreadPoolExecutor | None = None
    try:
        while ready or running:
            if bound == 1 or (len(ready) == 1 and not running):
                pos = heapq.heappop(ready)
                finish(pos, call(pos, *prompts(pos)))
                continue
            if executor is None:
                executor = ThreadPoolExecutor(max_workers=bound)
            while ready and len(running) < bound:
                pos = heapq.heappop(ready)
                running[executor.submit(call, pos, *prompts(pos))] = pos
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                finish(running.pop(future), future.result())
    finally:
        if executor is not None:
            executor.shutdown(cancel_futures=True)

    transcripts = []
    for (_, query), start, end in zip(runs, [0] + ends, ends):
        ordered = tuple(entries[key] for key in calls[start:end])
        stats = TokenStats()
        for entry in ordered:
            stats.add(entry.prompt_tokens, entry.completion_tokens)
        transcripts.append(RunTranscript(query, ordered, ordered[-1].text, stats, rounds))
    return transcripts


def run_graph(
    agent_graph: AgentGraph,
    query: str,
    backend: AgentBackend,
    *,
    rounds: int = 1,
    attack: AttackSpec | None = None,
) -> RunTranscript:
    """Execute an agent graph and return the full transcript.

    Every non-summarizer node runs once per round, seeing the current round's
    upstream replies plus (after round one) its own previous reply. The
    summarizer runs once after the final round, sees its predecessors'
    final-round replies and produces the final answer. Tokens are counted with
    :func:`count_tokens` unless the backend reports usage.

    Each call starts as soon as the replies it reads exist, so calls with no
    path between them run concurrently on a thread pool, and a backend's
    ``complete`` must be thread-safe. The pool is created only when two calls
    are ready at once. The transcript lists calls round by round in
    node order, summarizer last, whatever order they finished in. On
    the first exception no further call starts; calls already running finish,
    and that exception is raised.
    """
    return _run_all(
        [(agent_graph, query)], backend, rounds=rounds, attack=attack, max_workers=None
    )[0]


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
    return make_record(
        "example",
        query=example.query,
        answer=example.answer,
        match=example.match,
    )


def example_from_record(record: dict) -> EvalExample:
    check_header(record, "example")
    return EvalExample(
        query=record_field(record, "query", str),
        answer=record_field(record, "answer", str),
        match=record_field(record, "match", str, "auto"),
    )


def answer_matches(expected: str, got: str, rule: str = "auto") -> bool:
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
        have = float(found[-1].replace(",", ""))
        return math.isclose(want, have, rel_tol=NUMERIC_TOL, abs_tol=NUMERIC_TOL)
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
    aligned with the dataset. The calls of all examples share one schedule,
    as in :func:`run_graph`: at most ``max_workers`` run at once, and ``None``
    means the worker count of the largest graph. Results keep dataset order.
    """
    if max_workers is not None and max_workers < 1:
        raise ValidationError(f"max_workers must be >= 1, got {max_workers}")
    if not dataset:
        raise ValidationError("evaluation dataset is empty")
    graph_list = [graphs] * len(dataset) if isinstance(graphs, GroupGraph) else list(graphs)
    if len(graph_list) != len(dataset):
        raise ValidationError(f"{len(graph_list)} graphs for {len(dataset)} examples")
    transcripts = _run_all(
        [
            (materialize_agent_graph(graph, pool, mode), example.query)
            for graph, example in zip(graph_list, dataset)
        ],
        backend,
        rounds=rounds,
        attack=attack,
        max_workers=max_workers,
    )
    items = [
        ItemResult(
            query=example.query,
            expected=example.answer,
            got=transcript.final_text,
            correct=answer_matches(example.answer, transcript.final_text, example.match),
            prompt_tokens=transcript.stats.prompt_tokens,
            completion_tokens=transcript.stats.completion_tokens,
            calls=transcript.stats.calls,
        )
        for example, transcript in zip(dataset, transcripts)
    ]
    stats = TokenStats()
    for transcript in transcripts:
        for entry in transcript.entries:
            stats.add(entry.prompt_tokens, entry.completion_tokens)
    accuracy = sum(1 for i in items if i.correct) / len(items)
    return EvalReport(accuracy=accuracy, items=tuple(items), stats=stats)
