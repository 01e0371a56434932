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
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Protocol, Sequence

from .errors import BackendError, ValidationError
from .graph import (
    AgentGraph,
    GroupGraph,
    GroupPool,
    check_fields,
    check_int,
    check_items,
    check_type,
    materialize_agent_graph,
    to_record,
)

# Numeric answers match within this relative and absolute tolerance.
NUMERIC_TOL = 1e-6
# Digits may carry thousands separators: "1,000" reads as 1000.
_NUMBER_RE = re.compile(r"-?(?:\d{1,3}(?:,\d{3})+(?!\d)|\d+)(?:\.\d+)?(?:[eE][-+]?\d+)?")


def count_tokens(text: str) -> int:
    """Deterministic token estimate: ceil((words + ceil(chars/4)) / 2).

    ``words`` splits on whitespace; ``chars`` counts non-whitespace
    characters. Empty or all-whitespace text counts as zero. ValidationError
    unless ``text`` is a string.
    """
    words = check_type(text, str, "text", "a string").split()
    chars = sum(map(len, words))
    return math.ceil((len(words) + math.ceil(chars / 4)) / 2)


@dataclass(frozen=True)
class BackendResult:
    """One completion: string ``text``; each token count an int >= 0, or None if not given."""

    text: str
    prompt_tokens: int | None = None
    completion_tokens: int | None = None

    def __post_init__(self) -> None:
        counts = ("prompt_tokens", "completion_tokens")
        ints = {name: 0 for name in counts if getattr(self, name) is not None}
        check_fields(self, ints=ints, strs=("text",))


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

    The query is read from the ``Task: <query>`` line that :func:`run_graph` puts first
    in every user prompt and must match a key exactly; ``answers`` holds only strings.

    A node whose system prompt starts with the line ``marker`` (a string or
    None), as an attack with that text makes its target's, is compromised and
    replies with ``CORRUPTION``; so does a node whose user prompt holds a corrupted reply,
    so one poisoned system prompt taints the path to the final answer.
    """

    def __init__(self, answers: Mapping[str, str], marker: str | None = None):
        self.answers = dict(check_type(answers, Mapping, "answers", "a mapping"))
        check_items([*self.answers, *self.answers.values()], str, "answers")
        self.marker = check_type(marker, (str, type(None)), "marker", "a string or None")

    def complete(self, system: str, user: str, *, role: str) -> BackendResult:
        if (self.marker and system.startswith(self.marker + "\n")) or CORRUPTION in user:
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
    bearer key (str or None) default to the ``{env}_URL`` / ``{env}_KEY`` environment variables."""

    def __init__(self, name: str, env: str, url=None, key=None, session=None):
        self.name = name
        check_type(url, (str, type(None)), "url", "a string or None")
        check_type(key, (str, type(None)), "key", "a string or None")
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
    environment variables. Requests take the chat-completions shape (system
    and user messages); the reply's content and usage make a BackendResult,
    and a reply without them, or one BackendResult rejects, raises BackendError.
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
        self.model = check_type(model, (str, type(None)), "model", "a string or None")

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
            usage = {} if body.get("usage") is None else body["usage"]
            counts = [usage.get("prompt_tokens"), usage.get("completion_tokens")]
            return BackendResult(text, *counts)
        except (KeyError, IndexError, TypeError, AttributeError, ValidationError) as exc:
            raise BackendError(
                f"agent backend returned an unusable payload: {exc}"
            ) from exc


# ---------------------------------------------------------------------------
# Running graphs.


@dataclass(frozen=True)
class AttackSpec:
    """Prompt-injection attack: the string ``text`` is prepended, as its own
    line, to the system prompt of the ``target`` node on every call. ``target``
    is a node name or an integer index >= 0, stored as an ``int``."""

    target: int | str
    text: str

    def __post_init__(self) -> None:
        ints = {} if isinstance(self.target, str) else {"target": 0}
        check_fields(self, ints=ints, strs=("text",))

    def resolve(self, agent_graph: AgentGraph) -> int:
        names = [node.name for node in agent_graph.nodes]
        if isinstance(self.target, int) and self.target < len(names):
            return self.target
        if self.target in names:
            return names.index(self.target)
        raise ValidationError(f"attack target {self.target!r} not found")


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


# One executor serves every schedule in the process. It is made on first need,
# made again when a schedule bounds more calls in flight than it has threads,
# and made again in a forked child, which has none of its parent's threads.
# Its idle threads stay between runs and exit with the interpreter; a replaced
# executor's threads exit once no submission holds it.
_executor_lock = threading.Lock()
_executor: ThreadPoolExecutor | None = None
_executor_width = 0
_executor_pid = 0


def _shared_executor(width: int) -> ThreadPoolExecutor:
    """The process's executor, with at least ``width`` threads."""
    global _executor, _executor_width, _executor_pid
    with _executor_lock:
        if _executor is None or _executor_width < width or _executor_pid != os.getpid():
            _executor = ThreadPoolExecutor(max_workers=width)
            _executor_width, _executor_pid = width, os.getpid()
        return _executor


def _retire_shared_executor() -> None:
    """Shut the process's executor down, so that every thread it has exits
    once idle; the next submission makes a new one. An interrupt inside
    ``submit`` can leave a started thread the executor does not know of, which
    only a shutdown tells to exit; the interpreter waits for it at exit."""
    global _executor, _executor_width
    with _executor_lock:
        executor, _executor, _executor_width = _executor, None, 0
    if executor is not None:
        executor.shutdown(wait=False)


class _Schedule:
    """The calls of a set of runs, each started as soon as its inputs exist.

    A call is (run, round, node), numbered run by run in transcript order:
    the n workers of a run, nodes 0 to n - 1, once per round, then its
    summarizer, node n. A call waits for its predecessors' calls in the same
    round and, for a worker, for its own call n positions back.

    The thread that ends a call starts the calls that became ready, in run
    order and then transcript order, while fewer than ``widest`` (the most
    workers of any run) are in flight and no call has failed. It runs the
    first itself and submits the others to the shared executor, so a chain of
    dependent calls stays on one thread, and runs one worker wide run the
    calls of a serial loop, in its order, on the caller thread. Its mutable
    state (``entries``, ``waiting``, ``ready``, ``running`` and ``error``) is
    written only under ``cond``, and read without it only after the last call.
    """

    def __init__(
        self, runs: Sequence[tuple[AgentGraph, str]], backend: AgentBackend,
        rounds: int, attack: AttackSpec | None,
    ):
        self.runs = runs
        self.backend = backend
        self.rounds = rounds
        self.calls: list[tuple[int, int, int]] = []
        self.waiting: list[int] = []
        self.dependents: list[list[int]] = []
        self.ends: list[int] = []
        # Per run and node, the nodes whose replies it reads, in prompt order,
        # and its system prompt, attack included.
        self.preds: list[list[list[int]]] = []
        self.systems: list[list[str]] = []
        self.widest = 1
        for r, (agent_graph, _) in enumerate(runs):
            n = agent_graph.summarizer
            self.widest = max(self.widest, n)
            systems = [node.prompt for node in agent_graph.nodes]
            if attack is not None:
                target = attack.resolve(agent_graph)
                systems[target] = f"{attack.text}\n{systems[target]}"
            self.systems.append(systems)
            preds = [[] for _ in agent_graph.nodes]
            for i, t in agent_graph.edges:
                preds[t].append(i)
            self.preds.append(preds)
            for round_no in range(1, rounds + 1):
                base = len(self.calls)
                for node_idx in range(n + 1 if round_no == rounds else n):
                    inputs = [base + u for u in preds[node_idx]]
                    if round_no > 1 and node_idx < n:
                        inputs.append(base - n + node_idx)
                    for source in inputs:
                        self.dependents[source].append(len(self.calls))
                    self.calls.append((r, round_no, node_idx))
                    self.waiting.append(len(inputs))
                    self.dependents.append([])
            self.ends.append(len(self.calls))
        self.entries: dict[tuple[int, int, int], TranscriptEntry] = {}
        self.ready = [pos for pos, count in enumerate(self.waiting) if not count]  # a heap
        self.running = 0
        self.error: BaseException | None = None
        self.cond = threading.Condition(threading.Lock())

    def run(self) -> list[RunTranscript]:
        """Run every call and return the transcripts in run order. After a
        failure, wait for the calls in flight, then raise the first error."""
        with self.cond:
            started = self._start()
        try:
            self._run_from(started)
            with self.cond:
                while self.running:
                    self.cond.wait()
                error, self.error = self.error, None
        except BaseException as exc:  # an interrupt or a failed submit; re-raised
            with self.cond:
                if self.error is None:
                    self.error = exc  # no further call starts
            _retire_shared_executor()
            raise
        if error is not None:
            try:
                raise error
            finally:
                del error  # its traceback holds this frame: no cycle
        transcripts = []
        for (_, query), start, end in zip(self.runs, [0] + self.ends, self.ends):
            ordered = tuple(self.entries[key] for key in self.calls[start:end])
            stats = TokenStats()
            for entry in ordered:
                stats.add(entry.prompt_tokens, entry.completion_tokens)
            transcripts.append(
                RunTranscript(query, ordered, ordered[-1].text, stats, self.rounds)
            )
        return transcripts

    def _start(self) -> list[tuple[int, str, str]]:
        """Under ``cond``: take the ready calls that may start, with their prompts."""
        started = []
        while self.ready and self.running < self.widest and self.error is None:
            pos = heapq.heappop(self.ready)
            started.append((pos, *self._prompts(pos)))
            self.running += 1
        return started

    def _prompts(self, pos: int) -> tuple[str, str]:
        r, round_no, node_idx = self.calls[pos]
        agent_graph, query = self.runs[r]
        nodes = agent_graph.nodes
        parts = [f"Task: {query}"]
        for u in self.preds[r][node_idx]:
            reply = self.entries[r, round_no, u].text
            parts.append(f"[{nodes[u].name} | {nodes[u].role}]: {reply}")
        previous = self.entries.get((r, round_no - 1, node_idx))
        if previous is not None:
            parts.append(f"[your previous reply]: {previous.text}")
        return self.systems[r][node_idx], "\n".join(parts)

    def _run_from(self, started: list[tuple[int, str, str]]) -> None:
        """Submit all but the first started call and run the first here; then
        go on with the first call that its end started, until none does."""
        while started:
            (pos, system, user), *others = started
            for call in others:
                _shared_executor(self.widest).submit(self._run_from, [call])
            try:
                entry = self._call(pos, system, user)
            except BaseException as exc:  # run() raises it on the caller thread
                started = self._settle(pos, None, exc)
            else:
                started = self._settle(pos, entry, None)

    def _call(self, pos: int, system: str, user: str) -> TranscriptEntry:
        r, round_no, node_idx = self.calls[pos]
        node = self.runs[r][0].nodes[node_idx]
        result = self.backend.complete(system, user, role=node.role)
        if not isinstance(result, BackendResult):
            raise ValidationError(f"'complete' must return a BackendResult, got {result!r}")
        prompt_tokens = result.prompt_tokens
        if prompt_tokens is None:
            prompt_tokens = count_tokens(system) + count_tokens(user)
        completion_tokens = result.completion_tokens
        if completion_tokens is None:
            completion_tokens = count_tokens(result.text)
        return TranscriptEntry(round_no, node_idx, node.name, node.role,
                               prompt_tokens, completion_tokens, result.text)

    def _settle(
        self, pos: int, entry: TranscriptEntry | None, error: BaseException | None
    ) -> list[tuple[int, str, str]]:
        """Record the end of the call at ``pos``; return the calls it starts."""
        with self.cond:
            self.running -= 1
            if error is None:
                self.entries[self.calls[pos]] = entry
                for later in self.dependents[pos]:
                    self.waiting[later] -= 1
                    if not self.waiting[later]:
                        heapq.heappush(self.ready, later)
            elif self.error is None:
                self.error = error
            started = self._start()
            if not self.running:
                self.cond.notify()
            return started


def _run_all(
    runs: Sequence[tuple[AgentGraph, str]], backend: AgentBackend, *,
    rounds: int, attack: AttackSpec | None,
) -> list[RunTranscript]:
    """Execute each ``(agent_graph, query)`` run as :func:`run_graph` does, all on
    one schedule; return the transcripts in run order. At most as many calls
    run at once as the widest graph has workers, nodes besides its summarizer.
    Raises ValidationError, before any call, unless each run pairs an AgentGraph
    with a string query and ``attack`` is an AttackSpec or None."""
    rounds = check_int(rounds, "rounds", 1)
    check_type(attack, (AttackSpec, type(None)), "attack", "an AttackSpec or None")
    for agent_graph, query in runs:
        check_type(agent_graph, AgentGraph, "agent_graph", "an AgentGraph")
        check_type(query, str, "query", "a string")
    return _Schedule(runs, backend, rounds, attack).run()


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
    path between them run concurrently, and a backend's ``complete`` must be
    thread-safe. The calling thread runs the first call. The thread that
    finishes a call runs the next call it made ready, and hands any other
    that became ready to a thread pool that serves the whole process; so a
    chain of dependent calls runs on one thread. The transcript lists calls
    round by round in node order, summarizer last, whatever order they
    finished in. On the first exception no further call starts; calls already
    running finish, and that exception is raised.
    """
    return _run_all([(agent_graph, query)], backend, rounds=rounds, attack=attack)[0]


# ---------------------------------------------------------------------------
# Dataset evaluation.


@dataclass(frozen=True)
class EvalExample:
    """A query with its reference answer and a match rule.

    Rules: "exact" (stripped equality), "numeric" (last number in the reply
    within tolerance), "contains" (answer substring), or "auto" (numeric when
    the answer parses as a number, containment otherwise). ``query`` and
    ``answer`` must be strings.
    """

    RECORD_KIND: ClassVar[str] = "example"
    RECORD_DEFAULTS: ClassVar[dict] = {"match": "auto"}

    query: str
    answer: str
    match: str = "auto"

    def __post_init__(self) -> None:
        check_fields(self, strs=("query", "answer"))
        if self.match not in ("exact", "numeric", "contains", "auto"):
            raise ValidationError(f"unknown match rule '{self.match}'")


example_to_record = to_record


def answer_matches(expected: str, got: str, rule: str = "auto") -> bool:
    """Whether the reply ``got`` matches ``expected`` under ``rule`` (see
    :class:`EvalExample`). ValidationError unless both are strings and the rule
    is known."""
    expected = check_type(expected, str, "expected", "a string").strip()
    got = check_type(got, str, "got", "a string").strip()
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
) -> EvalReport:
    """Run each example through its graph and score the final answers.

    ``graphs`` is either one graph reused for every example or a sequence
    aligned with the dataset. The calls of all examples share one schedule,
    as in :func:`run_graph`, and at most as many run at once as the widest
    graph has workers. Results keep dataset order.
    """
    dataset = check_items(dataset, EvalExample, "dataset")
    if not dataset:
        raise ValidationError("evaluation dataset is empty")
    graph_list = ([graphs] * len(dataset) if isinstance(graphs, GroupGraph)
                  else check_items(graphs, GroupGraph, "graphs"))
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
    stats = TokenStats(sum(t.stats.prompt_tokens for t in transcripts),
                       sum(t.stats.completion_tokens for t in transcripts),
                       sum(t.stats.calls for t in transcripts))
    accuracy = sum(1 for i in items if i.correct) / len(items)
    return EvalReport(accuracy=accuracy, items=tuple(items), stats=stats)
