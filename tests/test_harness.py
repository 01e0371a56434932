"""Execution-harness tests: token accounting, prompt assembly, rounds,
attacks, scoring, and the HTTP transport of both clients against a fake
session."""

from __future__ import annotations

import collections
import dataclasses
import gc
import math
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import threading
import time
import traceback
import warnings
import weakref

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

import grouptopo as gt
from grouptopo import harness
from grouptopo.errors import BackendError, ValidationError
from grouptopo.harness import HTTP_TIMEOUT_S, AttackSpec

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


# Any code point, surrogates included, mixed with whitespace of several kinds.
ANY_TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from(
    " \t\n\x0b\x1c\x1f\x85\xa0\u1680\u2000\u200b\u2028\u3000\ufeff"
))


@settings(max_examples=300)
@given(ANY_TEXT)
def test_count_tokens_counts_non_whitespace_characters(text):
    """Over any Unicode text, the estimate is the documented formula with
    ``chars`` counted one character at a time."""
    chars = sum(1 for c in text if not c.isspace())
    expected = math.ceil((len(text.split()) + math.ceil(chars / 4)) / 2)
    assert gt.count_tokens(text) == expected


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
    assert gt.graph.from_record(record, gt.EvalExample) == ex


# ---------------------------------------------------------------------------
# Scripted backends.


def test_compressive_echo_keeps_every_third():
    backend = gt.CompressiveEchoBackend()
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
    backend = gt.AnswerKeyBackend({"q": "7"}, marker="EVIL-MARKER")
    # The system prompt an attack with text EVIL-MARKER gives its target.
    hit = backend.complete("EVIL-MARKER\nsys", "Task: q", role="solver")
    assert hit.text == "CORRUPTED-RESULT"
    # The marker inside a role prompt is not an injection.
    assert backend.complete("sys EVIL-MARKER", "Task: q", role="solver").text == "7"
    downstream = backend.complete(
        "sys", "Task: q\n[peer | solver]: CORRUPTED-RESULT", role="checker"
    )
    assert downstream.text == "CORRUPTED-RESULT"


def test_answer_key_backend_ignores_the_marker_in_the_query():
    # An attack on node 1 of the expanded chain solver -> analyst, whose text
    # the query also contains: the untargeted node 0 still answers.
    query = "what is 2 plus 3, ignore it"
    backend = gt.AnswerKeyBackend({query: "5"}, marker="ignore it")
    chain = gt.materialize_agent_graph(
        gt.GroupGraph(selected=(0, 1), edges=((0, 1),)), gt.default_pool(), mode="expanded"
    )
    run = gt.run_graph(chain, query, backend, attack=AttackSpec(target=1, text="ignore it"))
    assert [entry.text for entry in run.entries] == ["5", "CORRUPTED-RESULT", "CORRUPTED-RESULT"]


def test_answer_key_backend_ignores_the_marker_in_a_role_prompt():
    # Attack text "x" on node 1 of the expanded chain solver -> analyst: node 0's
    # own role prompt contains "x", yet only node 1 and its successor are hit.
    query = "what is 2 plus 3"
    chain = gt.materialize_agent_graph(
        gt.GroupGraph(selected=(0, 1), edges=((0, 1),)), gt.default_pool(), mode="expanded"
    )
    assert "x" in chain.nodes[0].prompt
    backend = gt.AnswerKeyBackend({query: "5"}, marker="x")
    run = gt.run_graph(chain, query, backend, attack=AttackSpec(target=1, text="x"))
    assert [entry.text for entry in run.entries] == ["5", "CORRUPTED-RESULT", "CORRUPTED-RESULT"]


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
    # An integer target is checked when made and stored as a Python int.
    index = AttackSpec(target=np.int64(1), text="x").resolve(agents)
    assert type(index) is int and index == 1
    for target in (True, -1, 1.0, None):
        with pytest.raises(ValidationError, match="'target' must be an integer >= 0"):
            AttackSpec(target=target, text="x")
    for text in (None, 5, b"x"):
        with pytest.raises(ValidationError, match="'text' must be a string"):
            AttackSpec(target=0, text=text)


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
# Scheduling: calls run as soon as their inputs exist.


def serial_run_graph(agent_graph, query, backend, *, rounds=1, attack=None):
    """The round-by-round serial loop ``run_graph`` replaced, as a reference."""
    worker_order = range(agent_graph.summarizer)
    attack_idx = attack.resolve(agent_graph) if attack is not None else None
    stats = gt.harness.TokenStats()
    entries = []
    previous_round = {}

    def call(node_idx, round_no, responses):
        node = agent_graph.nodes[node_idx]
        system = node.prompt
        if attack_idx == node_idx:
            system = f"{attack.text}\n{system}"
        parts = [f"Task: {query}"]
        for pred in sorted(i for i, t in agent_graph.edges if t == node_idx):
            if pred in responses:
                pred_node = agent_graph.nodes[pred]
                parts.append(f"[{pred_node.name} | {pred_node.role}]: {responses[pred]}")
        if round_no > 1 and node_idx in previous_round:
            parts.append(f"[your previous reply]: {previous_round[node_idx]}")
        user = "\n".join(parts)
        result = backend.complete(system, user, role=node.role)
        prompt_tokens = count_or(result.prompt_tokens, system, user)
        completion_tokens = count_or(result.completion_tokens, result.text)
        stats.add(prompt_tokens, completion_tokens)
        entries.append(gt.harness.TranscriptEntry(
            round=round_no, node=node_idx, name=node.name, role=node.role,
            prompt_tokens=prompt_tokens, completion_tokens=completion_tokens,
            text=result.text,
        ))
        return result.text

    current = {}
    for round_no in range(1, rounds + 1):
        current = {}
        for node_idx in worker_order:
            current[node_idx] = call(node_idx, round_no, current)
        previous_round = current
    final_text = call(agent_graph.summarizer, rounds, current)
    return gt.harness.RunTranscript(query=query, entries=tuple(entries),
                            final_text=final_text, stats=stats, rounds=rounds)


def count_or(reported, *texts):
    return reported if reported is not None else sum(gt.count_tokens(t) for t in texts)


class EchoRecorder:
    """Echoes the prompt and counts the calls it gets, keyed by (role, user).
    With ``jitter``, each call first sleeps up to that many seconds, varying
    by prompt, so calls finish in a different order from the one they began."""

    def __init__(self, jitter=0.0):
        self.echo = gt.CompressiveEchoBackend()
        self.calls = collections.Counter()
        self.lock = threading.Lock()
        self.jitter = jitter

    def complete(self, system, user, *, role):
        with self.lock:
            self.calls[role, user] += 1
        if self.jitter:
            time.sleep(self.jitter * (len(user) % 7) / 6)
        return self.echo.complete(system, user, role=role)


@pytest.mark.parametrize("mode", ["composite", "expanded"])
@pytest.mark.parametrize("family", ["chain", "star", "full"])
def test_scheduler_gives_serial_transcript(family, mode):
    pool = gt.default_pool()
    rng = gt.make_rng(7)
    for steps in (2, 4, 6):
        graph = gt.sample_candidate_topology(rng, pool.size, family, steps)
        agents = gt.materialize_agent_graph(graph, pool, mode)
        for rounds in (1, 2, 3):
            for attack in (None, AttackSpec(target=steps - 1, text="INJECTED")):
                expected_backend, backend = EchoRecorder(), EchoRecorder()
                expected = serial_run_graph(
                    agents, "plan it", expected_backend, rounds=rounds, attack=attack
                )
                got = gt.run_graph(agents, "plan it", backend, rounds=rounds, attack=attack)
                assert got == expected
                assert backend.calls == expected_backend.calls


def test_scheduler_order_survives_jittered_completion():
    pool = gt.default_pool()
    rng = gt.make_rng(11)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for family in ("star", "full"):
            graph = gt.sample_candidate_topology(rng, pool.size, family, 5)
            agents = gt.materialize_agent_graph(graph, pool, "expanded")
            expected = serial_run_graph(agents, "q", EchoRecorder(), rounds=2)
            for _ in range(5):
                got = gt.run_graph(agents, "q", EchoRecorder(jitter=2e-3), rounds=2)
                assert got == expected
    finally:
        sys.setswitchinterval(interval)


class SleepBackend:
    """Sleeps ``delay`` seconds per call; records the most calls in flight at
    once and the threads the calls ran on."""

    def __init__(self, delay):
        self.delay = delay
        self.running = 0
        self.peak = 0
        self.slept = 0.0
        self.threads = set()
        self.lock = threading.Lock()

    def complete(self, system, user, *, role):
        with self.lock:
            self.running += 1
            self.peak = max(self.peak, self.running)
            self.threads.add(threading.get_ident())
        time.sleep(self.delay)
        with self.lock:
            self.running -= 1
            self.slept += self.delay
        return gt.BackendResult(text=f"reply from {role}")


def test_independent_calls_overlap():
    pool = gt.default_pool()
    star = gt.materialize_agent_graph(
        gt.GroupGraph(selected=(13,)), pool, mode="expanded"
    )
    backend = SleepBackend(0.05)
    start = time.perf_counter()
    transcript = gt.run_graph(star, "q", backend)
    wall = time.perf_counter() - start
    assert transcript.stats.calls == len(star.nodes)
    assert backend.peak > 1
    assert wall < backend.slept


def test_chain_runs_one_call_at_a_time_on_the_caller_thread():
    pool = gt.default_pool()
    chain = gt.materialize_agent_graph(
        gt.GroupGraph(selected=(8, 0), edges=((0, 1),)), pool, mode="expanded"
    )
    backend = SleepBackend(0.005)
    gt.run_graph(chain, "q", backend)
    assert backend.peak == 1
    assert backend.threads == {threading.get_ident()}


class FailingBackend(SleepBackend):
    """Raises ``error`` at once for the node whose system prompt is ``fail_on``;
    other calls sleep and record their ``(system, user)``."""

    def __init__(self, fail_on, delay=0.05):
        super().__init__(delay)
        self.fail_on = fail_on
        self.error = BackendError("agent backend failed after 3 attempts: HTTP 503")
        self.started = []

    def complete(self, system, user, *, role):
        if system == self.fail_on:
            raise self.error
        self.started.append((system, user))
        return super().complete(system, user, role=role)


def test_worker_error_is_raised_and_stops_the_run():
    pool = gt.default_pool()
    star = gt.materialize_agent_graph(
        gt.GroupGraph(selected=(13,)), pool, mode="expanded"
    )
    leaves = [i for i in range(len(star.nodes)) if all(t != i for _, t in star.edges)]
    assert len(leaves) > 1
    failed = star.nodes[leaves[0]]
    backend = FailingBackend(failed.prompt)
    with pytest.raises(BackendError) as excinfo:
        gt.run_graph(star, "q", backend, rounds=2)
    assert excinfo.value is backend.error
    # Only the other leaves may have started, and those that did have finished.
    others = {star.nodes[i].prompt for i in leaves[1:]}
    assert {system for system, _ in backend.started} <= others
    assert backend.running == 0
    assert backend.slept == pytest.approx(0.05 * len(backend.started))

    for delay in (0.0, 0.05):
        backend = FailingBackend(failed.prompt, delay=delay)
        with pytest.raises(BackendError) as excinfo:
            gt.evaluate(arithmetic_dataset(2), gt.GroupGraph(selected=(13,)), pool,
                        backend, mode="expanded")
        assert excinfo.value is backend.error
        assert backend.running == 0
        assert backend.slept == pytest.approx(delay * len(backend.started))


def test_evaluate_bounds_the_calls_in_flight():
    pool = gt.default_pool()
    dataset = arithmetic_dataset(6)
    star = gt.GroupGraph(selected=(13,))
    backend = SleepBackend(0.02)
    start = time.perf_counter()
    gt.evaluate(dataset, star, pool, backend, mode="expanded")
    wall = time.perf_counter() - start
    # The expanded star has four agents besides its summarizer.
    assert backend.peak == len(expanded_star().nodes) - 1 == 4
    assert wall < backend.slept

    # In composite mode the one-step graph is one agent wide.
    backend = SleepBackend(0.002)
    gt.evaluate(dataset, star, pool, backend)
    assert backend.peak == 1
    assert backend.threads == {threading.get_ident()}


def expanded_star():
    return gt.materialize_agent_graph(
        gt.GroupGraph(selected=(13,)), gt.default_pool(), mode="expanded"
    )


def test_a_finished_run_keeps_no_reference_to_its_graph():
    # With the collector off, only reference counts free the run's state: a
    # reference cycle through the scheduler would keep the graph alive.
    enabled = gc.isenabled()
    gc.disable()
    try:
        star = expanded_star()
        ref = weakref.ref(star)
        backend = SleepBackend(0.005)
        gt.run_graph(star, "q", backend, rounds=2)
        assert backend.peak > 1
        del star
        # A pool thread may still be returning from its last call.
        deadline = time.monotonic() + 5
        while ref() is not None and time.monotonic() < deadline:
            time.sleep(0.001)
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_a_wider_bound_gets_a_wider_pool(monkeypatch):
    monkeypatch.setattr(harness, "_executor", None)
    monkeypatch.setattr(harness, "_executor_width", 0)
    pool = gt.default_pool()
    dataset = arithmetic_dataset(4)
    for width in (2, 5):
        # A composite star of ``width`` steps: step 0 feeds every other step.
        star = gt.GroupGraph(selected=(0,) * width,
                             edges=tuple((0, t) for t in range(1, width)))
        backend = SleepBackend(0.02)
        gt.evaluate(dataset, star, pool, backend)
        assert backend.peak == width


def wait_for_exit(pid, timeout):
    """The wait status of child ``pid``, or None after killing it at ``timeout``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return status
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    return None


def test_a_forked_child_runs_graphs_on_its_own_pool():
    star = expanded_star()
    backend = SleepBackend(0.01)
    gt.run_graph(star, "q", backend)  # the parent's pool now has threads
    assert backend.peak > 1
    with warnings.catch_warnings():
        # Python 3.12 warns that forking a process with threads may deadlock;
        # that the child still runs graphs is what this test checks.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        try:
            backend = SleepBackend(0.01)
            gt.run_graph(star, "q", backend)
            os._exit(0 if backend.peak > 1 else 2)
        except BaseException:
            traceback.print_exc()
            os._exit(1)
    assert wait_for_exit(pid, timeout=30) == 0


def test_a_process_that_ran_a_parallel_graph_exits():
    script = textwrap.dedent("""
        import threading, time
        import grouptopo as gt

        class Sleep:
            threads = set()

            def complete(self, system, user, *, role):
                self.threads.add(threading.get_ident())
                time.sleep(0.01)
                return gt.BackendResult(text="ok")

        star = gt.materialize_agent_graph(
            gt.GroupGraph(selected=(13,)), gt.default_pool(), mode="expanded")
        gt.run_graph(star, "q", Sleep(), rounds=2)
        print(len(Sleep.threads))
    """)
    src = pathlib.Path(gt.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) > 1


class Interrupted(Exception):
    pass


def caller_waits():
    """Whether the main thread is blocked in the scheduler's wait for calls."""
    frame = sys._current_frames()[threading.main_thread().ident]
    return frame.f_code.co_name == "wait" and frame.f_back.f_code.co_name == "run"


class InterruptingBackend(SleepBackend):
    """Calls on the caller thread return at once, and calls on other threads
    sleep ``delay``. The first of those, once the caller waits, sends this
    process SIGINT, and sleeps only once the caller has stopped waiting: on a
    busy machine the caller may take longer than ``delay`` to run its signal
    handler."""

    def __init__(self, delay):
        super().__init__(delay)
        self.calls = 0
        self.signalled = False

    def complete(self, system, user, *, role):
        with self.lock:
            self.calls += 1
            signal_now = not self.signalled and threading.current_thread() is not threading.main_thread()
            self.signalled |= signal_now
        if threading.current_thread() is threading.main_thread():
            return gt.BackendResult(text=f"reply from {role}")
        if signal_now:
            deadline = time.monotonic() + 5
            while not caller_waits() and time.monotonic() < deadline:
                time.sleep(0.001)
            os.kill(os.getpid(), signal.SIGINT)
            while caller_waits() and time.monotonic() < deadline:
                time.sleep(0.001)
        return super().complete(system, user, role=role)


def test_an_interrupted_caller_starts_no_further_call(monkeypatch):
    def interrupt(signum, frame):
        raise Interrupted

    monkeypatch.setattr(harness, "_executor", None)
    monkeypatch.setattr(harness, "_executor_width", 0)
    threads = threading.active_count()
    pool = gt.default_pool()
    dataset = arithmetic_dataset(6)
    star = gt.GroupGraph(selected=(13,))
    backend = InterruptingBackend(0.02)
    previous = signal.signal(signal.SIGINT, interrupt)
    try:
        with pytest.raises(Interrupted):
            gt.evaluate(dataset, star, pool, backend, mode="expanded")
    finally:
        signal.signal(signal.SIGINT, previous)
    deadline = time.monotonic() + 5
    while backend.running and time.monotonic() < deadline:
        time.sleep(0.001)
    assert backend.running == 0
    calls = backend.calls
    time.sleep(0.2)
    assert backend.calls == calls
    assert calls < len(dataset) * len(expanded_star().nodes)
    # The pool the run used is shut down: its threads exit.
    while threading.active_count() > threads and time.monotonic() < deadline:
        time.sleep(0.001)
    assert threading.active_count() == threads


def test_each_call_counts_its_own_prompts_and_reply(monkeypatch):
    counted = []

    def count_tokens(text):
        counted.append(text)
        return gt.count_tokens(text)

    monkeypatch.setattr(harness, "count_tokens", count_tokens)
    star = expanded_star()
    attack = AttackSpec(target=1, text="INJECTED")
    transcript = gt.run_graph(star, "q", EchoRecorder(), rounds=3, attack=attack)
    # One count per call for its system prompt, its user prompt and its reply,
    # so the attacked worker's system prompt is counted once per round.
    assert len(counted) == 3 * transcript.stats.calls
    assert counted.count(f"INJECTED\n{star.nodes[1].prompt}") == transcript.rounds == 3


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


def test_evaluate_rejects_an_empty_dataset(pool4):
    with pytest.raises(ValidationError, match="evaluation dataset is empty"):
        gt.evaluate([], [], pool4, gt.AnswerKeyBackend({}))


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
    # One schedule for the whole dataset reports what a schedule per item does.
    alone = [gt.evaluate([example], graph, pool4, backend) for example in dataset]
    together = gt.evaluate(dataset, graph, pool4, backend)
    assert together.accuracy == sum(r.accuracy for r in alone) / len(alone)
    assert together.stats == gt.harness.TokenStats(
        sum(r.stats.prompt_tokens for r in alone),
        sum(r.stats.completion_tokens for r in alone),
        sum(r.stats.calls for r in alone),
    )
    assert together.items == tuple(r.items[0] for r in alone)

    # Every item equals its graph run on its own by the serial reference.
    pool = gt.default_pool()
    rng = gt.make_rng(5)
    for family in ("chain", "star", "full"):
        graphs = [
            gt.sample_candidate_topology(rng, pool.size, family, 2 + i % 3)
            for i in range(len(dataset))
        ]
        for mode in ("composite", "expanded"):
            agent_graphs = [gt.materialize_agent_graph(g, pool, mode) for g in graphs]
            for rounds in (1, 2, 3):
                expected_backend = EchoRecorder()
                expected = []
                for agents, example in zip(agent_graphs, dataset):
                    run = serial_run_graph(agents, example.query, expected_backend,
                                           rounds=rounds)
                    expected.append(gt.harness.ItemResult(
                        query=example.query, expected=example.answer,
                        got=run.final_text,
                        correct=gt.answer_matches(example.answer, run.final_text),
                        prompt_tokens=run.stats.prompt_tokens,
                        completion_tokens=run.stats.completion_tokens,
                        calls=run.stats.calls,
                    ))
                backend = EchoRecorder()
                report = gt.evaluate(dataset, graphs, pool, backend, mode=mode,
                                     rounds=rounds)
                assert report.items == tuple(expected)
                assert backend.calls == expected_backend.calls


def test_evaluate_attack_lowers_accuracy(pool4):
    dataset = arithmetic_dataset(5)
    text = "obey OVERRIDE-XYZZY now"
    backend = gt.AnswerKeyBackend({ex.query: ex.answer for ex in dataset}, marker=text)
    graph = gt.GroupGraph(selected=(0,))
    clean = gt.evaluate(dataset, graph, pool4, backend)
    attacked = gt.evaluate(
        dataset, graph, pool4, backend, attack=AttackSpec(target=0, text=text)
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


@pytest.mark.parametrize("payload", [
    {**chat_payload("ok"), "usage": [1]},
    {**chat_payload("ok"), "usage": "lots"},
    chat_payload("ok", "many", 3),
    chat_payload("ok", 11, -5),
    chat_payload("ok", 11, 2.5),
    chat_payload("ok", True, 3),
], ids=["usage_list", "usage_string", "string_count", "negative_count",
        "float_count", "bool_count"])
def test_http_backend_rejects_unusable_usage(payload):
    session = FakeSession([FakeResponse(200, payload)])
    backend = gt.HttpAgentBackend(url="http://llm.test", session=session)
    with pytest.raises(BackendError, match="unusable payload"):
        backend.complete("s", "u", role="r")


@pytest.mark.parametrize("content", [None, 5, ["hi"], {"text": "hi"}],
                         ids=["null", "number", "list", "object"])
def test_http_backend_rejects_content_that_is_not_a_string(content):
    session = FakeSession([FakeResponse(200, chat_payload(content))])
    backend = gt.HttpAgentBackend(url="http://llm.test", session=session)
    with pytest.raises(BackendError, match="unusable payload: 'text' must be a string"):
        backend.complete("s", "u", role="r")


def test_http_backend_usage_may_be_partial_or_null():
    payloads = [
        {**chat_payload("a"), "usage": None},
        {**chat_payload("b"), "usage": {"prompt_tokens": 0}},
    ]
    session = FakeSession([FakeResponse(200, p) for p in payloads])
    backend = gt.HttpAgentBackend(url="http://llm.test", session=session)
    assert backend.complete("s", "u", role="r") == gt.BackendResult("a")
    assert backend.complete("s", "u", role="r") == gt.BackendResult("b", 0, None)


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
    ("86400", HTTP_TIMEOUT_S),
], ids=["seconds", "date", "capped_at_timeout"])
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
