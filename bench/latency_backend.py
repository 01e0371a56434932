"""A simulated LLM endpoint with deterministic latency.

It stands in for a remote agent service so execution cost can be measured as
calls, tokens and waiting, without a network.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Callable

BASE_S = 1e-3
PER_TOKEN_S = 1e-5


class LatencyBackend:
    """Answers like ``CompressiveEchoBackend``, with the expected answer first.

    Each call sleeps ``BASE_S + PER_TOKEN_S * completion_tokens`` with no
    jitter. The answer is looked up by the exact ``Task: <query>`` line that
    ``run_graph`` puts first in every user prompt. Calls are never serialized:
    the lock guards only the call and busy-time counters, so concurrent calls
    overlap their sleeps.
    """

    def __init__(
        self,
        echo,
        count_tokens: Callable[[str], int],
        answers: dict[str, str],
    ):
        self.echo = echo
        self.count_tokens = count_tokens
        self.answers = answers
        self.calls = 0
        self.busy_s = 0.0
        self._lock = threading.Lock()

    def complete(self, system: str, user: str, *, role: str):
        start = time.perf_counter()
        task_line = user.split("\n", 1)[0]
        query = task_line[len("Task: ") :] if task_line.startswith("Task: ") else ""
        reply = self.echo.complete(system, user, role=role)
        text = f"{self.answers.get(query, 'unknown')} {reply.text}"
        time.sleep(BASE_S + PER_TOKEN_S * self.count_tokens(text))
        elapsed = time.perf_counter() - start
        with self._lock:
            self.calls += 1
            self.busy_s += elapsed
        return dataclasses.replace(reply, text=text)
