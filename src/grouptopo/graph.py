"""Core graph types: candidate groups, group-level graphs, agent graphs.

A group-level graph is an ordered sequence of selected groups plus directed
edges (i, t) with i < t; it is materialized into an executable agent graph
either as one composite agent per group or as one agent per member role.

Serialization uses line-delimited JSON records. Every record carries a
schema version field ``"v": "v1"`` and a ``kind`` discriminator; edges are
encoded as ``"i->t"`` strings.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import re
import uuid
from dataclasses import dataclass
from enum import Enum
from typing import BinaryIO, Iterable, Iterator, Sequence

from .errors import ValidationError

RECORD_VERSION = "v1"

DEFAULT_SUMMARIZER_PROMPT = (
    "You are the final summarizer. Read the upstream replies, reconcile any "
    "disagreements, and state the final answer clearly on the last line."
)


class IntraPattern(str, Enum):
    """Wiring pattern for the roles inside a single group."""

    SINGLE = "single"
    CHAIN = "chain"
    STAR = "star"
    FULL = "full"


@dataclass(frozen=True)
class RoleSpec:
    """One member role: a display name and its system prompt."""

    name: str
    prompt: str


@dataclass(frozen=True)
class CandidateGroup:
    name: str
    description: str
    roles: tuple[RoleSpec, ...]
    pattern: IntraPattern

    def __post_init__(self) -> None:
        if not self.roles:
            raise ValidationError(f"group '{self.name}' has no roles")
        object.__setattr__(self, "pattern", IntraPattern(self.pattern))

    def text(self) -> str:
        """Canonical text used to embed this group as a selection candidate."""
        roles = ", ".join(r.name for r in self.roles)
        return f"{self.name} | {self.description} | {roles} | {self.pattern.value}"

    def intra_edges(self) -> tuple[tuple[int, int], ...]:
        """Directed edges among member roles, as local index pairs."""
        n = len(self.roles)
        if n == 1 or self.pattern is IntraPattern.SINGLE:
            return ()
        if self.pattern is IntraPattern.CHAIN:
            return tuple((k, k + 1) for k in range(n - 1))
        if self.pattern is IntraPattern.STAR:
            return tuple((k, n - 1) for k in range(n - 1))
        return tuple((j, k) for j in range(n) for k in range(j + 1, n))

    def sources(self) -> tuple[int, ...]:
        """Local indices of roles with no intra-group predecessor."""
        targets = {t for _, t in self.intra_edges()}
        return tuple(k for k in range(len(self.roles)) if k not in targets)

    def sinks(self) -> tuple[int, ...]:
        """Local indices of roles with no intra-group successor."""
        origins = {i for i, _ in self.intra_edges()}
        return tuple(k for k in range(len(self.roles)) if k not in origins)


@dataclass(frozen=True)
class GroupPool:
    """The fixed candidate set; index K (== size) is reserved for STOP."""

    groups: tuple[CandidateGroup, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.groups:
            raise ValidationError("group pool is empty")
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise ValidationError("group pool contains duplicate names")

    @property
    def size(self) -> int:
        return len(self.groups)

    def __iter__(self):
        return iter(self.groups)

    def __getitem__(self, idx: int) -> CandidateGroup:
        return self.groups[idx]


@dataclass(frozen=True)
class GroupGraph:
    """Ordered group selections plus inter-step edges (i, t) with i < t.

    Repeated selections are legal; each occurrence is a distinct step.
    ``truncated`` marks graphs cut off at the step budget rather than
    terminated by a STOP decision.
    """

    selected: tuple[int, ...] = ()
    edges: tuple[tuple[int, int], ...] = ()
    truncated: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "selected", tuple(int(s) for s in self.selected))
        canon = sorted((int(i), int(t)) for i, t in self.edges)
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "truncated", bool(self.truncated))

    @property
    def n_steps(self) -> int:
        return len(self.selected)


@dataclass(frozen=True)
class Trajectory:
    """A query paired with a target group graph, for teacher forcing."""

    query: str
    graph: GroupGraph


def check_graph_shape(graph: GroupGraph, pool_size: int, max_steps: int) -> None:
    """Check that a likelihood can score ``graph``: at most ``max_steps`` steps,
    selections within the pool, and distinct forward edges (i < t) between steps."""
    n = graph.n_steps
    if n > max_steps:
        raise ValidationError(f"graph has {n} steps, budget is {max_steps}")
    for t, gid in enumerate(graph.selected):
        if not 0 <= gid < pool_size:
            raise ValidationError(
                f"step {t} selects group {gid}, pool has {pool_size} groups"
            )
    seen: set[tuple[int, int]] = set()
    for i, t in graph.edges:
        if not 0 <= i < t < n:
            raise ValidationError(f"edge {i}->{t} is out of range for {n} steps")
        if (i, t) in seen:
            raise ValidationError(f"duplicate edge {i}->{t}")
        seen.add((i, t))


def validate_group_graph(graph: GroupGraph, pool_size: int, max_steps: int) -> None:
    """Check that ``graph`` can run: :func:`check_graph_shape`, and every step
    after the first has an incoming edge. Raise ValidationError on the first hit."""
    check_graph_shape(graph, pool_size, max_steps)
    missing = set(range(1, graph.n_steps)) - {t for _, t in graph.edges}
    if missing:
        raise ValidationError(f"step {min(missing)} has no incoming edge")


# ---------------------------------------------------------------------------
# Agent-level graphs.


@dataclass(frozen=True)
class AgentNode:
    name: str
    prompt: str
    role: str


@dataclass(frozen=True)
class AgentGraph:
    """Executable DAG of agents, listed in run order: every edge (i, t) has
    ``i < t``, and the last node is the summarizer.

    Raises:
        ValidationError: if there are no nodes or an edge does not point
            forward between two nodes.
    """

    nodes: tuple[AgentNode, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = len(self.nodes)
        if not n:
            raise ValidationError("agent graph has no nodes")
        for i, t in self.edges:
            if not 0 <= i < t < n:
                raise ValidationError(
                    f"agent edge {i}->{t} does not point forward within {n} nodes"
                )

    @property
    def summarizer(self) -> int:
        """Index of the summarizer, the terminal node."""
        return len(self.nodes) - 1


_PATTERN_NOTES = {
    IntraPattern.SINGLE: "A single member handles the task end to end.",
    IntraPattern.CHAIN: (
        "Members work in sequence; each builds on the previous member's output."
    ),
    IntraPattern.STAR: (
        "Supporting members work the task independently, then the final member "
        "integrates their contributions."
    ),
    IntraPattern.FULL: (
        "Every member reviews all earlier members' contributions before the "
        "final member concludes."
    ),
}


def compose_group_prompt(group: CandidateGroup) -> str:
    """One system prompt covering a whole group, for composite execution."""
    lines = [
        f"You are a team acting as one unit: {group.description}",
        "Team members:",
    ]
    for k, role in enumerate(group.roles, start=1):
        lines.append(f"{k}. {role.name}: {role.prompt}")
    lines.append(f"Internal workflow: {_PATTERN_NOTES[group.pattern]}")
    lines.append(
        "Carry out the full workflow yourself and reply once for the whole "
        "team, ending with the team's final answer."
    )
    return "\n".join(lines)


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")


def materialize_agent_graph(
    graph: GroupGraph,
    pool: GroupPool,
    mode: str = "composite",
) -> AgentGraph:
    """Expand a group graph into an executable agent graph.

    Each step adds its group's agents: in ``mode="composite"`` one agent with
    a composed system prompt, in ``mode="expanded"`` one per member role,
    wired by the group's internal pattern. Every group edge (i, t) then wires
    step i's sink agents to step t's source agents; a composite agent is both
    its group's source and its sink. A summarizer comes last, fed by every
    agent without a successor. Agents are listed step by step, so every edge
    points forward.

    Raises:
        ValidationError: if the graph is empty, fails validation, or ``mode``
            is unknown.
    """
    if mode not in ("composite", "expanded"):
        raise ValidationError(f"unknown execution mode '{mode}'")
    validate_group_graph(graph, pool.size, max_steps=max(graph.n_steps, 1))
    if graph.n_steps == 0:
        raise ValidationError("cannot materialize an empty graph")

    nodes: list[AgentNode] = []
    edges: list[tuple[int, int]] = []
    sources: list[tuple[int, ...]] = []
    sinks: list[tuple[int, ...]] = []
    for t, gid in enumerate(graph.selected):
        group = pool[gid]
        base = len(nodes)
        name = f"s{t}-{_slug(group.name)}"
        if mode == "composite":
            nodes.append(AgentNode(name, compose_group_prompt(group), group.name))
            sources.append((base,))
            sinks.append((base,))
        else:
            for role in group.roles:
                nodes.append(AgentNode(f"{name}-{_slug(role.name)}", role.prompt, role.name))
            edges.extend((base + j, base + k) for j, k in group.intra_edges())
            sources.append(tuple(base + k for k in group.sources()))
            sinks.append(tuple(base + k for k in group.sinks()))
    for i, t in graph.edges:
        for j in sinks[i]:
            for k in sources[t]:
                edges.append((j, k))

    summarizer = len(nodes)
    nodes.append(AgentNode("summarizer", DEFAULT_SUMMARIZER_PROMPT, "summarizer"))
    with_out = {i for i, _ in edges}
    edges.extend((i, summarizer) for i in range(summarizer) if i not in with_out)

    return AgentGraph(nodes=tuple(nodes), edges=tuple(edges))


def render_diagram(graph: GroupGraph, pool: GroupPool) -> str:
    """Static text description of a group graph (nodes, then edges)."""
    validate_group_graph(graph, pool.size, max_steps=max(graph.n_steps, 1))
    lines = []
    for t, gid in enumerate(graph.selected):
        group = pool[gid]
        lines.append(f"step {t}: {group.name} [{group.pattern.value}]")
    if graph.edges:
        lines.append("edges: " + ", ".join(f"{i}->{t}" for i, t in graph.edges))
    else:
        lines.append("edges: none")
    if graph.truncated:
        lines.append("(truncated at step budget)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Record codecs (line-delimited JSON, schema version "v1").


def format_edge(edge: tuple[int, int]) -> str:
    return f"{edge[0]}->{edge[1]}"


def parse_edge(text: str) -> tuple[int, int]:
    """Parse an ``"i->t"`` edge string; rejects i >= t."""
    match = re.fullmatch(r"\s*(\d+)\s*->\s*(\d+)\s*", str(text))
    if not match:
        raise ValidationError(f"malformed edge '{text}', expected 'i->t'")
    i, t = int(match.group(1)), int(match.group(2))
    if i >= t:
        raise ValidationError(f"edge '{text}' must point forward (i < t)")
    return i, t


def _require(record: dict, key: str, kind: str):
    if key not in record:
        raise ValidationError(f"{kind} record is missing '{key}'")
    return record[key]


def _check_header(record: dict, kind: str | None = None) -> str:
    if not isinstance(record, dict):
        raise ValidationError("record is not an object")
    version = record.get("v")
    if version is None:
        raise ValidationError("record is missing schema version 'v'")
    if version != RECORD_VERSION:
        raise ValidationError(f"unsupported schema version '{version}'")
    actual = record.get("kind")
    if actual is None:
        raise ValidationError("record is missing 'kind'")
    if kind is not None and actual != kind:
        raise ValidationError(f"expected kind '{kind}', found '{actual}'")
    return str(actual)


def group_graph_to_record(graph: GroupGraph) -> dict:
    return {
        "v": RECORD_VERSION,
        "kind": "group_graph",
        "selected": list(graph.selected),
        "edges": [format_edge(e) for e in graph.edges],
        "truncated": bool(graph.truncated),
    }


def group_graph_from_record(record: dict) -> GroupGraph:
    _check_header(record, "group_graph")
    selected = _require(record, "selected", "group_graph")
    if not isinstance(selected, list) or any(
        isinstance(s, bool) or not isinstance(s, int) or s < 0 for s in selected
    ):
        raise ValidationError("'selected' must be a list of non-negative integers")
    edges_raw = _require(record, "edges", "group_graph")
    if not isinstance(edges_raw, list):
        raise ValidationError("'edges' must be a list of 'i->t' strings")
    edges = tuple(parse_edge(e) for e in edges_raw)
    n = len(selected)
    for i, t in edges:
        if t >= n:
            raise ValidationError(f"edge {i}->{t} exceeds the {n} recorded steps")
    truncated = record.get("truncated", False)
    if not isinstance(truncated, bool):
        raise ValidationError("'truncated' must be true or false")
    return GroupGraph(selected=tuple(selected), edges=edges, truncated=truncated)


def group_to_record(group: CandidateGroup) -> dict:
    return {
        "v": RECORD_VERSION,
        "kind": "group",
        "name": group.name,
        "description": group.description,
        "pattern": group.pattern.value,
        "roles": [{"name": r.name, "prompt": r.prompt} for r in group.roles],
    }


def group_from_record(record: dict) -> CandidateGroup:
    _check_header(record, "group")
    roles_raw = _require(record, "roles", "group")
    if not isinstance(roles_raw, list) or not roles_raw:
        raise ValidationError("'roles' must be a non-empty list")
    roles = []
    for r in roles_raw:
        if not isinstance(r, dict) or "name" not in r or "prompt" not in r:
            raise ValidationError("each role needs 'name' and 'prompt'")
        roles.append(RoleSpec(name=str(r["name"]), prompt=str(r["prompt"])))
    try:
        pattern = IntraPattern(str(_require(record, "pattern", "group")))
    except ValueError as exc:
        raise ValidationError(f"unknown intra pattern '{record['pattern']}'") from exc
    return CandidateGroup(
        name=str(_require(record, "name", "group")),
        description=str(record.get("description", "")),
        roles=tuple(roles),
        pattern=pattern,
    )


def pool_to_records(pool: GroupPool) -> list[dict]:
    return [group_to_record(g) for g in pool]


def pool_from_records(records: Sequence[dict]) -> GroupPool:
    groups = tuple(group_from_record(r) for r in records)
    return GroupPool(groups=groups)


def trajectory_to_record(traj: Trajectory) -> dict:
    return {
        "v": RECORD_VERSION,
        "kind": "trajectory",
        "query": traj.query,
        "graph": group_graph_to_record(traj.graph),
    }


def trajectory_from_record(record: dict) -> Trajectory:
    _check_header(record, "trajectory")
    query = _require(record, "query", "trajectory")
    graph = group_graph_from_record(_require(record, "graph", "trajectory"))
    return Trajectory(query=str(query), graph=graph)


def read_records(path: str | os.PathLike) -> list[dict]:
    """Read line-delimited JSON records, checking the schema version.

    Raises:
        ValidationError: on files that cannot be read, text that is not UTF-8,
            malformed JSON, or version mismatches; a message about content
            carries the 1-based line number.
    """
    records = []
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read {os.fspath(path)}: {exc.strerror}") from exc
    for lineno, raw in enumerate(lines, start=1):
        try:
            text = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"not UTF-8: {exc.reason}", line=lineno) from exc
        if not text:
            continue
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON: {exc.msg}", line=lineno) from exc
        except ValueError as exc:  # an integer with more digits than Python converts
            raise ValidationError(f"invalid JSON: {exc}", line=lineno) from exc
        except RecursionError as exc:
            raise ValidationError("JSON nested too deeply", line=lineno) from exc
        try:
            _check_header(record)
        except ValidationError as exc:
            raise ValidationError(str(exc), line=lineno) from exc
        records.append(record)
    return records


@contextlib.contextmanager
def atomic_write(path: str | os.PathLike) -> Iterator[BinaryIO]:
    """Yield a new binary file beside ``path`` that replaces it if the block
    succeeds. Its name is unique per call, so concurrent writers never share it.

    Raises:
        ValidationError: if the file cannot be created or cannot replace ``path``.
    """
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:  # from open or replace
            raise ValidationError(f"cannot write {os.fspath(path)}: {exc.strerror}") from exc
        raise


def check_writable(path: str | os.PathLike) -> None:
    """Raise the :class:`ValidationError` that :func:`atomic_write` would,
    before any work, when ``path`` is a directory or its directory cannot
    take a new file. Creates no file.
    """
    path = os.fspath(path)
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(parent, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise ValidationError(f"cannot write {path}: {os.strerror(code)}")


def write_records(path: str | os.PathLike, records: Iterable[dict]) -> None:
    """Write records as one JSON object per line (atomic replace)."""
    with atomic_write(path) as fh:
        for record in records:
            fh.write((json.dumps(record, sort_keys=True) + "\n").encode("utf-8"))
