"""Core graph types: candidate groups, group-level graphs, agent graphs.

A group-level graph is an ordered sequence of selected groups plus directed
edges (i, t) with i < t; it is materialized into an executable agent graph
either as one composite agent per group or as one agent per member role.

Serialization uses line-delimited JSON records, and this module owns their
format: every record is written with :func:`make_record`, which adds the
schema version ``"v": "v1"`` and a ``kind`` discriminator, and its fields
are read with :func:`record_field`, which checks their JSON types. Edges are
encoded as ``"i->t"`` strings.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import re
import sys
import uuid
from dataclasses import dataclass
from enum import Enum
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

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
    """One member role: a display name and its system prompt, both strings."""

    name: str
    prompt: str

    def __post_init__(self) -> None:
        check_fields(self, strs=("name", "prompt"))


@dataclass(frozen=True)
class CandidateGroup:
    """Member roles wired by an intra-group pattern, ``roles`` stored as a tuple.
    Raises ValidationError unless ``name`` and ``description`` are strings and
    ``roles`` one or more :class:`RoleSpec` values, or if the pattern is unknown."""

    name: str
    description: str
    roles: tuple[RoleSpec, ...]
    pattern: IntraPattern

    def __post_init__(self) -> None:
        check_fields(self, strs=("name", "description"))
        object.__setattr__(self, "roles", check_items(self.roles, RoleSpec, "roles"))
        if not self.roles:
            raise ValidationError(f"group '{self.name}' has no roles")
        try:
            pattern = IntraPattern(self.pattern)
        except ValueError as exc:
            raise ValidationError(f"unknown intra pattern '{self.pattern}'") from exc
        object.__setattr__(self, "pattern", pattern)

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
        object.__setattr__(self, "groups", check_items(self.groups, CandidateGroup, "groups"))
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


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or NumPy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_fields(record, ints: dict[str, int] | None = None, numbers: Iterable[str] = (),
                 bools: Iterable[str] = (), strs: Iterable[str] = ()) -> None:
    """Raise ValidationError, naming the field and its value, unless each of
    ``ints`` is an integer of at least its minimum, each of ``numbers`` a finite
    number >= 0, each of ``bools`` a bool and each of ``strs`` a string (NumPy's
    scalars included; a bool is neither an integer nor a number); store each as
    that Python scalar."""
    for name, low in (ints or {}).items():
        value = getattr(record, name)
        if not (is_integer(value) and value >= low):
            raise ValidationError(f"'{name}' must be an integer >= {low}, got {value!r}")
        object.__setattr__(record, name, int(value))
    for name in numbers:
        value = getattr(record, name)
        value = float(value) if isinstance(value, np.floating) else value
        real = is_integer(value) or isinstance(value, float)
        # NaN fails both bounds; the upper one fails infinity and huge integers.
        if not (real and 0 <= value <= sys.float_info.max):
            raise ValidationError(f"'{name}' must be a finite number >= 0, got {value!r}")
        object.__setattr__(record, name, float(value))
    for name in bools:
        value = getattr(record, name)
        if not isinstance(value, (bool, np.bool_)):
            raise ValidationError(f"'{name}' must be true or false, got {value!r}")
        object.__setattr__(record, name, bool(value))
    for name in strs:
        value = getattr(record, name)
        if not isinstance(value, str):
            raise ValidationError(f"'{name}' must be a string, got {value!r}")
        object.__setattr__(record, name, str(value))


def check_array(value, shape: tuple[int, ...], name: str, need: str) -> np.ndarray:
    """``value`` as a float64 array, the same object if it is one. ValidationError
    (``need <need>; got <name> ...``, or ``<name> hold NaN ...``) unless it has
    ``shape`` and finite integers or floats: bools, complex, strings, objects fail."""
    try:
        array = np.asarray(value)
    except ValueError:  # rows of different lengths have no shape
        raise ValidationError(f"need {need}; got ragged {name}") from None
    if array.shape != shape or array.dtype.kind not in "iuf":
        raise ValidationError(
            f"need {need}; got {name} of shape {array.shape} and dtype {array.dtype}")
    array = array.astype(np.float64, copy=False)
    if not np.isfinite(array).all():
        raise ValidationError(f"{name} hold NaN or infinite values")
    return array


@dataclass(frozen=True)
class GroupGraph:
    """Ordered group selections plus inter-step edges (i, t) with i < t.

    Repeated selections are legal; each occurrence is a distinct step.
    ``truncated`` marks graphs cut off at the step budget rather than
    terminated by a STOP decision. Selections and edges must be integers and
    ``truncated`` a bool, NumPy's included, stored as Python ints and a bool
    with the edges sorted. A negative selection, an edge outside
    ``0 <= i < t < n_steps`` or an edge listed twice raises ValidationError.
    """

    selected: tuple[int, ...] = ()
    edges: tuple[tuple[int, int], ...] = ()
    truncated: bool = False

    def __post_init__(self) -> None:
        try:
            selected = tuple(self.selected)
        except TypeError:
            selected = (None,)
        if not all(is_integer(s) and s >= 0 for s in selected):
            raise ValidationError("'selected' must be a list of non-negative integers")
        try:
            edges = [(i, t) for i, t in self.edges]
        except (TypeError, ValueError):  # not iterable, or not a pair
            edges = [(None, None)]
        if not all(is_integer(i) and is_integer(t) for i, t in edges):
            raise ValidationError("'edges' must be pairs of integers")
        check_fields(self, bools=("truncated",))
        object.__setattr__(self, "selected", tuple(int(s) for s in selected))
        edges = sorted((int(i), int(t)) for i, t in edges)
        object.__setattr__(self, "edges", tuple(edges))
        n = self.n_steps
        for k, (i, t) in enumerate(edges):
            if not 0 <= i < t < n:
                raise ValidationError(f"edge {i}->{t} is out of range for {n} steps")
            if k and edges[k - 1] == (i, t):
                raise ValidationError(f"duplicate edge {i}->{t}")

    @property
    def n_steps(self) -> int:
        return len(self.selected)


@dataclass(frozen=True)
class Trajectory:
    """A query string paired with a target group graph, for teacher forcing."""

    query: str
    graph: GroupGraph

    def __post_init__(self) -> None:
        check_fields(self, strs=("query",))
        if not isinstance(self.graph, GroupGraph):
            raise ValidationError(f"'graph' must be a GroupGraph, got {self.graph!r}")


def check_items(value, kind: type, name: str) -> tuple:
    """``value`` as a tuple; ValidationError unless it is an iterable of ``kind``
    values."""
    if not isinstance(value, Iterable):
        raise ValidationError(f"'{name}' must be a sequence, got {value!r}")
    items = tuple(value)
    for item in items:
        if not isinstance(item, kind):
            raise ValidationError(f"'{name}' must hold {kind.__name__} values, got {item!r}")
    return items


def check_graph_shape(graph: GroupGraph, pool_size: int, max_steps: int) -> None:
    """Check ``graph`` against a pool and budget: at most ``max_steps`` steps, each
    selecting a group below ``pool_size``. :class:`GroupGraph` checks the edges."""
    if graph.n_steps > max_steps:
        raise ValidationError(f"graph has {graph.n_steps} steps, budget is {max_steps}")
    for t, gid in enumerate(graph.selected):
        if gid >= pool_size:
            raise ValidationError(
                f"step {t} selects group {gid}, pool has {pool_size} groups"
            )


def validate_group_graph(graph: GroupGraph, pool_size: int, max_steps: int) -> None:
    """Check that ``graph`` can run: :func:`check_graph_shape` (budget and pool
    range), then an incoming edge for every step after the first."""
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
    match = re.fullmatch(r"\s*(\d+)\s*->\s*(\d+)\s*", text)
    if not match:
        raise ValidationError(f"malformed edge '{text}', expected 'i->t'")
    i, t = int(match.group(1)), int(match.group(2))
    if i >= t:
        raise ValidationError(f"edge '{text}' must point forward (i < t)")
    return i, t


def make_record(kind: str, **fields) -> dict:
    """A record of ``kind``: ``fields`` under the schema header."""
    return {"v": RECORD_VERSION, "kind": kind, **fields}


_JSON_TYPES = {str: "a string", int: "an integer", float: "a number",
               bool: "true or false", list: "a list", dict: "an object"}
_REQUIRED = object()


def record_field(record: dict, key: str, json_type: type, default=_REQUIRED):
    """``record[key]``, which must hold the JSON type ``json_type`` (``str``,
    ``int``, ``float``, ``bool``, ``list`` or ``dict``; a float may hold an
    int, and a bool is neither), or ``default`` when the key is absent and a
    default is given.

    Raises:
        ValidationError: naming ``key``, if it is absent without a default or
            holds another type.
    """
    if key not in record:
        if default is _REQUIRED:
            raise ValidationError(f"record is missing '{key}'")
        return default
    value = record[key]
    kinds = (int, float) if json_type is float else json_type
    if not isinstance(value, kinds) or isinstance(value, bool) != (json_type is bool):
        raise ValidationError(f"'{key}' must be {_JSON_TYPES[json_type]}")
    return value


def check_header(record: dict, kind: str | None = None) -> str:
    """Check that ``record`` is an object with this schema version and a string
    ``kind``, equal to ``kind`` when given; return its kind.

    Raises:
        ValidationError: on the first check that fails.
    """
    if not isinstance(record, dict):
        raise ValidationError("record is not an object")
    if "v" not in record:
        raise ValidationError("record is missing schema version 'v'")
    if record["v"] != RECORD_VERSION:
        raise ValidationError(f"unsupported schema version '{record['v']}'")
    actual = record_field(record, "kind", str)
    if kind is not None and actual != kind:
        raise ValidationError(f"expected kind '{kind}', found '{actual}'")
    return actual


def group_graph_to_record(graph: GroupGraph) -> dict:
    return make_record(
        "group_graph",
        selected=list(graph.selected),
        edges=[format_edge(e) for e in graph.edges],
        truncated=bool(graph.truncated),
    )


def group_graph_from_record(record: dict) -> GroupGraph:
    check_header(record, "group_graph")
    selected = record_field(record, "selected", list)
    edges = record_field(record, "edges", list)
    if not all(isinstance(e, str) for e in edges):
        raise ValidationError("'edges' must be a list of 'i->t' strings")
    truncated = record_field(record, "truncated", bool, False)
    return GroupGraph(selected, [parse_edge(e) for e in edges], truncated)


def group_to_record(group: CandidateGroup) -> dict:
    return make_record(
        "group",
        name=group.name,
        description=group.description,
        pattern=group.pattern.value,
        roles=[{"name": r.name, "prompt": r.prompt} for r in group.roles],
    )


def group_from_record(record: dict) -> CandidateGroup:
    check_header(record, "group")
    roles_raw = record_field(record, "roles", list)
    if not roles_raw or not all(isinstance(r, dict) for r in roles_raw):
        raise ValidationError("'roles' must be a non-empty list of objects")
    roles = [RoleSpec(record_field(r, "name", str), record_field(r, "prompt", str))
             for r in roles_raw]
    return CandidateGroup(
        name=record_field(record, "name", str),
        description=record_field(record, "description", str, ""),
        roles=roles,
        pattern=record_field(record, "pattern", str),
    )


def trajectory_to_record(traj: Trajectory) -> dict:
    return make_record(
        "trajectory",
        query=traj.query,
        graph=group_graph_to_record(traj.graph),
    )


def trajectory_from_record(record: dict) -> Trajectory:
    check_header(record, "trajectory")
    query = record_field(record, "query", str)
    graph = group_graph_from_record(record_field(record, "graph", dict))
    return Trajectory(query=query, graph=graph)


def read_records(path: str | os.PathLike) -> list[dict]:
    """Read line-delimited JSON records, checking the schema version.

    Raises:
        ValidationError: on files that cannot be read, text that is not UTF-8,
            malformed JSON, or version mismatches; a message about content
            carries the 1-based line number.
    """
    return decode_records(path, lambda record: record)


def decode_records(path: str | os.PathLike, decode: Callable[[dict], object]) -> list:
    """Read records as :func:`read_records` does and return ``decode`` of each,
    in file order, leaving out a None. A ValidationError that ``decode``
    raises carries the record's line number too."""
    out = []
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
            check_header(record)
            value = decode(record)
        except ValidationError as exc:
            raise ValidationError(str(exc), line=lineno) from exc
        if value is not None:
            out.append(value)
    return out


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
