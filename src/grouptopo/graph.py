"""Core graph types: candidate groups, group-level graphs, agent graphs.

A group-level graph is an ordered sequence of selected groups plus directed
edges (i, t) with i < t; it is materialized into an executable agent graph
either as one composite agent per group or as one agent per member role.

Serialization uses line-delimited JSON records, and this module owns their
format: :func:`to_record` and :func:`from_record` walk the fields of a record
type, a dataclass that names its ``RECORD_KIND``, under the header
``"v": "v1"`` and that ``kind``. Each field's annotation picks its form, as
``"i->t"`` strings for edges, and its JSON type is checked on reading.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import functools
import json
import os
import re
import sys
import uuid
from dataclasses import dataclass
from enum import Enum
from typing import BinaryIO, Callable, ClassVar, Iterable, Iterator

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

    RECORD_KIND: ClassVar[str] = "group"
    RECORD_DEFAULTS: ClassVar[dict] = {"description": ""}

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
    """The fixed candidate set; index K (== size) is reserved for STOP. A
    group's index is its position in ``groups``, an ordered iterable read by
    :func:`check_items`, so a set or a string raises ValidationError."""

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


def check_int(value, name: str, low: int = 0, high: int | None = None) -> int:
    """``value`` as a Python int. ValidationError (``'<name>' must be an integer
    >= <low>, got <value>``, or ``in [<low>, <high>]`` with an upper bound)
    unless it is a Python or NumPy integer, not a bool, within the bounds."""
    if not (is_integer(value) and low <= value and (high is None or value <= high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValidationError(f"'{name}' must be an integer {bound}, got {value!r}")
    return int(value)


def check_type(value, kind: type | tuple[type, ...], name: str, what: str | None = None):
    """``value``; ValidationError (``'<name>' must be <what>, got <value>``, ``what``
    "a <kind's name>" by default) unless it is an instance of ``kind``."""
    if not isinstance(value, kind):
        raise ValidationError(f"'{name}' must be {what or 'a ' + kind.__name__}, got {value!r}")
    return value


def check_fields(record, ints: dict[str, int] | None = None, numbers: Iterable[str] = (),
                 bools: Iterable[str] = (), strs: Iterable[str] = ()) -> None:
    """Raise ValidationError, naming the field and its value, unless each of
    ``ints`` passes :func:`check_int` with its minimum, each of ``numbers`` is a
    finite number >= 0, and each of ``bools`` a bool and each of ``strs`` a
    string by :func:`check_type` (NumPy's scalars included; a bool is neither
    an integer nor a number); store each as that Python scalar."""
    for name, low in (ints or {}).items():
        object.__setattr__(record, name, check_int(getattr(record, name), name, low))
    for name in numbers:
        value = getattr(record, name)
        value = float(value) if isinstance(value, np.floating) else value
        real = is_integer(value) or isinstance(value, float)
        # NaN fails both bounds; the upper one fails infinity and huge integers.
        if not (real and 0 <= value <= sys.float_info.max):
            raise ValidationError(f"'{name}' must be a finite number >= 0, got {value!r}")
        object.__setattr__(record, name, float(value))
    for name in bools:
        value = check_type(getattr(record, name), (bool, np.bool_), name, "true or false")
        object.__setattr__(record, name, bool(value))
    for name in strs:
        value = check_type(getattr(record, name), str, name, "a string")
        object.__setattr__(record, name, str(value))


def check_path(value, name: str) -> str:
    """``value`` as a path string; :func:`check_type` refuses all but a str or PathLike."""
    return os.fspath(check_type(value, (str, os.PathLike), name, "a path"))


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
    terminated by a STOP decision. ``selected`` is an ordered sequence of
    integers >= 0 (:func:`check_items`, :func:`check_int`), ``edges`` passes
    :func:`check_edges` with ``n_steps`` and ``truncated`` is a bool, NumPy's
    included; each is stored as Python ints and a bool, the edges sorted.
    Anything else raises ValidationError.
    """

    RECORD_KIND: ClassVar[str] = "group_graph"
    RECORD_DEFAULTS: ClassVar[dict] = {"truncated": False}

    selected: tuple[int, ...] = ()
    edges: tuple[tuple[int, int], ...] = ()
    truncated: bool = False

    def __post_init__(self) -> None:
        selected = check_items(self.selected, object, "selected")
        object.__setattr__(self, "selected", tuple(check_int(s, "selected") for s in selected))
        object.__setattr__(self, "edges", check_edges(self.edges, self.n_steps, "steps"))
        check_fields(self, bools=("truncated",))

    @property
    def n_steps(self) -> int:
        return len(self.selected)


@dataclass(frozen=True)
class Trajectory:
    """A query string paired with a target group graph, for teacher forcing."""

    RECORD_KIND: ClassVar[str] = "trajectory"

    query: str
    graph: GroupGraph

    def __post_init__(self) -> None:
        check_fields(self, strs=("query",))
        check_type(self.graph, GroupGraph, "graph")


def check_items(value, kind: type, name: str) -> tuple:
    """``value`` as a tuple; ValidationError unless it is an ordered iterable of
    ``kind`` values. A set (no order), a string or bytes (an iterable of its
    characters) and a 0-d array (not iterable) are refused."""
    if isinstance(value, (str, bytes, set, frozenset)):
        raise ValidationError(
            f"'{name}' must be an ordered sequence, not a {type(value).__name__}")
    if not isinstance(value, Iterable) or getattr(value, "ndim", None) == 0:
        raise ValidationError(f"'{name}' must be a sequence, got {value!r}")
    items = tuple(value)
    for item in items:
        if not isinstance(item, kind):
            raise ValidationError(f"'{name}' must hold {kind.__name__} values, got {item!r}")
    return items


def check_edges(edges, n: int, unit: str) -> tuple[tuple[int, int], ...]:
    """``edges`` as a sorted tuple of Python int pairs. ValidationError unless it
    is an iterable (a set too, as the order is not kept) of integer pairs
    ``(i, t)``, ``0 <= i < t < n``, each listed once; ``unit`` names what ``n``
    counts in the message."""
    try:
        pairs = [(i, t) for i, t in edges]
    except (TypeError, ValueError):  # not iterable, or not a pair
        pairs = [(None, None)]
    if not all(is_integer(i) and is_integer(t) for i, t in pairs):
        raise ValidationError("'edges' must be pairs of integers")
    pairs = sorted((int(i), int(t)) for i, t in pairs)
    for k, (i, t) in enumerate(pairs):
        if not 0 <= i < t < n:
            raise ValidationError(f"edge {i}->{t} is out of range for {n} {unit}")
        if k and pairs[k - 1] == (i, t):
            raise ValidationError(f"duplicate edge {i}->{t}")
    return tuple(pairs)


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
    """Check that ``graph`` can run: a :class:`GroupGraph` that passes
    :func:`check_graph_shape` (budget and pool range, integers >= 0 by
    :func:`check_int`), with an incoming edge for every step after the first."""
    check_graph_shape(check_type(graph, GroupGraph, "graph"), check_int(pool_size, "pool_size"),
                      check_int(max_steps, "max_steps"))
    missing = set(range(1, graph.n_steps)) - {t for _, t in graph.edges}
    if missing:
        raise ValidationError(f"step {min(missing)} has no incoming edge")


# ---------------------------------------------------------------------------
# Agent-level graphs.


@dataclass(frozen=True)
class AgentNode:
    """One agent: its name, system prompt and role, each a string."""

    name: str
    prompt: str
    role: str

    def __post_init__(self) -> None:
        check_fields(self, strs=("name", "prompt", "role"))


@dataclass(frozen=True)
class AgentGraph:
    """Executable DAG of agents, listed in run order, the summarizer last; its
    forward edges are checked and stored sorted by :func:`check_edges`.

    Raises:
        ValidationError: if ``nodes`` is not an ordered sequence of AgentNode
            values, there are none, or ``edges`` fails :func:`check_edges`.
    """

    nodes: tuple[AgentNode, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", check_items(self.nodes, AgentNode, "nodes"))
        if not self.nodes:
            raise ValidationError("agent graph has no nodes")
        object.__setattr__(self, "edges", check_edges(self.edges, len(self.nodes), "nodes"))

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
        ValidationError: if the graph is empty, fails validation, ``pool`` is
            not a GroupPool, or ``mode`` is unknown.
    """
    if mode not in ("composite", "expanded"):
        raise ValidationError(f"unknown execution mode '{mode}'")
    validate_group_graph(graph, check_type(pool, GroupPool, "pool").size, max_steps=sys.maxsize)
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
    validate_group_graph(graph, check_type(pool, GroupPool, "pool").size, max_steps=sys.maxsize)
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


@functools.cache
def _field_plan(cls: type) -> tuple:
    """``(name, JSON type, reader default, encode, decode)`` for each field of
    the record type ``cls``. Raises TypeError for an annotation with no form."""
    defaults = getattr(cls, "RECORD_DEFAULTS", {})
    plan = []
    for f in dataclasses.fields(cls):
        if f.type not in _FORMS:
            raise TypeError(f"{cls.__name__}.{f.name}: no record form for {f.type!r}")
        json_type, encode, decode = _FORMS[f.type]
        plan.append((f.name, json_type, defaults.get(f.name, _REQUIRED), encode, decode))
    return tuple(plan)


def to_record(obj) -> dict:
    """``obj``, an instance of a record type, as a record of its ``RECORD_KIND``;
    ValidationError for any other value."""
    if isinstance(obj, type) or not hasattr(obj, "RECORD_KIND"):
        raise ValidationError(f"need an instance of a record type; got {obj!r}")
    record = make_record(obj.RECORD_KIND)
    for name, _, _, encode, _ in _field_plan(type(obj)):
        value = getattr(obj, name)
        record[name] = value if encode is None else encode(value)
    return record


def from_record(record: dict, cls: type):
    """The ``cls`` value that ``record`` holds, each field read with
    :func:`record_field`: a key that ``cls.RECORD_DEFAULTS`` names may be absent.
    ValidationError if the header is not ``cls``'s or ``cls`` rejects a value."""
    check_header(record, cls.RECORD_KIND)
    fields = {}
    for name, json_type, default, _, decode in _field_plan(cls):
        value = record_field(record, name, json_type, default)
        fields[name] = value if decode is None else decode(value)
    return cls(**fields)


# Record form of each field annotation of a record type: the JSON type that
# record_field reads, then how a value is encoded and decoded (None keeps it).
_FORMS: dict[str, tuple[type, Callable | None, Callable | None]] = {
    "str": (str, None, None),
    "int": (int, None, None),
    "bool": (bool, None, None),
    "tuple[int, ...]": (list, list, None),
    "tuple[tuple[int, int], ...]": (
        list, lambda edges: [format_edge(e) for e in edges],
        lambda edges: [parse_edge(e) for e in check_items(edges, str, "edges")]),
    "tuple[RoleSpec, ...]": (
        list, lambda roles: [{"name": r.name, "prompt": r.prompt} for r in roles],
        lambda roles: [RoleSpec(record_field(r, "name", str), record_field(r, "prompt", str))
                       for r in check_items(roles, dict, "roles")]),
    "IntraPattern": (str, lambda pattern: pattern.value, None),
    "GroupGraph": (dict, to_record, lambda record: from_record(record, GroupGraph)),
}


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
    out, path = [], check_path(path, "path")
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
        ValidationError: if ``path`` is not a str or PathLike, or the file
            cannot be created or cannot replace ``path``.
    """
    tmp = f"{check_path(path, 'path')}.{uuid.uuid4().hex}.tmp"
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


class _Abandon(Exception):
    """Leaves an :func:`atomic_write` block before its replace."""


def check_writable(path: str | os.PathLike) -> None:
    """Raise the :class:`ValidationError` that :func:`atomic_write` would,
    before any work: open and remove the temporary file it would open, then
    refuse a directory, which its replace would. Leaves no file.
    """
    with contextlib.suppress(_Abandon), atomic_write(path):
        raise _Abandon
    if os.path.isdir(path):
        raise ValidationError(f"cannot write {os.fspath(path)}: {os.strerror(errno.EISDIR)}")


def write_records(path: str | os.PathLike, records: Iterable[dict]) -> None:
    """Write ``records``, an ordered iterable of dicts, as JSON lines (atomic replace);
    anything else, or a record JSON cannot encode, raises ValidationError; nothing is written."""
    records = check_items(records, dict, "records")
    with atomic_write(path) as fh:
        for index, record in enumerate(records):
            try:
                line = json.dumps(record, sort_keys=True)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"record {index} is not JSON: {exc}") from exc
            fh.write((line + "\n").encode("utf-8"))
