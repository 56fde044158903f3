"""The telemetry hub: one journal for events, spans and snapshots.

Spans answer "where did the time go inside one request"; metrics
answer "how much, in aggregate, since the process started". Neither
answers the operational questions a long-lived daemon gets asked —
*what happened in the last ten minutes*, *which requests failed*,
*did any worker hit a fault* — because spans are drained per batch
and metrics forget individual outcomes the moment they are summed.

The :class:`TelemetryHub` closes that gap. Every layer of the system
(HTTP daemon, batch workers, the fault injector, the artifact store,
the campaign runner) emits small structured :class:`Event` records
through it; finished spans fan in through a module-level sink on the
tracer; and optional whole-registry metric snapshots ride along. The
hub keeps the recent past in bounded in-memory ring buffers (what the
daemon's ``/v1/obs/*`` routes serve) and appends everything to an
**append-only JSONL journal** with size-based rotation (what
``repro obs`` and the SLO engine read after the fact).

Journal layout — one JSON object per line, discriminated by ``rec``::

    {"rec": "event", "kind": "http.request", "name": "/v1/embed", ...}
    {"rec": "span",  "name": "copy.embed", "trace_id": ..., ...}
    {"rec": "metrics", "unix": ..., "samples": [...]}

Rotation renames ``journal.jsonl`` to ``journal.jsonl.1`` (shifting
older segments up, dropping the oldest beyond ``max_segments``) once
the active segment passes ``max_bytes``. Only the hub that owns the
journal rotates (``rotate=True``); pool workers receive a
``worker_config()`` copy that appends to the same active segment
without ever rotating it, so a rename never races a writer that could
truncate data. Single-line ``O_APPEND`` writes keep concurrent
appends from interleaving.

Everything is pay-for-use: with no hub installed the module-level
:func:`emit` is one ``None`` test, exactly like disabled tracing.
"""

from __future__ import annotations

import fnmatch
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

from .metrics import MetricsRegistry
from .spans import Span, current_context, set_span_sink

__all__ = [
    "Event",
    "HubConfig",
    "TelemetryHub",
    "emit",
    "get_hub",
    "journal_segments",
    "read_events",
    "read_journal",
    "read_spans",
    "set_hub",
]

#: Event kinds the layers emit today. Emission is not restricted to
#: this set (a new layer may mint its own kind), but the documented
#: vocabulary keeps filters and SLO specs from guessing.
KNOWN_KINDS: Tuple[str, ...] = (
    "http.request",   # one served HTTP request: route, method, status
    "embed",          # one daemon embed outcome: ok, verified
    "recognize",      # one recognition outcome: complete
    "copy",           # one batch copy result: ok, verified, attempts
    "batch.retry",    # a retry round resubmitted `count` copies
    "fault",          # the fault injector fired at a site
    "circuit",        # a circuit breaker changed state
    "store.quarantine",  # the store quarantined a corrupt blob
    "campaign.cell",  # one campaign cell finished
    "fleet.dispatch",  # one fleet send: worker, route, outcome, seconds
    "fleet.worker",   # a worker health state change: state, previous
    "store.rebalance",  # an online shard add/remove: action, moved
)


@dataclass
class Event:
    """One structured telemetry record: something happened, once.

    ``kind`` is the coarse category (see :data:`KNOWN_KINDS`);
    ``name`` the specific subject (a route, a fault site, a copy id);
    ``attrs`` free-form JSON-able detail. Events emitted inside an
    active span inherit its ``trace_id``/``span_id`` so the journal
    can be joined against the span tree.
    """

    kind: str
    name: str = ""
    unix: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)
    trace_id: Optional[str] = None
    span_id: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "rec": "event",
            "kind": self.kind,
            "name": self.name,
            "unix": self.unix,
            "attrs": dict(self.attrs),
        }
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
        if self.span_id is not None:
            doc["span_id"] = self.span_id
        return doc

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "Event":
        return Event(
            kind=doc["kind"],
            name=doc.get("name", ""),
            unix=float(doc.get("unix", 0.0)),
            attrs=dict(doc.get("attrs", {})),
            trace_id=doc.get("trace_id"),
            span_id=doc.get("span_id"),
        )

    def matches(
        self,
        kind: Optional[str] = None,
        name: Optional[str] = None,
        route: Optional[str] = None,
    ) -> bool:
        """Filter predicate shared by the ring tail and the CLI.

        ``kind`` matches exactly, ``name`` as an ``fnmatch`` glob, and
        ``route`` against the ``route`` attribute (falling back to the
        event name, which is the route for ``http.request`` events).
        """
        if kind is not None and self.kind != kind:
            return False
        if name is not None and not fnmatch.fnmatchcase(self.name, name):
            return False
        if route is not None:
            candidate = str(self.attrs.get("route", self.name))
            if candidate != route:
                return False
        return True


@dataclass(frozen=True)
class HubConfig:
    """Picklable recipe for a :class:`TelemetryHub`.

    This is what travels through a pool initializer: the parent calls
    :meth:`TelemetryHub.worker_config` and each worker builds its own
    hub appending to the same journal. ``rotate=False`` marks a
    non-owning writer; ``record_spans=False`` keeps workers from
    journaling spans that will be journaled again when the parent
    adopts them off the returned results.
    """

    journal_path: Optional[str] = None
    ring_events: int = 2048
    ring_spans: int = 1024
    max_bytes: int = 8 * 1024 * 1024
    max_segments: int = 4
    rotate: bool = True
    record_spans: bool = True

    def __post_init__(self) -> None:
        if self.ring_events < 1 or self.ring_spans < 1:
            raise ValueError("ring sizes must be positive")
        if self.max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        if self.max_segments < 1:
            raise ValueError("max_segments must be positive")

    def create(self) -> "TelemetryHub":
        return TelemetryHub(self)


class TelemetryHub:
    """Fan events, spans and metric snapshots into one journal.

    Thread-safe: the daemon's event loop, worker threads and the
    span sink all emit through one lock. All journal writes are one
    line each, flushed immediately — a crash loses at most the line
    being written, and :func:`read_journal` tolerates that torn tail.
    """

    def __init__(
        self,
        config: Optional[HubConfig] = None,
        clock: Callable[[], float] = time.time,
    ):
        self.config = config or HubConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._events: Deque[Event] = deque(maxlen=self.config.ring_events)
        self._spans: Deque[Span] = deque(maxlen=self.config.ring_spans)
        self._fp: Optional[Any] = None
        self._written = 0
        self._emitted = 0
        path = self.config.journal_path
        if path:
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)

    # -- emission ------------------------------------------------------------

    def emit(self, kind: str, name: str = "", /, **attrs: Any) -> Event:
        """Record one event: ring buffer plus one journal line.

        ``kind`` and ``name`` are positional-only so an attribute may
        itself be called ``kind`` or ``name``.
        """
        context = current_context()
        event = Event(
            kind=kind,
            name=name,
            unix=self._clock(),
            attrs=attrs,
            trace_id=context.trace_id if context is not None else None,
            span_id=context.span_id if context is not None else None,
        )
        with self._lock:
            self._events.append(event)
            self._emitted += 1
            self._write_line(event.to_dict())
        return event

    def record_span(self, span: Span) -> None:
        """Fan one finished span into the ring and the journal."""
        doc = {"rec": "span"}
        doc.update(span.to_dict())
        with self._lock:
            self._spans.append(span)
            self._write_line(doc)

    def snapshot_metrics(self, registry: MetricsRegistry) -> None:
        """Journal the whole registry as one ``metrics`` record."""
        doc = {
            "rec": "metrics",
            "unix": self._clock(),
            "samples": list(registry.samples()),
        }
        with self._lock:
            self._write_line(doc)

    # -- introspection -------------------------------------------------------

    def tail(
        self,
        limit: int = 100,
        kind: Optional[str] = None,
        name: Optional[str] = None,
        route: Optional[str] = None,
    ) -> List[Event]:
        """The newest matching events, oldest-first, at most ``limit``."""
        with self._lock:
            events = list(self._events)
        matched = [e for e in events if e.matches(kind, name, route)]
        return matched[-max(0, limit):]

    def recent_spans(self, limit: int = 200) -> List[Span]:
        with self._lock:
            spans = list(self._spans)
        return spans[-max(0, limit):]

    def recent_traces(
        self, limit: int = 10
    ) -> List[Tuple[str, List[Span]]]:
        """The most recently touched traces, newest last.

        Spans group by ``trace_id``; a trace's recency is the position
        of its newest span in the ring.
        """
        with self._lock:
            spans = list(self._spans)
        grouped: Dict[str, List[Span]] = {}
        for span in spans:  # ring order == arrival order
            grouped.setdefault(span.trace_id, []).append(span)
        traces = list(grouped.items())
        return traces[-max(0, limit):]

    @property
    def emitted(self) -> int:
        """Events emitted through this hub (ring may hold fewer)."""
        return self._emitted

    @property
    def journal_path(self) -> Optional[str]:
        return self.config.journal_path

    def journal_bytes(self) -> int:
        """Size of the active journal segment, 0 when journaling is off."""
        path = self.config.journal_path
        if not path:
            return 0
        try:
            return os.path.getsize(path)
        except OSError:
            return 0

    def worker_config(self) -> HubConfig:
        """The config a pool worker should build its hub from:
        same journal, no rotation, no span journaling (the parent
        journals worker spans when it adopts them)."""
        return HubConfig(
            journal_path=self.config.journal_path,
            ring_events=self.config.ring_events,
            ring_spans=self.config.ring_spans,
            max_bytes=self.config.max_bytes,
            max_segments=self.config.max_segments,
            rotate=False,
            record_spans=False,
        )

    # -- journal writing -----------------------------------------------------

    def _write_line(self, doc: Dict[str, Any]) -> None:
        """Append one record; caller holds the lock."""
        path = self.config.journal_path
        if not path:
            return
        if self._fp is None:
            try:
                self._fp = open(path, "a")
                self._written = self._fp.tell()
            except OSError:
                return  # journaling is best-effort; the ring still has it
        line = json.dumps(doc, sort_keys=True) + "\n"
        try:
            self._fp.write(line)
            self._fp.flush()
        except (OSError, ValueError):
            return
        self._written += len(line)
        if self.config.rotate and self._written >= self.config.max_bytes:
            self._rotate()

    def _rotate(self) -> None:
        """Shift rotated segments up and start a fresh active one."""
        path = self.config.journal_path
        assert path is not None
        if self._fp is not None:
            try:
                self._fp.close()
            except OSError:
                pass
            self._fp = None
        oldest = f"{path}.{self.config.max_segments - 1}"
        try:
            if os.path.exists(oldest):
                os.remove(oldest)
            for index in range(self.config.max_segments - 2, 0, -1):
                src = f"{path}.{index}"
                if os.path.exists(src):
                    os.replace(src, f"{path}.{index + 1}")
            if self.config.max_segments > 1:
                os.replace(path, f"{path}.1")
            else:
                os.remove(path)
        except OSError:
            pass  # a failed rotation just grows the active segment
        self._written = 0

    def close(self) -> None:
        with self._lock:
            if self._fp is not None:
                try:
                    self._fp.close()
                except OSError:
                    pass
                self._fp = None


# -- the ambient hub ---------------------------------------------------------

_HUB: Optional[TelemetryHub] = None


def get_hub() -> Optional[TelemetryHub]:
    """The ambient hub, or ``None`` when telemetry is off."""
    return _HUB


def set_hub(hub: Optional[TelemetryHub]) -> Optional[TelemetryHub]:
    """Install (or clear, with ``None``) the ambient hub.

    Installing a span-recording hub also wires the tracer's span sink
    so every finished or adopted span fans into the journal; clearing
    the hub unwires it. Returns the previous hub.
    """
    global _HUB
    previous = _HUB
    _HUB = hub
    if hub is not None and hub.config.record_spans:
        set_span_sink(hub.record_span)
    else:
        set_span_sink(None)
    return previous


def emit(kind: str, name: str = "", /, **attrs: Any) -> Optional[Event]:
    """Emit through the ambient hub; a single ``None`` test when off."""
    hub = _HUB
    if hub is None:
        return None
    return hub.emit(kind, name, **attrs)


# -- journal reading ---------------------------------------------------------


def journal_segments(path: str) -> List[str]:
    """Every segment of a journal, oldest first.

    ``path`` may be the active journal file or the directory holding
    it (in which case ``journal.jsonl`` is assumed). Rotated siblings
    (``journal.jsonl.3`` ... ``journal.jsonl.1``) come before the
    active segment, so concatenating reads is chronological.
    """
    if os.path.isdir(path):
        path = os.path.join(path, "journal.jsonl")
    rotated: List[Tuple[int, str]] = []
    parent = os.path.dirname(path) or "."
    base = os.path.basename(path)
    try:
        names = os.listdir(parent)
    except OSError:
        names = []
    for name in names:
        if not name.startswith(base + "."):
            continue
        suffix = name[len(base) + 1:]
        if suffix.isdigit():
            rotated.append((int(suffix), os.path.join(parent, name)))
    segments = [p for _, p in sorted(rotated, reverse=True)]
    if os.path.exists(path):
        segments.append(path)
    return segments


def read_journal(path: str) -> Iterator[Dict[str, Any]]:
    """Every parsable record across all segments, oldest first.

    Mirrors the checkpoint-journal contract: a torn final line (the
    writer died mid-append) or any other unparsable line is skipped,
    never fatal.
    """
    for segment in journal_segments(path):
        try:
            with open(segment) as fp:
                lines = fp.read().splitlines()
        except OSError:
            continue
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue  # torn write
            if isinstance(doc, dict):
                yield doc


def read_events(path: str) -> List[Event]:
    """All event records in a journal, oldest first."""
    events: List[Event] = []
    for doc in read_journal(path):
        if doc.get("rec") != "event":
            continue
        try:
            events.append(Event.from_dict(doc))
        except (KeyError, TypeError, ValueError):
            continue
    return events


def read_spans(path: str) -> List[Span]:
    """All span records in a journal, oldest first."""
    spans: List[Span] = []
    for doc in read_journal(path):
        if doc.get("rec") != "span":
            continue
        try:
            spans.append(Span.from_dict(doc))
        except (KeyError, TypeError, ValueError):
            continue
    return spans
