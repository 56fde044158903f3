"""Property tests for telemetry serialization (`repro.obs`).

Hypothesis drives the encode/decode contracts the journal depends on:
``Span`` and ``Event`` survive ``to_dict``/``from_dict`` and a real
JSON hop for arbitrary contents, and journal reads stay correct under
a torn final line regardless of where the tear lands.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.obs.journal import (
    Event,
    HubConfig,
    TelemetryHub,
    read_events,
    read_journal,
)
from repro.obs.spans import Span

# JSON-safe attribute values: what layers actually put on events and
# spans (strings, bools, ints, finite floats, None).
_ATTR_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2**53, 2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=30),
)
_ATTRS = st.dictionaries(
    st.text(min_size=1, max_size=20), _ATTR_VALUES, max_size=5
)
_IDS = st.text(
    alphabet="0123456789abcdef", min_size=1, max_size=16
)

_SPANS = st.builds(
    Span,
    name=st.text(min_size=1, max_size=40),
    trace_id=_IDS,
    span_id=_IDS,
    parent_id=st.one_of(st.none(), _IDS),
    start_unix=st.floats(0, 2**31, allow_nan=False),
    duration=st.floats(0, 10**6, allow_nan=False),
    status=st.sampled_from(["ok", "error", "cancelled"]),
    attributes=_ATTRS,
)

_EVENTS = st.builds(
    Event,
    kind=st.text(min_size=1, max_size=30),
    name=st.text(max_size=40),
    unix=st.floats(0, 2**31, allow_nan=False),
    attrs=_ATTRS,
    trace_id=st.one_of(st.none(), _IDS),
    span_id=st.one_of(st.none(), _IDS),
)


@given(span=_SPANS)
@settings(max_examples=40, deadline=None)
def test_span_round_trips_through_json(span):
    wire = json.loads(json.dumps(span.to_dict()))
    assert Span.from_dict(wire) == span


@given(event=_EVENTS)
@settings(max_examples=40, deadline=None)
def test_event_round_trips_through_json(event):
    wire = json.loads(json.dumps(event.to_dict()))
    assert Event.from_dict(wire) == event
    assert wire["rec"] == "event"


@given(events=st.lists(_EVENTS, max_size=8), cut=st.integers(1, 200))
@settings(max_examples=30, deadline=None)
def test_journal_survives_a_torn_final_line(tmp_path_factory, events, cut):
    """However many bytes the dying writer managed to flush, every
    fully written record reads back and the torn tail never raises."""
    tmp = tmp_path_factory.mktemp("torn")
    path = str(tmp / "journal.jsonl")
    hub = TelemetryHub(HubConfig(journal_path=path))
    for event in events:
        hub.emit(event.kind, event.name, **event.attrs)
    hub.close()

    with open(path, "a") as fp:
        torn = json.dumps({"rec": "event", "kind": "torn",
                           "name": "x" * 80, "unix": 0.0, "attrs": {}})
        fp.write(torn[:cut])

    recovered = read_events(path)
    whole = [e for e in recovered if e.kind != "torn"]
    assert len(whole) == len(events)
    assert [e.kind for e in whole] == [e.kind for e in events]
    # And the raw reader agrees: no parse error escapes.
    assert len(list(read_journal(path))) >= len(events)


@given(events=st.lists(_EVENTS, min_size=1, max_size=10))
@settings(max_examples=30, deadline=None)
def test_hub_ring_matches_journal(tmp_path_factory, events):
    tmp = tmp_path_factory.mktemp("ring")
    path = str(tmp / "journal.jsonl")
    hub = TelemetryHub(HubConfig(journal_path=path))
    for event in events:
        hub.emit(event.kind, event.name, **event.attrs)
    hub.close()
    ring = hub.tail(limit=len(events))
    journaled = read_events(path)
    assert [(e.kind, e.name, e.attrs) for e in ring] == [
        (e.kind, e.name, e.attrs) for e in journaled
    ]


def test_hub_accepts_attributes_named_kind_and_name(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    hub = TelemetryHub(HubConfig(journal_path=path))
    hub.emit("job", "n", kind=None, name="inner")
    hub.close()
    (event,) = read_events(path)
    assert (event.kind, event.name) == ("job", "n")
    assert event.attrs == {"kind": None, "name": "inner"}
