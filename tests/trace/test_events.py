"""TraceEvent / TraceBuffer unit behaviour: ring semantics, roundtrip."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ConfigError
from repro.trace import DEFAULT_CAPACITY, EVENT_KINDS, TraceBuffer, TraceEvent


def ev(i):
    return TraceEvent(ns=i * 10, site=f"site.{i % 3}", payload={"i": i})


class TestTraceEvent:
    def test_dict_roundtrip(self):
        event = TraceEvent(ns=42, site="pte.arm", kind="event",
                           payload={"pte_paddr": 4096})
        assert TraceEvent.from_dict(event.as_dict()) == event

    def test_kind_defaults_on_import(self):
        assert TraceEvent.from_dict({"ns": 1, "site": "x"}).kind == "event"

    def test_frozen(self):
        with pytest.raises(Exception):
            TraceEvent(ns=1, site="x").ns = 2

    @pytest.mark.parametrize("raw,field", [
        ({"bad": 1}, "'ns'"),
        ([1, 2], "object"),
        ({"ns": True, "site": "x"}, "'ns'"),
        ({"ns": 1.5, "site": "x"}, "'ns'"),
        ({"ns": "7", "site": "x"}, "'ns'"),
        ({"ns": 1}, "'site'"),
        ({"ns": 1, "site": 3}, "'site'"),
        ({"ns": 1, "site": "x", "kind": None}, "'kind'"),
        ({"ns": 1, "site": "x", "payload": [1]}, "'payload'"),
    ])
    def test_malformed_record_names_the_field(self, raw, field):
        with pytest.raises(ConfigError, match=field):
            TraceEvent.from_dict(raw)


class TestTraceBuffer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigError, match="capacity"):
            TraceBuffer(0)

    def test_default_capacity(self):
        assert TraceBuffer().capacity == DEFAULT_CAPACITY

    def test_append_below_capacity_keeps_order(self):
        buf = TraceBuffer(8)
        for i in range(5):
            buf.append(ev(i))
        assert len(buf) == 5
        assert buf.dropped == 0
        assert [e.payload["i"] for e in buf.events()] == [0, 1, 2, 3, 4]

    def test_overflow_drops_oldest(self):
        buf = TraceBuffer(4)
        for i in range(7):
            buf.append(ev(i))
        assert len(buf) == 4
        assert buf.dropped == 3
        # Flight recorder: the most recent window survives, oldest first.
        assert [e.payload["i"] for e in buf.events()] == [3, 4, 5, 6]

    def test_wrap_is_deterministic(self):
        a, b = TraceBuffer(3), TraceBuffer(3)
        for i in range(11):
            a.append(ev(i))
            b.append(ev(i))
        assert a.events() == b.events()
        assert a.dropped == b.dropped == 8

    def test_clear_resets_everything(self):
        buf = TraceBuffer(2)
        for i in range(5):
            buf.append(ev(i))
        buf.clear()
        assert len(buf) == 0
        assert buf.dropped == 0
        assert buf.events() == []

    def test_iter_matches_events(self):
        buf = TraceBuffer(3)
        for i in range(5):
            buf.append(ev(i))
        assert list(buf) == buf.events()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=8)

#: Well-formed values per field, so the property also reaches records
#: that parse (each field still draws arbitrary JSON half the time).
_FIELDS = {
    "ns": st.integers(),
    "site": st.text(max_size=8),
    "kind": st.sampled_from(EVENT_KINDS),
    "payload": st.dictionaries(st.text(max_size=4), _JSON, max_size=3),
}


@st.composite
def _records(draw):
    if draw(st.booleans()):
        return draw(_JSON)
    keys = draw(st.lists(
        st.sampled_from(sorted(_FIELDS)) | st.text(max_size=4),
        max_size=5, unique=True))
    return {key: draw(_FIELDS[key] | _JSON if key in _FIELDS else _JSON)
            for key in keys}


@settings(max_examples=300, deadline=None)
@given(_records())
@example({"bad": 1})
@example([1, 2])
@example({"ns": 3, "site": "pte.arm"})
def test_any_json_record_parses_and_round_trips_or_raises(raw):
    try:
        event = TraceEvent.from_dict(raw)
    except ConfigError:
        return
    assert event.as_dict() == {
        "ns": raw["ns"], "site": raw["site"],
        "kind": raw.get("kind", "event"), "payload": raw.get("payload", {})}
    line = json.dumps(event.as_dict(), sort_keys=True)
    assert TraceEvent.from_dict(json.loads(line)) == event
