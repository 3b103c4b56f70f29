"""The fast JSON path renders byte-for-byte what the stdlib renderer would."""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

import repro.serialize as serialize

json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**53), max_value=2**53),
        st.text(max_size=8),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)


class TestSerializationByteIdentity:
    @given(payload=json_values)
    @settings(max_examples=100, deadline=None)
    def test_compact_and_indent_match_stdlib_bytes(self, payload):
        compact = serialize.json_dumps_compact(payload)
        indented = serialize.json_dumps_indent2(payload)
        assert compact == json.dumps(
            payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
        )
        assert indented == json.dumps(
            payload, sort_keys=True, indent=2, ensure_ascii=False
        )
        assert serialize.json_loads(compact) == payload
        assert serialize.json_loads(indented) == payload

    @given(payload=json_values)
    @settings(max_examples=60, deadline=None)
    def test_backend_fallback_is_byte_identical(self, payload):
        fast = serialize.json_dumps_compact(payload)
        original = serialize._orjson
        serialize._orjson = None
        try:
            slow = serialize.json_dumps_compact(payload)
        finally:
            serialize._orjson = original
        assert fast == slow

    def test_divergent_floats_route_to_stdlib(self):
        payload = {"tiny": 1e-7, "huge": 1e17, "plain": 0.5}
        rendered = serialize.json_dumps_compact(payload)
        assert rendered == json.dumps(
            payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
        )
        assert serialize.json_loads(rendered) == payload
