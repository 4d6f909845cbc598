"""Binary wire format: field codecs, framing, and descriptor transport."""
import struct

import pytest
from hypothesis import given, strategies as st

from cosim.errors import (
    CosimError,
    InvalidState,
    ProtocolError,
    SpawnLimitExceeded,
    StepRejected,
    UnknownModel,
    UnknownParameter,
)
from cosim.models import registry
from cosim.net.wire import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    MessageType,
    Reader,
    Writer,
    decode_frame,
    encode_frame,
    error_code,
    make_error,
    read_descriptor,
    write_descriptor,
)

any_f64 = st.floats(allow_nan=True, allow_infinity=True, width=64)
any_u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
texts = st.text(max_size=200)


def bits(x: float) -> int:
    return struct.unpack(">Q", struct.pack(">d", x))[0]


class TestFields:
    @given(any_u64)
    def test_u64_round_trip(self, value):
        r = Reader(Writer().u64(value).payload())
        assert r.u64() == value
        r.done()

    @given(any_f64)
    def test_f64_round_trip_is_bit_exact(self, value):
        r = Reader(Writer().f64(value).payload())
        assert bits(r.f64()) == bits(value)
        r.done()

    def test_f64_preserves_nan_and_negative_zero(self):
        for special in (float("nan"), -0.0, float("inf"), -float("inf"),
                        5e-324, -5e-324):
            r = Reader(Writer().f64(special).payload())
            assert bits(r.f64()) == bits(special)

    @given(texts)
    def test_string_round_trip(self, value):
        r = Reader(Writer().string(value).payload())
        assert r.string() == value
        r.done()

    @given(st.lists(st.tuples(texts, any_f64), max_size=20))
    def test_mixed_sequence_round_trip(self, items):
        w = Writer().count(len(items))
        for name, value in items:
            w.string(name).f64(value)
        r = Reader(w.payload())
        n = r.count()
        got = [(r.string(), r.f64()) for _ in range(n)]
        r.done()
        assert len(got) == len(items)
        for (n0, v0), (n1, v1) in zip(items, got):
            assert n0 == n1 and bits(v0) == bits(v1)

    def test_u64_range_checked(self):
        with pytest.raises(ProtocolError):
            Writer().u64(-1)
        with pytest.raises(ProtocolError):
            Writer().u64(1 << 64)

    def test_reader_rejects_truncation(self):
        payload = Writer().u64(7).payload()
        with pytest.raises(ProtocolError):
            Reader(payload[:-1]).u64()

    def test_reader_rejects_trailing_garbage(self):
        r = Reader(Writer().u64(7).payload() + b"x")
        r.u64()
        with pytest.raises(ProtocolError):
            r.done()

    def test_reader_rejects_bad_utf8(self):
        payload = struct.pack(">I", 2) + b"\xff\xfe"
        with pytest.raises(ProtocolError):
            Reader(payload).string()

    def test_big_endian_layout(self):
        assert Writer().u64(1).payload() == b"\x00" * 7 + b"\x01"
        assert Writer().count(1).payload() == b"\x00\x00\x00\x01"


class TestFrames:
    @given(st.sampled_from(list(MessageType)), st.binary(max_size=4096))
    def test_frame_round_trip(self, msg_type, payload):
        t, p = decode_frame(encode_frame(msg_type, payload))
        assert t == msg_type and p == payload

    def test_frame_layout(self):
        frame = encode_frame(MessageType.HELLO, b"ab")
        assert frame == struct.pack(">IB", 2, 1) + b"ab"

    def test_oversize_frame_rejected_on_encode(self):
        with pytest.raises(ProtocolError):
            encode_frame(MessageType.OK, b"\0" * (MAX_FRAME + 1))

    def test_oversize_frame_rejected_on_decode(self):
        head = struct.pack(">IB", MAX_FRAME + 1, int(MessageType.OK))
        with pytest.raises(ProtocolError):
            decode_frame(head)

    def test_truncated_frame_rejected(self):
        frame = encode_frame(MessageType.OK, b"abcd")
        with pytest.raises(ProtocolError):
            decode_frame(frame[:-1])
        with pytest.raises(ProtocolError):
            decode_frame(frame[:3])

    def test_message_type_values_are_stable(self):
        expected = {
            "HELLO": 1, "HELLO_OK": 2, "LIST_MODELS": 3, "MODEL_LIST": 4,
            "DESCRIBE": 5, "DESCRIPTION": 6, "SPAWN": 7, "SPAWNED": 8,
            "SETUP": 9, "INITIALIZE": 10, "SET_INPUTS": 11, "STEP": 12,
            "STEP_OK": 13, "STEP_FAIL": 14, "GET_OUTPUTS": 15,
            "OUTPUTS": 16, "TERMINATE": 17, "TERMINATED": 18,
            "ERROR": 19, "OK": 20, "BIND": 21,
        }
        assert {m.name: int(m) for m in MessageType} == expected

    def test_protocol_version(self):
        assert PROTOCOL_VERSION == 8


class TestErrors:
    CASES = [
        (StepRejected, 1),
        (InvalidState, 2),
        (UnknownModel, 6),
        (UnknownParameter, 7),
        (SpawnLimitExceeded, 8),
        (ProtocolError, 9),
    ]

    @pytest.mark.parametrize("cls,code", CASES)
    def test_codes_round_trip_to_same_class(self, cls, code):
        assert error_code(cls("boom")) == code
        err = make_error(code, "boom")
        assert type(err) is cls
        assert "boom" in str(err)

    def test_unknown_exception_maps_to_generic(self):
        assert error_code(RuntimeError("x")) == 0
        assert type(make_error(0, "x")) is CosimError

    def test_unknown_code_maps_to_generic(self):
        assert isinstance(make_error(99, "x"), CosimError)

    @pytest.mark.parametrize("code", [3, 4, 5])
    def test_retired_codes_map_to_generic(self, code):
        assert type(make_error(code, "x")) is CosimError


class TestDescriptors:
    @pytest.mark.parametrize("model_id", registry.model_ids())
    def test_every_model_descriptor_round_trips(self, model_id):
        desc = registry.describe(model_id)
        w = Writer()
        write_descriptor(w, desc)
        got = read_descriptor(Reader(w.payload()))
        assert got.model_id == desc.model_id
        assert got.supports_variable_step == desc.supports_variable_step
        assert got.parameters == desc.parameters
        assert len(got.variables) == len(desc.variables)
        for a, b in zip(got.variables, desc.variables):
            assert (a.name, a.causality, a.kind) == (b.name, b.causality, b.kind)
            assert a.direct_feedthrough == b.direct_feedthrough
            if b.unit is None:
                assert a.unit is None
            else:
                assert a.unit.name == b.unit.name
                assert a.unit.scale_to_si == b.unit.scale_to_si

    def test_round_tripped_descriptor_is_usable(self):
        desc = registry.describe("msd_integral")
        w = Writer()
        write_descriptor(w, desc)
        got = read_descriptor(Reader(w.payload()))
        assert [v.name for v in got.inputs()] == ["tau"]
        assert [v.name for v in got.variables] == [v.name for v in desc.variables]

    @pytest.mark.parametrize("variables,match", [
        ([("v", "output", "flow", "furlong")], "unknown unit 'furlong'"),
        ([("v", "sideways", "flow", "")], "'sideways' is not a valid Causality"),
        ([("v", "output", "torque", "")], "'torque' is not a valid VarKind"),
        ([("v", "output", "flow", ""), ("v", "input", "effort", "")], "duplicate variable"),
        ([], "at least one variable"),
    ], ids=["unit", "causality", "kind", "duplicate", "empty"])
    def test_a_malformed_descriptor_is_a_protocol_error(self, variables, match):
        w = Writer().string("odd").u64(1).count(len(variables))
        for name, causality, kind, unit in variables:
            w.string(name).string(causality).string(kind).string(unit).u64(0)
        w.count(0)
        with pytest.raises(ProtocolError, match=f"malformed descriptor: .*{match}"):
            read_descriptor(Reader(w.payload()))
