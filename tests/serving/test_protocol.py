"""Wire-protocol tests: framing, the closed codec, torn frames, drains."""

import socket
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.serving.supervisor as supervisor_module
from repro.ops import OPS
from repro.serving import (
    PoolConfig,
    PoolRequest,
    PoolResponse,
    ProtocolError,
    Supervisor,
    drain_frames,
    payload_checksum,
    recv_frame,
    send_frame,
    shard_of,
)
from repro.serving.protocol import (
    MAX_FRAME_BYTES,
    STATUSES,
    TAGS,
    VERSION,
    decode,
    encode,
)

_HEADER = struct.Struct("<BBBxqqI")
_RECORD = struct.Struct("<qBII")

RNG = np.random.default_rng(5)
#: One ok wire payload per kind, in the dtypes and shapes its layout declares.
OK_PAYLOADS = {
    "serve": (
        np.array([2, 0, 5], dtype=np.int64),
        RNG.standard_normal((3, 8)),
        RNG.standard_normal((3, 8)),
    ),
    "retrieve": (np.array([0.5, 1.25, np.inf]), np.array([7, 3, -1], dtype=np.int64)),
    "exist": 0.8125,
    "explain": {
        "entity": 3,
        "relation": 1,
        "kind": "completion",
        "degraded": False,
        "existence_score": 0.375,
        "predictions": [[41, 0.9], [42, 0.1]],
        "citations": [{"value": 41, "support": [3, 2, 17], "confidence": 0.5}],
    },
    "recommend": (np.array([0.1, 0.2]), np.array([9, 4], dtype=np.int64)),
}
#: One payload per non-ok status.
OTHER_PAYLOADS = {
    "unknown-id": None,
    "quarantined": ("entity_table", 17, 1, 3),
    "deadline": None,
    "error": "worker has no scenario engines",
}


def assert_same(got, want):
    """Equal structure, types and bytes (arrays by dtype, shape and bytes)."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    elif isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want)
        for key in want:
            assert_same(got[key], want[key])
    elif isinstance(want, float):
        assert isinstance(got, float)
        assert struct.pack("<d", got) == struct.pack("<d", want)
    else:
        assert type(got) is type(want) and got == want


def results(*records, worker=0):
    return ("results", worker, list(records))


def valid_messages():
    """A message of every tag, and a results frame of every kind × status."""
    messages = [
        ("batch", kind, 10, [(0, 3, -1, 0.0625), (1, 5, 2, None)]) for kind in OPS
    ]
    messages += [("ping", 4), ("pong", 4, 96), ("ready", 1, 60), ("shutdown",)]
    messages += [("fail", 1, "OSError('no store')"), ("batch", "serve", 10, [])]
    messages += [results((7, "ok", payload)) for payload in OK_PAYLOADS.values()]
    messages += [results((7, s, p)) for s, p in OTHER_PAYLOADS.items()]
    messages += [
        results((7, status, other), (8, "ok", payload))
        for payload in OK_PAYLOADS.values()
        for status, other in OTHER_PAYLOADS.items()
    ]
    messages.append(
        results(
            (0, "ok", OK_PAYLOADS["serve"]),
            (1, "deadline", None),
            (2, "ok", OK_PAYLOADS["serve"]),
            (3, "quarantined", ("entity_table", 2, 0, 1)),
            worker=3,
        )
    )
    messages.append(results())
    return messages


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestFraming:
    def test_roundtrip(self, pair):
        left, right = pair
        message = ("batch", "serve", 10, [(0, 3, -1, 0.5), (1, 5, -1, None)])
        send_frame(left, message)
        assert recv_frame(right) == message

    def test_many_frames_in_order(self, pair):
        left, right = pair
        for seq in range(5):
            send_frame(left, ("ping", seq))
        for seq in range(5):
            assert recv_frame(right) == ("ping", seq)

    def test_clean_eof_is_none(self, pair):
        left, right = pair
        left.close()
        assert recv_frame(right) is None

    def test_torn_frame_raises(self, pair):
        left, right = pair
        body = encode(("results", 0, [(0, "ok", 1.0)]))
        left.sendall(struct.pack(">I", len(body)) + body[: len(body) // 2])
        left.close()
        with pytest.raises(ProtocolError):
            recv_frame(right)

    def test_header_only_raises(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", 64))
        left.close()
        with pytest.raises(ProtocolError):
            recv_frame(right)

    def test_absurd_length_rejected(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError):
            recv_frame(right)

    def test_undecodable_body_raises(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", 4) + b"\xff\xff\xff\xff")
        with pytest.raises(ProtocolError):
            recv_frame(right)

    def test_decode_garbage_raises(self):
        with pytest.raises(ProtocolError):
            decode(b"not a frame")
        with pytest.raises(ProtocolError):
            decode(b"\x00" * 64)

    def test_arrays_are_writable_views_of_the_one_received_buffer(self, pair):
        left, right = pair
        send_frame(left, results((0, "ok", OK_PAYLOADS["serve"])))
        _, _, [(_, _, payload, _)] = recv_frame(right)
        buffers = set()
        for array in payload:
            assert array.flags.writeable and array.flags.c_contiguous
            base = array
            while not isinstance(base, bytearray):
                base = base.base if isinstance(base, np.ndarray) else base.obj
            buffers.add(id(base))
        assert len(buffers) == 1


class TestClosedCodec:
    @pytest.mark.parametrize("message", valid_messages(), ids=lambda m: m[0])
    def test_every_tag_kind_and_status_round_trips(self, message):
        body = encode(message)
        decoded = decode(bytearray(body))
        assert encode(decoded) == body
        if message[0] != "results":
            assert_same(decoded, message)
            return
        assert decoded[:2] == message[:2]
        assert len(decoded[2]) == len(message[2])
        for (rid, status, payload, crc), want in zip(decoded[2], message[2]):
            assert (rid, status) == want[:2]
            assert_same(payload, want[2])
            if status == "ok":
                kind = next(k for k, p in OK_PAYLOADS.items() if p is want[2])
                assert crc == payload_checksum(kind, want[2])

    @pytest.mark.parametrize("kind", sorted(OPS))
    def test_ok_bytes_are_exactly_the_kinds_crc_bytes(self, kind):
        payload = OK_PAYLOADS[kind]
        data = OPS[kind].crc_bytes(payload)
        body = encode(results((7, "ok", payload)))
        assert body.endswith(data)
        head = body[-len(data) - _RECORD.size : -len(data)]
        assert _RECORD.unpack(head) == (7, 0, zlib.crc32(data), len(data))

    def test_the_perf_replay_tuples_round_trip(self, store_dir, item_ids, monkeypatch):
        """The messages a traced pool hands its frame functions — the
        supervisor's batch tuples and the decoded results — re-encode
        to bodies that decode back to them."""
        recorded = []

        def tap(function, pick):
            def wrapped(*args):
                result = function(*args)
                recorded.append(pick(args, result))
                return result

            return wrapped

        monkeypatch.setattr(
            supervisor_module, "send_frame", tap(send_frame, lambda a, r: a[1])
        )
        monkeypatch.setattr(
            supervisor_module, "recv_frame", tap(recv_frame, lambda a, r: r)
        )
        pool = Supervisor(store_dir, PoolConfig(num_workers=1, max_batch=4))
        pool.start()
        try:
            for index, entity in enumerate(item_ids[:12]):
                kind = ("serve", "exist", "retrieve")[index % 3]
                pool.submit(kind, entity, relation=index % 6, k=5)
                pool.pump()
            assert all(r.ok for r in pool.drain())
        finally:
            pool.shutdown()
        replayed = [m for m in recorded if m and m[0] in ("batch", "results")]
        assert {m[0] for m in replayed} == {"batch", "results"}
        for message in replayed:
            body = encode(message)
            assert encode(decode(body)) == body
            assert_same(decode(body), message)

    @pytest.mark.parametrize(
        "message",
        [
            ("batch", "serve", 10, [(0, 3, -1), (1, 5, -1)]),  # 3-field items
            ("results", [(0, "ok", None)]),  # no worker id
            ("batch", "no-such-kind", 10, []),
            ("teleport", 1),
            ("ping",),
            ("shutdown", 1),
            results((0, "ok", (np.zeros(2, np.float32), np.zeros(2, np.int64)))),
            results((0, "ok", [np.zeros(2), np.zeros(2, np.int64)])),
            results((0, "ok", 1.0), (1, "ok", {"a": 1})),
            results((0, "ok", OK_PAYLOADS["serve"]), (1, "ok", OK_PAYLOADS["retrieve"])),
            results((0, "deadline", "late")),
            results((0, "failed", None)),
        ],
        ids=repr,
    )
    def test_off_schema_messages_do_not_encode(self, message, pair):
        with pytest.raises(ProtocolError):
            encode(message)
        with pytest.raises(ProtocolError):
            send_frame(pair[0], message)

    def test_a_none_budget_and_a_zero_budget_stay_apart(self):
        message = ("batch", "exist", 10, [(0, 1, 2, None), (1, 1, 2, 0.0)])
        assert decode(encode(message))[3] == [(0, 1, 2, None), (1, 1, 2, 0.0)]


def body_with(message, **header):
    """``message`` encoded, then header fields overwritten."""
    body = bytearray(encode(message))
    fields = dict(
        zip(("version", "tag", "kind", "k", "dim", "count"), _HEADER.unpack_from(body))
    )
    fields.update(header)
    _HEADER.pack_into(body, 0, *fields.values())
    return bytes(body)


SERVE = results((0, "ok", OK_PAYLOADS["serve"]))
RECORD_AT = _HEADER.size + 8  # the first record's head


def status_byte(value):
    body = bytearray(encode(results((0, "deadline", None))))
    body[RECORD_AT + 8] = value
    return bytes(body)


class TestRefusals:
    @pytest.mark.parametrize(
        "body",
        [
            body_with(("ping", 1), version=VERSION + 1),
            body_with(("ping", 1), version=0),
            body_with(("ping", 1), tag=len(TAGS)),
            body_with(("batch", "serve", 10, []), kind=len(OPS)),
            body_with(SERVE, kind=255),
            body_with(("batch", "serve", 10, []), dim=3),
            body_with(("ping", 1), kind=1),
            body_with(("ping", 1), count=1),
            body_with(("batch", "serve", 10, [(0, 1, 2, None)]), count=2),
            body_with(("batch", "serve", 10, [(0, 1, 2, None)]), count=0),
            body_with(SERVE, count=2),
            body_with(SERVE, count=0),
            body_with(SERVE, k=4),
            body_with(SERVE, dim=7),
            body_with(SERVE, k=-3),
            body_with(SERVE, kind=list(OPS).index("retrieve")),
            body_with(SERVE, kind=list(OPS).index("exist")),
            body_with(results((0, "ok", 0.5)), k=1),
            body_with(results((0, "ok", OK_PAYLOADS["explain"])), dim=2),
            body_with(results((0, "deadline", None)), kind=1),
            body_with(results(), k=3),
            body_with(results((0, "ok", OK_PAYLOADS["retrieve"])), dim=1),
            status_byte(len(STATUSES)),
            encode(SERVE) + b"\x00",
            encode(("ping", 1)) + b"\x00",
            encode(("shutdown",)) + b"\x00",
            encode(("batch", "serve", 10, [(0, 1, 2, None)])) + b"\x00",
            encode(SERVE)[:-1],
            encode(("pong", 1, 2))[:-1],
            encode(("fail", 0, "x"))[:-1] + b"\xff",
        ],
    )
    def test_off_schema_bodies_are_protocol_errors(self, body):
        with pytest.raises(ProtocolError):
            decode(body)

    def test_a_flipped_payload_byte_fails_the_crc(self):
        body = bytearray(encode(SERVE))
        body[-1] ^= 0x01
        with pytest.raises(ProtocolError, match="CRC"):
            decode(body)

    def test_a_status_without_bytes_refuses_bytes(self):
        data = b"late"
        body = bytearray(encode(results((0, "deadline", None))))
        body[RECORD_AT:] = _RECORD.pack(0, STATUSES.index("deadline"), zlib.crc32(data), 4)
        with pytest.raises(ProtocolError):
            decode(bytes(body) + data)

    def test_a_budget_flag_is_zero_or_one(self):
        body = bytearray(encode(("batch", "serve", 10, [(0, 1, 2, None)])))
        body[_HEADER.size + 24] = 2
        with pytest.raises(ProtocolError, match="budget flag"):
            decode(body)


BODIES = [encode(message) for message in valid_messages()]


class TestDamage:
    @settings(max_examples=600, deadline=None)
    @given(st.data())
    def test_damage_is_a_protocol_error_or_a_valid_message(self, data):
        body = data.draw(st.sampled_from(BODIES))
        how = data.draw(st.sampled_from(["truncate", "extend", "flip"]))
        if how == "truncate":
            damaged = body[: data.draw(st.integers(0, len(body) - 1))]
        elif how == "extend":
            damaged = body + data.draw(st.binary(min_size=1, max_size=40))
        else:
            at = data.draw(st.integers(0, len(body) - 1))
            bits = data.draw(st.integers(1, 255))
            damaged = body[:at] + bytes([body[at] ^ bits]) + body[at + 1 :]
        try:
            message = decode(bytearray(damaged))
        except ProtocolError:
            return
        assert isinstance(message, tuple) and message[0] in TAGS
        encode(message)  # a message decode returns is one encode accepts


class TestDrainFrames:
    def test_complete_frames_survive_a_dead_peer(self, pair):
        """The kernel buffer outlives the writer — the drain rule's basis."""
        left, right = pair
        send_frame(left, ("results", 0, [(0, "ok", 1.0)]))
        send_frame(left, ("results", 0, [(1, "ok", 2.0)]))
        left.close()  # the "crash"
        frames = drain_frames(right)
        assert [f[2][0][0] for f in frames] == [0, 1]

    def test_trailing_partial_frame_discarded(self, pair):
        left, right = pair
        send_frame(left, ("pong", 1, 7))
        body = encode(("pong", 2, 9))
        left.sendall(struct.pack(">I", len(body)) + body[:3])
        left.close()
        assert drain_frames(right) == [("pong", 1, 7)]

    def test_empty_buffer_drains_empty(self, pair):
        left, right = pair
        assert drain_frames(right) == []


class TestShardOf:
    def test_modulo_rule(self):
        assert [shard_of(e, 3) for e in range(6)] == [0, 1, 2, 0, 1, 2]


@st.composite
def wire_payloads(draw):
    """A kind and a payload of it — arrays possibly not C-contiguous."""
    kind = draw(st.sampled_from(sorted(OPS)))
    layout = OPS[kind].layout
    if not hasattr(layout, "fields"):
        if kind == "exist":
            return kind, draw(st.floats(allow_nan=True, allow_infinity=True))
        values = st.one_of(
            st.integers(-(2**53), 2**53),
            st.floats(allow_nan=False),
            st.booleans(),
            st.text(max_size=8),
            st.lists(st.integers(-9, 9), max_size=4),
        )
        return kind, draw(st.dictionaries(st.text(max_size=6), values, max_size=6))
    sizes = {"k": draw(st.integers(0, 6)), "dim": draw(st.integers(0, 5))}
    payload = []
    for dtype, shape in layout.fields:
        shape = tuple(sizes[s] for s in shape)
        array = draw(arrays(dtype, shape))
        if draw(st.booleans()) and array.ndim == 2:
            array = np.asfortranarray(array)
        elif draw(st.booleans()):
            array = np.repeat(array, 2, axis=0)[::2]
        payload.append(array)
    return kind, tuple(payload)


class TestPayloadChecksum:
    def test_serve_checksum_is_stable(self):
        rng = np.random.default_rng(0)
        payload = (
            np.array([0, 2], dtype=np.int64),
            rng.standard_normal((2, 4)),
            rng.standard_normal((2, 4)),
        )
        assert payload_checksum("serve", payload) == payload_checksum(
            "serve", payload
        )

    def test_retrieve_checksum_detects_changes(self):
        distances = np.array([0.1, 0.2])
        ids = np.array([4, 5], dtype=np.int64)
        base = payload_checksum("retrieve", (distances, ids))
        assert payload_checksum("retrieve", (distances + 1, ids)) != base

    def test_exist_checksum_is_float_exact(self):
        assert payload_checksum("exist", 1.5) == payload_checksum("exist", 1.5)
        assert payload_checksum("exist", 1.5) != payload_checksum("exist", 1.6)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            payload_checksum("mystery", None)

    @settings(max_examples=300, deadline=None)
    @given(wire_payloads())
    def test_the_chained_crc_is_the_crc_of_the_joined_bytes(self, drawn):
        kind, payload = drawn
        data = OPS[kind].crc_bytes(payload)
        assert payload_checksum(kind, payload) == zlib.crc32(data)
        if isinstance(payload, tuple):
            assert data == b"".join(array.tobytes() for array in payload)
        (_, _, [(_, _, decoded, crc)]) = decode(encode(results((0, "ok", payload))))
        assert crc == zlib.crc32(data)
        assert OPS[kind].crc_bytes(decoded) == data


class TestEnvelopes:
    def test_response_ok_property(self):
        def response(outcome):
            return PoolResponse(
                request_id=0,
                kind="exist",
                entity_id=1,
                relation=0,
                outcome=outcome,
                payload=None,
                checksum=0,
                worker=0,
            )

        assert response("ok").ok
        assert not response("deadline").ok

    def test_request_is_frozen(self):
        request = PoolRequest(
            request_id=0,
            kind="serve",
            entity_id=1,
            relation=-1,
            k=10,
            deadline_at=1.0,
            shard=0,
        )
        with pytest.raises(AttributeError):
            request.attempts = 5
