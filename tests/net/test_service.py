"""End-to-end asyncio service tests: real sockets on an ephemeral port."""

import asyncio
import os
import random
import signal
import struct
import subprocess
import sys
import tempfile
import time

import pytest

from repro.cluster.client import RetryPolicy
from repro.net.client import AsyncLookupClient, ServiceError
from repro.net.codec import (
    BINARY_MAGIC,
    BINARY_VERSION,
    CODEC_BINARY,
    MAX_FRAME,
    decode_frame_body,
    encode_envelope,
    encode_envelope_binary,
    encode_message,
    hello_envelope,
)
from repro.net.service import DEFAULT_SCHEMES, LookupService, ServiceConfig
from repro.cluster.messages import AddRequest, LookupRequest
from repro.core.entry import Entry


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


CONFIG = ServiceConfig(server_count=12, entry_count=30, seed=7)


async def with_service(fn, config=CONFIG):
    service = LookupService(config)
    host, port = await service.start(port=0)
    try:
        return await fn(service, host, port)
    finally:
        await service.stop()


class TestEnvelopeDispatch:
    # handle_envelope is pure dispatch; no sockets needed.

    def test_ping_and_info(self):
        service = LookupService(CONFIG)
        assert service.handle_envelope({"op": "ping"})["ok"]
        info = service.handle_envelope({"op": "info"})["value"]
        assert info["servers"] == 12
        assert set(info["schemes"]) == set(DEFAULT_SCHEMES)
        assert info["schemes"]["round_robin"]["profile"]["order"] == {"stride": 2}
        assert info["schemes"]["fixed"]["profile"]["max_servers"] == 1

    def test_unknown_op_is_bad_request(self):
        service = LookupService(CONFIG)
        reply = service.handle_envelope({"op": "launch"})
        assert not reply["ok"]
        assert reply["error"] == "bad-request"

    def test_send_routes_through_network_accounting(self):
        service = LookupService(CONFIG)
        before = service.cluster.network.stats.total
        reply = service.handle_envelope(
            {
                "op": "send",
                "server": 0,
                "key": "hash",
                "message": encode_message(LookupRequest(3)),
            }
        )
        assert reply["ok"]
        assert service.cluster.network.stats.total == before + 1

    def test_send_to_failed_server_is_unavailable(self):
        service = LookupService(CONFIG)
        service.cluster.fail(4)
        reply = service.handle_envelope(
            {
                "op": "send",
                "server": 4,
                "key": "hash",
                "message": encode_message(LookupRequest(3)),
            }
        )
        assert not reply["ok"]
        assert reply["error"] == "unavailable"

    def test_send_validation(self):
        service = LookupService(CONFIG)
        bad_server = service.handle_envelope(
            {"op": "send", "server": 99, "key": "hash", "message": {}}
        )
        assert bad_server["error"] == "bad-request"
        bad_key = service.handle_envelope(
            {
                "op": "send",
                "server": 0,
                "key": "nope",
                "message": encode_message(LookupRequest(1)),
            }
        )
        assert bad_key["error"] == "bad-request"

    def test_update_via_send_is_visible_to_lookups(self):
        service = LookupService(CONFIG)
        reply = service.handle_envelope(
            {
                "op": "send",
                "server": 1,
                "key": "full_replication",
                "message": encode_message(AddRequest(Entry("fresh"))),
            }
        )
        assert reply["ok"]
        verify = service.handle_envelope(
            {"op": "verify", "key": "full_replication"}
        )["value"]
        assert verify["coverage"] == CONFIG.entry_count + 1


class TestOverSockets:
    def test_all_schemes_complete_partial_lookups(self):
        async def scenario(service, host, port):
            outcomes = {}
            async with AsyncLookupClient(host, port, rng=random.Random(3)) as client:
                assert await client.ping()
                for scheme in sorted(DEFAULT_SCHEMES):
                    result = await client.lookup(scheme, 8)
                    outcomes[scheme] = result
            return outcomes

        outcomes = run(with_service(scenario))
        for scheme, result in outcomes.items():
            assert result.success, scheme
            assert len(result.entries) == 8
            ids = [e.entry_id for e in result.entries]
            assert len(set(ids)) == 8

    def test_max_servers_profile_respected_over_wire(self):
        async def scenario(service, host, port):
            async with AsyncLookupClient(host, port, rng=random.Random(1)) as client:
                return await client.lookup("full_replication", 8)

        result = run(with_service(scenario))
        assert result.messages == 1
        assert len(result.servers_contacted) == 1

    def test_failed_server_surfaces_as_failed_contact(self):
        async def scenario(service, host, port):
            service.cluster.fail(2)
            service.cluster.fail(5)
            async with AsyncLookupClient(host, port, rng=random.Random(2)) as client:
                return await client.lookup("hash", 25)

        result = run(with_service(scenario))
        assert result.success
        assert set(result.failed_contacts) <= {2, 5}
        assert not {2, 5} & set(result.servers_contacted)

    def test_retry_policy_reruns_failed_contacts(self):
        async def scenario(service, host, port):
            # Fail everything but two servers so the first pass comes
            # up short, then recover before the retry pass.
            for sid in range(2, service.cluster.size):
                service.cluster.fail(sid)
            policy = RetryPolicy(
                max_attempts=2, base_backoff=0.05, jitter=0.0, backoff_budget=5.0
            )
            client = AsyncLookupClient(
                host, port, rng=random.Random(5), retry_policy=policy
            )
            async with client:
                info = await client.info()
                task = asyncio.ensure_future(client.lookup("hash", 25))
                await asyncio.sleep(0.02)
                for sid in range(2, service.cluster.size):
                    service.cluster.recover(sid)
                return await task

        result = run(with_service(scenario))
        assert result.retries == 1
        assert result.backoff > 0

    def test_unknown_scheme_raises(self):
        async def scenario(service, host, port):
            async with AsyncLookupClient(host, port) as client:
                with pytest.raises(ServiceError, match="does not host"):
                    await client.lookup("zigzag", 5)

        run(with_service(scenario))

    def test_verify_reports_invariants(self):
        async def scenario(service, host, port):
            async with AsyncLookupClient(host, port) as client:
                return await client.verify("round_robin")

        verify = run(with_service(scenario))
        assert verify["coverage"] == CONFIG.entry_count
        assert verify["storage_cost"] == 2 * CONFIG.entry_count
        assert verify["operational"] == CONFIG.server_count

    def test_many_clients_interleave(self):
        async def scenario(service, host, port):
            async def one(seed):
                async with AsyncLookupClient(
                    host, port, rng=random.Random(seed)
                ) as client:
                    return await client.lookup("round_robin", 8)

            return await asyncio.gather(*(one(seed) for seed in range(8)))

        results = run(with_service(scenario))
        assert all(r.success for r in results)

    def test_request_timeout_becomes_dropped_contact(self):
        async def scenario(service, host, port):
            # A server that never replies: swap the envelope handler
            # for one that stalls longer than the client timeout.
            real = service.handle_envelope
            stall = {"first": True}

            async def handler(reader, writer):
                from repro.net.codec import read_frame, write_frame

                while True:
                    envelope = await read_frame(reader)
                    if envelope is None:
                        break
                    if envelope.get("op") == "send" and stall.pop("first", False):
                        await asyncio.sleep(10)  # > client timeout
                    await write_frame(writer, real(envelope))

            service.handle_connection = handler  # monkeypatch the instance
            await service.stop()
            server = await asyncio.start_server(handler, host="127.0.0.1", port=0)
            sock_host, sock_port = server.sockets[0].getsockname()[:2]
            try:
                client = AsyncLookupClient(
                    sock_host,
                    sock_port,
                    rng=random.Random(4),
                    timeout=0.2,
                    retry_policy=RetryPolicy(
                        max_attempts=2, base_backoff=0.01, jitter=0.0
                    ),
                )
                async with client:
                    result = await client.lookup("hash", 5)
            finally:
                server.close()
                await server.wait_closed()
            return result

        result = run(with_service(scenario))
        # The stalled contact was reported dropped and retried on a
        # fresh connection; the lookup still completed.
        assert result.success
        assert result.retries <= 1

    def test_clean_stop_with_live_connection(self):
        async def scenario(service, host, port):
            client = AsyncLookupClient(host, port)
            await client.connect()
            assert await client.ping()
            await service.stop()
            await client.close()
            return True

        async def runner():
            service = LookupService(CONFIG)
            host, port = await service.start(port=0)
            return await scenario(service, host, port)

        assert run(runner())


# --------------------------------------------------------------------------
# The connection loop: one read, every frame it completes, one write
# --------------------------------------------------------------------------


def _lookup(request_id, key="full_replication", target=0, server=0):
    return {
        "op": "send",
        "server": server,
        "key": key,
        "message": encode_message(LookupRequest(target)),
        "id": request_id,
    }


#: A well-formed binary frame whose body names message #16383, which no
#: side knows: undecodable, so answered ``bad-request``.
UNDECODABLE = struct.pack(">I", 10) + bytes(
    (BINARY_MAGIC, BINARY_VERSION, 0, 0x08, 1, 1, ord("v"), 0x0B, 0xFF, 0x7F)
)


def _burst():
    """JSON info, a hello to binary, binary sends (sampled targets too),
    an undecodable frame and a batch: one reply each, in this order."""
    return [
        encode_envelope({"op": "info", "id": 1}),
        encode_envelope(dict(hello_envelope((CODEC_BINARY,)), id=2)),
        encode_envelope_binary(_lookup(3)),
        encode_envelope_binary(_lookup(4, key="hash", target=3, server=5)),
        UNDECODABLE,
        encode_envelope_binary(
            {
                "op": "batch",
                "id": 6,
                "requests": [_lookup(7, key="round_robin", target=4), _lookup(8)],
            }
        ),
        encode_envelope_binary(_lookup(9, key="random_server", target=2)),
    ]


async def _read_raw(reader):
    """One raw reply frame (prefix included), or None at end of stream."""
    prefix = await reader.read(4)
    if not prefix:
        return None
    prefix += await reader.readexactly(4 - len(prefix))
    (length,) = struct.unpack(">I", prefix)
    return prefix + await reader.readexactly(length)


async def _exchange(frames, *, mode):
    """Send ``frames`` to a fresh service; return the raw replies.

    ``mode`` is ``"round-trip"`` (one frame, then its reply), ``"burst"``
    (every frame in one write) or ``"bytewise"`` (the burst one byte per
    write).  Burst modes read replies until the service hangs up.
    """
    service = LookupService(CONFIG)
    host, port = await service.start(port=0)
    reader, writer = await asyncio.open_connection(host, port)
    replies = []
    try:
        if mode == "round-trip":
            for frame in frames:
                writer.write(frame)
                await writer.drain()
                replies.append(await _read_raw(reader))
        else:
            data = b"".join(frames)
            if mode == "burst":
                writer.write(data)
            else:
                for byte in data:
                    writer.write(bytes((byte,)))
                    await writer.drain()
            writer.write_eof()
            while (reply := await _read_raw(reader)) is not None:
                replies.append(reply)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await service.stop()
    return replies


class TestCoalescedConnectionLoop:
    def test_burst_replies_match_round_trips_byte_for_byte(self):
        frames = _burst()
        expected = run(_exchange(frames, mode="round-trip"))
        got = run(_exchange(frames, mode="burst"))
        assert got == expected
        decoded = [decode_frame_body(raw[4:]) for raw in got]
        assert [reply.get("id") for reply in decoded] == [1, 2, 3, 4, None, 6, 9]
        assert got[1][4] == ord("{")  # the hello reply is still JSON
        assert all(raw[4] == BINARY_MAGIC for raw in got[2:])
        assert decoded[4]["error"] == "bad-request"
        assert all(reply["ok"] for i, reply in enumerate(decoded) if i != 4)

    def test_burst_fed_one_byte_per_write(self):
        frames = _burst()
        expected = run(_exchange(frames, mode="round-trip"))
        assert run(_exchange(frames, mode="bytewise")) == expected

    def test_bad_frame_closes_after_the_earlier_replies(self):
        good = [encode_envelope({"op": "ping", "id": n}) for n in range(3)]
        bad_body = b"\x00not an envelope"
        bad = struct.pack(">I", len(bad_body)) + bad_body
        after = encode_envelope({"op": "ping", "id": 99})
        got = run(_exchange(good + [bad, after], mode="burst"))
        assert [decode_frame_body(raw[4:])["id"] for raw in got] == [0, 1, 2]

    def test_oversized_length_prefix_closes_after_the_earlier_replies(self):
        good = [encode_envelope_binary({"op": "ping", "id": n}) for n in range(2)]
        oversized = struct.pack(">I", MAX_FRAME + 1) + b"\x00" * 16
        got = run(_exchange(good + [oversized], mode="burst"))
        assert [decode_frame_body(raw[4:])["id"] for raw in got] == [0, 1]


class TestServeProcess:
    def test_sigterm_the_moment_ready_appears_stops_cleanly(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH", "")]
        )
        for boot in range(10):
            with tempfile.TemporaryDirectory() as tmp:
                ready = os.path.join(tmp, "ready")
                proc = subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "serve",
                        "--port", "0", "--servers", "4", "--entries", "6",
                        "--ready-file", ready,
                    ],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    text=True,
                    env=env,
                )
                try:
                    deadline = time.monotonic() + 30
                    while not os.path.exists(ready):
                        assert proc.poll() is None and time.monotonic() < deadline
                        time.sleep(0.001)
                    proc.send_signal(signal.SIGTERM)
                    out, _ = proc.communicate(timeout=30)
                finally:
                    if proc.poll() is None:
                        proc.kill()
                        proc.wait()
                assert proc.returncode == 0, (boot, proc.returncode, out)
                assert "[serve] stopped" in out, (boot, out)
