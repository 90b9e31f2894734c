"""Worker-fleet machinery: delta fan-out ordering, resync, forwarding.

Most of the fleet is testable without forking: the delta computation /
application pair and the :class:`DeltaApplier` ordering contract are
sans-IO, and the writer bus + forwarder run in-process on a Unix
socket.  One end-to-end test boots a real 2-worker fleet through the
CLI supervisor (skipped where ``SO_REUSEPORT`` is unavailable).
"""

import asyncio
import os
import signal
import struct
import subprocess
import sys
import tempfile
import time

import pytest

from repro.cluster.messages import AddRequest, DeleteRequest, LookupRequest
from repro.core.entry import Entry
from repro.net.codec import (
    CODEC_BINARY,
    decode_envelope_binary,
    encode_message,
    read_frame,
    write_frame,
)
from repro.net.service import LookupService, ServiceConfig, envelope_mutates
from repro.net.workers import (
    MAX_DELTA_BUFFER,
    DeltaApplier,
    WriteForwarder,
    WriterBus,
    apply_delta,
    compute_apply_delta,
    load_snapshot,
    reuseport_available,
    snapshot_stores,
    wire_envelope,
)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


CONFIG = ServiceConfig(server_count=8, entry_count=12, seed=3)


def _send(key, message, server=0):
    return {
        "op": "send",
        "server": server,
        "key": key,
        "message": encode_message(message),
    }


def _masks(service, key):
    return [server.store(key).mask for server in service.cluster.servers]


class TestEnvelopeClassification:
    def test_lookups_do_not_mutate(self):
        assert not envelope_mutates(_send("hash", LookupRequest(3)))

    def test_adds_and_deletes_mutate(self):
        assert envelope_mutates(_send("hash", AddRequest(entry=Entry("zz"))))
        assert envelope_mutates(_send("hash", DeleteRequest(entry=Entry("v1"))))

    def test_live_message_instances_classify_too(self):
        # binary connections decode to Message instances before dispatch
        env = _send("hash", LookupRequest(3))
        env["message"] = LookupRequest(3)
        assert not envelope_mutates(env)
        env["message"] = AddRequest(entry=Entry("zz"))
        assert envelope_mutates(env)

    def test_control_ops_never_mutate(self):
        for op in ("ping", "info", "verify", "membership", "hello", "batch"):
            assert not envelope_mutates({"op": op})

    def test_wire_envelope_reencodes_live_messages(self):
        env = _send("hash", LookupRequest(3))
        env["message"] = AddRequest(entry=Entry("zz"))
        wired = wire_envelope(env)
        assert isinstance(wired["message"], dict)
        assert env["message"].__class__ is AddRequest  # original untouched


class TestDeltaRoundTrip:
    def test_add_delta_converges_a_reader(self):
        writer = LookupService(CONFIG)
        reader = LookupService(CONFIG)
        reply, delta = compute_apply_delta(
            writer, _send("full_replication", AddRequest(entry=Entry("zz-new")))
        )
        assert reply["ok"] and delta is not None
        assert delta["key"] == "full_replication"
        apply_delta(reader, delta)
        for key in writer.strategies:
            assert _masks(reader, key) == _masks(writer, key)

    def test_delete_delta_converges_a_reader(self):
        writer = LookupService(CONFIG)
        reader = LookupService(CONFIG)
        _, delta = compute_apply_delta(
            writer, _send("full_replication", DeleteRequest(entry=Entry("v1")))
        )
        assert delta is not None
        apply_delta(reader, delta)
        assert _masks(reader, "full_replication") == _masks(
            writer, "full_replication"
        )

    def test_noop_mutation_yields_no_delta(self):
        writer = LookupService(CONFIG)
        # deleting an entry that is not there changes no store
        _, delta = compute_apply_delta(
            writer, _send("full_replication", DeleteRequest(entry=Entry("zz-nope")))
        )
        assert delta is None

    def test_lookup_yields_no_delta(self):
        writer = LookupService(CONFIG)
        reply, delta = compute_apply_delta(
            writer, _send("round_robin", LookupRequest(0))
        )
        assert reply["ok"] and delta is None

    def test_snapshot_round_trip(self):
        writer = LookupService(CONFIG)
        writer.handle_envelope(
            _send("full_replication", AddRequest(entry=Entry("zz-snap")))
        )
        reader = LookupService(CONFIG)
        load_snapshot(reader, snapshot_stores(writer))
        for key in writer.strategies:
            assert _masks(reader, key) == _masks(writer, key)

    def test_delta_application_invalidates_the_reply_cache(self):
        writer = LookupService(CONFIG)
        reader = LookupService(CONFIG)
        lookup = _send("full_replication", LookupRequest(0))
        reader.handle_envelope(dict(lookup))
        reader.handle_envelope(dict(lookup))
        assert reader.reply_cache.hits == 1
        _, delta = compute_apply_delta(
            writer, _send("full_replication", AddRequest(entry=Entry("zz-inv")))
        )
        apply_delta(reader, delta)
        after = reader.handle_envelope(dict(lookup))
        assert "zz-inv" in {e["id"] for e in after["value"]}


class TestDeltaApplierOrdering:
    def _delta(self, writer, epoch, entry_id):
        _, delta = compute_apply_delta(
            writer, _send("full_replication", AddRequest(entry=Entry(entry_id)))
        )
        delta["epoch"] = epoch
        return delta

    def test_in_order_application(self):
        writer = LookupService(CONFIG)
        reader = LookupService(CONFIG)
        applier = DeltaApplier(reader)
        for epoch in (1, 2, 3):
            delta = self._delta(writer, epoch, f"zz-{epoch}")
            assert applier.offer(delta) == "applied"
        assert applier.applied == 3
        assert _masks(reader, "full_replication") == _masks(
            writer, "full_replication"
        )

    def test_out_of_order_deltas_buffer_then_apply_in_epoch_order(self):
        writer = LookupService(CONFIG)
        reader = LookupService(CONFIG)
        applier = DeltaApplier(reader)
        d1 = self._delta(writer, 1, "zz-1")
        d2 = self._delta(writer, 2, "zz-2")
        d3 = self._delta(writer, 3, "zz-3")
        assert applier.offer(d3) == "buffered"
        assert applier.offer(d2) == "buffered"
        assert applier.applied == 0
        # the gap closes: 1 applies, then the buffered 2 and 3 drain
        assert applier.offer(d1) == "applied"
        assert applier.applied == 3
        assert _masks(reader, "full_replication") == _masks(
            writer, "full_replication"
        )

    def test_duplicate_delivery_is_dropped(self):
        # the forwarding reader gets its op's delta twice: once on the
        # fwd_reply, once (potentially) via broadcast
        writer = LookupService(CONFIG)
        reader = LookupService(CONFIG)
        applier = DeltaApplier(reader)
        d1 = self._delta(writer, 1, "zz-dup")
        assert applier.offer(d1) == "applied"
        assert applier.offer(d1) == "duplicate"
        assert applier.applied == 1

    def test_unbridgeable_gap_requests_resync(self):
        reader = LookupService(CONFIG)
        applier = DeltaApplier(reader)
        status = "buffered"
        for i in range(MAX_DELTA_BUFFER + 1):
            status = applier.offer(
                {"epoch": 1000 + i, "key": "hash", "servers": {}}
            )
        assert status == "resync"
        assert applier._pending == {}

    def test_resync_adopts_snapshot_and_watermark(self):
        writer = LookupService(CONFIG)
        writer.handle_envelope(
            _send("full_replication", AddRequest(entry=Entry("zz-sync")))
        )
        reader = LookupService(CONFIG)
        applier = DeltaApplier(reader)
        applier.offer({"epoch": 50, "key": "hash", "servers": {}})  # buffered
        applier.resync(41, snapshot_stores(writer))
        assert applier.applied == 41
        assert applier._pending == {}
        assert _masks(reader, "full_replication") == _masks(
            writer, "full_replication"
        )
        # epochs at or below the snapshot are now duplicates
        assert applier.offer({"epoch": 41, "key": "hash", "servers": {}}) == (
            "duplicate"
        )

    def test_malformed_epoch_requests_resync(self):
        applier = DeltaApplier(LookupService(CONFIG))
        assert applier.offer({"key": "hash", "servers": {}}) == "resync"


class TestWriterBusAndForwarder:
    """The real bus + forwarder pair over a Unix socket, in-process."""

    def _bus_path(self, tmp):
        return os.path.join(tmp, "bus.sock")

    def test_forwarded_mutation_reaches_writer_and_reader(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as tmp:
                writer_svc = LookupService(CONFIG)
                reader_svc = LookupService(CONFIG)
                bus = WriterBus(writer_svc, self._bus_path(tmp))
                await bus.start()
                fwd = WriteForwarder(reader_svc, self._bus_path(tmp))
                await fwd.start()
                try:
                    reply = await fwd.forward(
                        _send("full_replication", AddRequest(entry=Entry("zz-f")))
                    )
                    assert reply["ok"]
                    # read-your-writes: the reader converged before the
                    # forward() call returned
                    assert _masks(reader_svc, "full_replication") == _masks(
                        writer_svc, "full_replication"
                    )
                finally:
                    await fwd.stop()
                    await bus.stop()

        run(scenario())

    def test_broadcast_reaches_non_forwarding_readers(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as tmp:
                writer_svc = LookupService(CONFIG)
                reader_a = LookupService(CONFIG)
                reader_b = LookupService(CONFIG)
                bus = WriterBus(writer_svc, self._bus_path(tmp))
                await bus.start()
                fwd_a = WriteForwarder(reader_a, self._bus_path(tmp))
                fwd_b = WriteForwarder(reader_b, self._bus_path(tmp))
                await fwd_a.start()
                await fwd_b.start()
                try:
                    await fwd_a.forward(
                        _send("full_replication", AddRequest(entry=Entry("zz-b")))
                    )
                    # b hears about it via broadcast, asynchronously
                    deadline = asyncio.get_running_loop().time() + 5
                    while asyncio.get_running_loop().time() < deadline:
                        if _masks(reader_b, "full_replication") == _masks(
                            writer_svc, "full_replication"
                        ):
                            break
                        await asyncio.sleep(0.01)
                    assert _masks(reader_b, "full_replication") == _masks(
                        writer_svc, "full_replication"
                    )
                finally:
                    await fwd_a.stop()
                    await fwd_b.stop()
                    await bus.stop()

        run(scenario())

    def test_writers_own_mutations_fan_out_via_forward(self):
        # worker 0's service sets forwarder = bus: a mutation landing
        # on the writer itself must still reach every reader
        async def scenario():
            with tempfile.TemporaryDirectory() as tmp:
                writer_svc = LookupService(CONFIG)
                reader_svc = LookupService(CONFIG)
                bus = WriterBus(writer_svc, self._bus_path(tmp))
                await bus.start()
                writer_svc.forwarder = bus
                fwd = WriteForwarder(reader_svc, self._bus_path(tmp))
                await fwd.start()
                try:
                    reply = await writer_svc.handle_envelope_async(
                        _send("full_replication", AddRequest(entry=Entry("zz-w")))
                    )
                    assert reply["ok"]
                    deadline = asyncio.get_running_loop().time() + 5
                    while asyncio.get_running_loop().time() < deadline:
                        if _masks(reader_svc, "full_replication") == _masks(
                            writer_svc, "full_replication"
                        ):
                            break
                        await asyncio.sleep(0.01)
                    assert _masks(reader_svc, "full_replication") == _masks(
                        writer_svc, "full_replication"
                    )
                finally:
                    await fwd.stop()
                    await bus.stop()

        run(scenario())

    def test_reconnect_resyncs_missed_state(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as tmp:
                writer_svc = LookupService(CONFIG)
                bus = WriterBus(writer_svc, self._bus_path(tmp))
                await bus.start()
                # mutations happen while no reader is connected
                await bus.forward(
                    _send("full_replication", AddRequest(entry=Entry("zz-r1")))
                )
                await bus.forward(
                    _send("full_replication", AddRequest(entry=Entry("zz-r2")))
                )
                late = LookupService(CONFIG)
                fwd = WriteForwarder(late, self._bus_path(tmp))
                await fwd.start()  # sync-on-connect
                try:
                    assert fwd.applier.applied == bus.epoch
                    for key in writer_svc.strategies:
                        assert _masks(late, key) == _masks(writer_svc, key)
                finally:
                    await fwd.stop()
                    await bus.stop()

        run(scenario())

    def test_bus_loss_fires_on_fatal_and_fails_pending(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as tmp:
                writer_svc = LookupService(CONFIG)
                reader_svc = LookupService(CONFIG)
                bus = WriterBus(writer_svc, self._bus_path(tmp))
                await bus.start()
                fwd = WriteForwarder(reader_svc, self._bus_path(tmp))
                fatal = asyncio.Event()
                fwd.on_fatal = fatal.set
                await fwd.start()
                try:
                    await bus.stop()  # the writer dies
                    await asyncio.wait_for(fatal.wait(), timeout=5)
                finally:
                    await fwd.stop()

        run(scenario())


@pytest.mark.skipif(
    not reuseport_available(), reason="SO_REUSEPORT unavailable on this platform"
)
class TestFleetEndToEnd:
    def test_cli_fleet_serves_and_tears_down_cleanly(self):
        with tempfile.TemporaryDirectory() as tmp:
            ready = os.path.join(tmp, "ready")
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH", "")]
            )
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "serve",
                    "--workers",
                    "2",
                    "--port",
                    "0",
                    "--servers",
                    "6",
                    "--entries",
                    "10",
                    "--ready-file",
                    ready,
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=env,
            )
            try:
                deadline = time.time() + 30
                while time.time() < deadline and not (
                    os.path.exists(ready) and os.path.getsize(ready)
                ):
                    assert proc.poll() is None, proc.stdout.read()
                    time.sleep(0.1)
                host, port = open(ready).read().split()
                manifest = open(f"{ready}.workers").read().split()
                assert len(manifest) == 4  # two "index pid" lines
                call = subprocess.run(
                    [
                        sys.executable,
                        "-m",
                        "repro",
                        "call",
                        "round_robin",
                        "--host",
                        host,
                        "--port",
                        port,
                        "--target",
                        "5",
                        "--count",
                        "2",
                    ],
                    capture_output=True,
                    text=True,
                    env=env,
                    timeout=30,
                )
                assert call.returncode == 0, call.stdout + call.stderr
            finally:
                proc.send_signal(signal.SIGTERM)
                out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0, out
            assert "[serve] stopped" in out
            assert "Traceback" not in out

    def test_fleet_connections_set_tcp_nodelay(self):
        # The fleet runs with handle_connection wrapped (the workers
        # fork after the wrap) to record each accepted socket's
        # TCP_NODELAY; without it Nagle holds replies for a delayed ACK.
        script = (
            "import socket, sys\n"
            "from repro.net.service import LookupService\n"
            "serve = LookupService.handle_connection\n"
            "async def recording(self, reader, writer):\n"
            "    sock = writer.get_extra_info('socket')\n"
            "    flag = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)\n"
            "    with open(sys.argv[1], 'a') as handle:\n"
            "        handle.write(f'{flag}\\n')\n"
            "    await serve(self, reader, writer)\n"
            "LookupService.handle_connection = recording\n"
            "from repro.experiments.cli import main\n"
            "sys.exit(main(sys.argv[2:]))\n"
        )
        with tempfile.TemporaryDirectory() as tmp:
            ready = os.path.join(tmp, "ready")
            flags = os.path.join(tmp, "nodelay")
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH", "")]
            )
            proc = subprocess.Popen(
                [
                    sys.executable, "-c", script, flags,
                    "serve", "--workers", "2", "--port", "0",
                    "--servers", "6", "--entries", "10", "--ready-file", ready,
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=env,
            )

            async def pings(host, port):
                for _ in range(4):
                    reader, writer = await asyncio.open_connection(host, port)
                    await write_frame(writer, {"op": "ping"})
                    assert (await asyncio.wait_for(read_frame(reader), 10))["ok"]
                    writer.close()
                    await writer.wait_closed()

            try:
                deadline = time.time() + 30
                while not (os.path.exists(ready) and os.path.getsize(ready)):
                    assert proc.poll() is None, proc.stdout.read()
                    assert time.time() < deadline
                    time.sleep(0.05)
                host, port = open(ready).read().split()
                run(pings(host, int(port)))
            finally:
                proc.send_signal(signal.SIGTERM)
                out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0, out
            with open(flags, encoding="utf-8") as handle:
                recorded = handle.read().split()
            assert len(recorded) == 4
            assert all(flag == "1" for flag in recorded), recorded

    def test_workers_reject_peers(self):
        from repro.core.exceptions import InvalidParameterError
        from repro.net.cli import cmd_serve

        import argparse

        args = argparse.Namespace(
            workers=2,
            peers="s1=127.0.0.1:1",
            host="127.0.0.1",
            port=0,
            servers=4,
            entries=8,
            seed=0,
            shard="0/1",
            replicas=2,
            backup_fraction=0.25,
            probes=21,
            cache_size=64,
            no_cache=False,
            ready_file=None,
            uvloop=False,
        )
        with pytest.raises(InvalidParameterError, match="--peers"):
            cmd_serve(args)


# --------------------------------------------------------------------------
# Warm respawn: the shared cache + hot-set handoff, end to end
# --------------------------------------------------------------------------


HOT_LOOKUP = {
    "op": "send",
    "server": 0,
    "key": "full_replication",
    "message": encode_message(LookupRequest(0)),
}


async def _hello_binary(host, port):
    """One fresh connection negotiated onto the binary codec."""
    reader, writer = await asyncio.open_connection(host, port)
    await write_frame(writer, {"op": "hello", "codecs": ["binary", "json"]})
    reply = await asyncio.wait_for(read_frame(reader), 10)
    assert reply["ok"] and reply["value"]["codec"] == "binary", reply
    return reader, writer


async def _binary_request_raw(reader, writer, envelope):
    """Send one binary envelope; return the raw reply frame bytes."""
    await write_frame(writer, dict(envelope), codec=CODEC_BINARY)
    header = await asyncio.wait_for(reader.readexactly(4), 10)
    (length,) = struct.unpack(">I", header)
    return header + await asyncio.wait_for(reader.readexactly(length), 10)


async def _probe(host, port):
    """Hot lookup then capabilities on one fresh binary connection.

    Returns ``(raw reply bytes, capabilities dict)`` — the lookup goes
    first so the capabilities counters include it and nothing else.
    """
    reader, writer = await _hello_binary(host, port)
    try:
        raw = await _binary_request_raw(reader, writer, HOT_LOOKUP)
        info_raw = await _binary_request_raw(reader, writer, {"op": "info"})
        info = decode_envelope_binary(info_raw[4:])["value"]
        return raw, info["capabilities"]
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _manifest(path):
    pids = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            index, pid = line.split()
            pids[int(index)] = int(pid)
    return pids


class TestWarmRespawn:
    def test_respawned_reader_serves_hot_key_warm(self):
        """SIGKILL a reader mid-fleet: its replacement must answer the
        previously-hot key as a cache hit — no cold miss — and
        byte-identically to the pre-kill replies, because the writer
        shipped its hot set (stamped with bus epochs) over the sync
        handshake and the shared segment survived the kill."""
        with tempfile.TemporaryDirectory() as tmp:
            ready = os.path.join(tmp, "ready")
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH", "")]
            )
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--workers", "2", "--port", "0",
                    "--servers", "6", "--entries", "10",
                    "--ready-file", ready,
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=env,
            )
            try:
                deadline = time.time() + 30
                while time.time() < deadline and not (
                    os.path.exists(ready) and os.path.getsize(ready)
                ):
                    assert proc.poll() is None, proc.stdout.read()
                    time.sleep(0.1)
                host, port = open(ready).read().split()
                port = int(port)

                async def scenario():
                    # Warm every worker's cache: fresh connections land
                    # on either worker; keep probing until both have
                    # served the hot lookup at least once.  The writer
                    # (index 0) matters most — its hot set is what the
                    # respawned reader will be handed.
                    baselines = {}
                    for _ in range(60):
                        raw, caps = await _probe(host, port)
                        index = caps["workers"]["index"]
                        if index in baselines:
                            assert baselines[index] == raw
                        baselines[index] = raw
                        if {0, 1} <= set(baselines):
                            break
                    assert {0, 1} <= set(baselines), (
                        f"probes only reached workers {sorted(baselines)}"
                    )
                    # Both workers answer byte-identically already.
                    assert baselines[0] == baselines[1]
                    return baselines[0]

                baseline = asyncio.run(asyncio.wait_for(scenario(), 60))

                victims = _manifest(f"{ready}.workers")
                os.kill(victims[1], signal.SIGKILL)
                deadline = time.time() + 30
                while time.time() < deadline:
                    assert proc.poll() is None, "fleet died after reader kill"
                    fresh = _manifest(f"{ready}.workers")
                    if fresh.get(1) and fresh[1] != victims[1]:
                        break
                    time.sleep(0.1)
                else:
                    raise AssertionError("reader was never respawned")

                async def after():
                    for _ in range(60):
                        raw, caps = await _probe(host, port)
                        if caps["workers"]["index"] != 1:
                            continue  # landed on the writer; try again
                        cache = caps["cache"]
                        # Its *first* lookup (ours) was a hit: the hot
                        # set arrived before the first connection.
                        assert cache["hits"] >= 1, cache
                        assert cache["misses"] == 0, cache
                        assert raw == baseline
                        return
                    raise AssertionError(
                        "probes never reached the respawned reader"
                    )

                asyncio.run(asyncio.wait_for(after(), 60))
            finally:
                proc.send_signal(signal.SIGTERM)
                out, _ = proc.communicate(timeout=30)
            assert "Traceback" not in out, out
