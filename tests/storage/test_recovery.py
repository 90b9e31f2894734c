"""Service-level crash recovery: a --store log service becomes its former self."""

import random

import pytest

from repro.cluster.messages import AddRequest, DeleteRequest, LookupRequest
from repro.core.entry import Entry
from repro.core.exceptions import InvalidParameterError
from repro.net.codec import encode_message
from repro.net.service import LookupService, ServiceConfig


def _config(tmp_path, **overrides):
    base = dict(
        server_count=8,
        entry_count=12,
        seed=3,
        store="log",
        data_dir=str(tmp_path),
    )
    base.update(overrides)
    return ServiceConfig(**base)


def _send(key, message, server=0):
    return {
        "op": "send",
        "server": server,
        "key": key,
        "message": encode_message(message),
    }


def _masks(service, key):
    return [server.store(key).mask for server in service.cluster.servers]


def _mutate(service):
    assert service.handle_envelope(
        _send("full_replication", AddRequest(entry=Entry("w1")))
    )["ok"]
    assert service.handle_envelope(
        _send("full_replication", DeleteRequest(entry=Entry("v2")))
    )["ok"]
    assert service.handle_envelope(_send("hash", AddRequest(entry=Entry("w2"))))["ok"]


class TestConfigValidation:
    def test_log_store_requires_a_data_dir(self):
        with pytest.raises(InvalidParameterError):
            ServiceConfig(store="log")

    def test_unknown_store_is_rejected(self):
        with pytest.raises(InvalidParameterError):
            ServiceConfig(store="clay-tablet")

    def test_memory_store_never_opens_a_journal(self):
        service = LookupService(ServiceConfig(server_count=4, entry_count=6))
        assert service.journal is None
        assert not service.recovered


class TestCrashRecovery:
    def test_recovery_rebuilds_every_store_bit_identically(self, tmp_path):
        crashed = LookupService(_config(tmp_path))
        _mutate(crashed)
        crashed.journal.close()  # the process "dies"; no shutdown logic runs

        reborn = LookupService(_config(tmp_path))
        assert reborn.recovered
        for key in crashed.strategies:
            assert _masks(reborn, key) == _masks(crashed, key)
            for sid in range(crashed.cluster.size):
                a = crashed.cluster.server(sid).store(key)
                b = reborn.cluster.server(sid).store(key)
                assert b.as_list() == a.as_list()
                assert b.indices() == a.indices()

    def test_recovered_rng_resumes_the_exact_stream(self, tmp_path):
        crashed = LookupService(_config(tmp_path))
        _mutate(crashed)
        expected = crashed.cluster.rng.getstate()
        crashed.journal.close()
        reborn = LookupService(_config(tmp_path))
        assert reborn.cluster.rng.getstate() == expected

    def test_full_store_replies_are_identical(self, tmp_path):
        crashed = LookupService(_config(tmp_path))
        _mutate(crashed)
        control = {
            key: [
                crashed.handle_envelope(_send(key, LookupRequest(0), server=sid))
                for sid in range(crashed.cluster.size)
            ]
            for key in sorted(crashed.strategies)
        }
        crashed.journal.close()
        reborn = LookupService(_config(tmp_path))
        for key, replies in control.items():
            for sid, expected in enumerate(replies):
                got = reborn.handle_envelope(_send(key, LookupRequest(0), server=sid))
                assert got == expected

    def test_sampled_lookup_after_mutation_is_byte_identical(self, tmp_path):
        # The RNG is journaled at every mutation sync point, so a
        # sampled (RNG-consuming) lookup right after the last mutation
        # answers identically on the recovered twin.
        crashed = LookupService(_config(tmp_path))
        _mutate(crashed)
        crashed.journal.close()
        reborn = LookupService(_config(tmp_path))
        probe = _send("random_server", LookupRequest(5), server=2)
        assert reborn.handle_envelope(probe) == crashed.handle_envelope(probe)

    def test_hash_params_survive_recovery(self, tmp_path):
        crashed = LookupService(_config(tmp_path))
        params = crashed.strategies["hash"].params()
        _mutate(crashed)
        crashed.journal.close()
        reborn = LookupService(_config(tmp_path))
        assert reborn.strategies["hash"].params() == params

    def test_fresh_boot_is_not_recovered(self, tmp_path):
        service = LookupService(_config(tmp_path))
        assert not service.recovered
        assert service.recovered_epoch == 0

    def test_recovery_adopts_journaled_epochs(self, tmp_path):
        crashed = LookupService(_config(tmp_path))
        _mutate(crashed)
        crashed.journal.record_epoch("full_replication", 7)
        crashed.journal.record_epoch("hash", 4)
        crashed.journal.close()
        reborn = LookupService(_config(tmp_path))
        assert reborn.recovered_epoch == 7
        assert reborn.shared_epoch("full_replication") == 7
        assert reborn.shared_epoch("hash") == 4


class TestCompactionAndObservability:
    def test_recovery_after_compaction_is_identical(self, tmp_path):
        crashed = LookupService(_config(tmp_path))
        _mutate(crashed)
        crashed.compact_journal()
        assert crashed.handle_envelope(
            _send("full_replication", AddRequest(entry=Entry("w3")))
        )["ok"]
        crashed.journal.close()
        reborn = LookupService(_config(tmp_path))
        assert reborn.recovered
        for key in crashed.strategies:
            assert _masks(reborn, key) == _masks(crashed, key)

    def test_auto_compaction_triggers_from_the_threshold(self, tmp_path):
        service = LookupService(_config(tmp_path, log_compact_records=10))
        for n in range(8):
            service.handle_envelope(
                _send("full_replication", AddRequest(entry=Entry(f"w{n}")))
            )
        assert service.journal.compactions >= 1

    def test_restarts_below_the_threshold_still_compact(self, tmp_path):
        # Each life adds fewer records than the threshold; the records
        # replayed at boot must count, or the log grows without bound.
        threshold = 10
        config = _config(tmp_path, log_compact_records=threshold)
        compactions = []
        for life in range(12):
            service = LookupService(config)
            assert service.handle_envelope(
                _send("full_replication", AddRequest(entry=Entry(f"r{life}")))
            )["ok"]
            assert service.journal.log_records < threshold
            compactions.append(service.journal.compactions)
            service.journal.close()
        # The first life compacts its boot records; later ones must too.
        assert compactions[-1] > compactions[0]

    def test_capabilities_surface_the_backend(self, tmp_path):
        service = LookupService(_config(tmp_path))
        storage = service.capabilities()["storage"]
        assert storage["kind"] == "log"
        assert storage["data_dir"] == str(tmp_path)
        assert storage["recovered"] is False
        assert storage["log_records"] > 0  # boot records landed

    def test_memory_capabilities_say_memory(self):
        service = LookupService(ServiceConfig(server_count=4, entry_count=6))
        storage = service.capabilities()["storage"]
        assert storage == {"kind": "memory", "recovered": False}

    def test_metrics_mirror_the_journal(self, tmp_path):
        crashed = LookupService(_config(tmp_path))
        _mutate(crashed)
        crashed.journal.close()
        reborn = LookupService(_config(tmp_path))
        reborn.capabilities()  # an info probe publishes the gauges
        snapshot = reborn.metrics.snapshot()
        assert snapshot["storage_recovered"] == 1
        assert snapshot["storage_log_records"] > 0
        assert snapshot["storage_log_bytes"] > 0

    def test_read_only_service_recovers_but_never_writes(self, tmp_path):
        writer = LookupService(_config(tmp_path))
        _mutate(writer)
        writer.journal.close()
        reader = LookupService(_config(tmp_path, store_read_only=True))
        assert reader.recovered
        assert reader.journal.read_only
        before = sorted(p.name for p in tmp_path.iterdir())
        reader.handle_envelope(
            _send("full_replication", AddRequest(entry=Entry("w9")))
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == before
