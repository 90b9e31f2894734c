"""One benchmark pass: set-up, measured rounds, recovery, teardown.

A pass boots the service twice (a probe of the early-SIGTERM defect,
then the measured service), runs :data:`WARM_UP` seconds of untimed
open loop, then runs :data:`ROUNDS` rounds.  A round is the open loop,
then the capacity phase, then the probe set (and, on the lookup
workloads, an add/delete stream).  Every :data:`SPARE_EVERY` rounds a
spare service is booted for one more set-up sample, and every
:data:`CRASH_EVERY` rounds the service is SIGKILLed and restarted over
the same data; the probes must come back byte-identical.  Short rounds
spread every phase over the whole run, so a few slow seconds of the
host, or one slow service process, move a median of many samples less
than they would move one long phase.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import random
import selectors
import shutil
import statistics
import time
from typing import Any, Awaitable, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import spans
from fleet import BenchError, Serve
from load import (
    check_capacity,
    fetch_stores,
    percentile,
    pinned,
    pinned_clients,
    run_open_loop,
    send_frame,
)
from workloads import SERVERS, Inputs, Workload, added_ids

from repro.cluster.messages import LookupRequest

#: Seconds of untimed open loop before the first round.
WARM_UP = 1.0
ROUNDS = 16
#: Every second round ends in a crash and restart (a recovery_s sample).
CRASH_EVERY = 2
#: Every fourth round boots a spare service (a setup_s sample).
SPARE_EVERY = 4
#: Latency samples per percentile chunk: a p99 needs 1000; a p50 needs
#: far fewer, and short chunks let the median skip the host's slow
#: seconds.
CHUNK = {0.50: 200, 0.99: 1000}
#: Distinct pre-encoded frames per capacity connection and round; the
#: pipeline cycles through them.
CAPACITY_FRAMES = {"send": 2048, "batch": 256}
#: Seconds per capacity sample: the host's speed drifts over a second
#: or two, so capacity is the median of many short samples spread over
#: every round, not one figure per round.
CAPACITY_TICK = 0.2
#: Frames each capacity connection keeps outstanding.
WINDOW = {"send": 64, "batch": 8}
#: A generator whose lateness p99 exceeds this fell behind its schedule.
LATE_LIMIT_MS = 1.0
SCHEMES = ("fixed", "full_replication", "hash", "random_server", "round_robin")
ERROR_CODES = ("bad-request", "internal", "unavailable", "dropped")

Report = Dict[str, Tuple[float, str, int]]


class Bench:
    """One workload at one seed; counts every op attempted and failed."""

    def __init__(self, root: str, workload: Workload, seed: int, rundir: str) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.rundir = rundir
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def run(self, seconds: float, traced: bool) -> Dict[str, Any]:
        # select() wakes with microsecond timeouts; epoll rounds every
        # timeout up to a millisecond, which open-loop timing would show.
        runner = asyncio.Runner(loop_factory=lambda: asyncio.SelectorEventLoop(selectors.SelectSelector()))
        with runner:
            return runner.run(self._run(seconds, traced))

    def _count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    async def _run(self, seconds: float, traced: bool) -> Dict[str, Any]:
        w = self.workload
        passdir = os.path.join(self.rundir, "traced" if traced else "plain")
        spans_dir = os.path.join(passdir, "spans") if traced else None
        os.makedirs(spans_dir or passdir)
        os.makedirs(os.path.join(passdir, "setup"))

        def flags(data: str) -> List[str]:
            out = ["--servers", str(SERVERS), "--entries", str(w.entries), "--seed", str(self.seed)]
            if w.workers > 1:
                out += ["--workers", str(w.workers)]
            out += ["--store", w.store]
            if w.store == "log":
                out += ["--data-dir", data, "--log-compact-records", str(w.compact_records)]
            return out

        def spare(index: int) -> Serve:
            """A set-up boot in its own directory, beside the measured service."""
            return Serve(self.root, os.path.join(passdir, "setup"), flags(f"data{index}"), workers=w.workers, spans_dir=spans_dir)

        self._setup_boots: List[float] = []
        self._spare = spare
        # The teardown check waits for the SIGTERM handler; this boot
        # shows what a SIGTERM before it does.
        probe_boot = spare(-1)
        try:
            self._setup_boots.append(probe_boot.boot())
            early_sigterm = probe_boot.terminate_at_ready()
        except BaseException:
            probe_boot.abort()
            raise
        shutil.rmtree(os.path.join(probe_boot.rundir, "data-1"), ignore_errors=True)
        serve = Serve(self.root, passdir, flags("data"), workers=w.workers, spans_dir=spans_dir)
        try:
            self._setup_boots.append(serve.boot())
            out = await self._drive(serve, seconds, traced)
        except BaseException:
            serve.abort()
            raise
        out["setup_s"] = self._setup_boots
        out["early_sigterm"] = early_sigterm
        return out

    async def _setup_sample(self, index: int) -> None:
        """One more ``setup_s`` sample: boot a fresh service on fresh
        data, reach it, kill it.  One every :data:`SPARE_EVERY` rounds
        spreads the samples over the run, as the host's speed drifts;
        the measured service's stop is the clean-teardown check."""
        serve = self._spare(index)
        try:
            self._setup_boots.append(serve.boot())
            for conn in await pinned(serve.address, ("json",), 1):
                conn.close()
        finally:
            serve.abort()
        shutil.rmtree(os.path.join(serve.rundir, f"data{index}"), ignore_errors=True)

    async def _drive(self, serve: Serve, seconds: float, traced: bool) -> Dict[str, Any]:
        w = self.workload
        out: Dict[str, Any] = {"rounds": [], "windows": [], "restarts": [], "recovery_s": []}
        conns = await pinned(serve.address, w.codecs, w.workers)
        out["topology"] = [(c.worker, c.role, c.codec) for c in conns]
        if w.workers > 1 and {c.role for c in conns} != {"writer", "reader"}:
            raise BenchError(f"connections do not cover writer and reader: {out['topology']}")
        stores = await fetch_stores(conns[0], SCHEMES, SERVERS)
        placed = {f"v{i}" for i in range(1, w.entries + 1)}
        for scheme, per_server in stores.items():
            if not set().union(*per_server) <= placed:
                raise BenchError(f"{scheme} holds entries outside v1..v{w.entries}")
        clients = await pinned_clients(serve.address, w.codecs, w.workers)
        info = await clients[0].info()
        for client in clients:
            await client.close()
        inputs = Inputs(self.seed, stores, {k: (s.order, s.max_servers) for k, s in info.schemes.items()})
        s_open, s_cap, s_mut = (seconds * share for share in w.shares)
        rng = random.Random(f"{self.seed}/sessions")
        recorder = spans.Recorder()
        probes = inputs.probes()
        await self._warm_up(serve, inputs, placed, rng)

        for round_ in range(ROUNDS):
            ops = inputs.open_loop(w, s_open / ROUNDS, round_)
            result = await self._open_loop(serve, conns, ops, placed | added_ids(ops), rng, recorder, traced, out, round_)
            # Mutations reach the other worker asynchronously; capacity
            # is checked against stores every worker agrees on.
            if w.mix == "mixed":
                inputs.stores = stores = await settled_stores(conns)
            capacity = await self._capacity(serve, conns, inputs, round_, s_cap / ROUNDS, stores, traced, out)
            out["rounds"].append({"open_loop": result, "capacity": capacity, "rss_mb": serve.peak_rss_mb()})

            if round_ % CRASH_EVERY != CRASH_EVERY - 1:
                continue
            # Crash and recover: the probe set must come back byte-identical.
            # A memory store keeps no mutation across a crash, and an add
            # and its delete need not restore every store (RandomServer
            # evicts an entry to make room and a delete does not bring it
            # back), so the lookup workloads' add/delete stream runs after
            # the probe, and only in a round that ends in a crash.
            before = await probe(conns, probes)
            if s_mut > 0:
                ops = inputs.mutation_phase(len(w.codecs), s_mut * CRASH_EVERY / ROUNDS, round_)
                result = await self._open_loop(serve, conns, ops, placed | added_ids(ops), rng, recorder, traced, out, round_)
                out["rounds"][-1]["mutation_phase"] = result
            if round_ % SPARE_EVERY == SPARE_EVERY - 1:
                await self._setup_sample(round_)
            for conn in conns:
                conn.close()
            if traced:
                out["restarts"].append(restart_dumps(serve))
            serve.kill()
            out["recovery_s"].append(serve.boot())
            conns = await pinned(serve.address, w.codecs, w.workers)
            if await probe(conns, probes) != before:
                raise BenchError(f"probe replies changed across the crash after round {round_ + 1}")
            if await fetch_stores(conns[0], SCHEMES, SERVERS) != stores:
                raise BenchError(f"stores changed across the crash after round {round_ + 1}")
        size, sends = out.pop("replies")
        out["reply_bytes"] = size / max(1, sends)

        for conn in conns:
            conn.close()
        if traced:
            out["restarts"].append(restart_dumps(serve))
        serve.stop()
        out["client"] = recorder.snapshot()
        return out

    async def _measured(self, serve: Serve, conns: Sequence[Any], traced: bool, phase: Callable[[], Awaitable[Any]]) -> Tuple[Any, Dict[str, Any]]:
        """Run ``phase`` between two snapshots of the service's CPU,
        capabilities and (traced) span totals."""
        window = {"caps0": [await conn.info() for conn in conns]}
        window["dumps0"] = serve.dump_spans() if traced else None
        window["cpu0"] = serve.cpu_seconds()
        gen0 = time.process_time()
        with quiet_gc():
            result = await phase()
        window["gen_cpu"] = time.process_time() - gen0
        window["cpu1"] = serve.cpu_seconds()
        window["dumps1"] = serve.dump_spans() if traced else None
        window["caps1"] = [await conn.info() for conn in conns]
        return result, window

    async def _open_loop(self, serve: Serve, conns: Sequence[Any], ops: Sequence[Any], allowed: set, rng: random.Random, recorder: spans.Recorder, traced: bool, out: Dict[str, Any], round_: int) -> Any:
        w = self.workload
        clients = await pinned_clients(serve.address, w.codecs, w.workers)
        undo = spans.install_client(recorder) if traced else None
        try:
            result, window = await self._measured(serve, conns, traced, lambda: run_open_loop(clients, ops, allowed, rng))
        finally:
            if undo is not None:
                undo()
            for client in clients:
                await client.close()
        window.update(kind="open", round=round_, ops=result.attempted, lookups=len(result.lookup_ms), mutations=len(result.mutate_ms))
        out["windows"].append(window)
        self._count(result.attempted, result.failed)
        self.errors.extend(result.errors)
        return result

    async def _warm_up(self, serve: Serve, inputs: Inputs, placed: set, rng: random.Random) -> None:
        """An untimed open loop: the first round then finds the service's
        and the generator's code paths and caches warm.  Its answers are
        checked and its ops counted."""
        w = self.workload
        ops = inputs.open_loop(w, WARM_UP, -1)
        clients = await pinned_clients(serve.address, w.codecs, w.workers)
        try:
            result = await run_open_loop(clients, ops, placed | added_ids(ops), rng)
        finally:
            for client in clients:
                await client.close()
        self._count(result.attempted, result.failed)
        self.errors.extend(result.errors)

    async def _capacity(self, serve: Serve, conns: Sequence[Any], inputs: Inputs, round_: int, seconds: float, stores: Dict[str, List[List[str]]], traced: bool, out: Dict[str, Any]) -> List[float]:
        """The closed loop on the workload's capacity connections; the
        sends/s of each :data:`CAPACITY_TICK` of it."""
        w = self.workload
        chosen = [conns[i] for i in w.capacity_conns]
        plans = [inputs.capacity(w, c.codec, i, round_, CAPACITY_FRAMES[w.capacity]) for i, c in zip(w.capacity_conns, chosen)]
        per_frame = len(plans[0].sends[0])
        loop = asyncio.get_running_loop()

        async def phase() -> Tuple[List[float], List[List[bytes]]]:
            for conn, plan in zip(chosen, plans):
                conn.start_pipeline(plan.frames, WINDOW[w.capacity])
            rates = []
            mark, count = loop.time(), 0
            for _ in range(max(1, round(seconds / CAPACITY_TICK))):
                await asyncio.sleep(CAPACITY_TICK)
                now, replies = loop.time(), sum(len(c.bodies) for c in chosen)
                rates.append((replies - count) * per_frame / (now - mark))
                mark, count = now, replies
            return rates, [await c.stop_pipeline() for c in chosen]

        (rates, bodies), window = await self._measured(serve, conns, traced, phase)
        # The window also covers the replies drained after the clock.
        served = sum(map(len, bodies)) * per_frame
        window.update(kind="capacity", round=round_, ops=served, lookups=served, mutations=0)
        out["windows"].append(window)
        for kept, plan in zip(bodies, plans):
            checked, failed, size = check_capacity(kept, plan, stores)
            self._count(checked, failed)
            total = out.setdefault("replies", [0, 0])
            total[0] += size
            total[1] += checked
        return rates


@contextlib.contextmanager
def quiet_gc() -> Iterator[None]:
    """No cyclic collection in the generator while it measures: a full
    collection stalls the loop for milliseconds, which open-loop timing
    would charge to the service.  The service's own collector runs."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


async def probe(conns: Sequence[Any], probes: Sequence[Tuple[str, int]]) -> List[List[bytes]]:
    """Raw reply bodies of the probe set's whole-store lookups, per connection."""
    out = []
    for conn in conns:
        frames = [send_frame(conn.codec, server, scheme, LookupRequest(0)) for scheme, server in probes]
        out.append(list(await conn.requests(frames)))
    return out


def restart_dumps(serve: Serve) -> List[Dict[str, Any]]:
    """Span totals of every service process over its lifetime.  A
    worker that fell back to a full-snapshot resync instead of the
    journal's incremental sync-since path fails the run."""
    dumps = serve.dump_spans()
    resyncs = sum(d["spans"].get("bus.resync", [0])[0] for d in dumps)
    if resyncs:
        raise BenchError(f"{resyncs} full-snapshot resyncs on the worker bus")
    return dumps


async def settled_stores(conns: Sequence[Any], timeout: float = 10.0) -> Dict[str, List[List[str]]]:
    """The stores, once every connection's worker reports the same."""
    deadline = time.perf_counter() + timeout
    while True:
        views = [await fetch_stores(conn, SCHEMES, SERVERS) for conn in conns]
        if all(view == views[0] for view in views[1:]):
            return views[0]
        if time.perf_counter() > deadline:
            raise BenchError("workers never converged on one store state")
        await asyncio.sleep(0.05)


# --------------------------------------------------------------------------
# Reports: name -> (value, unit, samples)
# --------------------------------------------------------------------------


def _chunked_percentile(rounds: Sequence[Sequence[float]], q: float) -> float:
    """Median over consecutive chunks of :data:`CHUNK` samples (rounds
    in order, each in completion order) of each chunk's percentile.  A
    stall or a slow process then moves one chunk, not the median.  A
    short tail joins the last chunk."""
    samples = [x for round_ in rounds for x in round_]
    size = CHUNK[q]
    cuts = list(range(0, len(samples), size))
    if len(cuts) > 1 and len(samples) - cuts[-1] < size:
        cuts.pop()
    return statistics.median(percentile(samples[a:b], q) for a, b in zip(cuts, cuts[1:] + [len(samples)]))


def end_to_end(m: Dict[str, Any]) -> Report:
    rounds = m["rounds"]
    lookup = [r["open_loop"].lookup_ms for r in rounds]
    mutate = [r["open_loop"].mutate_ms + (r["mutation_phase"].mutate_ms if "mutation_phase" in r else []) for r in rounds]
    contacts = [x for r in rounds for x in r["open_loop"].contacts]
    capacity = [x for r in rounds for x in r["capacity"]]
    # Server CPU per op at the workload's fixed offered load: the
    # open-loop phases of each crash cycle (its rounds' open loops and
    # its add/delete stream), the median over cycles.  The capacity
    # phase is left out, or its share of the ops would swing the figure
    # with the host's speed.
    per_round: Dict[int, List[float]] = {}
    for w in m["windows"]:
        if w["kind"] == "open":
            slot = per_round.setdefault(w["round"] // CRASH_EVERY, [0.0, 0])
            slot[0] += w["cpu1"] - w["cpu0"]
            slot[1] += w["ops"]
    ops = sum(n for _, n in per_round.values())
    n_lookup, n_mutate = sum(map(len, lookup)), sum(map(len, mutate))
    return {
        "setup_s": (statistics.median(m["setup_s"]), "s", len(m["setup_s"])),
        "lookup_p50_ms": (_chunked_percentile(lookup, 0.50), "ms", n_lookup),
        "capacity_sends_per_s": (statistics.median(capacity), "1/s", len(capacity)),
        "mutate_p50_ms": (_chunked_percentile(mutate, 0.50), "ms", n_mutate),
        "recovery_s": (statistics.median(m["recovery_s"]), "s", len(m["recovery_s"])),
        "servers_per_lookup": (sum(contacts) / max(1, len(contacts)), "count", len(contacts)),
        "server_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB", len(rounds)),
        "server_cpu_us_per_op": (statistics.median(c / n * 1e6 for c, n in per_round.values()), "us", ops),
    }


def tails(m: Dict[str, Any]) -> Report:
    """The p99 latencies.  Host stalls on a shared box swing them by more
    than any bound allows, so they are reported, not gated."""
    rounds = m["rounds"]
    lookup = [r["open_loop"].lookup_ms for r in rounds]
    mutate = [r["open_loop"].mutate_ms + (r["mutation_phase"].mutate_ms if "mutation_phase" in r else []) for r in rounds]
    return {
        "tail.lookup_p99_ms": (_chunked_percentile(lookup, 0.99), "ms", sum(map(len, lookup))),
        "tail.mutate_p99_ms": (_chunked_percentile(mutate, 0.99), "ms", sum(map(len, mutate))),
    }


def generator_health(m: Dict[str, Any]) -> Report:
    loops = [r["open_loop"] for r in m["rounds"]] + [r["mutation_phase"] for r in m["rounds"] if "mutation_phase" in r]
    late = [x for result in loops for x in result.late_ms]
    windows = m["windows"]
    ops = sum(w["ops"] for w in windows)
    return {
        "gen.late_p99_ms": (percentile(late, 0.99), "ms", len(late)),
        "gen.cpu_us_per_op": (sum(w["gen_cpu"] for w in windows) / max(1, ops) * 1e6, "us", ops),
    }


def _delta(after: Dict[str, Any], before: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """One process's span totals accumulated between two dumps."""
    zero = {"spans": {}, "counts": {}, "lookup_messages": 0}
    before = before or zero
    return {
        "spans": {
            name: [a - b for a, b in zip(slot, before["spans"].get(name, [0, 0, 0, 0]))]
            for name, slot in after["spans"].items()
        },
        "counts": {name: value - before["counts"].get(name, 0) for name, value in after["counts"].items()},
        "lookup_messages": after["lookup_messages"] - before["lookup_messages"],
    }


def _merge(deltas: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    spans_: Dict[str, List[int]] = {}
    counts: Dict[str, int] = {}
    messages = 0
    for delta in deltas:
        for name, slot in delta["spans"].items():
            spans_[name] = [a + b for a, b in zip(spans_.get(name, [0, 0, 0, 0]), slot)]
        for name, value in delta["counts"].items():
            counts[name] = counts.get(name, 0) + value
        messages += delta["lookup_messages"]
    return {"spans": spans_, "counts": counts, "lookup_messages": messages}


def _caps_delta(windows: Sequence[Dict[str, Any]], path: Sequence[str], field: str) -> int:
    """Sum over windows and workers of one ``info.capabilities`` counter."""
    total = 0
    for window in windows:
        for before, after in zip(window["caps0"], window["caps1"]):
            a, b = after["capabilities"], before["capabilities"]
            for step in path:
                a, b = a.get(step, {}), b.get(step, {})
            total += a.get(field, 0) - b.get(field, 0)
    return total


def per_layer(m: Dict[str, Any]) -> Report:
    """The per-layer metrics of one traced pass."""
    windows = m["windows"]
    deltas = []
    open_deltas = []
    for window in windows:
        before = {d["pid"]: d for d in window["dumps0"]}
        window_deltas = [_delta(d, before.get(d["pid"])) for d in window["dumps1"]]
        deltas.extend(window_deltas)
        if window["kind"] == "open":
            open_deltas.extend(window_deltas)
    server = _merge(deltas)
    booted = _merge([_delta(d, None) for dumps in m["restarts"] for d in dumps])["spans"]
    client = m["client"]["spans"]
    spans_ = server["spans"]
    counts = server["counts"]
    report: Report = {}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def mean(name: str, source: Dict[str, List[int]], names: Sequence[str], unit: str = "us", scale: float = 1e-3) -> int:
        calls = sum(source.get(n, [0, 0])[0] for n in names)
        total = sum(source.get(n, [0, 0])[1] for n in names)
        report[name] = (ratio(total, calls) * scale, unit, calls)
        return calls

    lookups = sum(len(r["open_loop"].lookup_ms) for r in m["rounds"])
    lookup_ops = sum(w["lookups"] for w in windows)
    mutations = sum(w["mutations"] for w in windows)
    session = client.get("client.session", [0, 0, 0, 0])
    dispatch = spans_.get("service.dispatch", [0, 0, 0, 0])
    batch = spans_.get("service.batch", [0, 0, 0, 0])

    report["client.session_us"] = (ratio(session[2], lookups) * 1e-3, "us", lookups)
    mean("client.contact_us", client, ["client.contact"])
    report.update(generator_health(m))
    mean("codec.decode_us.binary", spans_, ["codec.decode.binary"])
    mean("codec.decode_us.json", spans_, ["codec.decode.json"])
    mean("codec.encode_us", spans_, ["codec.encode"])
    mean("codec.pack_us", spans_, ["codec.pack"])
    report["codec.reply_bytes"] = (m["reply_bytes"], "B", lookup_ops)
    report["service.dispatch_self_us"] = (ratio(dispatch[2], dispatch[0]) * 1e-3, "us", dispatch[0])
    report["service.batch_us_per_sub"] = (ratio(batch[1], batch[0]) * 1e-3, "us", batch[0])
    for code in ERROR_CODES:
        report[f"service.errors.{code}"] = (counts.get(f"service.errors.{code}", 0), "count", dispatch[0])
    for name, path in (("cache.hit_ratio", ["cache"]), ("cache.shared_hit_ratio", ["cache", "shared"])):
        hits = _caps_delta(windows, path, "hits")
        looked = hits + _caps_delta(windows, path, "misses")
        report[name] = (ratio(hits, looked), "ratio", looked)
    invalidations = _caps_delta(windows, ["cache"], "invalidations")
    report["cache.invalidations_per_mutation"] = (ratio(invalidations, mutations), "count", mutations)
    mean("cache.get_us", spans_, ["cache.get.local", "cache.get.shared"])
    mean("network.send_us", spans_, ["network.send.lookup"])
    mean("storage.sample_us", spans_, ["storage.sample"])
    report["network.lookup_messages_per_op"] = (ratio(server["lookup_messages"], lookup_ops), "count", lookup_ops)
    mean("journal.append_us", spans_, ["journal.append"])
    report["journal.records_per_mutation"] = (ratio(counts.get("journal.records", 0), mutations), "count", mutations)
    report["journal.bytes_per_mutation"] = (ratio(counts.get("journal.bytes", 0), mutations), "B", mutations)
    mean("journal.load_s", booted, ["journal.load"], "s", 1e-9)
    report["journal.compactions"] = (spans_.get("journal.compact", [0])[0], "count", mutations)
    mean("bus.forward_us", spans_, ["bus.forward"])
    deltas_applied = mean("bus.apply_delta_us", spans_, ["bus.apply_delta"])
    report["bus.deltas"] = (deltas_applied, "count", mutations)
    report["bus.resyncs"] = (booted.get("bus.resync", [0])[0], "count", len(m["restarts"]))
    # Root spans are the service's top-level work.  A reader's dispatch
    # of a forwarded mutation waits on the writer, which is not its CPU.
    # Counted over the open-loop phases, the CPU server_cpu_us_per_op
    # divides.
    opened = _merge(open_deltas)["spans"]
    root = sum(slot[3] for slot in opened.values()) - opened.get("bus.forward", [0, 0])[1]
    cpu = sum(w["cpu1"] - w["cpu0"] for w in windows if w["kind"] == "open")
    open_ops = sum(w["ops"] for w in windows if w["kind"] == "open")
    report["trace.span_cpu_share"] = (ratio(root * 1e-9, cpu), "ratio", open_ops)
    return report
