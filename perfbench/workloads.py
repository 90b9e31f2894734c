"""The three workloads and the inputs each draws from its seed.

Every rate here is a constant, set below the open-loop knee measured at
the commit that introduced the benchmark (see README.md); no rate is
derived at run time from the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from load import CapacityFrames, Op, batch_frame, send_frame

from repro.cluster.messages import LookupRequest
from repro.core.entry import Entry
from repro.protocol.lookup import stride_order

SERVERS = 16
#: Rate of the add/delete stream in the mutation phase of the two lookup
#: workloads (ops/s): about half the knee of that stream alone when the
#: host is busy; on a quiet host the knee is ~4500/s on lookup-sampled
#: and ~5000/s on lookup-hot, and about half that on a busy one
#: (README.md).
MUTATION_RATE = 1000.0
#: Share of the mixed-durable open loop that is mutations.
MUTATION_SHARE = 0.2
#: Sends per pre-encoded capacity ``batch`` frame (lookup-hot).
BATCH = 16


@dataclass(frozen=True)
class Workload:
    name: str
    entries: int
    #: Codec of each load connection; on a fleet, connection i is
    #: pinned to worker i.
    codecs: Tuple[str, ...]
    #: Open-loop offered rate (ops/s).
    rate: float
    #: Open-loop lookup mix: "sampled", "hot" or "mixed".
    mix: str
    #: Capacity frames: "send" (single frames) or "batch".
    capacity: str
    #: Shares of the measured seconds: open loop, capacity, mutation phase.
    shares: Tuple[float, float, float]
    #: Connections (by index) that run the capacity phase.
    capacity_conns: Tuple[int, ...] = (0, 1)
    workers: int = 1
    store: str = "memory"
    #: ``--log-compact-records`` on the log store.  The service counts
    #: records toward a compaction from zero at every boot, so with a
    #: restart each round the default (4096) is never reached and the
    #: journal would grow for the whole run.
    compact_records: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="lookup-sampled",
            entries=40,
            codecs=("binary", "json"),
            rate=600.0,
            mix="sampled",
            capacity="send",
            shares=(0.4, 0.4, 0.2),
        ),
        Workload(
            name="lookup-hot",
            entries=320,
            codecs=("binary", "binary"),
            rate=250.0,
            mix="hot",
            capacity="batch",
            shares=(0.5, 0.3, 0.2),
        ),
        Workload(
            name="mixed-durable",
            entries=40,
            codecs=("binary", "binary"),
            rate=600.0,
            mix="mixed",
            capacity="send",
            shares=(0.75, 0.25, 0.0),
            capacity_conns=(1,),
            workers=2,
            store="log",
            compact_records=1024,
        ),
    )
}


class Inputs:
    """Seeded draws over the stores the service placed.

    ``stores`` maps scheme -> per-server entry ids (fetched before the
    clock starts); ``profiles`` maps scheme -> (order, max_servers) from
    ``info``.
    """

    def __init__(
        self,
        seed: int,
        stores: Dict[str, List[List[str]]],
        profiles: Dict[str, Tuple[object, Optional[int]]],
    ) -> None:
        self.seed = seed
        self.stores = stores
        self.profiles = profiles
        self.schemes = sorted(stores)
        rng = random.Random(f"{seed}/ranking")
        self.coverage = {k: len(set().union(*map(set, stores[k]))) for k in self.schemes}
        self.max_store = {k: max(len(s) for s in stores[k]) for k in self.schemes}
        #: Servers whose store can answer a sampled lookup (|store| >= 2).
        self.sampleable = {
            k: [i for i, s in enumerate(stores[k]) if len(s) >= 2] for k in self.schemes
        }
        # Zipf(1) over (scheme, server).  Rank r belongs to scheme
        # r mod 5 at target level (r div 5) mod 4, so every seed gives
        # each scheme and level the same popularity; the seed picks
        # which server holds each rank.  Levels sit between the
        # scheme's largest store and its coverage: whole-store replies,
        # never degraded.
        servers = {k: rng.sample(range(SERVERS), SERVERS) for k in self.schemes}
        self.hot_pairs: List[Tuple[str, int, int]] = []
        for rank in range(len(self.schemes) * SERVERS):
            scheme = self.schemes[rank % len(self.schemes)]
            level = ((rank // len(self.schemes)) % 4 + 0.5) / 4
            target = self.whole_store_target(scheme, level)
            self.hot_pairs.append((scheme, servers[scheme][rank // len(self.schemes)], target))
        self.hot_weights = _zipf_cumulative(len(self.hot_pairs))
        self.scheme_weights = _zipf_cumulative(len(self.schemes))

    def whole_store_target(self, scheme: str, level: float) -> int:
        low, high = self.max_store[scheme], self.coverage[scheme]
        return low + round(level * (high - low))

    # -- single draws ----------------------------------------------------------

    def sampled(self, rng: random.Random) -> Tuple[str, int, int]:
        """Uniform scheme and server, target in [1, |store| - 1]."""
        scheme = rng.choice([k for k in self.schemes if self.sampleable[k]])
        server = rng.choice(self.sampleable[scheme])
        return scheme, server, rng.randint(1, len(self.stores[scheme][server]) - 1)

    def hot(self, rng: random.Random) -> Tuple[str, int, int]:
        """Zipf over (scheme, server) with the rank's whole-store target."""
        return rng.choices(self.hot_pairs, cum_weights=self.hot_weights)[0]

    def cacheable(self, rng: random.Random) -> Tuple[str, int, int]:
        """Zipf over schemes (in name order), uniform server, the
        scheme's middle whole-store target."""
        scheme = rng.choices(self.schemes, cum_weights=self.scheme_weights)[0]
        return scheme, rng.randrange(SERVERS), self.whole_store_target(scheme, 0.5)

    def order(self, scheme: str, first: int, rng: random.Random) -> Tuple[int, ...]:
        """The scheme's contact order, starting at ``first``."""
        order, _ = self.profiles[scheme]
        if isinstance(order, dict) and "stride" in order:
            return tuple(stride_order(SERVERS, first, order["stride"], rng))
        rest = [i for i in range(SERVERS) if i != first]
        rng.shuffle(rest)
        return (first, *rest)

    def lookup_op(self, at: float, conn: int, draw: Tuple[str, int, int], rng: random.Random) -> Op:
        scheme, server, target = draw
        return Op(
            at=at,
            conn=conn,
            kind="lookup",
            scheme=scheme,
            target=target,
            order=self.order(scheme, server, rng),
            max_servers=self.profiles[scheme][1],
        )

    # -- schedules -----------------------------------------------------------

    def open_loop(self, workload: Workload, seconds: float, round_: int) -> List[Op]:
        """Poisson arrivals at the workload's rate, alternating connections."""
        rng = random.Random(f"{self.seed}/open-loop/{round_}")
        mutations = _Pairs(self, rng, f"m{self.seed}r{round_}n")
        ops: List[Op] = []
        for index, at in enumerate(_arrivals(workload.rate, seconds, rng)):
            conn = index % len(workload.codecs)
            if workload.mix == "sampled":
                ops.append(self.lookup_op(at, conn, self.sampled(rng), rng))
            elif workload.mix == "hot":
                ops.append(self.lookup_op(at, conn, self.hot(rng), rng))
            elif rng.random() < MUTATION_SHARE:
                ops.append(mutations.next(at, conn))
            else:
                draw = self.sampled(rng) if rng.random() < 0.5 else self.cacheable(rng)
                ops.append(self.lookup_op(at, conn, draw, rng))
        return ops + mutations.close(seconds)

    def mutation_phase(self, connections: int, seconds: float, round_: int) -> List[Op]:
        """Add/delete pairs at :data:`MUTATION_RATE`."""
        rng = random.Random(f"{self.seed}/mutations/{round_}")
        mutations = _Pairs(self, rng, f"m{self.seed}r{round_}p")
        arrivals = _arrivals(MUTATION_RATE, seconds, rng)
        ops = [mutations.next(at, index % connections) for index, at in enumerate(arrivals)]
        return ops + mutations.close(seconds)

    def capacity(self, workload: Workload, codec: str, conn: int, round_: int, frames: int) -> CapacityFrames:
        """Pre-encoded request frames for one capacity connection."""
        rng = random.Random(f"{self.seed}/capacity/{round_}/{conn}")
        if workload.capacity == "batch":
            sends = [[self.hot(rng) for _ in range(BATCH)] for _ in range(frames)]
            return CapacityFrames([batch_frame(s) for s in sends], sends, batch=True)
        if workload.mix == "mixed":
            sends = [[self.sampled(rng) if i % 2 else self.cacheable(rng)] for i in range(frames)]
        else:
            sends = [[self.sampled(rng)] for _ in range(frames)]
        encoded = [send_frame(codec, s, k, LookupRequest(t)) for ((k, s, t),) in sends]
        return CapacityFrames(encoded, sends, batch=False)

    def probes(self) -> List[Tuple[str, int]]:
        """The fixed probe set: two (scheme, server) pairs per scheme."""
        rng = random.Random(f"{self.seed}/probes")
        return [(k, s) for k in self.schemes for s in rng.sample(range(SERVERS), 2)]


class _Pairs:
    """Add-then-delete pairs, each pair on one connection (so the delete
    is sent after the add is acknowledged) and store sizes stay bounded."""

    def __init__(self, inputs: Inputs, rng: random.Random, prefix: str) -> None:
        self.inputs = inputs
        self.rng = rng
        self.prefix = prefix
        self.open: Dict[int, Op] = {}
        self.made = 0

    def next(self, at: float, conn: int) -> Op:
        pending = self.open.pop(conn, None)
        if pending is not None:
            return Op(at=at, conn=conn, kind="delete", scheme=pending.scheme, server=pending.server, entry=pending.entry)
        scheme = self.rng.choice(self.inputs.schemes)
        # Round-Robin's tail counter lives on its counter host, server 0.
        server = 0 if scheme == "round_robin" else self.rng.randrange(SERVERS)
        self.made += 1
        op = Op(at=at, conn=conn, kind="add", scheme=scheme, server=server, entry=Entry(f"{self.prefix}{self.made}"))
        self.open[conn] = op
        return op

    def close(self, at: float) -> List[Op]:
        return [self.next(at + 0.001 * i, conn) for i, conn in enumerate(sorted(self.open))]


def added_ids(ops: Sequence[Op]) -> set:
    return {op.entry.entry_id for op in ops if op.kind == "add" and op.entry is not None}


def _arrivals(rate: float, seconds: float, rng: random.Random) -> Iterator[float]:
    """Poisson arrival times in [0, seconds)."""
    at = rng.expovariate(rate)
    while at < seconds:
        yield at
        at += rng.expovariate(rate)


def _zipf_cumulative(count: int) -> List[float]:
    total = 0.0
    out = []
    for rank in range(1, count + 1):
        total += 1.0 / rank
        out.append(total)
    return out
