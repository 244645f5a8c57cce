"""The benchmark's workloads: inputs generated from a seed, set-up, run, checks.

Each workload splits into three phases, timed apart by ``run.py``:

- ``inputs(seed, small)`` turns the benchmark seed into plain data (shapes,
  fault scripts, operation lists).  The program under test only ever sees
  these generated inputs, never the seed.
- ``build(inp)`` goes from the inputs to a built cluster or network with
  its fault script installed, before the first simulated event (``setup_s``).
- ``run(system)`` runs from the first simulated event until the last
  operation has finished and the workload's ``ClusterReport`` has been
  produced (``run_s``).
- ``check(system, outcome)`` then checks the outputs against values
  computed apart from the program, or against properties of the method.

``small=True`` selects the reduced shapes the benchmark's own tests use;
every check stays on at both sizes.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import ClusterConfig, RainCluster, Simulator, topology
from repro.cluster import ShardedRainCluster
from repro.codes import BCode
from repro.fs import FsError, RainFsNode
from repro.membership import MembershipConfig, check_invariants
from repro.net import HEADER_BYTES, Network
from repro.obs import ClusterReport
from repro.sim import SimulationError
from repro.storage import RetrieveError

__all__ = ["Outcome", "Workload", "WORKLOADS", "report_counts"]


@dataclass
class Outcome:
    """What one run of a workload produced, apart from its timings."""

    attempted: int
    failed: int
    completed: int  # the operations ``ops_per_s`` counts
    report: str  # the canonical ClusterReport JSON
    report_s: float  # host seconds spent producing ``report``
    counts: dict[str, float]  # program-side counts for the traced view
    errors: list[str] = field(default_factory=list)  # failed output checks
    notes: list[str] = field(default_factory=list)  # printed to stderr


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int, bool], Any]
    build: Callable[[Any], Any]
    run: Callable[[Any], Outcome]
    #: appends to ``Outcome.errors``; runs after the timed part
    check: Callable[[Any, Outcome], None]
    #: builds per round; ``setup_s`` is the median over all the builds of
    #: a run, so a cheap set-up is built many times
    setup_repeats: int
    #: host seconds one untraced round (fork, builds, run, report, checks)
    #: took on the reference machine; a run of ``--seconds S`` makes
    #: ``round(S / round_s)`` rounds (at least one), however fast the code
    #: or the machine is, so every run takes its medians over as many rounds
    round_s: float


def _produce_report(make: Callable[[], ClusterReport]) -> tuple[str, float]:
    t0 = time.perf_counter()
    text = make().to_json()
    return text, time.perf_counter() - t0


def _series_total(metrics: dict, name: str, key: str = "value") -> float:
    return float(sum(s.get(key) or 0.0 for s in metrics.get(name, {}).get("series", [])))


def report_counts(report: str) -> dict[str, float]:
    """Per-layer counts read from the program's own metrics registry."""
    m = json.loads(report)["metrics"]
    return {
        "sim.events": _series_total(m, "sim.kernel.events"),
        "net.packets_sent": _series_total(m, "net.network.packets_sent"),
        "net.packets_delivered": _series_total(m, "net.network.packets_delivered"),
        "net.packets_dropped": _series_total(m, "net.network.packets_dropped"),
        "channel.transitions": _series_total(m, "channel.monitor.transitions"),
        "rudp.retransmissions": _series_total(m, "rudp.transport.retransmissions"),
        "membership.exclusions": _series_total(m, "membership.protocol.exclusions"),
        "membership.regenerations": _series_total(m, "membership.protocol.regenerations"),
        "storage.sim_s": _series_total(m, "storage.store.latency", "sum")
        + _series_total(m, "storage.retrieve.latency", "sum"),
        "codes.xor_ops": _series_total(m, "codes.xor.ops"),
        "codes.bytes": _series_total(m, "codes.bytes"),
    }


# ---------------------------------------------------------------------------
# churn-1k: 1,000-node token-ring membership under crashes, 4 serial shards
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChurnInputs:
    nodes: int
    switches: int
    shards: int
    horizon: float
    #: (time, "crash" | "recover", node index), in script order
    script: tuple


def churn_inputs(seed: int, small: bool) -> ChurnInputs:
    """The shard1k shape and fault timing, with the crash site from the seed.

    As in shard1k, a contiguous pair crashes at 0.2 s, a straggler next
    to it at 0.35 s, and the first of the pair recovers at 0.8 s.  The
    token, launched by node 0, needs about 2.16 ms a hop, so it reaches
    any site the seed can pick (nodes 400-499) after the recovery; the
    fault times are fixed so that every seed rebuilds routes after the
    same topology changes at the same times.  The simulator seed is not
    varied: this scenario draws nothing from it.
    """
    if small:
        nodes, switches, shards, horizon = 200, 16, 2, 0.8
        times = (0.04, 0.07, 0.16)
    else:
        nodes, switches, shards, horizon = 1000, 64, 4, 1.5
        times = (0.2, 0.35, 0.8)
    site = int(np.random.default_rng(seed).integers(nodes * 2 // 5, nodes // 2))
    script = (
        (times[0], "crash", site),
        (times[0], "crash", site + 1),
        (times[1], "crash", site + 2),
        (times[2], "recover", site),
    )
    return ChurnInputs(nodes, switches, shards, horizon, script)


def churn_build(inp: ChurnInputs) -> tuple[ChurnInputs, ShardedRainCluster]:
    topo = topology.constant_degree_diameter(
        inp.switches, switch_degree=6, node_degree=2, num_nodes=inp.nodes
    )
    # The shard1k configuration (repro.scenarios.build_churn_cluster),
    # with the fault script taken from the inputs instead of fixed.
    cfg = ClusterConfig(
        monitor=None,
        membership=MembershipConfig(
            token_interval=0.002, ack_timeout=0.02, starvation_timeout=30.0
        ),
    )
    cluster = ShardedRainCluster(
        topo,
        seed=7,
        shards=inp.shards,
        config=cfg,
        with_election=False,
        with_storage=False,
    )
    for t, kind, node in inp.script:
        if kind == "crash":
            cluster.crash_at(t, node)
        else:
            cluster.recover_at(t, node)
    return inp, cluster


def churn_run(system: tuple[ChurnInputs, ShardedRainCluster]) -> Outcome:
    inp, cluster = system
    topo_before = cluster.replicas[0].net.topo_version
    cluster.run(inp.horizon)
    report, report_s = _produce_report(lambda: cluster.metrics(scenario="churn-1k"))
    accepted = sum(m.tokens_seen for rep in cluster.replicas for m in rep.members.values())
    counts = report_counts(report)
    counts["membership.token_hops"] = float(accepted)
    counts["routing.topo_versions"] = float(cluster.replicas[0].net.topo_version - topo_before)
    return Outcome(
        attempted=accepted, failed=0, completed=accepted, report=report,
        report_s=report_s, counts=counts,
    )


def churn_check(system: tuple[ChurnInputs, ShardedRainCluster], out: Outcome) -> None:
    inp, cluster = system
    errors = out.errors
    members = [m for rep in cluster.replicas for m in rep.members.values()]
    prefix = cluster.config.node_prefix
    accepts = sorted(
        (e.time, int(m.name[len(prefix) :]))
        for m in members
        for e in m.events
        if e.kind == "accept"
    )
    if len(accepts) != out.completed:
        errors.append(f"{len(accepts)} accept events but {out.completed} tokens seen")
    inv = check_invariants(members, require_agreement=False)
    if not inv.ok:
        errors.append(f"membership invariants: {inv}")
    if inv.lineages_seen != 1:
        errors.append(f"expected one token lineage, saw {inv.lineages_seen}")
    site = min(node for _, _, node in inp.script)
    last_fault = max(t for t, _, _ in inp.script)
    # The token passes the crash site when a node beyond it accepts after
    # the script has finished; from then on every acceptor must hold the
    # full ring minus exactly the nodes the script leaves down.
    passed = [t for t, node in accepts if node > site + 2 and t > last_fault]
    if not passed:
        errors.append("the token never passed the crash site")
        return
    t_pass = passed[0]
    down: set[int] = set()
    for t, kind, node in inp.script:
        if t < t_pass:
            (down.add if kind == "crash" else down.discard)(node)
    expected = {f"{prefix}{i}" for i in range(inp.nodes) if i not in down}
    late = {node for t, node in accepts if t >= t_pass}
    by_index = {int(m.name[len(prefix) :]): m for m in members}
    wrong = [i for i in sorted(late) if set(by_index[i].membership) != expected]
    if wrong:
        errors.append(
            f"{len(wrong)} nodes accepted the token after t={t_pass:.4f} without "
            f"a membership excluding exactly {sorted(down)} (first: node{wrong[0]})"
        )


# ---------------------------------------------------------------------------
# rainfs-mix: a closed-loop RAINfs client on the Fig. 1 testbed
# ---------------------------------------------------------------------------

_FS_NODES = 10  # the testbed's node count; BCode(10) puts one symbol on each
_FS_BLOCK = 16 * 1024
_FS_WARMUP_S = 3.0  # membership converges, monitors mark paths Up, leader elected
_FS_MIX = (  # (operation, share of the operations in each phase)
    ("write", 0.22),
    ("append", 0.10),
    ("read", 0.22),
    ("read_range", 0.16),
    ("stat", 0.12),
    ("listdir", 0.08),
    ("delete", 0.10),
)
_FS_SEED_FILES = 6  # the run opens with this many writes
_FS_CRASH_SHARE = 0.4  # the crash comes after this share of the operations


@dataclass(frozen=True)
class FsInputs:
    sim_seed: int
    #: (op, path, argument, expected result); the expectation comes from a
    #: path -> bytes model of the file system kept here, not by RAINfs
    ops: tuple
    crash_after: int  # the number of operations completed before the crash
    victim_order: tuple  # crash the first of these that is not the leader


def _phase_kinds(n: int) -> list[str]:
    counts = {kind: int(n * share) for kind, share in _FS_MIX}
    counts["write"] += n - sum(counts.values())
    return [kind for kind, _ in _FS_MIX for _ in range(counts[kind])]


def _spread(rng: np.random.Generator, n: int, lo: int, hi: int) -> list[int]:
    """``n`` sizes evenly spaced over [lo, hi], in random order."""
    sizes = [lo + (hi - lo) * i // max(1, n - 1) for i in range(n)]
    rng.shuffle(sizes)
    return sizes


def fs_inputs(seed: int, small: bool) -> FsInputs:
    """A closed-loop operation list and crash from the seed.

    Each phase (before and after the crash) holds a fixed number of each
    kind of operation, and write and append sizes are a fixed set of
    evenly spaced sizes, as are the sizes of the files read and appended
    to; the seed orders them, picks paths, offsets and contents, and picks
    the crashed node.  Keeping the amounts fixed keeps the host work per
    run about the same for every seed.
    """
    rng = np.random.default_rng(seed)

    def pick(items: list):
        return items[int(rng.integers(len(items)))]

    n_ops = 40 if small else 200
    crash_after = int(n_ops * _FS_CRASH_SHARE)
    paths = [f"/d{d}/f{f}" for d in range(4) for f in range(8)]
    kinds = []
    for n in (crash_after, n_ops - crash_after):
        phase = _phase_kinds(n)
        rng.shuffle(phase)
        kinds.extend(phase)
    # open with writes, so reads have files to read
    for i in range(_FS_SEED_FILES):
        j = kinds.index("write", i)
        kinds[i], kinds[j] = kinds[j], kinds[i]
    write_sizes = _spread(rng, kinds.count("write"), 512, 40_000)
    append_sizes = _spread(rng, kinds.count("append"), 256, 6_000)
    range_lengths = _spread(rng, kinds.count("read_range"), 1, 2 * _FS_BLOCK)
    # reads and appends go to the file nearest a target size, so every
    # seed reads about as many blocks (each a 1 s wait after the crash)
    read_sizes = _spread(rng, kinds.count("read"), 512, 40_000)
    append_targets = _spread(rng, kinds.count("append"), 512, 40_000)

    def nearest(existing: list, target: int) -> str:
        return min(existing, key=lambda p: (abs(len(model[p]) - target), p))

    model: dict[str, bytes] = {}
    ops = []
    for j in range(n_ops):
        kind = kinds[j]
        if kind == "delete" and len(model) <= 2:
            # keep files to read: trade places with the next write
            k = kinds.index("write", j)
            kinds[j], kinds[k] = kinds[k], kinds[j]
            kind = "write"
        existing = sorted(model)
        if kind == "write":
            path = pick(paths)
            model[path] = data = rng.bytes(write_sizes.pop())
            ops.append((kind, path, data, len(data)))
        elif kind == "append":
            path = nearest(existing, append_targets.pop())
            data = rng.bytes(append_sizes.pop())
            model[path] += data
            ops.append((kind, path, data, len(model[path])))
        elif kind == "read":
            path = nearest(existing, read_sizes.pop())
            ops.append((kind, path, None, model[path]))
        elif kind == "read_range":
            path = pick(existing)
            offset = int(rng.integers(len(model[path]) + 1))
            length = range_lengths.pop()
            ops.append((kind, path, (offset, length), model[path][offset : offset + length]))
        elif kind == "stat":
            path = pick(existing)
            ops.append((kind, path, None, len(model[path])))
        elif kind == "listdir":
            prefix = pick(["/", "/d0/", "/d1/", "/d2/", "/d3/"])
            ops.append((kind, prefix, None, sorted(p for p in model if p.startswith(prefix))))
        else:
            path = pick(existing)
            del model[path]
            ops.append((kind, path, None, None))
    # FirstK placement asks the first k = 8 nodes for each block: the
    # victim is one of them, so every read after the crash is degraded.
    victims = list(range(BCode(_FS_NODES).k))
    rng.shuffle(victims)
    return FsInputs(int(rng.integers(1 << 31)), tuple(ops), crash_after, tuple(victims))


def fs_build(inp: FsInputs):
    sim = Simulator(seed=inp.sim_seed)
    cluster = RainCluster.testbed(sim)
    fs = [
        RainFsNode(
            cluster.member(i),
            cluster.elections[i],
            cluster.store_on(i, BCode(_FS_NODES)),
            block_size=_FS_BLOCK,
        )
        for i in range(_FS_NODES)
    ]
    return inp, sim, cluster, fs


def _fs_call(node: RainFsNode, kind: str, path: str, arg):
    if kind == "write":
        meta = yield from node.write(path, arg)
        return meta["size"]
    if kind == "append":
        meta = yield from node.append(path, arg)
        return meta["size"]
    if kind == "read":
        return (yield from node.read(path))
    if kind == "read_range":
        return (yield from node.read_range(path, *arg))
    if kind == "stat":
        meta = yield from node.stat(path)
        return meta["size"]
    if kind == "listdir":
        return (yield from node.listdir(path))
    return (yield from node.delete(path))


def fs_run(system) -> Outcome:
    inp, sim, cluster, fs = system
    topo_before = cluster.network.topo_version
    sim.run(until=_FS_WARMUP_S)
    errors: list[str] = []
    failed = [0]
    live = list(range(_FS_NODES))
    victim: list[int] = []

    def client():
        for j, (kind, path, arg, expected) in enumerate(inp.ops):
            if j == inp.crash_after:
                leader = cluster.elections[live[0]].leader
                crashed = next(i for i in inp.victim_order if cluster.names[i] != leader)
                cluster.crash(crashed)
                live.remove(crashed)
                victim.append(crashed)
            node = fs[live[j % len(live)]]
            try:
                got = yield from _fs_call(node, kind, path, arg)
            except (FsError, RetrieveError) as exc:
                failed[0] += 1
                errors.append(f"op {j} {kind} {path} failed: {exc}")
                continue
            if got != expected:
                errors.append(f"op {j} {kind} {path} returned a wrong result")

    sim.run_process(client(), until=sim.now + 100_000.0)
    report, report_s = _produce_report(lambda: cluster.metrics(scenario="rainfs-mix"))
    if not victim:
        errors.append("the scripted crash did not happen")
    n = len(inp.ops)
    out = Outcome(
        attempted=n,
        failed=failed[0],
        completed=n - failed[0],
        report=report,
        report_s=report_s,
        counts=report_counts(report),
        errors=errors,
    )
    out.counts["membership.token_hops"] = float(sum(m.tokens_seen for m in cluster.membership))
    out.counts["routing.topo_versions"] = float(cluster.network.topo_version - topo_before)
    return out


def fs_check(system, out: Outcome) -> None:
    cluster = system[2]
    inv = check_invariants(cluster.membership, require_agreement=False)
    if not inv.ok:
        out.errors.append(f"membership invariants: {inv}")
    if all(h.up for h in cluster.hosts):
        out.errors.append("no node is down at the end of the run")


# ---------------------------------------------------------------------------
# flood-batch: open-loop batched windows around an 8-switch ring
# ---------------------------------------------------------------------------

_FLOOD_HOSTS = 8
_FLOOD_HOPS = 5  # host -> S_i -> S_i+1 -> S_i+2 -> S_i+3 -> host
_FLOOD_LOSS = 0.02
_FLOOD_WINDOW = 256
_FLOOD_BYTES = 4096
_FLOOD_LATENCY_S = 50e-6
_FLOOD_BANDWIDTH_BPS = 1.0e9
_FLOOD_PORT = 9000
#: The simulator seed, which draws every loss, is fixed rather than taken
#: from --seed.  Network._hop_batch loses windows (see FloodSink) on some
#: loss patterns and not others; a pattern that moved with --seed would
#: make the share of failed operations differ from seed to seed.
_FLOOD_SIM_SEED = 1


@dataclass(frozen=True)
class FloodInputs:
    interval: float  # one window per sender every ``interval`` seconds
    send_until: float  # senders stop here; the run then drains
    distance: int  # receivers sit this many switches around the ring


def flood_inputs(seed: int, small: bool) -> FloodInputs:
    """Every host sends a 256-packet window every 30 ms (about 84% of a
    shared 1 Gb/s ring link, which carries three flows) for 20 simulated
    seconds.  The inputs do not depend on the seed; see _FLOOD_SIM_SEED."""
    return FloodInputs(interval=0.03, send_until=2.0 if small else 20.0, distance=3)


class FloodSink:
    """Batch handler that checks every delivered window as it lands."""

    def __init__(self, min_transit: float):
        self.min_transit = min_transit
        self.received = 0
        #: windows sent and not yet delivered, by batch identity
        self.inflight: dict[int, Any] = {}
        self.last_arrival: dict[str, float] = {}
        self.errors: list[str] = []

    def __call__(self, batch) -> None:
        self.inflight.pop(id(batch), None)
        rows = np.flatnonzero(batch.alive)
        self.received += len(rows)
        if len(rows) == 0:
            return
        arrival = batch.arrival[rows]
        if float(np.min(arrival - batch.send_time[rows])) < self.min_transit - 1e-12:
            self.errors.append(f"a packet from {batch.src.node} arrived faster than the wire")
        flow = batch.src.node
        if np.any(np.diff(arrival) < 0) or arrival[0] < self.last_arrival.get(flow, -math.inf):
            self.errors.append(f"arrivals from {flow} went backwards")
        self.last_arrival[flow] = float(arrival[-1])


def flood_build(inp: FloodInputs):
    sim = Simulator(seed=_FLOOD_SIM_SEED)
    net = Network(
        sim,
        default_latency_s=_FLOOD_LATENCY_S,
        default_bandwidth_bps=_FLOOD_BANDWIDTH_BPS,
        default_loss_rate=_FLOOD_LOSS,
    )
    switches = [net.add_switch(f"S{i}") for i in range(_FLOOD_HOSTS)]
    for i in range(_FLOOD_HOSTS):
        net.link(switches[i], switches[(i + 1) % _FLOOD_HOSTS])
    hosts = [net.add_host(f"H{i}") for i in range(_FLOOD_HOSTS)]
    for host, switch in zip(hosts, switches):
        net.link(host.nic(0), switch)
    serialization = (_FLOOD_BYTES + HEADER_BYTES) * 8 / _FLOOD_BANDWIDTH_BPS
    sink = FloodSink(_FLOOD_HOPS * (_FLOOD_LATENCY_S + serialization))
    for host in hosts:
        host.bind_batch(_FLOOD_PORT, sink)
    targets = [
        hosts[(i + inp.distance) % _FLOOD_HOSTS].endpoint(_FLOOD_PORT)
        for i in range(_FLOOD_HOSTS)
    ]
    payload = [None] * _FLOOD_WINDOW

    def pump(i: int) -> None:
        batch = hosts[i].send_batch(targets[i], payload, size_bytes=_FLOOD_BYTES)
        sink.inflight[id(batch)] = batch
        if sim.now + inp.interval < inp.send_until:
            sim.call_in(inp.interval, pump, i)

    for i in range(_FLOOD_HOSTS):
        sim.call_in(0.0, pump, i)
    return inp, sim, net, sink


def _is_hop_batch_fault(exc: SimulationError) -> bool:
    tb = exc.__traceback__
    frames = []
    while tb is not None:
        frames.append(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    return "_hop_batch" in frames and "in the past" in str(exc)


def flood_run(system) -> Outcome:
    inp, sim, net, sink = system
    topo_before = net.topo_version
    faults: list[float] = []
    # send, then drain until nothing is left in flight
    while True:
        try:
            sim.run()
            break
        except SimulationError as exc:
            # Network._hop_batch schedules a window's next hop at its
            # last surviving packet's arrival; when the tail is lost on
            # a hop that time can precede sim.now, the kernel refuses
            # it, and the window's survivors vanish.  Resume and count.
            if not _is_hop_batch_fault(exc):
                raise
            faults.append(sim.now)
    report, report_s = _produce_report(lambda: ClusterReport.capture(sim, scenario="flood-batch"))
    lost = [b.n_alive for b in sink.inflight.values() if b.n_alive]
    counts = report_counts(report)
    counts["membership.token_hops"] = 0.0
    counts["routing.topo_versions"] = float(net.topo_version - topo_before)
    return Outcome(
        attempted=int(net.stats.sums["packets_sent"]),
        failed=sum(lost),
        completed=int(net.stats.sums["packets_delivered"]),
        report=report,
        report_s=report_s,
        counts=counts,
        notes=[
            f"flood-batch: Network._hop_batch scheduled into the past at t={t:.6f} s "
            "and the window's surviving packets were lost"
            for t in faults
        ],
    )


def flood_check(system, out: Outcome) -> None:
    inp, sim, net, sink = system
    errors = out.errors
    errors.extend(sink.errors)
    offered, delivered, failed = out.attempted, out.completed, out.failed
    dropped = int(net.stats.sums["packets_dropped"])
    if offered != delivered + dropped + failed:
        errors.append(
            f"offered {offered} != delivered {delivered} + dropped {dropped} + failed {failed}"
        )
    if sink.received != delivered:
        errors.append(f"handlers received {sink.received}, the network delivered {delivered}")
    if len(out.notes) != sum(1 for b in sink.inflight.values() if b.n_alive):
        errors.append("a window was lost without a fault, or a fault lost no window")
    p = (1.0 - _FLOOD_LOSS) ** _FLOOD_HOPS
    trials = offered - failed
    sigma = math.sqrt(trials * p * (1.0 - p))
    if abs(delivered - trials * p) > 6.0 * sigma:
        errors.append(
            f"delivered {delivered} of {trials}, outside 6 sigma of p={p:.4f} per packet"
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("churn-1k", churn_inputs, churn_build, churn_run, churn_check, 1, 9.0),
        Workload("rainfs-mix", fs_inputs, fs_build, fs_run, fs_check, 10, 3.0),
        Workload("flood-batch", flood_inputs, flood_build, flood_run, flood_check, 50, 3.75),
    )
}


def run_once(name: str, seed: int, small: bool = False) -> Outcome:
    """Inputs, set-up, run and checks of one workload, untimed."""
    wl = WORKLOADS[name]
    system = wl.build(wl.inputs(seed, small))
    out = wl.run(system)
    wl.check(system, out)
    return out
