"""Host-time spans around each layer's entry points, for the traced run.

The spans live in the benchmark, not in the program: ``install`` replaces
the entry points listed in ``_ENTRY_POINTS`` with timing wrappers, in the
(forked) process that runs one traced round, before anything is built.
A span's self time is its duration minus the part covered by spans
opened inside it, so each host second is charged to exactly one layer.

Generator entry points (storage and RAINfs operations, which run inside
simulation processes) are timed one resumption at a time: every ``send``
or ``throw`` into the generator is a span, and the simulated waits
between resumptions cost no host time.

Calls are counted once per entry into a layer from outside it: a
``Network.transmit`` reached through ``Host.send`` is one ``net.send``
call, and an ``append`` that reads then writes is one ``fs`` operation.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from typing import Any, Callable, Optional

import repro.sim.shard
import repro.topology
from repro.channel import LinkMonitorService, PathMonitor, ReliableEndpoint
from repro.codes.linear import LinearXorCode
from repro.fs import RainFsNode
from repro.membership import MembershipNode
from repro.net import Host, Network
from repro.net.routing import Router
from repro.net.shard import ShardedNetwork
from repro.rudp import RudpTransport
from repro.sim import ShardedSimulator, ShardKernel, Simulator
from repro.storage import DistributedStore, StorageNode
from workloads import FloodSink

__all__ = ["LayerTracer", "install"]

_perf = time.perf_counter


class LayerTracer:
    """Self time per layer and call counts, from nested spans."""

    def __init__(self) -> None:
        # one [layer, count key, seconds covered by child spans] per open span
        self._stack: list[list] = [[None, None, 0.0]]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        """Forget the totals (between set-up and the run)."""
        self.self_s.clear()
        self.calls.clear()

    def _timed(self, layer: str, count: Optional[str], fn: Callable, args, kwargs):
        stack = self._stack
        frame = [layer, count, 0.0]
        stack.append(frame)
        t0 = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            d = _perf() - t0
            stack.pop()
            self.self_s[layer] += d - frame[2]
            stack[-1][2] += d

    def wrap_function(
        self, fn: Callable, layer: str, count: Optional[str], size: Optional[Callable]
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None and tracer._stack[-1][1] != count:
                tracer.calls[count] += 1
                if size is not None:
                    tracer.calls[count + ".units"] += size(args)
            return tracer._timed(layer, count, fn, args, kwargs)

        return wrapper

    def wrap_generator(self, fn: Callable, layer: str, count: Optional[str]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None and tracer._stack[-1][1] != count:
                tracer.calls[count] += 1
            return tracer._drive(fn(*args, **kwargs), layer, count)

        return wrapper

    def _drive(self, gen, layer: str, count: Optional[str]):
        send: Any = None
        exc: Optional[BaseException] = None
        while True:
            try:
                if exc is None:
                    step = self._timed(layer, count, gen.send, (send,), {})
                else:
                    step = self._timed(layer, count, gen.throw, (exc,), {})
            except StopIteration as stop:
                return stop.value
            try:
                send = yield step
                exc = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as thrown:  # forwarded into the wrapped generator
                send, exc = None, thrown


# (owner, attribute, layer, call-count key or None, packets-per-call or None)
_ENTRY_POINTS: tuple = (
    (Simulator, "run", "sim", None, None),
    (ShardKernel, "run", "sim", None, None),
    (ShardedSimulator, "run", "shard", None, None),
    (ShardedSimulator, "_advance_window", "shard", "shard.windows", None),
    (repro.sim.shard, "deliver_handoff", "shard", "shard.handoffs", None),
    (Router, "path", "routing", "routing.calls", None),
    (Host, "send", "net.send", "net.send.calls", None),
    (Network, "transmit", "net.send", "net.send.calls", None),
    (Network, "_start_hop", "net.send", None, None),
    (Network, "_arrive_hop", "net.send", None, None),
    (Network, "_deliver", "net.send", None, None),
    (Network, "_finish_fast", "net.send", None, None),
    (ShardedNetwork, "_start_hop", "net.send", None, None),
    (ShardedNetwork, "_deliver", "net.send", None, None),
    (Host, "send_batch", "net.batch", "batch.calls", lambda a: len(a[2])),
    (Network, "transmit_batch", "net.batch", "batch.calls", lambda a: len(a[1])),
    (Network, "_hop_batch", "net.batch", None, None),
    (Network, "_deliver_batch", "net.batch", None, None),
    (ReliableEndpoint, "send", "channel", "channel.window.sends", None),
    (ReliableEndpoint, "on_segment", "channel", None, None),
    (PathMonitor, "_send_hello", "channel", None, None),
    (LinkMonitorService, "_on_packet", "channel", None, None),
    (RudpTransport, "send", "rudp", "rudp.send.calls", None),
    (RudpTransport, "_on_packet", "rudp", None, None),
    # Upcalls from rudp into the services above it get spans of their own,
    # so their handling is not charged to rudp, and the benchmark's own packet
    # sink is kept out of net.batch; these layers are not printed.
    (MembershipNode, "_on_msg", "membership", None, None),
    (StorageNode, "_on_msg", "storage.server", None, None),
    (RainFsNode, "_on_msg", "fs.server", None, None),
    (FloodSink, "__call__", "app", None, None),
    (DistributedStore, "store", "storage.store", "storage.store.calls", None),
    (DistributedStore, "retrieve", "storage.retrieve", "storage.retrieve.calls", None),
    (LinearXorCode, "encode", "codes.encode", None, None),
    (LinearXorCode, "decode", "codes.decode", None, None),
    (RainFsNode, "write", "fs.write", "fs.ops", None),
    (RainFsNode, "append", "fs.write", "fs.ops", None),
    (RainFsNode, "read", "fs.read", "fs.ops", None),
    (RainFsNode, "read_range", "fs.read", "fs.ops", None),
    (RainFsNode, "stat", "fs.meta", "fs.ops", None),
    (RainFsNode, "listdir", "fs.meta", "fs.ops", None),
    (RainFsNode, "delete", "fs.meta", "fs.ops", None),
    (RainFsNode, "rename", "fs.meta", "fs.ops", None),
    (repro.topology, "constant_degree_diameter", "setup.topology", None, None),
    (Network, "add_switch", "setup.topology", None, None),
    (Network, "add_host", "setup.topology", None, None),
    (Network, "link", "setup.topology", None, None),
)


def install(tracer: LayerTracer) -> None:
    """Wrap every entry point in this process; there is no uninstall, so
    call it only in a process that runs nothing else afterwards."""
    for owner, attr, layer, count, size in _ENTRY_POINTS:
        fn = vars(owner)[attr]  # defined on ``owner`` itself, not inherited
        if inspect.isgeneratorfunction(fn):
            wrapped = tracer.wrap_generator(fn, layer, count)
        else:
            wrapped = tracer.wrap_function(fn, layer, count, size)
        setattr(owner, attr, wrapped)
