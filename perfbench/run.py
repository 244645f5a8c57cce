"""Run one workload of the benchmark and print its metrics as one JSON line.

    python3 perfbench/run.py --workload churn-1k --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; nothing needs installing.  A
run makes a fixed number of whole rounds of the workload, about as many
as fit in ``--seconds`` on the reference machine (``Workload.round_s``),
and reports medians over them.  Each round runs in a child forked from
this process, so its peak RSS holds nothing left over from an earlier
round, and no module-level state (such as request-id counters) carries
from one round into the next.

``--trace 0`` prints the end-to-end metrics, from untraced rounds only.
``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics: host self time and calls from spans that
``tracing.py`` puts around each layer's entry points, and counts from the
program's own metrics registry.  ``trace.overhead_s`` is the traced
median ``run_s`` minus the untraced one.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``correct`` is false when any output check failed or when two rounds of
one invocation produced different simulated statistics.
"""

from __future__ import annotations

import os

# One BLAS thread: no thread exists when a round is forked.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("churn-1k", "rainfs-mix", "flood-batch")

#: Set-up and run are timed in CPU seconds of the round's process (user
#: plus system).  The simulator is single-threaded, so this is the host
#: work of the round, without the time the process spent descheduled
#: while other tenants of a shared machine ran.
CLOCK = time.process_time

END_TO_END = {"setup_s": "s", "run_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "sim.events": "count",
    "sim.self_s": "s",
    "sim.us_per_event": "us",
    "shard.windows": "count",
    "shard.handoffs": "count",
    "shard.self_s": "s",
    "routing.calls": "count",
    "routing.self_s": "s",
    "routing.topo_versions": "count",
    "net.send.calls": "count",
    "net.send.self_s": "s",
    "net.packets_sent": "count",
    "net.packets_delivered": "count",
    "net.packets_dropped": "count",
    "batch.calls": "count",
    "batch.packets": "count",
    "batch.self_s": "s",
    "channel.window.sends": "count",
    "channel.transitions": "count",
    "channel.self_s": "s",
    "rudp.send.calls": "count",
    "rudp.retransmissions": "count",
    "rudp.self_s": "s",
    "membership.token_hops": "count",
    "membership.exclusions": "count",
    "membership.regenerations": "count",
    "storage.store.calls": "count",
    "storage.store.self_s": "s",
    "storage.retrieve.calls": "count",
    "storage.retrieve.self_s": "s",
    "storage.sim_s": "s",
    "codes.encode.self_s": "s",
    "codes.decode.self_s": "s",
    "codes.xor_ops": "count",
    "codes.bytes": "B",
    "fs.ops": "count",
    "fs.write.self_s": "s",
    "fs.read.self_s": "s",
    "fs.meta.self_s": "s",
    "obs.report.s": "s",
    "obs.report.bytes": "B",
    "setup.topology_s": "s",
    "setup.cluster_s": "s",
    "trace.overhead_s": "s",
}

# per-layer metric -> the tracer layer whose self time it reports
_SELF_TIME = {
    "sim.self_s": "sim",
    "shard.self_s": "shard",
    "routing.self_s": "routing",
    "net.send.self_s": "net.send",
    "batch.self_s": "net.batch",
    "channel.self_s": "channel",
    "rudp.self_s": "rudp",
    "storage.store.self_s": "storage.store",
    "storage.retrieve.self_s": "storage.retrieve",
    "codes.encode.self_s": "codes.encode",
    "codes.decode.self_s": "codes.decode",
    "fs.write.self_s": "fs.write",
    "fs.read.self_s": "fs.read",
    "fs.meta.self_s": "fs.meta",
}

# per-layer metric -> the tracer call counter it reports
_CALLS = {
    "shard.windows": "shard.windows",
    "shard.handoffs": "shard.handoffs",
    "routing.calls": "routing.calls",
    "net.send.calls": "net.send.calls",
    "batch.calls": "batch.calls",
    "batch.packets": "batch.calls.units",
    "channel.window.sends": "channel.window.sends",
    "rudp.send.calls": "rudp.send.calls",
    "storage.store.calls": "storage.store.calls",
    "storage.retrieve.calls": "storage.retrieve.calls",
    "fs.ops": "fs.ops",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True, help="generates the workload's inputs")
    p.add_argument("--seconds", type=float, required=True, help="sets the number of rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _round(wl, inp, traced: bool) -> dict:
    """One round: ``setup_repeats`` builds, then one timed run, then checks."""
    tracer = None
    if traced:
        from tracing import LayerTracer, install

        tracer = LayerTracer()
        install(tracer)
    setups = []
    system = None
    for _ in range(wl.setup_repeats):
        system = None
        gc.collect()
        t0 = CLOCK()
        system = wl.build(inp)
        setups.append(CLOCK() - t0)
    layers: dict = {}
    if tracer is not None:
        layers["setup.topology_s"] = tracer.self_s["setup.topology"] / wl.setup_repeats
        tracer.reset()
    gc.collect()
    t0 = CLOCK()
    out = wl.run(system)
    run_s = CLOCK() - t0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        layers["self_s"] = dict(tracer.self_s)
        layers["calls"] = dict(tracer.calls)
    wl.check(system, out)
    return {
        "traced": traced,
        "setup_s": setups,
        "run_s": run_s,
        "peak_rss_mb": peak_kib / 1024.0,
        "attempted": out.attempted,
        "failed": out.failed,
        "completed": out.completed,
        "errors": out.errors,
        "notes": out.notes,
        "digest": hashlib.sha256(out.report.encode()).hexdigest(),
        "report_s": out.report_s,
        "report_bytes": len(out.report.encode()),
        "counts": out.counts,
        "layers": layers,
    }


def _in_child(fn, *args) -> dict:
    """Run ``fn(*args)`` in a forked child and return its JSON result."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The child must never return into the parent's code, whatever is
        # raised, so it reports every exception and leaves with _exit.
        code = 0
        try:
            os.close(r)
            payload = json.dumps({"ok": fn(*args)})
        except BaseException:
            payload = json.dumps({"crash": traceback.format_exc()})
            code = 1
        with os.fdopen(w, "w") as f:
            f.write(payload)
        os._exit(code)
    os.close(w)
    with os.fdopen(r) as f:
        data = f.read()
    os.waitpid(pid, 0)
    msg = json.loads(data) if data else {"crash": "round process died without a result"}
    if "crash" in msg:
        sys.stderr.write(msg["crash"])
        raise SystemExit(1)
    return msg["ok"]


def _median_round(rounds: list[dict]) -> dict:
    """The round whose ``run_s`` is the median (the lower one of two)."""
    return sorted(rounds, key=lambda r: r["run_s"])[(len(rounds) - 1) // 2]


def end_to_end(rounds: list[dict]) -> dict:
    # Medians over rounds: on a shared machine other tenants slow this
    # process down in bursts, and the median ignores the rounds they hit
    # hardest, where a minimum would chase the rare quiet moments.
    plain = [r for r in rounds if not r["traced"]]
    run_s = statistics.median(r["run_s"] for r in plain)
    values = {
        "setup_s": statistics.median(s for r in plain for s in r["setup_s"]),
        "run_s": run_s,
        "ops_per_s": plain[0]["completed"] / run_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(rounds: list[dict]) -> dict:
    # Times come from the median traced and untraced rounds; counts repeat
    # exactly in every round.
    plain = _median_round([r for r in rounds if not r["traced"]])
    traced = _median_round([r for r in rounds if r["traced"]])
    counts = traced["counts"]
    self_s = traced["layers"]["self_s"]
    calls = traced["layers"]["calls"]
    values: dict[str, float] = {name: self_s.get(layer, 0.0) for name, layer in _SELF_TIME.items()}
    values.update({name: float(calls.get(key, 0)) for name, key in _CALLS.items()})
    values.update({name: counts[name] for name in PER_LAYER if name in counts})
    events = counts["sim.events"]
    values["sim.us_per_event"] = values["sim.self_s"] * 1e6 / events if events else 0.0
    values["obs.report.s"] = plain["report_s"]
    values["obs.report.bytes"] = float(plain["report_bytes"])
    values["setup.topology_s"] = traced["layers"]["setup.topology_s"]
    values["setup.cluster_s"] = statistics.median(traced["setup_s"]) - values["setup.topology_s"]
    values["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    return {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no program source at {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    inp = wl.inputs(args.seed, False)
    # An untraced round, or an untraced and a traced one, is the unit the
    # run repeats; units are whole so every run attempts the same mix, and
    # their number depends on --seconds only.
    unit = (False, True) if args.trace else (False,)
    units = max(1, round(args.seconds / (wl.round_s * len(unit))))
    rounds = [_in_child(_round, wl, inp, traced) for _ in range(units) for traced in unit]
    for note in rounds[0]["notes"]:
        sys.stderr.write(note + "\n")
    errors = [e for r in rounds for e in r["errors"]]
    if len({r["digest"] for r in rounds}) != 1:
        errors.append("rounds of one invocation produced different simulated statistics")
    for e in errors[:20]:
        sys.stderr.write(f"check failed: {e}\n")
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": per_layer(rounds) if args.trace else end_to_end(rounds),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
