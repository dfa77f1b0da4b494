"""Profile a sweep point: where does the simulator spend its wall-clock?

Runs one measurement point (default: the most fabric-heavy IOR point,
``64_4M`` with the NVM cache enabled) with a
:class:`~repro.sim.profile.SimProfiler` attached and prints the engine's
own accounting — event counts, fabric recompute totals, per-component
wall-clock timers, peak event-heap depth.  Optionally layers Python-level
``cProfile`` on top and exports a Chrome-trace JSON (profiler counters
merged into the :class:`~repro.sim.trace.Tracer` timeline) for
``chrome://tracing`` / https://ui.perfetto.dev.

Usage::

    PYTHONPATH=src python tools/profile_sweep.py
    PYTHONPATH=src python tools/profile_sweep.py --benchmark ior \\
        --aggregators 8 --cb-mib 4 --cache-mode disabled --scale 0.01
    PYTHONPATH=src python tools/profile_sweep.py --cprofile 25
    PYTHONPATH=src python tools/profile_sweep.py --top 10
    PYTHONPATH=src python tools/profile_sweep.py --events 12
    PYTHONPATH=src python tools/profile_sweep.py --resumes 8
    PYTHONPATH=src python tools/profile_sweep.py --benchmark coll_perf --tables
    PYTHONPATH=src python tools/profile_sweep.py --aggregators 8 --cb-mib 16 \\
        --cache-mode disabled --scale 0.125 --num-files 3   # an ior_grid6 unit
    PYTHONPATH=src python tools/profile_sweep.py --trace point.trace.json
    PYTHONPATH=src python tools/profile_sweep.py --reference --json prof.json

The stack under profile is the one production runs unless ``--reference``
asks for the reference stack (``Machine(reference=True)``): the heapq
engine, on which every grant and every rank's collective release is an
event (so every collective write walks round by round, one process per
rank); the naive fabric, with one flow per MPI send and per stripe run and
a full recompute per change; and the generator flush step.  Compare the
two to see the recompute work and the event traffic the production fast
paths remove (docs/PERFORMANCE.md walks through both).  ``--events N`` names the N
most-fired event kinds — which waits, grants and chain steps the event count
is made of; ``--resumes N`` names who was resumed — process resumes by name
stem, with the number of processes behind each stem and of ranks each stands
for (``rank1+447`` is rank 1 and the 447 ranks that follow with it), and
under each stem what it waited on: the event's class and name stem, how
often, and the host microseconds those resumes took, everything the process
went on to do included.  One shared release is one event however many
processes it resumes, so only the second table shows a cost that grows with
ranks; on the production stack no rank is resumed by a ``coll:timed:`` slot
nor by a write: a collective write runs on its clock, which writes the
rounds itself, and resumes every process once a call, by its
``write_all:done`` event.  ``--tables`` lists every
distinct access table the point's collective writes planned from: whether it
is a descriptor (``strided k levels``) or CSR arrays, the extents it
describes against the bytes it holds, whether anything flattened it, and how
its calls fared in the two-phase model memo, and — over the calls that
planned — the (rank, window) pairs that carry bytes against ranks × windows:
the share that makes planning dense.  ``--num-files`` sizes the
run like a benchmark unit (``ior_grid6`` runs 3 files, ``noncontig_grid4``
2).  The profiler never changes simulation results — only observes.

``--chaos-seed N`` profiles a :mod:`repro.chaos` trial instead: the traced
timeline then carries the injected fault and recovery/replay instant
events (color-coded in the Chrome trace — faults red, recovery green)::

    PYTHONPATH=src python tools/profile_sweep.py --chaos-seed 4 \\
        --cache-mode coherent --trace chaos4.trace.json
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import functools
import heapq
import json
import pstats
import re
import sys
import time
from collections import Counter

import numpy as np

from repro.chaos.runner import CHAOS_CACHE_MODES
from repro.experiments.runner import BENCHMARKS, CACHE_MODES, ExperimentSpec, run_experiment
from repro.pfs.client import PFSClient
from repro.pfs.layout import plan_memo_info
from repro.reference import HeapSimulator
from repro.sim.core import Event, Process, Simulator
from repro.sim.profile import SimProfiler
from repro.units import MiB


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python tools/profile_sweep.py",
        description="Profile one sweep measurement point.",
    )
    p.add_argument("--benchmark", default="ior", choices=BENCHMARKS)
    p.add_argument("--aggregators", type=int, default=64)
    p.add_argument("--cb-mib", type=int, default=4, help="collective buffer (MiB)")
    p.add_argument(
        "--cache-mode",
        default="enabled",
        choices=sorted(set(CACHE_MODES) | set(CHAOS_CACHE_MODES)),
        help="sweep points accept %s; chaos trials accept %s"
        % ("/".join(CACHE_MODES), "/".join(CHAOS_CACHE_MODES)),
    )
    p.add_argument("--scale", type=float, default=0.03125)
    p.add_argument(
        "--num-files",
        type=int,
        default=None,
        metavar="N",
        help="files (I/O phases) of the run; default: the spec's own "
        "(4 for a sweep point, 2 for a chaos trial)",
    )
    p.add_argument(
        "--reference",
        action="store_true",
        help="profile the reference stack instead of the one production runs: "
        "the heapq engine (every grant and every rank's release an event), the "
        "naive fabric (one flow per send and per stripe run) and the generator "
        "flush",
    )
    p.add_argument(
        "--cprofile",
        type=int,
        default=0,
        metavar="N",
        help="also run under cProfile and print the top N rows by tottime",
    )
    p.add_argument(
        "--top",
        type=int,
        default=0,
        metavar="N",
        help="print the N hottest profiler timers (cumulative wall seconds, "
        "calls, avg), the N largest counters and the access-table / model-memo "
        "hit rates — the engine's own Amdahl table, no cProfile overhead",
    )
    p.add_argument(
        "--events",
        type=int,
        default=0,
        metavar="N",
        help="print the N most-fired event kinds (class : name stem : first "
        "callback), tallied by stepping the engine from here — slower, same results",
    )
    p.add_argument(
        "--resumes",
        type=int,
        default=0,
        metavar="N",
        help="print the N most-resumed process kinds (name stem, processes, "
        "ranks each stands for) and the event kinds each waited on (count, "
        "inclusive us), tallied by wrapping Process._resume from here",
    )
    p.add_argument(
        "--tables",
        action="store_true",
        help="print one line per distinct access table the collective writes planned "
        "from (form, ranks, extents described, bytes held, flattened or not, model-memo "
        "hits/misses/skips, pairs that carry bytes of ranks x windows planned), read off "
        "the tables by wrapping ext2ph._prepare_model and AccessTable.window_pairs from here",
    )
    p.add_argument("--trace", default=None, metavar="PATH", help="write a Chrome trace")
    p.add_argument(
        "--json", default=None, metavar="PATH", help="write the summary JSON"
    )
    p.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="N",
        help="profile a chaos trial for this seed instead of a sweep point "
        "(fault/recovery events land in the --trace timeline)",
    )
    return p


@contextlib.contextmanager
def pfs_clients():
    """Every :class:`PFSClient` a run creates (the runners keep their
    machines to themselves), to sum the clients' plain RPC counters."""
    made: list[PFSClient] = []
    init = PFSClient.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    PFSClient.__init__ = tracked
    try:
        yield made
    finally:
        PFSClient.__init__ = init


@functools.lru_cache(maxsize=4096)
def name_stem(name: str) -> str:
    """An event or process name with its digits dropped (``-`` if nothing is left)."""
    return re.sub(r"[0-9]+", "", name) or "-"


def event_kind(event) -> str:
    """``class : name stem : first callback`` of an event about to fire.

    The stem is the event's name with its digits dropped (``acquire:srv3.workers``
    and ``acquire:srv0.workers`` are one kind); the callback is what the fire
    will run first — the resumed process, the chain step, or nothing.  A
    scheduled call is the callable itself: ``call : - : <its qualname>``.
    """
    if isinstance(event, Event):
        kind, name = type(event).__name__, event.name
        fn = event.callbacks[0] if event.callbacks else None
    else:
        kind, name, fn = "call", "", event
    fn = getattr(fn, "func", fn)  # a partial names the function it binds
    what = getattr(fn, "__qualname__", "-" if fn is None else type(fn).__name__)
    return f"{kind} : {name_stem(name)} : {what}"


def _next_event(sim):
    """``(when, event)`` the engine fires next, or ``None`` when it is dry."""
    if sim.kind == "slotted":
        if sim._lane:
            return sim.now, sim._lane[0]
        future = sim._future
        while future and not future[0][2]:
            heapq.heappop(future)  # an entry cancellation emptied: step() skips it too
        return (future[0][0], future[0][2][0]) if future else None
    return (sim._heap[0][0], sim._heap[0][2]) if sim._heap else None


@contextlib.contextmanager
def event_kinds():
    """Tally every event the engines fire, by :func:`event_kind`.

    Both engines' ``run`` is replaced, for the duration, by the same loop
    over the public ``step()`` with a look at the head of the event list
    before each one — the simulator itself carries no hook for this.
    """
    tally: Counter = Counter()

    def run(sim, until=None):
        sentinel = until if isinstance(until, Event) else None
        deadline = float("inf") if until is None or sentinel is not None else float(until)
        while sentinel is None or not sentinel._fired:
            nxt = _next_event(sim)
            if nxt is None or nxt[0] > deadline:
                if sentinel is not None:
                    raise sim._deadlock(sentinel)
                break
            tally[event_kind(nxt[1])] += 1
            sim.step()
        if sentinel is not None:
            if sentinel._ok:
                return sentinel._value
            raise sentinel._value
        if until is not None and sim.now < deadline:
            sim.now = deadline
        return None

    saved = {cls: cls.run for cls in (HeapSimulator, Simulator)}
    for cls in saved:
        cls.run = run
    try:
        yield tally
    finally:
        for cls, original in saved.items():
            cls.run = original


def print_events(tally: Counter, n: int) -> None:
    total = sum(tally.values())
    print(f"top {min(n, len(tally))} of {len(tally)} event kinds ({total:,d} events fired):")
    print(f"  {'count':>9} {'share':>6}  class : name stem : first callback")
    for kind, count in tally.most_common(n):
        print(f"  {count:>9,d} {count / max(1, total):>6.1%}  {kind}")


@functools.lru_cache(maxsize=None)
def resume_kind(name: str) -> str:
    """``name stem x ranks stood for`` of a process: a class of ranks runs
    as one process named ``rank<first>+<others>``, anything else stands for
    itself."""
    stood_for = re.fullmatch(r"rank[0-9]+\+([0-9]+)", name)
    ranks = 1 + int(stood_for.group(1)) if stood_for else 1
    return f"{name_stem(name)} x{ranks}"


@contextlib.contextmanager
def process_resumes():
    """Tally every process resume as :func:`resume_kind` -> ``[resumes,
    processes, {waited-on event kind: [resumes, inclusive seconds]}]`` —
    who wakes, for what (the event's class and its name with the digits
    dropped), and what the wake costs the host, everything the resumed
    process then does included.

    ``Process._resume`` is wrapped for the duration — every wait a process
    makes registers the method afresh, so nothing in ``src`` needs a hook.
    """
    tally: dict[str, list] = {}
    seen: set[Process] = set()  # kept alive: an id could come round again
    resume = Process._resume

    def counted(proc, event):
        row = tally.setdefault(resume_kind(proc.name), [0, 0, {}])
        row[0] += 1
        if proc not in seen:
            seen.add(proc)
            row[1] += 1
        what = f"{type(event).__name__} : {name_stem(event.name)}"
        waited = row[2].setdefault(what, [0, 0.0])
        waited[0] += 1
        t0 = time.perf_counter()
        try:
            resume(proc, event)
        finally:
            waited[1] += time.perf_counter() - t0

    Process._resume = counted
    try:
        yield tally
    finally:
        Process._resume = resume


def print_resumes(tally: dict, n: int) -> None:
    total = sum(row[0] for row in tally.values())
    rows = sorted(tally.items(), key=lambda kv: kv[1][0], reverse=True)
    print(f"top {min(n, len(rows))} of {len(rows)} process kinds ({total:,d} resumes):")
    print(f"  {'resumes':>9} {'share':>6} {'processes':>9}  name stem x ranks each stands for")
    print(f"  {'':>9} {'':>6} {'incl. us':>9}    ... and the event kinds it waited on")
    for kind, (resumes, processes, waited) in rows[:n]:
        print(f"  {resumes:>9,d} {resumes / max(1, total):>6.1%} {processes:>9,d}  {kind}")
        for what, (count, seconds) in sorted(waited.items(), key=lambda kv: -kv[1][0]):
            print(f"  {count:>9,d} {'':>6} {seconds * 1e6:>9,.0f}    {what}")


def held_bytes(table) -> int:
    """Bytes behind a table: its arrays and those its views built for
    themselves (each owning array once — a slice counts as what it is cut
    from, a broadcast as the scalar it repeats) plus its per-rank lists.
    The view objects themselves, some 200 bytes a rank, are not counted."""
    owners: dict[int, int] = {}

    def add(value) -> None:
        if isinstance(value, tuple):
            for item in value:
                add(item)
        elif isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            owners[id(value)] = value.nbytes
        elif isinstance(value, list):
            owners[id(value)] = sys.getsizeof(value)

    for holder in (table, *table._views):
        if holder is not None:  # not its truth value: len() reads a view's extents
            for value in vars(holder).values():
                add(value)
    return sum(owners.values())


@contextlib.contextmanager
def access_tables():
    """Every distinct table the run's collective writes planned from, as
    ``id -> [table, memo hits, misses, skips, pairs, cells]``.

    ``ext2ph._prepare_model`` — where a call meets the model memo — is
    wrapped for the duration and asks ``model_memo`` what it is about to be
    asked; a skip is a call whose pattern is kept out of the memo (a CSR
    table over the per-rank extent cap).  ``AccessTable.window_pairs`` is
    wrapped too: a call that plans (a miss or a skip) adds the pairs that
    carry bytes and its ranks × windows.  Nothing in ``src`` carries a hook.
    """
    from repro.access import AccessTable
    from repro.romio import ext2ph

    seen: dict[int, list] = {}  # holds the tables: an id could come round again
    prepare, window_pairs = ext2ph._prepare_model, AccessTable.window_pairs

    def pairs(table, bounds):
        out = window_pairs(table, bounds)
        row = seen.get(id(table))
        if row is not None:
            nwin, per_row = np.shape(bounds)
            row[4] += len(out[0])
            row[5] += table.nranks * nwin * max(per_row - 1, 0)
        return out

    def tracked(fd, call):
        row = seen.setdefault(id(call.table), [call.table, 0, 0, 0, 0, 0])
        key = ext2ph._model_memo_key(fd, call, fd.hints.cb_buffer_size)
        if key is None:
            row[3] += 1
        else:
            row[1 if ext2ph.model_memo.get(key) is not None else 2] += 1
        prepare(fd, call)

    ext2ph._prepare_model, AccessTable.window_pairs = tracked, pairs
    try:
        yield seen
    finally:
        ext2ph._prepare_model, AccessTable.window_pairs = prepare, window_pairs


def table_rows(seen: dict) -> list[dict]:
    return [
        {
            "form": "csr" if t.levels is None else f"strided {len(t.levels)} levels",
            "ranks": t.nranks,
            "extents": len(t),
            "held_bytes": held_bytes(t),
            "flattened": t.levels is None or "offsets" in vars(t),
            "memo_hits": hits,
            "memo_misses": misses,
            "memo_skips": skips,
            "pairs": pairs,
            "cells": cells,
        }
        for t, hits, misses, skips, pairs, cells in seen.values()
    ]


def print_tables(rows: list[dict]) -> None:
    print(f"{len(rows)} distinct access tables (model memo: calls that hit/missed/skipped it):")
    print(
        f"  {'form':<17} {'ranks':>6} {'extents':>11} {'held_bytes':>11} flattened  "
        f"memo h/m/s  pairs with bytes / ranks x windows"
    )
    for row in rows:
        memo = f"{row['memo_hits']}/{row['memo_misses']}/{row['memo_skips']}"
        share = row["pairs"] / row["cells"] if row["cells"] else 0.0
        print(
            f"  {row['form']:<17} {row['ranks']:>6,d} {row['extents']:>11,d} "
            f"{row['held_bytes']:>11,d} {'yes' if row['flattened'] else 'no':<9}  "
            f"{memo:<10}  {row['pairs']:,d} / {row['cells']:,d} ({share:.1%})"
        )


def rpc_summary(clients: list[PFSClient]) -> dict:
    return {
        "rpcs": sum(c.rpcs for c in clients),
        "plan_memo": {k: v._asdict() for k, v in plan_memo_info().items()},
    }


def print_top(snapshot: dict, n: int, pfs: dict) -> None:
    """The ``--top N`` table: hottest profiler timers, largest counters, the
    access-table / model-memo / stripe-plan hit rates, the RPC count and the
    park-once / live shares.

    Timers are cumulative wall-clock seconds inside instrumented components
    (``fabric.recompute``, ``fabric.fill_solve``, ...) collected by the run's
    own :class:`~repro.sim.profile.SimProfiler` — unlike ``--cprofile`` this
    costs two clock reads per instrumented span, so the run it describes is
    the run you measured.
    """
    timings = snapshot.get("timings_s", {})
    calls = snapshot.get("timer_calls", {})
    rows = sorted(timings.items(), key=lambda kv: kv[1], reverse=True)[:n]
    print(f"top {min(n, len(rows)) or n} timers by cumulative wall seconds:")
    if not rows:
        print("  (no instrumented timers fired in this run)")
    else:
        print(f"  {'timer':<32} {'wall_s':>10} {'calls':>10} {'avg_us':>10}")
        for key, secs in rows:
            c = calls.get(key, 0)
            avg = secs / c * 1e6 if c else 0.0
            print(f"  {key:<32} {secs:>10.4f} {c:>10d} {avg:>10.1f}")
    counters = snapshot.get("counters", {})
    crows = sorted(counters.items(), key=lambda kv: kv[1], reverse=True)[:n]
    print(f"top {min(n, len(crows)) or n} counters:")
    if not crows:
        print("  (no counters bumped in this run)")
    for key, value in crows:
        print(f"  {key:<32} {value:>14,d}")
    # The host-side memos, always shown (their counts are small and would
    # rarely make the top N): a collective call either reuses a table some
    # step already built, or packs ad-hoc accesses into a fresh one.
    build, reuse, adhoc = (
        counters.get(f"access.table_{k}", 0) for k in ("build", "reuse", "gather_adhoc")
    )
    hit, miss = (counters.get(f"ext2ph.model_cache_{k}", 0) for k in ("hit", "miss"))
    print("memos:")
    print(
        f"  access tables: {build} built, {reuse} calls reused one, {adhoc} gathered "
        f"ad hoc (reuse share {reuse / max(1, reuse + adhoc):.3f}, "
        f"{reuse / max(1, build):.1f} calls per build)"
    )
    print(
        f"  ext2ph model memo: {hit} hits, {miss} misses "
        f"(hit share {hit / max(1, hit + miss):.3f})"
    )
    for name, info in pfs["plan_memo"].items():
        print(
            f"  stripe plans ({name}): {info['hits']} hits, {info['misses']} misses, "
            f"{info['currsize']} of {info['maxsize']} entries"
        )
    print(f"PFS client RPCs: {pfs['rpcs']} issued")
    # How the rank-calls of the collective writes crossed them: on one
    # resume (everyone but the writers of a call that runs on its clock), or
    # live (the writers; every rank of a call ext2ph.call_paths refuses its
    # clock: the reference stack's heapq engine, any romio_cb_write but
    # enable) — "why was this point slow" starts with
    # the share that fell back to the live path.
    single, live = (counters.get(f"ext2ph.park_{k}", 0) for k in ("single", "live"))
    print("collective-write rank-calls:")
    print(
        f"  {single} on one resume, {live} live "
        f"(one-resume share {single / max(1, single + live):.3f}, "
        f"live share {live / max(1, single + live):.3f})"
    )


def tallied(args: argparse.Namespace):
    """The event tally when ``--events`` asks for one, else nothing."""
    return event_kinds() if args.events else contextlib.nullcontext()


def resumed(args: argparse.Namespace):
    """The resume tally when ``--resumes`` asks for one, else nothing."""
    return process_resumes() if args.resumes else contextlib.nullcontext()


def listed(args: argparse.Namespace):
    """The access tables when ``--tables`` asks for them, else nothing."""
    return access_tables() if args.tables else contextlib.nullcontext()


def report(args: argparse.Namespace, summary: dict, tally, resumes, tables) -> None:
    """The summary JSON, then the tables that were asked for."""
    if tally is not None:
        summary["event_kinds"] = dict(tally.most_common())
    if tables is not None:
        summary["access_tables"] = table_rows(tables)
    if resumes is not None:
        summary["process_resumes"] = {
            kind: {
                "resumes": r,
                "processes": p,
                "waited_on": {
                    what: {"resumes": n, "inclusive_us": seconds * 1e6}
                    for what, (n, seconds) in waited.items()
                },
            }
            for kind, (r, p, waited) in resumes.items()
        }
    print(json.dumps(summary, indent=2, sort_keys=True))
    if args.top:
        print_top(summary["profiler"], args.top, summary["pfs"])
    if tally is not None:
        print_events(tally, args.events)
    if resumes is not None:
        print_resumes(resumes, args.resumes)
    if tables is not None:
        print_tables(summary["access_tables"])
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}", file=sys.stderr)


def run_chaos_point(args: argparse.Namespace) -> int:
    """Profile one chaos trial; the traced timeline carries fault events."""
    from repro.chaos import ChaosTrialSpec, run_chaos_trial

    if args.reference:
        raise SystemExit("--chaos-seed runs both stacks; --reference does not apply")
    if args.cache_mode not in CHAOS_CACHE_MODES:
        raise SystemExit(
            f"--chaos-seed supports --cache-mode {'/'.join(CHAOS_CACHE_MODES)}, "
            f"not {args.cache_mode!r}"
        )

    profiler = SimProfiler()
    spec = ChaosTrialSpec(
        seed=args.chaos_seed,
        benchmark=args.benchmark,
        cache_mode=args.cache_mode,
        scale=args.scale,
        **({} if args.num_files is None else {"num_files": args.num_files}),
    )
    prof = cProfile.Profile() if args.cprofile else None
    t0 = time.perf_counter()
    if prof is not None:
        prof.enable()
    with pfs_clients() as clients, tallied(args) as tally, resumed(args) as resumes:
        with listed(args) as tables:
            result = run_chaos_trial(spec, trace=True, profiler=profiler)
    if prof is not None:
        prof.disable()
    wall = time.perf_counter() - t0

    tracer = result.tracers["production"]
    fault_events = sum(1 for _ in tracer.filter(component="faults"))
    recovery_events = sum(1 for _ in tracer.filter(component="recovery"))
    summary = {
        "spec": {
            "benchmark": spec.benchmark,
            "chaos_seed": spec.seed,
            "cache_mode": spec.cache_mode,
            "scale": spec.scale,
        },
        "wall_s": wall,
        "outcome": result.outcome,
        "ok": result.ok,
        "violations": result.violations,
        "events_production": result.events_production,
        "events_reference": result.events_reference,
        "trace_fault_events": fault_events,
        "trace_recovery_events": recovery_events,
        "profiler": profiler.snapshot(),
        "pfs": rpc_summary(clients),
    }
    report(args, summary, tally, resumes, tables)
    if args.trace:
        tracer.write_chrome_trace(args.trace, profiler=profiler)
        print(f"wrote {args.trace}", file=sys.stderr)
    if prof is not None:
        stats = pstats.Stats(prof, stream=sys.stderr).sort_stats("tottime")
        stats.print_stats(args.cprofile)
    return 0 if result.ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.chaos_seed is not None:
        return run_chaos_point(args)
    if args.cache_mode not in CACHE_MODES:
        raise SystemExit(
            f"sweep points support --cache-mode {'/'.join(CACHE_MODES)}, "
            f"not {args.cache_mode!r} (chaos-only; pass --chaos-seed)"
        )
    spec = ExperimentSpec(
        benchmark=args.benchmark,
        aggregators=args.aggregators,
        cb_buffer=args.cb_mib * MiB,
        cache_mode=args.cache_mode,
        scale=args.scale,
        **({} if args.num_files is None else {"num_files": args.num_files}),
    )
    profiler = SimProfiler()
    prof = cProfile.Profile() if args.cprofile else None
    t0 = time.perf_counter()
    if prof is not None:
        prof.enable()
    with pfs_clients() as clients, tallied(args) as tally, resumed(args) as resumes:
        with listed(args) as tables:
            result = run_experiment(spec, profiler=profiler, reference=args.reference)
    if prof is not None:
        prof.disable()
    wall = time.perf_counter() - t0

    summary = {
        "spec": {
            "benchmark": spec.benchmark,
            "label": spec.label,
            "cache_mode": spec.cache_mode,
            "scale": spec.scale,
            "num_files": spec.num_files,
            "stack": "reference" if args.reference else "production",
        },
        "wall_s": wall,
        "events_fired": result.events,
        "events_per_sec": result.events / wall if wall else 0.0,
        "bw_gib_s": result.bw / (1 << 30),
        "profiler": profiler.snapshot(),
        "pfs": rpc_summary(clients),
    }
    report(args, summary, tally, resumes, tables)
    if args.trace:
        # The run's Tracer was off (benchmarks pay nothing for tracing), so
        # the export carries the profiler counters; pass --trace together
        # with a traced Machine run to overlay a full timeline.
        from repro.sim.trace import Tracer

        Tracer(enabled=False).write_chrome_trace(args.trace, profiler=profiler)
        print(f"wrote {args.trace}", file=sys.stderr)
    if prof is not None:
        stats = pstats.Stats(prof, stream=sys.stderr).sort_stats("tottime")
        stats.print_stats(args.cprofile)
    return 0


if __name__ == "__main__":
    sys.exit(main())
