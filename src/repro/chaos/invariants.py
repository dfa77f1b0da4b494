"""Global invariant checking for chaos runs.

An :class:`InvariantMonitor` attaches to one :class:`~repro.machine.Machine`
and watches three families of properties that must hold *no matter what the
fault schedule does*:

**Conservation of bytes** (the ``machine.io_stats`` ledger).  At every event
boundary the bytes acknowledged to the application equal the bytes that
entered the cache plus the bytes written directly, and no byte leaves the
cache (flush / replay / policy discard) that never entered it.  At
quiescence the equation closes exactly: every cached byte is flushed,
replayed, discarded by policy, or still sitting in a *registered* journal —
and bytes reported lost via ``SyncFailedError`` are a subset of what the
journals still hold (a "lost" extent is never silently dropped from the
recovery metadata).

**Journal / lock coherence** (cache-journal ↔ stripe-ref ↔ PFS lock state).
A stripe lock is never simultaneously write- and read-held; at quiescence no
waiter is left queued (an interrupted waiter must have been abandoned, not
leaked); every stripe-ref a journal holds is backed by a write-held lock;
and every write-held lock is referenced by some registered journal — a
held lock with no journal pointing at it is *orphaned*: crash recovery
forgot to revoke the dead owner's lease.

**Progress** (the no-progress watchdog).  A periodic tick observes the event
heap; if the heap runs dry while registered processes are still alive, the
simulation can never advance again and the watchdog raises a diagnosed
:class:`~repro.sim.core.DeadlockError` naming each blocked process and what
it is waiting on.  (The kernel's ``run(until=event)`` raises the same
diagnosed error when its sentinel can no longer fire; the watchdog extends
the diagnosis to drains and fire-and-forget phases.)

The monitor only *reads* simulated state — attaching it never changes any
simulated quantity except the diagnostic event count (watchdog ticks).

**Integrity** (:func:`verify_files`, run once the harness is done): each
file persists exactly the bytes its workload covers, and whatever bytes it
stores are the payload function's — checked against the workload's access
tables, with no fault-free reference run.

Paper correspondence: none (robustness harness, DESIGN.md §9).
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

import numpy as np

from repro.intervals import IntervalSet
from repro.payload import payload_bytes
from repro.sim.core import DeadlockError, describe_blocked

_WATCHDOG = "invariant-watchdog"


def byte_conservation(io: dict, journals=None) -> list[str]:
    """Byte-conservation violations of one ``io_stats`` ledger (empty = clean).

    Always: application bytes split exactly into cached + direct (inflow).
    Running (no ``journals``): no byte leaves the cache that never entered
    it.  Quiescent (the journals registered against the ledger): every
    cached byte is flushed, replayed, discarded or still journaled, and
    bytes reported lost are a subset of what the journals still hold.
    """
    out: list[str] = []
    if io["bytes_app"] != io["bytes_cached"] + io["bytes_direct"]:
        out.append(
            f"byte conservation (inflow): bytes_app={io['bytes_app']} != "
            f"bytes_cached={io['bytes_cached']} + bytes_direct={io['bytes_direct']}"
        )
    outflow = io["bytes_flushed"] + io["bytes_replayed"] + io["bytes_discarded"]
    if journals is None:
        if outflow > io["bytes_cached"]:
            out.append(
                f"byte conservation (outflow): flushed+replayed+discarded="
                f"{outflow} exceeds bytes_cached={io['bytes_cached']}"
            )
        return out
    unflushed = sum(j.unflushed_bytes for j in journals)
    if io["bytes_cached"] != outflow + unflushed:
        out.append(
            f"byte conservation (quiescent): bytes_cached={io['bytes_cached']}"
            f" != flushed {io['bytes_flushed']} + replayed "
            f"{io['bytes_replayed']} + discarded {io['bytes_discarded']} + "
            f"journaled {unflushed}"
        )
    if io["bytes_lost"] > unflushed:
        out.append(
            f"loss accounting: bytes_lost={io['bytes_lost']} exceeds the "
            f"{unflushed} bytes still journaled — lost data vanished from "
            f"the recovery metadata"
        )
    return out


def verify_files(
    pfs, expected: Mapping[str, tuple], key_of: Callable[[str], int]
) -> list[str]:
    """Integrity violations of the files ``expected`` names (empty = clean).

    ``expected[path]`` is the ``(starts, ends)`` coverage the file must hold
    once written (:attr:`repro.workloads.base.Workload.coverage`).  Per
    file: its persisted runs and size equal that coverage (the first
    missing and the first extra run are named), and every byte it stores
    (flow fidelity stores them; model fidelity stores none) equals the
    payload function of ``key_of(path)`` at its offset (the first bad
    offset is named).  No reference run is needed: the access tables say
    where bytes belong and :mod:`repro.payload` what they are.
    """
    out: list[str] = []
    for path, (starts, ends) in expected.items():
        if not pfs.exists(path):
            out.append(f"{path}: missing file")
            continue
        f = pfs.lookup(path)
        want = IntervalSet(zip(starts.tolist(), ends.tolist()))
        if f.persisted != want:
            pairs = (("missing", want, f.persisted), ("extra", f.persisted, want))
            for what, have, of in pairs:
                for s, e in have:
                    gap = next(iter(of.gaps(s, e)), None)
                    if gap is not None:
                        out.append(f"{path}: {what} run [{gap[0]}, {gap[1]})")
                        break
        size = int(ends[-1]) if len(ends) else 0
        if f.size != size:
            out.append(f"{path}: size {f.size} != {size} covered")
        if f.extents:
            key = key_of(path)
            stored = IntervalSet((off, off + len(arr)) for off, arr in f.extents)
            for s, e in stored:
                bad = np.flatnonzero(f.read_back(s, e - s) != payload_bytes(key, s, e - s))
                if len(bad):
                    at = s + int(bad[0])
                    out.append(f"{path}: stored byte at offset {at} is not its payload")
                    break
    return out


class InvariantViolation(AssertionError):
    """A global invariant did not hold.  Carries all collected messages."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class InvariantMonitor:
    """Attach invariant checking to one machine.

    Violations are *collected* (deduplicated, in ``self.violations``) rather
    than raised, so a chaos trial can run to completion and report every
    broken property at once; only a deadlock aborts the run (nothing can
    execute past it anyway).
    """

    def __init__(self, machine, interval: float = 0.005):
        self.machine = machine
        self.sim = machine.sim
        self.interval = interval
        self.violations: list[str] = []
        self._seen: set[str] = set()
        self.ticks = 0
        self._watchdog = None
        # Opt the kernel into process tracking: every Process constructed
        # from here on self-registers, which is what turns a bare "event
        # list empty" into a diagnosed DeadlockError.
        if self.sim.process_registry is None:
            self.sim.process_registry = {}

    # -- recording ----------------------------------------------------------------
    def record(self, message: str) -> None:
        """Record a violation (deduplicated; callers may report their own)."""
        if message not in self._seen:
            self._seen.add(message)
            self.violations.append(message)

    _violate = record

    # -- the watchdog -------------------------------------------------------------
    def watch(self) -> None:
        """(Re)arm the no-progress watchdog for the next run phase.

        The tick process re-checks the running invariants every ``interval``
        simulated seconds and parks itself once the heap drains with no
        process left waiting; arm it again before each new phase.
        """
        if self._watchdog is None or not self._watchdog.is_alive:
            self._watchdog = self.sim.process(self._tick(), name=_WATCHDOG)

    def _tick(self):
        sim = self.sim
        while True:
            yield sim.timeout(self.interval)
            self.ticks += 1
            self.check_running()
            if not sim.pending:
                blocked = self._blocked()
                if blocked:
                    raise self._deadlock(blocked)
                return  # nothing left to watch; park until rearmed

    def _blocked(self) -> list[tuple[str, str]]:
        registry = self.sim.process_registry or {}
        return [
            (name, reason)
            for name, reason in describe_blocked(registry)
            if name != _WATCHDOG
        ]

    @staticmethod
    def _deadlock(blocked: list[tuple[str, str]]) -> DeadlockError:
        detail = "; ".join(f"{name}: {reason}" for name, reason in blocked)
        return DeadlockError(
            f"no-progress watchdog: event list empty with {len(blocked)} "
            f"process(es) still waiting — {detail}",
            blocked,
        )

    def drain(self) -> None:
        """Run the simulator until the event heap is empty.

        Stray failures of fire-and-forget events during teardown (e.g. a
        generalized request failing after its waiter already gave up) are
        recorded, not fatal.  If live processes remain once the heap is dry,
        that is a deadlock: raise the diagnosed error.
        """
        sim = self.sim
        while sim.pending:
            try:
                sim.run()
            except DeadlockError:
                raise
            except Exception as exc:  # unobserved event failure mid-teardown
                self._violate(f"unobserved failure during drain: {exc!r}")
        blocked = self._blocked()
        if blocked:
            raise self._deadlock(blocked)

    # -- running invariants (hold at every event boundary) -------------------------
    def check_running(self) -> None:
        for message in byte_conservation(self.machine.io_stats):
            self._violate(message)
        for entry in self.machine.pfs.locks.snapshot():
            if entry["writer"] and entry["readers"]:
                self._violate(
                    f"lock state: stripe ({self._file_label(entry['file_id'])}, "
                    f"{entry['stripe']}) is write-held with "
                    f"{entry['readers']} concurrent reader(s)"
                )

    # -- quiescent invariants (hold once the heap has drained) ---------------------
    def check_quiescent(self) -> list[str]:
        """Full conservation + coherence audit; returns all violations."""
        self.check_running()
        journals = self.machine.recovery.entries()
        for message in byte_conservation(self.machine.io_stats, journals):
            self._violate(message)  # inflow repeats check_running: deduplicated
        # WAL coherence (cache_kind=nvmm journals): no record is both torn
        # and durable, and every unflushed byte the journal claims must be
        # reconstructible from durable records — a torn append that somehow
        # entered `cached` without a durable retry would be unrecoverable
        # data the ledger still counts as safe.
        for journal in journals:
            wal = getattr(journal, "wal", None)
            if wal is None:
                continue
            durable = IntervalSet()
            for rec in wal.records:
                if rec.torn and rec.durable:
                    self._violate(
                        f"WAL coherence: record seq={rec.seq} on node "
                        f"{journal.node_id} is both torn and durable"
                    )
                if rec.durable:
                    durable.add(rec.offset, rec.offset + rec.nbytes)
            for start, end in journal.unflushed():
                missing = durable.gaps(start, end).total
                if missing:
                    self._violate(
                        f"WAL coherence: journal r{journal.rank} holds "
                        f"[{start}, {end}) as unflushed but {missing} byte(s) "
                        f"have no durable WAL record"
                    )
        # Journal -> lock direction: a live stripe ref must be write-held.
        locks = self.machine.pfs.locks
        referenced: set[tuple[int, int]] = set()
        for journal in journals:
            for stripe, refs in journal.stripe_refs.items():
                if refs <= 0:
                    continue
                referenced.add((journal.file_id, stripe))
                held = locks.held(journal.file_id, stripe)
                if held != "write":
                    self._violate(
                        f"journal/lock coherence: journal r{journal.rank} holds "
                        f"{refs} ref(s) on stripe "
                        f"({self._file_label(journal.file_id)}, {stripe}) "
                        f"but the lock is {held}"
                    )
        # Lock -> journal direction: no orphans, no leaked waiters.
        for entry in self.machine.pfs.locks.snapshot():
            key = (entry["file_id"], entry["stripe"])
            label = (self._file_label(entry["file_id"]), entry["stripe"])
            if entry["queued"]:
                self._violate(
                    f"lock state: {entry['queued']} waiter(s) still queued on "
                    f"stripe {label} at quiescence"
                )
            if (entry["writer"] or entry["readers"]) and key not in referenced:
                self._violate(
                    f"orphaned lock: stripe {label} is "
                    f"{'write' if entry['writer'] else 'read'}-held but no "
                    f"registered journal references it"
                )
        return list(self.violations)

    def _file_label(self, file_id: int) -> str:
        """Stable name for a PFS file id in violation messages.

        File ids come from a process-global counter, so the raw id differs
        between the two stacks' runs of one trial (and between replays);
        the path is deterministic.
        """
        for path, f in self.machine.pfs._files.items():
            if f.file_id == file_id:
                return path
        return f"fid{file_id}"

    def assert_clean(self) -> None:
        """Raise :class:`InvariantViolation` if anything was recorded."""
        if self.violations:
            raise InvariantViolation(list(self.violations))

    def summary(self) -> Optional[str]:
        return "; ".join(self.violations) if self.violations else None
