"""Rank-to-rank message transport with MPI-style (source, tag) matching.

Each rank owns a :class:`Mailbox`.  A send charges the sender the
per-message CPU overhead, starts a fabric flow between the two ranks' nodes,
and enqueues the message in the destination mailbox once the flow (plus
latency) completes.  Receives match on ``(source, tag)`` with wildcard
support, in MPI's non-overtaking order (messages between the same pair with
the same tag are matched in send order — guaranteed here because matching is
FIFO over arrival order and flows between a fixed pair complete in start
order under fair sharing of identical link sets).

Paper correspondence: the transport under the §II-A shuffle and the
§III sync traffic; contention is modelled by :mod:`repro.net.fabric`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.net.fabric import Fabric
from repro.sim.core import Event, Simulator

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass
class Message:
    source: int
    dest: int
    tag: int
    payload: Any
    nbytes: int
    seq: int = 0


@dataclass
class _PendingRecv:
    source: int
    tag: int
    event: Event


class Mailbox:
    """Per-rank unexpected-message queue plus posted-receive list."""

    def __init__(self, sim: Simulator, rank: int):
        self.sim = sim
        self.rank = rank
        self.unexpected: list[Message] = []
        self.posted: list[_PendingRecv] = []

    def deliver(self, msg: Message) -> None:
        for idx, pr in enumerate(self.posted):
            if _matches(pr.source, pr.tag, msg):
                del self.posted[idx]
                pr.event.succeed(msg)
                return
        self.unexpected.append(msg)

    def post_recv(self, source: int, tag: int) -> Event:
        ev = Event(self.sim, name=f"recv:r{self.rank}")
        for idx, msg in enumerate(self.unexpected):
            if _matches(source, tag, msg):
                del self.unexpected[idx]
                ev.succeed(msg)
                return ev
        self.posted.append(_PendingRecv(source, tag, ev))
        return ev


def _matches(want_source: int, want_tag: int, msg: Message) -> bool:
    return (want_source in (ANY_SOURCE, msg.source)) and (want_tag in (ANY_TAG, msg.tag))


def _by_msg_seq(member: tuple[Message, Event]) -> int:
    return member[0].seq


class Transport:
    """Moves messages between ranks over the fabric.

    On a fabric that bundles (``Fabric.bundles``: the production allocator,
    not :class:`~repro.reference.NaiveFabric`), exactly where a PFS client
    bundles its stripe runs, same-instant sends between the same
    node pair with the same byte count join one weighted fabric flow (see
    :meth:`~repro.net.fabric.Fabric.grow_flow`) instead of each starting
    their own.  Identical flows complete at the same timestamp either way.
    Because un-coalesced flows deliver in global send order even when
    several complete at one instant (their completion events fire in flow
    order = send order), bundle arrivals are buffered per instant and
    delivered by one flush event in message-seq order — the exact
    continuation order of the per-send path, so matching and
    non-overtaking semantics are untouched and only the event count drops.
    """

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        rank_to_node: list[int],
        per_message_overhead: float,
    ):
        self.sim = sim
        self.fabric = fabric
        self.rank_to_node = list(rank_to_node)
        self.per_message_overhead = float(per_message_overhead)
        # The fabric decides, once: see Fabric.bundles.
        self.coalesce = fabric.bundles
        # Per-job accounting tag (fleet): credited to every fabric flow this
        # transport starts.  None (the single-job default) costs nothing.
        self.tag: str | None = None
        self.mailboxes = [Mailbox(sim, r) for r in range(len(rank_to_node))]
        self._seq = 0
        self.messages_sent = 0
        self.sends_coalesced = 0
        # Open bundles, valid only for the current instant:
        # (src_node, dst_node, nbytes) -> (flow done event, member list).
        self._bundles: dict[tuple[int, int, int], tuple[Event, list]] = {}
        self._bundle_time = -1.0
        # Arrived-but-undelivered members; drained (in seq order) by one
        # zero-delay flush event per completion instant.
        self._arrivals: list[tuple[Message, Event]] = []

    def node_of(self, rank: int) -> int:
        return self.rank_to_node[rank]

    def send(self, source: int, dest: int, tag: int, payload: Any, nbytes: int) -> Event:
        """Start a send; the returned event fires when the transfer completes
        locally (the data has left the sender — eager/rendezvous completion).
        Delivery into the destination mailbox happens at arrival time.
        """
        self._seq += 1
        self.messages_sent += 1
        msg = Message(source, dest, tag, payload, int(nbytes), self._seq)
        send_done = Event(self.sim, name=f"send:r{source}->r{dest}")
        src_node = self.node_of(source)
        dst_node = self.node_of(dest)
        if self.coalesce and nbytes > 0:
            key = (src_node, dst_node, int(nbytes))
            if self._bundle_time != self.sim.now:
                self._bundles.clear()
                self._bundle_time = self.sim.now
            entry = self._bundles.get(key)
            if entry is not None and self.fabric.grow_flow(entry[0], nbytes):
                entry[1].append((msg, send_done))
                self.sends_coalesced += 1
                return send_done
            flow_done = self.fabric.start_flow(src_node, dst_node, nbytes, tag=self.tag)
            members = [(msg, send_done)]
            self._bundles[key] = (flow_done, members)

            def _bundle_arrived(ev: Event) -> None:
                if not self._arrivals:
                    flush = Event(self.sim, name="xport-deliver")
                    flush.callbacks.append(self._deliver_arrivals)
                    flush.succeed()
                self._arrivals.extend(members)

            flow_done.callbacks.append(_bundle_arrived)
            return send_done
        flow_done = self.fabric.start_flow(src_node, dst_node, nbytes, tag=self.tag)

        def _arrived(ev: Event) -> None:
            self.mailboxes[dest].deliver(msg)
            send_done.succeed()

        flow_done.callbacks.append(_arrived)
        return send_done

    def _deliver_arrivals(self, ev: Event) -> None:
        arrivals, self._arrivals = self._arrivals, []
        # Seq order == send order == the order the per-send path's flow
        # completions would have delivered these at this instant.
        arrivals.sort(key=_by_msg_seq)
        for msg, send_done in arrivals:
            self.mailboxes[msg.dest].deliver(msg)
            send_done.succeed()

    def post_recv(self, rank: int, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Event:
        return self.mailboxes[rank].post_recv(source, tag)
