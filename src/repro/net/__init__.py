"""Interconnect model: NIC-contended flows and rank-to-rank messaging (paper §IV testbed)."""

from repro.net.fabric import Fabric, Flow, Link, create_fabric
from repro.net.message import Mailbox, Message, Transport

__all__ = [
    "Fabric",
    "Flow",
    "Link",
    "Mailbox",
    "Message",
    "Transport",
    "create_fabric",
]
