"""Interconnect model: NIC-contended flows between nodes (paper §IV testbed)."""

from repro.net.fabric import Fabric, Flow, Link, create_fabric

__all__ = [
    "Fabric",
    "Flow",
    "Link",
    "create_fabric",
]
