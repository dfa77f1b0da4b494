"""Hardware models: storage devices and compute nodes.

Paper correspondence: §IV-A testbed hardware (SSD scratch devices,
RAID6 server targets, node RAM).
"""

from repro.hw.devices import SSDDevice, StorageDevice
from repro.hw.flash import FlashSSDDevice, NVMMDevice, create_node_ssd
from repro.hw.node import ComputeNode

__all__ = [
    "ComputeNode",
    "FlashSSDDevice",
    "NVMMDevice",
    "SSDDevice",
    "StorageDevice",
    "create_node_ssd",
]
