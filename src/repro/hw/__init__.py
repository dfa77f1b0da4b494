"""Hardware models: storage devices and compute nodes.

Paper correspondence: §IV-A testbed hardware (SSD scratch devices,
RAID6 server targets, node RAM).
"""

from repro.hw.devices import SSDDevice, StorageDevice
from repro.hw.flash import (
    SSD_KINDS,
    FlashSSDDevice,
    NVMMDevice,
    create_node_ssd,
    default_ssd_kind,
)
from repro.hw.node import ComputeNode

__all__ = [
    "ComputeNode",
    "FlashSSDDevice",
    "NVMMDevice",
    "SSDDevice",
    "SSD_KINDS",
    "StorageDevice",
    "create_node_ssd",
    "default_ssd_kind",
]
