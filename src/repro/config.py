"""Cluster, network, device and file-system configuration.

``deep_er_testbed()`` encodes the paper's evaluation platform (Section IV-A):
the DEEP-ER research cluster — 64 dual-socket Sandy Bridge nodes running 8
MPI ranks each, InfiniBand QDR, a BeeGFS installation with four data servers
backed by 8+2 RAID6 SAS targets, and one 30 GB ext4 SSD scratch partition
per node.  Calibration constants carry provenance comments tying them back
to the paper's measured ceilings (≈2 GB/s global file system, ≈20 GB/s
aggregate SSD cache at 64 aggregators, 8-aggregator flush ≈40 s > 30 s
compute delay).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from functools import cache, partial

from repro import options
from repro.units import GiB, KiB, MiB, USEC


def is_whole(value) -> bool:
    """An integer, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """A finite real number, not a bool."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and -math.inf < value < math.inf


@cache
def _domains(cls) -> tuple:
    """``(field, plain types, test, strict, top, what)`` per number of ``cls``."""
    out = []
    for f in fields(cls):
        if type(f.default) is int:
            types, test, what = (int,), is_whole, "a whole number"
            strict = f.name not in cls._zero_ok
        elif type(f.default) is float:
            types, test, what = (int, float), is_finite, "a finite number"
            strict = f.name.endswith("_bw") or f.name in cls._positive
        else:
            continue
        top = 1 if f.name in cls._fractions else math.inf
        what = f"{what} {'>' if strict else '>='} 0" + (" and <= 1" if top == 1 else "")
        out.append((f.name, types, test, strict, top, what))
    return tuple(out)


class Checked:
    """Base of a dataclass whose numbers are checked at construction: a
    field whose default is an int takes a whole number > 0 (>= 0 if named
    in ``_zero_ok``), one whose default is a float a finite number >= 0
    (> 0 for a bandwidth, ``*_bw``, or one named in ``_positive``), and one
    named in ``_fractions`` is <= 1 too; a ValueError names a bad field.  A
    plain int or float is checked without a call (NaN fails every test)."""

    _zero_ok: tuple = ()
    _positive: tuple = ()
    _fractions: tuple = ()

    def __post_init__(self):
        values = vars(self)
        for name, types, test, strict, top, what in _domains(type(self)):
            value = values[name]
            if (type(value) in types or test(value)) and (
                (value > 0 if strict else value >= 0) and value <= top and value < math.inf
            ):
                continue
            raise ValueError(f"{type(self).__name__}.{name}={value!r}: must be {what}")


@dataclass(frozen=True)
class NetworkConfig(Checked):
    """Interconnect model parameters (InfiniBand QDR defaults).

    ``nic_bw`` is the per-node injection/ejection bandwidth; the switch core
    is assumed non-blocking (true for the DEEP-ER fat tree at this scale),
    so contention arises only at NICs.  ``latency`` is the one-way small
    message latency; ``alpha_collective``/``beta_collective`` parameterise
    the LogGP-style cost of latency-bound collectives.
    """

    nic_bw: float = 3.2 * GiB  # QDR 4x ≈ 32 Gbit/s ≈ 3.2 GiB/s effective
    latency: float = 1.3 * USEC  # typical IB QDR MPI half round trip
    alpha_collective: float = 1.8 * USEC  # per-stage latency in tree collectives
    per_message_overhead: float = 0.4 * USEC  # CPU cost to post/match one message
    eager_threshold: int = 64 * KiB  # below this, sends complete without rendezvous
    # Intra-node (shared-memory) transport: a send is two memory copies, so
    # the effective per-node rate is about half the memcpy bandwidth.  This
    # is what bounds rank-ordered patterns (IOR segments, Flash-IO
    # variables) whose shuffle is entirely node-local.
    shm_bw: float = 2.0 * GiB
    # Per offset/length-pair CPU cost of the two-phase exchange: datatype
    # flattening, the heap merge in ADIOI_W_Exchange_data, and scattered
    # (non-streaming) memcpy of each piece.  This is what makes coll_perf's
    # 2 KB-strided pattern several times slower than the contiguous
    # Flash-IO/IOR patterns at equal volume — calibrated so coll_perf's
    # cached peak lands near the paper's ≈20 GB/s while Flash-IO (8 large
    # pieces per aggregator round) stays near its ≈40 GB/s.
    piece_overhead: float = 2e-6

    _zero_ok = ("eager_threshold",)


@dataclass(frozen=True)
class SSDConfig(Checked):
    """Node-local SATA SSD (80 GB, 30 GB ext4 scratch in the paper)."""

    write_bw: float = 0.45 * GiB  # sustained sequential write, SATA-2 era SSD
    read_bw: float = 0.50 * GiB  # sustained sequential read
    latency: float = 60 * USEC  # per-request device latency
    capacity: int = 30 * GiB  # the /scratch partition size


@dataclass(frozen=True)
class FlashConfig(Checked):
    """Flash geometry + FTL knobs for the ``REPRO_SSD=ftl`` device model.

    Timing constants follow the NVM characterization of Liu et al.
    (arXiv:1705.03598, MLC-era SATA parts) and ONFI-style organisation:
    16 KiB pages, 256-page (4 MiB) erase blocks, 8 independent LUNs.  The
    per-page program time is calibrated so that large sequential writes on
    a fresh drive sustain the same ≈0.45 GiB/s as :class:`SSDConfig`
    (8 LUNs × 16 KiB / 260 µs ≈ 0.47 GiB/s before the SATA bus cap), which
    keeps the paper's Table-II experiments comparable across device tiers;
    the *difference* between the tiers — GC stalls and write amplification
    under steady overwrite — emerges from the FTL, not from the constants.
    """

    page_size: int = 16 * KiB
    pages_per_block: int = 256  # 4 MiB erase block
    num_luns: int = 8  # independently programmable dies
    read_page_time: float = 90e-6  # tR + transfer of one 16 KiB page
    program_page_time: float = 260e-6  # tPROG (MLC average)
    erase_block_time: float = 3.5e-3  # tBERS
    bus_bw: float = 0.50 * GiB  # SATA-2 host interface ceiling
    # Physical blocks beyond the advertised capacity.  7% matches consumer
    # parts of the era; the OP pool is what the garbage collector consumes
    # before it must stall host writes.
    over_provisioning: float = 0.07
    # Greedy GC engages when a LUN's free-block pool falls below this
    # fraction of its physical blocks (foreground GC; there is no idle-time
    # background collector, matching the worst case the sync thread's
    # steady overwrite load produces).
    gc_free_fraction: float = 0.02

    _fractions = ("over_provisioning", "gc_free_fraction")


@dataclass(frozen=True)
class NVMMConfig(Checked):
    """Byte-addressable non-volatile memory (the ``cache_kind=nvmm`` tier).

    An NVCache-style (arXiv:2105.10397) DIMM-attached persistent memory
    region used as a write-ahead log: loads/stores at near-DRAM bandwidth
    with an explicit persistence barrier (CLWB+SFENCE) whose cost is paid
    once per WAL record.  Write bandwidth below read reflects the measured
    asymmetry of 3D-XPoint-class parts (Liu et al., arXiv:1705.03598).
    """

    read_bw: float = 2.2 * GiB
    write_bw: float = 1.4 * GiB
    latency: float = 1.2 * USEC  # per-access software + media latency
    persist_barrier: float = 0.8 * USEC  # CLWB + SFENCE drain per record
    capacity: int = 16 * GiB  # the per-node log region
    record_header: int = 64  # WAL header: seq, offset, length, CRC

    _zero_ok = ("record_header",)


@dataclass(frozen=True)
class HDDConfig(Checked):
    """One BeeGFS storage target: an 8+2 RAID6 group of 2 TB SAS drives."""

    stream_bw: float = 0.58 * GiB  # RAID6 group sequential write ≈ 600 MB/s
    seek_time: float = 6e-3  # average head movement + rotational latency
    capacity: int = 64 * 1024 * GiB
    # Fraction of the seek penalty charged when a request is sequential with
    # the previous one on the same target (track-to-track, cache hits).
    sequential_seek_factor: float = 0.04

    _fractions = ("sequential_seek_factor",)


@dataclass(frozen=True)
class RAMConfig(Checked):
    """Node memory and the page-cache model for the local ext4 scratch FS."""

    capacity: int = 32 * GiB
    memcpy_bw: float = 4.0 * GiB  # single-stream page-cache copy bandwidth
    # Linux-like dirty throttling: buffered writes proceed at memcpy speed
    # until dirty bytes exceed dirty_ratio * capacity, then at device speed.
    dirty_ratio: float = 0.20

    _positive = ("dirty_ratio",)
    _fractions = ("dirty_ratio",)


@dataclass(frozen=True)
class PFSConfig(Checked):
    """BeeGFS-like parallel file system (Section IV-A).

    Four data servers gives the ≈2.2 GiB/s aggregate ceiling the paper
    measures as the cache-disabled plateau.  ``rpc_overhead`` is the
    per-request client+server software cost; ``per_client_max_bw`` caps a
    single client stream (TCP/RDMA window + single-threaded worker), which
    is what makes the 512 KiB-chunk flush from only 8 aggregators too slow
    to hide inside the 30 s compute delay (8 × 4 GiB / 0.105 GiB/s ≈ 40 s,
    paper Fig. 4/5's not_hidden_sync at 8 aggregators).
    """

    num_data_servers: int = 4
    num_metadata_servers: int = 1
    default_stripe_size: int = 4 * MiB  # paper fixes the stripe size to 4 MB
    default_stripe_count: int = 4  # and the stripe count to 4
    server_ingest_bw: float = 1.1 * GiB  # server-side network + buffer copy
    rpc_overhead: float = 350 * USEC  # request setup/teardown on the server
    client_rpc_overhead: float = 60 * USEC  # client-side per-RPC CPU cost
    per_client_max_bw: float = 0.58 * GiB  # one client's max streaming rate
    # Small independent writes pay the full RPC + seek path and reach only a
    # fraction of the streaming rate; collective 4 MiB stripes amortise it.
    jitter_sigma: float = 0.35  # lognormal service-time spread (load imbalance)
    num_server_workers: int = 4  # BeeGFS worker threads per data server
    # Concurrent sequential streams the target firmware / elevator can track
    # before interleaved writers start paying full seeks.  Sized above the
    # largest aggregator count (64) so collective streams stay sequential.
    server_max_streams: int = 128
    # Server-side write-back cache (BeeGFS buffered mode): a write RPC is
    # acknowledged once the data is in the server's cache; a drain daemon
    # streams it to the RAID target.  The modest dirty limit means sustained
    # collective writes settle to the disks' aggregate rate (the paper's
    # ≈2 GB/s plateau) while decoupling two-phase round synchronisation
    # from disk-arm scheduling.
    server_cache_bytes: int = 1 * GiB
    server_drain_chunk: int = 4 * MiB
    # The cache sync thread issues *synchronous* 512 KiB writes (blocking
    # pwrite loop in a single pthread): each chunk pays a full client/kernel/
    # network round trip on top of server processing.  Calibrated so one
    # sync thread sustains ≈95 MB/s — which makes an 8-aggregator flush of
    # 4 GiB/aggregator take ≈42 s, over the paper's 30 s compute delay
    # (Fig. 4/5 not_hidden_sync), while 16+ aggregators hide completely.
    sync_client_rtt: float = 4.0e-3
    metadata_op_time: float = 900 * USEC  # create/open/close/stat at the MDS
    lock_rpc_time: float = 90 * USEC  # distributed lock acquire/release RPC
    hdd: HDDConfig = field(default_factory=HDDConfig)


@dataclass(frozen=True)
class ClusterConfig(Checked):
    """Full machine description plus simulation fidelity knobs."""

    num_nodes: int = 64
    procs_per_node: int = 8
    network: NetworkConfig = field(default_factory=NetworkConfig)
    ssd: SSDConfig = field(default_factory=SSDConfig)
    flash: FlashConfig = field(default_factory=FlashConfig)
    nvmm: NVMMConfig = field(default_factory=NVMMConfig)
    ram: RAMConfig = field(default_factory=RAMConfig)
    pfs: PFSConfig = field(default_factory=PFSConfig)
    seed: int = 2016
    # Node-local device tier: "stream" is the seek+stream SSDDevice
    # (byte-identical to pre-FTL results), "ftl" the page/block/LUN flash
    # model (repro.hw.flash).  Unless given, REPRO_SSD picks it when the
    # config is built; the result-cache fingerprint includes it.
    ssd_kind: str = field(default_factory=partial(options.get, "REPRO_SSD"))
    # Fidelity knob: the cache sync thread flushes in ind_wr_buffer_size
    # chunks; simulating each 512 KiB chunk as its own event is exact but
    # slow at 32 GiB scale, so chunks may be coalesced into batches whose
    # duration is computed from the same per-chunk costs.  1 = exact.
    flush_batch_chunks: int = 1

    _zero_ok = ("seed",)

    def __post_init__(self):
        super().__post_init__()
        if self.ssd_kind not in options.SSD_KINDS:
            raise ValueError(
                f"ClusterConfig.ssd_kind={self.ssd_kind!r}: must be one of {options.SSD_KINDS}"
            )

    @property
    def num_ranks(self) -> int:
        return self.num_nodes * self.procs_per_node

    def scaled(self, **overrides) -> "ClusterConfig":
        """Return a copy with fields replaced (convenience for tests)."""
        return replace(self, **overrides)


def deep_er_testbed(**overrides) -> ClusterConfig:
    """The paper's evaluation platform: 64 nodes × 8 ranks, BeeGFS, SSDs."""
    return ClusterConfig().scaled(**overrides)


def small_testbed(num_nodes: int = 4, procs_per_node: int = 2, **overrides) -> ClusterConfig:
    """A shrunken cluster for unit/integration tests (fast, exact flush)."""
    cfg = ClusterConfig(num_nodes=num_nodes, procs_per_node=procs_per_node)
    return cfg.scaled(**overrides)
