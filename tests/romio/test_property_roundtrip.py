"""Property-based end-to-end verification of the collective write.

Hypothesis generates arbitrary disjoint per-rank extent sets; the full
stack (two-phase exchange, optional cache + sync thread,
striped PFS) must reproduce the expected file image — zeros, with the
payload function over every extent — byte-for-byte under any aggregator
count / buffer size / hint combination.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access import RankAccess
from tests.conftest import expected_image, make_cluster

NPROCS = 8
SPACE = 64 * 1024  # file offsets live in [0, 64k)


@st.composite
def rank_patterns(draw):
    """Disjoint extents across all ranks, random placement."""
    n_extents = draw(st.integers(1, 12))
    cells = draw(
        st.lists(
            st.integers(0, SPACE // 512 - 1), min_size=n_extents,
            max_size=n_extents, unique=True,
        )
    )
    owners = draw(st.lists(st.integers(0, NPROCS - 1), min_size=n_extents, max_size=n_extents))
    rng_seed = draw(st.integers(0, 2**16))
    per_rank: dict[int, list[tuple[int, int]]] = {r: [] for r in range(NPROCS)}
    rng = np.random.default_rng(rng_seed)
    for cell, owner in zip(cells, owners):
        start = cell * 512
        length = int(rng.integers(1, 513))
        per_rank[owner].append((start, length))
    patterns = []
    for r in range(NPROCS):
        if per_rank[r]:
            offs = np.array([p[0] for p in per_rank[r]], dtype=np.int64)
            lens = np.array([p[1] for p in per_rank[r]], dtype=np.int64)
            patterns.append(RankAccess(offs, lens))
        else:
            patterns.append(RankAccess.empty_access())
    return patterns


def run(patterns, hints):
    machine, world, layer = make_cluster()

    def body(ctx):
        fh = yield from layer.open(ctx.rank, "/g/t", hints)
        yield from fh.write_all(patterns[ctx.rank])
        yield from fh.close()

    world.run(body)
    f = machine.pfs.lookup("/g/t")
    size = max((a.end_offset + 1 for a in patterns if not a.empty), default=0)
    return f.data_image(), expected_image(machine, f.path, patterns, size)


@settings(max_examples=25, deadline=None)
@given(rank_patterns(), st.sampled_from(["1", "2", "4"]), st.sampled_from(["4k", "16k", "64k"]))
def test_collective_write_roundtrip(patterns, cb_nodes, cb_size):
    hints = {
        "cb_nodes": cb_nodes,
        "cb_buffer_size": cb_size,
        "romio_cb_write": "enable",
        "striping_unit": "8k",
    }
    img, exp = run(patterns, hints)
    assert np.array_equal(img, exp)


@settings(max_examples=20, deadline=None)
@given(rank_patterns(), st.sampled_from(["flush_immediate", "flush_onclose"]))
def test_cached_write_roundtrip(patterns, flush_flag):
    hints = {
        "cb_nodes": "2",
        "cb_buffer_size": "16k",
        "romio_cb_write": "enable",
        "e10_cache": "enable",
        "e10_cache_flush_flag": flush_flag,
        "ind_wr_buffer_size": "4k",
    }
    img, exp = run(patterns, hints)
    assert np.array_equal(img, exp)
