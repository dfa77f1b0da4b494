"""Deterministic random-number streams.

Every stochastic component (each I/O server's jitter, each device, the
aggregator placement shuffle) draws from its own named stream derived from a
single experiment seed, so adding a new consumer never perturbs existing
ones and every run is exactly reproducible.

Paper correspondence: none — determinism substrate (named streams keep
§IV runs bit-reproducible across processes).
"""

from __future__ import annotations

import hashlib
from itertools import chain, repeat, starmap

import numpy as np


class RngStreams:
    """A factory of independent, name-keyed ``numpy`` generators."""

    BLOCK = 256  # jitter factors drawn per refill of a stream's buffer

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}
        self._draws: dict[str, chain] = {}  # jitter, per stream name

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            gen = np.random.default_rng(child_seed)
            self._streams[name] = gen
        return gen

    def lognormal_fn(self, name: str, sigma: float):
        """A zero-arg callable drawing mean-1 lognormal multipliers — the
        standard service-jitter model.  ``sigma`` is the shape parameter;
        ``sigma <= 0`` draws exactly 1.0, so callers disable jitter without
        branching.

        Every callable for ``name`` takes the next factor of one buffer per
        name, refilled ``BLOCK`` at a time — the scalar sequence exactly
        (``tests/sim/test_rng.py`` pins it), at a fraction of the cost.  Such
        a stream is drawn no other way, nor with another ``sigma``.  Hot
        per-I/O jitter sites cache the callable.
        """
        if sigma <= 0.0:
            return lambda: 1.0
        draws = self._draws.get(name)
        if draws is None:
            # mean of lognormal(mu, sigma) is exp(mu + sigma^2/2); choose mu
            # so the mean is 1 and jitter never biases average throughput.
            mu = -0.5 * sigma * sigma
            lognormal = self.stream(name).lognormal
            blocks = starmap(lognormal, repeat((mu, sigma, self.BLOCK)))
            # The buffer: an endless iterator over the blocks' floats, all C.
            draws = chain.from_iterable(map(np.ndarray.tolist, blocks))
            self._draws[name] = draws
        return draws.__next__
