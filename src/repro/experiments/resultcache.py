"""Content-addressed on-disk cache for experiment results.

A measurement point is fully determined by its spec (of any point type) *and*
the :class:`~repro.config.ClusterConfig` it runs on (the simulation is
deterministic), so a result can be reused across processes and sessions as
long as both are part of the cache key.  The key is the SHA-256 of the
canonicalised spec, the config fingerprint, and :data:`CACHE_SCHEMA_VERSION`;
bumping the version constant invalidates every existing entry, which is the
intended escape hatch whenever a code change alters simulation output without
touching spec or config.

Records are single JSON files under ``.repro_cache/<key[:2]>/<key>.json``
(override the root with ``REPRO_CACHE_DIR``; disable the default cache
entirely with ``REPRO_CACHE=0``; :mod:`repro.options` reads both).  Writes
are atomic (tmp file + rename) so concurrent sweep processes cannot corrupt
each other; a corrupt or truncated record is treated as a miss, never as an
error.

Paper correspondence: none (harness infrastructure); it memoises §IV
measurement points across runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro import options

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.config import ClusterConfig
    from repro.experiments.runner import ExperimentResult, ExperimentSpec

# Bump whenever simulation output changes for an unchanged (spec, config) —
# e.g. a calibration constant moves out of ClusterConfig, or a cost model is
# corrected.  Old entries become unreachable (different key) and are never
# read again.
# v2: fault results gained invariant_violations and drain-to-quiescence
# (shifts the diagnostic event count); chaos trial results joined the cache.
# v3: the key gained the cache backend — REPRO_CACHE_KIND selects a different
# device model without touching spec or config, so the environment default
# must be baked into the address or an nvmm-mode run would alias an
# extent-mode entry.  (The node-SSD model is ``ClusterConfig.ssd_kind``,
# resolved when the config is built, so the config fingerprint carries it.)
# v4: fleet results carry one ``stack`` diagnostic (was ``engine`` +
# ``dataplane``) and chaos results compare stacks, not planes
# (``stacks_match``, ``events_production``/``events_reference``).
# v5: fault and chaos results carry ``integrity_violations`` (checked against
# the access tables) in place of per-file ``checksums``.
CACHE_SCHEMA_VERSION = 5


def _canonical_json(obj) -> str:
    """Deterministic JSON for hashing: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_fingerprint(config: "ClusterConfig") -> str:
    """SHA-256 over the full nested config (every calibration constant)."""
    payload = _canonical_json(dataclasses.asdict(config))
    return hashlib.sha256(payload.encode()).hexdigest()


def cache_key(spec: "ExperimentSpec", config: "ClusterConfig") -> str:
    """Content address of one measurement point.

    Two sweeps share an entry iff the spec, the *entire* cluster config, and
    the cache schema version all match — this is what fixes the historical
    memo bug where the config was ignored and two different clusters could
    alias to one result.
    """
    payload = _canonical_json(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "spec": dataclasses.asdict(spec),
            "config": config_fingerprint(config),
            # The cache backend's default comes from the environment, and
            # neither spec nor config carries it.
            "cache_kind": options.get("REPRO_CACHE_KIND"),
        }
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """Durable spec+config → result store, for every kind of point.

    A point spec names its record type at class level (``record_type``:
    :class:`~repro.experiments.runner.ExperimentResult` for an
    :class:`~repro.experiments.runner.ExperimentSpec`, and so on), and
    ``get`` decodes a hit with the spec's, so one cache holds figure
    points, fault points, chaos trials, fleets and fleet rows side by side.
    ``root`` defaults to ``REPRO_CACHE_DIR``; ``enabled`` to on, except for
    the process default (no ``root``) under ``REPRO_CACHE=0``.

    ``get``/``put`` never raise on cache-file problems: a missing, corrupt,
    mismatched, or unreadable record is a miss (counted in ``corrupt`` when
    the file existed but could not be used).  Hit/miss/store counters make
    "a warm re-run performs zero simulations" directly assertable.
    """

    def __init__(
        self, root: Optional[str | Path] = None, enabled: Optional[bool] = None
    ):
        if enabled is None:
            enabled = root is not None or options.get("REPRO_CACHE") == "1"
        if root is None:
            root = options.get("REPRO_CACHE_DIR")
        self.root = Path(root)
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(
        self, spec: "ExperimentSpec", config: "ClusterConfig"
    ) -> Optional["ExperimentResult"]:
        if not self.enabled:
            self.misses += 1
            return None
        key = cache_key(spec, config)
        path = self._path(key)
        try:
            record = json.loads(path.read_text())
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            self.corrupt += 1
            self.misses += 1
            return None
        try:
            if record["schema"] != CACHE_SCHEMA_VERSION or record["key"] != key:
                raise ValueError("stale or mismatched record")
            result = spec.record_type.from_dict(record["result"])
        except (KeyError, TypeError, ValueError):
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(
        self,
        spec: "ExperimentSpec",
        config: "ClusterConfig",
        result: "ExperimentResult",
    ) -> Optional[Path]:
        if not self.enabled:
            return None
        key = cache_key(spec, config)
        path = self._path(key)
        record = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "config_fingerprint": config_fingerprint(config),
            "result": result.to_dict(),
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(record, fh)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            return None  # read-only FS, disk full, ...: caching is best-effort
        self.stores += 1
        return path

    def clear(self) -> int:
        """Delete every record under the cache root; return the count."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.glob("??/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }
