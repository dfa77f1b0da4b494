"""On-disk result cache: keys, round trips, invalidation, corruption."""

import dataclasses
import json

import pytest

from repro.chaos.runner import ChaosTrialSpec
from repro.config import small_testbed
from repro.experiments import resultcache
from repro.experiments.faultsweep import FaultExperimentSpec
from repro.experiments.parallel import SweepRunner, run_point
from repro.experiments.resultcache import (
    ResultCache,
    cache_key,
    config_fingerprint,
)
from repro.experiments.runner import ExperimentResult, ExperimentSpec
from repro.faults import FaultSpec
from repro.fleet import FleetSpec
from repro.units import MiB

SPEC = ExperimentSpec("ior", aggregators=16, cb_buffer=8 * MiB, scale=0.05)


def fake_result(spec=SPEC, bw=2.5e9) -> ExperimentResult:
    """A structurally complete result without running a simulation."""
    return ExperimentResult(
        spec=spec,
        file_size=64 * MiB,
        bw=bw,
        bw_incl_last=bw * 0.75,
        breakdown={"write": 1.25, "shuffle_all2all": 0.5, "post_write": 0.125},
        write_time=3.0625,
        close_wait=0.0078125,
        peak_pinned=8 * MiB,
        bytes_persisted=256 * MiB,
        events=12345,
    )


class TestRoundTrip:
    def test_result_to_from_dict_identity(self):
        r = fake_result()
        again = ExperimentResult.from_dict(r.to_dict())
        assert again == r
        assert again.spec == r.spec

    def test_round_trip_through_json_is_bit_exact(self):
        r = fake_result(bw=2.0e9 / 3.0)  # a float with no short decimal form
        wire = json.loads(json.dumps(r.to_dict()))
        again = ExperimentResult.from_dict(wire)
        assert again == r
        assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(
            r.to_dict(), sort_keys=True
        )


class TestKeys:
    def test_key_is_deterministic(self):
        cfg = SPEC.cluster()
        assert cache_key(SPEC, cfg) == cache_key(SPEC, cfg)

    def test_key_depends_on_spec(self):
        cfg = SPEC.cluster()
        other = dataclasses.replace(SPEC, aggregators=32)
        assert cache_key(SPEC, cfg) != cache_key(other, cfg)

    def test_key_depends_on_config(self):
        """Regression: the old memo keyed on the spec alone, so two different
        ClusterConfigs aliased to one cached result."""
        cfg1 = small_testbed()
        cfg2 = small_testbed(num_nodes=8)
        assert config_fingerprint(cfg1) != config_fingerprint(cfg2)
        assert cache_key(SPEC, cfg1) != cache_key(SPEC, cfg2)

    def test_key_depends_on_schema_version(self, monkeypatch):
        cfg = SPEC.cluster()
        before = cache_key(SPEC, cfg)
        monkeypatch.setattr(
            resultcache, "CACHE_SCHEMA_VERSION", resultcache.CACHE_SCHEMA_VERSION + 1
        )
        assert cache_key(SPEC, cfg) != before


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cfg = SPEC.cluster()
        assert cache.get(SPEC, cfg) is None
        cache.put(SPEC, cfg, fake_result())
        hit = cache.get(SPEC, cfg)
        assert hit == fake_result()
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1, "corrupt": 0}

    def test_different_config_misses(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cfg1 = small_testbed()
        cfg2 = small_testbed(num_nodes=8)
        cache.put(SPEC, cfg1, fake_result())
        assert cache.get(SPEC, cfg2) is None
        assert cache.get(SPEC, cfg1) is not None

    def test_schema_bump_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(root=tmp_path)
        cfg = SPEC.cluster()
        cache.put(SPEC, cfg, fake_result())
        monkeypatch.setattr(
            resultcache, "CACHE_SCHEMA_VERSION", resultcache.CACHE_SCHEMA_VERSION + 1
        )
        assert cache.get(SPEC, cfg) is None

    def test_corrupt_file_is_a_miss_not_fatal(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cfg = SPEC.cluster()
        path = cache.put(SPEC, cfg, fake_result())
        path.write_text("{ not json at all")
        assert cache.get(SPEC, cfg) is None
        assert cache.corrupt == 1
        # a fresh put repairs the entry
        cache.put(SPEC, cfg, fake_result())
        assert cache.get(SPEC, cfg) == fake_result()

    def test_truncated_record_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cfg = SPEC.cluster()
        path = cache.put(SPEC, cfg, fake_result())
        record = json.loads(path.read_text())
        del record["result"]
        path.write_text(json.dumps(record))
        assert cache.get(SPEC, cfg) is None
        assert cache.corrupt == 1

    def test_disabled_cache_touches_nothing(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=False)
        cfg = SPEC.cluster()
        assert cache.put(SPEC, cfg, fake_result()) is None
        assert cache.get(SPEC, cfg) is None
        assert list(tmp_path.iterdir()) == []

    def test_clear(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cfg = SPEC.cluster()
        cache.put(SPEC, cfg, fake_result())
        other = dataclasses.replace(SPEC, aggregators=64)
        cache.put(other, cfg, fake_result(other))
        assert cache.clear() == 2
        assert cache.get(SPEC, cfg) is None


# -- every point type ------------------------------------------------------------

#: One small spec of each point type the sweep runner takes.
POINTS = [
    SPEC,
    FaultExperimentSpec("ior", scenario="ssd_loss", scale=0.25).scaled(
        faults=(FaultSpec("ssd_device_loss", target=0, start=0.002),)
    ),
    ChaosTrialSpec(seed=1, scale=0.25),
    FleetSpec(fleet_size=2, num_nodes=2, job_nodes=(1,), scale=0.03125),
]


def record_of(spec):
    """A real record of ``spec`` (a fake one for the Table-II point)."""
    return fake_result() if spec is SPEC else spec.run()


@pytest.fixture
def row_cache_dir(tmp_path, monkeypatch):
    """A fleet's run streams its rows to the process-default cache: keep
    that under the test's directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))


@pytest.mark.usefixtures("row_cache_dir")
@pytest.mark.parametrize("spec", POINTS, ids=lambda spec: type(spec).__name__)
class TestEveryPointType:
    def test_a_record_round_trips_through_a_fresh_cache(self, spec, tmp_path):
        record = record_of(spec)
        assert isinstance(record, spec.record_type)
        ResultCache(root=tmp_path).put(spec, spec.cluster(), record)
        fresh = ResultCache(root=tmp_path)
        hit = fresh.get(spec, spec.cluster())
        assert (fresh.hits, fresh.corrupt) == (1, 0)
        assert type(hit) is type(record)
        assert hit.to_dict() == record.to_dict()

    def test_a_warm_sweep_simulates_nothing(self, spec, tmp_path):
        worker = _fake_worker if spec is SPEC else run_point
        cold = SweepRunner(cache=ResultCache(root=tmp_path), worker=worker)
        (first,) = cold.run([spec])
        warm = SweepRunner(cache=ResultCache(root=tmp_path), worker=worker)
        (second,) = warm.run([spec])
        assert (cold.simulated, warm.simulated) == (1, 0)
        assert (warm.cache.hits, warm.cache.corrupt) == (1, 0)
        assert second.to_dict() == first.to_dict()


def _fake_worker(spec, config):
    return fake_result(spec)
