"""Constructor fuzzing: every public input surface rejects bad input by name.

Hypothesis hands the hint parser, the cluster config (and a machine built on
it), fault specs and schedules, and fleet specs values of the wrong sign and
the wrong type, NaN and infinity, and names nobody defined.  Whatever a
constructor accepts must construct; whatever it rejects must be a
``ValueError`` whose message names the offending field — no ``TypeError``,
``OverflowError`` or ``KeyError`` may escape.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.runner import ChaosTrialSpec, resolve_chaos_config, schedule_for
from repro.config import ClusterConfig, small_testbed
from repro.experiments.faultsweep import FaultExperimentSpec, resolve_fault_config
from repro.experiments.runner import ExperimentSpec, resolve_config
from repro.faults.spec import FAULT_KINDS, FaultSchedule, FaultSpec
from repro.fleet import FleetSpec, fleet_job_specs, resolve_fleet_config
from repro.machine import Machine
from repro.romio.hints import Hints
from repro.units import MiB

#: Values of every wrong kind: none, bools, small ints of either sign,
#: floats with NaN and infinity, short text, and strings that look numeric.
WILD = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 8),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.sampled_from(["4m", "inf", "-inf", "nan", "1e999", "-1", "0", " 7 ", "enable", "ftl"]),
)
FUZZ = settings(max_examples=300, deadline=None)


def rejected_by_name(build, field: str):
    """Run ``build()``; a rejection must be a ValueError naming ``field``."""
    try:
        return build()
    except ValueError as err:
        assert field in str(err), (field, str(err))
        return None


# -- hints ---------------------------------------------------------------------

HINTS = [f.name for f in dataclasses.fields(Hints) if f.name != "unknown"]


@FUZZ
@given(key=st.sampled_from(HINTS + ["no_such_hint"]), value=WILD)
def test_hints_from_info(key, value):
    rejected_by_name(lambda: Hints.from_info({key: value}), key)


# -- the cluster config, and a machine built on it ---------------------------


def leaves(cfg, prefix=()):
    """Dotted paths of every non-dataclass field under config ``cfg``."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            yield from leaves(value, (*prefix, f.name))
        else:
            yield (*prefix, f.name)


def with_leaf(cfg, path, value):
    """``cfg`` with the field at ``path`` replaced (each level rebuilt)."""
    if len(path) == 1:
        return replace(cfg, **{path[0]: value})
    return replace(cfg, **{path[0]: with_leaf(getattr(cfg, path[0]), path[1:], value)})


BASES = {
    "stream": small_testbed(num_nodes=2, procs_per_node=1),
    "ftl": small_testbed(num_nodes=2, procs_per_node=1, ssd_kind="ftl"),
}
# A small partition keeps the FTL's per-block tables small whatever the
# geometry the fuzzer picks.
BASES["ftl"] = with_leaf(BASES["ftl"], ("ssd", "capacity"), 8 * MiB)
CONFIG_LEAVES = list(leaves(ClusterConfig()))


@FUZZ
@given(base=st.sampled_from(sorted(BASES)), path=st.sampled_from(CONFIG_LEAVES), value=WILD)
def test_cluster_config_and_machine(base, path, value):
    def build():
        cfg = with_leaf(BASES[base], path, value)
        if cfg.num_nodes * cfg.procs_per_node <= 64 and cfg.pfs.num_data_servers <= 64:
            Machine(cfg)

    rejected_by_name(build, path[-1])


# -- fault specs and schedules -------------------------------------------------

SPEC_FIELDS = [f.name for f in dataclasses.fields(FaultSpec)]


@FUZZ
@given(kind=st.sampled_from(FAULT_KINDS), field=st.sampled_from(SPEC_FIELDS), value=WILD)
def test_fault_spec_from_dict(kind, field, value):
    rejected_by_name(lambda: FaultSpec.from_dict({"kind": kind, field: value}), field)


@FUZZ
@given(
    field=st.sampled_from(SPEC_FIELDS + ["no_such_field"]),
    value=WILD,
    timeout=st.one_of(st.just(0.0), WILD),
)
def test_fault_schedule_from_dict(field, value, timeout):
    spec = {"kind": "server_stall", field: value}
    try:
        FaultSchedule.from_dict({"faults": [spec], "sync_rpc_timeout": timeout})
    except ValueError as err:
        assert field in str(err) or "sync_rpc_timeout" in str(err), str(err)


@pytest.mark.parametrize("faults", [None, 3, "x", [3], [{"kind": "ssd_io_error"}, None]])
def test_fault_schedule_names_a_fault_that_is_no_mapping(faults):
    with pytest.raises(ValueError, match="faults"):
        FaultSchedule.from_dict({"faults": faults})


# -- fleet specs ---------------------------------------------------------------

FLEET_FIELDS = [f.name for f in dataclasses.fields(FleetSpec)]


@FUZZ
@given(field=st.sampled_from(FLEET_FIELDS), value=st.one_of(WILD, st.lists(WILD, max_size=3)))
def test_fleet_spec(field, value):
    def build():
        spec = FleetSpec(**{"fleet_size": 4, "num_nodes": 4, field: value})
        fleet_job_specs(spec)
        resolve_fleet_config(spec)

    rejected_by_name(build, field)


# -- experiment, fault-matrix and chaos specs ----------------------------------

#: Each point spec, with what it needs besides the field under test, and
#: what a run derives from it first.
POINT_SPECS = {
    ExperimentSpec: ({"benchmark": "ior"}, resolve_config),
    FaultExperimentSpec: ({"benchmark": "ior"}, resolve_fault_config),
    ChaosTrialSpec: (
        {"seed": 0},
        lambda spec: schedule_for(spec, resolve_chaos_config(spec)),
    ),
}
#: Their numbers (scale, counts, seeds, delays): ``config.Checked`` fields.
POINT_FIELDS = [
    (cls, f.name)
    for cls in POINT_SPECS
    for f in dataclasses.fields(cls)
    if type(f.default) in (int, float)
]


@FUZZ
@given(point=st.sampled_from(POINT_FIELDS), value=WILD)
def test_point_spec(point, value):
    cls, field = point
    required, derive = POINT_SPECS[cls]
    rejected_by_name(lambda: derive(cls(**required, **{field: value})), field)


@pytest.mark.parametrize("cls", [*POINT_SPECS, FleetSpec], ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("scale", [0, 0.0, -0.5, math.nan, math.inf])
def test_a_scale_is_a_positive_finite_number(cls, scale):
    """What a fuzzed value may do is fail by name; a scale outside its
    domain must fail, whatever derives from the spec afterwards."""
    required = POINT_SPECS[cls][0] if cls in POINT_SPECS else {}
    with pytest.raises(ValueError, match=f"{cls.__name__}.scale="):
        cls(**required, scale=scale)
