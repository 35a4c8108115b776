"""Cache-key determinism and job-spec semantics."""

import pytest

from repro.cli import parse_topology
from repro.core.rahtm import RAHTMConfig
from repro.errors import ConfigError
from repro.service import (
    MapperConfig,
    MappingJob,
    NetworkSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.service.jobs import mapper_config_from_spec
from repro.utils.hashing import canonical_json, stable_hash


def make_job(shape=(4, 4), workload="halo2d:4x4", seed=0, order="ABT",
             router="mar", network=None):
    return MappingJob(
        topology=TopologySpec(shape),
        workload=WorkloadSpec(workload, seed=seed),
        mapper=MapperConfig.make("dimorder", order=order),
        router=router,
        network=network,
    )


# -- hashing primitives ---------------------------------------------------------------
def test_canonical_json_is_order_independent():
    assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})


def test_canonical_json_distinguishes_int_from_float():
    assert canonical_json({"x": 1}) != canonical_json({"x": 1.0})
    assert stable_hash({"x": 1}) != stable_hash({"x": 1.0})


def test_canonical_json_floats_are_exact():
    assert canonical_json(0.1) == canonical_json(0.1)
    assert canonical_json(0.1) != canonical_json(0.1 + 2 ** -55)


def test_canonical_json_rejects_objects():
    with pytest.raises(TypeError):
        canonical_json({"x": object()})
    with pytest.raises(TypeError):
        canonical_json({1: "non-string key"})


# -- determinism across independent construction --------------------------------------
def test_identical_jobs_hash_equal():
    assert make_job().cache_key() == make_job().cache_key()


def test_key_is_hex_sha256():
    key = make_job().cache_key()
    assert len(key) == 64
    assert set(key) <= set("0123456789abcdef")


def test_topology_spec_normalizes_wrap_forms():
    a = TopologySpec((4, 4))
    b = TopologySpec([4, 4], wrap=True)
    c = TopologySpec((4, 4), wrap=(True, True))
    d = TopologySpec.from_topology(parse_topology("4x4"))
    assert a == b == c == d
    assert len({TopologySpec((4, 4), wrap=w).build().describe()
                for w in (True, (True, True))}) == 1


def test_jobs_from_independent_topologies_hash_equal():
    a = MappingJob(TopologySpec.from_topology(parse_topology("4x4x2")),
                   WorkloadSpec("ring:32"), MapperConfig.make("hilbert"))
    b = MappingJob(TopologySpec((4, 4, 2)),
                   WorkloadSpec("ring:32", seed=0),
                   MapperConfig(kind="Hilbert"))
    assert a.cache_key() == b.cache_key()


def test_mapper_params_order_does_not_matter():
    a = MapperConfig(kind="rahtm", params=(("seed", 1), ("beam_width", 4)))
    b = MapperConfig(kind="rahtm", params=(("beam_width", 4), ("seed", 1)))
    assert a == b
    assert (MappingJob(TopologySpec((4, 4)), WorkloadSpec("ring:16"), a).cache_key()
            == MappingJob(TopologySpec((4, 4)), WorkloadSpec("ring:16"), b).cache_key())


def test_rahtm_config_roundtrip_hash_equal():
    cfg = RAHTMConfig(beam_width=8, max_orientations=8, seed=3)
    assert (MapperConfig.from_rahtm(cfg).params
            == MapperConfig.from_rahtm(RAHTMConfig(
                beam_width=8, max_orientations=8, seed=3)).params)


# -- any field change changes the key --------------------------------------------------
@pytest.mark.parametrize("variant", [
    make_job(seed=7),
    make_job(workload="halo2d:4x4:2.0"),
    make_job(shape=(2, 8)),
    make_job(order="TAB"),
    make_job(router="dor"),
    make_job(network=NetworkSpec()),
    make_job(network=NetworkSpec(phase_overlap=0.25)),
])
def test_any_field_change_changes_key(variant):
    assert variant.cache_key() != make_job().cache_key()


def test_network_float_changes_key():
    a = make_job(network=NetworkSpec(link_bandwidth=1.8e9))
    b = make_job(network=NetworkSpec(link_bandwidth=1.8e9 + 1.0))
    assert a.cache_key() != b.cache_key()


def test_scale_change_changes_key():
    small = make_job(shape=(4, 4), workload="halo2d:4x4")
    large = make_job(shape=(4, 4, 4), workload="halo3d:4x4x4")
    assert small.cache_key() != large.cache_key()


# -- file-backed workloads are content-addressed ---------------------------------------
def test_workload_file_key_tracks_content(tmp_path):
    from repro.commgraph import save_commgraph
    from repro.workloads import ring

    path = tmp_path / "w.json"
    save_commgraph(ring(16), path)
    key_a = make_job(workload=str(path)).cache_key()
    assert key_a == make_job(workload=str(path)).cache_key()
    save_commgraph(ring(8), path)
    assert make_job(workload=str(path)).cache_key() != key_a


# -- CLI spec codec --------------------------------------------------------------------
def test_mapper_config_from_spec_covers_cli_grammar():
    for spec in ("rahtm", "default", "dimorder:TAB", "hilbert", "rubik",
                 "rcb", "anneal-hopbytes", "anneal-mcl", "random"):
        config = mapper_config_from_spec(spec)
        mapper = config.build(parse_topology("4x4"))
        assert hasattr(mapper, "map")
    with pytest.raises(ConfigError):
        mapper_config_from_spec("quantum")
    with pytest.raises(ConfigError):
        MapperConfig.make("quantum").build(parse_topology("4x4"))


@pytest.mark.parametrize("kind,params", [
    ("hilbert", {"foo": 1}),
    ("default", {"order": "TAB"}),
    ("rubik", {"seed": 0}),
    ("dimorder", {"seed": 0}),
    ("rcb", {"iterations": 10}),
    ("random", {"order": "AB"}),
    ("anneal-mcl", {"restarts": 2}),
])
def test_baseline_build_rejects_parameters_its_kind_does_not_take(kind,
                                                                   params):
    with pytest.raises(ConfigError, match="does not take"):
        MapperConfig.make(kind, **params).build(parse_topology("4x4"))
