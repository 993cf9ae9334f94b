"""Tests of the benchmark's own code: span arithmetic, percentiles, checks, inputs."""

import copy
from pathlib import Path

import pytest
import smvirt
import smvirt.cli  # the package does not import its CLI module

import run
import spans
import workloads

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _node(nodes, name, layer, parent, total, calls=1):
    n = spans.Node(len(nodes), name, layer, parent, 0, 0)
    n.total = total
    n.calls = calls
    nodes.append(n)
    if parent is not None:
        parent.children[name] = n
    return n


def test_self_time_subtracts_only_direct_children():
    nodes = []
    root = _node(nodes, "launch", "bench", None, 10.0)
    run_ = _node(nodes, "engine.run", "engine", root, 9.0)
    retry = _node(nodes, "coordinator.Coordinator.retry_all_queues", "coordinator", run_, 5.0, calls=4)
    _node(nodes, "resource_maps.MappingTable.allocate", "resource_maps", retry, 2.0, calls=7)
    _node(nodes, "resource_maps.MappingTable.owned", "resource_maps", run_, 1.5, calls=30)

    own = spans.self_times(nodes)
    assert [own[id(n)] for n in nodes] == pytest.approx([1.0, 2.5, 3.0, 2.0, 1.5])

    m = spans.layer_metrics(nodes, {"sim_instr": 1000})
    assert m["engine.self_s"] == pytest.approx(2.5)
    assert m["engine.calls"] == 1
    assert m["engine.ns_per_sim_instr"] == pytest.approx(2.5e9 / 1000)
    assert m["coordinator.self_s"] == pytest.approx(3.0)
    assert m["coordinator.retries"] == 4
    assert m["resource_maps.self_s"] == pytest.approx(3.5)
    assert m["resource_maps.calls"] == 37


def test_percentile_needs_ten_samples_beyond_it():
    assert run.percentile(range(100), 90) == 89
    assert run.percentile([5.0] * 11, 1) == 5.0
    with pytest.raises(ValueError):
        run.percentile(range(99), 90)
    with pytest.raises(ValueError):
        run.percentile(range(6), 50)


def test_digest_mismatch_counts_as_a_failed_operation(tmp_path):
    wl = workloads.SyntheticMix(smvirt, 0, tmp_path, draws=[("mixed", 40, "kepler")])
    reference = workloads.Reference.load(REFERENCE)

    res = wl.run_pass(spans.NullTracer())
    reference.check(res)
    assert (res.attempted, res.failures) == (3, [])

    doc = copy.deepcopy(reference.doc)
    row = doc["synthetic_mix"]["digests"]["mixed/kepler"]
    digests = row[40 - 16].split()
    digests[1] = "0" * len(digests[1])
    row[40 - 16] = " ".join(digests)
    res = wl.run_pass(spans.NullTracer())
    workloads.Reference(doc).check(res)
    assert len(res.failures) == 1
    assert res.failures[0].startswith("synthetic_mix/mixed/40/kepler/wlm")


def test_synthetic_inputs_follow_the_seed(tmp_path):
    def texts(seed):
        wl = workloads.SyntheticMix(smvirt, seed, tmp_path)
        return [smvirt.serialize_kernel(k) + arch for _, _, arch, k in wl.kernels]

    first = texts(7)
    assert len(first) == workloads.SYNTHETIC_KERNELS
    assert texts(7) == first
    assert texts(8) != first


def test_tracer_wraps_every_lookup_and_restores_them(tmp_path):
    originals = (smvirt.engine.run, smvirt.harness.run, smvirt.run,
                 smvirt.harness.annotate_phases, smvirt.cli.run_sweep)
    wl = workloads.SyntheticMix(smvirt, 0, tmp_path, draws=[("barrier_heavy", 64, "fermi")])
    tracer = spans.Tracer()
    tracer.install(smvirt)
    try:
        assert smvirt.harness.run is smvirt.engine.run is smvirt.run
        assert smvirt.engine.run is not originals[0]
        assert smvirt.engine.annotate_phases is smvirt.harness.annotate_phases
        assert smvirt.cli.run_sweep is smvirt.harness.run_sweep is not originals[4]
        res = wl.run_pass(tracer)
    finally:
        tracer.uninstall()
    assert (smvirt.engine.run, smvirt.harness.run, smvirt.run,
            smvirt.harness.annotate_phases, smvirt.cli.run_sweep) == originals
    assert res.failures == []
    m = spans.layer_metrics(*tracer.reset())
    assert m["engine.calls"] == 3
    assert m["coordinator.events"] > 0
    assert m["phase_compiler.calls"] >= 1
    assert m["kernel_model.instr_per_s"] > 0
