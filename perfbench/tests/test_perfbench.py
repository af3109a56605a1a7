"""Tests of the benchmark itself: the workload generator, the correctness
checks on scaled-down runs, and the tracer's wrappers.

    python3 -m pytest perfbench/tests
"""

import json

import pytest

import bench
import calibrate
import harness
import workloads
from fogsim import cli
from tracer import PER_LAYER, TARGETS, Tracer

SMOKE_SCALE = 0.05


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_seed_sensitive(workload):
    assert workloads.scenario_yaml(workload, 7) == workloads.scenario_yaml(workload, 7)
    generate = workloads.WORKLOADS[workload]
    assert generate(7)["script"] != generate(8)["script"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_scenarios_validate(workload, tmp_path, capsys):
    for scale in (1.0, SMOKE_SCALE):
        path = tmp_path / f"{workload}-{scale}.yaml"
        path.write_text(workloads.scenario_yaml(workload, 3, scale))
        assert cli.main(["validate", str(path)]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_every_check(workload, tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(workloads.scenario_yaml(workload, 5, SMOKE_SCALE))
    warm = harness.run_pass(path)
    assert harness.check(warm, warm.digest) == []
    again = harness.run_pass(path, gauge=calibrate.gauge)
    assert harness.check(again, warm.digest) == []
    assert set(again.times) == {name for name, _ in bench.END_TO_END[:-1]}
    assert warm.gauges == [] and len(again.gauges) == len(harness.PHASES) + 1

    tracer = Tracer()
    traced = bench.traced_pass(path, tracer)
    assert harness.check(traced, warm.digest) == []
    layers = tracer.layer_metrics(traced.trace, traced.text)
    assert set(layers) == {name for name, _, _ in PER_LAYER} - {"trace_overhead"}
    assert layers["kernel.emit.calls"] == len(traced.trace)
    assert layers["kernel.to_jsonl.calls"] == 2


def test_calibration_is_fixed_work_and_scales_each_phase():
    assert calibrate.unit() == calibrate.unit()
    assert calibrate.gauge() > 0
    ref = calibrate.REFERENCE_UNIT_S
    times = {"setup_s": 1.0, "run_s": 2.0, "serialize_s": 3.0, "replay_s": 4.0}
    gauges = [ref, ref, 2 * ref, 2 * ref, ref]
    scaled = calibrate.normalise(times, harness.PHASES, gauges)
    assert scaled == pytest.approx({"setup_s": 1.0, "run_s": 2.0 / 1.5,
                                    "serialize_s": 1.5, "replay_s": 4.0 / 1.5,
                                    "total_s": 1.0 + 2.0 / 1.5 + 1.5 + 4.0 / 1.5})


def test_checks_catch_a_broken_pass(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(workloads.scenario_yaml("star_steady", 5, SMOKE_SCALE))
    p = harness.run_pass(path)
    flow_window = next(r for r in p.trace.records if r.kind == "flow_window")
    flow_window.details["cum_dropped_mb"] += 0.5
    p.trace.records.pop()
    problems = harness.check(p, "0" * 64)
    assert [line.split(":")[0] for line in problems] == [
        "determinism", "replay", "truncated", "conservation"]


def test_wrappers_restore_every_attribute(tmp_path):
    before = {(owner, attr): vars(owner)[attr] for owner, attr in TARGETS}
    path = tmp_path / "scenario.yaml"
    path.write_text(workloads.scenario_yaml("mesh_churn", 5, SMOKE_SCALE))
    tracer = Tracer()
    with tracer.installed():
        assert all(vars(owner)[attr] is not original
                   for (owner, attr), original in before.items())
        harness.run_pass(path, tracer, tracer.wrap_handlers)
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in before.items())
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("interrupted pass")
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in before.items())


def test_benchmark_json_matches_the_harness():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
