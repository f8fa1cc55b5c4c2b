"""Smoke test of the benchmark: every workload at minimal size.

    python3 -m pytest -q bench/test_smoke.py

Checks that each workload emits every metric BENCHMARK.json names, that
stdout digests do not change with tracing on, that a wrong reference and an
escaped exception are both counted as failures, that the benchmark's own
circuit reading agrees with qcdist's, and that the benchmark refuses to run
without the program's sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import instances  # noqa: E402
import run  # noqa: E402
from instances import WORKLOADS  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


#: run.main with every workload's pool cut to its first slot
ONE_SLOT = ("import dataclasses, sys; sys.path.insert(0, {here!r}); import instances, run; "
            "instances.WORKLOADS = {{k: dataclasses.replace(w, pool_size=1) "
            "for k, w in instances.WORKLOADS.items()}}; sys.exit(run.main(sys.argv[1:]))")


def bench(*args, cwd=ROOT, one_slot=False):
    here = Path(cwd) / "bench"
    prog = ["-c", ONE_SLOT.format(here=str(here))] if one_slot else [str(here / "run.py")]
    return subprocess.run(
        [sys.executable, *prog, *args], cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def one_slot(workload: str):
    return dataclasses.replace(WORKLOADS[workload], pool_size=1)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(workload: str, seed: int, trace: int) -> dict:
    return json.loads((ROOT / run.OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def test_spec_matches_the_code():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == PER_LAYER
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "instances_per_s", "instance_s.p50", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_emits_every_metric_and_tracing_keeps_stdout(workload):
    seed = 3
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "0.01"]
    plain = result(bench(*args, "--trace", "0", one_slot=True))
    traced = result(bench(*args, "--trace", "1", one_slot=True))
    for res in (plain, traced):
        assert res["correct"] is True
        assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == units
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == units
    untraced, with_trace = record(workload, seed, 0), record(workload, seed, 1)
    assert with_trace["trace_record"]["digests_match"]
    assert with_trace["trace_record"]["combined_digest"] == untraced["combined_digest"]
    assert untraced["environment"]["numpy"]
    # timings are wall times scaled by the probe samples taken while they ran
    assert set(untraced["wall"]) == {"instances_per_s", "instance_s.p50", "setup_s"}
    assert untraced["scale"] > 0 and len(untraced["probe_s"]) >= 2
    ref_seconds = [i["ref_seconds"] for i in untraced["instances"]]
    assert all(t > 0 for t in ref_seconds)
    assert plain["metrics"]["instance_s.p50"]["value"] == pytest.approx(np.median(ref_seconds))


def test_wrong_reference_is_a_failure(tmp_path):
    cli = run.import_qcdist()
    inst = one_slot("dense_choi").pool(5, tmp_path)[0]
    outcome = run.run_instance(cli, inst, 0)
    run.check(inst, outcome)
    assert outcome.ok
    inst.reference["report"] = {"valid": False, "violations": []}
    run.check(inst, outcome)
    assert not outcome.ok and outcome.wrong


def test_wrong_channel_fails_the_witness_check(tmp_path):
    cli = run.import_qcdist()
    inst = one_slot("dense_choi").pool(5, tmp_path)[0]
    assert inst.steps[1].argv[:2] == ["distance", "dnorm"]
    outcome = run.run_instance(cli, inst, 0)
    run.check(inst, outcome)
    assert outcome.ok
    # a different but still admissible channel: one more decoherence before the cut
    witness = inst.reference["witness"]
    witness["gates0"] = witness["gates0"][:-1] + [("decohere", (0,))] + witness["gates0"][-1:]
    run.check(inst, outcome)
    assert not outcome.ok and outcome.wrong
    assert all(p.startswith("dnorm value") for p in outcome.problems)


def test_circuit_reading_agrees_with_qcdist():
    from qcdist.circuits import parse_circuit
    from qcdist.simulate import simulate

    rng = np.random.default_rng(11)
    for _ in range(4):
        gates, n_out = instances.wide_random_gates(rng, 3, 60, 5)
        circuit = parse_circuit(instances.circuit_text("c", 3, gates))
        x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        ours = instances.apply_ext(3, gates, x, 1)
        assert ours.shape == (2 ** (n_out + 1),) * 2
        assert np.allclose(ours, simulate(circuit, x, 1), atol=1e-12)


def test_escaped_exception_is_a_failure(tmp_path, monkeypatch):
    cli = run.import_qcdist()
    from qcdist.simulate import InternalConsistencyError

    def broken(*args, **kwargs):
        raise InternalConsistencyError("seesaw objective decreased from 1 to 0.9")

    monkeypatch.setattr(cli, "diamond_norm", broken)
    inst = WORKLOADS["reduction"].warmup(tmp_path)
    outcome = run.run_instance(cli, inst, 0)
    run.check(inst, outcome)
    assert not outcome.ok and not outcome.wrong
    assert "InternalConsistencyError" in outcome.failure


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "dense_choi", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
