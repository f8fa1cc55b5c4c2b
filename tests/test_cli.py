import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcdist import cli, reductions, simulate
from qcdist.cli import main
from qcdist.distances import GAP_TOL
from qcdist.circuits import ProblemInstance, instance_to_json, parse_circuit, serialize_circuit
from qcdist.jsonutil import dumps
from qcdist.simulate import density_to_json

from helpers import (
    decohere_circuit,
    equal_type_pairs,
    identity_circuit,
    random_11_circuit,
    small_circuits,
    z_circuit,
)


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "id.circ").write_text(serialize_circuit(identity_circuit()))
    (tmp_path / "dec.circ").write_text(serialize_circuit(decohere_circuit()))
    inst = ProblemInstance(identity_circuit(), decohere_circuit(), "QCD", 1.0, 0.25)
    (tmp_path / "inst.json").write_text(dumps(instance_to_json(inst)))
    inst_z = ProblemInstance(identity_circuit(), z_circuit(), "QCD", 2.0, 0.25)
    (tmp_path / "inst_z.json").write_text(dumps(instance_to_json(inst_z)))
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    (tmp_path / "zero.json").write_text(dumps(density_to_json(zero)))
    (tmp_path / "one.json").write_text(dumps(density_to_json(one)))
    return tmp_path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_validate_ok(workdir, capsys):
    code, out = run_cli(capsys, "validate", workdir / "id.circ")
    assert code == 0 and out["valid"]


def test_validate_liveness_failure(workdir, capsys):
    bad = workdir / "bad.circ"
    bad.write_text("circuit bad inputs 1\ntrace 0\ngate H 0\nend\n")
    code, out = run_cli(capsys, "validate", bad)
    assert code == 1
    assert not out["valid"]
    assert any("wire" in v for v in out["violations"])


def test_validate_non_cp_channel_is_a_violation(workdir, capsys, monkeypatch):
    # trace preserving but not completely positive: Choi eigenvalues 2.5 and -0.5
    choi = np.zeros((4, 4), dtype=complex)
    choi[0, 0] = choi[3, 3] = 1.0
    choi[0, 3] = choi[3, 0] = 1.5
    monkeypatch.setattr(simulate, "_kraus_walk_choi", lambda c: choi)
    code, out = run_cli(capsys, "validate", workdir / "id.circ")
    assert code == 1
    assert out["valid"] is False
    assert len(out["violations"]) == 1
    assert "not completely positive" in out["violations"][0]


def test_validate_corrupted_unitary(workdir, capsys):
    bad = workdir / "corrupt.circ"
    bad.write_text(
        "circuit bad inputs 1\nunitary 1 0 1.0,0.0 0.1,0.0 0.0,0.0 1.0,0.0\nend\n"
    )
    code, out = run_cli(capsys, "validate", bad)
    assert code == 1
    assert any("unitary" in v for v in out["violations"])


@st.composite
def circuit_texts(draw):
    """(mutation, text): a serialized small circuit, possibly hit by one one-line mutation."""
    c = draw(small_circuits())
    lines = serialize_circuit(c).splitlines()
    mutation = draw(st.sampled_from(["none", "unknown gate", "wire", "non-unitary", "truncate"]))
    if mutation == "truncate":
        text = "\n".join(lines) + "\n"
        return mutation, text[: draw(st.integers(0, len(text) - 1))]
    if mutation != "none":
        wire = draw(st.integers(5, 2**40)) if mutation == "wire" else 0  # live wires stay below 5
        bad = {
            "unknown gate": draw(st.sampled_from(["gate FOO 0", "frobnicate 0", "unitary 0 0"])),
            "wire": draw(st.sampled_from([f"decohere {wire}", f"gate H {wire}", f"trace {wire}"])),
            "non-unitary": "unitary 1 0 1.0,0.0 0.1,0.0 0.0,0.0 1.0,0.0",
        }[mutation]
        at = draw(st.integers(1, len(lines) - 1))
        replace = at < len(lines) - 1 and draw(st.booleans())  # never replace the header or end
        lines[at : at + replace] = [bad]
    return mutation, "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(case=circuit_texts())
def test_validate_exit_contract_fuzz(tmp_path_factory, case):
    mutation, text = case
    path = tmp_path_factory.mktemp("fuzz") / "c.circ"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", str(path)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        assert json.loads(out.getvalue())["valid"] is (code == 0)
    if mutation == "none":
        assert code == 0


@settings(max_examples=40, deadline=None)
@given(pair=equal_type_pairs(), restarts=st.integers(1, 6), seed=st.integers(0, 2**31))
def test_maxfid_exit_contract_fuzz(tmp_path_factory, pair, restarts, seed):
    d = tmp_path_factory.mktemp("maxfid")
    paths = []
    for i, c in enumerate(pair):
        paths.append(d / f"q{i}.circ")
        paths[-1].write_text(serialize_circuit(c))
    argv = ["distance", "maxfid", *paths, "--restarts", restarts, "--seed", seed]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 4)
    assert "Traceback" not in err.getvalue()
    result = json.loads(out.getvalue())
    assert 0.0 <= result["value"] <= result["upper"] + 1e-12
    assert result["upper"] <= 1.0
    assert (code == 4) == (not result["converged"])


def test_distance_trace(workdir, capsys):
    code, out = run_cli(capsys, "distance", "trace", workdir / "zero.json", workdir / "one.json")
    assert code == 0
    assert abs(out["value"] - 2.0) < 1e-12


def test_distance_fidelity_identical(workdir, capsys):
    code, out = run_cli(capsys, "distance", "fidelity", workdir / "zero.json", workdir / "zero.json")
    assert code == 0
    assert abs(out["value"] - 1.0) < 1e-12


def test_distance_dimension_mismatch_exit_2(workdir, capsys):
    four = workdir / "four.json"
    four.write_text(dumps(density_to_json(np.eye(4, dtype=complex) / 4)))
    code, _ = run_cli(capsys, "distance", "fidelity", workdir / "zero.json", four)
    assert code == 2


def test_distance_dnorm_instance(workdir, capsys):
    code, out = run_cli(
        capsys, "distance", "dnorm", workdir / "inst.json", "--restarts", 8, "--seed", 5
    )
    assert code == 0
    assert abs(out["value"] - 1.0) < 1e-6
    assert out["value"] <= out["upper"] and out["gap"] <= GAP_TOL and out["converged"]
    assert out["iterations"] >= 1


def test_distance_dnorm_ignores_restarts_and_seed(workdir, capsys):
    for kind in ("dnorm", "maxfid"):
        main(["distance", kind, str(workdir / "inst.json"), "--restarts", "1", "--seed", "0"])
        a = capsys.readouterr().out
        main(["distance", kind, str(workdir / "inst.json"), "--restarts", "8", "--seed", "5"])
        assert capsys.readouterr().out == a


def test_distance_dnorm_open_gap_exits_4(workdir, capsys):
    # the ci2qcd pair of two fixed 1-qubit circuits whose optimal input is
    # rank-deficient: the certified gap stays open at about 2.6e-6
    rng = np.random.default_rng(105)
    for _ in range(13):
        qa, qb = random_11_circuit(rng, "qa"), random_11_circuit(rng, "qb")
    r0, r1 = reductions.ci_to_qcd(qa, qb)
    (workdir / "r0.circ").write_text(serialize_circuit(r0))
    (workdir / "r1.circ").write_text(serialize_circuit(r1))
    code, out = run_cli(capsys, "distance", "dnorm", workdir / "r0.circ", workdir / "r1.circ")
    assert code == 4
    assert out["gap"] > GAP_TOL and not out["converged"]
    assert out["value"] <= out["upper"]


def test_distance_dnorm_two_circuit_files(workdir, capsys):
    code, out = run_cli(
        capsys, "distance", "dnorm", workdir / "id.circ", workdir / "dec.circ", "--restarts", 8
    )
    assert code == 0
    assert abs(out["value"] - 1.0) < 1e-6


def test_distance_maxfid(workdir, capsys):
    code, out = run_cli(
        capsys, "distance", "maxfid", workdir / "id.circ", workdir / "dec.circ", "--restarts", 8
    )
    assert code == 0
    assert abs(out["value"] - 1.0) < 1e-6
    assert list(out) == [
        "kind", "value", "upper", "gap", "iterations", "converged", "rho0", "rho1"
    ]
    assert out["value"] <= out["upper"] + 1e-12 and out["gap"] <= GAP_TOL and out["converged"]


def test_distance_maxfid_open_gap_exits_4(workdir, capsys):
    # criterion-5 pair 12: the optimal rho1 is pure and the polished gap
    # stays open at about 1.7e-6
    rng = np.random.default_rng(105)
    for _ in range(13):
        qa, qb = random_11_circuit(rng, "qa"), random_11_circuit(rng, "qb")
    (workdir / "qa.circ").write_text(serialize_circuit(qa))
    (workdir / "qb.circ").write_text(serialize_circuit(qb))
    code, out = run_cli(capsys, "distance", "maxfid", workdir / "qa.circ", workdir / "qb.circ")
    assert code == 4
    assert out["gap"] > GAP_TOL and not out["converged"]
    assert out["value"] <= out["upper"]


def test_reduce_ci2qcd_writes_syntactic_pair(workdir, capsys):
    out_dir = workdir / "out"
    code, out = run_cli(capsys, "reduce", "ci2qcd", workdir / "inst.json", "--out", out_dir)
    assert code == 0
    r0 = (out_dir / "r0.circ").read_text()
    r1 = (out_dir / "r1.circ").read_text()
    r0_body = r0.strip().splitlines()
    r1_body = r1.strip().splitlines()
    assert r1_body[-2] == "decohere 0"
    # identical gate lists apart from the trailing decohere (headers carry
    # the circuit names)
    assert r1_body[1:-2] == r0_body[1:-1]
    parse_circuit(r0), parse_circuit(r1)


def test_reduce_ci2qcd_over_cap_exit_3_writes_nothing(workdir, capsys):
    # each dilation admits 12 wires; the control makes the joined circuit 13
    wide = parse_circuit("circuit w inputs 1\n" + "decohere 0\n" * 11 + "end\n")
    inst = ProblemInstance(wide, wide, "CI", 1.0, 0.25)
    path = workdir / "inst_wide.json"
    path.write_text(dumps(instance_to_json(inst)))
    out_dir = workdir / "wide"
    code, out = run_cli(capsys, "reduce", "ci2qcd", path, "--out", out_dir)
    assert code == 3
    assert out["error"] == "size_cap"
    assert "13 wires of the joined circuit r0" in out["message"]
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_reduce_parity_then_distance(workdir, capsys):
    out_dir = workdir / "pout"
    code, _ = run_cli(capsys, "reduce", "parity", workdir / "inst.json", "--count", 2, "--out", out_dir)
    assert code == 0
    code, out = run_cli(
        capsys, "distance", "dnorm", out_dir / "p0.circ", out_dir / "p1.circ", "--restarts", 8
    )
    assert code == 0
    assert abs(out["value"] - 0.5) < 1e-4


def test_reduce_polarize_derived_params_exit_3(workdir, capsys):
    code, out = run_cli(
        capsys, "reduce", "polarize", workdir / "inst.json", "--precision", 1, "--out", workdir / "sx"
    )
    assert code == 3
    assert out["error"] == "size_cap"
    assert out["certificate"]["s"] == 1024


def test_reduce_polarize_astronomical_precision_exit_3(workdir, capsys):
    # a=1, b=0.49 gives r = 822 and (b/2)^-r beyond any float
    inst = ProblemInstance(identity_circuit(), decohere_circuit(), "QCD", 1.0, 0.49)
    path = workdir / "inst_tight.json"
    path.write_text(dumps(instance_to_json(inst)))
    code, out = run_cli(
        capsys, "reduce", "polarize", path, "--precision", 1000000, "--out", workdir / "sx"
    )
    assert code == 3
    assert out["error"] == "size_cap"


@pytest.mark.parametrize("kind", ["tensor", "parity"])
def test_reduce_huge_count_exit_3_before_building(workdir, capsys, monkeypatch, kind):
    def refuse(*args, **kwargs):
        raise AssertionError("the cap must be checked before anything is built")

    monkeypatch.setattr(reductions, "_WireTracker", refuse)
    monkeypatch.setattr(reductions, "dilate", refuse)
    code, out = run_cli(
        capsys, "reduce", kind, workdir / "inst.json", "--count", 100000000, "--out", workdir / "big"
    )
    assert code == 3
    assert out["error"] == "size_cap"


@pytest.mark.parametrize(
    "text",
    [
        '["circuit id inputs 1\\nend\\n"]',
        '{"q0": 3, "q1": "circuit id inputs 1\\nend\\n", "kind": "QCD", "a": 1, "b": 0.5}',
        '{"q0": "circuit id inputs 1\\nend\\n", "q1": ["x"], "kind": "QCD", "a": 1, "b": 0.5}',
        '{"q0": "circuit id inputs 1\\nend\\n", "q1": "circuit id inputs 1\\nend\\n", '
        '"kind": "QCD", "a": [1], "b": 0.5}',
    ],
    ids=["top_level_list", "q0_number", "q1_list", "a_list"],
)
def test_malformed_instance_json_exit_2(workdir, capsys, text):
    path = workdir / "malformed.json"
    path.write_text(text)
    for argv in (["reduce", "ci2qcd", path, "--out", workdir], ["protocol", path]):
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: instance JSON")


def test_reduce_polarize_override(workdir, capsys):
    out_dir = workdir / "sout"
    code, out = run_cli(
        capsys,
        "reduce", "polarize", workdir / "inst.json",
        "--precision", 1, "--override", "1,1,1", "--out", out_dir,
    )
    assert code == 0
    assert out["certificate"]["overridden"]
    parse_circuit((out_dir / "s0.circ").read_text())


def test_protocol_exact_values(workdir, capsys):
    code, out = run_cli(
        capsys, "protocol", workdir / "inst_z.json", "--trials", 200, "--restarts", 8
    )
    assert code == 0
    assert abs(out["p_accept_exact"] - 1.0) < 1e-9
    assert out["accepts"] == 200
    assert abs(out["dnorm_upper"] - 2.0) < 1e-9


def test_protocol_estimate_concentrates(workdir, capsys):
    code, out = run_cli(
        capsys, "protocol", workdir / "inst.json", "--trials", 10000, "--seed", 2, "--restarts", 8
    )
    assert code == 0
    assert abs(out["p_accept_exact"] - 0.75) < 1e-6
    assert abs(out["estimate"] - 0.75) < 0.02


def test_protocol_identical_circuits(workdir, capsys):
    inst = ProblemInstance(identity_circuit(), identity_circuit("id2"), "QCD", 1.0, 0.5)
    path = workdir / "inst_same.json"
    path.write_text(dumps(instance_to_json(inst)))
    code, out = run_cli(capsys, "protocol", path, "--trials", 10000, "--restarts", 4)
    assert code == 0
    assert abs(out["estimate"] - 0.5) < 0.02


@pytest.mark.parametrize("trials", [0, -3])
def test_protocol_bad_trials_exit_2_before_seesaw(workdir, capsys, monkeypatch, trials):
    def refuse(*args, **kwargs):
        raise AssertionError("the trial count must be checked before the seesaw")

    monkeypatch.setattr(cli, "optimal_prover_witness", refuse)
    code = main(["protocol", str(workdir / "inst.json"), "--trials", str(trials)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: trials must be >= 1")


@pytest.mark.parametrize(
    "entries",
    ["[1, 0, 0, 0]", "[[1, 0, 0], [0, 0], [0, 0], [0, 0]]", "[[1, null], [0, 0], [0, 0], [0, 0]]"],
    ids=["flat", "three_element", "null_part"],
)
def test_malformed_matrix_entries_exit_2(workdir, capsys, entries):
    path = workdir / "malformed_state.json"
    path.write_text(f'{{"qubits": 1, "rows": 2, "cols": 2, "entries": {entries}}}')
    code = main(["distance", "trace", str(path), str(workdir / "zero.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: malformed matrix JSON")
    assert "Traceback" not in captured.err


def test_unknown_flag_rejected(workdir):
    with pytest.raises(SystemExit) as info:
        main(["validate", str(workdir / "id.circ"), "--frobnicate"])
    assert info.value.code == 2


def test_repeated_calls_reuse_one_parser_and_leak_no_defaults(workdir, capsys, monkeypatch):
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    inst, out_dir = workdir / "inst.json", workdir / "reuse"
    code, out = run_cli(capsys, "reduce", "parity", inst, "--count", 3, "--out", out_dir)
    assert (code, out["params"]) == (0, {"r": 3})
    code, out = run_cli(capsys, "reduce", "parity", inst, "--out", out_dir)
    assert (code, out["params"]) == (0, {"r": 1})
    with pytest.raises(SystemExit) as info:
        main(["validate", str(workdir / "id.circ"), "--frobnicate"])
    assert info.value.code == 2
    capsys.readouterr()
    code, out = run_cli(capsys, "validate", workdir / "id.circ")
    assert (code, out["valid"]) == (0, True)
    assert built == [1]


def test_import_builds_no_parser():
    # set-up time includes the import, so the parser waits for the first call
    probe = "import qcdist.cli as c; print(c._parser is None)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert done.stdout == "True\n"


def test_byte_stable_output(workdir):
    cmd = [
        sys.executable, "-m", "qcdist", "distance", "dnorm",
        str(workdir / "inst.json"), "--restarts", "4", "--seed", "12",
    ]
    a = subprocess.run(cmd, capture_output=True, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert a == b and a
