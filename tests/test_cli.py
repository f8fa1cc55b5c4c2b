import contextlib
import io
import json
import math
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcdist import cli, linalg, reductions, simulate
from qcdist.cli import main
from qcdist.distances import GAP_TOL, DiamondWitness, diamond_norm, witness_to_json
from qcdist.circuits import ProblemInstance, instance_to_json, parse_circuit, serialize_circuit
from qcdist.jsonutil import dumps
from qcdist.simulate import choi_of, density_to_json

from helpers import (
    decohere_circuit,
    equal_type_pairs,
    identity_circuit,
    mutated_circuit_texts,
    random_11_circuit,
    random_density,
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


def test_validate_overflowing_unitary_exits_1_without_warnings(workdir):
    bad = workdir / "big.circ"
    bad.write_text("circuit big inputs 1\nunitary 1 0 1e200,0 0,0 0,0 1,0\nend\n")
    proc = subprocess.run(
        [sys.executable, "-m", "qcdist", "validate", str(bad)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1 and proc.stderr == ""
    assert json.loads(proc.stdout)["violations"] == ["line 2: matrix is not unitary: defect nan"]


@settings(max_examples=60, deadline=None)
@given(case=mutated_circuit_texts())
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


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-10"])
@pytest.mark.parametrize("command", ["dnorm", "maxfid", "protocol"])
def test_bad_tolerance_exits_2_printing_nothing(workdir, capsys, command, tol):
    inst = str(workdir / "inst.json")
    argv = ["protocol", inst] if command == "protocol" else ["distance", command, inst]
    code = main(argv + [f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: rel_tol must be positive and finite")
    assert "Traceback" not in captured.err


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


_ZERO_STATE = '{"qubits": 1, "rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]}'
_UNBOUNDED_STATES = {
    "qubits_inf": _ZERO_STATE.replace('"qubits": 1', '"qubits": Infinity'),
    "qubits_1e300": _ZERO_STATE.replace('"qubits": 1', '"qubits": 1e300'),
    "qubits_huge_int": _ZERO_STATE.replace('"qubits": 1', f'"qubits": {10**400}'),
    "rows_inf": _ZERO_STATE.replace('"rows": 2', '"rows": Infinity'),
}


@pytest.mark.parametrize("kind", ["trace", "fidelity"])
@pytest.mark.parametrize("text", list(_UNBOUNDED_STATES.values()), ids=list(_UNBOUNDED_STATES))
def test_unbounded_state_fields_exit_2_at_once(workdir, capsys, kind, text):
    # each of these once ended in an OverflowError traceback, or never returned
    path = workdir / "unbounded.json"
    path.write_text(text)
    t0 = time.perf_counter()
    code = main(["distance", kind, str(path), str(workdir / "zero.json")])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert elapsed < 1.0


_ODD_VALUES = [None, True, False, "1", "x", [], {}, math.inf, -math.inf, math.nan,
               1e300, -1.7976931348623157e308, 2**64, 10**400, -1, 0, 0.5]


@st.composite
def state_json_texts(draw):
    """JSON text of a state file: a density matrix on 0-2 qubits with up to
    three fields dropped or replaced, by values of other types, booleans,
    huge integers, +-Infinity and NaN among them, and possibly one entry
    made ragged or nested; or no object at all."""
    odd = st.one_of(st.sampled_from(_ODD_VALUES), st.integers(), st.floats())
    if draw(st.integers(0, 9)) == 0:
        return json.dumps(draw(st.one_of(odd, st.lists(odd, max_size=3))))
    n = draw(st.integers(0, 2))
    rho = random_density(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), 2**n)
    entries = [[z.real, z.imag] for z in rho.reshape(-1)]
    obj = {"qubits": n, "rows": 2**n, "cols": 2**n, "entries": entries}
    for key in draw(st.lists(st.sampled_from(sorted(obj)), unique=True, max_size=3)):
        if draw(st.booleans()):
            del obj[key]
        else:
            obj[key] = draw(odd)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(entries) - 1))
        entries[at] = draw(st.one_of(
            odd,
            st.lists(odd, max_size=3),  # a ragged pair
            st.just([entries[at]]),  # a pair nested one level deeper
            st.tuples(odd, st.just(entries[at][1])).map(list),  # one odd part
        ))
    return json.dumps(obj)


@settings(max_examples=300, deadline=None)
@given(texts=st.tuples(state_json_texts(), state_json_texts()),
       kind=st.sampled_from(["trace", "fidelity"]))
@example(texts=(_UNBOUNDED_STATES["qubits_inf"], _ZERO_STATE), kind="trace")
@example(texts=(_ZERO_STATE, _UNBOUNDED_STATES["rows_inf"]), kind="fidelity")
def test_state_loaders_exit_contract_fuzz(tmp_path_factory, texts, kind):
    d = tmp_path_factory.mktemp("states")
    paths = [d / "s0.json", d / "s1.json"]
    for path, text in zip(paths, texts):
        path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["distance", kind, *map(str, paths)])
        except SystemExit as exc:  # argparse refusing the arguments
            assert exc.code == 2
            code = 2
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["kind"] == kind
    else:
        assert out.getvalue() == ""


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


def _random_witness(rng, side):
    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return DiamondWitness(1.0, 1.0, 1, draw(side), draw(side, side))


@pytest.mark.parametrize("where", ["psi", "measurement"])
def test_dnorm_witness_with_a_nan_exits_2_printing_nothing(workdir, capsys, monkeypatch, where):
    w = _random_witness(np.random.default_rng(5), 4)
    getattr(w, where).reshape(-1)[-1] = complex(0.0, float("nan"))
    monkeypatch.setattr(cli, "diamond_norm", lambda *args: w)
    assert main(["distance", "dnorm", str(workdir / "inst.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "non-finite" in captured.err


def test_dnorm_stdout_is_the_witness_json_and_a_newline(tmp_path):
    # side 64: the measurement's 8192 floats span several format chunks
    q0, q1 = reductions.tensor_power(identity_circuit(), decohere_circuit(), 3)
    paths = []
    for c in (q0, q1):
        paths.append(tmp_path / f"{c.name}.circ")
        paths[-1].write_text(serialize_circuit(c))
    proc = subprocess.run(
        [sys.executable, "-m", "qcdist", "distance", "dnorm", *map(str, paths)],
        capture_output=True, check=True,
    )
    w = diamond_norm(choi_of(q0), choi_of(q1))
    assert w.measurement.shape == (64, 64)
    expect = dumps({"kind": "dnorm", **witness_to_json(w)}) + "\n"
    assert proc.stdout == expect.encode()


class _CountingSink:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)

    def writelines(self, parts):
        for text in parts:
            self.write(text)


def test_emitting_a_side_256_witness_holds_little_beyond_its_text(monkeypatch):
    w = _random_witness(np.random.default_rng(6), 256)
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        cli._emit({"kind": "dnorm", **witness_to_json(w)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > 2_500_000  # about 3 MB of ASCII text
    assert peak < 1.5 * sink.chars


@pytest.mark.parametrize("kind", ["dnorm", "maxfid"])
def test_distance_factors_each_choi_matrix_once(workdir, capsys, monkeypatch, kind):
    # choi_of certifies J by its pivoted factor, and the diamond norm and
    # kraus_of read that factor off the channel instead of forming another
    walked, factored = [], []
    walk, factor = simulate._kraus_walk_choi, linalg.psd_factor

    def walk_spy(c):
        walked.append(walk(c))
        return walked[-1]

    def factor_spy(a, *args):
        factored.append(a)
        return factor(a, *args)

    monkeypatch.setattr(simulate, "_kraus_walk_choi", walk_spy)
    monkeypatch.setattr(linalg, "psd_factor", factor_spy)
    with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as chol:
        code, _ = run_cli(capsys, "distance", kind, workdir / "id.circ", workdir / "dec.circ")
    assert code == 0 and len(walked) == 2
    assert [id(a) for a in factored] == [id(j) for j in walked]
    # both factors have at most half the side in columns and certify J >= 0
    assert chol.call_count == 0
