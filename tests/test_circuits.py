import numpy as np
import pytest

from qcdist.circuits import (
    Circuit,
    CircuitParseError,
    Gate,
    LivenessError,
    STANDARD_GATES,
    UnitarityError,
    circuits_equal,
    instance_from_json,
    instance_to_json,
    named_gate,
    parse_circuit,
    serialize_circuit,
    unitary_gate,
    validate,
    ProblemInstance,
)
from qcdist.linalg import SizeCapError

from helpers import identity_circuit, decohere_circuit, random_circuit, random_unitary


def test_parse_trivial_identity():
    c = parse_circuit("circuit id inputs 1\nend")
    assert (c.n_in, c.n_out) == (1, 1)
    assert c.gates == ()


def test_parse_decohere():
    c = parse_circuit("circuit d inputs 1\ndecohere 0\nend")
    assert (c.n_in, c.n_out) == (1, 1)
    assert c.gates[0].kind == "decohere"


def test_parse_comments_and_blanks():
    c = parse_circuit("# header\ncircuit x inputs 2\n\ngate H 0  # comment\nend\n")
    assert len(c.gates) == 1


def test_parse_liveness_error_names_wire_and_line():
    text = "circuit bad inputs 2\ntrace 1\ngate H 1\nend\n"
    with pytest.raises(LivenessError) as info:
        parse_circuit(text)
    assert info.value.wire == 1
    assert "line 3" in str(info.value)
    assert "wire 1" in str(info.value)


def test_parse_syntax_error_carries_line():
    with pytest.raises(CircuitParseError) as info:
        parse_circuit("circuit bad inputs 1\nfrobnicate 0\nend\n")
    assert info.value.line == 2


def test_parse_rejects_non_unitary():
    entries = "1.0,0.0 0.1,0.0 0.0,0.0 1.0,0.0"
    with pytest.raises(UnitarityError):
        parse_circuit(f"circuit bad inputs 1\nunitary 1 0 {entries}\nend\n")


def test_parse_rejects_wire_count_cap():
    text = "circuit big inputs 12\nancilla\nend\n"
    with pytest.raises(SizeCapError):
        parse_circuit(text)
    # the cap itself is admitted: 12 live wires parse
    assert parse_circuit("circuit edge inputs 11\nancilla\nend\n").n_out == 12


def test_named_gates_are_exact():
    h = STANDARD_GATES["H"]
    assert np.abs(h @ h - np.eye(2)).max() < 1e-15
    t = STANDARD_GATES["T"]
    assert abs(t[1, 1] ** 8 - 1.0) < 1e-15
    cnot = STANDARD_GATES["CNOT"]
    assert np.array_equal(cnot @ cnot, np.eye(4))


def test_roundtrip_identity():
    c = identity_circuit()
    assert circuits_equal(c, parse_circuit(serialize_circuit(c)))


def test_roundtrip_inline_unitary_exact():
    rng = np.random.default_rng(11)
    c = Circuit("u", 2, (unitary_gate(random_unitary(rng, 4), (0, 1)),))
    back = parse_circuit(serialize_circuit(c))
    assert np.array_equal(back.gates[0].matrix, c.gates[0].matrix)
    assert circuits_equal(c, back)


def test_roundtrip_random_circuits():
    rng = np.random.default_rng(12)
    for _ in range(25):
        c = random_circuit(rng, int(rng.integers(1, 3)), int(rng.integers(0, 8)))
        back = parse_circuit(serialize_circuit(c))
        assert circuits_equal(c, back)
        assert back.n_out == c.n_out


def test_roundtrip_reduction_output():
    from qcdist.reductions import ci_to_qcd

    r0, _ = ci_to_qcd(identity_circuit(), decohere_circuit())
    back = parse_circuit(serialize_circuit(r0))
    assert circuits_equal(r0, back)


def test_validate_clean_circuit():
    assert validate(identity_circuit()) == []


def test_validate_out_of_range_wire():
    c = Circuit("bad", 1, (named_gate("H", (1,)),))
    report = validate(c)
    assert len(report) == 1
    assert "wire 1" in report[0]


def test_validate_flags_unitarity_violation():
    u = STANDARD_GATES["H"].copy()
    u[0, 0] += 0.1
    c = Circuit("bad", 1, (Gate("unitary", (0,), u),))
    report = validate(c)
    assert any("unitarity" in line for line in report)


def test_type_bookkeeping_matches_gate_walk():
    rng = np.random.default_rng(13)
    for _ in range(30):
        c = random_circuit(rng, 2, int(rng.integers(0, 10)))
        ancillas = sum(1 for g in c.gates if g.kind == "ancilla")
        traces = sum(1 for g in c.gates if g.kind == "trace")
        assert c.n_out == c.n_in + ancillas - traces


def test_instance_roundtrip_and_validation():
    inst = ProblemInstance(identity_circuit(), decohere_circuit(), "QCD", 1.5, 0.25)
    back = instance_from_json(instance_to_json(inst))
    assert circuits_equal(back.q0, inst.q0)
    assert back.kind == "QCD"
    with pytest.raises(ValueError, match="promise"):
        ProblemInstance(identity_circuit(), decohere_circuit(), "CI", 1.5, 0.25)
    with pytest.raises(ValueError, match="type"):
        ProblemInstance(
            identity_circuit(),
            parse_circuit("circuit two inputs 2\nend"),
            "QCD",
            1.0,
            0.5,
        )


def test_ancilla_trace_wire_shifting():
    text = (
        "circuit shifty inputs 2\n"
        "ancilla\n"        # wires 0 1 2
        "gate CNOT 1 2\n"
        "trace 0\n"        # old wires 1,2 become 0,1
        "gate H 0\n"
        "end\n"
    )
    c = parse_circuit(text)
    assert (c.n_in, c.n_out) == (2, 2)
