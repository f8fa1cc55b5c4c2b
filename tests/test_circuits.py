import numpy as np
import pytest

from qcdist.circuits import (
    SWAP,
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
    replay_liveness,
    schedule,
    serialize_circuit,
    unitarity_defect,
    unitary_gate,
    validate,
    ProblemInstance,
)
from qcdist.linalg import SizeCapError

from helpers import identity_circuit, decohere_circuit, random_circuit, random_unitary
from oracles import density_walk_oracle


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
    with pytest.raises(UnitarityError, match="^line 2: matrix is not unitary: defect 1.418e-01$"):
        parse_circuit(f"circuit bad inputs 1\nunitary 1 0 {entries}\nend\n")


def test_unitarity_defect_is_the_frobenius_norm():
    rng = np.random.default_rng(31)
    for dim in (1, 2, 4, 8):
        for scale in (0.0, 1e-12, 1e-3, 1.0, 10.0):
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = random_unitary(rng, dim) + scale * z
            ref = np.linalg.norm(m.conj().T @ m - np.eye(dim))
            assert unitarity_defect(m) == pytest.approx(ref, rel=1e-12, abs=1e-14)


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
    assert report == ["gate 1 (unitary): unitarity defect 1.815e-01 > 1.0e-09"]


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


def _layout(c):
    """(kind, wires) of every gate, the part of a circuit ``schedule`` decides."""
    return [(g.kind, g.wires) for g in c.gates]


def _assert_same_channel(c, s):
    """Equal Choi matrices, each from the gate-by-gate oracle walk."""
    omega = np.eye(2**c.n_in).reshape(-1)  # sum_i |i>|i>
    phi = np.outer(omega, omega)
    diff = density_walk_oracle(s, phi, c.n_in) - density_walk_oracle(c, phi, c.n_in)
    assert np.abs(diff).max() < 1e-12


def test_schedule_moves_each_ancilla_to_its_first_use():
    c = parse_circuit("circuit a inputs 1\nancilla\ngate H 0\ngate T 0\ngate CNOT 0 1\nend\n")
    s = schedule(c)
    assert _layout(s) == [("unitary", (0,)), ("unitary", (0,)), ("ancilla", ()),
                          ("unitary", (0, 1))]
    assert replay_liveness(s) == [1, 1, 1, 2, 2]
    _assert_same_channel(c, s)


def test_schedule_moves_each_trace_to_after_its_last_use():
    c = parse_circuit("circuit t inputs 2\ngate CNOT 0 1\ngate H 1\ngate T 1\ntrace 0\nend\n")
    s = schedule(c)
    assert _layout(s) == [("unitary", (0, 1)), ("trace", (0,)), ("unitary", (0,)),
                          ("unitary", (0,))]
    _assert_same_channel(c, s)
    # an input that no gate uses is traced before the first gate
    c = parse_circuit("circuit u inputs 2\ngate H 0\ngate T 0\ntrace 1\nend\n")
    s = schedule(c)
    assert _layout(s) == [("trace", (1,)), ("unitary", (0,)), ("unitary", (0,))]
    _assert_same_channel(c, s)


def test_schedule_drops_gates_whose_wires_are_traced_next():
    # H and the decohere act on wire 0 only and it is traced next; CNOT
    # stays, since wire 1 lives on
    c = parse_circuit("circuit d inputs 2\ngate CNOT 0 1\ngate H 0\ndecohere 0\n"
                      "gate X 1\ntrace 0\nend\n")
    s = schedule(c)
    assert _layout(s) == [("unitary", (0, 1)), ("trace", (0,)), ("unitary", (0,))]
    _assert_same_channel(c, s)
    # both wires of the CNOT are traced next, so their inputs go unused
    c = parse_circuit("circuit e inputs 3\ngate H 2\ngate CNOT 0 1\ntrace 1\ntrace 0\nend\n")
    s = schedule(c)
    assert _layout(s) == [("trace", (0,)), ("trace", (0,)), ("unitary", (0,))]
    _assert_same_channel(c, s)


def test_schedule_drops_a_decohere_on_a_diagonal_wire():
    c = parse_circuit("circuit g inputs 1\ndecohere 0\ndecohere 0\nancilla\ndecohere 1\n"
                      "gate CNOT 1 0\ndecohere 1\ngate H 1\nend\n")
    s = schedule(c)
    assert _layout(s) == [("decohere", (0,)), ("ancilla", ()), ("unitary", (1, 0)),
                          ("decohere", (1,)), ("unitary", (1,))]
    _assert_same_channel(c, s)


def test_schedule_drops_an_ancilla_traced_before_any_use():
    # the second ancilla's uses are dead, so it goes too
    c = parse_circuit("circuit f inputs 1\nancilla\ngate H 0\ntrace 1\nancilla\ngate H 1\n"
                      "decohere 1\ntrace 1\nend\n")
    s = schedule(c)
    assert _layout(s) == [("unitary", (0,))]
    _assert_same_channel(c, s)


def test_schedule_keeps_the_output_order_when_ancillas_reorder():
    # the second ancilla is used first, so it is created first; a SWAP puts
    # the outputs back in c's order: input, first ancilla, second ancilla
    c = parse_circuit("circuit o inputs 1\nancilla\nancilla\ngate H 2\ngate CNOT 0 1\nend\n")
    s = schedule(c)
    assert _layout(s) == [("ancilla", ()), ("unitary", (1,)), ("ancilla", ()),
                          ("unitary", (0, 2)), ("unitary", (1, 2))]
    assert np.array_equal(s.gates[-1].matrix, SWAP)
    assert (s.name, s.n_in, s.n_out) == (c.name, c.n_in, c.n_out)
    _assert_same_channel(c, s)
    # ancillas a gate takes together are created in c's order, so no SWAP
    c = parse_circuit("circuit p inputs 1\nancilla\nancilla\ngate H 0\ngate CNOT 2 1\nend\n")
    s = schedule(c)
    assert _layout(s) == [("unitary", (0,)), ("ancilla", ()), ("ancilla", ()), ("unitary", (2, 1))]
    _assert_same_channel(c, s)
