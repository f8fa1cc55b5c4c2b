import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcdist.circuits import (
    SWAP,
    Circuit,
    CircuitError,
    CircuitParseError,
    Gate,
    LivenessError,
    STANDARD_GATES,
    TOL_UNITARY,
    UnitarityError,
    instance_from_json,
    ancilla_gate,
    named_gate,
    parse_circuit,
    schedule,
    serialize_circuit,
    trace_gate,
    unitarity_defect,
    unitary_gate,
    validate,
    ProblemInstance,
)
from qcdist.linalg import SizeCapError

from helpers import (
    circuits_equal,
    decohere_circuit,
    identity_circuit,
    instance_to_json,
    mutated_circuit_texts,
    random_circuit,
    random_unitary,
    small_circuits,
)
from oracles import density_walk_oracle, line_parse_circuit, live_counts


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


def test_parse_rejects_an_overflowing_unitary():
    # U^dagger U overflows, so the defect is nan; it must be refused, without
    # a RuntimeWarning (warnings fail tests here)
    text = "circuit big inputs 1\nunitary 1 0 1e200,0 0,0 0,0 1,0\nend\n"
    with pytest.raises(UnitarityError, match="^line 2: matrix is not unitary: defect nan$"):
        parse_circuit(text)
    big = np.diag([1e200, 1.0]).astype(complex)
    with pytest.raises(UnitarityError, match="defect (nan|inf)"):
        unitary_gate(big, (0,))
    report = validate(Circuit("big", 1, (Gate("unitary", (0,), big),)))
    assert len(report) == 1 and "unitarity defect" in report[0]


def test_unitarity_defect_is_the_frobenius_norm():
    rng = np.random.default_rng(31)
    for dim in (1, 2, 4, 8):
        for scale in (0.0, 1e-12, 1e-3, 1.0, 10.0):
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = random_unitary(rng, dim) + scale * z
            ref = np.linalg.norm(m.conj().T @ m - np.eye(dim))
            assert unitarity_defect(m) == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_parse_raises_the_first_error_in_file_order():
    bad = "unitary 1 0 1.0,0.0 0.1,0.0 0.0,0.0 1.0,0.0"
    ok = "unitary 1 0 1,0 0,0 0,0 1,0"
    text = f"circuit c inputs 1\n{ok}\ngate H 0\n\n{bad}\n{ok}\nfrobnicate\n{ok}\nend\n"
    with pytest.raises(UnitarityError) as info:
        parse_circuit(text)
    assert info.value.line == 5
    # a bad entry on the same line wins over the defect, on a later line it does not
    with pytest.raises(CircuitParseError, match="^line 5: bad complex entry '1.0'$"):
        parse_circuit(text.replace("1.0,0.0 0.1", "1.0 0.1"))
    with pytest.raises(UnitarityError, match="^line 5: "):
        parse_circuit(text.replace(f"{ok}\nfrobnicate", "unitary 1 0 nan,0 0,0 0,0 1,0\nfrobnicate"))
    with pytest.raises(CircuitParseError, match="^line 7: unknown construct 'frobnicate'$"):
        parse_circuit(text.replace(bad, ok))


def test_parse_raises_a_dead_wire_at_its_own_line():
    # liveness is walked line by line, in the parser and in the line reader alike: a
    # dead wire on line 2 wins over the syntax error on line 3, and on line 3 over
    # the non-unitary gate on line 4
    bad = "unitary 1 0 1.0,0.0 0.1,0.0 0.0,0.0 1.0,0.0"
    cases = [("circuit c inputs 1\ngate H 1\nfrobnicate\nend\n", 2, 1, 1),
             (f"circuit c inputs 1\ntrace 0\ngate H 0\n{bad}\nend\n", 3, 0, 0)]
    for text, line, wire, live in cases:
        for parse in (parse_circuit, line_parse_circuit):
            with pytest.raises(LivenessError) as info:
                parse(text)
            assert (info.value.line, info.value.wire, info.value.live) == (line, wire, live)
            assert str(info.value).startswith(f"line {line}: gate references wire {wire} ")
    # an ancilla past the cap fails where it stands too, before a later syntax error
    for parse in (parse_circuit, line_parse_circuit):
        with pytest.raises(SizeCapError, match="^13 live wires exceed"):
            parse("circuit c inputs 12\nancilla\nfrobnicate\nend\n")


def test_parse_orders_the_failures_of_one_line():
    text = "circuit c inputs 2\nunitary 2 1 1 {}\nend\n"
    entries = ["1,0", "0,0", "0,0", "0,0"] * 3 + ["0,0", "0,0", "0,0", "2,0"]
    with pytest.raises(CircuitParseError, match="^line 2: unitary wires must be distinct, got"):
        parse_circuit(text.format(" ".join(entries)))  # before the defect
    entries[5] = "inf,0"
    with pytest.raises(CircuitParseError, match="^line 2: matrix contains non-finite entries$"):
        parse_circuit(text.format(" ".join(entries)))  # before the repeated wires
    entries[9] = "0"
    with pytest.raises(CircuitParseError, match="^line 2: bad complex entry '0'$"):
        parse_circuit(text.format(" ".join(entries)))  # before the non-finite entry


def test_parse_reads_each_entry_at_its_own_comma():
    # moving a comma from one entry to the next keeps the comma count
    text = "circuit c inputs 1\nunitary 1 0 1 0,0,0 0,0 1,0\nend\n"
    with pytest.raises(CircuitParseError, match="^line 2: bad complex entry '1'$"):
        parse_circuit(text)
    with pytest.raises(CircuitParseError, match="^line 2: could not convert string to float: '0,0'$"):
        parse_circuit(text.replace(" 1 0,0,0", " 1,0 0,0,0"))


def test_parsed_matrices_are_views_of_one_array():
    rng = np.random.default_rng(5)
    gates = [unitary_gate(random_unitary(rng, 2 ** (1 + k % 3)), tuple(range(1 + k % 3)))
             for k in range(7)]
    c = parse_circuit(serialize_circuit(Circuit("v", 3, tuple(gates))))
    spans = sorted((g.matrix.ctypes.data, g.matrix.nbytes) for g in c.gates)
    assert all(at + size == nxt for (at, size), (nxt, _) in zip(spans, spans[1:]))  # one buffer
    for g, want in zip(c.gates, gates):
        assert g.matrix.dtype == np.complex128 and g.matrix.flags.c_contiguous
        assert np.array_equal(g.matrix, want.matrix)


def test_unitarity_defect_of_a_stack_is_each_matrix_defect():
    rng = np.random.default_rng(32)
    for side in (2, 4, 8):
        stack = np.array([random_unitary(rng, side) * (1 + 10.0 ** -k) for k in range(1, 12)])
        defects = unitarity_defect(stack)
        assert defects.shape == (11,)
        assert [unitarity_defect(m) for m in stack] == defects.tolist()
        assert unitarity_defect(stack.reshape(1, 11, side, side)).shape == (1, 11)


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
    # named_gate takes the table's unitarity from here and checks none per call
    assert sorted(STANDARD_GATES) == ["CNOT", "CZ", "H", "T", "X", "Z"]
    for name, m in STANDARD_GATES.items():
        assert unitarity_defect(m) <= TOL_UNITARY, name


def test_gate_label_names_its_matrix():
    x = STANDARD_GATES["X"]
    with pytest.raises(CircuitError, match="^label 'H' does not name the gate's matrix$"):
        Gate("unitary", (0,), x, "H")
    with pytest.raises(CircuitError, match="^label 'Y' does not name the gate's matrix$"):
        Gate("unitary", (0,), x, "Y")
    with pytest.raises(CircuitError, match="^label 'X' does not name the gate's matrix$"):
        Gate("decohere", (0,), None, "X")
    assert Gate("unitary", (0,), x.copy(), "X").label == "X"  # equal to the table's matrix
    assert named_gate("X", (0,)).matrix is x


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


EDGE_DOUBLES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                1e16, 1e17, -1e17, 9007199254740993.0, 1.7976931348623157e308, -8.98846567431158e307,
                0.1, 1 / 3, 1e-5, 1e-4, 1e22, 1e23, 123456789.125, -2.5]


def test_serialized_entries_read_like_the_per_entry_format():
    parts = np.array(EDGE_DOUBLES + [float(i) for i in range(32 - len(EDGE_DOUBLES))])
    m = parts.view(np.complex128).reshape(4, 4)
    text = serialize_circuit(Circuit("e", 2, (Gate("unitary", (1, 0), m),)))
    entries = " ".join("%.17g,%.17g" % (z.real, z.imag) for z in m.reshape(-1))
    assert text == f"circuit e inputs 2\nunitary 2 1 0 {entries}\nend\n"
    back = [float(x) for tok in entries.split() for x in tok.split(",")]
    assert np.array(back).tobytes() == parts.tobytes()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_serialize_refuses_non_finite_entries(bad):
    m = np.eye(2, dtype=complex)
    m[1, 0] = complex(0.0, bad)
    with pytest.raises(ValueError, match="non-finite"):
        serialize_circuit(Circuit("n", 1, (Gate("unitary", (0,), m),)))


def test_roundtrip_reduction_output():
    from qcdist.reductions import ci_to_qcd

    r0, _ = ci_to_qcd(identity_circuit(), decohere_circuit())
    back = parse_circuit(serialize_circuit(r0))
    assert circuits_equal(r0, back)


def test_validate_clean_circuit():
    assert validate(identity_circuit()) == []


def test_circuit_refuses_an_out_of_range_wire():
    with pytest.raises(LivenessError) as info:
        Circuit("bad", 2, (named_gate("H", (0,)), trace_gate(0), named_gate("H", (1,))))
    assert (info.value.gate, info.value.wire, info.value.live) == (2, 1, 1)
    assert info.value.line is None
    assert str(info.value) == "gate 3 references wire 1 but only wires 0..0 are live"


def test_circuit_refuses_an_ancilla_past_the_cap():
    with pytest.raises(SizeCapError, match="^13 live wires exceed the cap of 12 wires"):
        Circuit("wide", 11, (ancilla_gate(), trace_gate(0), ancilla_gate(), ancilla_gate()))
    with pytest.raises(SizeCapError, match="^13 input wires exceed the cap of 12 wires"):
        Circuit("wide", 13)
    # the cap itself is admitted, and a trace makes room for the next ancilla
    c = Circuit("edge", 11, (ancilla_gate(), trace_gate(0), ancilla_gate()))
    assert (c.n_out, c.width) == (12, 12)


def test_circuit_fields_are_frozen():
    c = identity_circuit()
    with pytest.raises(AttributeError):
        c.n_out = 2
    with pytest.raises(AttributeError):
        c.gates = ()


@settings(max_examples=100, deadline=None)
@given(small_circuits())
def test_circuit_width_and_n_out_match_the_oracle_walk(c):
    counts = live_counts(c.n_in, c.gates)
    assert (c.width, c.n_out) == (max(counts), counts[-1])


def test_validate_flags_unitarity_violation():
    u = STANDARD_GATES["H"].copy()
    u[0, 0] += 0.1
    c = Circuit("bad", 1, (Gate("unitary", (0,), u),))
    report = validate(c)
    assert report == ["gate 1 (unitary): unitarity defect 1.815e-01 > 1.0e-09"]


@pytest.mark.parametrize("args, message", [
    (("unitary", (1, 1), 2.0 * np.eye(4, dtype=complex)), "unitary wires must be distinct, got (1, 1)"),
    (("ancilla", (0,)), "ancilla takes no wires, got (0,)"),
    (("unitary", (0,), np.eye(4, dtype=complex)), "unitary on 1 wires must be 2x2, got (4, 4)"),
    (("trace", (0, 1)), "trace takes exactly one wire, got (0, 1)"),
    (("swap", (0, 1)), "unknown gate kind 'swap'"),
    (("unitary", (0, 1, 2, 3), np.eye(16, dtype=complex)), "unitary arity 4 outside 1..3"),
    (("unitary", (0,)), "unitary on 1 wires must be 2x2, got None"),
    (("decohere", (0,), np.eye(2, dtype=complex)), "decohere carries no matrix"),
])
def test_gate_refuses_a_malformed_form(args, message):
    with pytest.raises(CircuitError) as info:
        Gate(*args)
    assert str(info.value) == message


def test_validate_reports_every_finding_in_gate_order():
    # unitarity across three arities, in gate order; Gate refuses every
    # malformed form, and Circuit every dead wire, before validate could see it
    eye = np.eye
    c = Circuit("bad", 3, (
        Gate("unitary", (0,), np.diag([1.0, 1.5]).astype(complex)),
        Gate("unitary", (1, 0), 2.0 * eye(4, dtype=complex)),
        Gate("unitary", (1,), np.array([[1, 1], [0, 1]], dtype=complex)),
        Gate("unitary", (0, 1), eye(4, dtype=complex)),
        Gate("unitary", (0, 1, 2), 0.5 * eye(8, dtype=complex)),
        Gate("decohere", (2,)),
    ))
    assert validate(c) == [
        "gate 1 (unitary): unitarity defect 1.250e+00 > 1.0e-09",
        "gate 2 (unitary): unitarity defect 6.000e+00 > 1.0e-09",
        "gate 3 (unitary): unitarity defect 1.732e+00 > 1.0e-09",
        "gate 5 (unitary): unitarity defect 2.121e+00 > 1.0e-09",
    ]


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
    assert live_counts(s.n_in, s.gates) == [1, 1, 1, 2, 2]
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


# ---------------------------------------------------------------- fuzzing


_UNITARY_FAULTS = ["none"] * 8 + ["non-unitary"] * 3 + [
    "no comma", "extra comma", "moved comma", "empty part", "nan", "inf",
    "overflow", "word", "count", "arity", "wire token", "few wires", "repeated wires",
]
_BAD_LINES = [
    "frobnicate 0", "gate FOO 0", "gate H", "gate CNOT 0 0", "gate H 0 1", "gate CZ 0 1 2 3",
    "trace", "trace 0 1", "trace x", "decohere 9", "decohere -1", "ancilla 0", "end now",
    "unitary", "unitary 2", "circuit c inputs 1", "gate H 0.0",
]
_BAD_HEADERS = ["circuit c inputs -1", "circuit c inputs x", "circ c inputs 1",
                "circuit c inputs 13", "circuit c", "gate H 0"]


def _unitary_text(draw, live):
    """A unitary line with up to two faults, so a line can fail in two ways at once."""
    arity = draw(st.integers(1, min(3, max(live, 1))))
    wires = [str(w) for w in draw(st.permutations(range(max(live, arity))))[:arity]]
    u = random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), 2**arity)
    faults = draw(st.lists(st.sampled_from(_UNITARY_FAULTS), min_size=1, max_size=2))
    if "non-unitary" in faults:  # 1 + 1e-11 stays within the tolerance
        u = u * draw(st.sampled_from([1.5, 1 + 1e-8, 1 + 1e-11]))
    toks = ["%.17g,%.17g" % (z.real, z.imag) for z in u.reshape(-1)]
    head = str(arity)
    for fault in faults:
        at, to = draw(st.integers(0, len(toks) - 1)), draw(st.integers(0, len(toks) - 1))
        re_s, _, im_s = toks[at].partition(",")
        if fault == "no comma":
            toks[at] = re_s + im_s
        elif fault == "extra comma":
            toks[at] += ",0"
        elif fault == "moved comma":  # the comma count stays right
            toks[at] = re_s
            toks[to] += "," + im_s
        elif fault == "empty part":
            toks[at] = draw(st.sampled_from([f",{im_s}", f"{re_s},", ","]))
        elif fault in ("nan", "inf", "overflow", "word"):
            value = {"nan": "nan", "inf": "-inf", "overflow": "1e999", "word": "x1"}[fault]
            toks[at] = draw(st.sampled_from([f"{value},{im_s}", f"{re_s},{value}"]))
        elif fault == "count":
            toks = toks[1:] if draw(st.booleans()) else toks + ["0,0"]
        elif fault == "arity":
            head = draw(st.sampled_from(["0", "4", "-1", "x"]))
        elif fault == "wire token" and wires:
            wires[0] = draw(st.sampled_from(["0.0", "w", "+1", "-1"]))
        elif fault == "few wires":
            wires, toks = wires[:-1], toks[:1]
        elif fault == "repeated wires" and wires:
            wires[-1] = wires[0]
        if not toks:
            break
    return " ".join(["unitary", head, *wires, *toks])


@st.composite
def circuit_texts(draw):
    """Circuit text, valid or not: faults in entries, wires, arities, lines and layout."""
    live = n_in = draw(st.integers(0, 3))
    lines = [f"circuit c inputs {n_in}"]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["unitary", "unitary", "gate", "ancilla", "trace", "decohere"]))
        if kind == "ancilla" or live == 0:
            lines.append("ancilla")
            live += 1
        elif kind == "unitary":
            lines.append(_unitary_text(draw, live))
        elif kind == "gate":
            name = draw(st.sampled_from(["H", "T", "CNOT", "CZ"] if live >= 2 else ["H", "X", "Z"]))
            arity = 2 if name in ("CNOT", "CZ") else 1
            lines.append(f"gate {name} " + " ".join(map(str, draw(st.permutations(range(live)))[:arity])))
        else:
            lines.append(f"{kind} {draw(st.integers(0, live - 1))}")
            live -= kind == "trace"
    lines.append("end")
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(1, len(lines)))
        lines.insert(at, draw(st.sampled_from(_BAD_LINES + ["", "# note", "   "])))
    layout = draw(st.sampled_from(["as is"] * 6 + ["no end", "after end", "header", "comments", "empty"]))
    if layout == "no end":
        lines.remove("end")
    elif layout == "after end":
        lines.append(draw(st.sampled_from(["gate H 0", "end"])))
    elif layout == "header":
        lines[0] = draw(st.sampled_from(_BAD_HEADERS))
    elif layout == "comments":
        lines = ["# leading"] + [f"{line}  # c" for line in lines]
    elif layout == "empty":
        lines = draw(st.sampled_from([[], [""], ["# only a comment"]]))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


def _outcome(parse, text):
    try:
        return parse(text), None
    except Exception as exc:  # compared below, whatever it is
        return None, exc


@settings(max_examples=400, deadline=None)
@given(text=circuit_texts())
def test_parse_agrees_with_the_line_reader(text):
    got, err = _outcome(parse_circuit, text)
    want, want_err = _outcome(line_parse_circuit, text)
    if want_err is not None:
        assert type(err) is type(want_err)
        assert str(err) == str(want_err)
        assert getattr(err, "line", None) == getattr(want_err, "line", None)
        # a circuit wider than the cap is refused by size, everything else as a circuit error
        assert isinstance(err, (CircuitError, SizeCapError))
        return
    assert err is None
    assert (got.name, got.n_in, len(got.gates)) == (want.name, want.n_in, len(want.gates))
    for g, w in zip(got.gates, want.gates):
        assert (g.kind, g.wires, g.label) == (w.kind, w.wires, w.label)
        if g.kind == "unitary":
            assert g.matrix.dtype == w.matrix.dtype and g.matrix.shape == w.matrix.shape
            assert g.matrix.tobytes() == w.matrix.tobytes()


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(circuit_texts(), mutated_circuit_texts().map(lambda case: case[1])))
def test_a_parsed_circuit_passes_validate(text):
    # the CLI's validate reports parse errors only: the parser refuses all validate finds
    try:
        c = parse_circuit(text)
    except (CircuitError, SizeCapError):
        return
    assert validate(c) == []
