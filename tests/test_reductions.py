import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

from qcdist import reductions
from qcdist.circuits import (
    Circuit,
    UnitarityError,
    ancilla_gate,
    decohere_gate,
    parse_circuit,
    serialize_circuit,
    trace_gate,
    unitary_gate,
    validate,
)
from qcdist.dilation import dilate
from qcdist.distances import OptimizerConfig, diamond_norm, max_image_fidelity
from qcdist.linalg import SizeCapError
from qcdist.reductions import (
    ConstructionError,
    PolarizationParams,
    ci_to_qcd,
    controlled_join,
    mix_with_parity,
    parity_mix,
    polarize,
    tensor_power,
)
from qcdist.simulate import choi_of

from helpers import (
    decohere_circuit,
    dilated_unitary,
    identity_circuit,
    constant_circuit,
    random_11_circuit,
    random_unitary,
    small_circuits,
    z_circuit,
)
from oracles import channel_mix, channel_tensor

CFG = OptimizerConfig()


def test_controlled_join_identities():
    d = dilate(identity_circuit())
    j = controlled_join(d, d)
    assert np.abs(dilated_unitary(j) - np.eye(4)).max() < 1e-12


def test_controlled_join_x_gives_cnot():
    x = parse_circuit("circuit x inputs 1\ngate X 0\nend")
    j = controlled_join(dilate(identity_circuit()), dilate(x))
    got = dilated_unitary(j)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    assert np.abs(got - cnot).max() < 1e-12


def test_controlled_join_defining_equations_random():
    rng = np.random.default_rng(0)
    for _ in range(5):
        u0 = Circuit("u0", 1, (unitary_gate(random_unitary(rng, 2), (0,)),))
        u1 = Circuit("u1", 1, (unitary_gate(random_unitary(rng, 2), (0,)),))
        j = controlled_join(dilate(u0), dilate(u1))
        got = dilated_unitary(j)
        expect = np.zeros((4, 4), dtype=complex)
        expect[:2, :2] = u0.gates[0].matrix
        expect[2:, 2:] = u1.gates[0].matrix
        assert np.abs(got - expect).max() < 1e-12


def test_controlled_join_two_qubit_gate_decomposition():
    # Gates of arity 2 are decomposed; the joined unitary must still be the
    # exact block embedding, and every emitted gate must have arity <= 2.
    rng = np.random.default_rng(1)
    c0 = Circuit("c0", 2, (unitary_gate(random_unitary(rng, 4), (0, 1)),))
    c1 = Circuit("c1", 2, (unitary_gate(random_unitary(rng, 4), (1, 0)),))
    j = controlled_join(dilate(c0), dilate(c1))
    assert max(g.arity for g in j.unitary_circuit.gates) <= 2
    got = dilated_unitary(j)
    u0_full = dilated_unitary(dilate(c0))
    u1_full = dilated_unitary(dilate(c1))
    expect = np.zeros((8, 8), dtype=complex)
    expect[:4, :4] = u0_full
    expect[4:, 4:] = u1_full
    assert np.abs(got - expect).max() < 1e-12


def test_controlled_join_refuses_a_non_unitary_gate_at_its_one_check(monkeypatch):
    rng = np.random.default_rng(1)
    c0 = Circuit("c0", 2, (unitary_gate(random_unitary(rng, 4), (0, 1)),))
    c1 = Circuit("c1", 2, (unitary_gate(random_unitary(rng, 4), (1, 0)),))
    p0, p1 = dilate(c0), dilate(c1)
    bad = 2.0 * np.eye(4, dtype=complex)  # defect ||3 I||_F = 6
    monkeypatch.setattr(reductions, "_cphase", lambda theta: bad)
    emitted = [g for branch, p in ((0, p0), (1, p1)) for source in p.unitary_circuit.gates
               for g in reductions._controlled_gates(source, branch)]
    first = next(k for k, g in enumerate(emitted) if g.matrix is bad)
    checks = []
    monkeypatch.setattr(reductions, "validate", lambda c: checks.append(c) or validate(c))
    with pytest.raises(UnitarityError) as info:
        controlled_join(p0, p1)
    assert str(info.value) == f"gate {first + 1} (unitary): unitarity defect 6.000e+00 > 1.0e-09"
    assert len(checks) == 1 and len(checks[0].gates) == len(emitted)


def test_controlled_join_refuses_three_qubit_gates():
    rng = np.random.default_rng(2)
    c = Circuit("c3", 3, (unitary_gate(random_unitary(rng, 8), (0, 1, 2)),))
    with pytest.raises(ConstructionError, match="arity"):
        controlled_join(dilate(c), dilate(c))


def test_ci_to_qcd_structure():
    r0, r1 = ci_to_qcd(identity_circuit(), decohere_circuit())
    assert r0.n_in == 2
    assert r1.gates[:-1] == r0.gates
    assert r1.gates[-1].kind == "decohere" and r1.gates[-1].wires == (0,)
    assert validate(r0) == [] and validate(r1) == []


def test_ci_to_qcd_decohere_commutes():
    # (D (x) I) o R0 = R1 at the Choi level.
    from qcdist.circuits import decohere_gate

    q0, q1 = random_11_circuit(np.random.default_rng(3), "a"), decohere_circuit()
    r0, r1 = ci_to_qcd(q0, q1)
    composed = Circuit("comp", r0.n_in, r0.gates + (decohere_gate(0),))
    assert np.abs(choi_of(composed).choi - choi_of(r1).choi).max() < 1e-9


def test_ci_to_qcd_identity_pair():
    r0, r1 = ci_to_qcd(identity_circuit(), identity_circuit("id2"))
    w = diamond_norm(choi_of(r0), choi_of(r1), CFG)
    assert abs(w.value - 1.0) < 1e-6


def test_ci_to_qcd_orthogonal_constants():
    r0, r1 = ci_to_qcd(constant_circuit("c0", "zero"), constant_circuit("c1", "one"))
    assert np.abs(choi_of(r0).choi - choi_of(r1).choi).max() < 1e-9
    w = diamond_norm(choi_of(r0), choi_of(r1), CFG)
    assert w.value < 1e-9


def test_ci_to_qcd_matches_max_image_fidelity():
    rng = np.random.default_rng(4)
    for trial in range(6):
        qa = random_11_circuit(rng, "qa")
        qb = random_11_circuit(rng, "qb")
        r0, r1 = ci_to_qcd(qa, qb)
        wd = diamond_norm(choi_of(r0), choi_of(r1))
        mf = max_image_fidelity(choi_of(qa), choi_of(qb))
        assert abs(wd.value - mf.value) < 1e-4


def test_controlled_join_of_joined_circuits():
    # Joining circuits whose gates came from a previous join exercises the
    # decomposition's closure property (polarize stage 3 depends on it).
    p0, p1 = parity_mix(identity_circuit(), decohere_circuit(), 2)
    d0, d1 = dilate(p0), dilate(p1)
    j = controlled_join(d0, d1)
    assert max(g.arity for g in j.unitary_circuit.gates) <= 2
    n = max(d0.n_wires, d1.n_wires)
    u0, u1 = dilated_unitary(d0), dilated_unitary(d1)
    if d0.n_wires < n:
        u0 = np.kron(u0, np.eye(2 ** (n - d0.n_wires)))
    if d1.n_wires < n:
        u1 = np.kron(u1, np.eye(2 ** (n - d1.n_wires)))
    half = 2**n
    expect = np.zeros((2 * half, 2 * half), dtype=complex)
    expect[:half, :half] = u0
    expect[half:, half:] = u1
    assert np.abs(dilated_unitary(j) - expect).max() < 1e-12


def test_ci_to_qcd_two_qubit_inputs():
    # Wider type (2, 1): one image inside the diagonal family, the other a
    # constant |+><+|; every diagonal state has fidelity 2^-1/2 with |+>.
    rng = np.random.default_rng(7)
    from qcdist.circuits import ancilla_gate, decohere_gate, named_gate, trace_gate, unitary_gate

    qa = Circuit("qa", 2, (
        unitary_gate(random_unitary(rng, 4), (0, 1)),
        trace_gate(1),
        decohere_gate(0),
    ))
    qb = Circuit("qb", 2, (
        trace_gate(0), trace_gate(0), ancilla_gate(), named_gate("H", (0,)),
    ))
    r0, r1 = ci_to_qcd(qa, qb)
    assert (r0.n_in, r0.n_out) == (3, r0.n_out)
    wd = diamond_norm(choi_of(r0), choi_of(r1))
    mf = max_image_fidelity(choi_of(qa), choi_of(qb))
    assert abs(wd.value - 1 / np.sqrt(2)) < 1e-6
    assert abs(mf.value - 1 / np.sqrt(2)) < 1e-6


def test_parity_mix_r1_passthrough():
    q0, q1 = identity_circuit(), decohere_circuit()
    p0, p1 = parity_mix(q0, q1, 1)
    assert np.abs(choi_of(p0).choi - choi_of(q0).choi).max() < 1e-9
    assert np.abs(choi_of(p1).choi - choi_of(q1).choi).max() < 1e-9


def test_parity_mix_matches_channel_mixture():
    # Circuit construction versus direct channel algebra, r = 2.
    q0, q1 = identity_circuit(), decohere_circuit()
    p0, p1 = parity_mix(q0, q1, 2)
    ch0, ch1 = choi_of(q0), choi_of(q1)
    even = channel_mix([channel_tensor(ch0, ch0), channel_tensor(ch1, ch1)], [0.5, 0.5])
    odd = channel_mix([channel_tensor(ch0, ch1), channel_tensor(ch1, ch0)], [0.5, 0.5])
    assert np.abs(choi_of(p0).choi - even.choi).max() < 1e-9
    assert np.abs(choi_of(p1).choi - odd.choi).max() < 1e-9


def test_parity_mix_exact_law():
    q0, q1 = identity_circuit(), decohere_circuit()
    for r, expect in ((2, 0.5), (3, 0.25)):
        p0, p1 = parity_mix(q0, q1, r)
        w = diamond_norm(choi_of(p0), choi_of(p1), CFG)
        assert abs(w.value - expect) < 1e-4


def test_parity_mix_perfectly_distinguishable_stays_two():
    p0, p1 = parity_mix(identity_circuit(), z_circuit(), 2)
    w = diamond_norm(choi_of(p0), choi_of(p1), CFG)
    assert abs(w.value - 2.0) < 1e-6


def test_tensor_power_k1_unchanged():
    q0, q1 = identity_circuit(), decohere_circuit()
    t0, t1 = tensor_power(q0, q1, 1)
    assert t0 is q0 and t1 is q1


def test_tensor_power_equal_circuits_stay_equal():
    q0 = decohere_circuit()
    t0, t1 = tensor_power(q0, decohere_circuit("dec2"), 2)
    assert np.abs(choi_of(t0).choi - choi_of(t1).choi).max() < 1e-12


def test_tensor_power_matches_channel_tensor():
    rng = np.random.default_rng(5)
    qa = random_11_circuit(rng, "qa")
    t0, _ = tensor_power(qa, qa, 2)
    direct = channel_tensor(choi_of(qa), choi_of(qa))
    assert np.abs(choi_of(t0).choi - direct.choi).max() < 1e-9


@settings(max_examples=25, deadline=None)
@given(small_circuits(max_in=2, max_live=3))
def test_tensor_power_replays_any_type(c):
    # every type from (0, 0) to (2, 3): ancillas and traces move the copies' wires
    t0, _ = tensor_power(c, c, 2)
    direct = channel_tensor(choi_of(c), choi_of(c))
    assert np.abs(choi_of(t0).choi - direct.choi).max() < 1e-12


def _random_21_circuit(rng, name):
    u = lambda *w: unitary_gate(random_unitary(rng, 2 ** len(w)), w)
    gates = [u(0, 1), ancilla_gate(), u(2, 0), decohere_gate(1), trace_gate(0),
             u(1, 0), trace_gate(1)]
    return Circuit(name, 2, gates)


@pytest.mark.parametrize("odd", [False, True])
def test_mix_with_parity_of_width_changing_pairs(odd):
    rng = np.random.default_rng(8)
    a, b = _random_21_circuit(rng, "a"), _random_21_circuit(rng, "b")
    q0, q1 = identity_circuit(), decohere_circuit()
    mixed = mix_with_parity([(a, b), (q0, q1)], odd=odd, name="m")
    ca, cb, c0, c1 = (choi_of(c) for c in (a, b, q0, q1))
    branches = [(ca, c1), (cb, c0)] if odd else [(ca, c0), (cb, c1)]
    expected = channel_mix([channel_tensor(x, y) for x, y in branches], [0.5, 0.5])
    assert (mixed.n_in, mixed.n_out) == (3, 2)
    assert np.abs(choi_of(mixed).choi - expected.choi).max() < 1e-12


def test_tensor_power_bounds():
    q0, q1 = identity_circuit(), decohere_circuit()
    eps = 1.0
    for k in (2, 3):
        t0, t1 = tensor_power(q0, q1, k)
        w = diamond_norm(choi_of(t0), choi_of(t1))
        lower = 2 - 2 * np.exp(-k * eps**2 / 8)
        assert lower < w.value <= min(k * eps, 2.0) + 1e-9


def test_dnorm_split_product_law():
    rng = np.random.default_rng(6)
    phi0, phi1 = random_11_circuit(rng, "f0"), random_11_circuit(rng, "f1")
    psi0, psi1 = random_11_circuit(rng, "g0"), random_11_circuit(rng, "g1")
    xi0 = mix_with_parity([(phi0, phi1), (psi0, psi1)], odd=False, name="xi0")
    xi1 = mix_with_parity([(phi0, phi1), (psi0, psi1)], odd=True, name="xi1")
    v_phi = diamond_norm(choi_of(phi0), choi_of(phi1)).value
    v_psi = diamond_norm(choi_of(psi0), choi_of(psi1)).value
    v_xi = diamond_norm(choi_of(xi0), choi_of(xi1)).value
    assert abs(v_xi - 0.5 * v_phi * v_psi) < 1e-4


def test_polarization_params_derived_values():
    p = PolarizationParams(n=1, a=1.0, b=0.25)
    assert (p.r, p.s, p.t) == (4, 1024, 1)
    with pytest.raises(ValueError, match="2b"):
        PolarizationParams(n=1, a=1.0, b=0.6)


def test_polarize_derived_params_refuse_with_certificate():
    params = PolarizationParams(n=1, a=1.0, b=0.25)
    with pytest.raises(SizeCapError) as info:
        polarize(identity_circuit(), decohere_circuit(), params)
    cert = info.value.certificate
    assert (cert["r"], cert["s"], cert["t"]) == (4, 1024, 1)
    assert cert["stages"][1]["guaranteed_interval_no"][1] == pytest.approx(0.5)
    assert cert["final_interval_yes"][0] > 2 - 2 ** -params.n


def test_polarize_override_identity_stages():
    params = PolarizationParams(n=1, a=1.0, b=0.25)
    s0, s1, cert = polarize(identity_circuit(), decohere_circuit(), params, override=(1, 1, 1))
    assert cert["overridden"]
    w = diamond_norm(choi_of(s0), choi_of(s1), CFG)
    assert abs(w.value - 1.0) < 1e-4


def test_polarize_override_staged_values():
    params = PolarizationParams(n=1, a=1.0, b=0.25)
    q0, q1 = identity_circuit(), decohere_circuit()
    s0, s1, _ = polarize(q0, q1, params, override=(2, 2, 1))
    # stage 1 alone
    p0, p1 = parity_mix(q0, q1, 2)
    v1 = diamond_norm(choi_of(p0), choi_of(p1)).value
    assert abs(v1 - 0.5) < 1e-4
    # full pipeline: within the tensor-power bounds for eps = 1/2, k = 2,
    # and equal to the stage-2 value since t = 1.
    v = diamond_norm(choi_of(s0), choi_of(s1)).value
    t0, t1 = tensor_power(p0, p1, 2)
    v2 = diamond_norm(choi_of(t0), choi_of(t1)).value
    assert 2 - 2 * np.exp(-1 / 8) < v <= 1.0 + 1e-9
    assert abs(v - v2) < 1e-4


def test_emitted_circuits_revalidate():
    q0, q1 = identity_circuit(), decohere_circuit()
    outputs = []
    outputs.extend(ci_to_qcd(q0, q1))
    outputs.extend(parity_mix(q0, q1, 2))
    outputs.extend(tensor_power(q0, q1, 2))
    for c in outputs:
        assert validate(c) == []
        back = parse_circuit(serialize_circuit(c))
        assert validate(back) == []
        choi_of(back)  # admissibility asserted internally


def test_tensor_and_parity_refuse_width_by_arithmetic(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the cap must be checked before anything is built")

    monkeypatch.setattr(reductions, "_WireTracker", refuse)
    monkeypatch.setattr(reductions, "dilate", refuse)
    q0, q1 = identity_circuit(), decohere_circuit()
    with pytest.raises(SizeCapError):
        tensor_power(q0, q1, 10**6)
    with pytest.raises(SizeCapError):
        parity_mix(q0, q1, 10**6)
    # a circuit without inputs still holds all k of its outputs at the end
    prep = parse_circuit("circuit prep inputs 0\nancilla\ngate H 0\nend\n")
    with pytest.raises(SizeCapError):
        tensor_power(prep, prep, 10**6)


def unshared_parity_mix(q0, q1, r):
    """parity_mix with a distinct copy of the pair per block, so every block joins anew."""
    pairs = [(dataclasses.replace(q0), dataclasses.replace(q1)) for _ in range(r)]
    return (
        mix_with_parity(pairs, odd=False, name="p0"),
        mix_with_parity(pairs, odd=True, name="p1"),
    )


def test_parity_mix_joins_each_distinct_pair_once(monkeypatch):
    calls = []

    def counting_join(p0, p1):
        calls.append(1)
        return controlled_join(p0, p1)

    q0, q1 = identity_circuit(), decohere_circuit()
    expected = [serialize_circuit(c) for c in unshared_parity_mix(q0, q1, 4)]
    monkeypatch.setattr(reductions, "controlled_join", counting_join)
    shared = parity_mix(q0, q1, 4)
    assert len(calls) == 2  # one per mixture, not one per block
    assert [serialize_circuit(c) for c in shared] == expected


def test_polarize_emits_the_unshared_pipeline():
    params = PolarizationParams(n=1, a=1.0, b=0.25)
    q0, q1 = identity_circuit(), decohere_circuit()
    s0, s1, _ = polarize(q0, q1, params, override=(2, 2, 1))
    t0, t1 = tensor_power(*unshared_parity_mix(q0, q1, 2), 2)
    assert serialize_circuit(s0) == serialize_circuit(Circuit("s0", t0.n_in, t0.gates))
    assert serialize_circuit(s1) == serialize_circuit(Circuit("s1", t1.n_in, t1.gates))


@pytest.mark.parametrize("override", [(2, 100, 1), (2, 2, 5), None], ids=["tensor", "parity", "derived"])
def test_polarize_refuses_every_stage_by_arithmetic(monkeypatch, override):
    def refuse(*args, **kwargs):
        raise AssertionError("the cap must be checked before anything is built")

    monkeypatch.setattr(reductions, "dilate", refuse)
    monkeypatch.setattr(reductions, "controlled_join", refuse)
    monkeypatch.setattr(reductions, "_WireTracker", refuse)
    params = PolarizationParams(n=1, a=1.0, b=0.25)
    with pytest.raises(SizeCapError) as info:
        polarize(identity_circuit(), decohere_circuit(), params, override=override)
    cert = info.value.certificate
    assert (cert["r"], cert["s"], cert["t"]) == (override or (params.r, params.s, params.t))
