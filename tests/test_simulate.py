import itertools
import json
from collections import Counter
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcdist import linalg, simulate as simulate_mod
from qcdist.circuits import (
    Circuit,
    Gate,
    ancilla_gate,
    decohere_gate,
    named_gate,
    parse_circuit,
    schedule,
    schedule_groups,
    trace_gate,
    unitary_gate,
)
from qcdist.distances import trace_norm
from qcdist.simulate import (
    Channel,
    NotCompletelyPositiveError,
    adjoint_apply_ext,
    apply_extended,
    channel_apply_ext,
    channel_from_choi,
    choi_of,
    density_from_json,
    density_to_json,
    kraus_of,
    require_density,
    simulate,
)
from qcdist.linalg import SizeCapError, partial_trace
from qcdist.reductions import PolarizationParams, polarize, tensor_power

from helpers import (
    decohere_circuit,
    identity_circuit,
    random_11_circuit,
    random_circuit,
    random_density,
    random_hermitian,
    random_state,
    random_unitary,
    small_circuits,
    z_circuit,
)
from oracles import channel_mix, density_walk_oracle, fold_assembly_oracle, live_counts

PHI_PLUS = np.zeros(4, dtype=complex)
PHI_PLUS[0] = PHI_PLUS[3] = 1 / np.sqrt(2)


def test_apply_empty_circuit():
    rng = np.random.default_rng(0)
    rho = random_density(rng, 2)
    assert np.abs(apply_extended(identity_circuit(), rho, 0) - rho).max() == 0.0


def test_apply_decohere_plus_state():
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert np.abs(apply_extended(decohere_circuit(), plus, 0) - np.eye(2) / 2).max() < 1e-15


def test_apply_hadamard():
    h = parse_circuit("circuit h inputs 1\ngate H 0\nend")
    out = apply_extended(h, np.diag([1.0, 0.0]).astype(complex), 0)
    assert np.abs(out - np.full((2, 2), 0.5)).max() < 1e-15


_TOL = linalg.TOL_HERM  # TOL_TRACE and TOL_PSD are equal to it


@pytest.mark.parametrize("rho, message", [
    (np.zeros((2, 4)), "density matrix must be square, got (2, 4)"),
    (np.array([[0.5, 2 * _TOL], [0.0, 0.5]]), "density matrix not Hermitian: defect 2.000e-09"),
    # 2^-28 = 3.7e-9 and 2^-31 = 4.7e-10 add to 0.5 exactly
    (np.diag([0.5, 0.5 + 2**-28]), "density matrix trace (1.0000000037252903+0j) differs from 1"),
    (np.diag([1 + 2 * _TOL, -2 * _TOL]), "density matrix has eigenvalue -2.000e-09 < -1.0e-09"),
    (np.array([[0.5, _TOL / 2], [0.0, 0.5]]), None),
    (np.diag([0.5, 0.5 + 2**-31]), None),
    (np.diag([1 + _TOL / 2, -_TOL / 2]), None),
], ids=["non_square", "not_hermitian", "trace", "negative", "herm_within", "trace_within",
        "negative_within"])
def test_require_density_refuses_at_its_tolerances(rho, message):
    assert linalg.TOL_HERM == linalg.TOL_TRACE == linalg.TOL_PSD
    if message is None:
        assert require_density(rho).dtype == np.complex128
    else:
        with pytest.raises(ValueError) as info:
            require_density(rho)
        assert str(info.value) == message


def test_apply_extended_zero_ref_is_apply():
    rng = np.random.default_rng(1)
    c = random_circuit(rng, 1, 4)
    rho = random_density(rng, 2)
    assert np.abs(apply_extended(c, rho, 0) - simulate(c, rho)).max() == 0.0


def test_apply_extended_identity_leaves_state():
    rng = np.random.default_rng(2)
    rho = random_density(rng, 4)
    assert np.abs(apply_extended(identity_circuit(), rho, 1) - rho).max() == 0.0


def test_apply_extended_decohere_on_entangled_input():
    rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
    out = apply_extended(decohere_circuit(), rho, 1)
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = expect[3, 3] = 0.5
    assert np.abs(out - expect).max() < 1e-15


def test_choi_identity_is_unnormalized_phi_plus():
    ch = choi_of(identity_circuit())
    assert np.abs(ch.choi - 2 * np.outer(PHI_PLUS, PHI_PLUS.conj())).max() < 1e-15


def test_choi_decohere_pattern():
    ch = choi_of(decohere_circuit())
    expect = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
    assert np.abs(ch.choi - expect).max() < 1e-15


def test_choi_trace_gate():
    c = parse_circuit("circuit tr inputs 1\ntrace 0\nend")
    ch = choi_of(c)
    assert (ch.n_in, ch.n_out) == (1, 0)
    assert np.abs(ch.choi - np.eye(2)).max() < 1e-15


def test_kraus_unitary_channel_single_operator():
    ch = choi_of(z_circuit())
    ops = kraus_of(ch)
    assert len(ops) == 1
    z = np.diag([1.0, -1.0])
    phase = ops[0][0, 0] / z[0, 0]
    assert np.abs(ops[0] - phase * z).max() < 1e-10
    assert abs(abs(phase) - 1.0) < 1e-12


def test_kraus_decohere_projectors():
    ops = kraus_of(choi_of(decohere_circuit()))
    assert len(ops) == 2
    total = sum(np.abs(op) for op in ops)
    assert np.abs(total - np.eye(2)).max() < 1e-12


def test_mixture_of_identity_and_z_acts_like_decohere():
    ch_i = choi_of(identity_circuit())
    ch_z = choi_of(z_circuit())
    mix = channel_mix([ch_i, ch_z], [0.5, 0.5])
    # same channel as {sqrt(1/2) I, sqrt(1/2) Z}
    rng = np.random.default_rng(3)
    rho = random_density(rng, 2)
    z = np.diag([1.0, -1.0])
    expect = 0.5 * rho + 0.5 * z @ rho @ z
    assert np.abs(channel_apply_ext(mix, rho, 1) - expect).max() < 1e-12
    rebuilt = sum(a @ rho @ a.conj().T for a in kraus_of(mix))
    assert np.abs(rebuilt - expect).max() < 1e-12
    # NaN passes both the sum test and w < 0; a non-finite weight is refused
    for bad in ([np.nan, 1.0], [np.inf, 1.0], [0.5, 0.6], [-0.5, 1.5]):
        with pytest.raises(ValueError, match="distribution"):
            channel_mix([ch_i, ch_z], bad)


def test_kraus_rejects_negative_choi():
    bad = Channel(1, 1, -np.eye(4, dtype=complex))
    with pytest.raises(NotCompletelyPositiveError):
        kraus_of(bad)


def test_kraus_on_a_thin_factor_refuses_only_beyond_tol_psd():
    # the identity channel's Choi matrix has rank 1 of 4, so kraus_of tries its
    # factor first; a negative eigenvalue off that range shows in the residual
    j = choi_of(identity_circuit()).choi
    off = np.zeros(4)
    off[1] = 1.0
    with pytest.raises(NotCompletelyPositiveError, match="eigenvalue -1.000e-06"):
        kraus_of(Channel(1, 1, j - 1e-6 * np.outer(off, off)))
    ops = kraus_of(Channel(1, 1, j - 1e-11 * np.outer(off, off)))
    assert len(ops) == 1 and np.abs(ops[0].conj().T @ ops[0] - np.eye(2)).max() < 1e-12


def test_kraus_of_a_thin_choi_matrix_has_its_rank():
    # three decoheres: rank 8 at side 64, decomposed on its range
    c = Circuit("d3", 3, tuple(decohere_gate(w) for w in range(3)))
    ops = kraus_of(choi_of(c))
    assert len(ops) == 8
    assert np.abs(sum(np.abs(a) for a in ops) - np.eye(8)).max() < 1e-12


def test_adjoint_identity_and_unitality():
    rng = np.random.default_rng(4)
    ch = choi_of(identity_circuit())
    m = random_hermitian(rng, 2)
    assert np.abs(adjoint_apply_ext(ch, m, 1) - m).max() < 1e-12
    c = random_circuit(rng, 2, 5)
    ch2 = choi_of(c)
    eye_out = np.eye(ch2.dim_out, dtype=complex)
    assert np.abs(adjoint_apply_ext(ch2, eye_out, 1) - np.eye(ch2.dim_in)).max() < 1e-9


def test_adjoint_duality():
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = random_circuit(rng, 1, 5)
        ch = choi_of(c)
        rho = random_density(rng, ch.dim_in)
        m = random_hermitian(rng, ch.dim_out)
        lhs = np.trace(m @ channel_apply_ext(ch, rho, 1))
        rhs = np.trace(adjoint_apply_ext(ch, m, 1) @ rho)
        assert abs(lhs - rhs) < 1e-10


def test_random_circuits_yield_admissible_channels():
    rng = np.random.default_rng(6)
    for _ in range(200):
        c = random_circuit(rng, int(rng.integers(1, 3)), int(rng.integers(0, 9)), max_live=4)
        ch = choi_of(c)  # choi_of itself asserts PSD + trace preservation
        tp = partial_trace(ch.choi, [ch.dim_out, ch.dim_in], [1])
        assert np.abs(tp - np.eye(ch.dim_in)).max() < 1e-9


def test_apply_agrees_with_choi_reconstruction():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = random_circuit(rng, 1, 6)
        ch = choi_of(c)
        rho = random_density(rng, 2)
        assert np.abs(apply_extended(c, rho, 0) - channel_apply_ext(ch, rho, 1)).max() < 1e-10


def test_apply_extended_reference_growth_consistency():
    rng = np.random.default_rng(8)
    c = random_circuit(rng, 1, 4)
    rho = random_density(rng, 2)
    sigma = random_density(rng, 2)
    joint = np.kron(rho, sigma)
    small = apply_extended(c, rho, 0)
    big = apply_extended(c, joint, 1)
    dims = [2**c.n_out, 2]
    assert np.abs(partial_trace(big, dims, [0]) - small).max() < 1e-10


def test_trace_preservation_gives_unit_output_tnorm():
    rng = np.random.default_rng(9)
    for _ in range(10):
        c = random_circuit(rng, 1, 5)
        ch = choi_of(c)
        psi = random_state(rng, 2 * ch.dim_in)
        out = channel_apply_ext(ch, np.outer(psi, psi.conj()), 2)
        assert abs(trace_norm(out) - 1.0) < 1e-9


def test_density_json_roundtrip():
    rng = np.random.default_rng(10)
    rho = random_density(rng, 4)
    import json

    from qcdist.jsonutil import dumps

    back = density_from_json(json.loads(dumps(density_to_json(rho))))
    assert np.array_equal(back, rho)


_UNBOUNDED_QUBITS = ["Infinity", "-Infinity", "NaN", "1e300", str(10**400)]


@pytest.mark.parametrize("qubits", _UNBOUNDED_QUBITS, ids=lambda q: q[:8])
def test_density_json_refuses_an_unbounded_qubit_count(qubits):
    # 2^n was formed before n was bounded: 1e300 never returned, Infinity overflowed
    text = f'{{"qubits": {qubits}, "rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]}}'
    with pytest.raises(ValueError):
        density_from_json(json.loads(text))


@pytest.mark.parametrize("part", ["1.7976931348623157e308", "-2", "1.000001"])
def test_density_json_refuses_entries_no_density_matrix_has(part):
    # near the float maximum, a distance of such a matrix overflowed with a warning
    text = f'{{"qubits": 1, "rows": 2, "cols": 2, "entries": [[1, 0], [0, {part}], [0, 0], [0, 0]]}}'
    with pytest.raises(ValueError, match="exceeds 1"):
        density_from_json(json.loads(text))


def test_channel_from_choi_validates():
    ch = channel_from_choi(1, 1, np.diag([1.0, 0, 0, 1.0]).astype(complex))
    assert len(kraus_of(ch)) == 2
    with pytest.raises(ValueError, match="admissible"):
        channel_from_choi(1, 1, np.eye(4, dtype=complex))  # not trace preserving


def test_channel_from_choi_checks_hermiticity_and_keeps_the_hermitian_part():
    j = np.diag([1.0, 0, 0, 1.0]).astype(complex)
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 3] = 1e-12
    ch = channel_from_choi(1, 1, j + skew)
    assert np.array_equal(ch.choi, ch.choi.conj().T)
    assert ch.choi[0, 3] == ch.choi[3, 0] == 5e-13
    skew[0, 3] = 1e-6
    with pytest.raises(ValueError, match="not Hermitian: defect 1.000e-06"):
        channel_from_choi(1, 1, j + skew)


def _oracle_choi(c):
    """J = (c (x) I)(omega omega^dagger), omega = sum_i |i>|i>, from the oracle walk."""
    din = 2**c.n_in
    omega = np.eye(din).reshape(din * din)
    return density_walk_oracle(c, np.outer(omega, omega), c.n_in)


def _spy(monkeypatch, name):
    """Record the calls made to a module-level function of simulate."""
    calls = []
    real = getattr(simulate_mod, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulate_mod, name, spy)
    return calls


def test_kraus_walk_matches_matrix_units_below_switch(monkeypatch):
    # two inputs widened to four live wires (D = 64 before the trace, 32
    # after); two decoheres and one trace keep the stack at r <= 8
    rng = np.random.default_rng(11)
    circuits = []
    for _ in range(5):
        u2 = lambda a, b: unitary_gate(random_unitary(rng, 4), (a, b))
        gates = [ancilla_gate(), ancilla_gate(), u2(0, 2), u2(3, 1), decohere_gate(2),
                 u2(1, 2), decohere_gate(0), u2(3, 0), trace_gate(1), u2(2, 0)]
        circuits.append(Circuit("low", 2, gates))
    refs = [_oracle_choi(c) for c in circuits]
    switches = _spy(monkeypatch, "_run_gates")
    for c, ref in zip(circuits, refs):
        ch = choi_of(c)
        assert np.abs(ch.choi - ref).max() < 1e-12
    assert switches == []


def test_kraus_walk_drops_exact_zero_halves(monkeypatch):
    # tracing a fresh ancilla leaves one half of every operator exactly zero;
    # kept, those halves would double r forty times and force the switch
    rng = np.random.default_rng(14)
    gates = [unitary_gate(random_unitary(rng, 2), (0,))]
    for _ in range(20):
        gates += [ancilla_gate(), decohere_gate(1), trace_gate(1)]
    c = Circuit("fresh", 1, gates)
    switches = _spy(monkeypatch, "_run_gates")
    ch = choi_of(c)
    assert switches == []
    assert len(kraus_of(ch)) == 1
    assert np.abs(ch.choi - choi_of(Circuit("u", 1, gates[:1])).choi).max() < 1e-12


def test_kraus_walk_switches_to_density_walk_past_d(monkeypatch):
    # decohere-heavy: ten decoheres on two live wires (D = 8) push r past D
    rng = np.random.default_rng(12)
    gates = [ancilla_gate()]
    for _ in range(5):
        gates += [unitary_gate(random_unitary(rng, 4), (0, 1)), decohere_gate(0), decohere_gate(1)]
    gates.append(trace_gate(1))
    c = Circuit("heavy", 1, gates)
    ref = _oracle_choi(c)
    switches = _spy(monkeypatch, "_run_gates")
    ch = choi_of(c)
    assert np.abs(ch.choi - ref).max() < 1e-12
    assert len(switches) == 1
    assert 0 < len(switches[0][1]) < len(gates)  # the walk switched mid-circuit


def _choi_under_cap_32(c):
    """choi_of(c) with DIM_CAP = 32, checking that every density walk holds
    at most DIM_CAP^2 entries per buffer at its widest point and that the
    Kraus stack never exceeds 2 * DIM_CAP^2 entries; returns (J, walks)
    with walks the (batch, gates) of each density walk."""
    walks, run_gates, step = [], simulate_mod._run_gates, simulate_mod._kraus_step

    def walk(t, gates, live):
        widest = max(itertools.accumulate(
            ((g.kind == "ancilla") - (g.kind == "trace") for g in gates), initial=live))
        assert 4**widest * t.shape[-1] <= 32**2
        walks.append((t.shape[-1], gates))
        return run_gates(t, gates, live)

    def kraus_step(k, g, live):
        out = step(k, g, live)
        assert out[0].size <= 2 * 32**2
        return out

    with mock.patch.object(linalg, "DIM_CAP", 32), \
            mock.patch.object(simulate_mod, "_run_gates", walk), \
            mock.patch.object(simulate_mod, "_kraus_step", kraus_step):
        return choi_of(c).choi, walks


def _over_cap_wide_circuit():
    """Two inputs on three live wires: the sixth decohere takes r to 64 > D = 32,
    and the rest of the circuit reaches four live wires, 4 + 2 > log2(32)."""
    rng = np.random.default_rng(13)
    u = lambda *w: unitary_gate(random_unitary(rng, 2 ** len(w)), w)
    gates = [ancilla_gate()]
    for step in range(6):
        gates += [u(0, 1, 2), decohere_gate(step % 3)]
    gates += [ancilla_gate(), u(3, 0, 2), decohere_gate(3), u(1, 3), trace_gate(3), u(2, 0)]
    return Circuit("wide", 2, gates)


def test_over_cap_width_walks_the_fold_one_block_at_a_time():
    c = _over_cap_wide_circuit()
    choi, walks = _choi_under_cap_32(c)
    assert np.abs(choi - _oracle_choi(c)).max() < 1e-12
    assert np.array_equal(choi, choi.conj().T)
    # one walk per block |i><j|, i <= j, each of the gates after the fold
    assert [b for b, _ in walks] == [1] * (4 * 5 // 2)
    assert all(len(g) == 6 for _, g in walks)


def test_stack_folds_before_doubling_past_twice_the_cap_squared():
    # two inputs on four live wires (D = 64): at r = 32 the stack holds
    # 2048 = 2 * 32^2 entries, so the stack folds before the sixth decohere, with r < D
    rng = np.random.default_rng(21)
    u = lambda *w: unitary_gate(random_unitary(rng, 2 ** len(w)), w)
    gates = [ancilla_gate(), ancilla_gate()]
    for step in range(7):
        gates += [u(step % 4, (step + 1) % 4, (step + 2) % 4), decohere_gate(step % 4)]
    gates += [u(3, 1), trace_gate(0), u(2, 0)]
    c = Circuit("guard", 2, gates)
    choi, walks = _choi_under_cap_32(c)
    assert np.abs(choi - _oracle_choi(c)).max() < 1e-12
    assert len(walks) == 10
    assert all(len(g) == 6 and g[0].kind == "decohere" for _, g in walks)


@st.composite
def _over_cap_circuits(draw):
    """Circuits whose widest point plus n_in exceeds 5 wires, the limit
    under DIM_CAP = 32, with a Choi matrix inside it: ancillas up to the
    widest point, then traces down to 5 - n_in live wires, with drawn
    steps (a unitary, then a decohere of one of its wires) between them.
    Each decohere can double the Kraus stack, so most of them fold it."""
    n_in = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gates, live = [], n_in

    def steps(most):
        for _ in range(draw(st.integers(0, most))):
            wires = draw(st.lists(st.integers(0, live - 1), min_size=1,
                                  max_size=min(3, live), unique=True))
            gates.extend([unitary_gate(random_unitary(rng, 2 ** len(wires)), wires),
                          decohere_gate(draw(st.sampled_from(wires)))])

    for _ in range(draw(st.integers(6 - 2 * n_in, 5 - n_in))):
        gates.append(ancilla_gate())
        live += 1
        steps(3)
    steps(10)
    while live > 5 - n_in:
        gates.append(trace_gate(draw(st.integers(0, live - 1))))
        live -= 1
        steps(2)
    return Circuit("over", n_in, gates)


@settings(max_examples=40, deadline=None)
@given(_over_cap_circuits())
def test_over_cap_walk_matches_oracle_property(c):
    assert c.width + c.n_in > 5
    choi, _ = _choi_under_cap_32(c)
    assert np.abs(choi - _oracle_choi(c)).max() < 1e-12
    assert np.array_equal(choi, choi.conj().T)


def test_simulate_refuses_width_before_walking(monkeypatch):
    # 12 live wires fit the cap; one reference qubit more does not
    def refuse(*args, **kwargs):
        raise AssertionError("the cap must be checked before the walk starts")

    c = Circuit("wide", 1, [ancilla_gate() for _ in range(11)])
    monkeypatch.setattr(simulate_mod, "_run_gates", refuse)
    with pytest.raises(SizeCapError, match="13 qubits"):
        apply_extended(c, np.eye(4) / 4, ref_qubits=1)


@settings(max_examples=25, deadline=None)
@given(small_circuits())
def test_kraus_walk_matches_matrix_units_property(c):
    choi = choi_of(c).choi
    assert np.abs(choi - _oracle_choi(c)).max() < 1e-12
    assert np.array_equal(choi, choi.conj().T)


def test_kraus_path_choi_is_exactly_hermitian():
    # a mixed one-qubit state from two Kraus operators: the 2 x 2 product
    # sum_k vec(K_k) vec(K_k)^dagger is Hermitian only up to rounding
    rng = np.random.default_rng(24)
    for _ in range(5):
        c = Circuit("prep", 0, [ancilla_gate(), unitary_gate(random_unitary(rng, 2), (0,)),
                                decohere_gate(0), unitary_gate(random_unitary(rng, 2), (0,))])
        choi = choi_of(c).choi
        assert np.abs(choi - _oracle_choi(c)).max() < 1e-15
        assert np.array_equal(choi, choi.conj().T)


def _random_operator(rng, side):
    return rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))


@settings(max_examples=40, deadline=None)
@given(small_circuits(), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_density_walk_matches_oracle_property(c, ref_qubits, seed):
    x = _random_operator(np.random.default_rng(seed), 2 ** (c.n_in + ref_qubits))
    out = simulate(c, x, ref_qubits)
    assert np.abs(out - density_walk_oracle(c, x, ref_qubits)).max() < 1e-12


def test_density_walk_matches_oracle_at_dense_choi_size(monkeypatch):
    # three inputs widened to six live wires, with arity-3 unitaries; the
    # decoheres push the Kraus stack past D, so choi_of switches to the walk
    rng = np.random.default_rng(15)
    u = lambda *w: unitary_gate(random_unitary(rng, 2 ** len(w)), w)
    gates = [u(0, 1, 2), ancilla_gate(), ancilla_gate(), ancilla_gate()]
    for step in range(12):  # r reaches 2^10 > D = 2^9 at the tenth decohere
        gates += [u(step % 6, (step + 2) % 6, (step + 5) % 6), decohere_gate(step % 6)]
    for step in range(6):
        gates += [u((step + 1) % 6, (step + 3) % 6), decohere_gate((step + 4) % 6),
                  u(step, (step + 2) % 6, (step + 4) % 6)]
    gates += [trace_gate(5), u(1, 4, 0), trace_gate(2), u(3, 0)]
    c = Circuit("wide", 3, gates)
    omega = np.eye(8).reshape(64)  # sum_i |i>|i>
    ref = density_walk_oracle(c, np.outer(omega, omega), 3)
    switches = _spy(monkeypatch, "_run_gates")
    assert np.abs(choi_of(c).choi - ref).max() < 1e-12
    assert len(switches) == 1 and len(switches[0][1]) > len(gates) // 3  # 26 of 50 gates walked
    x = _random_operator(rng, 16)
    assert np.abs(simulate(c, x, 1) - density_walk_oracle(c, x, 1)).max() < 1e-12


@st.composite
def _decohere_heavy_circuits(draw):
    """Circuits on 2-3 inputs with at least two ancillas.  Each of the first
    live + n_in + 1 steps is a unitary on wire 0 and up to two more wires
    (step k uses ancilla k), then a decohere of wire 0, which doubles the
    Kraus stack: past D = 2^live * 2^n_in, so ``choi_of`` switches.  Wire 0
    is never traced and every step uses it, so ``schedule`` drops none of
    them.  The drawn tail (steps decohering any of their wires, ancillas,
    traces) then runs in the density walk."""
    n_in = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    live = n_in + draw(st.integers(2, 5 - n_in))
    gates = [ancilla_gate()] * (live - n_in)
    main = live + n_in + 1
    tail = draw(st.lists(st.sampled_from(["step", "ancilla", "trace"]), max_size=5))
    for i, kind in enumerate(["step"] * main + tail):
        if kind == "ancilla" and live < 6:
            gates.append(ancilla_gate())
            live += 1
        elif kind == "trace" and live > 1:
            gates.append(trace_gate(draw(st.integers(1, live - 1))))
            live -= 1
        elif i < main:
            others = draw(st.lists(st.integers(1, live - 1), max_size=2, unique=True))
            if n_in + i < live and n_in + i not in others:
                others = [n_in + i] + others[:1]
            wires = draw(st.permutations([0] + others))
            gates += [unitary_gate(random_unitary(rng, 2 ** len(wires)), wires), decohere_gate(0)]
        else:
            wires = draw(st.lists(st.integers(0, live - 1), min_size=1,
                                  max_size=min(3, live), unique=True))
            gates.extend([unitary_gate(random_unitary(rng, 2 ** len(wires)), wires),
                          decohere_gate(draw(st.sampled_from(wires)))])
    return Circuit("heavy", n_in, gates)


@settings(max_examples=25, deadline=None)
@given(_decohere_heavy_circuits())
def test_switched_walk_matches_oracle_property(c):
    # the walk carries only the blocks |i><j| with i <= j; the rest are mirrored
    din = 2**c.n_in
    omega = np.eye(din).reshape(din * din)  # sum_i |i>|i>
    ref = density_walk_oracle(c, np.outer(omega, omega), c.n_in)
    # the whole circuit's walk: choi_of may split c into wire groups and walk each
    with mock.patch.object(simulate_mod, "_run_gates", wraps=simulate_mod._run_gates) as walk:
        choi = simulate_mod._kraus_walk_choi(schedule(c))
    assert np.abs(choi - ref).max() < 1e-12
    assert np.array_equal(choi, choi.conj().T)
    assert np.abs(choi_of(c).choi - ref).max() < 1e-12
    assert walk.call_count == 1
    assert walk.call_args.args[0].shape[-1] == din * (din + 1) // 2


def _choi_and_walked_blocks(c, cap):
    """The whole circuit's Choi walk of ``schedule(c)`` under DIM_CAP = cap,
    and the blocks its fold walked, (P, 2^m, 2^m) in walk order.  The walk,
    not ``choi_of``, which may split c into wire groups and walk each."""
    outs, run_gates = [], simulate_mod._run_gates

    def walk(t, gates, live):
        out, m = run_gates(t, gates, live)
        outs.append(out.copy())  # the fold conjugates the walk's copy in place
        return out, m

    with mock.patch.object(linalg, "DIM_CAP", cap), \
            mock.patch.object(simulate_mod, "_run_gates", walk):
        choi = simulate_mod._kraus_walk_choi(schedule(c))
    return choi, np.concatenate(outs) if outs else None


def _assert_fold_assembly_matches_the_scatters(c, cap):
    choi, blocks = _choi_and_walked_blocks(c, cap)
    if blocks is not None:  # the stack folded
        assert np.array_equal(choi, fold_assembly_oracle(blocks.transpose(1, 2, 0), 2**c.n_in))


def test_one_block_fold_assembly_matches_the_scatters():
    c = _over_cap_wide_circuit()
    choi, blocks = _choi_and_walked_blocks(c, 32)
    assert blocks.shape == (4 * 5 // 2, 2**3, 2**3)  # ten walks of one block each
    assert np.array_equal(choi, fold_assembly_oracle(blocks.transpose(1, 2, 0), 4))


@settings(max_examples=25, deadline=None)
@given(_decohere_heavy_circuits())
def test_fold_assembly_matches_the_scatters_property(c):
    _assert_fold_assembly_matches_the_scatters(c, linalg.DIM_CAP)


@settings(max_examples=25, deadline=None)
@given(_over_cap_circuits())
def test_over_cap_fold_assembly_matches_the_scatters_property(c):
    _assert_fold_assembly_matches_the_scatters(c, 32)


@st.composite
def _dead_gate_circuits(draw):
    """Valid circuits on 0-3 inputs and at most 5 live wires, from single
    gates and the patterns ``schedule`` rewrites: a unitary whose wires are
    all traced next, an ancilla traced right away or after one decohere or
    unitary, and a decohere twice in a row."""
    n_in = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    live, gates = n_in, []
    for _ in range(draw(st.integers(0, 10))):
        kinds = ["ancilla", "fresh"] if live < 5 else []
        if live >= 1:
            kinds += ["unitary", "dead", "decohere", "twice", "trace"]
        kind = draw(st.sampled_from(kinds))
        if kind in ("unitary", "dead"):
            wires = draw(st.lists(st.integers(0, live - 1), min_size=1,
                                  max_size=min(3, live), unique=True))
            gates.append(unitary_gate(random_unitary(rng, 2 ** len(wires)), wires))
            if kind == "dead":  # highest first, so the lower indices hold still
                for w in sorted(wires, reverse=True):
                    gates.append(trace_gate(w))
                live -= len(wires)
        elif kind == "fresh":
            gates.append(ancilla_gate())
            use = draw(st.sampled_from(["none", "decohere", "unitary"]))
            if use == "decohere":
                gates.append(decohere_gate(live))
            elif use == "unitary":
                gates.append(unitary_gate(random_unitary(rng, 2), (live,)))
            gates.append(trace_gate(live))
        elif kind == "ancilla":
            gates.append(ancilla_gate())
            live += 1
        else:
            w = draw(st.integers(0, live - 1))
            if kind == "trace":
                gates.append(trace_gate(w))
                live -= 1
            else:
                gates += [decohere_gate(w)] * (2 if kind == "twice" else 1)
    return Circuit("dead", n_in, gates)


@settings(max_examples=60, deadline=None)
@given(_dead_gate_circuits(), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_schedule_keeps_the_channel_and_never_widens_property(c, ref_qubits, seed):
    s = schedule(c)
    assert (s.n_in, s.n_out) == (c.n_in, c.n_out)
    assert s.width <= c.width
    x = _random_operator(np.random.default_rng(seed), 2 ** (c.n_in + ref_qubits))
    ref = density_walk_oracle(c, x, ref_qubits)
    assert np.abs(density_walk_oracle(s, x, ref_qubits) - ref).max() < 1e-12
    assert np.abs(simulate(c, x, ref_qubits) - ref).max() < 1e-12


def test_walks_leave_the_input_untouched():
    # the walk writes in place; a leading decohere would zero the caller's blocks
    rng = np.random.default_rng(16)
    circuits = [
        Circuit("dec", 2, [decohere_gate(1)]),
        Circuit("mixed", 2, [decohere_gate(0), unitary_gate(random_unitary(rng, 4), (1, 0)),
                             ancilla_gate(), decohere_gate(2), trace_gate(1)]),
    ]
    for c in circuits:
        for ref_qubits in (0, 1, 2):
            x = _random_operator(rng, 2 ** (2 + ref_qubits))
            rho = random_density(rng, 2 ** (2 + ref_qubits))
            x0, rho0 = x.copy(), rho.copy()
            simulate(c, x, ref_qubits)
            apply_extended(c, rho, ref_qubits)
            assert np.array_equal(x, x0) and np.array_equal(rho, rho0)


def test_walk_reuses_its_buffers_across_widths():
    # live width 2 -> 5 -> 2 -> 5: on the second climb each ancilla grows
    # into a buffer prefix that held a wider tensor, so stale entries show
    rng = np.random.default_rng(18)
    u = lambda *w: unitary_gate(random_unitary(rng, 2 ** len(w)), w)
    climb = [ancilla_gate(), decohere_gate(2), u(2, 0, 1), ancilla_gate(), decohere_gate(3),
             u(1, 3), ancilla_gate(), u(4, 0, 2), decohere_gate(4), u(3, 1), u(2)]
    fall = [trace_gate(4), decohere_gate(0), trace_gate(0), u(1, 2, 0), trace_gate(1)]
    gates = [u(1), decohere_gate(0), u(0, 1)] + climb + fall
    gates += [decohere_gate(1), u(1, 0), u(0)] + climb
    c = Circuit("zigzag", 2, gates)
    widths = live_counts(c.n_in, c.gates)
    assert widths[len(climb) + 3] == 5 and widths[len(climb) + len(fall) + 3] == 2
    assert widths[-1] == 5
    for ref_qubits in (0, 2):
        x = _random_operator(rng, 2 ** (2 + ref_qubits))
        out = simulate(c, x, ref_qubits)
        assert np.abs(out - density_walk_oracle(c, x, ref_qubits)).max() < 1e-12


def test_walk_results_share_no_memory():
    rng = np.random.default_rng(19)
    mixed = Circuit("mixed", 2, [unitary_gate(random_unitary(rng, 4), (1, 0)), ancilla_gate(),
                                 decohere_gate(2), trace_gate(0)])
    for c in (mixed, Circuit("empty", 2, [])):
        for ref_qubits in (0, 1):
            x = _random_operator(rng, 2 ** (2 + ref_qubits))
            a, b = simulate(c, x, ref_qubits), simulate(c, x, ref_qubits)
            assert not np.shares_memory(a, b)
            assert not np.shares_memory(a, x) and not np.shares_memory(b, x)
            a[...] = 0.0
            assert np.abs(b - density_walk_oracle(c, x, ref_qubits)).max() < 1e-12
    # decohere-heavy, so choi_of switches to the density walk
    gates = [ancilla_gate()]
    for _ in range(5):
        gates += [unitary_gate(random_unitary(rng, 4), (0, 1)), decohere_gate(0), decohere_gate(1)]
    c = Circuit("heavy", 1, gates + [trace_gate(1)])
    with mock.patch.object(simulate_mod, "_run_gates", wraps=simulate_mod._run_gates) as walk:
        a, b = choi_of(c).choi, choi_of(c).choi
    assert walk.call_count == 2
    assert not np.shares_memory(a, b)
    a[...] = 0.0
    omega = np.eye(2).reshape(4)  # sum_i |i>|i>
    assert np.abs(b - density_walk_oracle(c, np.outer(omega, omega), 1)).max() < 1e-12


def _choi_with_least_eigenvalue(rng, n_in, n_out, lam):
    """A trace-preserving Choi matrix with spectrum {1/d_out - c, 1/d_out + c}, c = 1/d_out - lam.

    J = sum_i U_i B U_i^dagger (x) |i><i| with B = I/d_out + c Z_0 (tr B = 1),
    conjugated by I (x) V, keeps tr_out J = I_in for any unitaries U_i, V.
    """
    dout, din = 2**n_out, 2**n_in
    b = np.diag(1 / dout + (1 / dout - lam) * np.repeat([1.0, -1.0], dout // 2))
    j = np.zeros((dout, din, dout, din), dtype=complex)
    for i in range(din):
        ui = random_unitary(rng, dout)
        j[:, i, :, i] = ui @ b @ ui.conj().T
    w = np.kron(np.eye(dout), random_unitary(rng, din))
    j = w @ j.reshape(dout * din, dout * din) @ w.conj().T
    return (j + j.conj().T) / 2


@pytest.mark.parametrize("n_in, n_out", [(2, 2), (4, 5)])  # Choi sides 16 and 512
def test_complete_positivity_check_at_its_tolerance(n_in, n_out):
    rng = np.random.default_rng(20)
    tol = simulate_mod.TOL_CHANNEL
    bad = Channel(n_in, n_out, _choi_with_least_eigenvalue(rng, n_in, n_out, -2 * tol))
    assert simulate_mod._check_channel(bad) == [
        f"Choi eigenvalue {-2 * tol:.3e}: not completely positive"]
    with pytest.raises(ValueError, match="not completely positive"):
        channel_from_choi(n_in, n_out, bad.choi)
    good = Channel(n_in, n_out, _choi_with_least_eigenvalue(rng, n_in, n_out, -tol / 2))
    # inside the tolerance the Cholesky factor decides, with no eigenvalues
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eig:
        assert simulate_mod._check_channel(good) == []
    assert eig.call_count == 0
    assert channel_from_choi(n_in, n_out, good.choi).n_out == n_out


def _thin_choi_with_least_eigenvalue(n, lam):
    """The n-qubit identity channel's rank-1 Choi matrix plus lam (|x><x| - |y><y|)
    at x = |1>|0> and y = |0>|0>, output first: tr_out J = I, and lam < 0 is
    J's least eigenvalue, on x, with two columns in J's factor."""
    d = 2**n
    omega = np.eye(d).reshape(d * d)
    j = np.outer(omega, omega).astype(complex)
    j[d, d] += lam
    j[0, 0] -= lam
    return j


@pytest.mark.parametrize("thin", [True, False])
def test_choi_of_certifies_complete_positivity_at_its_tolerance(monkeypatch, thin):
    # a walk that returns J with lambda_min = -2 tol is refused, -tol / 2 passes;
    # a thin J is certified by its factor, with no Cholesky, a full-rank one by Cholesky
    tol = simulate_mod.TOL_CHANNEL
    rng = np.random.default_rng(22)
    n = 3 if thin else 2
    c = Circuit("id", n, [])
    for lam, ok in ((-2 * tol, False), (-tol / 2, True)):
        j = (_thin_choi_with_least_eigenvalue(n, lam) if thin
             else _choi_with_least_eigenvalue(rng, n, n, lam))
        assert abs(np.linalg.eigvalsh(j)[0] - lam) < 1e-14
        monkeypatch.setattr(simulate_mod, "_choi_matrix", lambda _, j=j: (j.copy(), None))
        with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as chol:
            if ok:
                ch = choi_of(c)
                assert (ch.factor[0].shape[1] < 2 ** (2 * n - 1)) == thin
            else:
                with pytest.raises(simulate_mod.InternalConsistencyError,
                                   match=f"eigenvalue {lam:.3e}: not completely positive"):
                    choi_of(c)
        assert chol.call_count == (0 if thin and ok else 1)


def test_unitary_kraus_step_holds_two_stacks():
    # r = 64 operators of side 128 x 8, a 1 MiB stack: the step copies it once,
    # multiplies back into its buffer and takes the product back into the copy
    rng = np.random.default_rng(23)
    k = rng.standard_normal((64, 128, 8)) + 1j * rng.standard_normal((64, 128, 8))
    assert k.nbytes >= 2**20
    u = random_unitary(rng, 4)
    # wires (4, 1): u's rows and columns are (bit 4, bit 1)
    expect = np.einsum("EBeb,rabcdefgz->raBcdEfgz", u.reshape(2, 2, 2, 2),
                       k.reshape((64,) + (2,) * 7 + (8,))).reshape(k.shape)
    tracemalloc.start()
    try:
        out, live = simulate_mod._kraus_step(k, unitary_gate(u, (4, 1)), 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert live == 7 and out.shape == k.shape and out.flags.c_contiguous
    assert np.abs(out - expect).max() < 1e-12
    assert peak < 1.25 * k.nbytes


def _kraus_sum(ops, x, ref_dim, adjoint=False):
    """sum_k (A_k (x) I) x (A_k (x) I)^dagger, or its adjoint form, term by term."""
    out = 0
    for a in ops:
        big = np.kron(a, np.eye(ref_dim))
        out = out + (big.conj().T @ x @ big if adjoint else big @ x @ big.conj().T)
    return out


@settings(max_examples=25, deadline=None)
@given(small_circuits(), st.sampled_from([1, 2, 4]), st.integers(0, 2**32 - 1))
def test_contraction_matches_kraus_sum_property(c, ref_dim, seed):
    ch = choi_of(c)
    ops = kraus_of(ch)
    rng = np.random.default_rng(seed)
    side_in, side_out = ch.dim_in * ref_dim, ch.dim_out * ref_dim
    x = rng.standard_normal((side_in, side_in)) + 1j * rng.standard_normal((side_in, side_in))
    m = rng.standard_normal((side_out, side_out)) + 1j * rng.standard_normal((side_out, side_out))
    phi_x = channel_apply_ext(ch, x, ref_dim)
    adj_m = adjoint_apply_ext(ch, m, ref_dim)
    assert np.abs(phi_x - _kraus_sum(ops, x, ref_dim)).max() < 1e-12
    assert np.abs(adj_m - _kraus_sum(ops, m, ref_dim, adjoint=True)).max() < 1e-12
    assert abs(np.trace(m @ phi_x) - np.trace(adj_m @ x)) < 1e-12


# ---------------------------------------------------------------- wire groups


@st.composite
def _product_circuits(draw):
    """Two ``small_circuits`` on disjoint wires, with their inputs and their
    gates interleaved at random, and up to two more inputs that are traced
    at random points and never used.  No gate couples the two parts, so
    their outputs come out interleaved wherever the merged liveness leaves
    them."""
    parts = [draw(small_circuits(max_in=2, max_live=3)), draw(small_circuits(max_in=1, max_live=2))]
    unused = [("unused", i) for i in range(draw(st.integers(0, 2)))]
    live = draw(st.permutations(
        [(p, i) for p, part in enumerate(parts) for i in range(part.n_in)] + unused))
    n_in = len(live)
    # each part's live handles, by the part's own wire index
    own = [[(p, i) for i in range(part.n_in)] for p, part in enumerate(parts)]
    # which part's next gate, or which unused input's trace, comes at each step
    events = draw(st.permutations([p for p, part in enumerate(parts) for _ in part.gates] + unused))
    todo = [iter(part.gates) for part in parts]
    gates = []
    for e in events:
        if e in unused:
            gates.append(trace_gate(live.index(e)))
            live.remove(e)
            continue
        p, g = e, next(todo[e])
        if g.kind == "ancilla":
            own[p].append((p, "ancilla", len(gates)))
            live.append(own[p][-1])
            gates.append(g)
        elif g.kind == "trace":
            h = own[p].pop(g.wires[0])
            gates.append(trace_gate(live.index(h)))
            live.remove(h)
        else:
            gates.append(Gate(g.kind, tuple(live.index(own[p][w]) for w in g.wires), g.matrix))
    return Circuit("product", n_in, gates)


def _coupled_widths(c):
    """The widest point of each set of ``c``'s wires that its gates, as
    written, couple: ('in', i) and ('out', o) -> the width of the set that
    holds input i or output o.  A wire group is one such set or part of one."""
    parent, live, snapshots = {}, list(range(c.n_in)), []

    def root(h):
        while h in parent:
            h = parent[h]
        return h

    for idx, g in enumerate(c.gates):
        if g.kind == "ancilla":
            live.append(c.n_in + idx)
        else:
            handles = [root(live[w]) for w in g.wires]
            for h in handles[1:]:
                if h != handles[0]:
                    parent[h] = handles[0]
            if g.kind == "trace":
                del live[g.wires[0]]
        snapshots.append(list(live))
    counts = [Counter(root(h) for h in snap) for snap in [list(range(c.n_in))] + snapshots]
    width = lambda h: max(count[root(h)] for count in counts)
    return {**{("in", i): width(i) for i in range(c.n_in)},
            **{("out", o): width(h) for o, h in enumerate(live)}}


def _assert_walks_each_group_once(c):
    """choi_of(c) against one walk of the whole schedule: within 1e-14, exactly
    Hermitian, bitwise where c is one group with every input; each group walked
    once, never wider than the wires it is part of."""
    whole = simulate_mod._kraus_walk_choi(schedule(c))
    groups, discarded = schedule_groups(c)
    assert sorted(o for g in groups for o in g.outputs) == list(range(c.n_out))
    assert sorted([i for g in groups for i in g.inputs] + list(discarded)) == list(range(c.n_in))
    walked, walk = [], simulate_mod._kraus_walk_choi

    def spy(s):
        walked.append(s)
        return walk(s)

    with mock.patch.object(simulate_mod, "_kraus_walk_choi", spy):
        choi = choi_of(c).choi
    assert np.array_equal(choi, choi.conj().T)
    assert np.abs(choi - whole).max() < 1e-14
    if len(groups) == 1 and not discarded:
        assert np.array_equal(choi, whole)
    assert [_layout(s) for s in walked] == [_layout(g.circuit) for g in groups]
    widths = _coupled_widths(c)
    for s, g in zip(walked, groups):
        bound = min([widths["out", o] for o in g.outputs] + [widths["in", i] for i in g.inputs],
                    default=0)  # a group of no wires: the circuit on none
        assert s.width <= bound


def _layout(c):
    return [(g.kind, g.wires) for g in c.gates]


@settings(max_examples=100, deadline=None)
@given(_product_circuits())
def test_choi_of_walks_each_wire_group_once_property(c):
    _assert_walks_each_group_once(c)


def _groups_cases():
    rng = np.random.default_rng(24)
    q = [random_11_circuit(rng, "q0"), random_11_circuit(rng, "q1")]
    polarized = polarize(identity_circuit(), decohere_circuit(), PolarizationParams(1, 1.0, 0.25),
                         override=(2, 2, 1))
    named = lambda name, c: Circuit(name, c.n_in, c.gates)
    return [
        Circuit("none", 0, []),
        Circuit("gone", 2, [trace_gate(1), trace_gate(0)]),  # n_out = 0: I, with no walk
        Circuit("idle", 2, []),
        Circuit("reset", 1, [trace_gate(0), ancilla_gate(), named_gate("H", (0,))]),
        Circuit("spare", 1, [ancilla_gate(), named_gate("H", (0,))]),
        # the second ancilla is used first, so its group holds its outputs in another order
        parse_circuit("circuit swapped inputs 2\nancilla\nancilla\ngate H 3\ngate CNOT 2 3\n"
                      "gate CNOT 0 2\ngate X 1\nend\n"),
        *map(named, ("t0", "t1"), tensor_power(identity_circuit(), decohere_circuit(), 3)),
        *map(named, ("q0q0", "q1q1"), tensor_power(*q, 2)),
        *polarized[:2],
    ]


@pytest.mark.parametrize("c", _groups_cases(), ids=lambda c: c.name)
def test_choi_of_walks_each_wire_group_once(c):
    _assert_walks_each_group_once(c)


def test_choi_of_product_circuits_split_as_built():
    # a k-fold tensor power is k groups, a polarized pair two parity-2 blocks; the
    # discarded factor of a reset input is I, and a circuit of no wires one empty group
    circuits = {c.name: c for c in _groups_cases()}
    cases = {name: schedule_groups(c) for name, c in circuits.items()}
    assert [len(cases[k][0]) for k in ("t0", "t1", "s0", "s1")] == [3, 3, 2, 2]
    assert all(len(cases[k][0]) >= 2 for k in ("q0q0", "q1q1"))
    assert [cases[k][1] for k in ("gone", "reset", "spare", "idle")] == [(0, 1), (0,), (), ()]
    assert [len(cases[k][0]) for k in ("gone", "reset", "spare", "idle", "none")] == [0, 1, 2, 2, 1]
    assert [(g.inputs, g.outputs) for g in cases["swapped"][0]] == [((0,), (0, 3, 2)), ((1,), (1,))]
    reset = choi_of(circuits["reset"]).choi
    assert np.abs(reset - np.kron(np.full((2, 2), 0.5), np.eye(2))).max() < 1e-15


def test_choi_of_a_product_holds_one_side_squared_array():
    # two groups, 2 inputs -> 3 outputs and 2 -> 2, outputs interleaved: J has side
    # 2^9 = 512 (4 MiB), the groups' Choi matrices sides 32 and 16.  J is written in
    # place from them, through the product's ufunc buffers of np.getbufsize() entries
    # per operand; the certificate runs on the groups and adds nothing of J's side
    rng = np.random.default_rng(25)
    u = lambda *w: unitary_gate(random_unitary(rng, 2 ** len(w)), w)
    c = Circuit("pair", 4, [ancilla_gate(), u(0, 1, 4), decohere_gate(4), u(2, 3), decohere_gate(3),
                            u(4, 1), u(3, 2)])
    groups, discarded = schedule_groups(c)
    assert [(g.inputs, g.outputs) for g in groups] == [((0, 1), (0, 1, 4)), ((2, 3), (2, 3))]
    side = 2**9
    # the groups' matrices, 64 KiB of walk, three operands' buffers
    extra = (32**2 + 16**2) * 16 + 2**16 + 3 * np.getbufsize() * 16
    for extract in (lambda c: simulate_mod._choi_matrix(c)[0], lambda c: choi_of(c).choi):
        tracemalloc.start()
        try:
            choi = extract(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert choi.shape == (side, side)
        assert peak < choi.nbytes + extra


def _plant(walk, at, j):
    """``_kraus_walk_choi`` with its call number ``at`` (0-based) answered by ``j``."""
    calls = itertools.count()
    return lambda s: j.copy() if next(calls) == at else walk(s)


@pytest.mark.parametrize("thin", [True, False])
def test_choi_of_certifies_each_wire_group_at_its_tolerance(monkeypatch, thin):
    # two CNOTs on wires (0, 1) and (2, 3): two groups of side 16, J of side 256.  The
    # first group's walk returns J_g with lambda_min = -2 t_g, which is refused, or
    # -t_g / 2, which passes; t_g = (TOL_CHANNEL - 2 eps ||J_0||_F ||J_1||_F) / (2 ||J_1||_F),
    # and both norms are 4.  Nothing of J's side is factored, and J's factor is left unformed
    tol = simulate_mod.TOL_CHANNEL
    rng = np.random.default_rng(26)
    c = Circuit("pair", 4, [named_gate("CNOT", (0, 1)), named_gate("CNOT", (2, 3))])
    assert [(g.inputs, g.outputs) for g in schedule_groups(c)[0]] == [((0, 1), (0, 1)),
                                                                      ((2, 3), (2, 3))]
    checks = _spy(monkeypatch, "_check_channel")
    choi_of(c)
    t = checks[0][1]
    eps = np.finfo(float).eps
    assert [a[1] for a in checks] == [t, t] and abs(t - (tol - 2 * eps * 16) / 8) < 1e-24
    walk = simulate_mod._kraus_walk_choi
    for lam, ok in ((-2 * t, False), (-t / 2, True)):
        j = (_thin_choi_with_least_eigenvalue(2, lam) if thin
             else _choi_with_least_eigenvalue(rng, 2, 2, lam))
        assert abs(np.linalg.eigvalsh(j)[0] - lam) < 1e-14
        monkeypatch.setattr(simulate_mod, "_kraus_walk_choi", _plant(walk, 0, j))
        checks.clear()
        with mock.patch.object(linalg, "psd_factor", wraps=linalg.psd_factor) as factor, \
                mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as chol:
            if ok:
                ch = choi_of(c)
                assert "factor" not in vars(ch)  # J's own factor waits for its first reader
            else:
                with pytest.raises(simulate_mod.InternalConsistencyError,
                                   match=f"wire group 1 of 2: Choi eigenvalue {lam:.3e}: "
                                         "not completely positive$"):
                    choi_of(c)
        assert [a[0].choi.shape for a in checks] == [(16, 16)] * 2
        assert [a.args[0].shape for a in factor.call_args_list] == [(16, 16)] * 2
        assert chol.call_count == (0 if thin and ok else 1)
        assert all(a.args[0].shape == (16, 16) for a in chol.call_args_list)


def _group_verdict(groups):
    """``_check_groups``' verdict on the groups, and the tolerance it gave each."""
    tols, check = [], simulate_mod._check_channel
    with mock.patch.object(simulate_mod, "_check_channel",
                           lambda ch, t: tols.append(t) or check(ch, t)):
        return simulate_mod._check_groups(groups) == [], tols


@settings(max_examples=60, deadline=None)
@given(_product_circuits(), st.sampled_from([None, 0.5, 2.0]), st.data())
def test_composed_certificate_never_accepts_what_the_assembled_check_refuses(c, scale, data):
    # one group's Choi matrix as walked, or lowered to lambda_min = -scale * t_g.  The
    # groups' verdict accepts it at 0.5 and refuses it at 2; it never accepts what
    # _check_channel on the assembled J refuses; and the composed bound, from the
    # groups' least eigenvalues, is never below -lambda_min(J), nor above
    # TOL_CHANNEL at the groups' tolerances
    _, groups = simulate_mod._choi_matrix(c)
    if not groups:  # walked whole, or the discarded I alone: nothing composed
        return
    eps, walk = np.finfo(float).eps, simulate_mod._kraus_walk_choi
    accepted, tols = _group_verdict(groups)
    assert accepted
    at = data.draw(st.integers(0, len(groups) - 1))
    if scale is not None:
        w, v = np.linalg.eigh(groups[at].choi)
        j = groups[at].choi - (w[0] + scale * tols[at]) * np.outer(v[:, 0], v[:, 0].conj())
        walk = _plant(walk, at, (j + j.conj().T) / 2)
    with mock.patch.object(simulate_mod, "_kraus_walk_choi", walk):
        choi, groups = simulate_mod._choi_matrix(c)
    composed, tols = _group_verdict(groups)
    assert composed == (scale != 2.0)
    assembled = simulate_mod._check_channel(Channel(c.n_in, c.n_out, choi)) == []
    assert assembled or not composed
    norms = [np.linalg.norm(g.choi) for g in groups]
    others = [np.prod(norms[:g] + norms[g + 1:]) for g in range(len(groups))]
    rounding = 2 * (len(groups) - 1) * eps * np.prod(norms)
    budget = sum(t * o for t, o in zip(tols, others)) + rounding
    assert budget <= simulate_mod.TOL_CHANNEL * (1 + 1e-12)  # within the rounding of these sums
    lows = [max(0.0, -np.linalg.eigvalsh(g.choi)[0]) for g in groups]
    bound = sum(e * o for e, o in zip(lows, others)) + rounding
    # eigvalsh's own rounding, on J and on the groups, is within side * eps * ||J||_F
    assert -np.linalg.eigvalsh(choi)[0] <= bound + 2 * choi.shape[0] * eps * np.linalg.norm(choi)
