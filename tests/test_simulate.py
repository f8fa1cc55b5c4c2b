import itertools
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcdist import linalg, simulate as simulate_mod
from qcdist.circuits import (
    Circuit,
    ancilla_gate,
    decohere_gate,
    parse_circuit,
    replay_liveness,
    schedule,
    trace_gate,
    unitary_gate,
)
from qcdist.distances import trace_norm
from qcdist.simulate import (
    Channel,
    NotCompletelyPositiveError,
    adjoint_apply_ext,
    apply,
    apply_extended,
    channel_apply_ext,
    channel_from_choi,
    channel_mix,
    choi_of,
    density_from_json,
    density_to_json,
    kraus_of,
    simulate,
)
from qcdist.linalg import SizeCapError, partial_trace

from helpers import (
    decohere_circuit,
    identity_circuit,
    random_circuit,
    random_density,
    random_hermitian,
    random_state,
    random_unitary,
    small_circuits,
    z_circuit,
)
from oracles import density_walk_oracle

PHI_PLUS = np.zeros(4, dtype=complex)
PHI_PLUS[0] = PHI_PLUS[3] = 1 / np.sqrt(2)


def test_apply_empty_circuit():
    rng = np.random.default_rng(0)
    rho = random_density(rng, 2)
    assert np.abs(apply(identity_circuit(), rho) - rho).max() == 0.0


def test_apply_decohere_plus_state():
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert np.abs(apply(decohere_circuit(), plus) - np.eye(2) / 2).max() < 1e-15


def test_apply_hadamard():
    h = parse_circuit("circuit h inputs 1\ngate H 0\nend")
    out = apply(h, np.diag([1.0, 0.0]).astype(complex))
    assert np.abs(out - np.full((2, 2), 0.5)).max() < 1e-15


def test_apply_extended_zero_ref_is_apply():
    rng = np.random.default_rng(1)
    c = random_circuit(rng, 1, 4)
    rho = random_density(rng, 2)
    assert np.abs(apply_extended(c, rho, 0) - apply(c, rho)).max() == 0.0


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
        assert np.abs(apply(c, rho) - channel_apply_ext(ch, rho, 1)).max() < 1e-10


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


def test_over_cap_width_walks_the_fold_one_block_at_a_time():
    # two inputs on three live wires: the sixth decohere takes r to 64 > D = 32,
    # and the rest of the circuit reaches four live wires, 4 + 2 > log2(32)
    rng = np.random.default_rng(13)
    u = lambda *w: unitary_gate(random_unitary(rng, 2 ** len(w)), w)
    gates = [ancilla_gate()]
    for step in range(6):
        gates += [u(0, 1, 2), decohere_gate(step % 3)]
    gates += [ancilla_gate(), u(3, 0, 2), decohere_gate(3), u(1, 3), trace_gate(3), u(2, 0)]
    c = Circuit("wide", 2, gates)
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
    assert max(replay_liveness(c)) + c.n_in > 5
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
    with mock.patch.object(simulate_mod, "_run_gates", wraps=simulate_mod._run_gates) as walk:
        choi = choi_of(c).choi
    assert np.abs(choi - ref).max() < 1e-12
    assert np.array_equal(choi, choi.conj().T)
    assert walk.call_count == 1
    assert walk.call_args.args[0].shape[-1] == din * (din + 1) // 2


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
    assert max(replay_liveness(s)) <= max(replay_liveness(c))
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
            if ref_qubits:
                apply_extended(c, rho, ref_qubits)
            else:
                apply(c, rho)
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
    widths = replay_liveness(c)
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
        monkeypatch.setattr(simulate_mod, "_kraus_walk_choi", lambda _, j=j: j.copy())
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
