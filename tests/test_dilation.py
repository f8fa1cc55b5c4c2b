import numpy as np
import pytest

from qcdist import dilation
from qcdist.circuits import Circuit, decohere_gate, parse_circuit
from qcdist.dilation import dilate, dilated_isometry
from qcdist.linalg import SizeCapError, partial_trace
from qcdist.simulate import apply_extended, choi_of, kraus_of

from helpers import (
    decohere_circuit,
    depolarizing_circuit,
    dilated_apply,
    dilated_unitary,
    identity_circuit,
    random_circuit,
    random_density,
)


def test_unitary_circuit_dilates_to_itself():
    c = parse_circuit("circuit u inputs 2\ngate H 0\ngate CNOT 0 1\nend")
    d = dilate(c)
    assert (d.k, d.l) == (0, 0)
    assert len(d.unitary_circuit.gates) == 2
    assert d.output_wires == [0, 1]


def test_single_decohere_dilation():
    d = dilate(decohere_circuit())
    assert (d.k, d.l) == (1, 1)
    kinds = [g.label for g in d.unitary_circuit.gates]
    assert kinds == ["CNOT"]
    rng = np.random.default_rng(0)
    rho = random_density(rng, 2)
    assert np.abs(dilated_apply(d, rho) - apply_extended(decohere_circuit(), rho, 0)).max() < 1e-12


def test_single_trace_dilation():
    c = parse_circuit("circuit tr inputs 1\ntrace 0\nend")
    d = dilate(c)
    assert (d.k, d.l) == (0, 1)
    assert d.output_wires == []
    assert d.garbage_wires == [0]
    assert len(d.unitary_circuit.gates) == 0


def test_dilation_reproduces_apply_on_random_circuits():
    rng = np.random.default_rng(1)
    for _ in range(25):
        c = random_circuit(rng, int(rng.integers(1, 3)), int(rng.integers(0, 8)))
        d = dilate(c)
        assert d.unitary_circuit.n_in == c.n_in + d.k
        assert c.n_in + d.k == c.n_out + d.l
        assert all(g.kind == "unitary" for g in d.unitary_circuit.gates)
        rho = random_density(rng, 2**c.n_in)
        assert np.abs(dilated_apply(d, rho) - apply_extended(c, rho, 0)).max() < 1e-10


def test_dilation_counts_linear_in_gates():
    rng = np.random.default_rng(2)
    c = random_circuit(rng, 2, 8)
    d = dilate(c)
    assert d.k <= len(c.gates)
    assert d.l <= len(c.gates)


def test_dilation_width_refused_before_any_gate(monkeypatch):
    # every decohere adds a wire: one input plus 12 decoheres is 13 wires
    def refuse(*args, **kwargs):
        raise AssertionError("the cap must be checked before any gate is built")

    wide = Circuit("wide", 1, [decohere_gate(0)] * 12)
    with monkeypatch.context() as m:
        m.setattr(dilation, "named_gate", refuse)
        with pytest.raises(SizeCapError, match="dilation wires"):
            dilate(wide)
    assert dilate(Circuit("edge", 1, wide.gates[:11])).n_wires == 12


def test_canonical_output_layout():
    # Trace the first input so output and garbage wires would be swapped
    # without routing.
    c = parse_circuit("circuit mix inputs 2\ntrace 0\nancilla\ngate H 1\nend")
    d = dilate(c)
    assert d.output_wires == list(range(d.n_out))
    assert d.garbage_wires == list(range(d.n_out, d.n_wires))
    rng = np.random.default_rng(3)
    rho = random_density(rng, 4)
    assert np.abs(dilated_apply(d, rho) - apply_extended(c, rho, 0)).max() < 1e-10


def test_isometry_matches_unitary_embedding():
    rng = np.random.default_rng(4)
    c = random_circuit(rng, 1, 5)
    d = dilate(c)
    u = dilated_unitary(d)
    w = u[:, np.arange(2**c.n_in) * 2**d.k]  # U (I (x) |0^k>)
    assert w.shape == (2 ** (c.n_out + d.l), 2**c.n_in)
    assert np.abs(w.conj().T @ w - np.eye(2**c.n_in)).max() < 1e-10
    assert np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() < 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_dilated_isometry_is_the_channel(seed):
    rng = np.random.default_rng(100 + seed)
    c = random_circuit(rng, int(rng.integers(1, 4)), int(rng.integers(0, 9)))
    din, dout = 2**c.n_in, 2**c.n_out
    kraus = kraus_of(choi_of(c))
    r = len(kraus)
    w = dilated_isometry(kraus, r)
    assert w.shape == (dout, r, din)
    wm = w.reshape(dout * r, din)
    assert np.abs(wm.conj().T @ wm - np.eye(din)).max() < 1e-12
    rho = random_density(rng, din)
    out = partial_trace(wm @ rho @ wm.conj().T, [dout, r], [0])
    assert np.abs(out - apply_extended(c, rho, 0)).max() < 1e-12


def test_dilated_isometry_pads_with_zero_operators():
    kraus = kraus_of(choi_of(depolarizing_circuit()))
    w = dilated_isometry(kraus, 6)
    assert w.shape == (2, 6, 2)
    assert np.array_equal(w[:, : len(kraus)], dilated_isometry(kraus, len(kraus)))
    assert not w[:, len(kraus) :].any()
    with pytest.raises(ValueError):
        dilated_isometry(kraus, len(kraus) - 1)


def test_dilated_isometry_of_a_unitary_has_one_operator():
    w = dilated_isometry(kraus_of(choi_of(identity_circuit())), 1)
    assert w.shape == (2, 1, 2)
