import numpy as np
import pytest

from qcdist import distances
from qcdist.distances import (
    OptimizerConfig,
    _difference_kernels,
    _seesaw,
    diamond_norm,
    fidelity,
    fidelity_via_purification,
    helstrom,
    max_image_fidelity,
    trace_norm,
    witness_to_json,
)
from qcdist.linalg import SizeCapError
from qcdist.reductions import parity_mix
from qcdist.simulate import _contract, adjoint_apply_ext, channel_apply_ext, choi_of

from helpers import (
    constant_circuit,
    decohere_circuit,
    depolarizing_circuit,
    identity_circuit,
    purification,
    random_11_circuit,
    random_circuit,
    random_density,
    random_state,
    z_circuit,
)
from oracles import grid_max_output_tnorm, tnorm_from_eigs

PHI_PLUS = np.zeros(4, dtype=complex)
PHI_PLUS[0] = PHI_PLUS[3] = 1 / np.sqrt(2)

CFG = OptimizerConfig(restarts=8, seed=17)


def test_trace_norm_closed_forms():
    assert trace_norm(np.diag([1.0, -1.0])) == 2.0
    rng = np.random.default_rng(0)
    rho = random_density(rng, 3)
    assert trace_norm(rho - rho) == 0.0
    delta = np.outer(PHI_PLUS, PHI_PLUS.conj()) - np.eye(4) / 4
    assert abs(trace_norm(delta) - 1.5) < 1e-12
    assert abs(trace_norm(delta) - tnorm_from_eigs(delta)) < 1e-12


def test_fidelity_closed_forms():
    rng = np.random.default_rng(1)
    rho = random_density(rng, 4)
    assert abs(fidelity(rho, rho) - 1.0) < 1e-9
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert fidelity(zero, one) < 1e-9
    assert abs(fidelity(zero, np.eye(2) / 2) - 1 / np.sqrt(2)) < 1e-12


def test_fidelity_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = random_density(rng, 4)
        b = random_density(rng, 4)
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-9


def test_fidelity_via_purification_trivial():
    psi = random_state(np.random.default_rng(3), 4)
    assert abs(fidelity_via_purification(psi, psi, (2, 2)) - 1.0) < 1e-12
    zero_zero = np.array([1, 0, 0, 0], dtype=complex)
    one_zero = np.array([0, 0, 1, 0], dtype=complex)
    assert fidelity_via_purification(zero_zero, one_zero, (2, 2)) < 1e-12


def test_fidelity_via_purification_matches_direct():
    rng = np.random.default_rng(4)
    from qcdist.linalg import partial_trace

    for _ in range(30):
        d = int(rng.integers(2, 5))
        rho = random_density(rng, d)
        xi = random_density(rng, d)
        psi = purification(rng, rho, d)
        phi = purification(rng, xi, d)
        assert np.abs(partial_trace(np.outer(psi, psi.conj()), [d, d], [0]) - rho).max() < 1e-10
        got = fidelity_via_purification(psi, phi, (d, d))
        assert abs(got - fidelity(rho, xi)) < 1e-8


def test_helstrom_closed_forms():
    m, value = helstrom(np.zeros((2, 2)))
    assert value == 0.0 and np.abs(m).max() == 0.0
    m, value = helstrom(np.diag([1.0, -1.0]))
    assert abs(value - 2.0) < 1e-12
    assert np.abs(m - np.diag([1.0, 0.0])).max() < 1e-12
    delta = np.outer(PHI_PLUS, PHI_PLUS.conj()) - np.eye(4) / 4
    m, value = helstrom(delta)
    assert abs(value - 1.5) < 1e-12
    assert abs(np.trace(m).real - 1.0) < 1e-12  # rank one


def test_helstrom_reproduces_trace_norm():
    rng = np.random.default_rng(5)
    for _ in range(20):
        h = random_density(rng, 4) - random_density(rng, 4)
        _, value = helstrom(h)
        assert abs(value - trace_norm(h)) < 1e-9


def test_diamond_norm_closed_forms():
    ch_i = choi_of(identity_circuit())
    assert diamond_norm(ch_i, ch_i, CFG).value < 1e-12
    w = diamond_norm(ch_i, choi_of(z_circuit()), CFG)
    assert abs(w.value - 2.0) < 1e-9
    w = diamond_norm(ch_i, choi_of(decohere_circuit()), CFG)
    assert abs(w.value - 1.0) < 1e-6
    w = diamond_norm(ch_i, choi_of(depolarizing_circuit()), CFG)
    assert abs(w.value - 1.5) < 1e-6


def test_diamond_witness_is_self_consistent():
    ch0 = choi_of(identity_circuit())
    ch1 = choi_of(decohere_circuit())
    w = diamond_norm(ch0, ch1, CFG)
    rho = np.outer(w.psi, w.psi.conj())
    delta = channel_apply_ext(ch0, rho, 2) - channel_apply_ext(ch1, rho, 2)
    assert abs(trace_norm(delta) - w.value) < 1e-9
    m = w.measurement
    assert np.abs(m @ m - m).max() < 1e-9
    assert np.abs(m - m.conj().T).max() < 1e-9
    achieved = 2 * np.trace(m @ delta).real - np.trace(delta).real
    assert abs(achieved - w.value) < 1e-9


def test_diamond_value_is_helstrom_value_at_witness():
    # The last seesaw iterate can sit a few ulps below the best one, so the
    # reported value must come from the returned psi, not from the history.
    rng = np.random.default_rng(2)
    ch0 = choi_of(random_11_circuit(rng, "a"))
    ch1 = choi_of(random_11_circuit(rng, "b"))
    for seed in range(8):
        w = diamond_norm(ch0, ch1, OptimizerConfig(restarts=1, seed=seed))
        rho = np.outer(w.psi, w.psi.conj())
        delta = channel_apply_ext(ch0, rho, 2) - channel_apply_ext(ch1, rho, 2)
        m, value = helstrom((delta + delta.conj().T) / 2)
        assert value == w.value
        assert np.array_equal(m, w.measurement)


def test_diamond_norm_against_grid_oracle():
    ch_i = choi_of(identity_circuit())
    for other, expect in ((decohere_circuit(), 1.0), (depolarizing_circuit(), 1.5)):
        ch = choi_of(other)
        grid_value, _ = grid_max_output_tnorm(ch_i, ch)
        assert abs(grid_value - expect) < 1e-9
        w = diamond_norm(ch_i, ch, CFG)
        assert w.value >= grid_value - 1e-9


def test_seesaw_monotone_objective():
    ch0 = choi_of(identity_circuit())
    ch1 = choi_of(depolarizing_circuit())
    rng = np.random.default_rng(6)
    value, _, _, converged, history = _seesaw(*_difference_kernels(ch0, ch1), 2, rng, 500, 1e-10)
    assert converged
    diffs = np.diff(history)
    assert diffs.min() >= -1e-12
    assert abs(value - history[-1]) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_difference_kernels_match_four_contractions(seed):
    rng = np.random.default_rng(300 + seed)
    n_in = int(rng.integers(1, 3))
    c0 = random_circuit(rng, n_in, 6, max_live=3)
    c1 = random_circuit(rng, n_in, 6, max_live=3)
    while c1.n_out != c0.n_out:
        c1 = random_circuit(rng, n_in, 6, max_live=3)
    ch0, ch1 = choi_of(c0), choi_of(c1)
    forward, adjoint = _difference_kernels(ch0, ch1)
    ref_dim = 2**n_in
    psi = random_state(rng, ch0.dim_in * ref_dim)
    rho = np.outer(psi, psi.conj())
    delta = _contract(forward, rho, ref_dim)
    expect = channel_apply_ext(ch0, rho, ref_dim) - channel_apply_ext(ch1, rho, ref_dim)
    assert np.abs(delta - expect).max() < 1e-12
    m, _ = helstrom((delta + delta.conj().T) / 2)
    k = _contract(adjoint, m, ref_dim)
    expect = adjoint_apply_ext(ch0, m, ref_dim) - adjoint_apply_ext(ch1, m, ref_dim)
    assert np.abs(k - expect).max() < 1e-12


def test_reference_dimension_stability():
    ch0 = choi_of(identity_circuit())
    ch1 = choi_of(decohere_circuit())
    v1 = diamond_norm(ch0, ch1, CFG).value
    v2 = diamond_norm(ch0, ch1, CFG, ref_qubits=2).value
    assert abs(v1 - v2) < 1e-6


def test_rank_one_probes_never_beat_seesaw():
    rng = np.random.default_rng(7)
    ch0 = choi_of(identity_circuit())
    ch1 = choi_of(decohere_circuit())
    best = diamond_norm(ch0, ch1, CFG).value
    for _ in range(50):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = (x + x.conj().T) / 2
        x /= trace_norm(x)
        value = trace_norm(channel_apply_ext(ch0, x, 2) - channel_apply_ext(ch1, x, 2))
        assert value <= best + 1e-6


def test_max_image_fidelity_closed_forms():
    r = max_image_fidelity(identity_circuit(), identity_circuit("id2"), CFG)
    assert abs(r.value - 1.0) < 1e-9
    r = max_image_fidelity(constant_circuit("c0", "zero"), constant_circuit("c1", "one"), CFG)
    assert r.value < 1e-9
    r = max_image_fidelity(constant_circuit("c0", "zero"), constant_circuit("cp", "plus"), CFG)
    assert abs(r.value - 1 / np.sqrt(2)) < 1e-9


def test_max_image_fidelity_witnesses_achieve_value():
    from qcdist.simulate import apply

    rng = np.random.default_rng(8)
    from helpers import random_11_circuit

    qa = random_11_circuit(rng, "qa")
    qb = random_11_circuit(rng, "qb")
    r = max_image_fidelity(qa, qb, CFG)
    assert abs(fidelity(apply(qa, r.rho0), apply(qb, r.rho1)) - r.value) < 1e-12


def test_fuchs_van_de_graaf():
    rng = np.random.default_rng(9)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        rho = random_density(rng, d)
        xi = random_density(rng, d)
        f = fidelity(rho, xi)
        t = trace_norm(rho - xi)
        assert f - (1 - t / 2) >= -1e-9
        assert np.sqrt(max(0.0, 1 - t * t / 4)) - f >= -1e-9


def test_fidelity_multiplicativity():
    rng = np.random.default_rng(10)
    for _ in range(50):
        a, b = random_density(rng, 2), random_density(rng, 2)
        c, d = random_density(rng, 3), random_density(rng, 3)
        lhs = fidelity(np.kron(a, c), np.kron(b, d))
        assert abs(lhs - fidelity(a, b) * fidelity(c, d)) < 1e-9


def test_helstrom_success_probability_interpretation():
    # success = 1/2 + tnorm/4 for equiprobable states
    pairs = [
        (np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), 0.0),
        (np.diag([1.0, 0.0]), np.eye(2) / 2, 1.0),
        (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 2.0),
    ]
    for rho0, rho1, tn in pairs:
        m, value = helstrom(rho0 - rho1)
        assert abs(value - tn) < 1e-12
        success = 0.5 * np.trace(m @ rho0).real + 0.5 * (1 - np.trace(m @ rho1).real)
        assert abs(success - (0.5 + tn / 4)) < 1e-12


def test_witness_json_shape():
    w = diamond_norm(choi_of(identity_circuit()), choi_of(decohere_circuit()), CFG)
    blob = witness_to_json(w)
    assert set(blob) == {"value", "converged", "restarts_used", "psi", "measurement"}
    assert len(blob["psi"]) == w.psi.size


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(rel_tol=0.0)


def _refuse(*args, **kwargs):
    raise AssertionError("the cap must be checked before this step")


def test_max_image_fidelity_checks_cap_before_isometry(monkeypatch):
    # d_out * d_in = 256 is under the cap, but the Kraus rank 256 of the
    # depolarizer makes the ambient side 65536
    monkeypatch.setattr(distances, "dilated_isometry", _refuse)
    p0, p1 = identity_circuit("id4", 4), depolarizing_circuit("dep4", 4)
    with pytest.raises(SizeCapError, match="image-fidelity ambient space"):
        max_image_fidelity(p0, p1)


def test_max_image_fidelity_three_parity_blocks():
    # refused by the cap on the 2^l garbage space before; side 512 now
    p0, p1 = parity_mix(identity_circuit(), decohere_circuit(), 3)
    r = max_image_fidelity(p0, p1, OptimizerConfig(restarts=1, seed=0))
    assert abs(r.value - 1.0) < 1e-6
