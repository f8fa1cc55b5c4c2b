import numpy as np
import pytest
from hypothesis import given, settings

from qcdist import distances, linalg
from qcdist.circuits import Circuit, trace_gate
from qcdist.distances import (
    GAP_TOL,
    OptimizerConfig,
    _ascent,
    _block_upper,
    _cross_terms,
    _output_of,
    _seesaw,
    _traced_out,
    diamond_norm,
    fidelity,
    fidelity_via_purification,
    helstrom,
    max_image_fidelity,
    trace_norm,
    witness_to_json,
)
from qcdist.linalg import TOL_PSD, SizeCapError, partial_trace
from qcdist.reductions import PolarizationParams, ci_to_qcd, parity_mix, polarize, tensor_power
from qcdist.simulate import (
    Channel,
    adjoint_apply_ext,
    apply_extended,
    channel_apply_ext,
    choi_of,
    kraus_of,
)

from helpers import (
    constant_circuit,
    decohere_circuit,
    depolarizing_circuit,
    equal_type_pairs,
    identity_circuit,
    purification,
    random_11_circuit,
    random_circuit,
    random_density,
    random_hermitian,
    random_state,
    random_unitary,
    z_circuit,
)
from oracles import (
    _apply_ext_batch,
    classical_channel,
    classical_dnorm,
    grid_max_output_tnorm,
    tnorm_from_eigs,
)

PHI_PLUS = np.zeros(4, dtype=complex)
PHI_PLUS[0] = PHI_PLUS[3] = 1 / np.sqrt(2)

CFG = OptimizerConfig()


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


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_fidelity_of_pure_states_is_their_overlap(d):
    # a rounding eigenvalue of sqrt(rho) xi sqrt(rho) once added about 1e-8
    rng = np.random.default_rng(40 + d)
    for _ in range(50):
        a, b = random_state(rng, d), random_state(rng, d)
        got = fidelity(np.outer(a, a.conj()), np.outer(b, b.conj()))
        assert abs(got - abs(np.vdot(a, b))) < 1e-13


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
    w = diamond_norm(ch_i, ch_i, CFG)
    assert w.value < 1e-12
    assert w.upper <= 1e-9
    w = diamond_norm(ch_i, choi_of(identity_circuit("id2")), CFG)
    assert w.upper <= 1e-9
    w = diamond_norm(ch_i, choi_of(z_circuit()), CFG)
    assert abs(w.value - 2.0) < 1e-9
    assert abs(w.upper - 2.0) < 1e-6
    w = diamond_norm(ch_i, choi_of(decohere_circuit()), CFG)
    assert abs(w.value - 1.0) < 1e-6
    assert abs(w.upper - 1.0) < 1e-6
    w = diamond_norm(ch_i, choi_of(depolarizing_circuit()), CFG)
    assert abs(w.value - 1.5) < 1e-6
    assert abs(w.upper - 1.5) < 1e-6


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
    # The ascent's bound and the last seesaw iterate can sit a few ulps off
    # the value at the returned psi, so the value must come from that psi:
    # bit for bit through the outputs' sandwich, and to rounding through
    # channel_apply_ext (test_output_sandwich_matches_channel_apply_ext).
    rng = np.random.default_rng(2)
    for _ in range(8):
        ch0 = choi_of(random_11_circuit(rng, "a"))
        ch1 = choi_of(random_11_circuit(rng, "b"))
        w = diamond_norm(ch0, ch1, CFG)
        x = w.psi.reshape(ch0.dim_in, -1)
        delta = _output_of(ch0, x) - _output_of(ch1, x)
        m, value = helstrom((delta + delta.conj().T) / 2)
        assert value == w.value
        assert np.array_equal(m, w.measurement)
        rho = np.outer(w.psi, w.psi.conj())
        delta = channel_apply_ext(ch0, rho, 2) - channel_apply_ext(ch1, rho, 2)
        assert abs(helstrom((delta + delta.conj().T) / 2)[1] - w.value) < 1e-14


@pytest.mark.parametrize("seed", range(6))
def test_output_sandwich_matches_channel_apply_ext(seed):
    rng = np.random.default_rng(320 + seed)
    n_in = int(rng.integers(1, 3))
    ch = choi_of(random_circuit(rng, n_in, 6, max_live=3))
    for ref_qubits in (n_in, n_in + 1, n_in + 2):
        x = rng.standard_normal((ch.dim_in, 2**ref_qubits)) + 1j * rng.standard_normal(
            (ch.dim_in, 2**ref_qubits)
        )
        psi = x.reshape(-1)
        expect = channel_apply_ext(ch, np.outer(psi, psi.conj()), 2**ref_qubits)
        assert np.abs(_output_of(ch, x) - expect).max() < 1e-12 * np.vdot(x, x).real


def test_witness_at_a_larger_reference_attains_its_value():
    rng = np.random.default_rng(7)
    ch0 = choi_of(random_11_circuit(rng, "a"))
    ch1 = choi_of(random_11_circuit(rng, "b"))
    w = diamond_norm(ch0, ch1, CFG, ref_qubits=3)
    assert w.psi.size == 16 and w.measurement.shape == (16, 16)
    rho = np.outer(w.psi, w.psi.conj())
    delta = channel_apply_ext(ch0, rho, 8) - channel_apply_ext(ch1, rho, 8)
    assert abs(trace_norm(delta) - w.value) < 1e-12


def test_diamond_norm_against_grid_oracle():
    ch_i = choi_of(identity_circuit())
    for other, expect in ((decohere_circuit(), 1.0), (depolarizing_circuit(), 1.5)):
        ch = choi_of(other)
        grid_value, _ = grid_max_output_tnorm(ch_i, ch)
        assert abs(grid_value - expect) < 1e-9
        w = diamond_norm(ch_i, ch, CFG)
        assert w.value >= grid_value - 1e-9
        assert w.upper >= grid_value


def _difference_factors(ch0, ch1):
    """J0 - J1 as ``diamond_norm`` holds it: stacked factors, or dense."""
    j = distances._stacked_factors(ch0, ch1)
    return ch0.choi - ch1.choi if j is None else j


def _classical_pairs():
    """(p0, p1) column-stochastic pairs on 1-2 input and 1-2 output qubits,
    some with exact zeros, then a bit flip against the identity (disjoint
    supports, exact value 2) and a pair of equal channels (exact value 0)."""
    rng = np.random.default_rng(800)
    for k in range(16):
        din, dout = 2 ** rng.integers(1, 3, size=2)
        pair = [rng.dirichlet(np.ones(dout), size=din).T for _ in range(2)]
        if k % 2:  # cut the small entries: optima on the boundary
            pair = [np.where(p < 0.2, 0.0, p) for p in pair]
            pair = [p / p.sum(axis=0) for p in pair]
        yield pair
    yield np.eye(2), np.eye(2)[::-1]
    p = rng.dirichlet(np.ones(4), size=2).T
    yield p, p.copy()


@pytest.mark.parametrize("pair", list(_classical_pairs()))
def test_diamond_norm_brackets_the_exact_classical_value(pair):
    p0, p1 = pair
    exact = classical_dnorm(p0, p1)
    w = diamond_norm(classical_channel(p0), classical_channel(p1), CFG)
    assert w.value - 1e-9 <= exact <= w.upper + 1e-9
    assert w.value <= w.upper  # the identity against a bit flip once read 2.0000000000000004 > 2.0
    if w.converged:
        assert abs(w.value - exact) <= GAP_TOL


def test_seesaw_monotone_objective():
    ch0 = choi_of(identity_circuit())
    ch1 = choi_of(depolarizing_circuit())
    x = random_state(np.random.default_rng(6), 4).reshape(2, 2)
    j = _difference_factors(ch0, ch1)
    value, _, converged, history = _seesaw(ch0, ch1, j, x, 1e-10)
    assert converged
    diffs = np.diff(history)
    assert diffs.min() >= -1e-12
    assert abs(value - history[-1]) < 1e-12


@pytest.mark.parametrize("seed", [13, 39])
def test_seesaw_rounding_drop_is_not_a_fault(seed):
    # on these pairs the objective falls by ~1e-9 from one iterate to the
    # next: helstrom leaves eigenvalues within TOL_PSD of zero out of M
    rng = np.random.default_rng(seed)
    ch0, ch1 = choi_of(random_11_circuit(rng, "a")), choi_of(random_11_circuit(rng, "b"))
    upper = diamond_norm(ch0, ch1).upper
    j = _difference_factors(ch0, ch1)
    for k in range(32):
        x = random_state(np.random.default_rng(k), 4).reshape(2, 2)
        value, _, converged, history = _seesaw(ch0, ch1, j, x, 1e-10)
        assert converged
        assert np.diff(history).min() >= -2 * 4 * TOL_PSD
        assert value <= upper + 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_seesaw_adjoint_step_pairs_with_the_output_difference(seed):
    # step (c): vec(x)^dagger [(Phi0 - Phi1)^dagger (x) I](M) vec(x) = tr(M Delta(x))
    # for any x and Hermitian M, Delta from the Kraus-sum oracle
    rng = np.random.default_rng(300 + seed)
    n_in = int(rng.integers(1, 3))
    c0 = random_circuit(rng, n_in, 6, max_live=3)
    c1 = random_circuit(rng, n_in, 6, max_live=3)
    while c1.n_out != c0.n_out:
        c1 = random_circuit(rng, n_in, 6, max_live=3)
    ch0, ch1 = choi_of(c0), choi_of(c1)
    difference = Channel(ch0.n_in, ch0.n_out, ch0.choi - ch1.choi)
    for ref_dim in (ch0.dim_in, 2 * ch0.dim_in):
        psi = random_state(rng, ch0.dim_in * ref_dim)
        m = random_hermitian(rng, ch0.dim_out * ref_dim)
        k = adjoint_apply_ext(difference, m, ref_dim)
        delta = (_apply_ext_batch(kraus_of(ch0), psi, ch0.dim_in, ref_dim)[0]
                 - _apply_ext_batch(kraus_of(ch1), psi, ch0.dim_in, ref_dim)[0])
        assert abs(np.vdot(psi, k @ psi) - np.trace(m @ delta)) < 1e-12


def test_seesaw_history_ends_at_the_reported_value(monkeypatch):
    # the seesaw and the report share _witness_at, so a kept iterate's value
    # is its last history entry bit for bit
    runs = []

    def record(*args):
        out = _seesaw(*args)
        runs.append(out)
        return out

    monkeypatch.setattr(distances, "_seesaw", record)
    kept = 0
    for index in (11, 12):  # of the 20 criterion-5 pairs, the seesaw runs on these
        runs.clear()
        w = diamond_norm(*_criterion_5_pair(index), CFG)
        for value, x, _, history in runs:
            if np.array_equal(x.reshape(-1), w.psi):
                assert w.value == history[-1] == value
                kept += 1
    assert kept == 2


def test_reference_dimension_stability():
    ch0 = choi_of(identity_circuit())
    ch1 = choi_of(decohere_circuit())
    w1 = diamond_norm(ch0, ch1, CFG)
    w2 = diamond_norm(ch0, ch1, CFG, ref_qubits=2)
    assert abs(w1.value - w2.value) < 1e-6
    assert abs(w1.upper - w2.upper) < 1e-6
    assert w2.psi.size == 8


def test_reference_smaller_than_input_is_refused():
    ch = choi_of(identity_circuit("id2", 2))
    with pytest.raises(ValueError, match="smaller than"):
        diamond_norm(ch, ch, CFG, ref_qubits=1)


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


@pytest.mark.parametrize("seed", range(3))
def test_rank_one_probes_never_beat_upper(seed):
    rng = np.random.default_rng(400 + seed)
    qa, qb = random_11_circuit(rng, "qa"), random_11_circuit(rng, "qb")
    pairs = [(random_11_circuit(rng, "a"), random_11_circuit(rng, "b")), ci_to_qcd(qa, qb)]
    for c0, c1 in pairs:
        ch0, ch1 = choi_of(c0), choi_of(c1)
        w = diamond_norm(ch0, ch1, CFG)
        assert w.value <= w.upper
        for _ in range(50):
            psi = random_state(rng, ch0.dim_in**2)
            rho = np.outer(psi, psi.conj())
            delta = channel_apply_ext(ch0, rho, ch0.dim_in) - channel_apply_ext(ch1, rho, ch0.dim_in)
            assert trace_norm(delta) <= w.upper + 1e-12


def test_ascent_closes_well_inside_gap_tol():
    # the ascent runs to ASCENT_TOL, so a converged value sits within ~1e-8
    # of the optimum rather than anywhere inside GAP_TOL
    for index in (0, 2, 8, 16):
        w = diamond_norm(*_criterion_5_pair(index), CFG)
        assert w.value <= w.upper <= w.value + GAP_TOL / 10


@pytest.mark.parametrize("seed", [4, 13])
def test_boundary_optimum_is_certified(seed):
    # The optimal input of these pairs is pure: the ascent stalls with its
    # gap open (1.1e-3 and 8.8e-5), and the mixed polished state closes it.
    rng = np.random.default_rng(seed)
    ch0 = choi_of(random_11_circuit(rng, "a"))
    ch1 = choi_of(random_11_circuit(rng, "b"))
    j = ch0.choi - ch1.choi
    lower, upper, _, _ = _ascent((j + j.conj().T) / 2, 2)
    assert upper - lower > GAP_TOL
    w = diamond_norm(ch0, ch1, CFG)
    assert w.value <= w.upper and w.converged


def test_upper_bound_never_exceeds_two():
    # the pair is perfectly distinguishable by a pure input, which the ascent
    # approaches only as 1/k; every dual point it certifies lies above 2
    rng = np.random.default_rng(29)
    ch0 = choi_of(random_11_circuit(rng, "a"))
    ch1 = choi_of(random_11_circuit(rng, "b"))
    w = diamond_norm(ch0, ch1, CFG)
    assert w.upper == 2.0 and w.converged


def _criterion_5_circuits():
    """The acceptance test's 20 type-(1,1) pairs (qa, qb), drawn in order."""
    rng = np.random.default_rng(105)
    return [(random_11_circuit(rng, "qa"), random_11_circuit(rng, "qb")) for _ in range(20)]


def _criterion_5_pair(index):
    """Pair ``index`` of the acceptance test's 20 close-images reductions."""
    r0, r1 = ci_to_qcd(*_criterion_5_circuits()[index])
    return choi_of(r0), choi_of(r1)


def test_repair_term_keeps_the_upper_bound_sound(monkeypatch):
    # Pair 11's optimal rho is rank-deficient.  Given 2000 iterations the
    # ascent shrinks an eigenvalue of rho below SUPPORT_CUT, the input-side
    # gap closes and it stops there; the pseudo-inverse then drops that
    # direction, and without the block repair eps the "bound" falls below
    # the value the polish attains.  With it, that certificate is void, and
    # the polished state mixed with a little of I/d bounds the norm.
    ch0, ch1 = _criterion_5_pair(11)
    monkeypatch.setattr(distances, "MAX_ITERS", 2000)
    j = ch0.choi - ch1.choi
    lower, upper, _, iterations = _ascent(j, ch0.dim_in)
    assert iterations < 2000
    assert upper - lower > GAP_TOL
    w = diamond_norm(ch0, ch1, CFG)
    assert w.value <= w.upper < w.value + 1e-5
    assert not w.converged
    monkeypatch.setattr(distances, "_repair", lambda w: 0.0)
    raw = diamond_norm(ch0, ch1, CFG).upper
    assert raw < w.value - 1e-4


def test_upper_bound_never_below_the_value():
    # the block repair's rounding allowance: without it, 5 to 7 of these
    # pairs read value > upper by 1-5 ulp
    for seed in range(200):
        rng = np.random.default_rng(seed)
        ch0 = choi_of(random_11_circuit(rng, "a"))
        ch1 = choi_of(random_11_circuit(rng, "b"))
        w = diamond_norm(ch0, ch1, CFG)
        assert w.value <= w.upper, seed


def _difference_chois(rng):
    """Hermitian J = J0 - J1 of a random type-(1,1) pair and of its
    close-images reduction."""
    qa, qb = random_11_circuit(rng, "qa"), random_11_circuit(rng, "qb")
    for c0, c1 in [(qa, qb), ci_to_qcd(qa, qb)]:
        ch0, ch1 = choi_of(c0), choi_of(c1)
        yield ch0.choi - ch1.choi, ch0.dim_in


@pytest.mark.parametrize("seed", range(4))
def test_one_state_path_matches_the_two_state_path(seed):
    rng = np.random.default_rng(600 + seed)
    for j, dim_in in _difference_chois(rng):
        assert np.array_equal(j, j.conj().T)
        psi = random_state(rng, dim_in)
        # a pure rho leaves the block far from PSD, so the repair is tested too
        for rho in (random_density(rng, dim_in), np.outer(psi, psi.conj())):
            one_norm, (t,), _, one_blocks = _cross_terms(j, (rho,))
            two_norm, (t0, t1), _, two_blocks = _cross_terms(j, (rho, rho.copy()))
            assert abs(one_norm - two_norm) <= 1e-12
            assert np.abs(t - t0).max() <= 1e-12 and np.abs(t - t1).max() <= 1e-12
            one_upper = _block_upper(j, one_blocks(), dim_in)
            two_upper = _block_upper(j, two_blocks(), dim_in)
            assert abs(one_upper - two_upper) <= 1e-12
            assert one_norm <= one_upper


def _tensor_cube():
    """id^(x)3 vs decohere^(x)3: J0 has rank 1 and J1 rank 8 at side 64, and
    the diamond norm is 2 (1 - 2^-3)."""
    t0, t1 = tensor_power(identity_circuit(), decohere_circuit(), 3)
    return choi_of(t0), choi_of(t1)


def test_thin_path_closes_around_the_tensor_power_value():
    ch0, ch1 = _tensor_cube()
    thin = distances._stacked_factors(ch0, ch1)
    assert thin.f.shape == (64, 9) and thin.signs.tolist() == [1.0] + [-1.0] * 8
    w = diamond_norm(ch0, ch1, CFG)
    exact = 2 * (1 - 2**-3)
    assert w.converged and w.value - 1e-12 <= exact <= w.upper + 1e-12


def test_truncated_factor_is_repaired_by_its_residual():
    # Without J0's one column, F diag(signs) F^dagger is -J1, a map of norm 1:
    # only the residual term in the repair eps keeps the bound above 1.75.
    ch0, ch1 = _tensor_cube()
    thin = distances._stacked_factors(ch0, ch1)
    cut, cut_signs = thin.f[:, 1:], thin.signs[1:]
    residual = np.linalg.norm(ch0.choi - ch1.choi - (cut * cut_signs) @ cut.conj().T)
    j = distances._Factored(cut, cut_signs, float(residual))
    lower, upper, _, _ = _ascent(j, ch0.dim_in)
    assert lower < 1.0 + 1e-9
    assert upper >= diamond_norm(ch0, ch1, CFG).value


@pytest.mark.parametrize("seed", range(3))
def test_thin_path_agrees_with_the_dense_path(seed):
    # the close-images reduction of a random type-(1,1) pair has a J of low rank
    rng = np.random.default_rng(620 + seed)
    r0, r1 = ci_to_qcd(random_11_circuit(rng, "qa"), random_11_circuit(rng, "qb"))
    ch0, ch1 = choi_of(r0), choi_of(r1)
    j = ch0.choi - ch1.choi
    factored = distances._stacked_factors(ch0, ch1)
    assert factored is not None
    dense = _ascent(j, ch0.dim_in)
    thin = _ascent(factored, ch0.dim_in)
    assert abs(dense[0] - thin[0]) <= 1e-12
    assert abs(dense[1] - thin[1]) <= 1e-9
    assert dense[3] == thin[3]


def test_polarized_pair_runs_no_side_256_eigensolver(monkeypatch):
    s0, s1, cert = polarize(
        identity_circuit(), decohere_circuit(), PolarizationParams(n=1, a=1.0, b=0.25),
        override=(2, 2, 1),
    )
    ch0, ch1 = choi_of(s0), choi_of(s1)
    sides = []

    def counted(solver):
        def run(a, *args, **kwargs):
            sides.append(a.shape[-1])
            return solver(a, *args, **kwargs)
        return run

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    w = diamond_norm(ch0, ch1, CFG)
    lo, hi = cert["final_interval_yes"]
    assert w.converged and lo - 1e-9 <= w.value <= hi + 1e-9
    # J0 and J1 have ranks 16 and 9: the widest core is the block's 3 * 25
    assert ch0.choi.shape == (256, 256) and max(sides) <= 75


def test_traced_out_is_the_partial_trace_of_f_f_dagger():
    rng = np.random.default_rng(607)
    for r, dim_in, cols in [(1, 2, 2), (2, 2, 4), (4, 2, 3), (3, 4, 12)]:
        f = rng.normal(size=(r * dim_in, cols)) + 1j * rng.normal(size=(r * dim_in, cols))
        expected = partial_trace(f @ f.conj().T, [r, dim_in], [1])
        assert np.abs(_traced_out(f, dim_in) - expected).max() <= 1e-12


def _maxfid(q0, q1, cfg=None):
    """max_image_fidelity of two circuits' channels."""
    return max_image_fidelity(choi_of(q0), choi_of(q1), cfg)


def test_max_image_fidelity_closed_forms():
    r = _maxfid(identity_circuit(), identity_circuit("id2"), CFG)
    assert abs(r.value - 1.0) < 1e-9
    r = _maxfid(constant_circuit("c0", "zero"), constant_circuit("c1", "one"), CFG)
    assert r.value < 1e-9
    r = _maxfid(constant_circuit("c0", "zero"), constant_circuit("cp", "plus"), CFG)
    assert abs(r.value - 1 / np.sqrt(2)) < 1e-9


def test_max_image_fidelity_witnesses_achieve_value():
    rng = np.random.default_rng(8)
    qa = random_11_circuit(rng, "qa")
    qb = random_11_circuit(rng, "qb")
    r = _maxfid(qa, qb, CFG)
    images = apply_extended(qa, r.rho0, 0), apply_extended(qb, r.rho1, 0)
    assert abs(fidelity(*images) - r.value) < 1e-12


def test_max_image_fidelity_reads_the_channels_cached_factor(monkeypatch):
    # choi_of forms each channel's factor; the distance must not form it again
    rng = np.random.default_rng(8)
    pairs = [(identity_circuit(), z_circuit()),
             (random_11_circuit(rng, "qa"), random_11_circuit(rng, "qb"))]
    channels = [(choi_of(q0), choi_of(q1)) for q0, q1 in pairs]
    before = [max_image_fidelity(ch0, ch1, CFG) for ch0, ch1 in channels]
    monkeypatch.setattr(linalg, "psd_factor", _refuse)
    for (ch0, ch1), r in zip(channels, before):
        again = max_image_fidelity(ch0, ch1, CFG)
        assert (again.value, again.upper) == (r.value, r.upper)


@pytest.mark.parametrize("distance", [diamond_norm, max_image_fidelity])
def test_both_distances_refuse_a_type_mismatch_alike(distance):
    one = choi_of(identity_circuit())
    for other, message in [(choi_of(identity_circuit("id2", 2)), r"\(1,1\) vs \(2,2\)"),
                           (choi_of(Circuit("t", 1, (trace_gate(0),))), r"\(1,1\) vs \(1,0\)")]:
        with pytest.raises(ValueError, match=r"^channels disagree on type: " + message + "$"):
            distance(one, other)


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
    assert set(blob) == {"value", "upper", "gap", "iterations", "converged", "psi", "measurement"}
    assert blob["gap"] == w.upper - w.value
    assert len(blob["psi"]) == w.psi.size


def test_optimizer_config_validation():
    for tol in (0.0, -1e-10, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rel_tol"):
            OptimizerConfig(rel_tol=tol)


def _refuse(*args, **kwargs):
    raise AssertionError("the cap must be checked before this step")


def test_max_image_fidelity_checks_cap_before_isometry(monkeypatch):
    # d_out * d_in = 256 is under the cap, but the Kraus rank 256 of the
    # depolarizer makes the ambient side 65536
    monkeypatch.setattr(distances, "dilated_isometry", _refuse)
    p0, p1 = identity_circuit("id4", 4), depolarizing_circuit("dep4", 4)
    with pytest.raises(SizeCapError, match="image-fidelity ambient space"):
        _maxfid(p0, p1)


def test_max_image_fidelity_three_parity_blocks():
    # refused by the cap on the 2^l garbage space before; side 512 now
    p0, p1 = parity_mix(identity_circuit(), decohere_circuit(), 3)
    r = _maxfid(p0, p1)
    assert abs(r.value - 1.0) < 1e-6
    assert r.value <= r.upper + 1e-12 and r.converged


def test_max_image_fidelity_closes_at_the_cap():
    # Kraus ranks 16 and 15 on 4 inputs and outputs: ambient side 4096,
    # exactly the cap; the images intersect, so the fidelity is 1
    p0, p1 = parity_mix(identity_circuit(), decohere_circuit(), 4)
    r = _maxfid(p0, p1)
    assert abs(r.value - 1.0) < 1e-9
    assert r.gap <= GAP_TOL


@settings(max_examples=40, deadline=None)
@given(pair=equal_type_pairs())
def test_max_image_fidelity_interval_property(pair):
    r = _maxfid(*pair)
    assert 0.0 <= r.value <= r.upper <= 1.0
    assert r.iterations >= 1
    again = _maxfid(*pair)
    assert (again.value, again.upper, again.iterations) == (r.value, r.upper, r.iterations)
    assert np.array_equal(again.rho0, r.rho0) and np.array_equal(again.rho1, r.rho1)


def test_max_image_fidelity_at_the_iteration_cap(monkeypatch):
    # pair 11 stalls on the boundary, so three steps leave the gap open
    rng = np.random.default_rng(105)
    for _ in range(12):
        qa, qb = random_11_circuit(rng, "qa"), random_11_circuit(rng, "qb")
    monkeypatch.setattr(distances, "MAX_ITERS", 3)
    r = _maxfid(qa, qb)
    assert r.value <= r.upper and not r.converged
    assert r.iterations <= 6


def test_max_image_fidelity_witness_ignores_the_kraus_basis(monkeypatch):
    # A unitary change of either Kraus basis multiplies K by unitaries on E,
    # which leaves tr_E |K| and tr_E |K^dagger| unchanged.  The bound moves
    # by rounding: near a pure witness its one pseudo-inverse factor
    # amplifies it (up to 4.3e-12 seen on these pairs).
    rng = np.random.default_rng(105)
    pairs = [(random_11_circuit(rng, "qa"), random_11_circuit(rng, "qb")) for _ in range(11)]
    plain = [_maxfid(qa, qb) for qa, qb in pairs]
    mix = np.random.default_rng(541)

    def mixed_kraus(ch):
        ops = np.asarray(kraus_of(ch))
        return list(np.tensordot(random_unitary(mix, len(ops)), ops, axes=1))

    monkeypatch.setattr(distances, "kraus_of", mixed_kraus)
    for (qa, qb), a in zip(pairs, plain):
        b = _maxfid(qa, qb)
        assert abs(a.value - b.value) <= 1e-12
        assert abs(a.upper - b.upper) <= 1e-11
        assert np.abs(a.rho0 - b.rho0).max() <= 1e-10
        assert np.abs(a.rho1 - b.rho1).max() <= 1e-10


def test_accelerated_states_are_hermitian_unit_trace_above_the_floor(monkeypatch):
    seen, mixed = [], []
    cross_terms, anderson = distances._cross_terms, distances._anderson

    def record(j, rhos):
        seen.extend(rhos)
        return cross_terms(j, rhos)

    def record_step(memory, current, plain, gap):
        out = anderson(memory, current, plain, gap)
        for rho, x, step in zip(out, current, plain):
            mixed.append((rho, distances._floor(x, step, gap), step))
        return out

    monkeypatch.setattr(distances, "_cross_terms", record)
    monkeypatch.setattr(distances, "_anderson", record_step)
    for qa, qb in _criterion_5_circuits()[:4]:
        diamond_norm(*(choi_of(c) for c in ci_to_qcd(qa, qb)), CFG)
        max_image_fidelity(choi_of(qa), choi_of(qb), CFG)
    assert len(mixed) >= 10
    for rho in seen:
        assert linalg.herm_defect(rho) <= 1e-15
        assert abs(np.trace(rho).real - 1) <= 1e-12
    for rho, floor, step in mixed:
        assert 0 < floor <= np.linalg.eigvalsh(step)[0]
        assert linalg.herm_defect(rho) == 0.0
        # the eigensolver's own rounding, side eps_mach, on top of the floor
        assert np.linalg.eigvalsh(rho)[0] >= floor - 1e-15


def test_mixing_floor_follows_the_plain_step():
    def state(low):
        return np.diag([1 - low, low]).astype(complex)

    floor, tol = distances._floor, distances.ASCENT_TOL
    # the plain step grew the least eigenvalue: no mixed state goes below it
    assert floor(state(1e-3), state(2e-3), 1e-2) == pytest.approx(2e-3, rel=1e-12)
    # it halved it: thirty more halvings, or where the gap would reach tol / 10
    assert floor(state(1e-2), state(5e-3), 10.0) == pytest.approx(5e-3 * 0.5**30, rel=1e-9)
    assert floor(state(1e-2), state(5e-3), 1e-6) == pytest.approx(1e-2 * tol / 1e-5, rel=1e-9)
    # a singular plain step is the one floor of 0
    assert floor(state(1e-2), state(0.0), 1.0) == 0.0


def test_a_worse_mixing_step_leaves_the_plain_ascent(monkeypatch):
    # I/d_in is the ascent's first iterate, and every plain step raises the
    # lower bound from there, so a mixing step that returns it is rejected:
    # each rejection costs one evaluation, and the plain steps go on as if
    # no mixing had been tried
    ch0, ch1 = _criterion_5_pair(0)
    j = distances._stacked_factors(ch0, ch1)
    monkeypatch.setattr(distances, "ANDERSON_FAILURES", 0)
    plain = _ascent(j, ch0.dim_in)
    monkeypatch.setattr(distances, "ANDERSON_FAILURES", 3)

    def worse(memory, current, plain, gap):
        return (np.eye(len(current[0]), dtype=complex) / len(current[0]),)

    monkeypatch.setattr(distances, "_anderson", worse)
    forced = _ascent(j, ch0.dim_in)
    assert plain[3] > 6 and forced[3] == plain[3] + 3
    assert abs(forced[0] - plain[0]) <= 1e-12 and abs(forced[1] - plain[1]) <= 1e-12


def test_ascent_iteration_budget_on_criterion_5(monkeypatch):
    # Each of the 40 ascents of the acceptance test's 20 pairs (dnorm of the
    # close-images reduction, maxfid of the pair) runs once with the Anderson
    # steps and once with plain steps only.  Where the plain ascent stops
    # before MAX_ITERS, the Anderson steps at least halve its iterations in
    # sum.  Pairs 11 and 12 stall on a boundary (ROADMAP item 4), so their
    # four plain ascents run to MAX_ITERS, and the accelerated ones may too.
    counts = []
    original, failures = distances._ascent, distances.ANDERSON_FAILURES

    def counted(j, dim_in):
        out = original(j, dim_in)
        monkeypatch.setattr(distances, "ANDERSON_FAILURES", 0)
        counts.append((out[3], original(j, dim_in)[3]))
        monkeypatch.setattr(distances, "ANDERSON_FAILURES", failures)
        return out

    monkeypatch.setattr(distances, "_ascent", counted)
    for qa, qb in _criterion_5_circuits():
        diamond_norm(*(choi_of(c) for c in ci_to_qcd(qa, qb)), CFG)
        max_image_fidelity(choi_of(qa), choi_of(qb), CFG)
    assert len(counts) == 40
    stalled = [(fast, plain) for fast, plain in counts if plain == distances.MAX_ITERS]
    closing = [(fast, plain) for fast, plain in counts if plain < distances.MAX_ITERS]
    assert len(stalled) == 4
    assert 2 * sum(fast for fast, _ in closing) <= sum(plain for _, plain in closing)
