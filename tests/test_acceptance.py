"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them on
success; they also appear in captured output on failure).  Desk scale
throughout: at most a few live qubits per circuit.
"""

import json
import subprocess
import sys

import numpy as np

from qcdist.circuits import (
    ProblemInstance,
    parse_circuit,
    serialize_circuit,
    validate,
)
from qcdist.distances import (
    GAP_TOL,
    OptimizerConfig,
    diamond_norm,
    fidelity,
    fidelity_via_purification,
    helstrom,
    max_image_fidelity,
    trace_norm,
)
from qcdist.jsonutil import dumps
from qcdist.protocol import (
    ProverStrategy,
    acceptance_probability,
    optimal_prover_witness,
    run_protocol,
)
from qcdist.reductions import PolarizationParams, ci_to_qcd, mix_with_parity, parity_mix, tensor_power
from qcdist.simulate import channel_apply_ext, choi_of

from helpers import (
    constant_circuit,
    decohere_circuit,
    depolarizing_circuit,
    identity_circuit,
    instance_to_json,
    purification,
    random_11_circuit,
    random_density,
    random_state,
    random_unitary,
    z_circuit,
)
from oracles import grid_max_output_tnorm


def report(num: int, label: str, problems: list):
    status = "PASS" if not problems else "FAIL"
    detail = "" if not problems else " :: " + "; ".join(problems)
    print(f"[criterion {num}] {status} {label}{detail}")
    assert not problems, f"criterion {num} failed: {problems}"


def test_criterion_1_distance_measure_axioms():
    problems = []
    rng = np.random.default_rng(101)
    worst_low = worst_high = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        rho, xi = random_density(rng, d), random_density(rng, d)
        f = fidelity(rho, xi)
        t = trace_norm(rho - xi)
        worst_low = min(worst_low, f - (1 - t / 2))
        worst_high = min(worst_high, np.sqrt(max(0.0, 1 - t * t / 4)) - f)
    if worst_low < -1e-9 or worst_high < -1e-9:
        problems.append(f"Fuchs-van de Graaf slack {worst_low:.2e}/{worst_high:.2e}")
    worst_mult = 0.0
    for _ in range(200):
        a, b = random_density(rng, 2), random_density(rng, 2)
        c, d2 = random_density(rng, 3), random_density(rng, 3)
        err = abs(fidelity(np.kron(a, c), np.kron(b, d2)) - fidelity(a, b) * fidelity(c, d2))
        worst_mult = max(worst_mult, err)
    if worst_mult > 1e-9:
        problems.append(f"multiplicativity error {worst_mult:.2e}")
    pairs = [
        (np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), 0.0),
        (np.diag([1.0, 0.0]), np.eye(2) / 2, 1.0),
        (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 2.0),
    ]
    for rho0, rho1, tn in pairs:
        m, value = helstrom(rho0 - rho1)
        success = 0.5 * np.trace(m @ rho0).real + 0.5 * (1 - np.trace(m @ rho1).real)
        if abs(value - tn) > 1e-12 or abs(success - (0.5 + tn / 4)) > 1e-12:
            problems.append(f"Helstrom success for tnorm {tn}: got {success}")
    if pairs[1] is not None:
        m, _ = helstrom(pairs[1][0] - pairs[1][1])
        success = 0.5 * np.trace(m @ pairs[1][0]).real + 0.5 * (1 - np.trace(m @ pairs[1][1]).real)
        if success != 0.75:
            problems.append(f"3/4 example not exact: {success!r}")
    report(1, "distance-measure axioms", problems)


def test_criterion_2_purification_lemma():
    problems = []
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 9))
        rho, xi = random_density(rng, d), random_density(rng, d)
        psi, phi = purification(rng, rho, d), purification(rng, xi, d)
        err = abs(fidelity_via_purification(psi, phi, (d, d)) - fidelity(rho, xi))
        worst = max(worst, err)
    if worst > 1e-8:
        problems.append(f"purification route deviates by {worst:.2e}")
    report(2, "fidelity via purifications", problems)


def test_criterion_3_diamond_norm_closed_forms():
    problems = []
    cfg = OptimizerConfig()
    ch_id = choi_of(identity_circuit())
    cases = [
        ("identity vs Z", z_circuit(), 2.0, 1e-9),
        ("identity vs decohere", decohere_circuit(), 1.0, 1e-6),
        ("identity vs depolarizing", depolarizing_circuit(), 1.5, 1e-6),
    ]
    for label, other, expect, tol in cases:
        ch = choi_of(other)
        grid_value, _ = grid_max_output_tnorm(ch_id, ch)
        if abs(grid_value - expect) > 1e-9:
            problems.append(f"grid oracle for {label}: {grid_value}")
        w = diamond_norm(ch_id, ch, cfg)
        if abs(w.value - expect) > tol:
            problems.append(f"seesaw for {label}: {w.value}")
        if w.value < grid_value - 1e-9:
            problems.append(f"seesaw below grid for {label}")
    same = diamond_norm(ch_id, choi_of(identity_circuit("id2")), cfg)
    if same.value > 1e-12:
        problems.append(f"identical channels gave {same.value}")
    report(3, "diamond-norm closed forms vs grid oracle", problems)


def test_criterion_4_rank_one_optimality_and_reference_stability():
    problems = []
    rng = np.random.default_rng(104)
    cfg = OptimizerConfig()
    ch_id = choi_of(identity_circuit())
    for label, other in (("decohere", decohere_circuit()), ("depolarizing", depolarizing_circuit())):
        ch = choi_of(other)
        best = diamond_norm(ch_id, ch, cfg).value
        worst = 0.0
        for _ in range(200):
            x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            x = (x + x.conj().T) / 2
            x /= trace_norm(x)
            val = trace_norm(channel_apply_ext(ch_id, x, 2) - channel_apply_ext(ch, x, 2))
            worst = max(worst, val - best)
        if worst > 1e-6:
            problems.append(f"mixed probe beats optimum for {label} by {worst:.2e}")
        wide = diamond_norm(ch_id, ch, cfg, ref_qubits=2).value
        if abs(wide - best) > 1e-6:
            problems.append(f"reference doubling moved {label}: {best} -> {wide}")
    report(4, "rank-one optimality and reference stability", problems)


def test_criterion_5_main_reduction():
    problems = []
    rng = np.random.default_rng(105)
    worst = 0.0
    closed = 0
    mf_closed = 0
    for trial in range(20):
        qa = random_11_circuit(rng, "qa")
        qb = random_11_circuit(rng, "qb")
        r0, r1 = ci_to_qcd(qa, qb)
        wd = diamond_norm(choi_of(r0), choi_of(r1))
        mf = max_image_fidelity(choi_of(qa), choi_of(qb))
        worst = max(worst, abs(wd.value - mf.value))
        if not wd.value <= wd.upper:
            problems.append(f"pair {trial}: dnorm {wd.value} above its bound {wd.upper}")
        # both intervals are certified, so by the paper's identity they meet
        if max(mf.value - wd.upper, wd.value - mf.upper) > 1e-12:
            problems.append(
                f"pair {trial}: maxfid [{mf.value}, {mf.upper}] misses "
                f"dnorm [{wd.value}, {wd.upper}]"
            )
        closed += wd.gap <= GAP_TOL
        mf_closed += mf.gap <= GAP_TOL
    if worst > 1e-4:
        problems.append(f"reduction equality off by {worst:.2e}")
    if closed < 18:
        problems.append(f"only {closed} of 20 diamond-norm gaps closed")
    if mf_closed < 18:
        problems.append(f"only {mf_closed} of 20 image-fidelity gaps closed")
    r0, r1 = ci_to_qcd(identity_circuit(), identity_circuit("id2"))
    v = diamond_norm(choi_of(r0), choi_of(r1)).value
    if abs(v - 1.0) > 1e-6:
        problems.append(f"identity endpoint gave {v}")
    r0, r1 = ci_to_qcd(constant_circuit("c0", "zero"), constant_circuit("c1", "one"))
    choi_gap = np.abs(choi_of(r0).choi - choi_of(r1).choi).max()
    if choi_gap > 1e-9:
        problems.append(f"orthogonal endpoint Choi gap {choi_gap:.2e}")
    report(5, "close-images to distinguishability reduction", problems)


def test_criterion_6_amplification_laws():
    problems = []
    q0, q1 = identity_circuit(), decohere_circuit()
    eps = 1.0
    for r in (1, 2, 3):
        p0, p1 = parity_mix(q0, q1, r)
        v = diamond_norm(choi_of(p0), choi_of(p1)).value
        expect = 2 * (eps / 2) ** r
        if abs(v - expect) > 1e-4:
            problems.append(f"parity law r={r}: {v} vs {expect}")
    for k in (1, 2, 3):
        t0, t1 = tensor_power(q0, q1, k)
        v = diamond_norm(choi_of(t0), choi_of(t1)).value
        lower = 2 - 2 * np.exp(-k * eps**2 / 8)
        upper = min(k * eps, 2.0)
        if not (lower < v <= upper + 1e-9):
            problems.append(f"tensor bounds k={k}: {v} not in ({lower}, {upper}]")
    rng = np.random.default_rng(106)
    phi0, phi1 = random_11_circuit(rng, "f0"), random_11_circuit(rng, "f1")
    psi0, psi1 = random_11_circuit(rng, "g0"), random_11_circuit(rng, "g1")
    xi0 = mix_with_parity([(phi0, phi1), (psi0, psi1)], odd=False, name="xi0")
    xi1 = mix_with_parity([(phi0, phi1), (psi0, psi1)], odd=True, name="xi1")
    v_phi = diamond_norm(choi_of(phi0), choi_of(phi1)).value
    v_psi = diamond_norm(choi_of(psi0), choi_of(psi1)).value
    v_xi = diamond_norm(choi_of(xi0), choi_of(xi1)).value
    if abs(v_xi - 0.5 * v_phi * v_psi) > 1e-4:
        problems.append(f"product law: {v_xi} vs {0.5 * v_phi * v_psi}")
    params = PolarizationParams(n=1, a=1.0, b=0.25)
    if (params.r, params.s, params.t) != (4, 1024, 1):
        problems.append(f"derived parameters {(params.r, params.s, params.t)}")
    # the CLI must refuse full-strength parameters with exit code 3
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        inst = ProblemInstance(q0, q1, "QCD", 1.0, 0.25)
        inst_path = Path(tmp) / "inst.json"
        inst_path.write_text(dumps(instance_to_json(inst)))
        proc = subprocess.run(
            [sys.executable, "-m", "qcdist", "reduce", "polarize", str(inst_path),
             "--precision", "1", "--out", tmp],
            capture_output=True,
        )
        if proc.returncode != 3:
            problems.append(f"polarize exit code {proc.returncode}")
        else:
            cert = json.loads(proc.stdout)["certificate"]
            if (cert["r"], cert["s"], cert["t"]) != (4, 1024, 1):
                problems.append(f"certificate parameters {cert}")
    report(6, "amplification laws and polarization arithmetic", problems)


def test_criterion_7_protocol():
    problems = []
    cfg = OptimizerConfig()
    rng = np.random.default_rng(107)
    instances = [
        (identity_circuit(), decohere_circuit()),
        (identity_circuit(), z_circuit()),
        (random_11_circuit(rng, "qa"), random_11_circuit(rng, "qb")),
    ]
    for q0, q1 in instances:
        ch0, ch1 = choi_of(q0), choi_of(q1)
        strat, witness = optimal_prover_witness(ch0, ch1, cfg)
        p = acceptance_probability(ch0, ch1, strat)
        if abs(p - (0.5 + witness.value / 4)) > 1e-8:
            problems.append(f"optimal acceptance identity off for {q0.name}/{q1.name}")
        bound = 0.5 + witness.value / 4 + 1e-4
        priv = q0.n_in
        dim_in = 2 ** (q0.n_in + priv)
        dim_out = 2 ** (q0.n_out + priv)
        for _ in range(17):
            psi = random_state(rng, dim_in)
            u = random_unitary(rng, dim_out)
            rank = int(rng.integers(1, dim_out))
            m = u[:, :rank] @ u[:, :rank].conj().T
            p_rand = acceptance_probability(ch0, ch1, ProverStrategy(psi, m))
            if p_rand > bound:
                problems.append(f"random strategy beat bound: {p_rand} > {bound}")
                break
    ch0, ch1 = choi_of(identity_circuit()), choi_of(decohere_circuit())
    strat, _ = optimal_prover_witness(ch0, ch1, cfg)
    res = run_protocol(ch0, ch1, strat, 100000, seed=777)
    sigma = np.sqrt(res.p_accept_exact * (1 - res.p_accept_exact) / res.trials)
    if abs(res.estimate - res.p_accept_exact) > 4 * sigma:
        problems.append(f"Monte Carlo {res.estimate} vs exact {res.p_accept_exact}")
    report(7, "protocol completeness, soundness, sampling", problems)


def test_criterion_8_engineering():
    problems = []
    q0, q1 = identity_circuit(), decohere_circuit()
    emitted = []
    emitted.extend(ci_to_qcd(q0, q1))
    emitted.extend(parity_mix(q0, q1, 2))
    emitted.extend(tensor_power(q0, q1, 2))
    from qcdist.reductions import polarize

    s0, s1, _ = polarize(q0, q1, PolarizationParams(n=1, a=1.0, b=0.25), override=(2, 1, 1))
    emitted.extend([s0, s1])
    for c in emitted:
        back = parse_circuit(serialize_circuit(c))
        rep = validate(back)
        if rep:
            problems.append(f"{c.name} fails revalidation: {rep[0]}")
            continue
        try:
            choi_of(back)
        except Exception as exc:
            problems.append(f"{c.name} inadmissible after round trip: {exc}")
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        inst = ProblemInstance(q0, q1, "QCD", 1.0, 0.25)
        inst_path = Path(tmp) / "inst.json"
        inst_path.write_text(dumps(instance_to_json(inst)))
        cmd = [sys.executable, "-m", "qcdist", "distance", "dnorm", str(inst_path),
               "--restarts", "4", "--seed", "99"]
        runs = [subprocess.run(cmd, capture_output=True, check=True).stdout for _ in range(2)]
        if runs[0] != runs[1] or not runs[0]:
            problems.append("dnorm output not byte-stable")
        cmd = [sys.executable, "-m", "qcdist", "protocol", str(inst_path),
               "--trials", "2000", "--seed", "5", "--restarts", "4"]
        runs = [subprocess.run(cmd, capture_output=True, check=True).stdout for _ in range(2)]
        if runs[0] != runs[1]:
            problems.append("protocol output not byte-stable")
    report(8, "emitted circuits revalidate; outputs byte-stable", problems)
