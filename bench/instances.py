"""Seeded instance files and their references for the qcdist benchmark.

Every workload builds a pool of instances.  An instance is one unit job: a
few ``qcdist`` commands run in order on files written here, plus the
reference their standard output is checked against.

Shapes and seeds.  The cost of a job depends on the shape of its circuits
(gate kinds, widths) and, for the optimizers, on how fast the seesaw
converges on that pair, which varies by orders of magnitude between random
pairs.  So the base circuits of each pool slot come from a fixed stream,
and every seed does the same work.  The run seed then dresses each base
circuit with random unitaries on its inputs and outputs, shared by both
circuits of a pair, and draws the optimizer and protocol seeds.  Dressing
changes every printed digit but none of the quantities the checks rely on:
diamond norms, image fidelities, Kraus ranks and the optimizers' landscapes
are invariant under it.

The circuit recipes are this module's own copies: the program only ever
sees the files written here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

#: Entropy of the fixed stream that draws the base circuits of every slot.
BASE_ENTROPY = 407056

OPTIMIZER = (0, 4)  # 4: optimizer did not converge, result still printed


@dataclass
class Step:
    argv: list[str]
    ok_codes: tuple[int, ...] = (0,)


@dataclass
class Instance:
    """One unit job: commands to run and the check of their outputs.

    ``check(reference, outputs)`` gets the parsed JSON stdout of every step
    and returns a list of problems; an empty list means correct.
    """

    id: str
    steps: list[Step]
    reference: dict
    check: Callable[[dict, list[dict]], list[str]] = field(repr=False)


# ---------------------------------------------------------------- circuits


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_11_gates(rng, min_ops: int = 1, max_ops: int = 4) -> list[tuple]:
    """Random type-(1, 1) circuit mixing unitaries, decoherence, resets and
    traced-out interactions."""
    gates: list[tuple] = []
    for _ in range(int(rng.integers(min_ops, max_ops))):
        choice = rng.integers(0, 4)
        if choice == 0:
            gates.append(("unitary", (0,), haar_unitary(rng, 2)))
        elif choice == 1:
            gates.append(("decohere", (0,)))
        elif choice == 2:
            gates += [("trace", (0,)), ("ancilla", ()), ("unitary", (0,), haar_unitary(rng, 2))]
        else:
            gates += [("ancilla", ()), ("unitary", (0, 1), haar_unitary(rng, 4)), ("trace", (1,))]
    return gates


def wide_random_gates(rng, n_in: int, n_gates: int, max_live: int) -> tuple[list[tuple], int]:
    """Random valid circuit whose live width walks between 1 and ``max_live``.

    Returns the gates and the output width.
    """
    gates: list[tuple] = []
    live = n_in
    for _ in range(n_gates):
        options = ["u1", "deco"]
        if live >= 2:
            options += ["u2", "trace"]
        if live < max_live:
            options.append("ancilla")
        kind = options[rng.integers(0, len(options))]
        if kind == "u1":
            gates.append(("unitary", (int(rng.integers(0, live)),), haar_unitary(rng, 2)))
        elif kind == "u2":
            w = rng.choice(live, size=2, replace=False)
            gates.append(("unitary", (int(w[0]), int(w[1])), haar_unitary(rng, 4)))
        elif kind == "deco":
            gates.append(("decohere", (int(rng.integers(0, live)),)))
        elif kind == "ancilla":
            gates.append(("ancilla", ()))
            live += 1
        else:
            gates.append(("trace", (int(rng.integers(0, live)),)))
            live -= 1
    return gates, live


def dress(gates: list[tuple], v: np.ndarray, ws: list[np.ndarray]) -> list[tuple]:
    """Unitary ``v`` on all inputs first, ``ws[j]`` on output wire j last."""
    n_in = int(round(math.log2(v.shape[0])))
    head = [("unitary", tuple(range(n_in)), v)]
    tail = [("unitary", (j,), w) for j, w in enumerate(ws)]
    return head + gates + tail


def circuit_text(name: str, n_in: int, gates: list[tuple]) -> str:
    lines = [f"circuit {name} inputs {n_in}"]
    for g in gates:
        kind, wires = g[0], g[1]
        if kind == "unitary":
            entries = " ".join(f"{z.real:.17g},{z.imag:.17g}" for z in g[2].reshape(-1))
            lines.append(f"unitary {len(wires)} {' '.join(map(str, wires))} {entries}")
        elif kind == "ancilla":
            lines.append("ancilla")
        else:
            lines.append(f"{kind} {wires[0]}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def _write_instance(path: Path, q0: str, q1: str, kind: str, a: float, b: float) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"q0": q0, "q1": q1, "kind": kind, "a": a, "b": b}))
    return path.as_posix()


def _opt_seed(rng) -> str:
    return str(int(rng.integers(0, 2**30)))


def _dressed_pair(rng, g0: list[tuple], g1: list[tuple]) -> tuple[str, str]:
    """A type-(1, 1) pair dressed with the same input and output unitaries."""
    v, w = haar_unitary(rng, 2), haar_unitary(rng, 2)
    return (
        circuit_text("q0", 1, dress(g0, v, [w])),
        circuit_text("q1", 1, dress(g1, v, [w])),
    )


# ----------------------------------------------------------------- checks


def _num(x) -> bool:
    """A JSON number (the CLI prints integral floats such as 1 without a dot)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _close(x, ref: float, tol: float) -> bool:
    return _num(x) and abs(x - ref) <= tol


def _files_problem(out: dict, kind: str, files: list[str]) -> list[str]:
    if out.get("kind") != kind or out.get("files") != files:
        return [f"{kind}: expected files {files}, got {out}"]
    return []


def check_reduction(ref: dict, outs: list[dict]) -> list[str]:
    """The reduction identity ||R0 - R1||_diamond = max F(Q0(rho0), Q1(rho1))."""
    problems = _files_problem(outs[0], "ci2qcd", ref["files"])
    dn, mf = outs[1].get("value"), outs[2].get("value")
    for label, x in (("dnorm", dn), ("maxfid", mf)):
        if not (_num(x) and -1e-9 <= x <= 1.0 + 1e-9):
            problems.append(f"{label} value {x!r} outside [0, 1]")
    if not problems and abs(dn - mf) > ref["tol"]:
        problems.append(f"dnorm {dn!r} and maxfid {mf!r} differ by {abs(dn - mf):.3e}")
    return problems


def polarization_intervals(a: float, b: float, r: int, s: int, t: int) -> tuple[list, list]:
    """Final (yes, no) intervals of parity(r) -> tensor(s) -> parity(t)."""

    def parity(x: float, k: int) -> float:
        return 2.0 * (x / 2.0) ** k

    yes, no = [parity(a, r), parity(2.0, r)], [0.0, parity(b, r)]
    yes, no = [2.0 - 2.0 * math.exp(-s * yes[0] ** 2 / 8.0), 2.0], [0.0, min(s * no[1], 2.0)]
    return [parity(yes[0], t), parity(yes[1], t)], [0.0, parity(no[1], t)]


def check_amplify(ref: dict, outs: list[dict]) -> list[str]:
    """Polarization certificate, parity law, image overlap and tensor bounds."""
    pol, s_dn, par, p_dn, p_mf, ten, t_dn = outs
    problems = _files_problem(pol, "polarize", ref["polarize_files"])
    problems += _files_problem(par, "parity", ref["parity_files"])
    problems += _files_problem(ten, "tensor", ref["tensor_files"])
    cert = pol.get("certificate", {})
    for key in ("final_interval_yes", "final_interval_no"):
        got, want = cert.get(key), ref[key]
        if not (isinstance(got, list) and len(got) == 2
                and all(_close(g, w, 1e-12) for g, w in zip(got, want))):
            problems.append(f"polarize {key} {got!r}, reference {want!r}")
    lo, hi = ref["final_interval_yes"]
    x = s_dn.get("value")
    if not (_num(x) and lo - 1e-9 <= x <= hi + 1e-9):
        problems.append(f"polarized dnorm {x!r} outside the certified [{lo!r}, {hi!r}]")
    x = p_dn.get("value")
    if not _close(x, ref["parity_law"], 1e-4):
        problems.append(f"parity dnorm {x!r}, law 2(eps/2)^r = {ref['parity_law']!r}")
    x = p_mf.get("value")
    if not _close(x, 1.0, 1e-6):
        problems.append(f"parity maxfid {x!r}, images intersect so it is 1")
    x = t_dn.get("value")
    lo, hi = ref["tensor_bounds"]
    if not (_num(x) and lo < x <= hi + 1e-9):
        problems.append(f"tensor dnorm {x!r} outside ({lo!r}, {hi!r}]")
    elif not _close(x, ref["tensor_exact"], 1e-6):
        problems.append(f"tensor dnorm {x!r}, exact value {ref['tensor_exact']!r}")
    return problems


def apply_ext(n_in: int, gates: list[tuple], rho: np.ndarray, ref: int) -> np.ndarray:
    """(C (x) I_ref)(rho) for the circuit ``gates`` on the first ``n_in`` of
    ``n_in + ref`` qubits.

    This module's own reading of the circuit format, by index contraction:
    wire 0 is the most significant qubit, a unitary's first listed wire is
    its most significant, an ancilla joins in |0> as the last live wire
    (before the reference), and ``trace w`` removes wire w.
    """
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    live = n_in
    t = rho.reshape([2] * (2 * (n_in + ref)))
    for g in gates:
        kind, wires = g[0], g[1]
        total = live + ref
        rows, cols = list(letters[:total]), list(letters[total:2 * total])
        if kind == "unitary":
            k = len(wires)
            new_r, new_c = letters[2 * total:2 * total + k], letters[2 * total + k:2 * total + 2 * k]
            old_r, old_c = "".join(rows[w] for w in wires), "".join(cols[w] for w in wires)
            out_r, out_c = list(rows), list(cols)
            for j, w in enumerate(wires):
                out_r[w], out_c[w] = new_r[j], new_c[j]
            u = g[2].reshape([2] * (2 * k))
            spec = (f"{new_r}{old_r},{''.join(rows)}{''.join(cols)},{new_c}{old_c}"
                    f"->{''.join(out_r)}{''.join(out_c)}")
            t = np.einsum(spec, u, t, u.conj())
        elif kind == "decohere":
            w = wires[0]
            keep = np.eye(2).reshape([2 if a in (w, total + w) else 1 for a in range(2 * total)])
            t = t * keep
        elif kind == "ancilla":
            zero = np.zeros(2)
            zero[0] = 1.0
            new = letters[2 * total:2 * total + 2]
            spec = (f"{''.join(rows)}{''.join(cols)},{new[0]},{new[1]}->"
                    f"{''.join(rows[:live])}{new[0]}{''.join(rows[live:])}"
                    f"{''.join(cols[:live])}{new[1]}{''.join(cols[live:])}")
            t = np.einsum(spec, t, zero, zero)
            live += 1
        else:
            w = wires[0]
            t = np.trace(t, axis1=w, axis2=total + w)
            live -= 1
    side = 2 ** (live + ref)
    return t.reshape(side, side)


def check_witness(ref: dict, out: dict) -> list[str]:
    """A printed diamond-norm witness, recomputed here: ``value`` must be the
    trace norm of (C0 (x) I - C1 (x) I)(psi psi^dagger) for the printed psi,
    and the printed measurement must attain it."""
    value, psi, m = out.get("value"), out.get("psi"), out.get("measurement")
    n, dim_out = ref["n_in"], 2 ** (ref["n_out"] + ref["n_in"])
    if not (_num(value) and isinstance(psi, list) and len(psi) == 4**n and isinstance(m, dict)
            and m.get("rows") == dim_out and m.get("cols") == dim_out):
        return [f"dnorm printed an incomplete witness: value {value!r}"]
    psi = np.array([complex(re, im) for re, im in psi])
    m = np.array([complex(re, im) for re, im in m["entries"]]).reshape(dim_out, dim_out)
    rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    delta = apply_ext(n, ref["gates0"], rho, n) - apply_ext(n, ref["gates1"], rho, n)
    delta = (delta + delta.conj().T) / 2
    norm = float(np.abs(np.linalg.eigvalsh(delta)).sum())
    attained = float(2.0 * np.real(np.trace(m @ delta)) - np.real(np.trace(delta)))
    problems = []
    if abs(value - norm) > ref["tol"]:
        problems.append(f"dnorm value {value!r}, trace norm at its witness psi {norm!r}")
    if abs(value - attained) > ref["tol"]:
        problems.append(f"dnorm value {value!r}, its measurement attains {attained!r}")
    return problems


def check_dense_choi(ref: dict, outs: list[dict]) -> list[str]:
    problems = []
    if outs[0] != ref["report"]:
        problems.append(f"validate printed {outs[0]!r}, expected {ref['report']!r}")
    if "witness" in ref:
        problems += check_witness(ref["witness"], outs[1])
    return problems


def check_protocol(ref: dict, outs: list[dict]) -> list[str]:
    """Optimal acceptance 1/2 + ||Q0 - Q1||/4 and a binomial 5-sigma tally."""
    out = outs[0]
    p, value = out.get("p_accept_exact"), out.get("dnorm_witness_value")
    n, accepts = out.get("trials"), out.get("accepts")
    if n != ref["trials"] or out.get("seed") != ref["seed"] or not isinstance(accepts, int):
        return [f"protocol echoed trials/seed/accepts {n!r}/{out.get('seed')!r}/{accepts!r}"]
    problems = []
    if not (_num(p) and _num(value)):
        return [f"protocol printed p_accept_exact {p!r}, dnorm_witness_value {value!r}"]
    if abs(p - (0.5 + value / 4.0)) > ref["tol"]:
        problems.append(f"p_accept_exact {p!r} != 1/2 + {value!r}/4")
    if out.get("estimate") != accepts / n:
        problems.append(f"estimate {out.get('estimate')!r} != {accepts}/{n}")
    sigma = math.sqrt(n * p * (1.0 - p))
    if abs(accepts - n * p) > 5.0 * sigma + 1e-9:
        problems.append(f"{accepts} accepts of {n} is beyond 5 sigma of p = {p!r}")
    return problems


# --------------------------------------------------------------- workloads

ID, DECOHERE = [], [("decohere", (0,))]


def reduction_instance(d: Path, base, rng, restarts: int = 32) -> Instance:
    g0, g1 = (ID, DECOHERE) if base is None else (random_11_gates(base), random_11_gates(base))
    inst = _write_instance(d / "instance.json", *_dressed_pair(rng, g0, g1), "CI", 1.0, 0.25)
    r0, r1 = (d / "r0.circ").as_posix(), (d / "r1.circ").as_posix()
    steps = [
        Step(["reduce", "ci2qcd", inst, "--out", d.as_posix()]),
        Step(["distance", "dnorm", r0, r1, "--restarts", str(restarts), "--seed", _opt_seed(rng)], OPTIMIZER),
        Step(["distance", "maxfid", inst, "--restarts", str(restarts), "--seed", _opt_seed(rng)], OPTIMIZER),
    ]
    return Instance(d.name, steps, {"files": [r0, r1], "tol": 1e-4}, check_reduction)


def amplify_instance(d: Path, base, rng, restarts: int = 4, stages=(2, 2, 1)) -> Instance:
    # identity vs decohere: ||Q0 - Q1||_diamond = eps = 1 in every dressing
    a, b, (r, s, t), parity, k = 1.0, 0.25, stages, 2, 3
    inst = _write_instance(d / "instance.json", *_dressed_pair(rng, ID, DECOHERE), "QCD", a, b)
    out = d.as_posix()
    f = {x: (d / f"{x}.circ").as_posix() for x in ("s0", "s1", "p0", "p1", "t0", "t1")}
    opt = str(restarts)
    steps = [
        Step(["reduce", "polarize", inst, "--override", f"{r},{s},{t}", "--out", out]),
        Step(["distance", "dnorm", f["s0"], f["s1"], "--restarts", "1", "--seed", _opt_seed(rng)], OPTIMIZER),
        Step(["reduce", "parity", inst, "--count", str(parity), "--out", out]),
        Step(["distance", "dnorm", f["p0"], f["p1"], "--restarts", opt, "--seed", _opt_seed(rng)], OPTIMIZER),
        Step(["distance", "maxfid", f["p0"], f["p1"], "--restarts", opt, "--seed", _opt_seed(rng)], OPTIMIZER),
        Step(["reduce", "tensor", inst, "--count", str(k), "--out", out]),
        Step(["distance", "dnorm", f["t0"], f["t1"], "--restarts", opt, "--seed", _opt_seed(rng)], OPTIMIZER),
    ]
    yes, no = polarization_intervals(a, b, r, s, t)
    reference = {
        "polarize_files": [f["s0"], f["s1"]],
        "parity_files": [f["p0"], f["p1"]],
        "tensor_files": [f["t0"], f["t1"]],
        "final_interval_yes": yes,
        "final_interval_no": no,
        "parity_law": 2.0 * 0.5**parity,
        "tensor_bounds": [2.0 - 2.0 * math.exp(-k / 8.0), min(k, 2.0)],
        # id^k - D^k = (1 - 2^-k) id - 2^-k sum of Z-conjugations
        "tensor_exact": 2.0 * (1.0 - 2.0**-k),
    }
    return Instance(d.name, steps, reference, check_amplify)


def dense_choi_instance(d: Path, base, rng, witness: bool = False) -> Instance:
    """``validate`` on a wide circuit.  With ``witness``, also the diamond
    distance between the circuit cut to its first two outputs and the
    channel that prepares |0...0>; its printed witness is recomputed by
    ``apply_ext``, so a wrong channel that is still admissible is caught."""
    n_in = 3
    if base is None:
        gates, n_out = [], n_in
    else:
        gates, n_out = wide_random_gates(base, n_in, n_gates=240, max_live=6)
    ws = [haar_unitary(rng, 2) for _ in range(n_out)]
    gates = dress(gates, haar_unitary(rng, 2**n_in), ws)
    d.mkdir(parents=True, exist_ok=True)
    path = d / "circuit.circ"
    path.write_text(circuit_text("wide", n_in, gates))
    steps = [Step(["validate", path.as_posix()])]
    reference = {"report": {"valid": True, "violations": []}}
    if witness:
        m = min(n_out, 2)
        cut = gates + [("trace", (w,)) for w in range(n_out - 1, m - 1, -1)]
        fixed = [("ancilla", ())] * m + [("trace", (0,))] * n_in
        files = [d / "cut.circ", d / "fixed.circ"]
        files[0].write_text(circuit_text("cut", n_in, cut))
        files[1].write_text(circuit_text("fixed", n_in, fixed))
        steps.append(Step(["distance", "dnorm", *(f.as_posix() for f in files),
                           "--restarts", "1", "--seed", _opt_seed(rng)], OPTIMIZER))
        reference["witness"] = {"n_in": n_in, "n_out": m, "gates0": cut, "gates1": fixed, "tol": 1e-7}
    return Instance(d.name, steps, reference, check_dense_choi)


def protocol_instance(d: Path, base, rng, trials: int = 100_000) -> Instance:
    g0, g1 = (ID, DECOHERE) if base is None else (random_11_gates(base), random_11_gates(base))
    inst = _write_instance(d / "instance.json", *_dressed_pair(rng, g0, g1), "QCD", 1.0, 0.25)
    seed = _opt_seed(rng)
    steps = [Step(["protocol", inst, "--trials", str(trials), "--seed", seed, "--restarts", "32"], OPTIMIZER)]
    return Instance(d.name, steps, {"trials": trials, "seed": int(seed), "tol": 1e-9}, check_protocol)


@dataclass(frozen=True)
class Workload:
    name: str
    index: int
    pool_size: int
    build: Callable[..., Instance]
    warmup_args: dict
    #: extra arguments of ``build`` for pool slot k
    slot_args: Callable[[int], dict] = lambda k: {}

    def pool(self, seed: int, workdir: Path) -> list[Instance]:
        """The seeded pool: slot k's base circuits are fixed, its dressing is seeded."""
        out = []
        for k in range(self.pool_size):
            base = np.random.default_rng([BASE_ENTROPY, self.index, k])
            rng = np.random.default_rng([seed, self.index, k])
            out.append(self.build(workdir / f"i{k:03d}", base, rng, **self.slot_args(k)))
        return out

    def warmup(self, workdir: Path) -> Instance:
        """A tiny fixed job through the same commands, run before timing."""
        rng = np.random.default_rng([BASE_ENTROPY, self.index, 2**20])
        return self.build(workdir / "warmup", None, rng, **self.warmup_args)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reduction", 0, 12, reduction_instance, {"restarts": 1}),
        Workload("amplify", 1, 1, amplify_instance, {"restarts": 1, "stages": (1, 1, 1)}),
        # every eighth circuit also has its channel checked through a witness
        Workload("dense_choi", 2, 16, dense_choi_instance, {},
                 lambda k: {"witness": k % 8 == 0}),
        Workload("protocol", 3, 4, protocol_instance, {"trials": 1000}),
    )
}
