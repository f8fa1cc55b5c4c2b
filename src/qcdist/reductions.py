"""Constructive transformations between circuit pairs.

* ``controlled_join``: one unitary circuit that applies either of two
  dilations depending on a fresh control qubit.
* ``ci_to_qcd``: the reduction from closeness-of-images to channel
  distinguishability.  The joined dilation runs on control + inputs, the
  original output wires are traced, and the garbage wires (plus control)
  become the output; the second circuit additionally decoheres the control.
* ``tensor_power``: k parallel copies of each circuit.
* ``parity_mix``: uniform mixtures of r-fold tensor products with even/odd
  parity of branch choices; satisfies the exact law
  ||R0 - R1||_diamond = 2 (||Q0 - Q1||_diamond / 2)^r.
* ``polarize``: parity(r) -> tensor(s) -> parity(t) pipeline driving a
  promise gap (a, b) with 2b < a^2 to (2 - 2^-n, 2^-n), with a bound
  certificate per stage.

All emitted gates are exact explicit unitaries; nothing is approximated in
a fixed basis.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .circuits import (
    Circuit,
    Gate,
    UnitarityError,
    _WireTracker,
    ancilla_gate,
    decohere_gate,
    named_gate,
    trace_gate,
    validate,
)
from .dilation import DilatedCircuit, dilate
from .linalg import SizeCapError, check_wires


class ConstructionError(ValueError):
    """A reduction cannot be realized within the gate-arity cap."""


def _controlled(u: np.ndarray, branch: int) -> np.ndarray:
    """Block embedding: apply ``u`` when the (leading) control is ``branch``."""
    dim = u.shape[0]
    out = np.eye(2 * dim, dtype=np.complex128)
    if branch == 0:
        out[:dim, :dim] = u
    else:
        out[dim:, dim:] = u
    return out


def _phase(theta: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * theta)]).astype(np.complex128)


def _global_phase(alpha: float) -> np.ndarray:
    return np.exp(1j * alpha) * np.eye(2, dtype=np.complex128)


def _cphase(theta: float) -> np.ndarray:
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * theta)]).astype(np.complex128)


def _unitary_eig(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigen-decomposition of a unitary matrix.

    Diagonalizes the commuting Hermitian pair (X + X^dag)/2, (X - X^dag)/2i
    through a generic real combination; retries with a different mixing
    coefficient if a degeneracy collapses two distinct eigenphases.
    """
    a = (x + x.conj().T) / 2
    b = (x - x.conj().T) / 2j
    for t in (0.6180339887498949, 0.0, 1.0, 2.414213562373095, 0.1353352832366127):
        _, vecs = np.linalg.eigh(a + t * b)
        d = vecs.conj().T @ x @ vecs
        if np.abs(d - np.diag(np.diag(d))).max() < 1e-11:
            return vecs, np.diag(d)
    raise ConstructionError("failed to diagonalize a unitary gate for joining")


def _identity_like(m: np.ndarray) -> bool:
    return bool(np.abs(m - np.eye(m.shape[0])).max() == 0.0)


def _controlled_2q_gates(u: np.ndarray, branch: int, wires: tuple[int, int, int]) -> list[Gate]:
    """Exact realization of a controlled 2-qubit gate by 1- and 2-qubit gates.

    Splits the multiplexor U (+) V (with V = I, or U and I swapped for the
    other branch) as (I (x) W) Delta (I (x) T) where Delta is diagonal, then
    compiles Delta into phase, controlled-phase, and CNOT gates; the
    three-body phase term is folded into two-body terms by conjugating with
    a CNOT.  Keeping every emitted gate at arity <= 2 is what lets the
    output of one join be joined again.
    """
    c, t1, t2 = wires
    eye = np.eye(4, dtype=np.complex128)
    top, bot = (u, eye) if branch == 0 else (eye, u)
    w_mat, mu = _unitary_eig(top @ bot.conj().T)
    d = np.exp(1j * np.angle(mu) / 2)
    t_mat = np.diag(d.conj()) @ w_mat.conj().T @ top
    if (
        np.abs(w_mat @ np.diag(d) @ t_mat - top).max() > 1e-11
        or np.abs(w_mat @ np.diag(d.conj()) @ t_mat - bot).max() > 1e-11
    ):
        raise ConstructionError("multiplexor split failed to reconstruct the gate")
    gates: list[Gate] = []
    if not _identity_like(t_mat):
        gates.append(Gate("unitary", (t1, t2), t_mat))
    # Diagonal of Delta over basis (control, t1, t2): d on the 0-branch,
    # conj(d) on the 1-branch.  Interpolate the phase exponents.
    theta = np.angle(np.concatenate([d, d.conj()]))

    def th(xc, x1, x2):
        return theta[4 * xc + 2 * x1 + x2]

    alpha = th(0, 0, 0)
    beta = {c: th(1, 0, 0) - alpha, t1: th(0, 1, 0) - alpha, t2: th(0, 0, 1) - alpha}
    gamma = {
        (c, t1): th(1, 1, 0) - alpha - beta[c] - beta[t1],
        (c, t2): th(1, 0, 1) - alpha - beta[c] - beta[t2],
        (t1, t2): th(0, 1, 1) - alpha - beta[t1] - beta[t2],
    }
    omega = th(1, 1, 1) - alpha - sum(beta.values()) - sum(gamma.values())
    if alpha != 0.0:
        gates.append(Gate("unitary", (c,), _global_phase(alpha)))
    for wire, angle in beta.items():
        if angle != 0.0:
            gates.append(Gate("unitary", (wire,), _phase(angle)))
    for (wa, wb), angle in gamma.items():
        if angle != 0.0:
            gates.append(Gate("unitary", (wa, wb), _cphase(angle)))
    if omega != 0.0:
        gates.append(named_gate("CNOT", (t1, t2)))
        gates.append(Gate("unitary", (c, t2), _cphase(-omega / 2)))
        gates.append(named_gate("CNOT", (t1, t2)))
        gates.append(Gate("unitary", (c, t2), _cphase(omega / 2)))
        gates.append(Gate("unitary", (c, t1), _cphase(omega / 2)))
    if not _identity_like(w_mat):
        gates.append(Gate("unitary", (t1, t2), w_mat))
    return gates


def _controlled_gates(g: Gate, branch: int) -> list[Gate]:
    """Controlled version of one dilation gate (control = wire 0)."""
    shifted = tuple(w + 1 for w in g.wires)
    if g.arity == 1:
        return [Gate("unitary", (0,) + shifted, _controlled(g.matrix, branch))]
    if g.arity == 2:
        return _controlled_2q_gates(g.matrix, branch, (0,) + shifted)
    raise ConstructionError(
        f"cannot control a {g.arity}-qubit gate within the arity cap of 3"
    )


def controlled_join(p0: DilatedCircuit, p1: DilatedCircuit) -> DilatedCircuit:
    """Join two dilations under a fresh control wire (wire 0).

    The result applies p0's unitary when the control is |0> and p1's when
    it is |1>.  Controlled 1-qubit gates are emitted directly; controlled
    2-qubit gates are decomposed exactly into 1- and 2-qubit gates so that
    joined circuits can be dilated and joined again; a 3-qubit source gate
    would need a 4-qubit controlled gate and is refused.  The narrower
    dilation is padded with untouched trailing wires, initialized |0> and
    classified as garbage.  The emitted gates are checked for unitarity
    once, by :func:`validate` on the joined circuit, and the first finding
    raises UnitarityError.
    """
    if p0.n_in != p1.n_in or p0.n_out != p1.n_out:
        raise ConstructionError(
            f"dilations disagree on type: ({p0.n_in},{p0.n_out}) vs ({p1.n_in},{p1.n_out})"
        )
    n_wires = max(p0.n_wires, p1.n_wires)
    gates: list[Gate] = []
    for branch, p in ((0, p0), (1, p1)):
        for g in p.unitary_circuit.gates:
            gates.extend(_controlled_gates(g, branch))
    joined = Circuit("joined", 1 + n_wires, tuple(gates))
    if report := validate(joined):
        raise UnitarityError(report[0])
    # the control is output wire 0, the dilations' outputs follow it
    return DilatedCircuit(joined, k=n_wires - p0.n_in, l=n_wires - p0.n_out)


def ci_to_qcd(q0: Circuit, q1: Circuit) -> tuple[Circuit, Circuit]:
    """Compile a Close Images pair into a distinguishability pair.

    Output circuits have type (1 + n, 1 + l): control and original inputs
    in; control and garbage out.  The original output wires are traced
    immediately after the joined dilation, and the second circuit appends a
    decoherence gate on the control, so the channel identity
    (D (x) I) o R0 = R1 is syntactically visible.
    """
    if (q0.n_in, q0.n_out) != (q1.n_in, q1.n_out):
        raise ConstructionError("circuits disagree on type")
    r0 = _joined_circuit(q0, q1, "r0", garbage=False)
    r1 = Circuit("r1", r0.n_in, r0.gates + (decohere_gate(0),))
    return r0, r1


def _joined_circuit(q0: Circuit, q1: Circuit, name: str, garbage: bool) -> Circuit:
    """The controlled join of ``q0``'s and ``q1``'s dilations as a mixed-state
    circuit on control + inputs.

    Its k ancillas come first, then the joined gates, then traces of the
    dilation wires that hold the channel output (on 0..m-1), or with
    ``garbage`` of the rest.  The control stays wire 0, and the untraced
    wires keep their order after it.  Its width is refused by arithmetic
    before the join is built.
    """
    p0, p1 = dilate(q0), dilate(q1)
    check_wires(1 + max(p0.n_wires, p1.n_wires), f"wires of the joined circuit {name}")
    joined = controlled_join(p0, p1)
    m = joined.n_out - 1
    traced = range(m, joined.n_wires - 1) if garbage else range(m)
    gates = [ancilla_gate() for _ in range(joined.k)]
    gates.extend(joined.unitary_circuit.gates)
    # each trace shifts the next traced wire down onto the same index
    gates.extend(trace_gate(1 + traced.start) for _ in traced)
    return Circuit(name, joined.n_in, tuple(gates))


def mix_with_parity(pairs, odd: bool, name: str) -> Circuit:
    """Uniform mixture of branch tensor products with fixed choice parity.

    ``pairs`` is a sequence of circuit pairs; block i applies either
    pairs[i][0] or pairs[i][1].  The mixture is uniform over all branch
    strings whose parity is even (``odd=False``) or odd (``odd=True``).

    Realization: r - 1 fair classical coins are generated by
    (ancilla, H, decohere), their parity is accumulated into one extra
    wire with CNOTs (flipped once more via X in the odd variant), block i
    is the controlled join of block i's dilations driven by coin i (the
    last block by the parity wire), and every coin and garbage wire is
    traced.  Decohered controls make this exactly the stated mixture.
    """
    pairs = list(pairs)
    r = len(pairs)
    if r < 1:
        raise ConstructionError("need at least one circuit pair")
    # one join per distinct pair: parity_mix repeats the same pair r times
    block_by_pair: dict[tuple[int, int], Circuit] = {}
    blocks = []
    for a, b in pairs:
        if (a.n_in, a.n_out) != (b.n_in, b.n_out):
            raise ConstructionError("each pair must agree on type")
        key = (id(a), id(b))
        if key not in block_by_pair:
            block_by_pair[key] = _joined_circuit(a, b, "block", garbage=True)
        blocks.append(block_by_pair[key])
    # a fair classical coin on a fresh wire, its value added into wire 0
    coin = Circuit(
        "coin",
        1,
        (ancilla_gate(), named_gate("H", (1,)), decohere_gate(1), named_gate("CNOT", (1, 0))),
    )
    inputs = [[("in", i, j) for j in range(a.n_in)] for i, (a, _) in enumerate(pairs)]
    tracker = _WireTracker(h for block in inputs for h in block)
    tracker.ancilla("parity")
    if odd:
        tracker.named("X", ["parity"])
    outputs = []
    for i, block in enumerate(blocks):
        if i < r - 1:
            _, control = tracker.append(coin, ["parity"], ("coin", i))
        else:
            control = "parity"
        # the block's control stays its wire 0; its channel output follows
        outputs.extend(tracker.append(block, [control] + inputs[i], ("block", i))[1:])
        if i < r - 1:
            tracker.trace(control)
    tracker.trace("parity")
    tracker.route_outputs(outputs)
    return Circuit(name, sum(a.n_in for a, _ in pairs), tuple(tracker.gates))


def _end_width(q0: Circuit, q1: Circuit) -> int:
    """Widest end of either circuit: a k-fold composition holds k times this."""
    return max(q0.n_in, q0.n_out, q1.n_in, q1.n_out)


def _parity_width(width: int, r: int) -> int:
    """End width of an r-block parity mixture of pairs of end width ``width``.

    Refuses by arithmetic when the mixture would exceed the cap: every
    block's outputs and the parity wire are live before the last trace.
    """
    if r > 1:
        check_wires(r * width + 1, f"wires of a {r}-block parity mixture")
    return r * width


def _tensor_width(width: int, k: int) -> int:
    """End width of k copies of a pair of end width ``width``, refused over the cap."""
    if k > 1:
        check_wires(k * width, f"wires of {k} copies")
    return k * width


def parity_mix(q0: Circuit, q1: Circuit, r: int) -> tuple[Circuit, Circuit]:
    """Even/odd parity mixtures of r-fold branch products of (q0, q1).

    r = 1 selects branch 0 for the even mixture and branch 1 for the odd
    one, i.e. the input pair itself; it is returned unchanged rather than
    wrapped in coin plumbing.
    """
    if r < 1:
        raise ConstructionError(f"parity order must be >= 1, got {r}")
    if r == 1:
        return q0, q1
    _parity_width(_end_width(q0, q1), r)
    pairs = [(q0, q1)] * r
    return (
        mix_with_parity(pairs, odd=False, name="p0"),
        mix_with_parity(pairs, odd=True, name="p1"),
    )


def _tensor_copies(c: Circuit, k: int, name: str) -> Circuit:
    """k parallel copies of c, outputs in copy-major order."""
    inputs = [[("in", i, j) for j in range(c.n_in)] for i in range(k)]
    tracker = _WireTracker(h for copy in inputs for h in copy)
    outputs = []
    for i, copy in enumerate(inputs):
        outputs.extend(tracker.append(c, copy, ("copy", i)))
    tracker.route_outputs(outputs)
    return Circuit(name, c.n_in * k, tuple(tracker.gates))


def tensor_power(q0: Circuit, q1: Circuit, k: int) -> tuple[Circuit, Circuit]:
    """(q0^(x)k, q1^(x)k): k parallel copies of each circuit."""
    if k < 1:
        raise ConstructionError(f"tensor power must be >= 1, got {k}")
    if k == 1:
        return q0, q1
    _tensor_width(_end_width(q0, q1), k)
    return _tensor_copies(q0, k, "t0"), _tensor_copies(q1, k, "t1")


#: Natural log of the largest (b/2)^(-r) evaluated as a float; one below
#: the overflow point leaves room for the rounding of the power.
_LOG_POW_MAX = math.log(sys.float_info.max) - 1


@dataclass(eq=False)
class PolarizationParams:
    """Promise constants plus the derived stage sizes of the pipeline.

    Requires 0 < b < a < 2 and 2b < a^2.  The derived sizes are
    r = ceil(log(16 n) / log(a^2 / (2 b))), s = floor((b/2)^(-r) / 4),
    t = ceil((n + 1) / 2).
    """

    n: int
    a: float
    b: float
    r: int = field(init=False)
    s: int = field(init=False)
    t: int = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"precision parameter must be >= 1, got {self.n}")
        if not (0.0 < self.b < self.a < 2.0):
            raise ValueError(f"need 0 < b < a < 2, got a={self.a}, b={self.b}")
        if not (2 * self.b < self.a**2):
            raise ValueError(f"need 2b < a^2, got a={self.a}, b={self.b}")
        # The epsilon guards keep exact integer ratios from rounding up.
        ratio = math.log(16 * self.n) / math.log(self.a**2 / (2 * self.b))
        self.r = math.ceil(ratio - 1e-9)
        # s is sized in log space first: (b/2)^(-r) overflows a float long
        # before the precision parameter looks unreasonable.
        log_pow = -self.r * math.log(self.b / 2)
        if log_pow > _LOG_POW_MAX:
            log10_s = (log_pow - math.log(4)) / math.log(10)
            raise SizeCapError(
                f"precision {self.n} derives a tensor power of s ~ 10^{log10_s:.0f} "
                f"copies (r = {self.r}); no size cap admits it"
            )
        self.s = math.floor((self.b / 2) ** (-self.r) / 4 + 1e-9)
        self.t = (self.n + 2) // 2


def _parity_map(x: float, r: int) -> float:
    return 2.0 * (x / 2.0) ** r


def _stage_certificates(a: float, b: float, r: int, s: int, t: int) -> list[dict]:
    yes = [a, 2.0]
    no = [0.0, b]
    stages = []
    yes = [_parity_map(yes[0], r), _parity_map(yes[1], r)]
    no = [0.0, _parity_map(no[1], r)]
    stages.append(
        {
            "stage": 1,
            "construction": "parity_mix",
            "params": {"r": r},
            "guaranteed_interval_yes": list(yes),
            "guaranteed_interval_no": list(no),
        }
    )
    yes = [2.0 - 2.0 * math.exp(-s * yes[0] ** 2 / 8.0), 2.0]
    no = [0.0, min(s * no[1], 2.0)]
    stages.append(
        {
            "stage": 2,
            "construction": "tensor_power",
            "params": {"k": s},
            "guaranteed_interval_yes": list(yes),
            "guaranteed_interval_no": list(no),
        }
    )
    yes = [_parity_map(yes[0], t), _parity_map(yes[1], t)]
    no = [0.0, _parity_map(no[1], t)]
    stages.append(
        {
            "stage": 3,
            "construction": "parity_mix",
            "params": {"r": t},
            "guaranteed_interval_yes": list(yes),
            "guaranteed_interval_no": list(no),
        }
    )
    return stages


def polarization_certificate(params: PolarizationParams, override=None) -> dict:
    """Bound certificate for the pipeline at the given (possibly overridden) sizes."""
    r, s, t = override if override is not None else (params.r, params.s, params.t)
    stages = _stage_certificates(params.a, params.b, r, s, t)
    return {
        "a": float(params.a),
        "b": float(params.b),
        "n": int(params.n),
        "r": int(r),
        "s": int(s),
        "t": int(t),
        "overridden": override is not None,
        "stages": stages,
        "final_interval_yes": stages[-1]["guaranteed_interval_yes"],
        "final_interval_no": stages[-1]["guaranteed_interval_no"],
    }


def polarize(
    q0: Circuit,
    q1: Circuit,
    params: PolarizationParams,
    override: tuple[int, int, int] | None = None,
) -> tuple[Circuit, Circuit, dict]:
    """Drive the promise gap of (q0, q1) to (2 - 2^-n, 2^-n).

    Pipeline: parity_mix with r, tensor_power with s, parity_mix with t,
    matching the bound formulas stage by stage.  With the derived
    parameters the stage sizes are usually astronomical; the construction
    then refuses with a SizeCapError carrying the certificate (use
    ``override=(r, s, t)`` for desk-scale runs), never silently truncating.
    """
    cert = polarization_certificate(params, override)
    r, s, t = cert["r"], cert["s"], cert["t"]
    if min(r, s, t) < 1:
        raise ConstructionError(f"stage sizes must be >= 1, got {(r, s, t)}")
    try:
        # The end widths of all three stages are refused by arithmetic before
        # any stage is built.  Peak widths inside a stage (its dilations and
        # ancillas) are checked only while that stage is built, so dilate can
        # still refuse stage 3 after stages 1 and 2 are built.
        width = _parity_width(_end_width(q0, q1), r)
        _parity_width(_tensor_width(width, s), t)
        c0, c1 = parity_mix(q0, q1, r)
        c0, c1 = tensor_power(c0, c1, s)
        c0, c1 = parity_mix(c0, c1, t)
    except SizeCapError as exc:
        err = SizeCapError(
            f"polarization with (r, s, t) = {(r, s, t)} exceeds the size cap: {exc}; "
            "pass an explicit override for desk-scale experiments"
        )
        err.certificate = cert
        raise err from exc
    return (
        Circuit("s0", c0.n_in, c0.gates),
        Circuit("s1", c1.n_in, c1.gates),
        cert,
    )
