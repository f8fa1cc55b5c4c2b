"""Mixed-state quantum circuit IR: data model, text format, validation.

A circuit is an ordered gate list over live wires.  Wires are numbered by
liveness order: an ``ancilla`` gate appends a fresh |0> wire at the highest
index, a ``trace`` gate removes its wire and shifts higher indices down by
one, and ``decohere`` applies the single-qubit channel
D(s) = |0><0|s|0><0| + |1><1|s|1><1| in place.  Unitary gates carry exact
explicit matrices of arity <= 3; the named gates H, X, Z, T, CNOT, CZ are
parser sugar for hard-coded matrices.

Text format (one construct per line, '#' starts a comment):

    circuit <name> inputs <n>
    gate <H|X|Z|T|CNOT|CZ> <wire...>
    unitary <arity> <wire...> <4^arity entries as re,im pairs, row-major>
    ancilla
    trace <wire>
    decohere <wire>
    end

The parser scans the lines once for structure and reads the numbers of all
``unitary`` lines in one pass: one float64 array, of which every matrix is
a view, checked for finiteness once and for unitarity once per arity by one
batched product.  It raises the first error in file order, with its line.

Instances pair two circuits of equal type with promise constants, and are
stored as JSON: {"q0": <text>, "q1": <text>, "kind": "CI"|"QCD", "a": .., "b": ..}.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import chain, groupby, repeat
from operator import contains, itemgetter

import numpy as np

from .linalg import SizeCapError, as_matrix, check_wires
from .jsonutil import format_floats

TOL_UNITARY = 1e-9
UNITARY_ARITY_CAP = 3

_SQ2 = 1.0 / math.sqrt(2.0)

STANDARD_GATES: dict[str, np.ndarray] = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "T": np.array([[1, 0], [0, complex(_SQ2, _SQ2)]], dtype=np.complex128),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        dtype=np.complex128,
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(np.complex128),
}

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    dtype=np.complex128,
)


class CircuitError(ValueError):
    """Base class for circuit IR failures; ``line`` is the source line, if any."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CircuitParseError(CircuitError):
    """Syntax or structural failure while parsing circuit text."""


class LivenessError(CircuitError):
    """A gate referenced a wire that is not live at that point."""

    def __init__(self, message: str, wire: int | None = None, line: int | None = None):
        self.wire = wire
        super().__init__(message, line)


class UnitarityError(CircuitError):
    """A unitary gate's matrix fails U^dagger U = I within tolerance."""


@dataclass(frozen=True, eq=False)
class Gate:
    """One circuit construct.

    kind is one of "unitary", "ancilla", "trace", "decohere".  Only
    unitary gates carry a matrix; ``label`` remembers named-gate sugar so
    serialization can round-trip the readable form.
    """

    kind: str
    wires: tuple[int, ...] = ()
    matrix: np.ndarray | None = None
    label: str | None = None

    @property
    def arity(self) -> int:
        return len(self.wires)


def unitary_gate(matrix, wires, label: str | None = None) -> Gate:
    """Exact unitary gate on ``wires`` (first listed wire is most significant)."""
    m = as_matrix(matrix)
    wires = tuple(int(w) for w in wires)
    a = len(wires)
    if a < 1 or a > UNITARY_ARITY_CAP:
        raise CircuitError(f"unitary arity {a} outside 1..{UNITARY_ARITY_CAP}")
    if m.shape != (2**a, 2**a):
        raise CircuitError(f"unitary on {a} wires must be {2**a}x{2**a}, got {m.shape}")
    if len(set(wires)) != a:
        raise CircuitError(f"unitary wires must be distinct, got {wires}")
    defect = unitarity_defect(m)
    if defect > TOL_UNITARY:
        raise UnitarityError(f"matrix is not unitary: defect {defect:.3e}")
    return Gate("unitary", wires, m, label)


def named_gate(name: str, wires) -> Gate:
    if name not in STANDARD_GATES:
        raise CircuitError(f"unknown standard gate {name!r}")
    return unitary_gate(STANDARD_GATES[name], wires, label=name)


def ancilla_gate() -> Gate:
    return Gate("ancilla")


def trace_gate(wire: int) -> Gate:
    return Gate("trace", (int(wire),))


def decohere_gate(wire: int) -> Gate:
    return Gate("decohere", (int(wire),))


def unitarity_defect(m: np.ndarray):
    """Frobenius norm of U^dagger U - I, for a matrix or for each of a stack.

    ``m`` has shape (..., d, d); the result has shape ``m.shape[:-2]`` (a
    scalar for one matrix).  One batched product serves the whole stack,
    and a matrix's defect does not depend on the stack it is in.
    """
    side = m.shape[-1]
    d = np.swapaxes(m, -1, -2).conj() @ m
    flat = d.reshape(-1, side * side)
    flat[:, :: side + 1] -= 1.0
    return np.sqrt((flat.real**2 + flat.imag**2).sum(axis=1)).reshape(m.shape[:-2])[()]


@dataclass(eq=False)
class Circuit:
    """A named gate sequence on ``n_in`` input wires."""

    name: str
    n_in: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        self.gates = tuple(self.gates)
        if self.n_in < 0:
            raise CircuitError(f"n_in must be nonnegative, got {self.n_in}")

    @property
    def n_out(self) -> int:
        """Output wire count; raises LivenessError if the gate list is invalid."""
        return replay_liveness(self)[-1]


def replay_liveness(c: Circuit, lines: list[int] | None = None) -> list[int]:
    """Walk the gate list tracking the live wire count.

    Returns the live count after each gate (ending with n_out), raising
    LivenessError on the first out-of-range wire reference.  ``lines``
    optionally maps gate index -> source line for error messages.
    """
    live = c.n_in
    counts = [live]
    check_wires(live, "input wires")
    for idx, g in enumerate(c.gates):
        line = lines[idx] if lines is not None else None
        where = f"gate {idx + 1}" if line is None else "gate"
        for w in g.wires:
            if w < 0 or w >= live:
                raise LivenessError(
                    f"{where} references wire {w} but only wires 0..{live - 1} are live",
                    wire=w,
                    line=line,
                )
        if g.kind == "ancilla":
            live += 1
            check_wires(live)
        elif g.kind == "trace":
            live -= 1
        counts.append(live)
    return counts


class _WireTracker:
    """Live-wire bookkeeping for compositions and rewrites of circuits.

    Handles are stable names for wires; ``order`` lists them by live index,
    so an ancilla appends at the top and a trace shifts the higher indices
    down, the IR's liveness rules.  Each ancilla is checked against the
    cap before its gate is emitted: this is the composition's own liveness
    walk, since nothing computes its peak width by arithmetic.
    """

    def __init__(self, handles):
        self.order = list(handles)
        check_wires(len(self.order), "input wires")
        self.gates: list[Gate] = []

    def ancilla(self, handle) -> None:
        check_wires(len(self.order) + 1)
        self.gates.append(ancilla_gate())
        self.order.append(handle)

    def named(self, name, handles) -> None:
        self.gates.append(named_gate(name, tuple(self.order.index(h) for h in handles)))

    def gate(self, g: Gate, handles) -> None:
        """Emit the unitary or decohere ``g`` on the wires that hold ``handles``."""
        wires = tuple([self.order.index(h) for h in handles])
        self.gates.append(g if wires == g.wires else Gate(g.kind, wires, g.matrix, g.label))

    def trace(self, handle) -> None:
        idx = self.order.index(handle)
        del self.order[idx]
        self.gates.append(trace_gate(idx))

    def append(self, c: Circuit, handles, tag) -> list:
        """Replay ``c`` with its input wires on ``handles``; return its output handles.

        The ancilla at gate idx of ``c`` gets the handle (tag, idx).
        """
        wires = list(handles)  # c's live wires, by c's own index
        for idx, g in enumerate(c.gates):
            if g.kind == "ancilla":
                wires.append((tag, idx))
                self.ancilla(wires[-1])
            elif g.kind == "trace":
                self.trace(wires.pop(g.wires[0]))
            elif g.kind in ("unitary", "decohere"):
                self.gate(g, [wires[w] for w in g.wires])
            else:
                raise CircuitError(f"unknown gate kind {g.kind!r}")
        return wires

    def route_outputs(self, outputs) -> None:
        """Emit SWAPs so the listed handles end at wires 0, 1, 2, ..."""
        outputs = list(outputs)
        if len(outputs) != len(self.order):
            raise ValueError("output order must cover every live wire")
        for target, handle in enumerate(outputs):
            cur = self.order.index(handle)
            if cur == target:
                continue
            self.gates.append(Gate("unitary", (target, cur), SWAP))
            self.order[target], self.order[cur] = handle, self.order[target]


def schedule(c: Circuit) -> Circuit:
    """The same channel with the same output order, never wider than ``c``.

    Every wire is named by a handle (input i is i, the ancilla of gate idx
    is n_in + idx), and the gates are re-emitted in the narrowest order the
    liveness rules allow.  The rewrites are exact:

    * a decohere is dropped when its wire is already diagonal, i.e. the
      last event on it was an ancilla or a decohere;
    * a unitary or decohere is dropped when every wire it touches is traced
      next, since the partial trace over a gate's wires forgets the gate;
      walking backwards, this cascades, and an ancilla traced before any
      use is dropped together with its trace;
    * each ancilla moves to just before the first gate that uses its wire
      (an unused one to the end), and each trace to just after the last
      gate that uses its wire (an unused input is traced first);
    * SWAPs route the outputs back into ``c``'s order.

    A wire is live here only where it is live in ``c``, so no step is wider
    than ``c`` at the same gate.  ``c``'s wires must pass
    :func:`replay_liveness`; the callers check them, and the caps, on
    ``c`` as written.
    """
    live = list(range(c.n_in))  # handles by c's live index
    steps: list[tuple[Gate, tuple]] = []
    diagonal = set()
    for idx, g in enumerate(c.gates):
        kind = g.kind
        if kind == "ancilla":
            live.append(c.n_in + idx)
            diagonal.add(live[-1])
            steps.append((g, (live[-1],)))
            continue
        handles = tuple([live[w] for w in g.wires])
        if kind == "trace":
            del live[g.wires[0]]
        elif kind == "decohere":
            if handles[0] in diagonal:
                continue
            diagonal.add(handles[0])
        elif kind == "unitary":
            diagonal.difference_update(handles)
        else:
            raise CircuitError(f"unknown gate kind {kind!r}")
        steps.append((g, handles))

    # backwards: a handle in traced_next has a trace as its next kept event
    ops: list[tuple[Gate, tuple, list]] = []  # kept gates, what is traced after each
    traced_next, used, unused = set(), set(), []
    for g, handles in reversed(steps):
        kind = g.kind
        if kind == "trace":
            traced_next.add(handles[0])
        elif kind == "ancilla":
            if handles[0] not in traced_next and handles[0] not in used:
                unused.append(handles[0])
        elif not traced_next.issuperset(handles):
            ops.append((g, handles, [h for h in handles if h in traced_next]))
            traced_next.difference_update(handles)
            used.update(handles)

    tracker = _WireTracker(range(c.n_in))
    for h in range(c.n_in):
        if h in traced_next:
            tracker.trace(h)
    pending = used.difference(range(c.n_in))
    for g, handles, closing in reversed(ops):
        if not pending.isdisjoint(handles):
            for h in sorted(pending.intersection(handles)):
                tracker.ancilla(h)
                pending.discard(h)
        tracker.gate(g, handles)
        for h in closing:
            tracker.trace(h)
    for h in sorted(unused):
        tracker.ancilla(h)
    tracker.route_outputs(live)
    return Circuit(c.name, c.n_in, tuple(tracker.gates))


def validate(c: Circuit) -> list[str]:
    """Structural validation report; empty iff the circuit is valid.

    Checks gate shapes and wire distinctness gate by gate, unitarity by
    one :func:`unitarity_defect` per arity over the stacked matrices, then
    liveness and the dimension cap through :func:`replay_liveness`.  The
    report lists each gate's findings in gate order.  Never raises;
    admissibility of the realized channel is checked downstream via the
    Choi matrix.
    """
    report: list[str | None] = []
    if c.n_in < 0:
        report.append(f"n_in is negative: {c.n_in}")
        return report
    stacks: dict[int, list[tuple[int, str, np.ndarray]]] = {}  # arity -> (slot, tag, matrix)
    for idx, g in enumerate(c.gates):
        tag = f"gate {idx + 1} ({g.kind})"
        if g.kind == "unitary":
            a = g.arity
            if a < 1 or a > UNITARY_ARITY_CAP:
                report.append(f"{tag}: arity {a} outside 1..{UNITARY_ARITY_CAP}")
                continue
            if g.matrix is None or g.matrix.shape != (2**a, 2**a):
                report.append(f"{tag}: matrix shape does not match arity {a}")
                continue
            if len(set(g.wires)) != a:
                report.append(f"{tag}: wires {g.wires} are not distinct")
            stacks.setdefault(a, []).append((len(report), tag, g.matrix))
            report.append(None)  # the slot of its unitarity finding, if any
        elif g.kind == "ancilla":
            if g.wires:
                report.append(f"{tag}: ancilla takes no wires, got {g.wires}")
        elif g.kind in ("trace", "decohere"):
            if len(g.wires) != 1:
                report.append(f"{tag}: takes exactly one wire, got {g.wires}")
        else:
            report.append(f"{tag}: unknown gate kind {g.kind!r}")
    for entries in stacks.values():
        defects = unitarity_defect(np.stack([m for _, _, m in entries])).tolist()
        for (slot, tag, _), defect in zip(entries, defects):
            if defect > TOL_UNITARY:
                report[slot] = f"{tag}: unitarity defect {defect:.3e} > {TOL_UNITARY:.1e}"
    report = [r for r in report if r is not None]
    try:
        replay_liveness(c)
    except (LivenessError, SizeCapError) as exc:
        report.append(str(exc))
    return report


def parse_circuit(text: str) -> Circuit:
    """Parse the line-based circuit format; errors carry line numbers.

    One scan over the lines reads the structure and sets the entry tokens
    of each ``unitary`` line aside.  :func:`_read_unitaries` then reads
    the numbers of all of them in one pass, checks finiteness once and
    unitarity once per arity, on the stacked matrices.  The error raised
    is the first one in file order, so a non-unitary gate on line 5 wins
    over a syntax error on line 9.
    """
    header: tuple[str, int] | None = None
    gates: list[Gate | None] = []  # None marks a unitary line until it is read
    lines: list[int] = []
    unitaries: list[tuple] = []  # (gate index, line, arity, wires, entry tokens)
    ended = False
    failure: CircuitError | None = None
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].strip()
            if not stripped:
                continue
            if ended:
                raise CircuitParseError("content after 'end'", lineno)
            tokens = stripped.split()
            if header is None:
                header = _parse_header(tokens, lineno)
                continue
            if tokens[0] == "end":
                if len(tokens) != 1:
                    raise CircuitParseError("unexpected tokens after 'end'", lineno)
                ended = True
                continue
            if tokens[0] == "unitary":
                unitaries.append((len(gates), lineno, *_unitary_line(tokens, lineno)))
                gates.append(None)
            else:
                gates.append(_parse_gate_line(tokens, lineno))
            lines.append(lineno)
    except CircuitError as exc:
        failure = exc  # the unitary lines set aside all come before it
    _read_unitaries(gates, unitaries)
    if failure is not None:
        raise failure
    if header is None:
        raise CircuitParseError("empty circuit text", None)
    if not ended:
        raise CircuitParseError("missing 'end'", None)
    c = Circuit(header[0], header[1], tuple(gates))
    replay_liveness(c, lines=lines)
    return c


def _ints(tokens: list[str], lineno: int) -> tuple[int, ...]:
    try:
        return tuple([int(t) for t in tokens])
    except ValueError as exc:
        raise CircuitParseError(str(exc), lineno) from None


def _parse_header(tokens: list[str], lineno: int) -> tuple[str, int]:
    if len(tokens) != 4 or tokens[0] != "circuit" or tokens[2] != "inputs":
        raise CircuitParseError("expected 'circuit <name> inputs <n>'", lineno)
    try:
        n_in = int(tokens[3])
    except ValueError:
        raise CircuitParseError(f"bad input count {tokens[3]!r}", lineno) from None
    if n_in < 0:
        raise CircuitParseError(f"negative input count {n_in}", lineno)
    return tokens[1], n_in


def _parse_gate_line(tokens: list[str], lineno: int) -> Gate:
    """Any construct but ``unitary``, which :func:`_unitary_line` takes."""
    op = tokens[0]
    if op == "gate":
        if len(tokens) < 3:
            raise CircuitParseError("expected 'gate <name> <wire...>'", lineno)
        name = tokens[1]
        if name not in STANDARD_GATES:
            raise CircuitParseError(f"unknown standard gate {name!r}", lineno)
        wires = _ints(tokens[2:], lineno)
        try:
            return named_gate(name, wires)
        except CircuitError as exc:
            raise CircuitParseError(str(exc), lineno) from None
    if op == "ancilla":
        if len(tokens) != 1:
            raise CircuitParseError("'ancilla' takes no arguments", lineno)
        return ancilla_gate()
    if op in ("trace", "decohere"):
        if len(tokens) != 2:
            raise CircuitParseError(f"expected '{op} <wire>'", lineno)
        return Gate(op, _ints(tokens[1:], lineno))
    raise CircuitParseError(f"unknown construct {op!r}", lineno)


def _unitary_line(tokens: list[str], lineno: int) -> tuple[int, tuple[int, ...], list[str]]:
    """Arity, wires and entry tokens of a ``unitary`` line; the entries are read later."""
    if len(tokens) < 2:
        raise CircuitParseError("expected 'unitary <arity> <wire...> <entries>'", lineno)
    (arity,) = _ints(tokens[1:2], lineno)
    if arity < 1 or arity > UNITARY_ARITY_CAP:
        raise CircuitParseError(f"unitary arity {arity} outside 1..{UNITARY_ARITY_CAP}", lineno)
    wires = _ints(tokens[2 : 2 + arity], lineno)
    if len(wires) != arity:
        raise CircuitParseError("fewer wires than arity", lineno)
    entries = tokens[2 + arity :]
    if len(entries) != 4**arity:
        raise CircuitParseError(f"expected {4**arity} matrix entries, got {len(entries)}", lineno)
    return arity, wires, entries


def _read_unitaries(gates: list, unitaries: list[tuple]) -> None:
    """Make the set-aside ``unitary`` lines gates, or raise the first failing line's error.

    All entry tokens, ordered by arity, are split at their commas and
    converted by one ``map(float, ...)`` into one float64 array.  Its
    complex view holds each arity's matrices as one stack, and each
    gate's matrix is a view of it.  Finiteness is checked once over the
    array and unitarity once per stack.  A line fails on its first bad
    entry, else on a non-finite entry, else on repeated wires, else on its
    unitarity defect.  A bad or non-finite entry spoils the array: the
    lines before the first such line are read again without it.
    """
    if not unitaries:
        return
    ordered = sorted(unitaries, key=itemgetter(2))  # stable: file order within an arity
    tokens = list(chain.from_iterable([u[4] for u in ordered]))
    numbers = ",".join(tokens).split(",")  # re, im, re, im, ... if each has one comma
    spoiled = len(numbers) != 2 * len(tokens) or not all(map(contains, tokens, repeat(",")))
    if not spoiled:
        try:
            values = np.frombuffer(array("d", map(float, numbers)))
            spoiled = not np.isfinite(values).all()
        except ValueError:
            spoiled = True
    if spoiled:
        at, message = next(
            (i, msg) for i, u in enumerate(unitaries) if (msg := _entry_error(u[4])) is not None
        )
        _read_unitaries(gates, unitaries[:at])
        raise CircuitParseError(message, unitaries[at][1])

    matrices, start, failed = values.view(np.complex128), 0, []
    for arity, group in groupby(ordered, key=itemgetter(2)):
        group = list(group)
        side = 2**arity
        stack = matrices[start : start + len(group) * side * side].reshape(-1, side, side)
        start += stack.size
        for u, m, defect in zip(group, stack, unitarity_defect(stack).tolist()):
            gates[u[0]] = Gate("unitary", u[3], m)
            if len(set(u[3])) != arity or defect > TOL_UNITARY:
                failed.append((u[1], u[3], defect))
    if failed:
        lineno, wires, defect = min(failed)
        if len(set(wires)) != len(wires):
            raise CircuitParseError(f"unitary wires must be distinct, got {wires}", lineno)
        raise UnitarityError(f"matrix is not unitary: defect {defect:.3e}", lineno)


def _entry_error(tokens: list[str]) -> str | None:
    """Why the entry tokens of one line do not make a finite matrix, or None."""
    values = []
    for tok in tokens:
        re_s, sep, im_s = tok.partition(",")
        if not sep:
            return f"bad complex entry {tok!r}"
        try:
            values += [float(re_s), float(im_s)]
        except ValueError as exc:
            return str(exc)
    if not all(map(math.isfinite, values)):
        return "matrix contains non-finite entries"
    return None


def serialize_circuit(c: Circuit) -> str:
    """Emit circuit text; parse(serialize(c)) is structurally equal to c.

    Unitary entries print with 17 significant digits, which round-trips
    doubles exactly.
    """
    if not c.name or any(ch.isspace() for ch in c.name):
        raise CircuitError(f"circuit name {c.name!r} is not a single token")
    out = [f"circuit {c.name} inputs {c.n_in}"]
    for g in c.gates:
        if g.kind == "unitary":
            if g.label is not None and g.label in STANDARD_GATES:
                out.append(f"gate {g.label} {' '.join(map(str, g.wires))}")
            else:
                parts = np.ascontiguousarray(g.matrix, dtype=np.complex128).view(np.float64)
                entries = format_floats(parts.reshape(-1).tolist(), "%.17g,%.17g", " ")
                out.append(
                    f"unitary {g.arity} {' '.join(map(str, g.wires))} {entries}"
                )
        elif g.kind == "ancilla":
            out.append("ancilla")
        elif g.kind == "trace":
            out.append(f"trace {g.wires[0]}")
        elif g.kind == "decohere":
            out.append(f"decohere {g.wires[0]}")
        else:
            raise CircuitError(f"unknown gate kind {g.kind!r}")
    out.append("end")
    return "\n".join(out) + "\n"


def circuits_equal(a: Circuit, b: Circuit) -> bool:
    """Structural equality: name, inputs, and every gate (matrices exactly)."""
    if a.name != b.name or a.n_in != b.n_in or len(a.gates) != len(b.gates):
        return False
    for ga, gb in zip(a.gates, b.gates):
        if ga.kind != gb.kind or ga.wires != gb.wires:
            return False
        if ga.kind == "unitary" and not np.array_equal(ga.matrix, gb.matrix):
            return False
    return True


@dataclass(eq=False)
class ProblemInstance:
    """A Close Images or circuit-distinguishability instance.

    Both circuits must be of the same type (n, m).  Promise constants obey
    0 <= b < a <= 1 for kind "CI" and 0 <= b < a <= 2 for kind "QCD".
    """

    q0: Circuit
    q1: Circuit
    kind: str
    a: float
    b: float

    def __post_init__(self):
        if self.kind not in ("CI", "QCD"):
            raise ValueError(f"instance kind must be 'CI' or 'QCD', got {self.kind!r}")
        t0 = (self.q0.n_in, self.q0.n_out)
        t1 = (self.q1.n_in, self.q1.n_out)
        if t0 != t1:
            raise ValueError(f"circuits disagree on type: {t0} vs {t1}")
        hi = 1.0 if self.kind == "CI" else 2.0
        if not (0.0 <= self.b < self.a <= hi):
            raise ValueError(
                f"promise constants must satisfy 0 <= b < a <= {hi}, "
                f"got a={self.a}, b={self.b}"
            )


def instance_to_json(inst: ProblemInstance) -> dict:
    return {
        "q0": serialize_circuit(inst.q0),
        "q1": serialize_circuit(inst.q1),
        "kind": inst.kind,
        "a": float(inst.a),
        "b": float(inst.b),
    }


def instance_from_json(obj: dict) -> ProblemInstance:
    if not isinstance(obj, dict):
        raise ValueError(f"instance JSON must be an object, got {type(obj).__name__}")
    try:
        texts = [obj["q0"], obj["q1"]]
        kind = obj["kind"]
        a = float(obj["a"])
        b = float(obj["b"])
    except KeyError as exc:
        raise ValueError(f"instance JSON missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"instance JSON promise constants must be numbers: {exc}") from exc
    for key, text in zip(("q0", "q1"), texts):
        if not isinstance(text, str):
            raise ValueError(
                f"instance JSON field {key!r} must be circuit text, got {type(text).__name__}"
            )
    q0, q1 = (parse_circuit(text) for text in texts)
    return ProblemInstance(q0, q1, kind, a, b)
