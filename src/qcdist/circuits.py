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

Each check has one place: :class:`Gate` decides a gate's form, and
:class:`Circuit` its wires' liveness and the cap, in one walk when it is
built, whose step the parser also takes line by line (``_live_after``)
to keep its errors in file order; :func:`unitary_gate`, the parser and
:func:`validate` check unitarity, the last two batched over many gates;
the ``STANDARD_GATES`` table, its test.

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
from typing import NamedTuple

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
    """Gate ``gate`` (an index into the gate list) referenced ``wire`` while
    only ``live`` wires were live."""

    def __init__(self, gate: int, wire: int, live: int, line: int | None = None):
        self.gate, self.wire, self.live = gate, wire, live
        where = f"gate {gate + 1}" if line is None else "gate"
        super().__init__(f"{where} references wire {wire} but only wires 0..{live - 1} are live",
                         line)


class UnitarityError(CircuitError):
    """A unitary gate's matrix fails U^dagger U = I within tolerance."""


@dataclass(frozen=True, eq=False)
class Gate:
    """One circuit construct; the one place where a gate's form is checked.

    kind is "unitary", "ancilla", "trace" or "decohere".  An ancilla takes
    no wires, a trace or decohere one; a unitary, the only kind with a
    matrix, takes 1..UNITARY_ARITY_CAP distinct wires and a (2^a, 2^a) one.
    ``label`` is None or names the ``STANDARD_GATES`` matrix held, so
    serialization can round-trip the readable form.  Unitarity is left to
    :func:`unitary_gate`, the parser and :func:`validate`, and whether the
    wires are live to the :class:`Circuit` that holds the gate.
    """

    kind: str
    wires: tuple[int, ...] = ()
    matrix: np.ndarray | None = None
    label: str | None = None

    def __post_init__(self):
        kind, wires, m = self.kind, self.wires, self.matrix
        if kind == "unitary":
            a = len(wires)
            if a < 1 or a > UNITARY_ARITY_CAP:
                raise CircuitError(f"unitary arity {a} outside 1..{UNITARY_ARITY_CAP}")
            shape = getattr(m, "shape", None)
            if shape != (2**a, 2**a):
                raise CircuitError(f"unitary on {a} wires must be {2**a}x{2**a}, got {shape}")
            if len(set(wires)) != a:
                raise CircuitError(f"unitary wires must be distinct, got {wires}")
        elif kind not in ("ancilla", "trace", "decohere"):
            raise CircuitError(f"unknown gate kind {kind!r}")
        elif m is not None:
            raise CircuitError(f"{kind} carries no matrix")
        elif kind == "ancilla":
            if wires:
                raise CircuitError(f"ancilla takes no wires, got {wires}")
        elif len(wires) != 1:
            raise CircuitError(f"{kind} takes exactly one wire, got {wires}")
        if self.label is not None:
            named = STANDARD_GATES.get(self.label)
            if named is None or not (m is named or np.array_equal(m, named)):
                raise CircuitError(f"label {self.label!r} does not name the gate's matrix")

    @property
    def arity(self) -> int:
        return len(self.wires)


def unitary_gate(matrix, wires) -> Gate:
    """Exact unitary gate on ``wires`` (first listed wire is most significant);
    :class:`Gate` checks its form, this the matrix's finiteness and unitarity."""
    m = as_matrix(matrix)
    gate = Gate("unitary", tuple(int(w) for w in wires), m)
    defect = unitarity_defect(m)
    if not defect <= TOL_UNITARY:
        raise UnitarityError(f"matrix is not unitary: defect {defect:.3e}")
    return gate


def named_gate(name: str, wires) -> Gate:
    """Gate ``name`` of ``STANDARD_GATES``, whose unitarity is the table's test."""
    if name not in STANDARD_GATES:
        raise CircuitError(f"unknown standard gate {name!r}")
    return Gate("unitary", tuple(int(w) for w in wires), STANDARD_GATES[name], name)


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
    and a matrix's defect does not depend on the stack it is in.  A product
    that overflows gives an infinite or ``nan`` defect, without a warning;
    callers test ``not defect <= TOL_UNITARY``, which refuses both.
    """
    side = m.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.swapaxes(m, -1, -2).conj() @ m
        flat = d.reshape(-1, side * side)
        flat[:, :: side + 1] -= 1.0
        return np.sqrt((flat.real**2 + flat.imag**2).sum(axis=1)).reshape(m.shape[:-2])[()]


@dataclass(frozen=True, eq=False)
class Circuit:
    """A named gate sequence on ``n_in`` input wires, valid by construction.

    Building one walks the gate list once, tracking the live wire count: a
    wire out of range raises LivenessError, and the inputs or an ancilla
    past the cap raise SizeCapError.  The walk keeps ``n_out``, the live
    count after the last gate, and ``width``, the largest live count.
    """

    name: str
    n_in: int
    gates: tuple[Gate, ...] = ()
    n_out: int = field(init=False)
    width: int = field(init=False)

    def __post_init__(self):
        gates = tuple(self.gates)
        if self.n_in < 0:
            raise CircuitError(f"n_in must be nonnegative, got {self.n_in}")
        live = width = self.n_in
        check_wires(live, "input wires")
        for idx, g in enumerate(gates):
            live = _live_after(g.kind, g.wires, live, idx)
            if live > width:
                width = live
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "n_out", live)
        object.__setattr__(self, "width", width)


def _live_after(kind: str, wires, live: int, idx: int, line: int | None = None) -> int:
    """The live count after gate ``idx``, of ``kind`` on ``wires``, with ``live``
    wires live before it: LivenessError at its first wire out of range, and
    SizeCapError where an ancilla takes the count past the cap."""
    for w in wires:
        if w < 0 or w >= live:
            raise LivenessError(idx, w, live, line)
    if kind == "ancilla":
        check_wires(live + 1)
        return live + 1
    return live - 1 if kind == "trace" else live


class _WireTracker:
    """Live-wire bookkeeping for compositions and rewrites of circuits.

    Handles are stable names for wires; ``order`` lists them by live index,
    so an ancilla appends at the top and a trace shifts the higher indices
    down, the IR's liveness rules.  The cap is checked by the
    :class:`Circuit` built from ``gates``, whose walk refuses the first
    ancilla past it.
    """

    def __init__(self, handles):
        self.order = list(handles)
        self.gates: list[Gate] = []

    def ancilla(self, handle) -> None:
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
            else:
                self.gate(g, [wires[w] for w in g.wires])
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
    than ``c`` at the same gate, and ``c`` passed the liveness and cap walk
    when it was built.  This is the one-tracker emission of the passes that
    :func:`schedule_groups` also splits.
    """
    return _emit(c, _passes(c), split=False)[0].circuit


class WireGroup(NamedTuple):
    """One independent wire group of a circuit, scheduled on its own wires.

    ``circuit`` takes the group's inputs in ``inputs`` order, ``c``'s input
    wires; its output wire k is ``c``'s output wire ``outputs[k]``.
    """

    circuit: Circuit
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]


def schedule_groups(c: Circuit) -> tuple[list[WireGroup], tuple[int, ...]]:
    """``c``'s channel as a tensor product: its wire groups and discarded inputs.

    Every handle starts in its own group, and a gate that :func:`schedule`
    keeps joins the groups of the handles it touches; nothing else couples
    two wires.  Inputs traced before any kept gate are returned apart, as
    the discarded factor: the channel there is the trace, whose Choi matrix
    is I.  Every other group has an output, since a group whose wires are
    all traced keeps no gate.  Each group is emitted through its own
    ``_WireTracker`` in :func:`schedule`'s order, with no SWAPs, which would
    join groups: its outputs stay in its own order, and ``outputs`` maps
    them to ``c``'s.  A circuit of one group with every input (or none) is
    returned as ``[WireGroup(schedule(c), all inputs, all outputs)]``.
    """
    plan = _passes(c)
    live, _, traced, _, _, parent = plan
    discarded = tuple([h for h in range(c.n_in) if h in traced])
    if discarded or len({_root(parent, h) for h in live}) > 1:
        return _emit(c, plan, split=True), discarded
    return _emit(c, plan, split=False), ()


def _root(parent: list, h: int) -> int:
    """The group of handle ``h``: follow ``parent`` to a handle that is its own."""
    while parent[h] != h:
        h = parent[h]
    return h


def _passes(c: Circuit) -> tuple:
    """:func:`schedule`'s forward and backward passes over ``c``.

    Returns the output handles in ``c``'s order, the kept gates with the
    handles they touch and the handles traced right after each (last gate
    first), the handles whose first kept event is a trace, the ancillas that
    a kept gate uses, those that none does, and the group forest: ``parent``
    links the handles that kept gates join (:func:`_root`).
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
        else:
            diagonal.difference_update(handles)
        steps.append((g, handles))

    # backwards: a handle in traced_next has a trace as its next kept event
    ops: list[tuple[Gate, tuple, list]] = []  # kept gates, what is traced after each
    traced_next, used, unused = set(), set(), []
    parent = list(range(c.n_in + len(c.gates)))  # by handle; a root is its own parent
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
            if len(handles) > 1:  # a kept gate joins the groups of its wires (roots inline)
                top = handles[0]
                while parent[top] != top:
                    top = parent[top]
                for h in handles[1:]:
                    while parent[h] != h:
                        h = parent[h]
                    parent[h] = top
    return live, ops, traced_next, used, unused, parent


def _emit(c: Circuit, plan: tuple, split: bool) -> list[WireGroup]:
    """Emit ``plan`` (:func:`_passes`) through one tracker, or one per group.

    With one tracker, the inputs traced first are traced before the first
    gate and SWAPs route the outputs into ``c``'s order; split, the
    discarded inputs are in no group and each group keeps its own order.
    """
    live, ops, traced, used, unused, parent = plan
    if split:
        inputs: dict = {}  # group -> its inputs
        for h in range(c.n_in):
            if h not in traced:
                inputs.setdefault(_root(parent, h), []).append(h)
        trackers = {k: _WireTracker(hs) for k, hs in inputs.items()}
        one = None
    else:
        one = _WireTracker(range(c.n_in))
        for h in range(c.n_in):
            if h in traced:
                one.trace(h)

    def tracker(h):
        k = _root(parent, h)
        if k not in trackers:  # a group with no inputs
            trackers[k] = _WireTracker(())
        return trackers[k]

    pending = used.difference(range(c.n_in))
    for g, handles, closing in reversed(ops):
        t = one or tracker(handles[0])
        if not pending.isdisjoint(handles):
            for h in sorted(pending.intersection(handles)):
                t.ancilla(h)
                pending.discard(h)
        t.gate(g, handles)
        for h in closing:
            t.trace(h)
    for h in sorted(unused):
        (one or tracker(h)).ancilla(h)
    if not split:
        one.route_outputs(live)
        return [WireGroup(Circuit(c.name, c.n_in, tuple(one.gates)),
                          tuple(range(c.n_in)), tuple(range(len(live))))]
    at = {h: p for p, h in enumerate(live)}
    groups = []
    for k, t in trackers.items():
        hs = tuple(inputs.get(k, ()))
        groups.append(WireGroup(Circuit(c.name, len(hs), tuple(t.gates)), hs,
                                tuple([at[h] for h in t.order])))
    return groups


def validate(c: Circuit) -> list[str]:
    """Unitarity report; empty iff every unitary gate of ``c`` is unitary.

    Every :class:`Gate` has a valid form and every :class:`Circuit` live
    wires within the cap by construction, so what is left is unitarity, by
    one :func:`unitarity_defect` per arity over the stacked matrices.  The
    report lists the findings in gate order.  Never raises; admissibility
    of the realized channel is checked downstream via the Choi matrix.
    """
    stacks: dict[int, list[tuple[int, np.ndarray]]] = {}  # arity -> (gate index, matrix)
    for idx, g in enumerate(c.gates):
        if g.kind == "unitary":
            stacks.setdefault(g.arity, []).append((idx, g.matrix))
    findings = []
    for entries in stacks.values():
        defects = unitarity_defect(np.stack([m for _, m in entries])).tolist()
        findings += [(idx, d) for (idx, _), d in zip(entries, defects) if not d <= TOL_UNITARY]
    return [
        f"gate {idx + 1} (unitary): unitarity defect {d:.3e} > {TOL_UNITARY:.1e}"
        for idx, d in sorted(findings)
    ]


def parse_circuit(text: str) -> Circuit:
    """Parse the line-based circuit format; errors carry line numbers.

    One scan over the lines reads the structure and sets the entry tokens
    of each ``unitary`` line aside.  :func:`_read_unitaries` then reads
    the numbers of all of them in one pass, checks finiteness once and
    unitarity once per arity, on the stacked matrices.  The scan walks the
    live wire count as it goes (``_live_after``, as :class:`Circuit` does),
    so a dead wire or an ancilla past the cap fails on its own line.  The
    error raised is the first one in file order, so a non-unitary gate on
    line 5 wins over a syntax error on line 9, and a dead wire on line 2
    over both.  Within one ``unitary`` line its entries, form and
    unitarity come before its wires' liveness.
    """
    header: tuple[str, int] | None = None
    gates: list[Gate | None] = []  # None marks a unitary line until it is read
    unitaries: list[tuple] = []  # (gate index, line, arity, wires, entry tokens)
    ended = False
    failure: CircuitError | SizeCapError | None = None
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
                live = header[1]
                check_wires(live, "input wires")
                continue
            if tokens[0] == "end":
                if len(tokens) != 1:
                    raise CircuitParseError("unexpected tokens after 'end'", lineno)
                ended = True
                continue
            if tokens[0] == "unitary":
                arity, wires, entries = _unitary_line(tokens, lineno)
                unitaries.append((len(gates), lineno, arity, wires, entries))
                gates.append(None)
                kind = "unitary"
            else:
                gates.append(_parse_gate_line(tokens, lineno))
                kind, wires = gates[-1].kind, gates[-1].wires
            live = _live_after(kind, wires, live, len(gates) - 1, lineno)
    except (CircuitError, SizeCapError) as exc:
        failure = exc  # the unitary lines set aside all come before it, or on its line
    _read_unitaries(gates, unitaries)
    if failure is not None:
        raise failure
    if header is None:
        raise CircuitParseError("empty circuit text", None)
    if not ended:
        raise CircuitParseError("missing 'end'", None)
    return Circuit(header[0], header[1], tuple(gates))


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
            return Gate("unitary", wires, STANDARD_GATES[name], name)
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
    entry, else on a non-finite entry, else on its form as :class:`Gate`
    decides it (repeated wires), else on its unitarity defect.  A bad or
    non-finite entry spoils the array: the lines before the first such
    line are read again without it.
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
        for (at, lineno, _, wires, _), m, defect in zip(group, stack, unitarity_defect(stack).tolist()):
            try:
                gates[at] = Gate("unitary", wires, m)
            except CircuitError as exc:  # collected: the first failing line wins, its form first
                failed.append((lineno, CircuitParseError, str(exc)))
            if not defect <= TOL_UNITARY:
                failed.append((lineno, UnitarityError, f"matrix is not unitary: defect {defect:.3e}"))
    if failed:
        lineno, error, message = min(failed, key=itemgetter(0))
        raise error(message, lineno)


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
            if g.label is not None:
                out.append(f"gate {g.label} {' '.join(map(str, g.wires))}")
            else:
                parts = np.ascontiguousarray(g.matrix, dtype=np.complex128).view(np.float64)
                entries = "".join(format_floats(parts, "%.17g,%.17g", " "))
                out.append(f"unitary {g.arity} {' '.join(map(str, g.wires))} {entries}")
        elif g.kind == "ancilla":
            out.append("ancilla")
        else:
            out.append(f"{g.kind} {g.wires[0]}")
    out.append("end")
    return "\n".join(out) + "\n"


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


def instance_from_json(obj: dict) -> ProblemInstance:
    if not isinstance(obj, dict):
        raise ValueError(f"instance JSON must be an object, got {type(obj).__name__}")
    try:
        texts = [obj["q0"], obj["q1"]]
        kind, a, b = obj["kind"], obj["a"], obj["b"]
        # JSON numbers only, as the matrix loader takes them: not a bool, not a string
        if type(a) not in (int, float) or type(b) not in (int, float):
            raise TypeError(f"got a={a!r}, b={b!r}")
        a, b = float(a), float(b)
    except KeyError as exc:
        raise ValueError(f"instance JSON missing field {exc}") from exc
    except (TypeError, OverflowError) as exc:  # OverflowError: float(10**400)
        raise ValueError(f"instance JSON promise constants must be numbers: {exc}") from exc
    for key, text in zip(("q0", "q1"), texts):
        if not isinstance(text, str):
            raise ValueError(
                f"instance JSON field {key!r} must be circuit text, got {type(text).__name__}"
            )
    q0, q1 = (parse_circuit(text) for text in texts)
    return ProblemInstance(q0, q1, kind, a, b)
