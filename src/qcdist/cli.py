"""Command-line interface.

All numeric output is a single JSON document on standard output (floats at
17 significant digits, byte-stable for a fixed seed); human-readable notes
go to standard error.  Exit codes: 0 success, 1 validation failure,
2 usage or dimension error, 3 size-cap refusal, 4 an open result, still
printed: a certified gap above ``distances.GAP_TOL``, on the diamond norm
for ``dnorm`` and ``protocol`` and on the max image fidelity for
``maxfid``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import jsonutil
from .circuits import (
    CircuitError,
    instance_from_json,
    parse_circuit,
    serialize_circuit,
)
from .distances import (
    OptimizerConfig,
    _interval_json,
    diamond_norm,
    fidelity,
    max_image_fidelity,
    trace_norm,
    witness_to_json,
)
from .linalg import SizeCapError
from .protocol import optimal_prover_witness, result_to_json, run_protocol
from .reductions import (
    ConstructionError,
    PolarizationParams,
    ci_to_qcd,
    parity_mix,
    polarize,
    tensor_power,
)
from .simulate import (
    InternalConsistencyError,
    choi_of,
    density_from_json,
    density_to_json,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_SIZE_CAP = 3
EXIT_NOT_CONVERGED = 4


def _emit(obj) -> None:
    """Write ``obj`` and a newline to stdout, formatted in full before the
    first write and never joined: a witness matrix is megabytes of text."""
    parts = jsonutil.dump_parts(obj)
    parts.append("\n")
    sys.stdout.writelines(parts)


def _note(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_circuit(path: str):
    return parse_circuit(Path(path).read_text(encoding="utf-8"))


def _load_pair(paths: list[str]):
    """One instance JSON file, or two circuit text files."""
    if len(paths) == 1:
        inst = instance_from_json(_load_json(paths[0]))
        return inst.q0, inst.q1
    if len(paths) == 2:
        return _load_circuit(paths[0]), _load_circuit(paths[1])
    raise ValueError("expected one instance file or two circuit files")


def _config(args) -> OptimizerConfig:
    return OptimizerConfig(rel_tol=args.tol)


def cmd_validate(args) -> int:
    # the parser refuses all that circuits.validate reports: what is left is the channel
    try:
        circuit = _load_circuit(args.circuit)
    except SizeCapError:
        raise
    except (CircuitError, ValueError, OSError) as exc:
        _emit({"valid": False, "violations": [str(exc)]})
        return EXIT_INVALID
    try:
        choi_of(circuit)
        report = []
    except InternalConsistencyError as exc:
        report = [str(exc)]
    _emit({"valid": not report, "violations": report})
    return EXIT_OK if not report else EXIT_INVALID


def cmd_distance(args) -> int:
    if args.kind in ("trace", "fidelity"):
        if len(args.inputs) != 2:
            raise ValueError(f"{args.kind} distance needs two state files")
        rho0 = density_from_json(_load_json(args.inputs[0]))
        rho1 = density_from_json(_load_json(args.inputs[1]))
        if args.kind == "trace":
            _emit({"kind": "trace", "value": trace_norm(rho0 - rho1)})
        else:
            _emit({"kind": "fidelity", "value": fidelity(rho0, rho1)})
        return EXIT_OK
    q0, q1 = _load_pair(args.inputs)
    cfg = _config(args)
    if args.kind == "dnorm":
        witness = diamond_norm(choi_of(q0), choi_of(q1), cfg)
        out = {"kind": "dnorm"}
        out.update(witness_to_json(witness))
        _emit(out)
        return EXIT_OK if witness.converged else EXIT_NOT_CONVERGED
    result = max_image_fidelity(q0, q1, cfg)
    _emit(
        {
            "kind": "maxfid",
            **_interval_json(result),
            "rho0": density_to_json(result.rho0),
            "rho1": density_to_json(result.rho1),
        }
    )
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _write_pair(out_dir: str, name0, c0, name1, c1) -> list[str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, circ in ((name0, c0), (name1, c1)):
        path = out / f"{name}.circ"
        path.write_text(serialize_circuit(circ), encoding="utf-8")
        paths.append(str(path))
        _note(f"wrote {path}")
    return paths


def cmd_reduce(args) -> int:
    inst = instance_from_json(_load_json(args.instance))
    q0, q1 = inst.q0, inst.q1
    if args.kind == "ci2qcd":
        r0, r1 = ci_to_qcd(q0, q1)
        files = _write_pair(args.out, "r0", r0, "r1", r1)
        _emit({"kind": "ci2qcd", "files": files})
        return EXIT_OK
    if args.kind == "tensor":
        r0, r1 = tensor_power(q0, q1, args.count)
        files = _write_pair(args.out, "t0", r0, "t1", r1)
        _emit({"kind": "tensor", "params": {"k": args.count}, "files": files})
        return EXIT_OK
    if args.kind == "parity":
        r0, r1 = parity_mix(q0, q1, args.count)
        files = _write_pair(args.out, "p0", r0, "p1", r1)
        _emit({"kind": "parity", "params": {"r": args.count}, "files": files})
        return EXIT_OK
    params = PolarizationParams(n=args.precision, a=inst.a, b=inst.b)
    override = tuple(args.override) if args.override else None
    s0, s1, cert = polarize(q0, q1, params, override)
    files = _write_pair(args.out, "s0", s0, "s1", s1)
    _emit({"kind": "polarize", "certificate": cert, "files": files})
    return EXIT_OK


def cmd_protocol(args) -> int:
    if args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")
    inst = instance_from_json(_load_json(args.instance))
    cfg = _config(args)
    strat, witness = optimal_prover_witness(inst.q0, inst.q1, cfg)
    result = run_protocol(
        inst.q0, inst.q1, strat, args.trials, args.seed, dnorm_upper=witness.upper
    )
    _emit(result_to_json(result))
    return EXIT_OK if witness.converged else EXIT_NOT_CONVERGED


def _parse_override(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("override must be r,s,t")
    return tuple(int(p) for p in parts)


def _add_optimizer(sub) -> None:
    sub.add_argument(
        "--seed", type=int, default=0, help="protocol trial seed; dnorm and maxfid ignore it"
    )
    sub.add_argument(
        "--restarts", type=int, default=32, help="ignored: dnorm and maxfid are deterministic"
    )
    sub.add_argument("--tol", type=float, default=1e-10, help="relative stop tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcdist",
        description="Mixed-state circuit distances, reductions, and the distinguishability protocol",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="validate a circuit file")
    p.add_argument("circuit")

    p = subs.add_parser("distance", help="distances between states or circuits")
    p.add_argument("kind", choices=["trace", "fidelity", "dnorm", "maxfid"])
    p.add_argument("inputs", nargs="+", help="two state files, an instance file, or two circuit files")
    _add_optimizer(p)

    p = subs.add_parser("reduce", help="compile reductions and amplifiers")
    p.add_argument("kind", choices=["ci2qcd", "tensor", "parity", "polarize"])
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--count", type=int, default=1, help="copies (tensor) or blocks (parity)")
    p.add_argument("--precision", type=int, default=1, help="polarization precision parameter")
    p.add_argument("--override", type=_parse_override, default=None, metavar="r,s,t")
    p.add_argument("--out", default=".", help="output directory for circuit files")

    p = subs.add_parser("protocol", help="run the distinguishability protocol")
    p.add_argument("instance")
    p.add_argument("--trials", type=int, default=10000)
    _add_optimizer(p)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:  # built on the first call, not at import
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        # looked up per call, so a command replaced after the parser was built is the one run
        return globals()[f"cmd_{args.command}"](args)
    except SizeCapError as exc:
        payload = {"error": "size_cap", "message": str(exc)}
        cert = getattr(exc, "certificate", None)
        if cert is not None:
            payload["certificate"] = cert
        _emit(payload)
        return EXIT_SIZE_CAP
    except (
        CircuitError,
        ConstructionError,
        ValueError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        _note(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
