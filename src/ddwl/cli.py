"""Command-line surface: build digraphs, run verification suites, export
Weisfeiler-Leman tensors, isomorphism-class counts and design-isomorphism
reports as JSON.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage error (an
output path that cannot be written is one, found before any work).
The environment variable DDWL_MAX_Q overrides the default size cap, the
largest q whose group fits Construction's default vertex cap,
construction.MAX_VERTICES_DEFAULT (q <= 11).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import coherent, designs, isotest
from .arith import prime_power
from .construction import MAX_VERTICES_DEFAULT, Construction
from .suite import __version__, run_suite


class UsageError(Exception):
    pass


def _max_q() -> int:
    raw = os.environ.get("DDWL_MAX_Q", str(round(MAX_VERTICES_DEFAULT ** (1 / 3))))
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"DDWL_MAX_Q = {raw!r} is not an integer") from None


def _validated_q(q: int) -> int:
    pp = prime_power(q)
    if pp is None:
        raise UsageError(f"q = {q} is not a prime power")
    if pp[0] == 2:
        raise UsageError(f"q = {q} is even; q must be an odd prime power")
    if q > _max_q():
        raise UsageError(f"q = {q} exceeds the cap {_max_q()} (set DDWL_MAX_Q to raise it)")
    return q


def _construction(q: int) -> Construction:
    return Construction(_validated_q(q), max_vertices=_max_q() ** 3)


def _validated_i(cons: Construction, i: int) -> int:
    if not 0 <= i < cons.q:
        raise UsageError(f"i = {i} is outside [0, {cons.q})")
    return i


def _check_writable(path: str | None) -> None:
    """UsageError unless path, when given, can be opened for writing; checked
    before any work, and without creating the file.  An empty path is none."""
    if path is None:
        return
    if not path:
        raise UsageError("cannot write an empty path")
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(parent):
        raise UsageError(f"cannot write {path}: no directory {parent}")
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise UsageError(f"cannot write {path}: permission denied")


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_build(args) -> int:
    default = f"cay_q{args.q}_i{args.i}{'_loopless' if args.loopless else ''}.txt"
    path = default if args.out is None else args.out
    _check_writable(path)
    cons = _construction(args.q)
    i = _validated_i(cons, args.i)
    g = cons.build_cayley(i, include_identity=not args.loopless)
    with open(path, "w") as fh:
        fh.write(g.to_text())
    print(f"wrote {g.n}-vertex digraph {g.label} to {path}")
    print(f"field: {json.dumps(cons.field.to_json(), sort_keys=True)}")
    print(f"vertex legend: index(x, y, z) = ix*{cons.q**2} + iy*{cons.q} + iz,")
    print("  where ix, iy, iz are the field indices of the matrix entries")
    return 0


def cmd_verify(args) -> int:
    _check_writable(args.out)
    q = _validated_q(args.q)
    report = run_suite(q, suite=args.suite)
    _emit(report.to_json(include_timings=not args.no_timings), args.out)
    return 0 if report.ok else 1


def cmd_wl(args) -> int:
    _check_writable(args.tensor_out)
    cons = _construction(args.q)
    i = _validated_i(cons, args.i)
    g = cons.build_cayley(i, include_identity=not args.loopless)
    cc = coherent.wl_close(g)
    payload = {"q": args.q, "i": i, "label": g.label, "n": g.n, "rounds": cc.rounds}
    payload.update(cc.tensor_json())
    _emit(payload, args.tensor_out)
    return 0


def cmd_iso(args) -> int:
    _check_writable(args.out)
    cons = _construction(args.q)
    gens = cons.generators_I()
    graphs = [cons.build_cayley(i) for i in gens]
    result = isotest.iso_class_count(graphs)
    payload = {
        "q": args.q,
        "labels": gens,
        "classes": result.count,
        "exact": result.exact,
        "pairs": {
            f"{gens[i]},{gens[j]}": v for (i, j), v in sorted(result.pair_results.items())
        },
        "witnesses": {
            f"{gens[i]},{gens[j]}": cert.to_json()
            for (i, j), cert in sorted(result.certificates.items())
        },
    }
    _emit(payload, args.out)
    return 0


def cmd_design(args) -> int:
    _check_writable(args.out)
    cons = _construction(args.q)
    i = _validated_i(cons, args.i)
    report = designs.verify_design_iso(cons, i)
    _emit(report.to_json(), args.out)
    return 0 if report.crit_holds and report.det_a_nonzero else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ddwl",
        description="divisible design Cayley digraphs over Heisenberg groups: "
        "construction and desk-scale verification",
    )
    parser.add_argument("--version", action="version", version=f"ddwl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="write a digraph in the 0/1 text format")
    p.add_argument("q", type=int)
    p.add_argument("i", type=int)
    p.add_argument("--loopless", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("verify", help="run the verification suite for q")
    p.add_argument("q", type=int)
    p.add_argument("--suite", choices=["full", "fast"], default="full")
    p.add_argument("--no-timings", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("wl", help="stable refinement tensor of one digraph")
    p.add_argument("q", type=int)
    p.add_argument("i", type=int)
    p.add_argument("--loopless", action="store_true")
    p.add_argument("--tensor-out")
    p.set_defaults(fn=cmd_wl)

    p = sub.add_parser("iso", help="isomorphism classes among the generator-labelled digraphs")
    p.add_argument("q", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser("design", help="verify the neighbourhood-design isomorphism for (q, i)")
    p.add_argument("q", type=int)
    p.add_argument("i", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_design)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
