"""Command-line front end.

Exit codes: 0 = solvable / PASS, 1 = unsolvable / FAIL, 2 = usage or
parse error (diagnostic on stderr).  Output is deterministic for a fixed
invocation; witnesses print as sorted ``map <src> <tgt>`` lines.

Each command imports the modules it runs inside its own function, so a
process compiles and executes only those: ``gadget`` loads no solver,
and ``solve`` no gadget or verifier code.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import formats
from .graphs import InputError, PreconditionError

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError(f"cannot write {path}: {e}") from None


def _print_witness(witness: dict):
    for u in sorted(witness):
        print(f"map {u} {witness[u]}")


def _print_json(value):
    import json

    print(json.dumps(value, indent=2))


def _cmd_solve(args) -> int:
    source = formats.parse_tropical(_read(args.source))
    target = formats.parse_tropical(_read(args.target))
    if args.mode == "exact":
        from .solver import solve_trop_hom

        out = solve_trop_hom(source, target)
        report = None
    else:
        from .poly import dispatch_solve

        out, report = dispatch_solve(source, target)
    print(out.status)
    if args.witness and out.witness is not None:
        _print_witness(out.witness)
    if args.report and report is not None:
        _print_json({"route": list(report.route),
                     "notes": list(report.notes)})
    return EXIT_OK if out.solvable else EXIT_NO


def _cmd_core(args) -> int:
    from .cores import core

    g = formats.parse_tropical(_read(args.input))
    result = core(g)
    _write(args.output, formats.serialize_tropical(result.graph))
    print(f"core {result.graph.n} of {g.n}")
    _print_witness(result.hom)
    return EXIT_OK


def _cmd_features(args) -> int:
    from .poly import detect_features

    g = formats.parse_tropical(_read(args.target))
    fs = detect_features(g)
    _print_json({
        "type1": sorted(fs.type1),
        "type2": sorted(list(e) for e in fs.type2),
        "type3": sorted(fs.type3),
        "type4": sorted(fs.type4),
    })
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    from .solver import enumerate_homs

    source = formats.parse_tropical(_read(args.source))
    target = formats.parse_tropical(_read(args.target))
    lists = None
    if args.lists:
        lists = formats.parse_lists(_read(args.lists))
        for v in range(source.n):
            lists.setdefault(v, frozenset(range(target.n)))
    found = enumerate_homs(source, target, lists, limit=args.limit)
    print(f"count {len(found.maps)} truncated "
          f"{'yes' if found.truncated else 'no'}")
    for i, m in enumerate(found.maps):
        print(f"hom {i}")
        _print_witness(m)
    return EXIT_OK if found.maps else EXIT_NO


def _cmd_gadget(args) -> int:
    from . import gadgets

    kind = args.kind
    if kind == "c48":
        gg = gadgets.build_c48(args.palette, args.k)
    elif kind == "nae3sat":
        formula = formats.parse_dimacs(_read(args.cnf), nae=True)
        gg = gadgets.nae3sat_to_c48(formula, args.palette, args.k)
    elif kind == "h9":
        gg = gadgets.build_h9()
    elif kind == "h9-instance":
        source = formats.parse_tropical(_read(args.source))
        lists = formats.parse_lists(_read(args.lists))
        gg = gadgets.c6_listhom_to_h9(source, lists)
    elif kind == "tropicalize":
        d = formats.parse_digraph(_read(args.input))
        gg = gadgets.GadgetGraph(gadgets.tropicalize_digraph(d), {})
    elif kind == "zigzag":
        h = formats.parse_tropical(_read(args.graph))
        gg = gadgets.build_zigzag_gadget(h)
    elif kind == "s-block":
        gg = gadgets.build_s_block(args.block)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown gadget {kind!r}")
    text = formats.serialize_gadget(gg)
    formats.parse_tropical(text)  # every emitted file must re-parse
    _write(args.output, text)
    print(f"wrote {args.output}: {gg.graph.n} vertices, "
          f"{len(gg.graph.edges)} edges")
    return EXIT_OK


def _report_exit(report, as_json: bool) -> int:
    if as_json:
        _print_json(report.to_json())
    else:
        for c in report.checks:
            flag = "PASS" if c.passed else "FAIL"
            if c.informational:
                flag = "info"
            print(f"{flag} {c.name}" + (f" - {c.detail}" if c.detail else ""))
        print(("PASS " if report.passed else "FAIL ") + report.title)
    return EXIT_OK if report.passed else EXIT_NO


def _cmd_verify(args) -> int:
    from . import verify

    what = args.what
    if what == "c48-claim":
        report = verify.verify_c48_claim(args.palette)
    elif what == "pq-lemma":
        report = verify.verify_pq_lemma(args.palette)
    elif what == "zigzag":
        report = verify.verify_zigzag_properties(
            args.l, 4 if args.k is None else args.k)
    elif what == "roundtrip":
        if args.roundtrip_kind == "nae3sat":
            if not args.cnf:
                raise InputError("roundtrip nae3sat needs --cnf")
            formula = formats.parse_dimacs(_read(args.cnf), nae=True)
            report = verify.roundtrip_nae(formula, args.palette, args.k)
        elif args.roundtrip_kind == "h9":
            report = verify.roundtrip_h9_batch(args.trials, args.seed)
        else:
            raise InputError("roundtrip kind must be nae3sat or h9")
    elif what == "cross-check":
        target = formats.parse_tropical(_read(args.target))
        report = verify.cross_check_poly(target, args.trials, args.seed)
    else:  # pragma: no cover
        raise InputError(f"unknown verification {what!r}")
    return _report_exit(report, args.json)


# gadgets.PALETTES, written out so that parsing loads no gadget code.
_PALETTES = ("four", "three", "two")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="trophom",
        description="Exact tropical graph homomorphism toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide source -> target")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--mode", choices=("auto", "exact"), default="auto")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--report", action="store_true")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("core", help="compute the core of a graph")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.set_defaults(fn=_cmd_core)

    p = sub.add_parser("features", help="detect unique features of a target")
    p.add_argument("--target", required=True)
    p.set_defaults(fn=_cmd_features)

    p = sub.add_parser("enumerate", help="list homomorphisms")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--lists")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("gadget", help="emit a gadget graph as .tg")
    p.add_argument("kind", choices=("c48", "nae3sat", "h9", "h9-instance",
                                    "tropicalize", "zigzag", "s-block"))
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--palette", choices=_PALETTES, default="four")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--cnf")
    p.add_argument("--source")
    p.add_argument("--lists")
    p.add_argument("--in", dest="input")
    p.add_argument("--graph")
    p.add_argument("--block", choices=("S12", "S1T", "S2T"), default="S12")
    p.set_defaults(fn=_cmd_gadget)

    p = sub.add_parser("verify", help="run a claim verifier")
    p.add_argument("what", choices=("c48-claim", "pq-lemma", "zigzag",
                                    "roundtrip", "cross-check"))
    p.add_argument("--palette", choices=_PALETTES, default="four")
    p.add_argument("--l", type=int, default=3)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--kind", dest="roundtrip_kind",
                   choices=("nae3sat", "h9"))
    p.add_argument("--cnf")
    p.add_argument("--target")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)
    return ap


def main(argv: Optional[list] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (InputError, PreconditionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def entry():  # console-script hook
    sys.exit(main())
