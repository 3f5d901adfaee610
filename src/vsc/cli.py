"""Command line front end for the residue engines and table builders."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .cache import ResidueCache, default_cache_dir
from .calabi_yau import cy_report
from .elliptic import elliptic_constant
from .genus0 import genus0_constant
from .graphs import graphs_of_degree
from .hypersurface import format_insertions, fraction_str, parse_insertions
from .pipeline import gw_table, invert_corrections, mirror_corrections
from .series import TruncatedSeries


def _series_str(series: TruncatedSeries) -> str:
    """Render a series as signed `c q^d x2^e ...` terms; block a is x_{a+2}."""
    parts = []
    for (d, exps), c in series.items():
        factors = []
        if abs(c) != 1 or (d == 0 and not any(exps)):
            factors.append(fraction_str(abs(c)))
        if d:
            factors.append("q" if d == 1 else f"q^{d}")
        for a, e in enumerate(exps):
            if e:
                name = f"x{a + 2}"
                factors.append(name if e == 1 else f"{name}^{e}")
        sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
        parts.append(sign + " ".join(factors))
    return " ".join(parts) if parts else "0"


def _int_at_least(minimum: int):
    """argparse type for a decimal integer of at least ``minimum``."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"need an integer >= {minimum}, got {text!r}")
        return int(text)
    return parse


def _add_cache_args(parser, threads: bool = True):
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="directory for residue records "
                             "(default: $VSC_CACHE or .vsc-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the residue cache")
    if threads:  # only where a command has more than one chain to run
        parser.add_argument("--threads", type=_int_at_least(1), default=os.cpu_count() or 1,
                            help="worker processes for independent residues "
                                 "(default: all cores)")


def _cache_from(args) -> ResidueCache | None:
    """The command's disk cache, its directory made now, so a bad one fails before any chain."""
    if getattr(args, "no_cache", False):
        return None
    directory = Path(args.cache_dir or default_cache_dir())
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot use cache directory {directory}: {exc.strerror}") from None
    return ResidueCache(directory)


def _cmd_g0(args):
    ins = parse_insertions(args.ins)
    value = genus0_constant(args.N, args.k, args.d, args.a, args.b, ins, _cache_from(args))
    print(fraction_str(value))


def _cmd_g1(args):
    ins = parse_insertions(args.ins)
    value = elliptic_constant(args.N, args.k, args.d, ins,
                              cache=_cache_from(args), workers=args.threads)
    print(fraction_str(value))


def _cmd_mirror(args):
    C = mirror_corrections(args.N, args.k, args.qcap,
                           cache=_cache_from(args), workers=args.threads)
    if args.inverse:
        C = invert_corrections(C)
        left, right = "x", "t"
    else:
        left, right = "t", "x"
    if args.format == "json":
        print(json.dumps({p: s.to_json() for p, s in sorted(C.items())}, indent=2))
        return
    for p, s in sorted(C.items()):
        print(f"{left}^{p} - {right}^{p} = {_series_str(s)}")


def _gw_json_row(row):
    out = {"d": row.d, "ins": format_insertions(row.ins),
           "n1": fraction_str(row.n1), "w": fraction_str(row.w1)}
    if row.n0 is not None:
        out["n0"] = fraction_str(row.n0)
        out["combo"] = fraction_str(row.combo)
    if row.n1_norm is not None:
        out["n1_norm"] = fraction_str(row.n1_norm)
    return out


def _cmd_gw(args):
    rows = gw_table(args.N, args.k, args.dmax,
                    cache=_cache_from(args), workers=args.threads)
    if args.format == "json":
        print(json.dumps([_gw_json_row(r) for r in rows], indent=2))
        return
    if args.N == 4:
        print("d\ta\tn1\tn1_norm\tw")
        for r in rows:
            print(f"{r.d}\t{r.ins.get(2, 0)}\t{fraction_str(r.n1)}"
                  f"\t{fraction_str(r.n1_norm)}\t{fraction_str(r.w1)}")
    else:
        print("d\ta\tb\tn0\tn1\tcombo\tw")
        for r in rows:
            print(f"{r.d}\t{r.ins.get(2, 0)}\t{r.ins.get(3, 0)}"
                  f"\t{fraction_str(r.n0)}\t{fraction_str(r.n1)}"
                  f"\t{fraction_str(r.combo)}\t{fraction_str(r.w1)}")


def _cmd_bcov(args):
    report = cy_report(args.k, args.dmax,
                       cache=_cache_from(args), workers=args.threads)
    named = [
        ("log Ltilde_0", report.log_l0),
        ("log Ltilde_1", report.log_l1),
        ("stars", report.stars),
        ("loops", report.loops),
        ("clusters", report.clusters),
        ("points", report.points),
        ("loop identity lhs", report.lhs),
        ("loop identity rhs", report.rhs),
        ("graph sum", report.graph_sum),
        ("BCOV-Zinger form", report.bcov),
    ]
    checks = report.identities() if args.check else {}
    if args.format == "json":
        out = {name: series.to_json() for name, series in named}
        if args.check:
            out["identities"] = checks
        print(json.dumps(out, indent=2))
    else:
        for name, series in named:
            print(f"{name}: {_series_str(series)}")
        for name, ok in checks.items():
            print(("ok: " if ok else "FAILED: ") + name)
        if args.check and all(checks.values()):
            print("all identities hold")
    if not all(checks.values()):
        raise SystemExit(1)


def _cmd_catalog(args):
    graphs = graphs_of_degree(args.d)
    for g in graphs:
        print(g.label())
    print(f"{len(graphs)} graphs at degree {args.d}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsc",
        description="Exact virtual structure constants of degree-k "
                    "hypersurfaces in CP^{N-1} and the Gromov-Witten "
                    "invariants they encode.")
    sub = parser.add_subparsers(dest="command", required=True)

    g0 = sub.add_parser("g0", help="genus-0 structure constant")
    g0.add_argument("--N", type=int, required=True)
    g0.add_argument("--k", type=int, required=True)
    g0.add_argument("--d", type=int, required=True)
    g0.add_argument("--a", type=int, required=True)
    g0.add_argument("--b", type=int, required=True)
    g0.add_argument("--ins", default="", help="insertions as p:m,p:m")
    _add_cache_args(g0, threads=False)
    g0.set_defaults(func=_cmd_g0)

    g1 = sub.add_parser("g1", help="genus-1 structure constant")
    g1.add_argument("--N", type=int, required=True)
    g1.add_argument("--k", type=int, required=True)
    g1.add_argument("--d", type=int, required=True)
    g1.add_argument("--ins", default="", help="insertions as p:m,p:m")
    _add_cache_args(g1)
    g1.set_defaults(func=_cmd_g1)

    mirror = sub.add_parser("mirror", help="mirror map corrections")
    mirror.add_argument("--N", type=int, required=True)
    mirror.add_argument("--k", type=int, required=True)
    mirror.add_argument("--qcap", type=_int_at_least(0), required=True)
    mirror.add_argument("--inverse", action="store_true",
                        help="print x(t) instead of t(x)")
    mirror.add_argument("--format", choices=("text", "json"), default="text")
    _add_cache_args(mirror)
    mirror.set_defaults(func=_cmd_mirror)

    gw = sub.add_parser("gw", help="Gromov-Witten table for a Fano target")
    gw.add_argument("--N", type=int, required=True)
    gw.add_argument("--k", type=int, required=True)
    gw.add_argument("--dmax", type=_int_at_least(0), required=True)
    gw.add_argument("--format", choices=("tsv", "json"), default="tsv")
    _add_cache_args(gw)
    gw.set_defaults(func=_cmd_gw)

    bcov = sub.add_parser("bcov", help="Calabi-Yau genus-1 series and checks")
    bcov.add_argument("--k", type=int, required=True)
    bcov.add_argument("--dmax", type=_int_at_least(0), required=True)
    bcov.add_argument("--check", action="store_true",
                      help="verify the genus-1 identities degree by degree")
    bcov.add_argument("--format", choices=("text", "json"), default="text")
    _add_cache_args(bcov)
    bcov.set_defaults(func=_cmd_bcov)

    catalog = sub.add_parser("catalog", help="list elliptic graphs of a degree")
    catalog.add_argument("--d", type=int, required=True)
    catalog.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
