"""Command-line front end: single-tuple checks, grid batches, reports.

Exit codes: 0 when every requested check passes, 2 when a check fails,
1 on usage or parameter errors.  JSON reports are deterministic (sorted
keys, integers and strings only); the only volatile field is the
timestamp inside the ``meta`` block.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from datetime import datetime, timezone

from . import __version__
from .aj import (
    build_annihilator,
    cabled_a_polynomial,
    cabled_a_polynomial_factors,
    evaluate_annihilator_at_minus1,
    verify_tuple,
)
from .degrees import audit_degrees
from .jones import BadParams, CablingParams, cabled_jones, torus_jones
from .minimality import SystemTooSmall, default_search_bounds, search_bounded_annihilator

IN_BAND_WARNING = "r strictly between 0 and pqs: theorem minimality claim not applicable"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for
    failed checks, so route usage problems to exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(lo):
    """argparse type for an integer option that must be at least ``lo``."""

    def parse(text):
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse names the type in "invalid integer value"
    return parse


@functools.cache  # built on the first main() call, then reused
def _build_parser():
    parser = _Parser(prog="ajcable", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_pq(sp, cable):
        sp.add_argument("-p", type=int, required=True)
        sp.add_argument("-q", type=int, required=True)
        sp.add_argument("-r", type=int, required=cable)
        sp.add_argument("-s", type=int, required=cable)

    def add_format(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("jones", help="print one colored Jones value")
    sp.add_argument("knot", choices=("torus", "cable"))
    add_pq(sp, cable=False)
    sp.add_argument("-n", type=int, required=True)
    add_format(sp)

    sp = sub.add_parser("apoly", help="print the cable's A-polynomial")
    add_pq(sp, cable=True)
    add_format(sp)

    sp = sub.add_parser("annihilator", help="print the constructed annihilator")
    add_pq(sp, cable=True)
    sp.add_argument("--eval-t-neg1", action="store_true",
                    help="also print the operator specialized at t = -1")
    add_format(sp)

    sp = sub.add_parser("verify", help="full per-tuple check pipeline")
    add_pq(sp, cable=True)
    sp.add_argument("--nmax", type=_int_at_least(1), default=12)
    add_format(sp)

    sp = sub.add_parser("degrees", help="audit degree predictions")
    add_pq(sp, cable=False)
    sp.add_argument("--nmax", type=_int_at_least(2), default=12,
                    help="audit colors 2..NMAX")
    add_format(sp)

    sp = sub.add_parser("minimality", help="bounded lower-degree annihilator search")
    add_pq(sp, cable=True)
    sp.add_argument("--ldeg", type=int, default=None,
                    help="L-degree to search (default: one below the construction)")
    sp.add_argument("--tspan", type=int, default=None)
    sp.add_argument("--mspan", type=int, default=None)
    add_format(sp)

    sp = sub.add_parser("grid", help="run the verify pipeline over a tuple file")
    sp.add_argument("file")
    sp.add_argument("--nmax", type=_int_at_least(1), default=12)
    add_format(sp)

    return parser


def _warn_in_band(params):
    if not params.theorem_applies:
        print(f"({params.p},{params.q},{params.r},{params.s}): {IN_BAND_WARNING}",
              file=sys.stderr)


def _emit(args, command, results, meta_extra=None, text_lines=None):
    if args.format == "json":
        meta = {
            "command": command,
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "tool": "ajcable",
            "version": __version__,
        }
        if meta_extra:
            meta.update(meta_extra)
        print(json.dumps({"meta": meta, "results": results}, indent=2, sort_keys=True))
    else:
        for line in text_lines or ():
            print(line)


def _tuple_label(d):
    return f"({d['p']},{d['q']},{d['r']},{d['s']})"


def _verify_pipeline(params, nmax):
    """The five check stages for one tuple: displayed-identity suite,
    annihilation, comparison at t = -1, determinant closed forms, and
    degree predictions.  The degree audit covers colours 2..nmax and reads
    the cable numerators that the annihilation check built, so no stage
    computes a cable value."""
    numerators = {}
    record = verify_tuple(params, nmax=nmax, numerators=numerators)
    rows = audit_degrees(params, 2, max(2, nmax), numerators)
    record["degrees_ok"] = all(row["match"] for row in rows)
    record["degree_mismatches"] = [row for row in rows if not row["match"]]
    record["pass"] = bool(record["pass"] and record["degrees_ok"])
    return record


def _verify_text(record, nmax):
    d = record["params"]
    lines = [
        f"{_tuple_label(d)}  case={record['case_tag']}  L-degree={record['L_degree']}"
        f"  theorem_applies={record['theorem_applies']}"
    ]

    def stage(name, ok, extra=""):
        word = "pass" if ok else "FAIL"
        lines.append(f"  {name:<13} {word}{extra}")

    stage("identities", record["identities_pass"],
          f" ({len(record['identities'])} checked, n in [1,{nmax}])")
    stage("annihilation", record["annihilates"], f" (n in [1,{nmax}])")
    stage("aj_compare", record["aj_match"])
    stage("determinant", record["determinant_ok"])
    stage("degrees", record["degrees_ok"])
    lines.append("PASS" if record["pass"] else "FAIL")
    return lines


def _exit_flag(record):
    """Check-failure policy: in-band tuples gate on annihilation only."""
    if record["theorem_applies"]:
        return not record["pass"]
    return not record["annihilates"]


def _cmd_jones(args):
    if args.knot == "torus":
        if args.r is not None or args.s is not None:
            print("ajcable: error: -r/-s are for cables", file=sys.stderr)
            return 1
        value = torus_jones(args.p, args.q, args.n)
        params_dict = {"p": args.p, "q": args.q}
    else:
        if args.r is None or args.s is None:
            print("ajcable: error: cables need -r and -s", file=sys.stderr)
            return 1
        params = CablingParams(args.p, args.q, args.r, args.s)
        value = cabled_jones(params, args.n)
        params_dict = params.as_dict()
    record = {"kind": "jones", "knot": args.knot, "params": params_dict,
              "n": args.n, "value": value.text()}
    _emit(args, "jones", [record], text_lines=[value.text()])
    return 0


def _cmd_apoly(args):
    params = CablingParams(args.p, args.q, args.r, args.s)
    factors = [f.text() for f in cabled_a_polynomial_factors(params)]
    expanded = cabled_a_polynomial(params).text()
    record = {"kind": "apoly", "params": params.as_dict(),
              "factors": factors, "expanded": expanded}
    lines = [f"factor: {t}" for t in factors] + [f"expanded: {expanded}"]
    _emit(args, "apoly", [record], text_lines=lines)
    return 0


def _cmd_annihilator(args):
    params = CablingParams(args.p, args.q, args.r, args.s)
    _warn_in_band(params)
    bundle = build_annihilator(params)
    record = {
        "kind": "annihilator",
        "params": params.as_dict(),
        "case_tag": bundle.case_tag,
        "L_degree": bundle.l_degree(),
        "theorem_applies": params.theorem_applies,
        "factors": [f.text() for f in bundle.factors],
        "operator": bundle.P.text(),
    }
    lines = [f"case={bundle.case_tag}  L-degree={record['L_degree']}"]
    lines += [f"factor: {t}" for t in record["factors"]]
    lines.append(f"operator: {record['operator']}")
    if args.eval_t_neg1:
        record["at_minus1"] = evaluate_annihilator_at_minus1(bundle).text()
        lines.append(f"at t=-1: {record['at_minus1']}")
    _emit(args, "annihilator", [record], text_lines=lines)
    return 0


def _cmd_verify(args):
    params = CablingParams(args.p, args.q, args.r, args.s)
    _warn_in_band(params)
    record = _verify_pipeline(params, args.nmax)
    _emit(args, "verify", [record], text_lines=_verify_text(record, args.nmax))
    return 2 if _exit_flag(record) else 0


def _cmd_degrees(args):
    if (args.r is None) != (args.s is None):
        print("ajcable: error: give both -r and -s for a cable, neither for a torus knot",
              file=sys.stderr)
        return 1
    if args.r is None:
        rows = audit_degrees((args.p, args.q), 2, args.nmax)
    else:
        rows = audit_degrees(CablingParams(args.p, args.q, args.r, args.s), 2, args.nmax)
    ok = all(row["match"] for row in rows)
    lines = [
        f"n={row['n']:<3} {row['side']:<8} predicted={row['predicted']:<8} "
        f"actual={row['actual']:<8} {'ok' if row['match'] else 'MISMATCH'}"
        for row in rows
    ]
    lines.append(f"{'all match' if ok else 'MISMATCHES PRESENT'} ({len(rows)} rows)")
    _emit(args, "degrees", rows, text_lines=lines)
    return 0 if ok else 2


def _cmd_minimality(args):
    params = CablingParams(args.p, args.q, args.r, args.s)
    _warn_in_band(params)
    try:
        bounds = default_search_bounds(params, l_degree=args.ldeg)
        if args.tspan is not None:
            bounds = replace(bounds, t_span=args.tspan)
        if args.mspan is not None:
            bounds = replace(bounds, m_span=args.mspan)
    except ValueError as exc:  # SearchBounds rejected a value
        print(f"ajcable: error: {exc}", file=sys.stderr)
        return 1
    try:
        report = search_bounded_annihilator(params, bounds)
    except SystemTooSmall as exc:
        print(f"ajcable: error: {exc}", file=sys.stderr)
        return 1
    lines = [
        f"searched L-degree {report['L_degree_searched']} "
        f"({report['unknowns']} unknowns, {report['equations']} equations)",
        f"verdict: {report['verdict']}",
    ]
    if "found" in report:
        lines.append(f"found: {report['found']}")
    _emit(args, "minimality", [report], text_lines=lines)
    return 0 if report["verdict"] == "no annihilator within bounds" else 2


def _read_grid_file(path):
    tuples = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 'p q r s', got {raw.rstrip()!r}")
            try:
                p, q, r, s = (int(x) for x in parts)
                tuples.append(CablingParams(p, q, r, s))
            except (ValueError, BadParams) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not tuples:
        raise ValueError(f"{path}: no parameter tuples found")
    return tuples


def _cmd_grid(args):
    try:
        grid = _read_grid_file(args.file)
    except (OSError, ValueError) as exc:
        print(f"ajcable: error: {exc}", file=sys.stderr)
        return 1
    workers = min(len(grid), os.cpu_count() or 1)
    for params in grid:
        _warn_in_band(params)
    # Kept only because perfbench's self-test asserts spans from several threads.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        records = list(pool.map(lambda t: _verify_pipeline(t, args.nmax), grid))
    lines = []
    for record in records:
        d = record["params"]
        flags = " ".join(
            f"{name}={'ok' if record[key] else 'FAIL'}"
            for name, key in (("ids", "identities_pass"), ("ann", "annihilates"),
                              ("aj", "aj_match"), ("det", "determinant_ok"),
                              ("degs", "degrees_ok"))
        )
        lines.append(f"{_tuple_label(d):<16} {record['case_tag']:<12} "
                     f"deg={record['L_degree']} {flags}  "
                     f"{'PASS' if record['pass'] else 'FAIL'}")
    passed = sum(1 for record in records if record["pass"])
    lines.append(f"{passed}/{len(records)} tuples passed")
    _emit(args, "grid", records,
          meta_extra={"source": args.file, "workers": workers, "tuples": len(records)},
          text_lines=lines)
    return 2 if any(_exit_flag(record) for record in records) else 0


_COMMANDS = {
    "jones": _cmd_jones,
    "apoly": _cmd_apoly,
    "annihilator": _cmd_annihilator,
    "verify": _cmd_verify,
    "degrees": _cmd_degrees,
    "minimality": _cmd_minimality,
    "grid": _cmd_grid,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SystemExit:
        raise
    except BrokenPipeError:
        return 0
    except BadParams as exc:
        print(f"ajcable: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the refused allocation
        detail = f": {exc}" if str(exc) else ""
        print(f"ajcable: error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
