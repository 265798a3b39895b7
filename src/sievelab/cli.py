"""Command-line front end: evaluation subcommands, grid scans, and the
acceptance-suite runner.

Exit codes: 0 ok, 1 test failure, 2 usage error (an --out path that
cannot be written included), 3 budget refusal (a declared cost over the
budget, or an allocation that ran out of memory).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Dict

import numpy as np

from . import __version__
from .acceptance import SUITES, run_suite
from .arith import DEFAULT_BUDGET, BudgetExceeded
from .charsums import (S4Input, TrigWeight, cubic_form_charsum, s4_closed,
                       s4_direct, weighted_energy)
from .energies import energy_e2, energy_e4, energy_f2
from .expsums import ExpSumValue, esum_jh, gauss_sum_closed, gauss_sum_direct, gcal
from .scan import (ScanSpec, parse_grid, parse_rational, records_to_csv,
                   records_to_json, run_scan, SCAN_OPERATIONS)
from .sieve import (SieveInstance, build_frame, ls_bound_table, ls_lhs,
                    px_monitor)
from .sqrtmod import sqrt_mod_all


def _parse_weight(text: str) -> TrigWeight:
    """fejer:<width>, with a refusal's reason shown in argparse's usage error."""
    kind, _, arg = text.partition(":")
    try:
        if kind == "fejer":
            return TrigWeight.fejer(int(arg))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(f"unknown weight {text!r} (try fejer:<width>)")


def _parse_x(text: str) -> Fraction:
    """parse_rational with its reason shown in argparse's usage error."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _expsum_payload(v: ExpSumValue) -> Dict[str, object]:
    return {"value_re": v.value.real, "value_im": v.value.imag, "abs": v.abs,
            "margin": v.margin, "terms": v.terms}


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, payload) -> int:
    """Write payload as JSON and return the exit code 0."""
    _write(args, json.dumps(payload, indent=1, sort_keys=True, default=str) + "\n")
    return 0


def _cmd_sqrt(args) -> int:
    rs = sqrt_mod_all(args.m, args.r)
    return _emit(args, {"m": rs.m, "r": rs.modulus, "roots": list(rs.roots),
                        "count": len(rs)})


def _cmd_energy(args) -> int:
    if args.kind == "f2":
        if args.h is None:
            raise ValueError("energy --kind f2 needs --h")
        rep = energy_f2(args.R, args.j, args.h, args.r, args.method)
    elif args.h is not None:
        raise ValueError(f"energy --kind {args.kind} does not read --h")
    elif args.kind == "e2":
        rep = energy_e2(args.R, args.j, args.r, args.method)
    else:
        rep = energy_e4(args.R, args.j, args.r, args.method)
    return _emit(args, {"kind": rep.kind, "R": rep.R, "j": rep.j,
                        "h": rep.h, "r": rep.r, "energy": rep.energy,
                        "bound": rep.hyp_bound, "ratio": rep.ratio,
                        "method": rep.method})


def _cmd_expsum(args) -> int:
    if args.expsum_cmd == "jh":
        v = esum_jh(args.l, args.n, args.j, args.h, args.r, form=args.form)
    elif args.expsum_cmd == "gauss":
        fn = gauss_sum_closed if args.closed else gauss_sum_direct
        v = fn(args.q, args.a, args.b)
    else:
        v = gcal(args.q, args.a, args.b, args.j, args.k, args.u, args.s)
    return _emit(args, _expsum_payload(v))


def _cmd_sieve(args) -> int:
    rng = np.random.default_rng(args.seed)
    coeffs = rng.standard_normal(args.N) + 1j * rng.standard_normal(args.N)
    inst = SieveInstance(M=args.M, coefficients=tuple(coeffs), Q=args.Q)
    lhs = ls_lhs(inst, moduli=args.moduli, budget=args.budget)
    payload = {"lhs": lhs, "moduli": args.moduli, "Z": inst.Z}
    payload.update(ls_bound_table(args.Q, args.N))
    return _emit(args, payload)


def _cmd_px(args) -> int:
    return _emit(args, px_monitor(args.x, args.Q, args.N, budget=args.budget))


def _cmd_approx(args) -> int:
    frame = build_frame(args.x, args.N)
    return _emit(args, {"x": str(frame.x), "N": frame.N, "b": frame.b,
                        "r": frame.r, "z": str(frame.z), "j": frame.j})


def _cmd_charsum(args) -> int:
    if args.charsum_cmd == "s4":
        h = tuple(int(t) for t in args.h.split(","))
        if len(h) != 4:
            raise ValueError(f"charsum s4 --h needs four values h1,h2,h3,h4, "
                             f"got {len(h)}")
        fn = s4_closed if args.closed else s4_direct
        return _emit(args, _expsum_payload(fn(S4Input(args.j, h, args.r))))
    if args.charsum_cmd == "cubic":
        return _emit(args, cubic_form_charsum(args.M, args.r, args.weight,
                                              budget=args.budget))
    return _emit(args, weighted_energy(args.R, args.j, args.r, args.weight,
                                       budget=args.budget))


def _cmd_scan(args) -> int:
    spec = ScanSpec(args.op, parse_grid(args.op, args.param), budget=args.budget)
    records = run_scan(spec)
    _write(args, records_to_csv(records) if args.format == "csv"
           else records_to_json(records))
    return 0


def _cmd_accept(args) -> int:
    results = run_suite(args.suite)
    for res in results:
        print(res.line)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sievelab",
        description="verification workbench for modular square roots, "
                    "additive energies, exponential sums and sieve "
                    "inequalities")
    parser.add_argument("--version", action="version", version=__version__)
    # each option goes only on the leaf commands that read it
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output path")
    budget = argparse.ArgumentParser(add_help=False)
    # argparse converts a string default with type, so a malformed
    # SIEVELAB_BUDGET is a usage error like a malformed --budget
    budget.add_argument("--budget", type=int,
                        default=os.environ.get("SIEVELAB_BUDGET", DEFAULT_BUDGET),
                        help="work-unit cap (env SIEVELAB_BUDGET)")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("sqrt", parents=[out])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(fn=_cmd_sqrt)

    p = sub.add_parser("energy", parents=[out])
    p.add_argument("--kind", choices=("e2", "e4", "f2"), required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--method", choices=("conv", "brute"), default="conv")
    p.set_defaults(fn=_cmd_energy)

    p = sub.add_parser("scan", parents=[out, budget])
    p.add_argument("--op", choices=sorted(SCAN_OPERATIONS), required=True)
    p.add_argument("--param", action="append", default=[],
                   metavar="NAME=START:STOP[:STEP] | NAME=v1,v2,...",
                   help="a grid parameter the operation reads, its values "
                        "parsed by its entry in scan.SCAN_OPERATIONS")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("expsum")
    esub = p.add_subparsers(dest="expsum_cmd", required=True)
    pj = esub.add_parser("jh", parents=[out])
    for flag in ("--l", "--n", "--j", "--h", "--r"):
        pj.add_argument(flag, type=int, required=True)
    pj.add_argument("--form", choices=("paired", "bare"), default="paired")
    pj.set_defaults(fn=_cmd_expsum)
    pg = esub.add_parser("gauss", parents=[out])
    for flag in ("--q", "--a", "--b"):
        pg.add_argument(flag, type=int, required=True)
    pg.add_argument("--closed", action="store_true")
    pg.set_defaults(fn=_cmd_expsum)
    pc = esub.add_parser("gcal", parents=[out])
    for flag in ("--q", "--a", "--b", "--j", "--k", "--u", "--s"):
        pc.add_argument(flag, type=int, required=True)
    pc.set_defaults(fn=_cmd_expsum)

    p = sub.add_parser("sieve")
    ssub = p.add_subparsers(dest="sieve_cmd", required=True)
    pl = ssub.add_parser("lhs", parents=[out, budget])
    pl.add_argument("--Q", type=int, required=True)
    pl.add_argument("--N", type=int, required=True)
    pl.add_argument("--M", type=int, default=0)
    pl.add_argument("--moduli", choices=("classical", "squares"),
                    default="classical")
    pl.add_argument("--seed", type=int, default=0)
    pl.set_defaults(fn=_cmd_sieve)

    p = sub.add_parser("px", parents=[out, budget])
    p.add_argument("--x", type=_parse_x, required=True)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(fn=_cmd_px)

    p = sub.add_parser("approx", parents=[out])
    p.add_argument("--x", type=_parse_x, required=True)
    p.add_argument("--N", type=int, required=True,
                   help="window length; tau = floor(sqrt(N))")
    p.set_defaults(fn=_cmd_approx)

    p = sub.add_parser("charsum")
    csub = p.add_subparsers(dest="charsum_cmd", required=True)
    ps = csub.add_parser("s4", parents=[out])
    ps.add_argument("--r", type=int, required=True)
    ps.add_argument("--j", type=int, required=True)
    ps.add_argument("--h", required=True, metavar="h1,h2,h3,h4")
    ps.add_argument("--closed", action="store_true")
    ps.set_defaults(fn=_cmd_charsum)
    pcu = csub.add_parser("cubic", parents=[out, budget])
    pcu.add_argument("--r", type=int, required=True)
    pcu.add_argument("--M", type=int, required=True)
    pcu.add_argument("--weight", type=_parse_weight, default=TrigWeight.fejer(3))
    pcu.set_defaults(fn=_cmd_charsum)
    pe = csub.add_parser("energy", parents=[out, budget])
    pe.add_argument("--r", type=int, required=True)
    pe.add_argument("--R", type=int, required=True)
    pe.add_argument("--j", type=int, required=True)
    pe.add_argument("--weight", type=_parse_weight, default=TrigWeight.fejer(3))
    pe.set_defaults(fn=_cmd_charsum)

    p = sub.add_parser("accept")
    p.add_argument("suite", nargs="?", default="all",
                   choices=sorted(SUITES))
    p.set_defaults(fn=_cmd_accept)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("budget refusal: out of memory", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        # OSError: an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
