"""Command-line harness: identity registry runs, batch verification with
JSON-lines reports, series expansion dumps, and enumeration tables.

Exit codes: 0 all requested checks pass, 1 at least one fails, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Dict, List, Optional

from .classical import (EtaQuotient, TorsionPoint, eta_quotient_series, eta_series,
                        mu_torsion_series, theta_series_at_torsion)
from .errors import PwOmegaError, UnknownObject
from .indefinite import pbar_omega_series
from .partitions import FAMILIES, genfun
from .qseries import Monomial, QSeries, qpochhammer

F = Fraction


# ---------------------------------------------------------------------------
# expandable named series
# ---------------------------------------------------------------------------

# name -> builder(N, spec), spec the text after "eta-quotient:"; the families'
# names also take '-' for '_', except pbar_omega: "pbar-omega" is its triple sum
EXPANDABLE = {
    "pbar-omega": lambda N, _: pbar_omega_series(N, "triple_sum"),
    "pbar-omega-def": lambda N, _: pbar_omega_series(N, "definition"),
    "eta": lambda N, _: eta_series(N),
    "eta^3": lambda N, _: eta_series(N).pow(3),
    "euler": lambda N, _: qpochhammer(1, Monomial(1, 1), None, N),
    "eta-quotient:<spec>": lambda N, spec: eta_quotient_series(EtaQuotient.parse(spec), N),
    "theta(tau+1/2)": lambda N, _: theta_series_at_torsion(TorsionPoint(1, F(1, 2)), N),
    "theta(tau/2+1/4)": lambda N, _: theta_series_at_torsion(TorsionPoint(F(1, 2), F(1, 4)), N),
    "mu(tau/2,tau/2+1/4)": lambda N, _: mu_torsion_series(
        TorsionPoint(F(1, 2), 0), TorsionPoint(F(1, 2), F(1, 4)), N),
    **{family: (lambda N, _, family=family: genfun(family, N)) for family in FAMILIES},
}


def _expand_object(name: str, N: int) -> QSeries:
    head, colon, spec = name.strip().partition(":")
    key = f"{head}:<spec>" if colon else head
    build = EXPANDABLE.get(key) or EXPANDABLE.get(key.replace("-", "_"))
    if build is None:
        raise UnknownObject(f"no expandable series named {name.strip()!r}")
    return build(N, spec)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def load_config(path: Optional[str]) -> Dict:
    """key=value lines; keys: order, prec, window, taus (u,v;u,v;...)."""
    if not path:
        return {}
    out: Dict = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip().strip('"')
                if key in ("order", "prec", "window"):
                    out[key] = int(val)
                elif key == "taus":
                    out["taus"] = _parse_taus(p for p in val.split(";") if p.strip())
                else:
                    raise ValueError(f"unknown config key {key!r}")
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc))
    return out


class ConfigError(Exception):
    pass


def _parse_taus(values) -> List:
    return [tuple(float(x) for x in v.split(",")) for v in values or ()]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_list(args) -> int:
    from .registry import REGISTRY

    for ident in REGISTRY:
        flag = "" if ident.expected == "pass" else "  [expected fail: see README]"
        print(f"{ident.id:16s} {ident.description}{flag}")
    return 0


def _overrides(args, cfg: Dict) -> Dict:
    """The config's keys, overridden by the flags given."""
    flags = {"order": args.order, "prec": args.prec, "window": args.window,
             "taus": _parse_taus(args.tau) or None, "tolerance": args.tolerance}
    return dict(cfg, **{k: v for k, v in flags.items() if v is not None})


def cmd_run(args) -> int:
    from .registry import run_identity

    report = run_identity(args.id, _overrides(args, load_config(args.config)))
    print(json.dumps(report.to_dict()))
    return 0 if report.status == "pass" else 1


def cmd_suite(args) -> int:
    from .registry import run_suite

    reports = run_suite(args.filter, _overrides(args, load_config(args.config)))
    for report in reports:
        print(json.dumps(report.to_dict()))
    return 0 if all(report.status == "pass" for report in reports) else 1


def cmd_expand(args) -> int:
    try:
        series = _expand_object(args.object, args.order)
    except UnknownObject as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("expandable objects: " + ", ".join(EXPANDABLE), file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps({"object": args.object, "lattice": series.D,
                          "order": str(series.order_exp()),
                          "terms": series.to_pairs()}))
    else:
        print("exponent,coefficient")
        for exp, coeff in series.terms():
            print(f"{exp},\"{coeff}\"")
    return 0


def cmd_oracle(args) -> int:
    from .errors import NoCombinatorialDefinition, ResourceBound
    from .partitions import ENUMERATION_CAP, census

    family = args.family.replace("-", "_")
    print("n,count")
    # the rows up to the cap print before the error past it
    top = min(args.n, ENUMERATION_CAP)
    try:
        for n, count in enumerate(census(family, top) if top > 0 else [], 1):
            print(f"{n},{count}")
        if args.n > top:
            census(family, args.n)
    except (NoCombinatorialDefinition, ResourceBound, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwomega",
        description="verify the q-series, indefinite-theta, and modular-completion "
                    "identities of the overpartition series toolkit")
    parser.add_argument("--config", help="key=value config file", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered identities")

    # the parameter overrides of run and suite
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--order", type=int, default=None)
    params.add_argument("--prec", type=int, default=None)
    params.add_argument("--window", type=int, default=None)
    params.add_argument("--tolerance", type=float, default=None)
    params.add_argument("--tau", action="append", default=None,
                        metavar="u,v", help="tau point (repeatable)")

    p_run = sub.add_parser("run", parents=[params], help="run one identity")
    p_run.add_argument("id")

    p_suite = sub.add_parser("suite", parents=[params], help="run the identity suite")
    p_suite.add_argument("--filter", default=None, help="glob on identity ids")

    p_exp = sub.add_parser("expand", help="emit a named series")
    p_exp.add_argument("object")
    p_exp.add_argument("--order", type=int, required=True)
    p_exp.add_argument("--format", choices=("json", "csv"), default="json")

    p_or = sub.add_parser("oracle", help="enumeration table for a family")
    p_or.add_argument("family")
    p_or.add_argument("--n", type=int, required=True)
    return parser


def _attach_tau_values(argv: List[str]) -> List[str]:
    """'--tau -0.23,1.07' as '--tau=-0.23,1.07': argparse takes a separate
    value that starts with '-' for an option."""
    out: List[str] = []
    for arg in argv:
        if out and out[-1] == "--tau" and re.match(r"-[\d.]", arg):
            out[-1] = "--tau=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_tau_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    commands = {"list": cmd_list, "run": cmd_run, "suite": cmd_suite,
                "expand": cmd_expand, "oracle": cmd_oracle}
    try:
        return commands[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PwOmegaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
