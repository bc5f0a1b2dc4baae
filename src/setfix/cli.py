"""Command-line front end: run scenarios, certify, iterate, stability checks."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .certify import VARIANTS, certify_contraction
from .errors import SetfixError, json_text, read_json
from .iteration import orbit_summary, orbit_to_csv, picard_orbit
from .operators import BUILTIN_OPERATORS, MultivaluedOperator, Takahashi, get_builtin, perturb


def _operator_spec(arg: str) -> str | dict:
    """The operator argument as a scenario names an operator: a built-in
    name, or the object in an operator JSON file."""
    return arg if arg in BUILTIN_OPERATORS else read_json(Path(arg), f"operator file {arg!r}")


def _operator(args) -> MultivaluedOperator:
    """The operator that certify and iterate run on: T, from _operator_spec,
    or with --perturb-lam its Takahashi perturbation."""
    spec = _operator_spec(args.operator)
    t = (get_builtin(spec) if isinstance(spec, str)
         else MultivaluedOperator.from_json(spec, name=Path(args.operator).stem))
    return t if args.perturb_lam is None else perturb(t, Takahashi(args.perturb_lam))


def _dump(payload: dict, out: str | None) -> None:
    text = json_text(payload)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


_SHARED = {
    "grid": dict(type=int, default=None, help="sweep grid size"),
    "tol": dict(type=float, default=None, help="tolerance override"),
    "out": dict(type=str, default=None, help="output path"),
    "format": dict(choices=("json", "csv"), default=None, help="report format"),
}


def _add_shared(p: argparse.ArgumentParser, *names: str) -> None:
    """Add the named shared options; each subcommand takes only those it reads."""
    for name in names:
        p.add_argument(f"--{name}", **_SHARED[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setfix",
        description="Set-valued fixed-point analysis: certification, iteration "
                    "and stability checks for multivalued operators.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file or built-in scenario")
    p_run.add_argument("scenario", help="path to a scenario JSON or a built-in name")
    _add_shared(p_run, "grid", "tol", "out", "format")
    p_run.set_defaults(handler=_cmd_run)

    p_cert = sub.add_parser("certify", help="certify a contraction condition")
    p_cert.add_argument("operator", help="built-in operator name or operator JSON path")
    p_cert.add_argument("--perturb-lam", type=float, default=None,
                        help="certify the Takahashi perturbation with this lambda")
    p_cert.add_argument("--variant", choices=VARIANTS, default="ciric",
                        help="condition H(Tx,Ty) <= RHS and its region; "
                             "ciric: a*d + b*D(x,Ty) + g*D(y,Tx), a+b+g < 1; "
                             "ciric_reich_rus (Reich): a*d + b*D(x,Tx) + g*D(y,Ty), "
                             "a+b+g < 1; combined (Hardy-Rogers): a*d + "
                             "b*[D(x,Tx)+D(y,Ty)] + g*[D(x,Ty)+D(y,Tx)], a+2b+2g < 1")
    p_cert.add_argument("--margin-req", type=float, default=0.0)
    _add_shared(p_cert, "grid", "out")
    p_cert.set_defaults(grid=501, handler=_cmd_certify)

    p_iter = sub.add_parser("iterate", help="run Picard set orbits")
    p_iter.add_argument("operator")
    p_iter.add_argument("--x0", type=float, action="append", required=True)
    p_iter.add_argument("--perturb-lam", type=float, default=None)
    p_iter.add_argument("--target", type=float, default=None)
    p_iter.add_argument("--max-n", type=int, default=10_000)
    _add_shared(p_iter, "tol", "out", "format")
    p_iter.set_defaults(tol=1e-10, handler=_cmd_iterate)

    p_stab = sub.add_parser("stability", help="run the stability suite via a scenario")
    p_stab.add_argument("operator")
    p_stab.add_argument("--perturb-lam", type=float, required=True)
    p_stab.add_argument("--harness", action="append", default=None,
                        help="restrict to specific harnesses (repeatable)")
    _add_shared(p_stab, "grid", "out")
    p_stab.set_defaults(grid=501, handler=_cmd_stability)
    return parser


def _cmd_run(args) -> int:
    from .scenario import load_scenario, run_scenario, scenario_from_dict, write_report

    scenario = load_scenario(args.scenario)
    overrides = {k: v for k, v in (("grid_n", args.grid), ("tol", args.tol)) if v is not None}
    if overrides:
        scenario = scenario_from_dict(dict(scenario.raw, **overrides), name=scenario.name)
    report = run_scenario(scenario)
    fmt = args.format or scenario.output.get("format", "json")
    out = args.out or scenario.output.get("path", f"{scenario.name or 'scenario'}_report.json")
    written = write_report(report, out, fmt)
    for phase, seconds in sorted(report.timing.items()):
        print(f"[timing] {phase}: {seconds:.3f}s", file=sys.stderr)
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    return 0 if report.all_ok else 1


def _cmd_certify(args) -> int:
    cert = certify_contraction(_operator(args), args.variant, args.grid, args.margin_req)
    _dump(cert.to_json(), args.out)
    return 0


def _cmd_iterate(args) -> int:
    op = _operator(args)
    payload = []
    csv_parts = []
    for x0 in args.x0:
        trace = picard_orbit(op, x0, max_n=args.max_n, tol=args.tol, target=args.target)
        payload.append(orbit_summary(x0, trace))
        csv_parts.append(orbit_to_csv(trace))
    if (args.format or "json") == "csv":
        base = Path(args.out or "orbits")
        base.mkdir(parents=True, exist_ok=True)
        for i, content in enumerate(csv_parts):
            (base / f"orbit_{i}.csv").write_text(content)
        print(f"wrote {len(csv_parts)} orbit files under {base}", file=sys.stderr)
    else:
        _dump({"orbits": payload}, args.out)
    return 0 if all(o["converged"] for o in payload) else 1


def _cmd_stability(args) -> int:
    from .scenario import run_scenario, scenario_from_dict

    scenario_dict = {
        "name": "cli_stability",
        "operator": _operator_spec(args.operator),
        "perturbation": {"kind": "takahashi", "lam": args.perturb_lam},
        "analyses": ["certify", "stability"],
        "grid_n": args.grid,
        "x0_list": [],
    }
    if args.harness:
        scenario_dict["stability_options"] = {"harnesses": args.harness}
    report = run_scenario(scenario_from_dict(scenario_dict, name="cli_stability"))
    _dump({"certificates": report.certificates,
           "constants": report.constants,
           "stability": report.stability}, args.out)
    return 0 if report.all_ok else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SetfixError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
