"""Command-line front end: run scenarios, certify, iterate, stability checks."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .certify import certify_contraction
from .errors import SetfixError
from .iteration import orbit_to_csv, picard_orbit
from .operators import BUILTIN_OPERATORS, MultivaluedOperator, Takahashi, get_builtin, perturb
from .scenario import load_scenario, run_scenario, scenario_from_dict, write_report


def _resolve_operator(spec: str) -> MultivaluedOperator:
    if spec in BUILTIN_OPERATORS:
        return get_builtin(spec)
    path = Path(spec)
    return MultivaluedOperator.from_json(json.loads(path.read_text()), name=path.stem)


def _maybe_perturbed(op: MultivaluedOperator, lam: float | None) -> MultivaluedOperator:
    if lam is None:
        return op
    return perturb(op, Takahashi(lam))


def _dump(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
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

    p_cert = sub.add_parser("certify", help="certify a contraction condition")
    p_cert.add_argument("operator", help="built-in operator name or operator JSON path")
    p_cert.add_argument("--perturb-lam", type=float, default=None,
                        help="certify the Takahashi perturbation with this lambda")
    p_cert.add_argument("--variant", choices=("ciric", "ciric_reich_rus", "combined"),
                        default="ciric")
    p_cert.add_argument("--margin-req", type=float, default=0.0)
    _add_shared(p_cert, "grid", "out")
    p_cert.set_defaults(grid=501)

    p_iter = sub.add_parser("iterate", help="run Picard set orbits")
    p_iter.add_argument("operator")
    p_iter.add_argument("--x0", type=float, action="append", required=True)
    p_iter.add_argument("--perturb-lam", type=float, default=None)
    p_iter.add_argument("--target", type=float, default=None)
    p_iter.add_argument("--max-n", type=int, default=10_000)
    _add_shared(p_iter, "tol", "out", "format")
    p_iter.set_defaults(tol=1e-10)

    p_stab = sub.add_parser("stability", help="run the stability suite via a scenario")
    p_stab.add_argument("operator")
    p_stab.add_argument("--perturb-lam", type=float, required=True)
    p_stab.add_argument("--harness", action="append", default=None,
                        help="restrict to specific harnesses (repeatable)")
    _add_shared(p_stab, "grid", "out")
    p_stab.set_defaults(grid=501)
    return parser


def _cmd_run(args) -> int:
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
    op = _maybe_perturbed(_resolve_operator(args.operator), args.perturb_lam)
    cert = certify_contraction(op, args.variant, args.grid, args.margin_req)
    _dump(cert.to_json(), args.out)
    return 0


def _cmd_iterate(args) -> int:
    op = _maybe_perturbed(_resolve_operator(args.operator), args.perturb_lam)
    payload = []
    csv_parts = {}
    for x0 in args.x0:
        trace = picard_orbit(op, x0, max_n=args.max_n, tol=args.tol, target=args.target)
        payload.append({
            "x0": x0,
            "steps": len(trace.steps),
            "converged": trace.converged,
            "limit_estimate": trace.limit_estimate,
            "final_h_to_prev": trace.final.h_to_prev,
            "final_h_to_target": trace.final.h_to_target,
        })
        csv_parts[x0] = orbit_to_csv(trace)
    if (args.format or "json") == "csv":
        base = Path(args.out or "orbits")
        base.mkdir(parents=True, exist_ok=True)
        for x0, content in csv_parts.items():
            (base / f"orbit_x0_{x0:g}.csv").write_text(content)
        print(f"wrote {len(csv_parts)} orbit files under {base}", file=sys.stderr)
    else:
        _dump({"orbits": payload}, args.out)
    return 0 if all(o["converged"] for o in payload) else 1


def _cmd_stability(args) -> int:
    name = args.operator if args.operator in BUILTIN_OPERATORS else None
    operator_spec = name or json.loads(Path(args.operator).read_text())
    scenario_dict = {
        "name": "cli_stability",
        "operator": operator_spec,
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "iterate":
            return _cmd_iterate(args)
        if args.command == "stability":
            return _cmd_stability(args)
    except SetfixError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
