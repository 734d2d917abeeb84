"""Command-line front end.

Subcommands map one-to-one onto library entry points:

    spectrum   sigma_min heatmap scan, CSV output
    bisect     bisectoriality certificate for a candidate angle
    calc       f(T) by contour quadrature (two-step for bounded f)
    frame      frame operator bounds for T and T*
    verify     the full inequality suite, JSON report

Exit codes: 0 all checks pass, 1 at least one inequality fails,
2 precondition or parse failure.
"""

from __future__ import annotations

import argparse
import sys

from .calculus import (ContourConfig, check_engine_memory, hinf_calculus, omega_calculus,
                       rule_contour)
from .errors import ArgumentError, CliffSpecError
from .functions import ensure_bounded, resolve_function
from .quadratic import _grid_engine, check_frame_memory, default_quad_grid, family_frames
from .serialization import (
    bisector_report_dict,
    contour_dict,
    dumps_report,
    frame_report_dict,
    load_function_spec,
    operator_to_dict,
    parse_operator_file,
    scan_to_csv,
    write_json,
)
from .spectrum import (
    GridSpec,
    RaySampling,
    check_bisectorial,
    default_scan_grid,
    scan_spectrum_slice,
)
from .suite import SuiteConfig, _certified, run_theorem_suite

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def _parse_grid(text) -> GridSpec:
    parts = text.split(",")
    if len(parts) != 6:
        raise ArgumentError("grid must be 'x_min,x_max,y_min,y_max,nx,ny'")
    try:
        x0, x1, y0, y1 = (float(p) for p in parts[:4])
        nx, ny = int(parts[4]), int(parts[5])
    except ValueError:
        raise ArgumentError(
            f"grid {text!r}: four reals and two integers expected") from None
    return GridSpec(x0, x1, y0, y1, nx, ny)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cliffspec",
        description="Spectral computations for Clifford-module operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--operator", required=True, help="operator JSON file")
    common.add_argument("--out", required=True, help="output file")
    # the run settings of calc, frame and verify, with the suite's defaults
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--omega", type=float, default=SuiteConfig.omega)
    run.add_argument("--theta", type=float, default=SuiteConfig.theta)
    run.add_argument("--nodes", type=int, default=SuiteConfig.contour_nodes)

    p = sub.add_parser("spectrum", parents=[common],
                       help="sigma_min heatmap over a half-plane grid")
    p.add_argument("--grid", default=None,
                   help="x_min,x_max,y_min,y_max,nx,ny (default derived from ||T||)")

    p = sub.add_parser("bisect", parents=[common],
                       help="certify or refute bisectoriality at --omega")
    p.add_argument("--omega", type=float, required=True)

    p = sub.add_parser("calc", parents=[common, run], help="evaluate f(T)")
    p.add_argument("--function", required=True, help="function registry JSON file")
    p.add_argument("--phi", type=float, default=None)

    p = sub.add_parser("frame", parents=[common, run],
                       help="frame bounds of (g, T) and (g, T*)")
    p.add_argument("--g", required=True, help="function registry JSON file")

    p = sub.add_parser("verify", parents=[common, run], help="full inequality suite")
    p.add_argument("--g", action="append", default=None,
                   help="decay-class function file (repeatable)")
    p.add_argument("--function", action="append", default=None,
                   help="bounded function file (repeatable)")
    p.add_argument("--phi", type=float, default=None)
    p.add_argument("--seed", type=int, default=SuiteConfig.seed)
    return parser


def cmd_spectrum(args):
    T = parse_operator_file(args.operator)
    grid = _parse_grid(args.grid) if args.grid else default_scan_grid(T)
    scan_to_csv(scan_spectrum_slice(T, grid), args.out)
    return EXIT_PASS


def cmd_bisect(args):
    T = parse_operator_file(args.operator)
    report = check_bisectorial(T, args.omega)
    write_json({"operator": operator_to_dict(T), **bisector_report_dict(report)},
               args.out)
    return EXIT_PASS if report.certified else EXIT_FAIL


def cmd_calc(args):
    finest = ContourConfig(phi=args.phi, nodes=args.nodes)
    angles = finest.contour_angles(args.omega, args.theta)
    T = parse_operator_file(args.operator)
    check_engine_memory(T, finest)
    f = resolve_function(load_function_spec(args.function), theta=args.theta)
    f = f if f.decay is not None else ensure_bounded(f)
    report = check_bisectorial(T, args.omega, RaySampling(phis=angles))
    # the fewest nodes, up to --nodes, at which the rule meets its target
    cfg = rule_contour(f, report, finest)
    if f.decay is not None:
        result = omega_calculus(f, T, report, cfg)
    else:
        result = hinf_calculus(f, T, report, cfg)
    payload = operator_to_dict(result.op)
    payload["trunc_err"] = result.truncation_error
    payload["disc_err"] = result.discretization_error
    write_json(payload, args.out)
    return EXIT_PASS


def cmd_frame(args):
    requested = ContourConfig(nodes=args.nodes)
    angles = requested.contour_angles(args.omega, args.theta)
    T = parse_operator_file(args.operator)
    qcfg = default_quad_grid(T)
    check_frame_memory(T, qcfg.nodes, contour_nodes=args.nodes)
    g = _certified("g", load_function_spec(args.g), args.theta)
    report = check_bisectorial(T, args.omega, RaySampling(phis=angles))
    t, w, engine, stride = _grid_engine(T, report, g.theta, [g], qcfg, requested)
    # T*'s frame from the blocks B^H of T's family, as verify takes it
    fb, fb_star, _ = family_frames(g, engine, t, w, adjoint=True)
    payload = {
        "T": frame_report_dict(fb),
        "Tstar": frame_report_dict(fb_star),
        "grid": {"t_min": qcfg.t_min, "t_max": qcfg.t_max, "nodes": qcfg.nodes},
        "contour": contour_dict(engine.cfg, stride),
    }
    write_json(payload, args.out)
    return EXIT_PASS


def cmd_verify(args):
    T = parse_operator_file(args.operator)
    g_specs = None
    if args.g:
        g_specs = [load_function_spec(p) for p in args.g]
    f_specs = None
    if args.function:
        f_specs = [load_function_spec(p) for p in args.function]
    config = SuiteConfig(
        omega=args.omega, theta=args.theta, phi=args.phi,
        contour_nodes=args.nodes, seed=args.seed,
    )
    report = run_theorem_suite(T, g_specs, f_specs, config)
    with open(args.out, "w") as fh:
        fh.write(dumps_report(report))
    return EXIT_PASS if report["passed"] else EXIT_FAIL


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "spectrum": cmd_spectrum,
        "bisect": cmd_bisect,
        "calc": cmd_calc,
        "frame": cmd_frame,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except CliffSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
