"""Command-line front end.

Subcommands: lambda, bifurcate, shoot, trace, resonance, orbit, verify.
System parameters come from --n/--m/--M/--r0 or from a JSON --config file
(flags override the file).  Machine-readable outputs carry full float
precision via repr; console summaries use 6 significant digits.

Exit codes: 0 success, 2 bad configuration or arguments (an output path
that cannot be written included), 3 numerical failure (no convergence,
singular flow), 4 requested object not found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import continuation as cont
from .bifurcate import bifurcation_point
from .integrate import FlowError, IntegratorConfig, eval_at
from .model import SystemParams, lambda_n, write_json
from .orbits import (
    ResonanceNotFound,
    ResonanceTarget,
    closure_order,
    export,
    find_resonance,
    reconstruct,
    trajectory_filename,
)
from .shoot import CORRECTOR_MAX_FLOWS, CORRECTOR_TOL, ConvergenceError, SeedPoint
from .shoot import newton_correct, require_above_floor

OUT_ENV = "RINGORBITS_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NOT_FOUND = 4

# What reading a JSON input file raises when the file is missing or
# unreadable, or when it lacks a key or holds a wrong type or a huge integer.
_MALFORMED = (OSError, ValueError, KeyError, TypeError, OverflowError)

# The keys a --config file may hold; the flag of the same dest overrides each.
_CONFIG_KEYS = ("n", "m", "M", "r0", "rel_tol", "abs_tol")


def _g(x: float) -> str:
    return f"{x:.6g}"


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}")
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"config file {path} has unknown keys {unknown}; known: {list(_CONFIG_KEYS)}")
    return data


def _system_from(args) -> tuple[SystemParams, IntegratorConfig]:
    """System parameters and integrator settings: --config, then the flags."""
    values = _load_config_file(args.config) if args.config else {}
    for key in _CONFIG_KEYS:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    try:
        params = SystemParams.from_dict(values)
    except _MALFORMED as exc:
        raise ValueError(f"bad system parameters: {exc}")
    try:
        tols = {key: float(values[key]) for key in ("rel_tol", "abs_tol") if key in values}
        return params, IntegratorConfig(**tols)
    except _MALFORMED as exc:
        raise ValueError(f"bad integrator settings: {exc}")


def _check_out(args, *names: str) -> Path:
    """The output directory, checked without creating anything: it, or the
    nearest of its ancestors that exists, must be a directory, and so must a
    directory that one of the file names adds.  Commands call it before
    their numerical work, so an output that cannot be written costs no flow."""
    out = Path(args.out or os.environ.get(OUT_ENV) or ".")
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"cannot create output directory {out}: {existing} is not a directory")
    for name in names:
        parent = (out / name).parent
        if parent != out and not parent.is_dir():
            raise ValueError(f"output directory {parent} does not exist")
    return out


def _out_dir(args) -> Path:
    path = _check_out(args)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(obj, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_json(obj, fh)


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with n, m, M, r0, rel_tol, abs_tol (flags override)")
    p.add_argument("--n", type=int, help="number of ring bodies")
    p.add_argument("--m", type=float, help="mass of each ring body")
    p.add_argument("--M", type=float, help="mass of the axial body")
    p.add_argument("--r0", type=float, help="radius of the circular seed solution")
    p.add_argument("--rel-tol", type=float, dest="rel_tol", help="integrator relative tolerance")
    p.add_argument("--abs-tol", type=float, dest="abs_tol", help="integrator absolute tolerance")
    p.add_argument("--out", help=f"output directory (default: ${OUT_ENV} or cwd)")


def _add_seed_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, required=True, help="angular parameter")
    p.add_argument("--b", type=float, required=True, help="initial axial velocity")
    p.add_argument("--T", type=float, required=True, help="return time T (period 2T)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ringorbits", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda", help="print the ring constant lambda_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bifurcate", help="closed-form family seeds on the circular solution")
    _add_param_flags(p)
    p.add_argument("--json-out", help="also write the report as JSON to this file")

    p = sub.add_parser("shoot", help="Newton-correct a seed point at fixed b")
    _add_param_flags(p)
    _add_seed_flags(p)
    p.add_argument("--tol", type=float, default=CORRECTOR_TOL)
    p.add_argument("--max-flows", type=int, default=CORRECTOR_MAX_FLOWS)
    p.add_argument("--json-out", help="write the corrected point as JSON to this file")

    p = sub.add_parser("trace", help="continue a family by pseudo-arclength")
    _add_param_flags(p)
    p.add_argument("--seed-file", help="JSON seed point (as written by shoot)")
    p.add_argument("--seed-b", type=float, help="auto-seed: correct (a0, b, T*) at this b")
    p.add_argument("--direction", choices=["+", "-"], default="+")
    p.add_argument("--max-points", type=int, default=cont.StopRules.max_points)
    p.add_argument("--ds-max", type=float, help="max arclength step")
    p.add_argument("--ds-min", type=float, default=cont.StepControl.ds_min)
    p.add_argument("--prefix", default="branch", help="output file prefix")

    p = sub.add_parser("resonance", help="pick a rational-phase point off a traced branch")
    _add_param_flags(p)
    p.add_argument("--branch", required=True, help="branch JSON written by trace")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--samples", type=int, default=512, help="samples per reduced period")
    p.add_argument("--strict-closure", action="store_true",
                   help="reconstruct over the strict closure order instead of the relabeling order")

    p = sub.add_parser("orbit", help="reconstruct and export a full-space orbit")
    _add_param_flags(p)
    _add_seed_flags(p)
    p.add_argument("--periods", type=int, default=1)
    p.add_argument("--samples", type=int, default=512, help="samples per reduced period")
    p.add_argument("--prefix", default="orbit", help="output file prefix")

    p = sub.add_parser("verify", help="check residuals and conservation for a point")
    _add_param_flags(p)
    _add_seed_flags(p)
    p.add_argument("--res-tol", type=float, default=1e-3, help="residual acceptance threshold")

    return ap


def _write_orbit(traj, csv_path: Path, json_path: Path) -> None:
    """Export a trajectory as CSV and JSON, then print its diagnostics and both paths."""
    export(traj, "csv", csv_path)
    export(traj, "json", json_path)
    for key, val in traj.diagnostics.items():
        print(f"{key:22s} {_g(val)}")
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")


def _cmd_lambda(args) -> int:
    value = lambda_n(args.n)
    if args.json:
        print(json.dumps({"n": args.n, "lambda": value}))
    else:
        print(f"lambda_{args.n} = {value!r}")
    return EXIT_OK


def _cmd_bifurcate(args) -> int:
    params, _ = _system_from(args)
    rep = bifurcation_point(params)
    print(f"a0            {_g(rep.a0)}  (= sqrt((lambda_n*m + M)/r0))")
    print(f"T*            {_g(rep.T_star)}  (= {rep.T_exact})")
    print(f"s             {_g(rep.s)}  (radial/axial frequency ratio)")
    print(f"nondegenerate {rep.nondegenerate}  margin {_g(rep.margin)}  (doubly symmetric {_g(rep.margin_double)})")
    print(f"theta(T*)     {_g(rep.theta0)}")
    if rep.xi2 is not None:
        print(f"xi'(0)        0  (parity)")
        print(f"xi''(0)       {_g(rep.xi2)}")
    if args.json_out:
        payload = {**asdict(rep), "params": params.to_dict()}
        _write_json(payload, _out_dir(args) / args.json_out)
    return EXIT_OK


def _seed_from_args(args) -> SeedPoint:
    return SeedPoint(a=args.a, b=args.b, T=args.T)


def _cmd_shoot(args) -> int:
    params, config = _system_from(args)
    guess = _seed_from_args(args)
    if args.json_out:
        _check_out(args, args.json_out)
    point = newton_correct(guess, params, config, tol=args.tol, max_flows=args.max_flows)
    print(f"corrected  a={_g(point.a)} b={_g(point.b)} T={_g(point.T)}")
    print(f"residual   {_g(point.residual)}")
    print(f"theta(T)   {_g(point.theta)}")
    if args.json_out:
        path = _out_dir(args) / args.json_out
        _write_json(point.to_dict(), path)
        print(f"wrote {path}")
    else:
        write_json(point.to_dict(), sys.stdout)
    return EXIT_OK


def _cmd_trace(args) -> int:
    params, config = _system_from(args)
    if (args.seed_file is None) == (args.seed_b is None):
        raise ValueError("trace needs exactly one of --seed-file or --seed-b")
    step = cont.StepControl(ds_max=args.ds_max, ds_min=args.ds_min)
    stop = cont.StopRules(max_points=args.max_points)
    _check_out(args, f"{args.prefix}.csv")
    if args.seed_file:
        try:
            with open(args.seed_file, "r", encoding="utf-8") as fh:
                start = SeedPoint.from_dict(json.load(fh))
        except _MALFORMED as exc:
            raise ValueError(f"cannot read seed file {args.seed_file}: {exc}")
    else:
        rep = bifurcation_point(params)
        guess = SeedPoint(a=rep.a0, b=args.seed_b, T=rep.T_star)
        start = newton_correct(guess, params, config)
    direction = 1 if args.direction == "+" else -1
    branch = cont.continue_branch(start, direction, params, config, step=step, stop=stop)
    report = cont.classify_endpoint(branch)
    out = _out_dir(args)
    csv_path = out / f"{args.prefix}.csv"
    json_path = out / f"{args.prefix}.json"
    cont.branch_to_csv(branch, csv_path)
    cont.branch_to_json(branch, json_path)
    end = branch.end
    print(f"points     {len(branch.points)}")
    print(f"end        a={_g(end.a)} b={_g(end.b)} T={_g(end.T)} theta={_g(end.theta)}")
    print(f"endpoint   {report.label}")
    if report.label == cont.TERM_B_ZERO:
        print(f"           (a, T) off the seed by ({_g(report.detail['delta_a'])}, {_g(report.detail['delta_T'])})")
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return EXIT_OK


def _cmd_resonance(args) -> int:
    params, config = _system_from(args)
    target = ResonanceTarget(args.n1, args.n2)
    try:
        branch = cont.branch_from_json(args.branch)
    except _MALFORMED as exc:
        raise ValueError(f"cannot read branch file {args.branch}: {exc}")
    if branch.params != params:
        raise ValueError(
            f"system {params.to_dict()} differs from the branch file's {branch.params.to_dict()}"
        )
    if args.samples < 2:
        raise ValueError("need at least two samples per period")
    _check_out(args)
    point = find_resonance(branch, target, config)
    k_strict, k_relabel = closure_order(target, params.n)
    periods = k_strict if args.strict_closure else k_relabel
    traj = reconstruct(point, params, periods=periods, samples_per_period=args.samples, config=config)
    out = _out_dir(args)
    csv_path, json_path, seed_path = (
        out / trajectory_filename(point, target, ext) for ext in ("csv", "json", "seed.json")
    )
    print(f"theta      {_g(point.theta)}  (target {args.n1}*pi/{args.n2} = {_g(target.angle)})")
    print(f"point      a={_g(point.a)} b={_g(point.b)} T={_g(point.T)}")
    print(f"closure    strict {k_strict} periods, relabeling {k_relabel} periods")
    print(f"periods    {periods} reduced periods reconstructed")
    _write_orbit(traj, csv_path, json_path)
    _write_json(point.to_dict(), seed_path)
    print(f"wrote {seed_path}")
    return EXIT_OK


def _cmd_orbit(args) -> int:
    params, config = _system_from(args)
    point = _seed_from_args(args)
    _check_out(args, f"{args.prefix}.csv")
    traj = reconstruct(point, params, periods=args.periods, samples_per_period=args.samples, config=config)
    out = _out_dir(args)
    _write_orbit(traj, out / f"{args.prefix}.csv", out / f"{args.prefix}.json")
    return EXIT_OK


def _cmd_verify(args) -> int:
    params, config = _system_from(args)
    point = _seed_from_args(args)
    if not (math.isfinite(args.res_tol) and args.res_tol > 0):
        raise ValueError(f"--res-tol must be finite and positive, got {args.res_tol!r}")
    require_above_floor(point.T, params)
    e = eval_at(point.a, point.b, point.T, params, config)
    traj = reconstruct(point, params, periods=1, samples_per_period=256, config=config)
    d = traj.diagnostics
    checks = [
        ("residual_1", abs(e.F), args.res_tol),
        ("residual_2", abs(e.Rt), args.res_tol),
        ("energy_drift", d["energy_drift"], 1e-9),
        ("momentum_max", d["momentum_max"], 1e-9),
        ("com_max", d["com_max"], 1e-9),
        ("lz_drift", d["lz_drift"], 1e-9),
    ]
    ok = True
    for name, value, bound in checks:
        good = value <= bound
        ok = ok and good
        print(f"{name:14s} {_g(value):>12s}  (<= {_g(bound)})  {'pass' if good else 'FAIL'}")
    print(f"theta(T)      {_g(e.Theta)}")
    print("verdict       " + ("pass" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_NUMERIC


_COMMANDS = {
    "lambda": _cmd_lambda,
    "bifurcate": _cmd_bifurcate,
    "shoot": _cmd_shoot,
    "trace": _cmd_trace,
    "resonance": _cmd_resonance,
    "orbit": _cmd_orbit,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ResonanceNotFound as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except (ConvergenceError, FlowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
