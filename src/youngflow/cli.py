"""Command-line interface.

One process per invocation: read input files, compute, write outputs,
exit. No long-running service mode; no daemon state. Exit codes:
0 success / check passed, 1 check failed, 2 usage or input errors (a
PathError, OSError or other ValueError: unreadable or unwritable files
included), 3 numeric failures (a NumericFailure or a LinAlgError:
blow-up, overflow, a fold, failed factorization, non-convergence),
4 internal errors (a report that fails its schema or strict JSON, or
any other exception a handler lets escape), reported on one line
without a traceback.

A ``--config FILE`` of ``key=value`` lines supplies defaults for any
long option of the chosen subcommand; explicit command-line flags win.
Boolean options use ``key=true`` / ``key=false``.
"""

from __future__ import annotations

import argparse
import math
import sys
from importlib import import_module

import numpy as np

from . import io as yio
from .paths import DETERMINISTIC_KINDS, GridBox, NumericFailure, PathError, p_variation

USAGE_EXIT = 2
NUMERIC_EXIT = 3
INTERNAL_EXIT = 4


# ------------------------------------------------------- lazy layer names

# The layer names the handlers call, by the module that defines them, and
# the modules each subcommand runs. main binds a subcommand's names into
# this module before it builds the parser, so a call loads no module it
# does not run. A name bound here already, such as a test's or a tracer's
# replacement, is kept, and the handler calls it.
_LAYER_NAMES = {
    "drivers": ("DeterministicSpec", "FbmSpec", "GENERATOR_VERSION", "gen_deterministic",
                "gen_fbm"),
    "integrate": ("young_integral",),
    "builtins": ("get_field", "get_hamiltonian", "get_initial_data", "get_observable",
                 "get_point_map", "get_smooth_map", "get_time_map"),
    "yde": ("SolveConfig", "solve_flow", "solve_yde"),
    "calculus": ("chain_rule_residual", "ito_kunita_residual", "substitution_residual"),
    "symmetry": ("SampleDomain", "check_conserved_algebraic", "check_conserved_trajectory",
                 "check_infinitesimal_symmetry", "check_symmetry_map",
                 "check_symmetry_trajectory"),
    "composition": ("compose_flows",),
    "pde": ("CharStream", "assemble_solution_field", "fold_times", "pde_residual"),
}
_COMMAND_LAYERS = {
    "gen": ("drivers",),
    "integrate": ("integrate",),
    "solve": ("builtins", "yde"),
    "flow": ("builtins", "yde"),
    "check": ("builtins", "yde", "calculus", "symmetry"),
    "compose": ("builtins", "yde", "composition"),
    "pde": ("builtins", "pde"),
}
_MODULE_OF = {name: module for module, names in _LAYER_NAMES.items() for name in names}


def __getattr__(name: str):
    """Import a layer name's module on first use and bind the name here."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __package__), name)
    globals()[name] = value
    return value


def _bind(command: str) -> None:
    for module in _COMMAND_LAYERS.get(command, ()):
        for name in _LAYER_NAMES[module]:
            if name not in globals():
                __getattr__(name)


# --------------------------------------------------------- small parsers

def finite(text: str) -> float:
    """A float that is neither NaN nor infinite; the type of numeric flags."""
    val = float(text)
    if not math.isfinite(val):
        raise PathError(f"{text!r} is not a finite number")
    return val


def positive(text: str) -> float:
    """A finite float > 0; the type of tolerance flags."""
    if finite(text) <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return finite(text)


def positive_int(text: str) -> int:
    """An integer >= 1; the type of count flags (--dim, --slices, --levels, ...)."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return int(text)


def _floats(text: str) -> np.ndarray:
    return np.array([finite(v) for v in text.split(",")])


def _y0(args) -> np.ndarray:
    y0 = _floats(args.y0)
    if y0.size != args.dim:
        raise PathError(f"--y0 needs {args.dim} numbers for --dim {args.dim}, got {y0.size}")
    return y0


def _params(text: str | None) -> dict:
    if not text:
        return {}
    out = {}
    for item in text.split(","):
        key, sep, val = item.partition("=")
        if not sep:
            raise PathError(f"bad parameter {item!r}, expected key=value")
        out[key.strip().replace("-", "_")] = finite(val)
    return out


def _box(text: str, dim: int, flag: str) -> GridBox:
    lows, highs, counts = [], [], []
    for axis in text.split(";"):
        parts = axis.split(":")
        if len(parts) != 3:
            raise PathError(f"bad box axis {axis!r}, expected lo:hi:count")
        lows.append(finite(parts[0]))
        highs.append(finite(parts[1]))
        try:
            counts.append(int(parts[2]))
        except ValueError:
            raise PathError(f"{flag}: count {parts[2]!r} is not an integer") from None
    if len(counts) != dim:
        raise PathError(f"{flag} needs {dim} axes for --dim {dim}, got {len(counts)}")
    try:
        return GridBox(tuple(lows), tuple(highs), tuple(counts))
    except PathError as exc:
        raise PathError(f"{flag}: {exc}") from None


def _domain(args) -> SampleDomain:
    lo, sep, hi = args.domain.partition(":")
    if not sep:
        raise PathError(f"bad domain {args.domain!r}, expected lo:hi")
    return SampleDomain(lower=(finite(lo),) * args.dim, upper=(finite(hi),) * args.dim,
                        count=args.samples, seed=args.domain_seed)


def _emit(payload: dict, out: str | None, schema: str) -> None:
    text = yio.render_json(payload, schema)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _residual_payload(kind: str, rep, extra: dict | None = None) -> dict:
    doc = rep.to_dict()
    doc["check"] = kind
    doc["pass"] = doc["converged"]
    if extra:
        doc["details"] = extra
    return doc


def _check_payload(kind: str, rep) -> dict:
    doc = rep.to_dict()
    doc["check"] = kind
    doc.setdefault("details", {})
    return doc


# ------------------------------------------------------------- handlers

def cmd_gen(args) -> int:
    if args.kind == "fbm":
        if args.seed is None:
            raise PathError("gen fbm needs --seed")
        kwargs = {"hurst": args.hurst, "n_points": args.n, "horizon": args.horizon,
                  "seed": args.seed}
        if args.max_points is not None:
            kwargs["max_points"] = args.max_points
        spec = FbmSpec(**kwargs)
        path = gen_fbm(spec)
        params = {"hurst": spec.hurst, "max_points": spec.max_points}
        seed = int(spec.seed)
    else:
        vertices = tuple(_floats(args.knots)) if args.knots else ()
        spec = DeterministicSpec(kind=args.kind, n_points=args.n, horizon=args.horizon,
                                 alpha=args.alpha, amplitude=args.amplitude,
                                 frequency=args.frequency, vertices=vertices)
        path = gen_deterministic(spec)
        params = {"alpha": spec.alpha, "amplitude": spec.amplitude,
                  "frequency": spec.frequency}
        if vertices:
            params["vertices"] = list(vertices)
        seed = None
    yio.write_path_csv(args.out, path)
    print(f"wrote {args.out} ({path.n_points} points)")
    if args.meta:
        yio.write_json(args.meta, {
            "kind": args.kind, "generator": GENERATOR_VERSION,
            "n_points": path.n_points, "horizon": args.horizon,
            "seed": seed, "params": params,
        }, schema="gen_meta")
    return 0


def cmd_pvar(args) -> int:
    path = yio.read_path_csv(args.path)
    with np.errstate(over="ignore", invalid="ignore"):
        res = p_variation(path, args.p)
        sup = path.sup_norm()
    norm = res.value + sup  # p_variation_norm, without a second DP
    if math.isinf(norm):  # sums of norms overflow to +inf; a NaN would be a fault
        raise NumericFailure("the p-variation norm overflowed the float range")
    _emit({
        "p": args.p,
        "value": res.value,
        "norm": norm,
        "sup_norm": sup,
        "optimal_partition": [int(i) for i in res.optimal_partition.indices],
        "n_points": path.n_points,
    }, args.out, schema="pvar")
    return 0


def cmd_integrate(args) -> int:
    Z = yio.read_path_csv(args.integrand)
    X = yio.read_path_csv(args.driver)
    interval = tuple(args.interval) if args.interval else None
    with np.errstate(over="ignore", invalid="ignore"):
        res = young_integral(Z, X, interval=interval, tag=args.tag, p=args.p, q=args.q)
    if not np.isfinite(np.append(res.value, res.certified_bound or 0.0)).all():
        raise NumericFailure("the integral or its bound overflowed the float range")
    span = interval or (float(X.times[0]), float(X.times[-1]))
    _emit({
        "value": [float(v) for v in np.atleast_1d(res.value)],
        "tag": args.tag,
        "interval": [float(span[0]), float(span[1])],
        "certified_bound": res.certified_bound,
        "p": args.p, "q": args.q,
        "partition_mesh": res.partition_mesh,
    }, args.out, schema="integral")
    return 0


def _cfg(args) -> SolveConfig:
    return SolveConfig(substeps_per_interval=args.substeps)


def cmd_solve(args) -> int:
    field = get_field(args.field, args.dim, _params(args.params))
    X = yio.read_path_csv(args.driver)
    Y = solve_yde(field, X, _y0(args), _cfg(args))
    yio.write_path_csv(args.out, Y)
    print(f"wrote {args.out} ({Y.n_points} points)")
    return 0


def cmd_flow(args) -> int:
    field = get_field(args.field, args.dim, _params(args.params))
    X = yio.read_path_csv(args.driver)
    pts = _box(args.grid, args.dim, "--grid").points()
    flow = solve_flow(field, X, pts, _cfg(args), jacobian_history=False)  # never written
    yio.write_flow_map(args.out, flow)
    print(f"wrote {args.out} ({pts.shape[0]} trajectories)")
    return 0


def _require(kind: str, **flags) -> None:
    missing = ["--" + name.replace("_", "-") for name, val in flags.items() if val is None]
    if missing:
        raise PathError(f"check {kind} needs {', '.join(missing)}")


def cmd_check(args) -> int:
    kind = args.kind
    if kind == "chain":
        _require(kind, map=args.map, driver=args.driver)
        g = get_smooth_map(args.map, args.dim, _params(args.params))
        Z = yio.read_path_csv(args.driver)
        rep = chain_rule_residual(g, Z, levels=args.levels, tag=args.tag)
        payload = _residual_payload(kind, rep)
    elif kind == "ito":
        _require(kind, map=args.map, driver_z=args.driver_z, driver_x=args.driver_x)
        g0 = get_smooth_map(args.map, args.dim, _params(args.params))
        h = get_time_map(args.time_map, args.dim)
        Z = yio.read_path_csv(args.driver_z)
        X = yio.read_path_csv(args.driver_x)
        rep = ito_kunita_residual(g0, h, Z, X, levels=args.levels, tag=args.tag)
        payload = _residual_payload(kind, rep)
    elif kind == "substitution":
        _require(kind, g_path=args.g_path, f_path=args.f_path, driver=args.driver)
        g = yio.read_path_csv(args.g_path)
        f = yio.read_path_csv(args.f_path)
        Z = yio.read_path_csv(args.driver)
        rep = substitution_residual(g, f, Z, levels=args.levels, tag=args.tag)
        payload = _residual_payload(kind, rep)
    elif kind == "conserved":
        _require(kind, field=args.field)
        F = get_observable(args.observable, args.dim)
        field = get_field(args.field, args.dim, _params(args.params))
        if args.mode == "algebraic":
            rep = check_conserved_algebraic(F, field, _domain(args), tol=args.tol)
            payload = _check_payload(kind, rep)
        else:
            _require(kind, driver=args.driver, y0=args.y0)
            X = yio.read_path_csv(args.driver)
            rep = check_conserved_trajectory(F, field, X, _y0(args), _cfg(args), levels=args.levels)
            payload = _residual_payload(kind, rep)
    elif kind == "symmetry":
        _require(kind, map=args.map, field=args.field)
        Phi = get_point_map(args.map, args.dim, _params(args.map_params))
        field = get_field(args.field, args.dim, _params(args.params))
        if args.mode == "algebraic":
            rep = check_symmetry_map(Phi, field, _domain(args), tol=args.tol)
            payload = _check_payload(kind, rep)
        else:
            _require(kind, driver=args.driver, y0=args.y0)
            X = yio.read_path_csv(args.driver)
            rep = check_symmetry_trajectory(Phi, field, X, _y0(args), _cfg(args), levels=args.levels)
            payload = _residual_payload(kind, rep)
    else:  # infinitesimal
        _require(kind, generator=args.generator, field=args.field)
        cfg = _cfg(args)
        g = get_field(args.generator, args.dim, _params(args.generator_params))
        field = get_field(args.field, args.dim, _params(args.params))
        with np.errstate(over="ignore", invalid="ignore"):
            rep = check_infinitesimal_symmetry(
                g, field, _domain(args), flow_times=tuple(_floats(args.flow_times)),
                tol=args.tol, flow_tol=args.flow_tol, cfg=cfg)
        if not math.isfinite(rep.max_residual):  # say, the flow of g blows up on the domain
            raise NumericFailure("the infinitesimal check's residual overflowed the float range")
        payload = _check_payload(kind, rep)
    schema = "residual" if "levels" in payload else "check"
    _emit(payload, args.out, schema=schema)
    return 0 if payload["pass"] else 1


def cmd_compose(args) -> int:
    f = get_field(args.outer_field, args.dim, _params(args.outer_params))
    g = get_field(args.inner_field, args.dim, _params(args.inner_params))
    U = yio.read_path_csv(args.outer_driver)
    X = yio.read_path_csv(args.inner_driver)
    y0 = _y0(args)
    comp, direct, rep = compose_flows(f, U, g, X, y0, _cfg(args), levels=args.levels,
                                      newton_tol=args.newton_tol)
    doc = rep.to_dict()
    _emit({
        "y0": [float(v) for v in y0],
        "final_composed": [float(v) for v in comp.values[-1]],
        "final_direct": [float(v) for v in direct.values[-1]],
        "max_deviation": rep.final_residual,
        "levels": doc["levels"],
        "converged": doc["converged"],
    }, args.out, schema="compose")
    return 0 if rep.converged else 1


def _pde_inputs(args):
    H = get_hamiltonian(args.hamiltonian, args.dim, _params(args.params))
    phi = get_initial_data(args.init, args.dim, _params(args.init_params))
    X = yio.read_path_csv(args.driver)
    return H, phi, X, _box(args.box, args.dim, "--box")


def _slice_indices(n_points: int, slices: int) -> np.ndarray:
    """Grid indices of `slices` evenly spaced times, duplicates dropped.

    The rounded linspace is sorted, so dropping adjacent repeats gives
    np.unique's indices without its import of numpy.ma.
    """
    idx = np.linspace(0, n_points - 1, slices).round().astype(int)
    return idx[np.concatenate(([True], idx[1:] != idx[:-1]))]


def cmd_pde(args) -> int:
    H, phi, X, box = _pde_inputs(args)
    if args.pde_cmd == "caustic":
        tau, folded = fold_times(H, X, phi, box, substeps=args.substeps)
        _emit({
            "tau_map": yio.jsonable_times(tau.reshape(box.counts)),
            "min_tau": float(tau.min()),
            "n_folded": int(folded.sum()),
            "horizon": float(X.times[-1]),
            "box": {"lower": list(box.lower), "upper": list(box.upper),
                    "counts": list(box.counts)},
        }, args.out, schema="caustic")
        return 0
    stream = CharStream(H, X, phi, box, substeps=args.substeps)
    pts = _box(args.eval, args.dim, "--eval").points()
    if args.pde_cmd == "solve":
        idx = _slice_indices(X.n_points, args.slices)
        sol = assemble_solution_field(stream, pts, times=X.times[idx],
                                      newton_tol=args.newton_tol)
        yio.write_solution_field(args.out, sol)
        print(f"wrote {args.out} ({idx.size} slices)")
        return 0
    sol = assemble_solution_field(stream, pts, newton_tol=args.newton_tol)
    rep = pde_residual(sol, H, X, phi, levels=args.levels)
    _emit(_residual_payload("pde", rep), args.out, schema="residual")
    return 0 if rep.converged else 1


# --------------------------------------------------------------- parser

def _add_common(p, out_required=False, out_help="output file"):
    p.add_argument("--config", help="key=value file of option defaults")
    p.add_argument("--out", "-o", required=out_required, help=out_help)


def _add_solver_flags(p):
    p.add_argument("--substeps", type=positive_int, default=1,
                   help="Euler substeps per driver interval")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="youngflow", allow_abbrev=False,
                                  description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", allow_abbrev=False, help="generate driver paths")
    p.add_argument("kind", choices=("fbm",) + DETERMINISTIC_KINDS)
    p.add_argument("--n", type=int, required=True, help="grid points")
    p.add_argument("--horizon", type=finite, default=1.0)
    p.add_argument("--hurst", type=finite, default=0.75)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-points", type=int, default=None,
                   help="fBm size cap override")
    p.add_argument("--alpha", type=finite, default=2.0)
    p.add_argument("--amplitude", type=finite, default=1.0)
    p.add_argument("--frequency", type=finite, default=1.0)
    p.add_argument("--knots", help="comma-separated polygonal vertices")
    p.add_argument("--meta", help="sidecar metadata JSON")
    _add_common(p, out_required=True, out_help="output CSV")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("pvar", allow_abbrev=False, help="p-variation of a path")
    p.add_argument("--path", required=True, help="input CSV")
    p.add_argument("--p", type=finite, required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_pvar)

    p = sub.add_parser("integrate", allow_abbrev=False, help="Young integral of Z against X")
    p.add_argument("--integrand", required=True, help="Z path CSV")
    p.add_argument("--driver", required=True, help="X path CSV")
    p.add_argument("--tag", default="left", choices=("left", "right", "midpoint-time"))
    p.add_argument("--interval", type=finite, nargs=2, metavar=("S", "T"))
    p.add_argument("--p", type=finite, default=None, help="driver variation exponent")
    p.add_argument("--q", type=finite, default=None, help="integrand variation exponent")
    _add_common(p)
    p.set_defaults(handler=cmd_integrate)

    p = sub.add_parser("solve", allow_abbrev=False, help="solve dY = f(Y) dX")
    p.add_argument("--field", required=True)
    p.add_argument("--dim", type=positive_int, required=True)
    p.add_argument("--params", help="field parameters key=value,...")
    p.add_argument("--driver", required=True)
    p.add_argument("--y0", required=True, help="comma-separated initial point")
    _add_solver_flags(p)
    _add_common(p, out_required=True, out_help="solution CSV")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("flow", allow_abbrev=False, help="flow map over an initial grid")
    p.add_argument("--field", required=True)
    p.add_argument("--dim", type=positive_int, required=True)
    p.add_argument("--params")
    p.add_argument("--driver", required=True)
    p.add_argument("--grid", required=True, help="lo:hi:count[;lo:hi:count...]")
    _add_solver_flags(p)
    _add_common(p, out_required=True, out_help="output directory")
    p.set_defaults(handler=cmd_flow)

    p = sub.add_parser("check", allow_abbrev=False, help="calculus and symmetry checks")
    p.add_argument("kind", choices=("ito", "chain", "substitution", "conserved",
                                    "symmetry", "infinitesimal"))
    p.add_argument("--dim", type=positive_int, default=1)
    p.add_argument("--map", "--g", help="smooth map / point map builtin")
    p.add_argument("--map-params")
    p.add_argument("--time-map", default="modulated-sin")
    p.add_argument("--observable", default="norm2")
    p.add_argument("--field")
    p.add_argument("--params")
    p.add_argument("--generator", help="candidate symmetry generator field")
    p.add_argument("--generator-params")
    p.add_argument("--driver", "--path",
                   help="driver CSV (chain/substitution/trajectory modes)")
    p.add_argument("--driver-z", help="field-evolution driver CSV (ito)")
    p.add_argument("--driver-x", help="space-path driver CSV (ito)")
    p.add_argument("--g-path", help="outer operator path CSV (substitution)")
    p.add_argument("--f-path", help="inner operator path CSV (substitution)")
    p.add_argument("--y0", help="initial point for trajectory modes")
    p.add_argument("--mode", choices=("algebraic", "trajectory"), default="algebraic")
    p.add_argument("--domain", default="-1:1", help="sample box lo:hi (all axes)")
    p.add_argument("--samples", type=positive_int, default=128)
    p.add_argument("--domain-seed", type=int, default=0)
    p.add_argument("--tol", type=finite, default=None)
    p.add_argument("--flow-tol", type=finite, default=1e-6)
    p.add_argument("--flow-times", default="0.5,1.0")
    p.add_argument("--levels", type=positive_int, default=4)
    p.add_argument("--tag", default="left", choices=("left", "right", "midpoint-time"))
    _add_solver_flags(p)
    _add_common(p)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("compose", allow_abbrev=False,
                       help="composed vs direct flow of two systems")
    p.add_argument("--outer-field", required=True)
    p.add_argument("--outer-params")
    p.add_argument("--outer-driver", required=True, help="U path CSV")
    p.add_argument("--inner-field", required=True)
    p.add_argument("--inner-params")
    p.add_argument("--inner-driver", required=True, help="X path CSV")
    p.add_argument("--dim", type=positive_int, required=True)
    p.add_argument("--y0", required=True)
    p.add_argument("--levels", type=positive_int, default=4)
    p.add_argument("--newton-tol", type=positive, default=1e-10)
    _add_solver_flags(p)
    _add_common(p)
    p.set_defaults(handler=cmd_compose)

    p = sub.add_parser("pde", allow_abbrev=False,
                       help="first-order systems by characteristics")
    psub = p.add_subparsers(dest="pde_cmd", required=True)
    for name in ("solve", "residual", "caustic"):
        q = psub.add_parser(name, allow_abbrev=False)
        q.add_argument("--hamiltonian", required=True)
        q.add_argument("--params")
        q.add_argument("--init", required=True, help="initial data builtin")
        q.add_argument("--init-params")
        q.add_argument("--dim", type=positive_int, default=1)
        q.add_argument("--driver", required=True)
        q.add_argument("--box", required=True, help="seed box lo:hi:count[;...]")
        if name != "caustic":  # fold_times never inverts
            q.add_argument("--newton-tol", type=positive, default=1e-10)
        _add_solver_flags(q)
        if name == "solve":
            q.add_argument("--eval", required=True, help="evaluation box lo:hi:count[;...]")
            q.add_argument("--slices", type=positive_int, default=9)
            _add_common(q, out_required=True, out_help="output directory")
        elif name == "residual":
            q.add_argument("--eval", required=True)
            q.add_argument("--levels", type=positive_int, default=3)
            _add_common(q)
        else:
            _add_common(q)
        q.set_defaults(handler=cmd_pde)
    return top


# ------------------------------------------------------- config merging

def _config_argv(fname: str, argv: list) -> list:
    extra = []
    with open(fname) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise PathError(f"bad config line {line!r}, expected key=value")
            key, val = key.strip(), val.strip()
            flag = f"--{key}"
            if any(tok == flag or tok.startswith(flag + "=") for tok in argv):
                continue  # explicit flag wins
            if val.lower() == "true":
                extra.append(flag)
            elif val.lower() == "false":
                continue
            else:
                extra.extend([flag, val])
    return extra


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _bind(argv[0] if argv else "")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args = parser.parse_args(argv + _config_argv(args.config, argv))
        return args.handler(args)
    except (NumericFailure, np.linalg.LinAlgError) as exc:
        # before the usage errors: np.linalg.LinAlgError subclasses ValueError
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except (PathError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except Exception as exc:  # a fault of the program, yio.SchemaError included
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
