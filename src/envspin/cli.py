"""Command-line front end: validate specs, simulate, couple, run the exact
oracle, and drive experiment scenarios.

Every command that writes data also writes a manifest (<out>.manifest.json)
recording the resolved spec, parameters, seed and output paths; `envspin
replay MANIFEST` re-runs the command and reproduces the data files byte for
byte (timestamps and runtime fields live only in the manifest and reports).

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 numerical flag
(rank ambiguity or non-convergence in the oracle).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, experiments, graphical, oracle
from .coupling import CoupledSpec, simulate_coupled
from .lattice import JointState
from .rates import ConfigError, format_config, parse_boundary, parse_config, preset

MANIFEST_VERSION = 1

_PRESET_FLAGS = {
    "gamma": float,
    "delta0": float,
    "delta1": float,
    "p": float,
    "lam": float,
    "delta": float,
    "up": float,
    "down": float,
    "flip": float,
}


def _add_spec_args(p):
    p.add_argument("--config", help="model config file")
    p.add_argument("--preset", help="preset name: cpree, contact, remark_iv, remark_vi")
    p.add_argument("--gamma", type=float)
    p.add_argument("--delta0", type=float)
    p.add_argument("--delta1", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--up", type=float)
    p.add_argument("--down", type=float)
    p.add_argument("--flip", type=float)
    p.add_argument("--sites", type=int, default=16)
    p.add_argument("--boundary", default=None, help="periodic | frozen:L|R | frozen:eL|eR;sL|sR")


def build_parser():
    parser = argparse.ArgumentParser(prog="envspin", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model spec and print its constants")
    _add_spec_args(p)

    p = sub.add_parser("simulate", help="one mark-driven trajectory of the pair chain")
    _add_spec_args(p)
    p.add_argument("--tmax", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--init-beta", default=None, help="background start bits (default all zeros)")
    p.add_argument("--init-eta", default=None, help="spin start bits (default all ones)")
    p.add_argument("--out", default="run")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("couple", help="one coupled trajectory with 3 or 4 spin layers")
    _add_spec_args(p)
    p.add_argument("--layers", type=int, choices=(1, 3, 4, 5), default=3,
                   help="spin layers; 5 means the full five-coordinate stack (4 spin layers)")
    p.add_argument("--tmax", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="run")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("oracle", help="exact generator, stationary set and invariant limits")
    _add_spec_args(p)
    p.add_argument("--out", default="run")

    p = sub.add_parser("scenario", help="experiment scenarios")
    p.add_argument("name", choices=("iv", "vi", "coalescence", "density", "run-decay", "interval-bounds"))
    _add_spec_args(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--replicas", type=int, default=10000)
    p.add_argument("--tmax", type=float, default=10.0)
    p.add_argument("--window", type=int, default=2, help="half-width k of the recentred window")
    p.add_argument("--tgrid", default="0,1,2,4,8", help="comma-separated time grid")
    p.add_argument("--beta0", default=None, help="background start bits")
    p.add_argument("--out", default="run")

    p = sub.add_parser("replay", help="re-run a command from its manifest")
    p.add_argument("manifest")
    p.add_argument("--out", default=None, help="override the output prefix")
    return parser


def _resolve_seed(args):
    """Flags win; the sole environment override supplies the default seed."""
    if getattr(args, "seed", None) is not None:
        return args.seed
    return int(os.environ.get("ENVSPIN_SEED", "0"))


def _resolve_spec(args, parser):
    if args.config and args.preset:
        parser.error("--config conflicts with --preset")
    if args.config:
        text = Path(args.config).read_text()
        try:
            return parse_config(text)
        except ConfigError as err:
            print("config error: %s" % err, file=sys.stderr)
            raise SystemExit(2) from None
    if args.preset:
        params = {
            name: getattr(args, name)
            for name in _PRESET_FLAGS
            if getattr(args, name, None) is not None
        }
        boundary = parse_boundary(args.boundary) if args.boundary else None
        try:
            return preset(args.preset, sites=args.sites, boundary=boundary, **params)
        except ValueError as err:
            print("invalid preset: %s" % err, file=sys.stderr)
            raise SystemExit(1) from None
    parser.error("one of --config or --preset is required")


def _manifest(command, spec, params, outputs, seed=None, replay_args=()):
    """`replay_args` hold every CLI token except the spec and output flags;
    the spec is replayed from the inlined resolved config."""
    return {
        "manifest_version": MANIFEST_VERSION,
        "command": command,
        "resolved_config": format_config(spec) if spec is not None else None,
        "params": params,
        "seed": seed,
        "replay_args": list(replay_args),
        "outputs": [str(p) for p in outputs],
        "versions": {
            "envspin": __version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _write_manifest(prefix, manifest):
    path = Path(str(prefix) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _trajectory_json(traj):
    return json.dumps(
        {
            "t_max": traj.t_max,
            "initial": {k: v.to_literal() for k, v in traj.initial.items()},
            "final": {k: v.to_literal() for k, v in traj.final.items()},
            "events": traj.to_records(),
        },
        indent=2,
    ) + "\n"


def _write_trajectory(traj, prefix, fmt):
    if fmt == "json":
        path = Path(str(prefix) + ".json")
        path.write_text(_trajectory_json(traj))
    else:
        path = Path(str(prefix) + ".csv")
        path.write_text(traj.to_csv_text())
    return path


def cmd_validate(args, parser):
    spec = _resolve_spec(args, parser)
    problems = spec.validate()
    for note in spec.warnings():
        print("warning: %s" % note)
    if problems:
        for p in problems:
            print("violation: %s" % p)
        return 1
    c = spec.constants()
    print("ok: attractive and compatible")
    print("C=%g K=%g b_bar=%g c_bar0=%g c_bar1=%g c_bar=%g c_hat=%g"
          % (c.C, c.K, c.b_bar, c.c_bar0, c.c_bar1, c.c_bar, c.c_hat))
    return 0


def cmd_simulate(args, parser):
    spec = _resolve_spec(args, parser)
    spec.require_valid()
    args.seed = _resolve_seed(args)
    beta0 = spec.env_config(args.init_beta if args.init_beta else (0,) * spec.size)
    eta0 = spec.spin_config(args.init_eta if args.init_eta else (1,) * spec.size)
    stream = graphical.generate_streams(spec, args.seed, args.tmax)
    btraj = graphical.evolve_background(beta0, stream)
    traj = graphical.evolve_spins(btraj, [eta0], stream)
    out = _write_trajectory(traj, args.out, args.format)
    params = {
        "tmax": args.tmax,
        "format": args.format,
        "init_beta": beta0.to_literal(),
        "init_eta": eta0.to_literal(),
    }
    replay = [
        "simulate", "--tmax", repr(args.tmax), "--seed", str(args.seed),
        "--format", args.format,
    ]
    if args.init_beta:
        replay += ["--init-beta", args.init_beta]
    if args.init_eta:
        replay += ["--init-eta", args.init_eta]
    _write_manifest(
        args.out, _manifest("simulate", spec, params, [out], seed=args.seed, replay_args=replay)
    )
    print("wrote %s (%d events)" % (out, len(traj.events)))
    return 0


def _default_coupled_initial(spec, n_layers):
    n = spec.size
    zero = spec.spin_config((0,) * n)
    one = spec.spin_config((1,) * n)
    alt = spec.spin_config(tuple(x % 2 for x in range(n)))
    tla = spec.spin_config(tuple((x + 1) % 2 for x in range(n)))
    layers = {
        1: (one,),
        3: (zero, alt, one),
        4: (zero, alt, tla, one),
    }[n_layers]
    return JointState(spec.env_config((0,) * n), layers)


def cmd_couple(args, parser):
    spec = _resolve_spec(args, parser)
    spec.require_valid()
    args.seed = _resolve_seed(args)
    arity = 4 if args.layers == 5 else args.layers
    initial = _default_coupled_initial(spec, arity)
    traj = simulate_coupled(CoupledSpec(spec, arity), initial, args.seed, args.tmax)
    out = _write_trajectory(traj, args.out, args.format)
    params = {"tmax": args.tmax, "format": args.format, "layers": args.layers}
    replay = [
        "couple", "--layers", str(args.layers), "--tmax", repr(args.tmax),
        "--seed", str(args.seed), "--format", args.format,
    ]
    _write_manifest(
        args.out, _manifest("couple", spec, params, [out], seed=args.seed, replay_args=replay)
    )
    print("wrote %s (%d events)" % (out, len(traj.events)))
    return 0


def cmd_oracle(args, parser):
    spec = _resolve_spec(args, parser)
    spec.require_valid()
    try:
        G = oracle.build_generator(spec)
    except ValueError as err:
        print("oracle error: %s" % err, file=sys.stderr)
        return 2
    S = oracle.stationary_set(G)
    L = oracle.limit_distributions(G)
    prefix = args.out
    outputs = []
    path = Path(prefix + ".generator.csv")
    path.write_text(G.to_csv_text())
    outputs.append(path)
    for k, dist in enumerate(S.distributions):
        path = Path("%s.stationary%d.csv" % (prefix, k))
        path.write_text(oracle.dump_distribution_csv(dist))
        outputs.append(path)
    for name, dist in (("nu0", L.lower), ("nu1", L.upper)):
        path = Path("%s.%s.csv" % (prefix, name))
        path.write_text(oracle.dump_distribution_csv(dist))
        outputs.append(path)
    summary = {
        "dim": G.dim,
        "stationary_dimension": S.dimension,
        "flagged": S.flagged,
        "notes": S.notes,
        "svd_null_dim": S.svd_null_dim,
        "tv_nu0_nu1": L.tv_distance,
        "limits_converged": L.converged,
        "t_lower": L.t_lower,
        "t_upper": L.t_upper,
    }
    path = Path(prefix + ".summary.json")
    path.write_text(json.dumps(summary, indent=2) + "\n")
    outputs.append(path)
    _write_manifest(prefix, _manifest("oracle", spec, {}, outputs, replay_args=["oracle"]))
    print("stationary dimension %d, TV(nu0, nu1) = %g" % (S.dimension, L.tv_distance))
    if S.flagged or not L.converged:
        print("numerical flag raised: %s" % "; ".join(S.notes) if S.notes else "non-convergence")
        return 3
    return 0


def cmd_scenario(args, parser):
    prefix = args.out
    outputs = []
    extra_files = {}
    if args.name in ("iv", "vi"):
        preset_name = "remark_iv" if args.name == "iv" else "remark_vi"
        if args.preset is None and args.config is None:
            args.preset = preset_name
            args.sites = args.sites if args.sites != 16 else 5
        spec = _resolve_spec(args, parser)
        report = experiments.scenario_remarks(args.name, spec=spec)
        payload = json.dumps(report, indent=2) + "\n"
        params = {"name": args.name, "sites": spec.size}
        seed = None
        replay = ["scenario", args.name]
    else:
        spec = _resolve_spec(args, parser)
        spec.require_valid()
        args.seed = _resolve_seed(args)
        seed = args.seed
        if args.name == "coalescence":
            beta0 = args.beta0 if args.beta0 else "0" * spec.size
            rep = experiments.estimate_coalescence(
                spec, beta0, args.window, args.tmax, args.replicas, args.seed
            )
        elif args.name == "density":
            grid = [float(v) for v in args.tgrid.split(",")]
            rep = experiments.density_curves(spec, grid, args.replicas, args.seed)
            extra_files[prefix + ".curve.csv"] = experiments.density_csv_text(rep)
        elif args.name == "run-decay":
            n = spec.size
            windows = [(n // 2 - w, n // 2 + w) for w in (1, 2, 4) if n // 2 - w > 0 and n // 2 + w < n - 1]
            rep = experiments.run_length_decay(spec, windows, args.tmax, args.replicas, args.seed)
            extra_files[prefix + ".curve.csv"] = experiments.run_decay_csv_text(rep)
        elif args.name == "interval-bounds":
            m, n = spec.size // 3, 2 * spec.size // 3
            rep = experiments.interval_inequality_check(
                spec, args.tmax, args.replicas, args.seed, m, n, l=1
            )
        payload = rep.to_json()
        params = {"name": args.name, "tmax": args.tmax, "replicas": args.replicas,
                  "window": args.window, "tgrid": args.tgrid, "beta0": args.beta0}
        replay = [
            "scenario", args.name, "--seed", str(args.seed),
            "--replicas", str(args.replicas), "--tmax", repr(args.tmax),
            "--window", str(args.window), "--tgrid", args.tgrid,
        ]
        if args.beta0:
            replay += ["--beta0", args.beta0]
    path = Path(prefix + ".report.json")
    path.write_text(payload)
    outputs.append(path)
    for fname, text in extra_files.items():
        Path(fname).write_text(text)
        outputs.append(Path(fname))
    _write_manifest(
        prefix, _manifest("scenario", spec, params, outputs, seed=seed, replay_args=replay)
    )
    print("wrote %s" % path)
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "simulate": cmd_simulate,
    "couple": cmd_couple,
    "oracle": cmd_oracle,
    "scenario": cmd_scenario,
}


def cmd_replay(args, parser):
    manifest = json.loads(Path(args.manifest).read_text())
    if manifest.get("manifest_version") != MANIFEST_VERSION:
        print("unsupported manifest version", file=sys.stderr)
        return 2
    prefix = args.out
    if prefix is None:
        prefix = str(Path(args.manifest))[: -len(".manifest.json")]
    argv = list(manifest["replay_args"])
    if manifest.get("resolved_config"):
        cfg_path = Path(prefix + ".replay.config")
        cfg_path.write_text(manifest["resolved_config"])
        argv += ["--config", str(cfg_path)]
    argv += ["--out", prefix]
    return main(argv)


def main(argv=None):
    """Returns the exit code; argparse usage errors raise SystemExit(2)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            return cmd_replay(args, parser)
        return _COMMANDS[args.command](args, parser)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
