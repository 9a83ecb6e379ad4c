"""Command-line front end: validate specs, simulate, couple, run the exact
oracle, and drive experiment scenarios.

Every command that writes data also writes a manifest (<out>.manifest.json)
recording the resolved spec, parameters, seed and output paths; `envspin
replay MANIFEST` re-runs the command and reproduces the data files byte for
byte (timestamps and runtime fields live only in the manifest and reports).
The commands only compute; `main` writes their data files, then the
manifest, then prints their stdout lines.  A refusal is one stderr line and
writes no file.  Exit codes and refusal prefixes:
  0  success;
  1  validation failure: `invalid preset`, `invalid model`; `validate`
     prints its `violation` lines on stdout;
  2  input error: `config error` (also a bad ENVSPIN_SEED), `simulate
     error`, `couple error` (a horizon over the event budget, as for
     `simulate`), `oracle error`, `scenario error` (also a horizon, --tmax
     or the last --tgrid time, over the event budget), `replay error`,
     `output error`, and argparse usage errors (a usage line, then the
     message), among them a negative --seed;
  3  numerical flag: a failed class certificate or residual, or
     non-convergence in the oracle, printed after its outputs are written.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__, experiments, graphical, oracle
from .coupling import CoupledSpec, simulate_coupled
from .lattice import JointState
from .rates import ConfigError, format_config, parse_boundary, parse_config, preset

MANIFEST_VERSION = 1

# preset parameter -> its float-valued flag
_PRESET_FLAGS = {
    "gamma": "--gamma",
    "delta0": "--delta0",
    "delta1": "--delta1",
    "p": "--p",
    "lam": "--lambda",
    "delta": "--delta",
    "up": "--up",
    "down": "--down",
    "flip": "--flip",
}


class Refusal(Exception):
    """Refusal(message, code): a run refused before it wrote anything.  `main`
    prints the one-line message to stderr and exits with the code, 2 for an
    input error and 1 for a validation failure."""


def _at_least(kind, low):
    """An argparse type converting by `kind` and refusing values below `low`, NaN and infinities."""
    def convert(text):
        value = kind(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError("must be finite and at least %r, got %r" % (low, text))
        return value
    convert.__name__ = kind.__name__  # argparse names the type in "invalid float value"
    return convert


def _add_spec_args(p):
    p.add_argument("--config", help="model config file")
    p.add_argument("--preset", help="preset name: cpree, contact, remark_iv, remark_vi")
    for name, flag in _PRESET_FLAGS.items():
        p.add_argument(flag, dest=name, type=float)
    p.add_argument("--sites", type=_at_least(int, 1), default=None,
                   help="window size of a preset (default 16; 5 for scenario iv and vi)")
    p.add_argument("--boundary", default=None, help="periodic | frozen:L|R | frozen:eL|eR;sL|sR")


@lru_cache(maxsize=None)
def build_parser():
    """The `envspin` argument parser, built once per process: parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="envspin", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model spec and print its constants")
    _add_spec_args(p)

    p = sub.add_parser("simulate", help="one mark-driven trajectory of the pair chain")
    _add_spec_args(p)
    p.add_argument("--tmax", type=_at_least(float, 0.0), default=10.0)
    p.add_argument("--seed", type=_at_least(int, 0), default=None)
    p.add_argument("--init-beta", default=None, help="background start bits (default all zeros)")
    p.add_argument("--init-eta", default=None, help="spin start bits (default all ones)")
    p.add_argument("--out", default="run")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("couple", help="one coupled trajectory with 1, 3 or 4 spin layers")
    _add_spec_args(p)
    p.add_argument("--layers", type=int, choices=(1, 3, 4, 5), default=3,
                   help="spin layers: 1, 3 or 4; 5 names the full five-coordinate stack"
                   " and runs the same 4 spin layers as 4")
    p.add_argument("--tmax", type=_at_least(float, 0.0), default=10.0)
    p.add_argument("--seed", type=_at_least(int, 0), default=None)
    p.add_argument("--out", default="run")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("oracle", help="exact generator, stationary set and invariant limits")
    _add_spec_args(p)
    p.add_argument("--out", default="run")

    p = sub.add_parser("scenario", help="experiment scenarios")
    p.add_argument("name", choices=("iv", "vi", "coalescence", "density", "run-decay", "interval-bounds"))
    _add_spec_args(p)
    p.add_argument("--seed", type=_at_least(int, 0), default=None)
    p.add_argument("--replicas", type=_at_least(int, 1), default=10000)
    p.add_argument("--tmax", type=_at_least(float, 0.0), default=10.0)
    p.add_argument("--window", type=int, default=2, help="half-width k of the recentred window")
    p.add_argument("--tgrid", default="0,1,2,4,8", help="comma-separated time grid")
    p.add_argument("--beta0", default=None, help="background start bits")
    p.add_argument("--out", default="run")

    p = sub.add_parser("replay", help="re-run a command from its manifest")
    p.add_argument("manifest")
    p.add_argument("--out", default=None, help="override the output prefix")
    return parser


def _resolve_seed(args):
    """Flags win; the sole environment override supplies the default seed,
    refused unless it is an integer at least 0."""
    if getattr(args, "seed", None) is not None:
        return args.seed
    text = os.environ.get("ENVSPIN_SEED", "0")
    try:
        return _at_least(int, 0)(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise Refusal("config error: ENVSPIN_SEED must be an integer at least 0, got %r" % text, 2) from None


def _resolve_spec(args, parser, sites=16):
    """`sites` is the preset window size when --sites is omitted."""
    if args.config and args.preset:
        parser.error("--config conflicts with --preset")
    if not (args.config or args.preset):
        parser.error("one of --config or --preset is required")
    params = {name: getattr(args, name) for name in _PRESET_FLAGS if getattr(args, name, None) is not None}
    try:
        if args.config:
            # a replay holds its manifest's config in memory until its outputs are written
            return parse_config(getattr(args, "resolved_config", None) or Path(args.config).read_text())
        boundary = parse_boundary(args.boundary) if args.boundary else None
        return preset(args.preset, sites=sites if args.sites is None else args.sites, boundary=boundary, **params)
    except (ConfigError, OSError) as err:
        # an unreadable or malformed file or boundary, an unknown preset or a parameter it does not take
        raise Refusal("config error: %s" % err, 2) from None
    except KeyError as err:
        # a required preset parameter that no flag gave
        name = err.args[0]
        raise Refusal("config error: preset %s needs %s" % (args.preset, _PRESET_FLAGS.get(name, name)), 2) from None
    except ValueError as err:
        raise Refusal("invalid preset: %s" % err, 1) from None


def _valid_spec(args, parser):
    """The resolved spec of a command that runs the model, refused unless
    it is attractive and compatible."""
    spec = _resolve_spec(args, parser)
    problems = spec.validate()
    if problems:
        raise Refusal("invalid model: %s" % "; ".join(problems), 1)
    return spec


# options that make up the spec, and a replay's config text; the manifest
# inlines the resolved config instead
_SPEC_OPTIONS = {"config", "preset", "sites", "boundary", "resolved_config", *_PRESET_FLAGS}


def _write_manifest(args, spec, outputs):
    """Write <out>.manifest.json from the parsed options.  `params` holds every
    option except the spec options and --out, and `replay_args` the same
    options as CLI tokens (floats by repr, so replays are exact); the spec is
    replayed from the inlined resolved config.  Each of those options' flag
    must be its dest with "-" for "_"; `name` is the scenario positional."""
    params = {k: v for k, v in vars(args).items() if k not in _SPEC_OPTIONS | {"command", "out"}}
    replay = [args.command]
    for key, value in params.items():
        if key == "name":
            replay.append(value)
        elif value is not None:
            replay += ["--" + key.replace("_", "-"), repr(value) if isinstance(value, float) else str(value)]
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "command": args.command,
        "resolved_config": format_config(spec),
        "params": params,
        "seed": getattr(args, "seed", None),
        "replay_args": replay,
        "outputs": [str(p) for p in outputs],
        "versions": {
            "envspin": __version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    Path(args.out + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _trajectory_output(args, spec, traj):
    """What `simulate` and `couple` return: the trajectory as one file in --format."""
    if args.format == "json":
        text = json.dumps(
            {
                "t_max": traj.t_max,
                "initial": {k: v.to_literal() for k, v in traj.initial.items()},
                "final": {k: v.to_literal() for k, v in traj.final.items()},
                "events": traj.to_records(),
            },
            indent=2,
        ) + "\n"
    else:
        text = traj.to_csv_text()
    suffix = "." + args.format
    return spec, {suffix: text}, ["wrote %s (%d events)" % (Path(args.out + suffix), len(traj.events))], 0


# Each command returns (spec, {data file suffix: text} in output order,
# stdout lines, exit code); a refusal raises Refusal.

def cmd_validate(args, parser):
    spec = _resolve_spec(args, parser)
    problems = spec.validate()
    lines = ["warning: %s" % note for note in spec.warnings()]
    if problems:
        return spec, {}, lines + ["violation: %s" % p for p in problems], 1
    c = spec.constants()
    lines += ["ok: attractive and compatible",
              "C=%g K=%g b_bar=%g c_bar0=%g c_bar1=%g c_bar=%g c_hat=%g"
              % (c.C, c.K, c.b_bar, c.c_bar0, c.c_bar1, c.c_bar, c.c_hat)]
    return spec, {}, lines, 0


def cmd_simulate(args, parser):
    spec = _valid_spec(args, parser)
    args.seed = _resolve_seed(args)
    for flag, bits in (("--init-beta", args.init_beta), ("--init-eta", args.init_eta)):
        if bits and (len(bits) != spec.size or set(bits) - {"0", "1"}):
            raise Refusal("simulate error: %s %s is not %d bits 0 or 1" % (flag, bits, spec.size), 2)
    beta0 = spec.env_config(args.init_beta if args.init_beta else (0,) * spec.size)
    eta0 = spec.spin_config(args.init_eta if args.init_eta else (1,) * spec.size)
    stream = graphical.EventStream(spec, args.seed, args.tmax)
    try:
        traj = graphical.evolve(beta0, [eta0], stream)
    except graphical.EventBudgetError as err:
        raise Refusal("simulate error: %s; lower --tmax" % err.reason, 2) from None
    return _trajectory_output(args, spec, traj)


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
    spec = _valid_spec(args, parser)
    args.seed = _resolve_seed(args)
    arity = 4 if args.layers == 5 else args.layers
    initial = _default_coupled_initial(spec, arity)
    try:
        traj = simulate_coupled(CoupledSpec(spec, arity), initial, args.seed, args.tmax)
    except graphical.EventBudgetError as err:
        raise Refusal("couple error: %s; lower --tmax" % err.reason, 2) from None
    return _trajectory_output(args, spec, traj)


def cmd_oracle(args, parser):
    spec = _valid_spec(args, parser)
    try:
        G = oracle.build_generator(spec)
    except ValueError as err:
        raise Refusal("oracle error: %s" % err, 2) from None
    S = oracle.stationary_set(G)
    L = oracle.limit_distributions(G)
    files = {".generator.csv": G.to_csv_text()}
    for k, dist in enumerate(S.distributions):
        files[".stationary%d.csv" % k] = oracle.dump_distribution_csv(dist)
    files[".nu0.csv"] = oracle.dump_distribution_csv(L.lower)
    files[".nu1.csv"] = oracle.dump_distribution_csv(L.upper)
    summary = {
        "dim": G.dim,
        "stationary_dimension": S.dimension,
        "flagged": S.flagged,
        "notes": S.notes,
        "tv_nu0_nu1": L.tv_distance,
        "limits_converged": L.converged,
    }
    files[".summary.json"] = json.dumps(summary, indent=2) + "\n"
    lines = ["stationary dimension %d, TV(nu0, nu1) = %g" % (S.dimension, L.tv_distance)]
    if S.flagged or not L.converged:
        lines.append("numerical flag raised: %s" % ("; ".join(S.notes) if S.notes else "non-convergence"))
        return spec, files, lines, 3
    return spec, files, lines, 0


def cmd_scenario(args, parser):
    curve = {}
    if args.name in ("iv", "vi"):
        if args.preset is None and args.config is None:
            args.preset = "remark_" + args.name
        spec = _resolve_spec(args, parser, sites=5)
        try:
            report = experiments.scenario_remarks(args.name, spec=spec)
        except ValueError as err:
            raise Refusal("oracle error: %s" % err, 2) from None
        payload = json.dumps(report, indent=2) + "\n"
    else:
        spec = _valid_spec(args, parser)
        args.seed = _resolve_seed(args)
        try:
            if args.name == "coalescence":
                beta0 = args.beta0 if args.beta0 else "0" * spec.size
                rep = experiments.estimate_coalescence(
                    spec, beta0, args.window, args.tmax, args.replicas, args.seed
                )
            elif args.name == "density":
                grid = [float(v) for v in args.tgrid.split(",")]
                rep = experiments.density_curves(spec, grid, args.replicas, args.seed)
                curve[".curve.csv"] = experiments.density_csv_text(rep)
            elif args.name == "run-decay":
                n = spec.size
                windows = [(n // 2 - w, n // 2 + w) for w in (1, 2, 4) if n // 2 - w > 0 and n // 2 + w < n - 1]
                if not windows:
                    raise ValueError("no run-decay window fits in %d sites" % n)
                rep = experiments.run_length_decay(spec, windows, args.tmax, args.replicas, args.seed)
                curve[".curve.csv"] = experiments.run_decay_csv_text(rep)
            elif args.name == "interval-bounds":
                m, n = spec.size // 3, 2 * spec.size // 3
                rep = experiments.interval_inequality_check(
                    spec, args.tmax, args.replicas, args.seed, m, n, l=1
                )
        except ValueError as err:
            raise Refusal("scenario error: %s" % err, 2) from None
        except graphical.EventBudgetError as err:
            flag = "--tgrid" if args.name == "density" else "--tmax"
            raise Refusal("scenario error: %s; lower %s" % (err.reason, flag), 2) from None
        payload = rep.to_json()
    return spec, {".report.json": payload, **curve}, ["wrote %s" % Path(args.out + ".report.json")], 0


_COMMANDS = {
    "validate": cmd_validate,
    "simulate": cmd_simulate,
    "couple": cmd_couple,
    "oracle": cmd_oracle,
    "scenario": cmd_scenario,
}


def cmd_replay(args):
    """The output prefix, the command line and the resolved config (or None)
    of a manifest.  Only the commands that write a manifest replay, and
    without --out the manifest's name must end in .manifest.json, whose
    stem is the prefix."""
    try:
        manifest = json.loads(Path(args.manifest).read_text())
    except (OSError, ValueError) as err:
        raise Refusal("replay error: %s" % err, 2) from None
    if not isinstance(manifest, dict) or manifest.get("manifest_version") != MANIFEST_VERSION:
        raise Refusal("replay error: unsupported manifest version", 2)
    argv = manifest.get("replay_args")
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        raise Refusal("replay error: manifest holds no replay_args list of strings", 2)
    replayable = [name for name in _COMMANDS if name != "validate"]
    if not argv or argv[0] not in replayable:
        raise Refusal("replay error: replay_args do not start with one of %s" % ", ".join(replayable), 2)
    config = manifest.get("resolved_config")
    if config is not None and not isinstance(config, str):
        raise Refusal("replay error: manifest resolved_config is not a string", 2)
    if args.out is not None:
        return args.out, argv, config
    path = str(Path(args.manifest))
    if not path.endswith(".manifest.json"):
        raise Refusal("replay error: %s does not end in .manifest.json, so give --out" % path, 2)
    return path[: -len(".manifest.json")], argv, config


def main(argv=None):
    """Returns the exit code; argparse usage errors raise SystemExit(2).
    The one place that writes a command's files and prints its refusal.  A
    replay runs its manifest's command line here, on the manifest's config,
    and writes that config to <prefix>.replay.config after the command's
    files, so a refused replay writes nothing."""
    parser = build_parser()
    args = parser.parse_args(argv)
    config = None
    try:
        if args.command == "replay":
            prefix, argv, config = cmd_replay(args)
            if config:
                argv += ["--config", prefix + ".replay.config"]
            args = parser.parse_args([*argv, "--out", prefix])
            args.resolved_config = config
        if args.command != "validate":
            folder, name = os.path.split(args.out)
            if name in ("", ".", ".."):
                raise Refusal("output error: output prefix %r has no file name" % args.out, 2)
            if folder and not os.path.isdir(folder):
                raise Refusal("output error: directory %s of --out %s does not exist" % (folder, args.out), 2)
        spec, files, lines, code = _COMMANDS[args.command](args, parser)
    except Refusal as err:
        message, code = err.args
        print(message, file=sys.stderr)
        return code
    except SystemExit as err:  # parser.error on the spec options, or a replayed command line's usage
        return err.code if isinstance(err.code, int) else 2
    outputs = [Path(args.out + suffix) for suffix in files]
    for path, text in zip(outputs, files.values()):
        path.write_text(text)
    if outputs:  # validate writes nothing
        _write_manifest(args, spec, outputs)
    if config:
        Path(args.out + ".replay.config").write_text(config)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
