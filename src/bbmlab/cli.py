"""Command-line entry point.

Subcommands: simulate, estimates, squeeze, galerkin, orbit.  Each takes one
INI-style config file (flat key = value under section headers; schema in the
README).  A command reads and checks its own keys and returns a run step,
run(outdir) -> (CSV paths written, stdout lines).  main reads [run] seed,
calls the command, resolves the output directory (BBMLAB_OUTDIR overrides
the configured one) and rejects unread keys, all before any work; it then
runs the step, writes manifest.json (the resolved config and the CSVs) and
prints.  Same (config, seed), same CSV bytes.  Config and input errors,
unreadable inputs, unwritable outputs and a [flow] dt needing more than
flow.MAX_STEPS steps among them, exit 2; failed integrations exit 1.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import math
import os
import sys
import typing
from dataclasses import MISSING

from . import io as bio
from .estimates import DEFAULT_N_SWEEP, estimate_constant, radial_orbit
from .flow import FlowConfig, FlowError, _step_count, galerkin_defect, integrate, nonlinear_part
from .sampling import smooth_profile, sobolev_ball_state, substream
from .spectral import MAX_MODES, TrigState, sobolev_norm, z_norm
from .squeeze import SqueezeConfig, _center_state, maximize_image_radius

ENV_OUTDIR = "BBMLAB_OUTDIR"


class ConfigError(Exception):
    pass


def _number(convert, kind: str):
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise ValueError(f"must be {kind}, got {text!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"must be finite, got {text!r}")
        return value
    return parse


_int = _number(int, "an integer")
_float = _number(float, "a number")


def _bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"must be a boolean, got {text!r}") from None


def _list(cast):
    def parse(text: str) -> list:
        values = [cast(part.strip()) for part in text.split(",") if part.strip()]
        if not values:
            raise ValueError("must list at least one value")
        return values
    return parse


_CASTS = {int: _int, float: _float, bool: _bool, str: str}
_type_hints = functools.cache(typing.get_type_hints)  # resolved once per config class


class _Cfg:
    """Typed reader over configparser: every value goes through get()."""

    def __init__(self, path: str):
        self.path = path
        self.parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            self.parser.read_string(bio.read_text(path, "config file"), source=path)
        except configparser.Error as exc:
            raise ConfigError(f"config parse error in {path}: {exc}") from exc
        self.resolved: dict[str, dict] = {}

    def get(self, section: str, key: str, cast, default=MISSING):
        """Read [section] key with cast, record it in resolved, name the key on failure.

        Without a default the key is required; a default is used as it is,
        not cast.
        """
        if self.parser.has_option(section, key):
            try:
                value = cast(self.parser.get(section, key))
            except (ValueError, configparser.Error) as exc:
                raise ConfigError(f"[{section}] {key} {exc}") from None
        elif default is MISSING:
            raise ConfigError(f"missing required key `{key}` in section [{section}] of {self.path}")
        else:
            value = default
        self.resolved.setdefault(section, {})[key] = value
        return value

    def fields(self, section: str, cls, skip=()) -> dict:
        """Keyword arguments for dataclass cls, one key per field not in skip.

        Each value is parsed by its field's annotation (an optional type by
        the type it wraps) and defaults to the field's own default.
        """
        hints = _type_hints(cls)
        kwargs = {}
        for field in dataclasses.fields(cls):
            if field.name in skip:
                continue
            hint = hints[field.name]
            cast = _CASTS[next((t for t in typing.get_args(hint) if t is not type(None)), hint)]
            kwargs[field.name] = self.get(section, field.name, cast, field.default)
        return kwargs

    def reject_unread(self) -> None:
        """Raise ConfigError naming every key in the file that get() never read.

        Called once a command has read its whole configuration, before any
        flow or sweep starts, so a misspelt key cannot fall back silently to
        its default.  Keys under [DEFAULT] count as read if any section read
        them.
        """
        read = {
            section: {self.parser.optionxform(key) for key in keys}
            for section, keys in self.resolved.items()
        }
        defaults = set(self.parser.defaults())
        unread = [
            (section, key)
            for section in self.parser.sections()
            for key in self.parser.options(section)
            if key not in defaults and key not in read.get(section, ())
        ]
        unread += [
            (configparser.DEFAULTSECT, key)
            for key in sorted(defaults)
            if not any(key in keys for keys in read.values())
        ]
        if unread:
            names = ", ".join(f"`{key}` in [{section}]" for section, key in unread)
            raise ConfigError(f"unknown config key(s) {names} in {self.path}")


def _outdir(cfg: _Cfg, command: str) -> str:
    configured = cfg.get("run", "outdir", str, f"runs/{command}")
    outdir = os.environ.get(ENV_OUTDIR, configured)
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        setting = ENV_OUTDIR if ENV_OUTDIR in os.environ else "[run] outdir"
        raise ConfigError(f"output directory {setting} = {outdir!r}: {exc.strerror}") from None
    return outdir


def _initial_state(cfg: _Cfg, n_modes: int, seed: int) -> TrigState:
    preset = cfg.get("state", "preset", str, None)
    csv_path = cfg.get("state", "csv", str, None)
    if csv_path is not None:
        return bio.read_state_csv(csv_path, n_modes).padded(n_modes)
    if preset is None:
        raise ConfigError("missing required key `preset` (or `csv`) in section [state]")
    if preset == "smooth":
        scale = cfg.get("state", "scale", _float, 1.0)
        return scale * smooth_profile(n_modes)
    if preset == "single_mode":
        k = cfg.get("state", "k", _int)
        amplitude = cfg.get("state", "amplitude", _float, 1.0)
        if not 1 <= k <= n_modes:
            raise ConfigError(f"state mode k = {k} outside 1..{n_modes}")
        return TrigState.single_mode(k, n_modes, a_k=amplitude)
    if preset == "random_ball":
        radius = cfg.get("state", "radius", _float, 1.0)
        reg = cfg.get("state", "reg", _float, 0.5)
        return sobolev_ball_state(substream(seed, "initial_state"), n_modes, reg, radius)
    raise ConfigError(f"unknown state preset {preset!r}")


def _csv(outdir: str, name: str, write, data) -> str:
    """Write data to outdir/name with write; return the path."""
    path = os.path.join(outdir, name)
    write(path, data)
    return path


def _flow_section(cfg: _Cfg) -> tuple[FlowConfig, float]:
    """[flow] as a FlowConfig and the horizon T; a dt needing too many steps names [flow] dt."""
    fcfg = FlowConfig(**cfg.fields("flow", FlowConfig))
    horizon = cfg.get("flow", "T", _float)
    _step_count(horizon, fcfg.dt, "[flow] dt")
    return fcfg, horizon


def cmd_simulate(cfg: _Cfg, seed: int):
    fcfg, horizon = _flow_section(cfg)
    trace_every = cfg.get("flow", "trace_every", _int, 100)
    if trace_every < 1:
        raise ConfigError(f"[flow] trace_every must be >= 1, got {trace_every}")
    u0 = _initial_state(cfg, fcfg.N, seed)

    def run(outdir):
        result = integrate(u0, horizon, fcfg, trace_every=trace_every)
        paths = [_csv(outdir, "trace.csv", bio.write_trace_csv, result.trace),
                 _csv(outdir, "final_state.csv", bio.write_state_csv, result.final)]
        lines = [f"simulate: {result.steps} steps to T = {horizon}"]
        first, last = result.trace[0], result.trace[-1]
        for name, idx in (("I1", 1), ("I2", 2), ("H", 3)):
            ref = abs(first[idx])
            drift = abs(last[idx] - first[idx])
            rel = drift / ref if ref > 0 else drift
            lines.append(f"  {name} drift: {drift:.3e} (relative {rel:.3e})")
        return paths, lines
    return run


def cmd_estimates(cfg: _Cfg, seed: int):
    s = cfg.get("estimates", "s", _float)
    r = cfg.get("estimates", "r", _float)
    rprime = cfg.get("estimates", "rprime", _float)
    n_samples = cfg.get("estimates", "n_samples", _int, 1000)
    n_sweep = cfg.get("estimates", "N_list", _list(_int), DEFAULT_N_SWEEP)
    sampler = cfg.get("estimates", "sampler", str, "gaussian")
    mode = cfg.get("estimates", "mode", str, "bilinear")

    def run(outdir):
        report = estimate_constant(
            s, r, rprime, n_samples, n_sweep=tuple(n_sweep), sampler=sampler, mode=mode, seed=seed
        )
        return [_csv(outdir, "estimate.csv", bio.write_estimate_csv, report)], [
            f"estimates: ({s}, {r}, {rprime}) {mode} max ratio {report.max_ratio:.6g} "
            f"over {n_samples} samples, sweep bounded: {report.bounded}"
        ]
    return run


def cmd_squeeze(cfg: _Cfg, seed: int):
    flow = FlowConfig(
        **cfg.fields("squeeze", FlowConfig,
                     skip=("dt", "picard_max_iter", "midpoint_tol")),
        dt=cfg.get("squeeze", "dt", _float, 0.01),
    )
    _step_count(cfg.get("squeeze", "T", _float), flow.dt, "[squeeze] dt")
    center_csv = cfg.get("squeeze", "center_csv", str, None)
    scfg = SqueezeConfig(
        **cfg.fields("squeeze", SqueezeConfig, skip=("flow", "center", "cyl_center", "seed")),
        flow=flow,
        center=bio.read_state_csv(center_csv, flow.N) if center_csv else None,
        cyl_center=(
            cfg.get("squeeze", "cyl_center_p", _float, SqueezeConfig.cyl_center[0]),
            cfg.get("squeeze", "cyl_center_q", _float, SqueezeConfig.cyl_center[1]),
        ),
        seed=seed,
    )

    def run(outdir):
        report = maximize_image_radius(scfg)
        paths = [_csv(outdir, "squeeze.csv", bio.write_squeeze_csv, report),
                 _csv(outdir, "witness_state.csv", bio.write_state_csv, report.best_witness)]
        return paths, [
            f"squeeze: r = {scfg.r}, n0 = {scfg.n0}, T = {scfg.T}: achieved radius "
            f"{report.achieved_radius:.9g} ({report.achieved_radius / scfg.r:.4f} r) "
            f"in {report.wall_time:.1f} s",
            f"  witness Z norm: {z_norm(report.best_witness - _center_state(scfg)):.12g}",
            f"  witness H^1 norm: {sobolev_norm(report.best_witness, 1.0):.6g}",
        ]
    return run


def cmd_galerkin(cfg: _Cfg, seed: int):
    fcfg, horizon = _flow_section(cfg)
    n_small_list = cfg.get("galerkin", "N_small_list", _list(_int), [8, 16, 32])
    for n_small in n_small_list:
        if not 1 <= n_small <= fcfg.N:
            raise ConfigError(
                f"[galerkin] N_small_list entry {n_small} outside 1..{fcfg.N} ([flow] N = {fcfg.N})"
            )
    u0 = _initial_state(cfg, fcfg.N, seed)

    def run(outdir):
        full = nonlinear_part(u0, horizon, fcfg)
        rows = [(n_small, galerkin_defect(u0, horizon, n_small, fcfg, full))
                for n_small in n_small_list]
        return [_csv(outdir, "galerkin.csv", bio.write_galerkin_csv, rows)], [
            f"galerkin: defect(N={n_small}) = {defect:.6e} against reference N = {fcfg.N}"
            for n_small, defect in rows
        ]
    return run


def cmd_orbit(cfg: _Cfg, seed: int):
    fprimes = cfg.get("orbit", "fprime_list", _list(_float), [0.1, 0.5, 1.0, 2.0, 3.0])
    n_pairs = cfg.get("orbit", "n_pairs", _int, 1)
    radius2 = cfg.get("orbit", "radius2", _float, 0.5)
    for fprime in fprimes:
        if not 0.0 < fprime < math.pi:
            raise ConfigError(f"[orbit] fprime_list entry {fprime} outside (0, pi)")
    if not 0.0 < radius2 < 1.0:
        raise ConfigError(f"[orbit] radius2 must lie in (0, 1), got {radius2}")
    if not 1 <= n_pairs <= MAX_MODES:
        raise ConfigError(f"[orbit] n_pairs must lie in 1..{MAX_MODES}, got {n_pairs}")

    def run(outdir):
        rows = [(fprime, radial_orbit(fprime, n_pairs, radius2)[0]) for fprime in fprimes]
        return [_csv(outdir, "orbit.csv", bio.write_orbit_csv, rows)], [
            f"orbit: f' = {fprime}: period {period:.8f}, period * f' = {period * fprime:.8f}"
            for fprime, period in rows
        ]
    return run


_COMMANDS = {
    "simulate": cmd_simulate,
    "estimates": cmd_estimates,
    "squeeze": cmd_squeeze,
    "galerkin": cmd_galerkin,
    "orbit": cmd_orbit,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first main call and reused by later ones."""
    parser = argparse.ArgumentParser(
        prog="bbmlab", description="BBM-on-the-circle spectral experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("config", help="path to the INI config file")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = _Cfg(args.config)
        seed = cfg.get("run", "seed", _int, 0)
        if not 0 <= seed < 1 << 64:
            raise ConfigError(f"[run] seed must lie in 0..2^64 - 1, got {seed}")
        run = _COMMANDS[args.command](cfg, seed)
        outdir = _outdir(cfg, args.command)
        cfg.reject_unread()
        outputs, lines = run(outdir)
        bio.write_manifest(
            os.path.join(outdir, "manifest.json"), args.command, cfg.resolved, seed, outputs
        )
    except (ConfigError, ValueError) as exc:
        print(f"bbmlab {args.command}: {exc}", file=sys.stderr)
        return 2
    except FlowError as exc:
        print(f"bbmlab {args.command}: integration failed: {exc}", file=sys.stderr)
        return 1
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # The reader closed stdout after every output was written: the run succeeded, and
        # stdout now points at the null device, so the exit flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
