"""Command-line entry point.

Subcommands: simulate, estimates, squeeze, galerkin, orbit.  Each takes one
INI-style config file (flat key = value under section headers; schema in the
README).  Outputs are CSV files plus a manifest.json that echoes the fully
resolved configuration; identical (config, seed) runs reproduce the CSVs
byte for byte.  BBMLAB_OUTDIR overrides the configured output directory.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import os
import sys
import typing
from dataclasses import MISSING

from . import io as bio
from .estimates import DEFAULT_N_SWEEP, estimate_constant, radial_orbit
from .flow import FlowConfig, FlowError, integrate, galerkin_defect
from .sampling import smooth_profile, sobolev_ball_state, substream
from .spectral import TrigState, sobolev_norm, z_norm
from .squeeze import SqueezeConfig, maximize_image_radius

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
    return lambda text: [cast(part.strip()) for part in text.split(",") if part.strip()]


_CASTS = {int: _int, float: _float, bool: _bool, str: str}


class _Cfg:
    """Typed reader over configparser: every value goes through get()."""

    def __init__(self, path: str):
        self.path = path
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise ConfigError(f"config parse error in {path}: {exc}") from exc
        self.parser = parser
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
        hints = typing.get_type_hints(cls)
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
    os.makedirs(outdir, exist_ok=True)
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


def cmd_simulate(cfg: _Cfg) -> int:
    seed = cfg.get("run", "seed", _int, 0)
    fcfg = FlowConfig(**cfg.fields("flow", FlowConfig))
    horizon = cfg.get("flow", "T", _float)
    trace_every = cfg.get("flow", "trace_every", _int, 100)
    if trace_every < 1:
        raise ConfigError(f"[flow] trace_every must be >= 1, got {trace_every}")
    outdir = _outdir(cfg, "simulate")
    u0 = _initial_state(cfg, fcfg.N, seed)
    cfg.reject_unread()

    result = integrate(u0, horizon, fcfg, trace_every=trace_every)

    trace_path = os.path.join(outdir, "trace.csv")
    state_path = os.path.join(outdir, "final_state.csv")
    bio.write_trace_csv(trace_path, result.trace)
    bio.write_state_csv(state_path, result.final)
    bio.write_manifest(
        os.path.join(outdir, "manifest.json"),
        "simulate",
        cfg.resolved,
        seed,
        [trace_path, state_path],
    )

    first, last = result.trace[0], result.trace[-1]
    print(f"simulate: {result.steps} steps to T = {horizon}")
    for name, idx in (("I1", 1), ("I2", 2), ("H", 3)):
        ref = abs(first[idx])
        drift = abs(last[idx] - first[idx])
        rel = drift / ref if ref > 0 else drift
        print(f"  {name} drift: {drift:.3e} (relative {rel:.3e})")
    return 0


def cmd_estimates(cfg: _Cfg) -> int:
    seed = cfg.get("run", "seed", _int, 0)
    s = cfg.get("estimates", "s", _float)
    r = cfg.get("estimates", "r", _float)
    rprime = cfg.get("estimates", "rprime", _float)
    n_samples = cfg.get("estimates", "n_samples", _int, 1000)
    n_sweep = cfg.get("estimates", "N_list", _list(_int), DEFAULT_N_SWEEP)
    sampler = cfg.get("estimates", "sampler", str, "gaussian")
    mode = cfg.get("estimates", "mode", str, "bilinear")
    outdir = _outdir(cfg, "estimates")
    cfg.reject_unread()

    report = estimate_constant(
        s, r, rprime, n_samples, n_sweep=tuple(n_sweep), sampler=sampler, mode=mode, seed=seed
    )

    report_path = os.path.join(outdir, "estimate.csv")
    bio.write_estimate_csv(report_path, report)
    bio.write_manifest(
        os.path.join(outdir, "manifest.json"), "estimates", cfg.resolved, seed, [report_path]
    )
    print(
        f"estimates: ({s}, {r}, {rprime}) {mode} max ratio {report.max_ratio:.6g} "
        f"over {n_samples} samples, sweep bounded: {report.bounded}"
    )
    return 0


def cmd_squeeze(cfg: _Cfg) -> int:
    seed = cfg.get("run", "seed", _int, 0)
    flow = FlowConfig(
        **cfg.fields("squeeze", FlowConfig,
                     skip=("dt", "picard_tol", "picard_max_iter", "midpoint_tol")),
        dt=cfg.get("squeeze", "dt", _float, 0.01),
    )
    center_csv = cfg.get("squeeze", "center_csv", str, None)
    center = bio.read_state_csv(center_csv, flow.N) if center_csv else None
    scfg = SqueezeConfig(
        **cfg.fields("squeeze", SqueezeConfig, skip=("flow", "center", "cyl_center", "seed")),
        flow=flow,
        center=center,
        cyl_center=(
            cfg.get("squeeze", "cyl_center_p", _float, SqueezeConfig.cyl_center[0]),
            cfg.get("squeeze", "cyl_center_q", _float, SqueezeConfig.cyl_center[1]),
        ),
        seed=seed,
    )
    outdir = _outdir(cfg, "squeeze")
    cfg.reject_unread()
    report = maximize_image_radius(scfg)

    csv_path = os.path.join(outdir, "squeeze.csv")
    witness_path = os.path.join(outdir, "witness_state.csv")
    bio.write_squeeze_csv(csv_path, report)
    bio.write_state_csv(witness_path, report.best_witness)
    bio.write_manifest(
        os.path.join(outdir, "manifest.json"),
        "squeeze",
        cfg.resolved,
        seed,
        [csv_path, witness_path],
    )
    print(
        f"squeeze: r = {scfg.r}, n0 = {scfg.n0}, T = {scfg.T}: achieved radius "
        f"{report.achieved_radius:.9g} ({report.achieved_radius / scfg.r:.4f} r) "
        f"in {report.wall_time:.1f} s"
    )
    print(f"  witness Z norm: {z_norm(report.best_witness - (center or TrigState.zero(flow.N)).padded(flow.N)):.12g}")
    print(f"  witness H^1 norm: {sobolev_norm(report.best_witness, 1.0):.6g}")
    return 0


def cmd_galerkin(cfg: _Cfg) -> int:
    seed = cfg.get("run", "seed", _int, 0)
    fcfg = FlowConfig(**cfg.fields("flow", FlowConfig))
    horizon = cfg.get("flow", "T", _float)
    n_small_list = cfg.get("galerkin", "N_small_list", _list(_int), [8, 16, 32])
    outdir = _outdir(cfg, "galerkin")
    u0 = _initial_state(cfg, fcfg.N, seed)
    cfg.reject_unread()

    rows = [(n_small, galerkin_defect(u0, horizon, n_small, fcfg)) for n_small in n_small_list]

    csv_path = os.path.join(outdir, "galerkin.csv")
    bio.write_galerkin_csv(csv_path, rows)
    bio.write_manifest(
        os.path.join(outdir, "manifest.json"), "galerkin", cfg.resolved, seed, [csv_path]
    )
    for n_small, defect in rows:
        print(f"galerkin: defect(N={n_small}) = {defect:.6e} against reference N = {fcfg.N}")
    return 0


def cmd_orbit(cfg: _Cfg) -> int:
    seed = cfg.get("run", "seed", _int, 0)
    fprimes = cfg.get("orbit", "fprime_list", _list(_float), [0.1, 0.5, 1.0, 2.0, 3.0])
    n_pairs = cfg.get("orbit", "n_pairs", _int, 1)
    radius2 = cfg.get("orbit", "radius2", _float, 0.5)
    outdir = _outdir(cfg, "orbit")
    cfg.reject_unread()

    rows = []
    for fprime in fprimes:
        period, _ = radial_orbit(fprime, n_pairs, radius2)
        rows.append((fprime, period))

    csv_path = os.path.join(outdir, "orbit.csv")
    bio.write_orbit_csv(csv_path, rows)
    bio.write_manifest(
        os.path.join(outdir, "manifest.json"), "orbit", cfg.resolved, seed, [csv_path]
    )
    for fprime, period in rows:
        print(f"orbit: f' = {fprime}: period {period:.8f}, period * f' = {period * fprime:.8f}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "estimates": cmd_estimates,
    "squeeze": cmd_squeeze,
    "galerkin": cmd_galerkin,
    "orbit": cmd_orbit,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bbmlab", description="BBM-on-the-circle spectral experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("config", help="path to the INI config file")
    args = parser.parse_args(argv)

    try:
        cfg = _Cfg(args.config)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, ValueError) as exc:
        print(f"bbmlab {args.command}: {exc}", file=sys.stderr)
        return 2
    except FlowError as exc:
        print(f"bbmlab {args.command}: integration failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
