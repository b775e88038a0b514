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
import os
import sys

from . import io as bio
from .estimates import estimate_constant, radial_orbit
from .flow import FlowConfig, FlowError, integrate, galerkin_defect
from .sampling import smooth_profile, sobolev_ball_state, substream
from .spectral import TrigState, sobolev_norm, z_norm
from .squeeze import SqueezeConfig, maximize_image_radius

ENV_OUTDIR = "BBMLAB_OUTDIR"


class ConfigError(Exception):
    pass


class _Cfg:
    """Thin typed accessor over configparser with required-key diagnostics."""

    def __init__(self, path: str):
        self.path = path
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"config parse error in {path}: {exc}") from exc
        self.parser = parser
        self.resolved: dict[str, dict[str, str]] = {}

    def _raw(self, section: str, key: str, default, required: bool):
        if self.parser.has_option(section, key):
            return self.parser.get(section, key)
        if required:
            raise ConfigError(f"missing required key `{key}` in section [{section}] of {self.path}")
        return default

    def _record(self, section: str, key: str, value) -> None:
        self.resolved.setdefault(section, {})[key] = value

    def get_str(self, section, key, default=None, required=False):
        val = self._raw(section, key, default, required)
        self._record(section, key, val)
        return val

    def get_int(self, section, key, default=None, required=False):
        val = self._raw(section, key, default, required)
        if val is not None and not isinstance(val, int):
            try:
                val = int(val)
            except ValueError as exc:
                raise ConfigError(f"key `{key}` in [{section}] must be an integer: {exc}") from exc
        self._record(section, key, val)
        return val

    def get_float(self, section, key, default=None, required=False):
        val = self._raw(section, key, default, required)
        if val is not None and not isinstance(val, float):
            try:
                val = float(val)
            except ValueError as exc:
                raise ConfigError(f"key `{key}` in [{section}] must be a number: {exc}") from exc
        self._record(section, key, val)
        return val

    def get_bool(self, section, key, default=False):
        val = self._raw(section, key, default, False)
        if isinstance(val, str):
            if val.lower() in ("1", "true", "yes", "on"):
                val = True
            elif val.lower() in ("0", "false", "no", "off"):
                val = False
            else:
                raise ConfigError(f"key `{key}` in [{section}] must be a boolean")
        self._record(section, key, val)
        return val

    def reject_unread(self) -> None:
        """Raise ConfigError naming every key in the file that no getter read.

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

    def get_list(self, section, key, default=None, required=False, cast=int):
        val = self._raw(section, key, default, required)
        if isinstance(val, str):
            val = [cast(part.strip()) for part in val.split(",") if part.strip()]
        self._record(section, key, val)
        return val


def _outdir(cfg: _Cfg, command: str) -> str:
    configured = cfg.get_str("run", "outdir", default=f"runs/{command}")
    outdir = os.environ.get(ENV_OUTDIR, configured)
    os.makedirs(outdir, exist_ok=True)
    return outdir


def _initial_state(cfg: _Cfg, n_modes: int, seed: int) -> TrigState:
    preset = cfg.get_str("state", "preset", default=None)
    csv_path = cfg.get_str("state", "csv", default=None)
    if csv_path is not None:
        state = bio.read_state_csv(csv_path)
        if state.n_modes > n_modes:
            raise ConfigError(f"state file supplies {state.n_modes} modes but N = {n_modes}")
        return state.padded(n_modes)
    if preset is None:
        raise ConfigError("missing required key `preset` (or `csv`) in section [state]")
    if preset == "smooth":
        scale = cfg.get_float("state", "scale", default=1.0)
        return scale * smooth_profile(n_modes)
    if preset == "single_mode":
        k = cfg.get_int("state", "k", required=True)
        amplitude = cfg.get_float("state", "amplitude", default=1.0)
        if not 1 <= k <= n_modes:
            raise ConfigError(f"state mode k = {k} outside 1..{n_modes}")
        return TrigState.single_mode(k, n_modes, a_k=amplitude)
    if preset == "random_ball":
        radius = cfg.get_float("state", "radius", default=1.0)
        reg = cfg.get_float("state", "reg", default=0.5)
        return sobolev_ball_state(substream(seed, "initial_state"), n_modes, reg, radius)
    raise ConfigError(f"unknown state preset {preset!r}")


def _flow_config(cfg: _Cfg) -> FlowConfig:
    return FlowConfig(
        N=cfg.get_int("flow", "N", required=True),
        dt=cfg.get_float("flow", "dt", required=True),
        integrator=cfg.get_str("flow", "integrator", default="rk4"),
        dealias_factor=cfg.get_float("flow", "dealias_factor", default=1.5),
        picard_tol=cfg.get_float("flow", "picard_tol", default=1e-12),
        picard_max_iter=cfg.get_int("flow", "picard_max_iter", default=60),
        midpoint_tol=cfg.get_float("flow", "midpoint_tol", default=1e-12),
        linear_only=cfg.get_bool("flow", "linear_only", default=False),
    )


def cmd_simulate(cfg: _Cfg) -> int:
    seed = cfg.get_int("run", "seed", default=0)
    fcfg = _flow_config(cfg)
    horizon = cfg.get_float("flow", "T", required=True)
    trace_every = cfg.get_int("flow", "trace_every", default=100)
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
    seed = cfg.get_int("run", "seed", default=0)
    s = cfg.get_float("estimates", "s", required=True)
    r = cfg.get_float("estimates", "r", required=True)
    rprime = cfg.get_float("estimates", "rprime", required=True)
    n_samples = cfg.get_int("estimates", "n_samples", default=1000)
    n_sweep = cfg.get_list("estimates", "N_list", default=[16, 32, 64, 128])
    sampler = cfg.get_str("estimates", "sampler", default="gaussian")
    mode = cfg.get_str("estimates", "mode", default="bilinear")
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
    seed = cfg.get_int("run", "seed", default=0)
    center_csv = cfg.get_str("squeeze", "center_csv", default=None)
    center = bio.read_state_csv(center_csv) if center_csv else None
    scfg = SqueezeConfig(
        r=cfg.get_float("squeeze", "r", required=True),
        n0=cfg.get_int("squeeze", "n0", required=True),
        T=cfg.get_float("squeeze", "T", required=True),
        N=cfg.get_int("squeeze", "N", required=True),
        n_starts=cfg.get_int("squeeze", "n_starts", default=16),
        center=center,
        cyl_center=(
            cfg.get_float("squeeze", "cyl_center_p", default=0.0),
            cfg.get_float("squeeze", "cyl_center_q", default=0.0),
        ),
        fd_step=cfg.get_float("squeeze", "fd_step", default=1e-4),
        ascent_step=cfg.get_float("squeeze", "ascent_step", default=None),
        max_ascent_iters=cfg.get_int("squeeze", "max_ascent_iters", default=40),
        stall_tol=cfg.get_float("squeeze", "stall_tol", default=1e-6),
        dt=cfg.get_float("squeeze", "dt", default=0.01),
        integrator=cfg.get_str("squeeze", "integrator", default="rk4"),
        linear_only=cfg.get_bool("squeeze", "linear_only", default=False),
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
    print(f"  witness Z norm: {z_norm(report.best_witness - (center or TrigState.zero(scfg.N)).padded(scfg.N)):.12g}")
    print(f"  witness H^1 norm: {sobolev_norm(report.best_witness, 1.0):.6g}")
    return 0


def cmd_galerkin(cfg: _Cfg) -> int:
    seed = cfg.get_int("run", "seed", default=0)
    fcfg = _flow_config(cfg)
    horizon = cfg.get_float("flow", "T", required=True)
    n_small_list = cfg.get_list("galerkin", "N_small_list", default=[8, 16, 32])
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
    seed = cfg.get_int("run", "seed", default=0)
    fprimes = cfg.get_list("orbit", "fprime_list", default=[0.1, 0.5, 1.0, 2.0, 3.0], cast=float)
    n_pairs = cfg.get_int("orbit", "n_pairs", default=1)
    radius2 = cfg.get_float("orbit", "radius2", default=0.5)
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
