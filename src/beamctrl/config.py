"""Experiment configuration: INI-style files, strict validation, hashing.

The format is flat  key = value  pairs under sections.  Unknown sections or
keys are rejected so that typos fail loudly.  The configuration hash is
taken over the canonical post-default key/value listing, which makes run
directories stable under reformatting and comment changes.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .weights import CarlemanParams, DomainSpec

EXPERIMENT_KINDS = ("weights-audit", "spectrum", "forward", "carleman-audit",
                    "zeta-ledger", "control")

POTENTIAL_KINDS = ("zero", "separable", "random")
DATA_KINDS = ("modal", "random")


class ConfigError(ValueError):
    """A configuration file failed validation; the message names the field."""


def _parse_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(";", ",").split(",") if tok.strip())


def parse_modes(raw: str) -> list[tuple[int, float, float]]:
    """`k:cos:sin;...` as (k, cos, sin) triples; ValueError on a bad item."""
    items = [item.split(":") for item in raw.split(";")] if raw else []
    if any(len(parts) != 3 for parts in items):
        raise ValueError(f"{raw!r} is not k:cos:sin;...")
    return [(int(k), float(c), float(s)) for k, c, s in items]


# schema: section -> key -> (parser, default or REQUIRED)
_REQUIRED = object()

SCHEMA = {
    "experiment": {
        "kind": (str, _REQUIRED),
        "seed": (int, 0),
    },
    "domain": {
        "d": (float, _REQUIRED),
        "L": (float, _REQUIRED),
        "T": (float, _REQUIRED),
    },
    "grid": {
        "n_modes": (int, 64),
        "n_time": (int, 128),
    },
    "carleman": {
        "s": (float, 4.0),
        "lambda": (float, 2.0),
        "T0": (float, 0.5),
        "T1": (float, 0.5),
        "zeta": (Fraction, Fraction(1)),
        "eta_scale": (float, 0.1),
        "mollify_radius": (float, 0.0),   # 0 means the L/8 default
    },
    "potential": {
        "kind": (str, "zero"),
        "amplitude": (float, 1.0),
        "seed": (int, 0),
        "max_mode": (int, 2),
        "space_mode": (int, 1),
        "time_mode": (int, 1),
    },
    "data": {
        "kind": (str, "random"),
        "seed": (int, 1),
        "max_mode": (int, 4),
        "amplitude": (float, 1.0),
        "beta0_modes": (str, ""),
        "beta1_modes": (str, ""),
    },
    "hum": {
        "tol": (float, 1e-10),
        "max_iter": (int, 3000),
        "eps_scale": (float, 1e-14),
        "r0": (float, 0.3),
        "r1": (float, 0.7),
        "verify_steps": (int, 4096),
        "suppression_target": (float, 1e-3),
    },
    "forward": {
        "n_steps": (int, 2000),
        "fixed_point_kappa": (float, 0.0),   # 0 disables the fixed-point pass
    },
    "audit": {
        "n_samples": (int, 32),
        "calib_seed": (int, 11),
        "heldout_seed": (int, 202),
        "max_mode": (int, 16),
        "s_grid": (_parse_floats, (4.0, 8.0)),
        "lambda_grid": (_parse_floats, (2.0,)),
        "heldout_factor": (float, 10.0),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus its canonical hash."""

    kind: str
    values: dict[str, dict[str, object]] = field(repr=False)
    config_hash: str = ""

    def __getitem__(self, section: str) -> dict[str, object]:
        return self.values[section]

    @property
    def seed(self) -> int:
        return self.values["experiment"]["seed"]

    def domain(self) -> DomainSpec:
        dom = self.values["domain"]
        return DomainSpec(d=dom["d"], L=dom["L"], T=dom["T"])

    def carleman_params(self) -> CarlemanParams:
        car = self.values["carleman"]
        return CarlemanParams(s=car["s"], lam=car["lambda"], T0=car["T0"],
                              T1=car["T1"], zeta=car["zeta"])


def _canonical_lines(values: dict[str, dict[str, object]]) -> list[str]:
    lines = []
    for section in sorted(values):
        for key in sorted(values[section]):
            val = values[section][key]
            if isinstance(val, tuple):
                rendered = ",".join(repr(v) for v in val)
            elif isinstance(val, float):
                rendered = repr(val)
            else:
                rendered = str(val)
            lines.append(f"{section}.{key}={rendered}")
    return lines


def hash_config(values: dict[str, dict[str, object]]) -> str:
    digest = hashlib.sha256("\n".join(_canonical_lines(values)).encode())
    return digest.hexdigest()[:12]


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse, apply defaults, validate, and hash a configuration file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    read = parser.read(str(path))
    if not read:
        raise ConfigError(f"cannot read config file: {path}")

    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")

    values: dict[str, dict[str, object]] = {}
    for section, keys in SCHEMA.items():
        values[section] = {}
        for key, (cast, default) in keys.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    values[section][key] = cast(raw)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ConfigError(
                        f"bad value for {section}.{key}: {raw!r} ({exc})"
                    ) from exc
            elif default is _REQUIRED:
                raise ConfigError(f"missing required key {section}.{key}")
            else:
                values[section][key] = default

    cfg = ExperimentConfig(kind=values["experiment"]["kind"], values=values,
                           config_hash=hash_config(values))
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    kind, values = cfg.kind, cfg.values
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"experiment.kind must be one of {', '.join(EXPERIMENT_KINDS)}")

    try:
        dom = cfg.domain()
    except ValueError as exc:
        raise ConfigError(f"invalid domain: {exc}") from exc

    if kind in ("weights-audit", "carleman-audit", "control"):
        car = values["carleman"]
        try:
            cfg.carleman_params().validate_horizon(dom.T)
        except ValueError as exc:
            raise ConfigError(f"invalid carleman parameters: {exc}") from exc
        if car["eta_scale"] <= 0:
            raise ConfigError("carleman.eta_scale must be positive")
        if not 0.0 <= car["mollify_radius"] < dom.L / 4.0:
            raise ConfigError("carleman.mollify_radius must lie in [0, L/4) "
                              "(0 means the L/8 default)")

    grid = values["grid"]
    if grid["n_modes"] < 8 or grid["n_modes"] % 2:
        raise ConfigError("grid.n_modes must be even and at least 8")
    if grid["n_time"] < 8:
        raise ConfigError("grid.n_time must be at least 8")

    if values["potential"]["kind"] not in POTENTIAL_KINDS:
        raise ConfigError(
            f"potential.kind must be one of {', '.join(POTENTIAL_KINDS)}")
    if values["data"]["kind"] not in DATA_KINDS:
        raise ConfigError(f"data.kind must be one of {', '.join(DATA_KINDS)}")
    if values["data"]["kind"] == "modal" and not values["data"]["beta0_modes"]:
        raise ConfigError("data.kind=modal requires data.beta0_modes")

    # mode indices address the rfft modes 0..n_modes/2 of the grid
    top = grid["n_modes"] // 2
    indices = [("data.max_mode", values["data"]["max_mode"]),
               ("potential.space_mode", values["potential"]["space_mode"])]
    for key in ("beta0_modes", "beta1_modes"):
        try:
            modes = parse_modes(values["data"][key])
        except ValueError as exc:
            raise ConfigError(f"bad value for data.{key}: {exc}") from exc
        indices += [(f"data.{key}", k) for k, _, _ in modes]
    for key, k in indices:
        if not 0 <= k <= top:
            raise ConfigError(f"{key}: mode {k} is outside 0..{top}")

    for section, key in (("forward", "n_steps"), ("hum", "max_iter"),
                         ("hum", "verify_steps"), ("audit", "n_samples")):
        if values[section][key] < 1:
            raise ConfigError(f"{section}.{key} must be positive")
    for key in ("s_grid", "lambda_grid"):
        if not values["audit"][key]:
            raise ConfigError(f"audit.{key} must list at least one value")
    hum = values["hum"]
    if not 0.0 < hum["r0"] < hum["r1"] < 1.0:
        raise ConfigError("hum.r0 and hum.r1 must satisfy 0 < r0 < r1 < 1")
    if not hum["tol"] > 0:
        raise ConfigError("hum.tol must be positive")
    if not hum["eps_scale"] >= 0.0:
        raise ConfigError("hum.eps_scale must be nonnegative")
