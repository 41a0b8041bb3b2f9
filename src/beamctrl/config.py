"""Experiment configuration: INI-style files, strict validation, hashing.

The format is flat  key = value  pairs under sections.  Unknown sections or
keys are rejected so that typos fail loudly.  The configuration hash is
taken over the canonical post-default key/value listing, which makes run
directories stable under reformatting and comment changes.
"""

from __future__ import annotations

import configparser
import hashlib
import math
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


def _finite(raw: str) -> float:
    """float(raw); ValueError on nan and +-inf, which no key admits."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(_finite(tok) for tok in raw.replace(";", ",").split(",") if tok.strip())


def parse_modes(raw: str) -> list[tuple[int, float, float]]:
    """`k:cos:sin;...` as (k, cos, sin) triples; ValueError on a bad item."""
    items = [item.split(":") for item in raw.split(";")] if raw else []
    if any(len(parts) != 3 for parts in items):
        raise ValueError(f"{raw!r} is not k:cos:sin;...")
    return [(int(k), _finite(c), _finite(s)) for k, c, s in items]


def _one_of(names: tuple[str, ...]):
    return f"be one of {', '.join(names)}", names.__contains__


# bounds: (what `section.key` must do, test of the parsed value)
_POSITIVE = ("be positive", lambda v: v > 0)
_NONNEGATIVE = ("be nonnegative", lambda v: v >= 0)
_LISTED = ("list at least one value", bool)

# schema: section -> key -> (parser, default or _REQUIRED[, bound]); rules
# that read more than one key are in `_validate`
_REQUIRED = object()

SCHEMA = {
    "experiment": {
        "kind": (str, _REQUIRED, _one_of(EXPERIMENT_KINDS)),
        "seed": (int, 0),
    },
    "domain": {
        "d": (_finite, _REQUIRED),
        "L": (_finite, _REQUIRED),
        "T": (_finite, _REQUIRED),
    },
    "grid": {
        "n_modes": (int, 64, ("be even and at least 8",
                              lambda n: n >= 8 and n % 2 == 0)),
        "n_time": (int, 128, ("be at least 8", lambda n: n >= 8)),
    },
    "carleman": {
        "s": (_finite, 4.0),
        "lambda": (_finite, 2.0),
        "T0": (_finite, 0.5),
        "T1": (_finite, 0.5),
        "zeta": (Fraction, Fraction(1)),
        "eta_scale": (_finite, 0.1, _POSITIVE),
        "mollify_radius": (_finite, 0.0),   # 0 means the L/8 default
    },
    "potential": {
        "kind": (str, "zero", _one_of(POTENTIAL_KINDS)),
        "amplitude": (_finite, 1.0),
        "seed": (int, 0),
        "max_mode": (int, 2),
        "space_mode": (int, 1),
        "time_mode": (int, 1),
    },
    "data": {
        "kind": (str, "random", _one_of(DATA_KINDS)),
        "seed": (int, 1),
        "max_mode": (int, 4),
        "amplitude": (_finite, 1.0),
        "beta0_modes": (str, ""),
        "beta1_modes": (str, ""),
    },
    "hum": {
        "tol": (_finite, 1e-10, _POSITIVE),
        "max_iter": (int, 3000, _POSITIVE),
        "eps_scale": (_finite, 1e-14, _NONNEGATIVE),
        "r0": (_finite, 0.3),
        "r1": (_finite, 0.7),
        "verify_steps": (int, 4096, _POSITIVE),
        "suppression_target": (_finite, 1e-3),
    },
    "forward": {
        "n_steps": (int, 2000, _POSITIVE),
        "fixed_point_kappa": (_finite, 0.0, _NONNEGATIVE),  # 0: no fixed point
    },
    "audit": {
        "n_samples": (int, 32, _POSITIVE),
        "calib_seed": (int, 11),
        "heldout_seed": (int, 202),
        "max_mode": (int, 16),
        "s_grid": (_floats, (4.0, 8.0), _LISTED),
        "lambda_grid": (_floats, (2.0,), _LISTED),
        "heldout_factor": (_finite, 10.0),
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
    if not parser.read(str(path)):
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
        for key, (cast, default, *bound) in keys.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    value = cast(raw)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ConfigError(
                        f"bad value for {section}.{key}: {raw!r} ({exc})"
                    ) from exc
            elif default is _REQUIRED:
                raise ConfigError(f"missing required key {section}.{key}")
            else:
                value = default
            for must, holds in bound:
                if not holds(value):
                    raise ConfigError(f"{section}.{key} must {must}")
            values[section][key] = value

    cfg = ExperimentConfig(kind=values["experiment"]["kind"], values=values,
                           config_hash=hash_config(values))
    _validate(cfg)
    return cfg


def _keyed(keys: str, build):
    """build(), with its ValueError raised as a ConfigError naming keys."""
    try:
        return build()
    except ValueError as exc:
        raise ConfigError(f"{keys}: {exc}") from exc


def _validate(cfg: ExperimentConfig) -> None:
    values = cfg.values
    dom = _keyed("domain.d, domain.L, domain.T", cfg.domain)

    if cfg.kind in ("weights-audit", "carleman-audit", "control"):
        params = _keyed("carleman.s, carleman.lambda, carleman.T0, "
                        "carleman.T1", cfg.carleman_params)
        _keyed("carleman.T0, carleman.T1, domain.T",
               lambda: params.validate_horizon(dom.T))
        if not 0.0 <= values["carleman"]["mollify_radius"] < dom.L / 4.0:
            raise ConfigError("carleman.mollify_radius must lie in [0, L/4) "
                              "(0 means the L/8 default)")

    data = values["data"]
    if data["kind"] == "modal" and not data["beta0_modes"]:
        raise ConfigError("data.kind=modal requires data.beta0_modes")

    # mode indices address the rfft modes 0..n_modes/2 of the grid
    top = values["grid"]["n_modes"] // 2
    indices = [("data.max_mode", data["max_mode"]),
               ("potential.space_mode", values["potential"]["space_mode"])]
    for key in ("beta0_modes", "beta1_modes"):
        try:
            modes = parse_modes(data[key])
        except ValueError as exc:
            raise ConfigError(f"bad value for data.{key}: {exc}") from exc
        indices += [(f"data.{key}", k) for k, _, _ in modes]
    for key, k in indices:
        if not 0 <= k <= top:
            raise ConfigError(f"{key}: mode {k} is outside 0..{top}")

    hum = values["hum"]
    if not 0.0 < hum["r0"] < hum["r1"] < 1.0:
        raise ConfigError("hum.r0 and hum.r1 must satisfy 0 < r0 < r1 < 1")
