"""Flat key=value configuration with environment overrides.

Three keys, all positive integers: ``depth_budget`` (the construction
table's depth limit), ``precision_bits`` (the enclosure precision of
``norm`` and ``deriv`` without ``--bits``, and of the ``approxlin``
trials) and ``elimination_budget`` (the Fourier-Motzkin row budget of
``feasible``).  ``descend`` does not read ``precision_bits``: its
enclosure depths come from the descent margins.

Sources, later wins: dataclass defaults, a config file of ``key = value``
lines (# comments allowed), then ``PROXINORM_<KEY>`` environment
variables.  Values are decimal digits, parsed as JSON keys are.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Optional

from .construction import DEFAULT_DEPTH_BUDGET
from .errors import InputFormatError
from .linalg import DEFAULT_ELIMINATION_BUDGET
from .norms import DEFAULT_PRECISION_BITS
from .vectors import parse_int

ENV_PREFIX = "PROXINORM_"


@dataclass
class Config:
    depth_budget: int = DEFAULT_DEPTH_BUDGET
    precision_bits: int = DEFAULT_PRECISION_BITS
    elimination_budget: int = DEFAULT_ELIMINATION_BUDGET

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, int) or value < 1:
                raise InputFormatError(f"config key {f.name!r} must be a positive integer")


def _parse_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputFormatError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def load_config(path: Optional[str] = None, env: Optional[dict] = None) -> Config:
    env = os.environ if env is None else env
    known = {f.name for f in fields(Config)}
    raw = {}
    if path is not None:
        for key, val in _parse_file(path).items():
            if key not in known:
                raise InputFormatError(f"unknown config key {key!r}")
            raw[key] = val
    for name in known:
        env_key = ENV_PREFIX + name.upper()
        if env_key in env:
            raw[name] = env[env_key]
    return Config(**{key: parse_int(val.strip(), f"config key {key!r}", key=True)
                     for key, val in raw.items()})
