"""Flat key=value configuration with environment overrides, and the reader
of every input file.  One key: ``depth_budget``, the construction table's
depth limit, a positive integer.  Sources, later wins: the default, a file
of ``key = value`` lines (# comments allowed), then ``PROXINORM_<KEY>``.
Values are decimal digits, parsed as JSON keys are.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Optional

from .construction import DEFAULT_DEPTH_BUDGET
from .errors import InputFormatError
from .vectors import parse_int

ENV_PREFIX = "PROXINORM_"


@dataclass
class Config:
    depth_budget: int = DEFAULT_DEPTH_BUDGET

    def __post_init__(self):
        if not isinstance(self.depth_budget, int) or self.depth_budget < 1:
            raise InputFormatError("config key 'depth_budget' must be a positive integer")


def _read_text(path: str) -> str:
    """The UTF-8 text of an input file; an unreadable file is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise InputFormatError(f"no such file: {path}")
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text (byte {exc.start})")


def _parse_file(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
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
