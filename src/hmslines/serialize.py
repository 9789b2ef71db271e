"""Canonical JSON encoding shared by certificates, configs and the CLI.

Everything numeric is rendered as a string in lowest terms so that a
certificate serializes to the same bytes on every run; `canonical_json`
fixes key order and separators, and `config_digest` hashes that."""

import hashlib
import json
from fractions import Fraction

from .errors import ConfigError


def frac_str(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s) -> Fraction:
    """An int or a string such as "-3/16" as a Fraction; floats are
    refused, since their binary value is not the decimal written."""
    if isinstance(s, float):
        raise ConfigError(f"not an exact rational: {s!r}; write it as a string")
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational number: {s!r}") from exc


def jsonable(value):
    """Recursively convert Fractions/tuples into JSON primitives."""
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise ConfigError(f"cannot serialize {type(value).__name__} {value!r}")


def canonical_json(data) -> str:
    return json.dumps(jsonable(data), sort_keys=True, separators=(",", ":"))


def config_digest(data) -> str:
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()
