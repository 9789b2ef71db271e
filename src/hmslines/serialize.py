"""Canonical JSON encoding shared by certificates, configs and the CLI.

A rational is written as a string in lowest terms and a count as a
JSON int, so that a certificate serializes to the same bytes on every
run; `canonical_json` fixes key order and separators, and
`config_digest` hashes that."""

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


def _rational(value) -> str:
    """A Fraction as its `frac_str`; anything else JSON cannot write is refused."""
    if isinstance(value, Fraction):
        return frac_str(value)
    raise ConfigError(f"cannot serialize {type(value).__name__} {value!r}")


def canonical_json(data) -> str:
    """JSON values and Fractions, sorted and compact; the config parser
    refuses floats, so none reaches a certificate or a digest."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"), default=_rational)


def config_digest(data) -> str:
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()
