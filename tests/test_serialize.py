"""Canonical serialization: rational strings, stable JSON, config digests."""
import json
from fractions import Fraction
from importlib import resources

import pytest

from hmslines.errors import ConfigError
from hmslines.serialize import (
    canonical_json,
    config_digest,
    frac_str,
    parse_frac,
)

F = Fraction


def test_frac_str_lowest_terms():
    assert frac_str(5) == "5"
    assert frac_str(F(-3, 4)) == "-3/4"
    assert frac_str(F(4, 2)) == "2"
    assert frac_str(F(0)) == "0"
    assert frac_str(F(7, -21)) == "-1/3"


def test_parse_frac_round_trip():
    for s in ("-3/4", "22", "1/16", "0", "-1"):
        assert frac_str(parse_frac(s)) == s
    assert parse_frac(3) == F(3)
    assert parse_frac("6/4") == F(3, 2)


def test_parse_frac_rejects_junk():
    for bad in ("x", "1/0", "three", "", "1.5.2", None):
        with pytest.raises(ConfigError):
            parse_frac(bad)


def test_canonical_json_is_sorted_and_compact():
    out = canonical_json({"b": F(1, 2), "a": [1, (2, 3)]})
    assert out == '{"a":[1,[2,3]],"b":"1/2"}'
    assert canonical_json({"t": True, "n": None}) == '{"n":null,"t":true}'


def test_canonical_json_ignores_insertion_order():
    one = canonical_json({"x": 1, "y": 2, "z": [3, F(1, 3)]})
    two = canonical_json({"z": [3, F(1, 3)], "y": 2, "x": 1})
    assert one == two


def test_canonical_json_rejects_foreign_objects():
    # JSON has no form for them; floats are refused earlier, by the
    # config parser (test_search.py::test_parse_config_refuses_floats)
    with pytest.raises(ConfigError, match="cannot serialize object"):
        canonical_json({"x": object()})
    with pytest.raises(ConfigError, match="cannot serialize set"):
        canonical_json([{1, 2}])


def _config_data(name):
    path = resources.files("hmslines").joinpath(f"configs/{name}")
    with open(str(path)) as fh:
        return json.load(fh)


def test_config_digests_are_frozen():
    # fingerprints of the shipped demo configurations; certificates
    # embed these, so a change here invalidates recorded runs
    rho0 = _config_data("rho0-demo.json")
    char3 = _config_data("char3-demo.json")
    assert config_digest(rho0) == (
        "04e9337f9b05310c4521ce90f1b669fe9483c10a99525122f69d407a2453efae"
    )
    assert config_digest(char3) == (
        "3d5fe966610aa0b52108a308f00b265caece0f0818b34453e1cc895a90b4df03"
    )


def test_config_digest_tracks_content():
    base = _config_data("rho0-demo.json")
    tweaked = dict(base, height_bound=base["height_bound"] + 1)
    assert config_digest(tweaked) != config_digest(base)
    reordered = dict(reversed(list(base.items())))
    assert config_digest(reordered) == config_digest(base)
