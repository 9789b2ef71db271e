"""Congruence search, certificates, and intersection-point extraction."""
import gc
import json
import re
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cache
from hashlib import sha256
from importlib import resources
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hmslines import hensel, lines, quartics, search
from hmslines.errors import (
    ConfigError,
    DegenerateLineError,
    HmsError,
    PrecisionError,
    SearchExhausted,
)
from hmslines.hensel import hensel_factor_quartic
from hmslines.lines import (
    Line,
    TangentConeChart,
    labc_line,
    labc_params_of_line,
    quartic_of_line,
)
from hmslines.mpoly import SparsePoly
from hmslines.padics import UnramifiedRing, pmod
from hmslines.scalars import valuation_of_rational
from hmslines.serialize import frac_str
from hmslines.surface import CompiledForm
from hmslines.search import (
    CERTIFICATE_SCHEMA,
    _candidate_params,
    _combined_parameters,
    build_model,
    certify_line,
    derive_chart_params,
    find_lines,
    intersection_points,
    line_chart,
    load_config,
    parse_config,
)

from exact_oracles import evaluate
from precision_probe import certificate_entry

F = Fraction

REAL_LINE_ROWS = ((4, 0, -3, 3, 0, -2), (0, 20, -23, 7, 40, 6))
CHAR3_LINE_ROWS = (
    (59046, 0, -1, 59049, 243, -243),
    (0, 19682, -19683, 3, 243, -243),
)


def config_path(name):
    return str(resources.files("hmslines").joinpath(f"configs/{name}"))


def demo_config(name, **overrides):
    with open(config_path(name)) as fh:
        data = json.load(fh)
    data.update(overrides)
    return parse_config(data)


def congruence_config(targets, **keys):
    """A char3-x config, which needs no seed point, with targets given as
    place -> params."""
    return parse_config({
        "twist": "char3-x",
        "targets": [{"place": p, "params": params} for p, params in targets.items()],
        **keys,
    })


def test_crt_parameter_combines_congruences():
    cfg = congruence_config(
        {"real": [2000] * 3, 3: [1] * 3, 5: [2] * 3}, k3=3, k5=3
    )
    reps, modulus = _combined_parameters(cfg)
    assert (reps, modulus) == ((F(2377),) * 3, 3375)
    rep = reps[0]
    assert rep % 27 == 1
    assert rep % 125 == 2
    # nearest representative of the class to the anchor
    assert abs(rep - 2000) * 2 <= modulus


def test_crt_parameter_anchor_only():
    cfg = congruence_config({"real": ["1/16", 2, 3]})
    assert _combined_parameters(cfg) == ((F(1, 16), F(2), F(3)), 1)


def test_crt_parameter_single_prime():
    cfg = congruence_config({3: [3, 3, 3]}, k3=4)
    assert _combined_parameters(cfg) == ((F(3),) * 3, 81)


def test_crt_parameter_rejects_non_integral_residue():
    with pytest.raises(ConfigError, match="1/3 is not a 3-adic integer"):
        _combined_parameters(congruence_config({3: ["1/3", 0, 0]}, k3=1))
    with pytest.raises(ConfigError, match="7/10 is not a 5-adic integer"):
        _combined_parameters(congruence_config({5: [0, "7/10", 0]}, k5=2))


def test_parse_config_reads_demo():
    cfg = load_config(config_path("rho0-demo.json"))
    assert cfg.twist == "rho0-archimedean"
    assert cfg.lambda1 == 1 and cfg.lambda2 == 1
    assert cfg.seed_point == (F(-1), F(0), F(1), F(-1), F(-1), F(1))
    assert cfg.targets == {"real": (F(2), F(1, 16), F(3))}
    assert cfg.targets.get(3) is None and cfg.targets.get(5) is None
    assert cfg.k3 == 0 and cfg.k5 == 0
    assert cfg.height_bound == 50
    assert cfg.precision == 12
    # the digest is a stable hex fingerprint of the raw dict
    assert cfg.digest == demo_config("rho0-demo.json").digest
    assert len(cfg.digest) == 64


def test_parse_config_rejects_defects():
    base = {
        "twist": "rho0-archimedean",
        "seed_point": ["-1", "0", "1", "-1", "-1", "1"],
        "targets": [{"place": "real", "params": ["2", "1/16", "3"]}],
    }
    bad = [
        ({**base, "plume": 1}, "unknown configuration keys: ['plume']"),
        ({**base, "twist": "moebius"}, "twist must be one of"),
        ({**base, "lambda1": "0"}, "lambda1, lambda2 must be nonzero"),
        ({**base, "lambda1": "x"}, "not a rational number: 'x'"),
        ({**base, "lambda2": None}, "not a rational number: None"),
        ({**base, "seed_point": ["1", "2", "3"]}, "seed_point must be a list"),
        ({**base, "targets": [{"place": "real", "params": ["0", "0", "0"]},
                              {"place": "real", "params": ["1", "0", "0"]}]},
         "duplicate target for place 'real'"),
        ({**base, "targets": [{"place": 7, "params": ["0", "0", "0"]}]},
         "unsupported finite place 7"),
        ({**base, "targets": [{"place": "x", "params": ["0", "0", "0"]}]},
         "unknown place 'x'"),
        # a place is the int 3, never a string that parses as 3
        ({**base, "targets": [{"place": "3", "params": ["0", "0", "0"]}], "k3": 1},
         "unknown place '3'"),
        ({**base, "targets": [{"place": " 3 ", "params": ["0", "0", "0"]}], "k3": 1},
         "unknown place ' 3 '"),
        ({**base, "targets": [{"params": ["0", "0", "0"]}]},
         "each target needs a 'place' key"),
        ({**base, "targets": [{"place": 3}]}, "target params must be a triple"),
        ({**base, "targets": [{"place": 3, "params": ["1", "2"]}]},
         "target params must be a triple"),
        ({**base, "targets": [{"place": "real", "params": ["0", "0", "0"], "weight": 1}]},
         "unknown target keys: ['weight']"),
        ({**base, "targets": [{"place": 3, "params": ["1", "2", "3"]}]},
         "a place-3 target needs k3 >= 1"),
        ({**base, "targets": [{"place": 5, "params": ["1", "2", "3"]}]},
         "a place-5 target needs k5 >= 1"),
        ({**base, "targets": {"place": "real"}}, "targets must be a list"),
        ({**base, "height_bound": 0}, "height_bound must be at least 1"),
        ({**base, "precision": 0}, "precision must be at least 1"),
        ({**base, "rng_seed": "soon"}, "rng_seed must be an integer"),
        ({**base, "seed_point": None}, "this twist needs a seed_point"),
        ([base], "configuration must be a JSON object"),
    ]
    for data, message in bad:
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(data)
    # a place-3 target is fine once k3 names the congruence depth
    ok = {**base, "targets": [{"place": 3, "params": ["1", "2", "3"]}], "k3": 2}
    assert parse_config(ok).k3 == 2


def test_loading_building_and_searching_refuse_bad_configs(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"twist": ')
    with pytest.raises(ConfigError, match="configuration is not valid JSON"):
        load_config(str(path))
    # a config built directly, past parse_config, whose twist cannot be built
    char3 = demo_config("char3-demo.json")
    with pytest.raises(
        ConfigError, match="cannot build the twisted model: twist parameters must be nonzero"
    ):
        build_model(replace(char3, lambda1=F(0)))
    # the labc chart needs no seed point, but the search needs a target
    with pytest.raises(ConfigError, match="the search needs at least one target"):
        find_lines(demo_config("char3-demo.json", targets=[]))


@pytest.mark.parametrize(
    "overrides",
    [
        {"lambda1": 0.5},
        {"targets": [{"place": "real", "params": ["2", 0.0625, "3"]}]},
        {"seed_point": [-1, 0, 1, -1, -1, 1.0]},
        {"targets": [{"place": 5.0, "params": ["2", "1/16", "3"]}], "k5": 1},
        {"targets": [{"place": True, "params": ["2", "1/16", "3"]}]},
    ],
)
def test_parse_config_refuses_floats(overrides):
    # a JSON float is not an exact rational, nor is a float or a bool a
    # place; each is refused up front, naming the value, since the
    # digest's serializer writes a float as it comes
    with pytest.raises(ConfigError, match=r"0\.5|0\.0625|1\.0|5\.0|True"):
        demo_config("rho0-demo.json", **overrides)


def test_config_digest_is_taken_once():
    with open(config_path("char3-demo.json")) as fh:
        data = json.load(fh)
    cfg = parse_config(data)
    data["height_bound"] += 1
    assert cfg.digest == (
        "3d5fe966610aa0b52108a308f00b265caece0f0818b34453e1cc895a90b4df03"
    )


def test_candidate_enumeration_walks_outward():
    cfg = load_config(config_path("char3-demo.json"))
    reps, modulus = _combined_parameters(cfg)
    assert (reps, modulus) == ((F(3), F(243), F(243)), 81)
    gen = _candidate_params(reps, modulus, cfg.height_bound)
    first = [next(gen) for _ in range(6)]
    assert first == [
        (F(3), F(243), F(243)),
        (F(-78), F(162), F(162)),
        (F(-78), F(162), F(243)),
        (F(-78), F(162), F(324)),
        (F(-78), F(243), F(162)),
        (F(-78), F(243), F(243)),
    ]
    for triple in first:
        for rep, value in zip(reps, triple):
            assert (value - rep) % modulus == 0


def _filtered_cube_walk(reps, modulus, height_bound):
    """The reference walk: every offset of the whole sup-norm cube, shell
    by shell in lexicographic order, kept when each numerator of
    rep + n * modulus, num + n * modulus * den, is at most the bound."""
    if any(rep.denominator > height_bound for rep in reps):
        return
    max_radius = max([1] + [(height_bound + abs(rep)) // modulus + 1 for rep in reps])
    axes = [(rep.numerator, modulus * rep.denominator) for rep in reps]
    for radius in range(int(max_radius) + 1):
        for off in product(range(-radius, radius + 1), repeat=3):
            nums = [num + n * step for (num, step), n in zip(axes, off)]
            if max(map(abs, off)) == radius and max(map(abs, nums)) <= height_bound:
                yield tuple(rep + n * modulus for rep, n in zip(reps, off))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.lists(
        st.builds(F, st.integers(-8, 8), st.sampled_from([1, 1, 2, 3])),
        min_size=3,
        max_size=3,
    ),
    st.integers(1, 6),
    st.integers(1, 9),
)
# no multiple of 10 moves 5 into [-3, 3]: the middle axis is empty
@example([F(0), F(5), F(1, 2)], 10, 3)
# a denominator above the bound admits nothing
@example([F(1, 5), F(0), F(0)], 1, 4)
def test_candidate_walk_is_the_filtered_cube(reps, modulus, height_bound):
    want = list(_filtered_cube_walk(reps, modulus, height_bound))
    assert list(_candidate_params(reps, modulus, height_bound)) == want


def _walk_digest(config):
    walk = _candidate_params(*_combined_parameters(config), config.height_bound)
    text = "".join(" ".join(map(str, triple)) + "\n" for triple in walk)
    return text.count("\n"), sha256(text.encode()).hexdigest()


def test_drained_walks_are_pinned():
    # the whole walk of each demo class; the char3 class is the one the
    # precision-starved char3 search drains
    assert _walk_digest(load_config(config_path("rho0-demo.json"))) == (
        71407,
        "c3c8d9206b2810c4e3981ac2c037d4a9882424cbb3f9633d052d0a1a7949d0fb",
    )
    assert _walk_digest(load_config(config_path("char3-demo.json"))) == (
        729,
        "290c065a0a4ee6d9ddb2a8d20b1c5b57ab8465b96c9b8d938149f7e168075a18",
    )


def test_rho0_demo_finds_real_line():
    cfg = load_config(config_path("rho0-demo.json"))
    results = find_lines(cfg, max_results=1)
    assert len(results) == 1
    line, cert = results[0]
    assert line.primitive_rows() == REAL_LINE_ROWS
    assert cert.passed
    data = cert.data
    assert data["schema"] == CERTIFICATE_SCHEMA
    assert data["config_digest"] == cfg.digest
    assert data["chart"]["kind"] == "tangent-cone"
    assert data["chart"]["params"] == ["2", "1/16", "3"]
    assert data["real"] == {"root_count": 4, "required": True}
    assert data["summary"]["checks"] == {"real_four_roots": True}
    assert data["summary"]["reasons"] == []


def test_rho0_demo_records_ungated_local_evidence():
    # only the real place gates the demo; the 3- and 5-adic sections are
    # still recorded, and at this precision the cubic factor stays open.
    # The quartic's top coefficient is 125, so at 5 the cube is the root
    # at [1:0], and the block at [1:0] comes after the affine ones
    cfg = load_config(config_path("rho0-demo.json"))
    (_, cert), = find_lines(cfg, max_results=1)
    cube, simple = (3, 1, 3, "inconclusive"), (1, 1, 1, "unramified")
    for key, order in (("local_3", [cube, simple]), ("local_5", [simple, cube])):
        section = cert.data[key]
        assert section["required"] is False
        assert section["verdict"] == "inconclusive"
        shapes = [
            (b["degree"], b["residue_degree"], b["multiplicity"], b["verdict"])
            for b in section["blocks"]
        ]
        assert shapes == order
        assert section["points_extracted"] == 1


def test_char3_demo_finds_unramified_line():
    cfg = load_config(config_path("char3-demo.json"))
    results = find_lines(cfg, max_results=1)
    assert len(results) == 1
    line, cert = results[0]
    assert line.primitive_rows() == CHAR3_LINE_ROWS
    assert cert.passed
    data = cert.data
    assert data["chart"]["kind"] == "labc"
    assert data["chart"]["params"] == ["3", "243", "243"]
    assert data["quartic"]["disc_valuation_3"] == 10
    assert data["quartic"]["disc_valuation_5"] == 0
    assert data["galois"]["label"] == "S4"
    assert data["galois"]["solvable"] is True
    assert data["galois"]["disc_is_square"] is False
    assert data["real"] == {"root_count": 2, "required": False}
    assert data["summary"]["checks"] == {"unramified_at_3": True}

    loc3 = data["local_3"]
    assert loc3["verdict"] == "unramified"
    assert loc3["squarefree_mod_p"] is False
    assert loc3["residue_degrees"] == [1, 1, 2]
    assert loc3["points_extracted"] == 4
    assert [
        (b["degree"], b["residue_degree"], b["multiplicity"],
         b["verdict"], b["disc_valuation"])
        for b in loc3["blocks"]
    ] == [(2, 1, 2, "unramified", 4), (2, 2, 1, "unramified", None)]
    assert loc3["cusp"] == {
        "p": 3,
        "depths": [1, 1, 1],
        "distances": ["1/3", "1/3", "1/3"],
    }
    parity = loc3["parity"]
    assert (parity["ord_b"], parity["ord_c"]) == (5, 5)
    assert parity["admissible"] is False  # advisory only, does not gate


def test_char3_demo_certifies_ordinary_5_adic_points():
    cfg = load_config(config_path("char3-demo.json"))
    (_, cert), = find_lines(cfg, max_results=1)
    loc5 = cert.data["local_5"]
    assert loc5["verdict"] == "unramified"
    assert loc5["squarefree_mod_p"] is True
    assert loc5["residue_degrees"] == [2, 2]
    assert loc5["points_extracted"] == 4
    invariants = [
        {k: entry[k] for k in ("v_sigma3", "v_sigma5", "v_D", "v_u1",
                               "v_u2", "ordinary", "curve_V_avoided")}
        for entry in loc5["points"]
    ]
    assert invariants == [
        {"v_sigma3": 0, "v_sigma5": 1, "v_D": 0, "v_u1": -6, "v_u2": -3,
         "ordinary": True, "curve_V_avoided": True},
        {"v_sigma3": 0, "v_sigma5": 0, "v_D": 0, "v_u1": 0, "v_u2": 0,
         "ordinary": True, "curve_V_avoided": True},
    ]


def test_search_reruns_are_byte_identical():
    for name in ("rho0-demo.json", "char3-demo.json"):
        (_, first), = find_lines(load_config(config_path(name)), max_results=1)
        (_, second), = find_lines(load_config(config_path(name)), max_results=1)
        assert first.to_json() == second.to_json()


def test_certify_line_matches_search_output():
    cfg = load_config(config_path("rho0-demo.json"))
    model = build_model(cfg)
    line = Line([(4, 0, -3, 3, 0, -2), (0, 20, -23, 7, 40, 6)])
    kind, params = derive_chart_params(line, cfg, model)
    assert kind == "tangent-cone"
    assert params == (F(2), F(1, 16), F(3))
    cert = certify_line(line, model, cfg, chart_params=params, chart_kind=kind)
    (_, found), = find_lines(cfg, max_results=1)
    assert cert.to_json() == found.to_json()


@pytest.mark.parametrize(
    "name, overrides",
    [
        ("rho0-demo.json", {}),
        ("char3-demo.json", {}),
        # both finite gates: Hensel at 3, then Hensel, points and
        # invariants at 5
        (
            "char3-demo.json",
            {
                "targets": [
                    {"place": 3, "params": [3, 243, 243]},
                    {"place": 5, "params": [3, 243, 243]},
                ],
                "k5": 1,
                "height_bound": 1000,
            },
        ),
    ],
)
def test_search_emits_the_bytes_certify_emits(name, overrides):
    # the search builds its certificates gate first; certify builds every
    # section of the same line in certificate order
    cfg = demo_config(name, **overrides)
    results = find_lines(cfg, max_results=6)
    assert len(results) == 6
    for line, found in results:
        model = build_model(cfg)
        kind, params = derive_chart_params(line, cfg, model)
        cert = certify_line(line, model, cfg, chart_params=params, chart_kind=kind)
        assert found.to_json() == cert.to_json()


def _count_calls(monkeypatch, name):
    """Record the result of every call of one hmslines.search attribute."""
    results = []
    fn = getattr(search, name)

    def counting(*args, **kwargs):
        results.append(fn(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(search, name, counting)
    return results


def _record_args(monkeypatch, module, name):
    """Record the arguments of every call of one attribute of a module."""
    calls = []
    fn = getattr(module, name)

    def recording(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


def _count_lifts(monkeypatch):
    """Record the name of every call of the two lifting routines of
    `hensel`."""
    calls = []
    for name in ("hensel_lift_factors", "hensel_pair_lift"):

        def counting(*args, fn=getattr(hensel, name), name=name):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(hensel, name, counting)
    return calls


def test_the_3_adic_gate_lifts_no_fourth_power_and_no_lone_double(monkeypatch):
    # at precision 5 and height 120 the char3 class rejects 24 lines at
    # the 3-adic gate: 18 reduce to a (linear)^4, inconclusive, and 6 to
    # a (linear)^2 times two simple roots, ramified by the parity of
    # v_3(D).  The 12 lines of odd v_3(D), the 6 ramified ones and 6 of
    # the (linear)^4, are rejected by that parity before any report; no
    # line passes, so every report is read by the gate alone
    reports = _count_calls(monkeypatch, "hensel_factor_quartic")
    lifts = _count_lifts(monkeypatch)
    with pytest.raises(SearchExhausted) as info:
        find_lines(demo_config("char3-demo.json", precision=5, height_bound=120))
    assert info.value.stats["gate_failures"] == 24
    shapes = Counter(
        (tuple(sorted((b.residue_degree, b.multiplicity) for b in rep.blocks)), rep.verdict)
        for rep in reports
    )
    assert shapes == {(((1, 4),), "inconclusive"): 12}
    assert lifts == []
    assert not any("_monic" in vars(rep) for rep in reports)


def test_an_odd_v_p_D_fails_the_gate_where_the_report_raises():
    # (t^2 - 27u^2)((t - u)^2 - 9u^2): two (linear)^2 blocks mod 3 of
    # discriminant valuations 3 and 2, so v_3(D) = 5; at K = 2 both are
    # O(3^2) and the report raises, but the gate reads the odd v_3(D)
    q = quartics.BinaryQuartic([216, 54, -35, -2, 1])
    assert valuation_of_rational(q.discriminant(), 3) == 5
    config = demo_config("char3-demo.json", precision=2)
    sections = object.__new__(search._Sections)
    sections.quartic, sections.config, sections._built = q, config, {}
    assert next(sections.targeted_gates()) == ("unramified_at_3", False)
    with pytest.raises(PrecisionError, match=r"discriminant is O\(3\^2\)"):
        sections.hensel(3)


def test_a_squarefree_report_with_a_root_at_infinity_lifts_nothing(monkeypatch):
    # t u (t^2 + 2 u^2) has c4 = 0, so [1:0] is a simple root mod 5; the
    # blocks come in the order of their residue factors, t, then t^2 + 2,
    # then u at [1:0], read here off the lift, which building the report
    # never made.  The lift is one `hensel_lift_factors` call with the
    # block at [1:0] as its first part: t is divided out by Newton
    # iteration, and one pair lift splits what is left into t^2 + 2 and
    # the block at [1:0], here exactly u, since c4 = 0 over Z
    lifts = _count_lifts(monkeypatch)
    report = hensel_factor_quartic(quartics.BinaryQuartic([0, 2, 0, 1, 0]), 5, 12)
    assert report.residue.top == 3
    assert lifts == []
    residues = []
    for blk in report.blocks:
        g = pmod(report.lift(12)[blk.index], 5)
        residues.append(tuple(c * pow(g[-1], -1, 5) % 5 for c in g))
    assert residues == [(0, 1), (2, 0, 1), (1,)]
    assert report.lift(12)[report.blocks[-1].index] == (1, 0)
    assert lifts == ["hensel_lift_factors", "hensel_pair_lift"]


# the 18 lines of the char3 class at precision 5 (the benchmark's starved
# search at seed 0) whose reduction at 3 is a (linear)^2 times simple
# factors, with v_3(D) = 6: even, so unramified, but beyond precision 5
STARVED_DOUBLE_ROOT_PARAMS = [(3 + 81 * k, 0, c) for k in range(-4, 5) for c in (243, -243)]


def test_a_double_root_beyond_the_precision_passes_the_gate_and_asks_for_more(
    monkeypatch,
):
    config = demo_config("char3-demo.json", precision=5)
    model = build_model(config)
    lifts = _count_lifts(monkeypatch)
    ring_precisions = []
    ring = hensel.UnramifiedRing

    def recording_ring(p, modulus, K):
        ring_precisions.append(K)
        return ring(p, modulus, K)

    monkeypatch.setattr(hensel, "UnramifiedRing", recording_ring)
    for params in STARVED_DOUBLE_ROOT_PARAMS:
        line = labc_line(*params)
        lifts.clear()
        sections = search._Sections(line, model, config)
        assert dict(sections.targeted_gates()) == {"unramified_at_3": True}, params
        (double,) = [b for b in sections.hensel(3).blocks if b.multiplicity > 1]
        assert (double.verdict, double.disc_valuation) == ("unramified", 6)
        assert lifts == []
        # the hint counts in the configured precision and gives the
        # double root's roots one digit
        with pytest.raises(PrecisionError, match="valuation 6") as info:
            certify_line(line, model, config)
        assert info.value.needed == 7 > config.precision
        report = hensel_factor_quartic(quartic_of_line(line, model), 3, 7)
        (double,) = [b for b in report.blocks if b.multiplicity > 1]
        roots = hensel.block_roots(report, double, 7)
        assert [z.ring.K for z, _ in roots] == [1, 1]
    assert min(ring_precisions) >= 1


def _starved_precision_failures(config, model):
    """(line, hint) of each line of the char3 class that the search
    counts as a precision failure: a PrecisionError while deciding a
    gate or while building a passing line's certificate."""
    failures = []
    for params in _candidate_params(*_combined_parameters(config), config.height_bound):
        sections = search._Sections(labc_line(*params), model, config)
        try:
            if not sections.tangential and all(ok for _, ok in sections.targeted_gates()):
                search._certificate(sections, params, "labc")
        except PrecisionError as exc:
            failures.append((sections.line, exc.needed))
    return failures


def test_following_the_hints_decides_every_starved_precision_failure():
    # the benchmark's starved search at seed 0: certifying each of its
    # precision failures at the hint, and again at each new hint, must
    # decide the line, and every hint must exceed the precision that
    # raised it
    config = demo_config("char3-demo.json", precision=5)
    model = build_model(config)
    failures = _starved_precision_failures(config, model)
    assert len(failures) == 72
    paths = Counter()
    for line, needed in failures:
        prec, path = config.precision, []
        while len(path) < 8:
            assert needed > prec, (line.ints, path)
            prec = needed
            path.append(prec)
            try:
                certify_line(line, model, demo_config("char3-demo.json", precision=prec))
                break
            except PrecisionError as exc:
                needed = exc.needed
        else:
            pytest.fail(f"undecided at precision {prec}: {line.ints}")
        paths[tuple(path)] += 1
    # the cusp depths of simple and double roots ask for one digit more
    # each time; the 18 double roots of v_3(D) = 6 start at 7
    assert paths == {(6, 7): 54, (7, 8, 9): 18}


def _record_quartics(monkeypatch):
    """Record the coefficients every `BinaryQuartic` is made from."""
    made = []
    init = quartics.BinaryQuartic.__init__

    def recording(self, ints):
        made.append(tuple(ints))
        init(self, made[-1])

    monkeypatch.setattr(quartics.BinaryQuartic, "__init__", recording)
    return made


@pytest.mark.parametrize(
    "name, rows", [("rho0-demo.json", REAL_LINE_ROWS), ("char3-demo.json", CHAR3_LINE_ROWS)]
)
def test_certify_line_builds_one_integer_model(monkeypatch, name, rows):
    # the discriminant, the real root count, Hensel at 3 and 5, Galois
    # and the certificate's primitive_coeffs all read the line's one
    # quartic, its integer model
    made = _record_quartics(monkeypatch)
    cfg = demo_config(name)
    model = build_model(cfg)
    cert = certify_line(Line(rows), model, cfg)
    assert cert.data["galois"] is not None
    assert len(made) == 1
    # restricted on the line's integer basis: no Fraction is multiplied back
    assert all(type(c) is int for c in made[0])


def test_rho0_search_reaches_the_integer_model_with_ints(monkeypatch):
    # every tangent-cone candidate's quartic is restricted on the line's
    # integer basis: no Fraction coefficient is built to be multiplied
    # back into the primitive integer model
    made = _record_quartics(monkeypatch)
    assert len(find_lines(demo_config("rho0-demo.json"), max_results=20)) == 20
    assert made and {type(c) for ints in made for c in ints} == {int}


def test_labc_search_with_fractional_parameters_reaches_the_integer_model_with_ints(
    monkeypatch,
):
    # a labc candidate with non-integral parameters is restricted on its
    # line's integer basis, whose denominator goes into the scale
    made = _record_quartics(monkeypatch)
    config = congruence_config({"real": ["1/2", "1/3", "5"]}, height_bound=6)
    found = find_lines(config, max_results=100)
    assert made and {type(c) for ints in made for c in ints} == {int}
    # the scale keeps the bytes that certify emits
    model = build_model(config)
    for line, cert in found:
        params = labc_params_of_line(line)
        assert any(v.denominator > 1 for v in params)
        got = certify_line(line, model, config, params, "labc")
        assert got.to_json() == cert.to_json()


def test_gate_failures_build_no_galois_section(monkeypatch):
    reports = _count_calls(monkeypatch, "solvability_report")
    cfg = demo_config("char3-demo.json", precision=5, height_bound=120)
    with pytest.raises(SearchExhausted) as info:
        find_lines(cfg, max_results=1)
    stats = info.value.stats
    assert (stats["candidates"], stats["gate_failures"]) == (27, 24)
    assert stats["zero_discriminant"] == 3
    assert sum(v for k, v in stats.items() if k != "candidates") == 27
    assert reports == []


def test_search_counts_chart_off_surface_and_degenerate_outcomes(monkeypatch):
    # the first three candidates of the same search, on a labc chart
    # that does not claim its family is contained in the quadrics, so
    # that each line is restricted by quartic_of_line: the chart fails,
    # a line off the quadrics, a line inside the degree-8 locus
    replaced = iter([
        HmsError("no line at these parameters"),
        Line([[1, 0, 0, -1, -1, 1], [0, 1, -1, -1, 0, 1]]),
        Line([[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]),
    ])

    class Unchecked:
        kind = "labc"

        def line_at(self, a, b, c):
            outcome = next(replaced, None)
            if outcome is None:
                return labc_line(a, b, c)
            if isinstance(outcome, HmsError):
                raise outcome
            return outcome

    monkeypatch.setattr(search, "line_chart", lambda config, model: Unchecked())
    cfg = demo_config("char3-demo.json", precision=5, height_bound=120)
    with pytest.raises(SearchExhausted) as info:
        find_lines(cfg, max_results=1)
    stats = info.value.stats
    assert stats["candidates"] == 27
    assert (stats["chart_failures"], stats["off_surface"], stats["degenerate"]) == (1, 1, 1)
    assert sum(v for k, v in stats.items() if k != "candidates") == 27


def test_labc_search_counts_a_zero_quartic_degenerate(monkeypatch):
    # a q4 in the ideal of q1, here q1 x0^3, restricts to the zero
    # quartic on every line in the quadrics: each candidate of the class
    # is counted degenerate, and none goes through quartic_of_line
    cfg = demo_config("char3-demo.json", precision=5, height_bound=120)
    model = build_model(cfg)
    x0 = SparsePoly.variable(0, 6)
    model.compiled[4] = CompiledForm(model.q1 * x0 * x0 * x0)
    monkeypatch.setattr(search, "build_model", lambda config: model)
    restricted = _count_calls(monkeypatch, "quartic_of_line")
    with pytest.raises(SearchExhausted) as info:
        find_lines(cfg, max_results=1)
    stats = info.value.stats
    assert (stats["candidates"], stats["degenerate"]) == (27, 27)
    assert restricted == []


def test_char3_search_calls_labc_line_once_per_candidate(monkeypatch):
    # the benchmark counts the candidates of the starved char3 search by
    # the calls of search.labc_line, and checks them against the stats
    calls = _count_calls(monkeypatch, "labc_line")
    restricted = _count_calls(monkeypatch, "quartic_of_line")
    cfg = demo_config("char3-demo.json", precision=5)
    with pytest.raises(SearchExhausted) as info:
        find_lines(cfg, max_results=10**6)
    stats = info.value.stats
    assert len(calls) == stats["candidates"] == 729
    assert (stats["gate_failures"], stats["precision_failures"]) == (648, 72)
    assert (stats["zero_discriminant"], stats["duplicates"]) == (9, 0)
    # every candidate's quartic is restricted without the in_quadrics
    # check, which the chart's contained flag makes redundant
    assert restricted == []
    # the labc chart is built once per model
    model = build_model(cfg)
    chart = line_chart(cfg, model)
    assert line_chart(cfg, model) is chart
    assert chart.contained
    assert list(model.charts) == ["labc"]


def test_rho0_search_calls_line_at_once_per_candidate(monkeypatch):
    # the benchmark counts the candidates of the rho0 harvest by the calls
    # of TangentConeChart.line_at on the class, so line_at must not call
    # itself; its 151 candidates meet only 29 rulings (a, b), and the
    # chart builds one frame at the seed and one per ruling
    calls, frames = [], []
    line_at, frame_class = lines.TangentConeChart.line_at, lines._ConeFrame

    def counting_line_at(*args):
        calls.append(args[1:])
        return line_at(*args)

    def counting_frame(*args):
        frames.append(args[0])
        return frame_class(*args)

    monkeypatch.setattr(lines.TangentConeChart, "line_at", counting_line_at)
    monkeypatch.setattr(lines, "_ConeFrame", counting_frame)
    assert len(find_lines(demo_config("rho0-demo.json"), max_results=20)) == 20
    assert len(calls) == 151
    assert len({(a, b) for a, b, _ in calls}) == 29
    assert len(frames) == 30


@cache
def _char3_model(lambda1, lambda2):
    cfg = congruence_config({3: [0, 0, 0]}, k3=1, lambda1=lambda1, lambda2=lambda2)
    return cfg, build_model(cfg)


# ints, as the search passes integral parameters, and Fractions
LABC_PARAM = st.one_of(
    st.integers(-400, 400),
    st.builds(F, st.integers(-400, 400), st.sampled_from([1, 2, 3, 9, 10])),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.sampled_from([("1", "1"), ("3", "1/5"), ("-2/9", "7")]),
    LABC_PARAM, LABC_PARAM, LABC_PARAM, st.booleans(),
)
@example(("1", "1"), F(3), F(243), F(243), False)
@example(("3", "1/5"), 0, F(5, 3), 0, True)
def test_labc_search_quartic_is_the_quartic_of_the_line(lambdas, a, b, c, on_bc):
    # the search restricts q4 on a labc line without in_quadrics, since
    # the chart's contained flag is an identity in (a, b, c), a = bc
    # included; its quartic and sections are those of quartic_of_line
    if on_bc:
        a = b * c
    cfg, model = _char3_model(*lambdas)
    chart = line_chart(cfg, model)
    line = labc_line(a, b, c)
    assert chart.contained and lines.in_quadrics(line, model)
    try:
        want = quartic_of_line(line, model)
    except DegenerateLineError:
        with pytest.raises(DegenerateLineError, match="degree-8 locus"):
            search._Sections(line, model, cfg, chart.contained)
        return
    sections = search._Sections(line, model, cfg, chart.contained)
    plain = search._Sections(line, model, cfg)
    assert (sections.quartic.coeffs, sections.quartic.content) == (
        want.coeffs, want.content
    )
    assert all(type(x) is int for x in want.coeffs)
    assert sections.quartic_section() == plain.quartic_section()
    assert sections.tangential == plain.tangential == (want.discriminant() == 0)


def test_only_lines_passing_the_gates_get_a_galois_section(monkeypatch):
    reports = _count_calls(monkeypatch, "solvability_report")
    counts = _count_calls(monkeypatch, "real_root_count")
    results = find_lines(demo_config("rho0-demo.json"), max_results=3)
    assert len(results) == 3
    assert len(reports) == counts.count(4)
    assert len(counts) > len(reports)


def test_search_exhausted_reports_statistics():
    # parameters of height 16 can never enter a height-1 ball
    cfg = demo_config(
        "rho0-demo.json",
        targets=[{"place": "real", "params": ["1/16", "1/16", "1/16"]}],
        height_bound=1,
    )
    with pytest.raises(SearchExhausted) as info:
        find_lines(cfg, max_results=1)
    stats = info.value.stats
    assert stats["candidates"] == 0
    assert set(stats) == {
        "candidates", "chart_failures", "off_surface", "degenerate",
        "zero_discriminant", "duplicates", "precision_failures",
        "gate_failures",
    }
    assert all(v == 0 for v in stats.values())


def test_max_results_returns_partial_harvest():
    # a tiny ball around the origin holds exactly one certified line;
    # asking for ten returns that one instead of raising
    cfg = demo_config(
        "rho0-demo.json",
        targets=[{"place": "real", "params": ["0", "0", "0"]}],
        height_bound=1,
    )
    results = find_lines(cfg, max_results=10)
    assert len(results) == 1
    line, cert = results[0]
    assert line.primitive_rows() == ((3, 0, 1, 3, -5, -3), (0, 3, 5, 3, -7, -3))
    assert cert.data["chart"]["params"] == ["0", "1", "1"]
    assert cert.passed


def test_point_invariants_leave_undetermined_v_d_undecided():
    # D = 33600 = 5^2 * 1344 is nonzero, but vanishes mod 5^2: at
    # precision 2 neither the verdict nor the avoidance of V is known
    model = build_model(parse_config({"twist": "identity"}))
    coords = (1, 2, 2, 2, 2, 4)
    low = certificate_entry(model, coords, 5, 2)
    assert (low["v_sigma3"], low["v_sigma5"], low["v_D"]) == (0, 0, None)
    assert (low["v_u1"], low["v_u2"]) == (None, None)
    assert low["ordinary"] is None
    assert low["curve_V_avoided"] is None
    high = certificate_entry(model, coords, 5, 3)
    assert (high["v_D"], high["v_u1"], high["v_u2"]) == (2, 10, 6)
    assert high["ordinary"] is False
    assert high["curve_V_avoided"] is True


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-20, 20), st.integers(0, 6)), min_size=6, max_size=6
    ),
    st.integers(1, 12),
)
# a point on the cusp line itself: refused at every precision
@example([(0, 0), (1, 0), (2, 1), (0, 0), (0, 0), (0, 0)], 12)
def test_cusp_section_agrees_with_the_exact_point(terms, K):
    # oracle: the least 3-adic valuation of the nonzero non-cusp
    # coordinates 0, 3, 4 and 5 of the integer point, less that of all
    point = [n * 3**k for n, k in terms]
    assume(any(point))

    def least_valuation(coords):
        return min((valuation_of_rational(c, 3) for c in coords if c), default=None)

    gauge = least_valuation(point[i] for i in (0, 3, 4, 5))
    # the certificate path: the point is [1 : 0] on a span whose first
    # row is the point
    ring = UnramifiedRing(3, (0, 1), K)
    local = search.LocalPoint(0, ring.zero(), True)
    try:
        report = search._cusp_report((point, (0,) * 6), [local], K)
    except PrecisionError as exc:
        # refused exactly when every non-cusp coordinate is 0 mod 3^K;
        # on the cusp line itself that is at every K
        assert gauge is None or gauge >= K
        assert exc.needed == K + 1
        return
    depth = gauge - least_valuation(point)
    assert gauge is not None and gauge < K
    assert report == {"p": 3, "depths": [depth], "distances": [frac_str(F(1, 3**depth))]}


def test_a_line_meeting_the_cusp_line_at_a_point_is_degenerate():
    # x0 = x3 = x4 = x5 = 0 at [1 : 0] on this line, a root of its
    # quartic u (t^3 + u^3) that reduces into a block giving a 3-adic
    # point: its cusp depth is undetermined at every precision, which
    # used to ask for one digit more each time, so the line is refused
    # as degenerate at every precision
    line = Line([[0, 1, 0, 0, 0, 0], [0, 0, 1, -1, -1, 1]])
    for precision in (8, 60, 61):
        config = demo_config("char3-demo.json", precision=precision)
        with pytest.raises(DegenerateLineError) as info:
            certify_line(line, build_model(config), config)
        assert str(info.value) == (
            "the line meets the cusp line at [1 : 0], a root of its quartic, "
            "whose cusp depth no precision decides"
        )


def test_a_cusp_root_is_refused_only_through_the_block_of_a_point():
    # u (t^3 + u^3) at 3: the root [1 : 0], on the cusp line, is the
    # simple block's one point; the (t + u)^3 block gives none, and a
    # point read from it would not stand for the root, whose refusal
    # would then stay a PrecisionError
    config = demo_config("char3-demo.json")
    line = Line([[0, 1, 0, 0, 0, 0], [0, 0, 1, -1, -1, 1]])
    report = hensel_factor_quartic(quartic_of_line(line, build_model(config)), 3, 8)
    points = intersection_points(report, 8)
    assert [(pt.block, pt.flipped) for pt in points] == [(1, True)]
    with pytest.raises(DegenerateLineError, match=r"at \[1 : 0\]"):
        search._refuse_a_cusp_root(report, line.ints, points)
    moved = [search.LocalPoint(0, pt.z, pt.flipped) for pt in points]
    assert search._refuse_a_cusp_root(report, line.ints, moved) is None


def test_a_search_counts_a_line_through_a_cusp_point_as_degenerate(monkeypatch):
    # L(0, -5, -5) has four real roots and meets the cusp line at one of
    # them; a chart that gives only this line passes the real gate once,
    # and the certificate is refused
    monkeypatch.setattr(search, "labc_line", lambda *params: labc_line(0, -5, -5))
    config = congruence_config({"real": [0, -5, -5]}, height_bound=1, precision=12)
    with pytest.raises(SearchExhausted) as info:
        find_lines(config)
    stats = info.value.stats
    assert (stats["degenerate"], stats["duplicates"]) == (1, stats["candidates"] - 1)


def _demo_line(name, params):
    """The model of a demo config and its chart's line at params."""
    cfg = load_config(config_path(name))
    model = build_model(cfg)
    if cfg.twist == "char3-x":
        return model, labc_line(*params)
    return model, TangentConeChart(model, list(cfg.seed_point)).line_at(*params)


# chart parameters n * 3^k, so that labc lines meet the cusp closely
SCALED = st.builds(lambda n, k: n * 3**k, st.integers(-4, 4), st.integers(0, 5))
# (degree, precision) of the ring of each point, for the explicit
# examples; these must come through whole, only random draws may skip
KNOWN_RINGS = {
    # the worked line: its double root pair is only pinned down to half
    # the working precision once the discriminant's 3^4 is peeled off
    ("char3-demo.json", (3, 243, 243), 3, 8): [(1, 4), (1, 4), (2, 8)],
    ("char3-demo.json", (3, 243, 243), 5, 12): [(2, 12), (2, 12)],
    ("rho0-demo.json", (2, F(1, 16), 3), 5, 6): [(1, 6)],
    # double-root blocks: inert pairs at reduced precision, a split pair
    ("char3-demo.json", (-2, -6, -6), 3, 8): [(2, 6)],
    ("rho0-demo.json", (2, -2, 1), 3, 8): [(1, 8), (1, 4), (1, 4), (1, 8)],
    # and at 5 a (linear)^2 block, a simple root and a simple root at
    # [1:0], listed in that order: the block at [1:0] comes last
    ("rho0-demo.json", (-2, -18, -27), 5, 8): [(2, 6), (1, 8), (1, 8)],
}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.sampled_from(("char3-demo.json", "rho0-demo.json")),
    st.tuples(SCALED, SCALED, SCALED),
    st.sampled_from((3, 5)),
    st.integers(2, 8),
)
@example("char3-demo.json", (3, 243, 243), 3, 8)
@example("char3-demo.json", (3, 243, 243), 5, 12)
@example("rho0-demo.json", (2, F(1, 16), 3), 5, 6)
@example("char3-demo.json", (-2, -6, -6), 3, 8)
@example("rho0-demo.json", (2, -2, 1), 3, 8)
@example("rho0-demo.json", (-2, -18, -27), 5, 8)
def test_intersection_points_lie_on_the_surface(name, params, p, K):
    # oracle: each point is a zero of q1, q2 and q4 in its own ring, and
    # the certificate's restricted forms agree with the coordinates there
    known = KNOWN_RINGS.get((name, params, p, K))
    try:
        model, line = _demo_line(name, params)
        quartic = quartic_of_line(line, model)
    except HmsError:
        if known is not None:
            raise
        assume(False)
    try:
        points = intersection_points(hensel_factor_quartic(quartic, p, K), K)
    except PrecisionError:
        if known is not None:
            raise
        return
    if known is not None:
        assert [(pt.ring.deg, pt.ring.K) for pt in points] == known
    assert sum(pt.ring.deg for pt in points) <= 4
    forms = search._SpanForms(model, line.ints, p)
    for pt in points:
        ring = pt.ring
        assert ring.p == p and ring.K <= K
        # [z : 1], or [1 : z] when flipped
        t, u = (ring.one(), pt.z) if pt.flipped else (pt.z, ring.one())
        coords = [t * a + u * b for a, b in zip(*line.ints)]
        assert pt.coordinates(line.ints) == tuple(coords)
        # valuation at least ring.K: zero mod p^K
        for k in (1, 2, 4):
            value = evaluate(model.forms[k].terms, coords)
            assert value.valuation() is None
        # the restricted forms at the point are the forms at the coordinates
        restricted = forms.values(pt)
        assert restricted == tuple(evaluate(model.forms[k].terms, coords) for k in (3, 5, 6))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 5]), st.integers(1, 8), st.integers(1, 4), st.booleans(), st.data()
)
def test_span_forms_at_a_point_are_the_horner_loop_in_its_ring(p, K, d, flipped, data):
    # oracle: the loop on ring elements from the coefficient of z^n, c_n
    # at [z : 1] and c_0 at [1 : z], that the kernel pass replaced
    ints = st.integers(-(10**6), 10**6)
    ring = UnramifiedRing(p, data.draw(st.lists(ints, min_size=d, max_size=d)) + [1], K)
    z = ring.elt(data.draw(st.lists(ints, min_size=d, max_size=d)))
    forms = object.__new__(search._SpanForms)
    forms.coeffs = tuple(
        tuple(data.draw(st.lists(ints, min_size=n + 1, max_size=n + 1)))
        for n in (3, 5, 6)
    )
    expected = []
    for coeffs in forms.coeffs:
        top, *rest = coeffs if flipped else coeffs[::-1]
        acc = ring.elt([top])
        for c in rest:
            acc = acc * z + c
        expected.append(acc)
    assert forms.values(search.LocalPoint(0, z, flipped)) == tuple(expected)


def _extracted_either_way(report, k):
    """points_extracted of a section mod p^k with its points read, and
    without, or the message and hint of the PrecisionError each raised."""
    outcomes = []
    for count in (
        lambda: sum(pt.ring.deg for pt in intersection_points(report, k)),
        lambda: search._points_extracted(report, k),
    ):
        try:
            outcomes.append(count())
        except PrecisionError as exc:
            outcomes.append((str(exc), exc.needed))
    return outcomes


@pytest.mark.parametrize(
    "coeffs, p, k, extracted",
    [
        # (t^2 - 3^6 u^2)(t^2 + u^2) at 3: an unramified (linear)^2
        # block of valuation 6 and an inert quadratic; its roots have no
        # digit below precision 7
        ((-729, 0, -728, 0, 1), 3, 6, (
            "a double root's discriminant has valuation 6, so its roots "
            "have no digit at precision 6", 7)),
        ((-729, 0, -728, 0, 1), 3, 7, 4),
        # t^3 (t - u) + 5 u^4 at 5: a (linear)^3 block, inconclusive, and
        # a simple root; only the simple root counts
        ((5, 0, 0, -1, 1), 5, 8, 1),
        # (t^2 - 3 u^2)(t^2 + u^2) at 3: a ramified (linear)^2 block
        ((-3, 0, -2, 0, 1), 3, 8, 2),
    ],
)
def test_a_section_that_reads_no_points_counts_them_as_extraction_does(
    coeffs, p, k, extracted
):
    report = hensel_factor_quartic(quartics.BinaryQuartic(coeffs), p, 12)
    assert _extracted_either_way(report, k) == [extracted, extracted]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.sampled_from(("char3-demo.json", "rho0-demo.json")),
    st.tuples(SCALED, SCALED, SCALED),
    st.sampled_from((3, 5)),
    st.integers(1, 12),
)
@example("char3-demo.json", (3, 243, 243), 3, 4)
@example("rho0-demo.json", (2, F(1, 16), 3), 3, 8)
def test_unread_points_are_counted_as_the_demo_lines_extract_them(name, params, p, k):
    try:
        model, line = _demo_line(name, params)
        report = hensel_factor_quartic(quartic_of_line(line, model), p, 12)
    except HmsError:
        assume(False)
    counted, extracted = _extracted_either_way(report, k)
    assert counted == extracted


def test_certifying_the_readme_line_reads_no_3_adic_point_and_pair_lifts_nothing(
    monkeypatch,
):
    # the rho0 twist has no cusp section, so nothing reads its 3-adic
    # points: the section counts them.  Its simple roots are lifted by
    # Newton iteration: the one 5-adic point's, and three of the four
    # linear factors mod 7 of the Galois group's Zassenhaus lift, whose
    # quotient is then the fourth's lift.  The 5-adic report's lift and
    # Zassenhaus's each make one `hensel_lift_factors` call; the cube at
    # [1:0] mod 5 is inconclusive, and once the simple root is divided
    # out it is the one part left, so nothing reaches `hensel_pair_lift`
    extractions = _record_args(monkeypatch, search, "intersection_points")
    lifts = _count_lifts(monkeypatch)
    roots = _record_args(monkeypatch, hensel, "newton_root")
    cfg = load_config(config_path("rho0-demo.json"))
    cert = certify_line(Line(REAL_LINE_ROWS), build_model(cfg), cfg)
    assert cert.data["local_3"]["points_extracted"] == 1
    assert [report.p for report, _ in extractions] == [5]
    assert lifts == ["hensel_lift_factors", "hensel_lift_factors"]
    assert [p for _, _, p, _ in roots] == [5, 7, 7, 7]


def _record_labc_inversions(monkeypatch):
    """Record the line of every inversion of the labc chart, which
    `derive_chart_params` and the parity section both go through."""
    lines_inverted = []
    invert = search._LabcChart.params_of

    def recording(line):
        lines_inverted.append(line)
        return invert(line)

    monkeypatch.setattr(search._LabcChart, "params_of", staticmethod(recording))
    return lines_inverted


# on the labc chart at (3, 243, 243), and off it, where the parity
# section is null
@pytest.mark.parametrize(
    "rows, b",
    [(CHAR3_LINE_ROWS, "243"), (((1, 0, 0, 0, 0, 0), (0, 0, 1, -1, 1, -1)), None)],
)
def test_a_char3_certificate_inverts_the_labc_chart_once(monkeypatch, rows, b):
    # certify reads the parameters that derive_chart_params found, or
    # that it found itself, and never inverts the chart again
    inversions = _record_labc_inversions(monkeypatch)
    cfg = demo_config("char3-demo.json", precision=60)
    model = build_model(cfg)
    line = Line(rows)
    kind, params = derive_chart_params(line, cfg, model)
    cert = certify_line(line, model, cfg, chart_params=params, chart_kind=kind)
    assert inversions == [line]
    parity = cert.data["local_3"]["parity"]
    assert (parity and parity["b"]) == b
    inversions.clear()
    assert certify_line(line, model, cfg).data["local_3"]["parity"] == parity
    assert inversions == [line]


def test_a_search_and_a_rho0_certificate_invert_no_labc_chart(monkeypatch):
    # the search certifies with the labc parameters it walked, and the
    # rho0 twist has no parity section
    inversions = _record_labc_inversions(monkeypatch)
    ((_, found),) = find_lines(demo_config("char3-demo.json"), max_results=1)
    assert found.data["local_3"]["parity"]["b"] == "243"
    cfg = demo_config("rho0-demo.json")
    certify_line(Line(REAL_LINE_ROWS), build_model(cfg), cfg)
    assert inversions == []


def test_block_and_point_residue_degrees_of_an_inert_double_root():
    # (t^2 - 50)(t^2 + t + 1) at 5: t^2 - 50 is an unramified (linear)^2
    # block, v = 2 and w = 200 / 5^2 = 8, not a square mod 5.  The block
    # records the degree 1 of its residue factor t^2; its one point lies
    # in the degree-2 ring, which a point's residue_degree records, at
    # precision K - v
    report = hensel_factor_quartic(quartics.BinaryQuartic((-50, -50, -49, 1, 1)), 5, 12)
    block = search._serialize_block(report.blocks[0])
    assert block == {
        "degree": 2,
        "residue_degree": 1,
        "multiplicity": 2,
        "verdict": "unramified",
        "disc_valuation": 2,
    }
    points = [pt for pt in intersection_points(report, 12) if pt.block == 0]
    assert [(pt.ring.deg, pt.ring.K) for pt in points] == [(2, 10)]


def test_derive_chart_params_edge_results():
    # a twist with no seed point has no chart, so the certificate records
    # the line by its rows alone
    cfg = demo_config("rho0-demo.json", seed_point=None, targets=[])
    model = build_model(cfg)
    line = Line(REAL_LINE_ROWS)
    assert derive_chart_params(line, cfg, model) == (None, None)
    cert = certify_line(line, model, cfg, chart_params=None, chart_kind=None)
    assert json.loads(cert.to_json())["chart"] == {
        "kind": None,
        "params": None,
        "seed": None,
    }
    # a seed off the surface gives no tangent-cone chart
    off = demo_config("rho0-demo.json", seed_point=["1", "0", "0", "0", "0", "0"])
    assert derive_chart_params(line, off, model) == ("tangent-cone", None)
    zero = demo_config("rho0-demo.json", seed_point=["0"] * 6)
    assert derive_chart_params(line, zero, model) == ("tangent-cone", None)
    # the search refuses all three configs before its first candidate,
    # and a seed with no chart is refused on every call
    for bad in (cfg, off, zero):
        for _ in range(2):
            with pytest.raises(ConfigError, match="line chart"):
                line_chart(bad, model)
        with pytest.raises(ConfigError, match="line chart"):
            find_lines(bad)
    # the model keeps one chart per seed
    demo = demo_config("rho0-demo.json")
    chart = line_chart(demo, model)
    assert line_chart(demo, model) is chart
    assert derive_chart_params(line, demo, model)[0] == "tangent-cone"
    assert line_chart(demo, model) is chart
    # a point of the line is another seed, with its own chart
    other = demo_config("rho0-demo.json", seed_point=list(map(str, REAL_LINE_ROWS[0])))
    assert line_chart(other, model) is not chart
    assert line_chart(other, model) is line_chart(other, model)
    assert line_chart(other, model).seed == list(REAL_LINE_ROWS[0])
    assert list(model.charts) == [demo.seed_point, other.seed_point]
    # a char3 line outside the labc family
    char3 = demo_config("char3-demo.json")
    stranger = Line([(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0)])
    assert derive_chart_params(stranger, char3, build_model(char3)) == ("labc", None)


@pytest.mark.parametrize(
    "name, params", [("rho0-demo.json", (2, F(1, 16), 3)), ("char3-demo.json", (3, 243, 243))]
)
def test_a_model_and_its_chart_are_freed_by_reference_counting(name, params):
    # the chart a model keeps does not keep the model: with the cyclic
    # collector off, the model goes with its last reference
    cfg = demo_config(name)
    model = build_model(cfg)
    line_chart(cfg, model).line_at(*params)
    ref = weakref.ref(model)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del model
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def _certificate_at(name, line, model, precision):
    """The certificate of a line under a demo config at a precision, as
    JSON data; None when it raises PrecisionError."""
    config = demo_config(name, precision=precision)
    try:
        return json.loads(certify_line(line, model, config).to_json())
    except PrecisionError:
        return None


def _undetermined_valuations(cert):
    """(point, field) of each null valuation of the 5-adic points."""
    return {
        (i, key)
        for i, entry in enumerate((cert.get("local_5") or {}).get("points", []))
        for key in ("v_sigma3", "v_sigma5", "v_D")
        if entry[key] is None
    }


def _refines(low, high, where="certificate"):
    """Every field determined in `low` has the same value in `high`: a
    null may become a value, and nothing else may change.  The precision
    fields and the config digest record the precision itself, so they
    are left out."""
    if low is None:
        return
    if isinstance(low, dict):
        assert isinstance(high, dict) and low.keys() == high.keys(), where
        for key in low.keys() - {"precision", "config_digest"}:
            _refines(low[key], high[key], f"{where}.{key}")
    elif isinstance(low, list):
        assert isinstance(high, list) and len(low) == len(high), where
        for i, (a, b) in enumerate(zip(low, high)):
            _refines(a, b, f"{where}[{i}]")
    else:
        assert low == high, where


# lines of the benchmark's certify batch at seed 0, by their chart
# parameters, and what precision 4 leaves open on them that 60 decides
OPEN_AT_4 = {
    ("char3-demo.json", (-240, 0, -243)): "raises",
    ("char3-demo.json", (3, 162, 243)): "raises",
    ("char3-demo.json", (165, -81, 81)): "null",
    ("rho0-demo.json", (-2, F(33, 16), 4)): "null",
}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.sampled_from(("char3-demo.json", "rho0-demo.json")),
    st.tuples(SCALED, SCALED, SCALED),
    st.integers(1, 8),
    st.integers(1, 24),
)
@example("char3-demo.json", (-240, 0, -243), 4, 56)
@example("char3-demo.json", (3, 162, 243), 4, 56)
@example("char3-demo.json", (165, -81, 81), 4, 56)
@example("rho0-demo.json", (-2, F(33, 16), 4), 4, 56)
def test_a_field_determined_at_a_lower_precision_keeps_its_value(name, params, k, gap):
    # a valuation determined mod p^k is the true one, so raising the
    # precision may only turn a null into a value and a PrecisionError
    # into a certificate; the demo configs target no 5-adic gate, so no
    # summary reads an undetermined valuation
    open_at_k = OPEN_AT_4.get((name, params)) if (k, gap) == (4, 56) else None
    try:
        model, line = _demo_line(name, params)
        low = _certificate_at(name, line, model, k)
        high = _certificate_at(name, line, model, k + gap)
    except HmsError:
        assert open_at_k is None
        assume(False)
    if open_at_k == "raises":
        assert low is None
    if open_at_k == "null":
        assert _undetermined_valuations(low) > _undetermined_valuations(high)
    if low is not None:
        assert high is not None
        _refines(low, high)


def _certify_or_refuse(line, model, config):
    """A line's certificate bytes, or the message and hint of its
    PrecisionError."""
    try:
        return certify_line(line, model, config).to_json()
    except PrecisionError as exc:
        return (str(exc), exc.needed)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.sampled_from(("char3-demo.json", "rho0-demo.json")),
    st.tuples(SCALED, SCALED, SCALED),
    st.integers(1, 8),
    st.integers(1, 24),
    st.booleans(),
)
@example("char3-demo.json", (-240, 0, -243), 4, 56, False)
@example("char3-demo.json", (165, -81, 81), 4, 56, True)
@example("rho0-demo.json", (-2, F(33, 16), 4), 4, 56, True)
def test_sections_built_low_first_give_the_bytes_of_a_build_at_k(
    name, params, first, gap, gate_5
):
    # the local sections built at `first` and rebuilt at K only where
    # something is open, against the sections built at K directly; the
    # 5-adic gate, when targeted, reads the points of the first build
    K = first + gap
    overrides = {"precision": K}
    if gate_5:
        targets = demo_config(name).targets
        overrides.update(k5=1, targets=[
            {"place": place, "params": list(map(str, triple))}
            for place, triple in [*targets.items(), (5, (0, 0, 0))]
        ])
    config = demo_config(name, **overrides)
    try:
        model, line = _demo_line(name, params)
        quartic_of_line(line, model)
    except HmsError:
        assume(False)
    outcomes = []
    for precision in (first, K):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "FIRST_PRECISION", precision)
            try:
                outcomes.append(_certify_or_refuse(line, model, config))
            except HmsError:
                assume(False)
    assert outcomes[0] == outcomes[1]


def _record_reports_and_lifts(monkeypatch):
    """Record (p, prec) of every Hensel report that `search` builds, and
    the distinct (p, K) at which `HenselReport.lift` is read, in order."""
    reports, lifts = [], {}
    factor, lift = search.hensel_factor_quartic, hensel.HenselReport.lift

    def recording_factor(quartic, p, prec):
        reports.append((p, prec))
        return factor(quartic, p, prec)

    def recording_lift(report, K):
        lifts[report.p, K] = None
        return lift(report, K)

    monkeypatch.setattr(search, "hensel_factor_quartic", recording_factor)
    monkeypatch.setattr(hensel.HenselReport, "lift", recording_lift)
    return reports, lifts


def test_a_line_decided_at_the_first_precision_is_not_rebuilt(monkeypatch):
    # the golden line certified at precision 60: one Hensel report per
    # prime, built at 60, whose blocks are lifted at FIRST_PRECISION
    # only, and the certificate records 60
    reports, lifts = _record_reports_and_lifts(monkeypatch)
    config = demo_config("char3-demo.json", precision=60)
    cert = certify_line(Line(CHAR3_LINE_ROWS), build_model(config), config)
    assert reports == [(3, 60), (5, 60)]
    assert list(lifts) == [(3, search.FIRST_PRECISION), (5, 8)]
    assert cert.data["local_3"]["precision"] == cert.data["local_5"]["precision"] == 60


def test_a_section_open_at_the_first_precision_reuses_its_report(monkeypatch):
    # rho0 (-2, 33/16, 4) leaves v_sigma5 null at 4 and decides it at 60:
    # built first at 4, its 5-adic section is read again at 60, off the
    # lifts of the one report at 5
    monkeypatch.setattr(search, "FIRST_PRECISION", 4)
    reports, lifts = _record_reports_and_lifts(monkeypatch)
    config = demo_config("rho0-demo.json", precision=60)
    model, line = _demo_line("rho0-demo.json", (-2, F(33, 16), 4))
    cert = certify_line(line, model, config)
    assert [entry["v_sigma5"] for entry in cert.data["local_5"]["points"]] == [4]
    assert reports == [(3, 60), (5, 60)]
    assert [K for p, K in lifts if p == 5] == [4, 60]


@pytest.mark.parametrize(
    "params, v_sigma5, lifts_at_5",
    [
        # a simple block at [0 : 1], the second row of the integer basis
        ((327, 0, 162), [None, 0], [8]),
        # a null beside a determined point of one unramified (linear)^2
        # block, at [0 : 1] and at [1 : 0], where the quartic's top
        # coefficient is 0; the report of the second line reads its two
        # (linear)^2 discriminants off the lift at v_5(D) = 3
        ((84, 0, 324), [2, None, 0, 0], [8]),
        ((-159, 162, 0), [None, 2], [3, 8]),
    ],
)
def test_an_exact_sigma_5_zero_is_read_at_the_first_precision_only(
    monkeypatch, params, v_sigma5, lifts_at_5
):
    # sigma_5 vanishes exactly at a point of these lines, which no
    # precision decides: the null is proved exact over Q, so the 5-adic
    # section is read off the lift at FIRST_PRECISION only, with the
    # bytes of a build at 60
    config = demo_config("char3-demo.json", precision=60)
    model, line = build_model(config), labc_line(*params)
    reports, lifts = _record_reports_and_lifts(monkeypatch)
    cert = certify_line(line, model, config)
    assert [entry["v_sigma5"] for entry in cert.data["local_5"]["points"]] == v_sigma5
    assert reports == [(3, 60), (5, 60)]
    assert [K for p, K in lifts if p == 5] == lifts_at_5
    monkeypatch.setattr(search, "FIRST_PRECISION", 60)
    assert certify_line(line, model, config).to_json() == cert.to_json()
