"""Congruence search, certificates, and intersection-point extraction."""
import json
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from hashlib import sha256
from importlib import resources
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hmslines import hensel, quartics, search
from hmslines.errors import ConfigError, HmsError, PrecisionError, SearchExhausted
from hmslines.hensel import hensel_factor_quartic
from hmslines.lines import Line, TangentConeChart, cusp_proximity, labc_line, quartic_of_line
from hmslines.padics import IndeterminateValuation, UnramifiedRing
from hmslines.scalars import primitive_integers, valuation_of_rational
from hmslines.serialize import frac_str
from hmslines.search import (
    CERTIFICATE_SCHEMA,
    _candidate_params,
    _combined_parameters,
    build_model,
    certify_line,
    derive_chart_params,
    find_lines,
    intersection_points,
    load_config,
    parse_config,
)

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
    # still recorded, and at this precision the cubic factor stays open
    cfg = load_config(config_path("rho0-demo.json"))
    (_, cert), = find_lines(cfg, max_results=1)
    for key in ("local_3", "local_5"):
        section = cert.data[key]
        assert section["required"] is False
        assert section["verdict"] == "inconclusive"
        shapes = [
            (b["degree"], b["residue_degree"], b["multiplicity"], b["verdict"])
            for b in section["blocks"]
        ]
        assert shapes == [
            (3, 1, 3, "inconclusive"),
            (1, 1, 1, "unramified"),
        ]
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
        assert first == second


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
    # v_3(D); no line passes, so every report is read by the gate alone
    reports = _count_calls(monkeypatch, "hensel_factor_quartic")
    lifts = _count_lifts(monkeypatch)
    with pytest.raises(SearchExhausted) as info:
        find_lines(demo_config("char3-demo.json", precision=5, height_bound=120))
    assert info.value.stats["gate_failures"] == 24
    shapes = Counter(
        (tuple(sorted((b.residue_degree, b.multiplicity) for b in rep.blocks)), rep.verdict)
        for rep in reports
    )
    assert shapes == {
        (((1, 4),), "inconclusive"): 18,
        (((1, 1), (1, 1), (1, 2)), "ramified"): 6,
    }
    assert lifts == []


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
        roots = hensel.block_roots(report, double)
        assert [t.ring.K for t, _ in roots] == [1, 1]
    assert min(ring_precisions) >= 1


@pytest.mark.parametrize(
    "name, rows", [("rho0-demo.json", REAL_LINE_ROWS), ("char3-demo.json", CHAR3_LINE_ROWS)]
)
def test_certify_line_builds_one_integer_model(monkeypatch, name, rows):
    # the discriminant, the real root count, Hensel at 3 and 5, Galois
    # and the certificate's primitive_coeffs all read the quartic's one
    # integer model
    built = []
    primitive = quartics.primitive_integers

    def counting(values):
        built.append(tuple(values))
        return primitive(values)

    monkeypatch.setattr(quartics, "primitive_integers", counting)
    cfg = demo_config(name)
    model = build_model(cfg)
    cert = certify_line(Line(rows), model, cfg)
    assert cert.data["galois"] is not None
    assert len(built) == 1


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
    # the first three candidates of the same search: the chart fails, a
    # line off the quadrics, a line inside the degree-8 locus
    chart = search.labc_line
    replaced = iter([
        HmsError("no line at these parameters"),
        Line([[1, 0, 0, -1, -1, 1], [0, 1, -1, -1, 0, 1]]),
        Line([[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]),
    ])

    def patched(a, b, c):
        outcome = next(replaced, None)
        if outcome is None:
            return chart(a, b, c)
        if isinstance(outcome, HmsError):
            raise outcome
        return outcome

    monkeypatch.setattr(search, "labc_line", patched)
    cfg = demo_config("char3-demo.json", precision=5, height_bound=120)
    with pytest.raises(SearchExhausted) as info:
        find_lines(cfg, max_results=1)
    stats = info.value.stats
    assert stats["candidates"] == 27
    assert (stats["chart_failures"], stats["off_surface"], stats["degenerate"]) == (1, 1, 1)
    assert sum(v for k, v in stats.items() if k != "candidates") == 27


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
    # oracle: cusp_proximity of the exact primitive integer point
    assume(any(n for n, _ in terms))
    point = primitive_integers([n * 3**k for n, k in terms])
    (depth,) = cusp_proximity([point])
    # the certificate path: the point is [1 : 0] on a span whose first
    # row is the point
    ring = UnramifiedRing(3, (0, 1), K)
    local = search.LocalPoint(0, ring.one(), ring.zero())
    gauge = [valuation_of_rational(point[i], 3) for i in (0, 3, 4, 5) if point[i]]
    try:
        report = search._cusp_report((point, (0,) * 6), [local])
    except PrecisionError as exc:
        assert exc.needed > K
        # refusing is allowed only while every gauge coordinate may be
        # zero mod 3^K; on the cusp line itself that is at every K
        assert gauge == [] or K <= min(gauge)
        return
    assert report == {
        "p": 3,
        "depths": [depth],
        "distances": [frac_str(0 if depth is None else F(1, 3**depth))],
    }


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
    ("rho0-demo.json", (-2, -18, -27), 5, 8): [(1, 8), (1, 8), (2, 6)],
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
    if not any(quartic.coeffs):
        assert known is None
        assume(False)
    try:
        points = intersection_points(hensel_factor_quartic(quartic, p, K))
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
        assert pt.t.ring is ring and pt.u.ring is ring
        coords = [pt.t * a + pt.u * b for a, b in zip(*line.ints)]
        # valuation at least ring.K: zero mod p^K
        for k in (1, 2, 4):
            value = model.forms[k].evaluate(coords)
            assert value.valuation() == IndeterminateValuation(ring.K)
        # the restricted forms at (t, u) are the forms at the coordinates
        restricted = forms.values(pt.t, pt.u)
        assert restricted == tuple(model.forms[k].evaluate(coords) for k in (3, 5, 6))


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
    # the search refuses all three configs before its first candidate
    for bad in (cfg, off, zero):
        with pytest.raises(ConfigError, match="line chart"):
            find_lines(bad)
    # a char3 line outside the labc family
    char3 = demo_config("char3-demo.json")
    stranger = Line([(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0)])
    assert derive_chart_params(stranger, char3, build_model(char3)) == ("labc", None)
