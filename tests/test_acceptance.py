"""Release gates, one test per gate, one printed pass/fail line each.

Every gate re-derives its facts from the library; nothing is mocked.
Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines alongside pytest's own report.
"""
import contextlib
import json
import random
import time
from fractions import Fraction
from importlib import resources

from hmslines import cli
from hmslines.hensel import block_roots, hensel_factor_quartic
from hmslines.lines import (
    Line,
    labc_line,
    parity_admissible,
    quartic_of_line,
)
from hmslines.mpoly import SparsePoly, restrict_to_span
from hmslines.padics import UnramifiedRing
from hmslines.quartics import BinaryQuartic, real_root_count
from hmslines.search import find_lines, load_config
from hmslines.surface import (
    char3_twist,
    identity_twist,
    ordinarity_from_valuations,
    rho0_twist,
    twisted_equations,
)
from hmslines.verify import (
    char3_leading_profile,
    char3_quartic_display,
    coefficient_valuations,
    curve_D,
    modular_form_values,
    roots_over_Fq,
    sigma_profile,
)

from exact_oracles import ALLOWED_TYPES, ordinarity
from galois_battery import WITNESS_TYPES, battery, good_primes
from hmslines.galois import frobenius_cycle_type, solvability_report
from precision_probe import run_probe

F = Fraction


@contextlib.contextmanager
def gate(name):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL")
        raise
    print(f"{name}: PASS ({time.monotonic() - started:.2f}s)")


def config_path(name):
    return str(resources.files("hmslines").joinpath(f"configs/{name}"))


def _poly(terms):
    return SparsePoly(6, {tuple(e): F(c) for e, c in terms.items()})


def test_gate_1_symbolic_identity_suite():
    with gate("gate 1 symbolic identities"):
        started = time.monotonic()
        model = twisted_equations(char3_twist(1, 1))

        # the linear form in x-coordinates is x4 + x5
        assert model.scales[1] == 1
        assert model.forms[1] == _poly({(0, 0, 0, 0, 1, 0): 1,
                                        (0, 0, 0, 0, 0, 1): 1})

        # three times the quadratic form is
        # x4^2 + x5^2 - x0 x1 - x2 x3 + 3 x4 x5
        got = model.forms[2] * (3 * model.scales[2])
        assert got == _poly({
            (0, 0, 0, 0, 2, 0): 1,
            (0, 0, 0, 0, 0, 2): 1,
            (1, 1, 0, 0, 0, 0): -1,
            (0, 0, 1, 1, 0, 0): -1,
            (0, 0, 0, 0, 1, 1): 3,
        })

        # the (a, b, c) line family lies in both quadrics identically
        a = SparsePoly(3, {(1, 0, 0): F(1)})
        b = SparsePoly(3, {(0, 1, 0): F(1)})
        c = SparsePoly(3, {(0, 0, 1): F(1)})
        one = SparsePoly.constant(F(1), 3)
        zero = SparsePoly(3, {})
        P = (-b * b, one, zero, -(a + b * c), -b, b)
        Q = (a - b * c, zero, one, -c * c, -c, c)
        for f in (model.q1, model.q2):
            restricted = restrict_to_span(f, (P, Q))
            assert all(coeff.is_zero for coeff in restricted.terms.values())

        # the quartic form vanishes identically on the (0, 0, 0) line
        display = char3_quartic_display(1, 1)
        l000 = labc_line(0, 0, 0)
        assert restrict_to_span(display, (l000.rows[0], l000.rows[1])).is_zero

        # the archimedean twist produces rational equations
        rho0 = twisted_equations(rho0_twist())
        for k in (1, 2, 4):
            assert rho0.scales[k] == 1
            for coeff in rho0.forms[k].terms.values():
                assert type(coeff) is int  # every omega part cancelled

        # scale invariance of the ordinarity ratios, checked exactly on
        # sampled points under random rescaling
        rng = random.Random(11)
        samples = 0
        while samples < 8:
            pt = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)]
            if all(x == 0 for x in pt):
                continue
            profile = sigma_profile(pt)
            s3, s5, D = profile[2], profile[4], curve_D(profile)
            if s5 == 0 or s3 == 0 or D == 0:
                continue
            samples += 1
            u1 = D**5 / s5**6
            u2 = D**3 / (s5**3 * s3)
            mu = F(rng.randint(1, 30), rng.randint(1, 30))
            scaled = sigma_profile([mu * x for x in pt])
            D = curve_D(scaled)
            assert D**5 / scaled[4] ** 6 == u1
            assert D**3 / (scaled[4] ** 3 * scaled[2]) == u2

            # the cusp-form ratios pin the same two quantities
            assert modular_form_values(profile) == (-27 * u2, 729 * u1)

        assert time.monotonic() - started < 5.0


def test_gate_2_real_line():
    with gate("gate 2 real line"):
        model = twisted_equations(rho0_twist())
        line = Line([
            [1, 0, F(-3, 4), F(3, 4), 0, F(-1, 2)],
            [0, 1, F(-23, 20), F(7, 20), 2, F(3, 10)],
        ])
        # the linear and quadratic equations vanish identically on it
        assert restrict_to_span(model.q1, line.ints).is_zero
        assert restrict_to_span(model.q2, line.ints).is_zero
        quartic = quartic_of_line(line, model)
        assert quartic.discriminant() != 0
        assert real_root_count(quartic) == 4


def test_gate_3_residue_5_line():
    with gate("gate 3 line over F_25"):
        # F_25 = F_5[w]/(w^2 + 3): w is a square root of -3
        field = UnramifiedRing(5, (3, 0, 1), 1)
        w = field.gen()
        one = field.one()
        P = [one - w, one + w, -one, -one, one, -one]
        Q = [field.zero(), field.zero(), one + w, one - w, field.zero(),
             -one - one]
        model = twisted_equations(identity_twist())
        for f in (model.q1, model.q2):
            restricted = restrict_to_span(f, (P, Q))
            assert all(v == field.zero() for v in restricted.terms.values())

        # -3 t (8 u^3 - t^3) = 3 t^4 + t u^3 over F_5
        restricted = restrict_to_span(model.q4, (P, Q))
        assert all(sum(exp) == 4 for exp in restricted.terms)
        coeffs = [restricted.terms.get((i, 4 - i), 0) for i in range(5)]
        expected = [field.zero(), one, field.zero(), field.zero(),
                    field.elt([3])]
        assert all(g == want for g, want in zip(coeffs, expected))

        roots = roots_over_Fq(coeffs, field)
        assert len(roots) == 4
        assert all(mult == 1 for _, mult in roots)

        # brute-force scan of all 26 points of P^1(F_25)
        chart = [(field.elt([c0, c1]), one) for c0 in range(5) for c1 in range(5)]
        chart.append((one, field.zero()))
        zeros = set()
        for t, u in chart:
            acc = field.zero()
            for i, coeff in enumerate(coeffs):
                acc = acc + coeff * t**i * u ** (4 - i)
            if acc == field.zero():
                zeros.add((t, u))
        assert zeros == {pt for pt, _ in roots}


def test_gate_4_char3_leading_profile():
    with gate("gate 4 char-3 profile and parity"):
        alpha, beta, gamma = 5, 40, 41
        profile = char3_leading_profile(1, 1)
        v0, v1, v2, v3, v4 = coefficient_valuations(profile, alpha, beta, gamma)
        assert v4 == beta
        assert v3 == gamma
        assert v2 == 1 + 2 * alpha
        assert v1 == beta
        assert v0 == gamma

        for ob in range(2):
            for oc in range(2):
                for e1 in range(2):
                    for e2 in range(2):
                        want = (ob - e1) % 2 == 0 and (oc - e2) % 2 == 0
                        assert parity_admissible(ob, oc, e1, e2) == want


def test_gate_5_galois_battery():
    with gate("gate 5 galois battery"):
        started = time.monotonic()
        members = list(battery())
        assert len(members) >= 40
        assert {label for _, label in members} == {"S4", "A4", "D4", "C4", "V4"}
        for q, label in members:
            assert solvability_report(q)["label"] == label
            allowed = ALLOWED_TYPES[label]
            seen = set()
            for p in good_primes(q, 50):
                cycle_type = frobenius_cycle_type(q, p)
                assert cycle_type in allowed
                seen.add(cycle_type)
            assert WITNESS_TYPES[label] in seen
        assert time.monotonic() - started < 30.0


def test_gate_6_local_certificates():
    with gate("gate 6 local certificates"):
        # t (t - u)(t - 2u)(t - 3u) splits into four unramified roots at 5
        rep = hensel_factor_quartic(BinaryQuartic([0, -6, 11, -6, 1]), 5, 8)
        assert rep.verdict == "unramified"
        assert rep.squarefree_mod_p is True
        assert tuple(rep.residue_degrees) == (1, 1, 1, 1)
        roots = sorted(
            (z.coeffs[0], flipped)
            for blk in rep.blocks
            for z, flipped in block_roots(rep, blk, 8)
        )
        assert roots == [(0, False), (1, False), (2, False), (3, False)]

        # (t^2 - 18 u^2)(t^2 - 2 u^2): even disc valuation, unramified at 3
        rep = hensel_factor_quartic(BinaryQuartic([36, 0, -20, 0, 1]), 3, 8)
        assert rep.verdict == "unramified"
        assert rep.squarefree_mod_p is False
        shapes = sorted(
            (b.degree, b.residue_degree, b.multiplicity, b.verdict,
             b.disc_valuation)
            for b in rep.blocks
        )
        assert shapes == [
            (2, 1, 2, "unramified", 2),
            (2, 2, 1, "unramified", None),
        ]

        # (t^2 - 3 u^2)(t^2 - 2 u^2): odd disc valuation, ramified at 3
        rep = hensel_factor_quartic(BinaryQuartic([6, 0, -5, 0, 1]), 3, 8)
        assert rep.verdict == "ramified"
        shapes = sorted(
            (b.degree, b.residue_degree, b.multiplicity, b.verdict,
             b.disc_valuation)
            for b in rep.blocks
        )
        assert shapes == [
            (2, 1, 2, "ramified", 1),
            (2, 2, 1, "unramified", None),
        ]

        # the three valuation-arithmetic patterns of the ordinarity test,
        # from exact sigma values by the oracle and from the valuations
        # of sigma_3, sigma_5 and D by the package's one rule
        for sigma, valuations, expected in (
            ((0, 0, 1, 0, 1, 0), (0, 0, 0), (0, 0, True)),
            ((0, 0, 1, 0, 5, -6), (0, 1, 2), (4, 3, False)),
            ((0, 0, 1, 0, 5, -1), (0, 1, 1), (-1, 0, True)),
        ):
            cert = ordinarity(sigma, 5)
            assert (cert.v_u1, cert.v_u2, cert.ordinary) == expected
            assert ordinarity_from_valuations(*valuations) == expected

        # the certificate path agrees with the exact oracle, raising
        # precision never flips a decided verdict, and 5^12 decides all
        probe = run_probe(n=100, seed=93, p=5, low=4, high=12)
        assert probe["points"] == 100
        assert probe["violations"] == []
        assert probe["certificate_decided_high"] == 100


def test_gate_7_end_to_end_demos(capsys):
    with gate("gate 7 find-line demos"):
        started = time.monotonic()
        rc = cli.main(["find-line", "--config", config_path("rho0-demo.json"),
                       "--json"])
        first = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(first)
        assert payload["count"] >= 1
        assert payload["results"][0]["real"]["root_count"] == 4
        assert time.monotonic() - started < 60.0

        rc = cli.main(["find-line", "--config", config_path("rho0-demo.json"),
                       "--json"])
        assert rc == 0
        assert capsys.readouterr().out == first

        rc = cli.main(["find-line", "--config", config_path("char3-demo.json"),
                       "--json"])
        second = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(second)
        assert payload["count"] >= 1
        assert payload["results"][0]["local_3"]["verdict"] == "unramified"

        rc = cli.main(["find-line", "--config", config_path("char3-demo.json"),
                       "--json"])
        assert rc == 0
        assert capsys.readouterr().out == second

        # library-level reruns agree byte for byte as well
        (_, cert_a), = find_lines(
            load_config(config_path("rho0-demo.json")), max_results=1
        )
        (_, cert_b), = find_lines(
            load_config(config_path("rho0-demo.json")), max_results=1
        )
        assert cert_a.to_json() == cert_b.to_json()


def test_gate_8_verify_paper_aggregates(capsys):
    with gate("gate 8 verify-paper"):
        assert cli.main(["verify-paper"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-1] == "verify-paper: all checks passed"
        assert all(line.startswith("PASS") for line in out[:-1])
