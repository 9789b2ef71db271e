"""The models' symmetries as a metamorphic oracle.

A signed permutation g of the coordinates, (g y)_i = s_i y_pi(i), that
maps each of q1, q2 and q4 to a multiple of itself maps every line on
the model to a line on the model, and q4 on the image basis (g P, g Q)
is a multiple of q4 on (P, Q).  The two certificates' quartics are
then GL2(Q)-equivalent, so the real root count, the Galois label, the
summary and every decided local verdict (unramified or ramified at 3
and at 5) must agree.  An inconclusive verdict on one side may meet a
decided one on the other.  The primitive coefficients and the
discriminant valuations may differ, since the change of basis need not
lie in GL2(Z_p), and so may the cusp depths, since g need not fix the
cusp line.

`residue_degrees` is left out of the comparison until the residue
degree of an unramified (linear)^2 block is settled (ROADMAP item 20,
step 2): one side may read 1 from the residue factor where its image
reads 2 from a simple quadratic.
"""

import random
import re
from fractions import Fraction
from functools import cache
from itertools import permutations, product

from hmslines.errors import DegenerateLineError
from hmslines.lines import NONCUSP, Line, TangentConeChart, labc_line
from hmslines.search import build_model, certify_line

from exact_oracles import evaluate
from test_golden import _config, _golden_certificates

# the images refused with DegenerateLineError at precision 60, (where,
# permutation, [t0 : u0]): each meets the cusp line x0 = x3 = x4 = x5 = 0
# at the named root of its quartic, whose cusp depth no precision
# decides; the line itself is certified
CUSP_IMAGES = {
    ("certify-char3-double-root-chart.jsonl:0", (1, 0, 2, 3, 4, 5), (0, 1)),
    ("certify-char3-off-chart.jsonl:0", (1, 0, 2, 3, 4, 5), (1, 0)),
    ("certify-char3-off-chart.jsonl:0", (1, 0, 3, 2, 4, 5), (1, 0)),
    ("certify-char3-off-chart.jsonl:0", (2, 3, 0, 1, 5, 4), (0, 1)),
    ("certify-char3-off-chart.jsonl:0", (3, 2, 0, 1, 5, 4), (0, 1)),
    ("find-char3-demo.jsonl:5", (0, 1, 3, 2, 4, 5), (0, 1)),
    ("find-char3-demo.jsonl:5", (2, 3, 1, 0, 5, 4), (0, 1)),
    ("labc (-240, 0, -162)", (2, 3, 1, 0, 5, 4), (0, 1)),
    ("labc (-321, 0, -243)", (0, 1, 3, 2, 4, 5), (0, 1)),
    ("labc (-321, 0, -243)", (2, 3, 1, 0, 5, 4), (0, 1)),
    ("labc (165, 0, 324)", (2, 3, 1, 0, 5, 4), (0, 1)),
    ("labc (3, 0, 324)", (2, 3, 1, 0, 5, 4), (0, 1)),
}


@cache
def _setting(label):
    """(config, model, symmetries) of the demo model of a twist label."""
    name = {"char3-x": "char3-demo.json", "rho0-archimedean": "rho0-demo.json"}[label]
    config = _config(name, precision=60)
    model = build_model(config)
    return config, model, _symmetries(model)


def _image_terms(f, perm, signs):
    """The terms of f(g y), (g y)_i = signs[i] y_perm[i]."""
    out = {}
    for exp, c in f.terms.items():
        image = [0] * len(exp)
        for i, e in enumerate(exp):
            image[perm[i]] = e
            if e % 2 and signs[i] < 0:
                c = -c
        out[tuple(image)] = c
    return out


def _is_multiple(terms, f):
    if terms.keys() != f.terms.keys():
        return False
    first = next(iter(terms))
    return all(terms[e] * f.terms[first] == f.terms[e] * terms[first] for e in terms)


def _symmetries(model):
    """Every (perm, signs) with signs[0] = 1 mapping q1, q2 and q4 to
    multiples of themselves; -g is g on P^5, so the first sign is fixed."""
    return [
        (perm, (1, *signs))
        for perm in permutations(range(6))
        for signs in product((1, -1), repeat=5)
        if all(
            _is_multiple(_image_terms(f, perm, (1, *signs)), f)
            for f in (model.q1, model.q2, model.q4)
        )
    ]


def _image(line, perm, signs):
    return Line([[s * row[i] for s, i in zip(signs, perm)] for row in line.ints])


def _cusp_point(line, exc):
    """The [t0 : u0] that a refusal names, checked to be where the line
    meets the cusp line and a root of q4 there."""
    match = re.search(r"meets the cusp line at \[(-?\d+) : (-?\d+)\]", str(exc))
    t0, u0 = int(match[1]), int(match[2])
    point = [t0 * p + u0 * q for p, q in zip(*line.ints)]
    assert [point[i] for i in NONCUSP] == [0] * len(NONCUSP)
    return (t0, u0), point


def _lines():
    """(where, twist label, line): every golden certificate's line, and
    a seeded sample from each demo chart's window."""
    for where, data in _golden_certificates():
        yield where, data["twist"]["label"], Line(data["line"]["primitive_rows"])
    rng = random.Random("symmetry-0")
    config, model, _ = _setting("rho0-archimedean")
    chart = TangentConeChart(model, list(config.seed_point))
    window = [
        (Fraction(2 + i), Fraction(1, 16) + j, Fraction(3 + k))
        for i in range(-4, 5)
        for j in range(-3, 4)
        for k in range(-4, 5)
    ]
    for a, b, c in rng.sample(window, 16):
        yield f"tangent-cone ({a}, {b}, {c})", "rho0-archimedean", chart.line_at(a, b, c)
    window = [
        (3 + 81 * i, 243 + 81 * j, 243 + 81 * k)
        for i in range(-4, 5)
        for j in range(-7, 2)
        for k in range(-7, 2)
    ]
    for params in rng.sample(window, 16):
        yield f"labc {params}", "char3-x", labc_line(*params)


def _facts(data):
    """What a GL2(Q) change of the quartic's basis keeps."""
    return (
        data["real"] and data["real"]["root_count"],
        data["galois"] and data["galois"]["label"],
        data["summary"]["passed"],
    )


def _verdicts(data):
    return [data[key] and data[key]["verdict"] for key in ("local_3", "local_5")]


def test_each_demo_model_has_its_symmetries():
    assert len(_setting("rho0-archimedean")[2]) == 16
    assert len(_setting("char3-x")[2]) == 8


def test_symmetric_images_certify_alike():
    pairs, refused = 0, set()
    for where, label, line in _lines():
        config, model, symmetries = _setting(label)
        data = certify_line(line, model, config).data
        for perm, signs in symmetries:
            image = _image(line, perm, signs)
            if image == line:
                continue
            try:
                got = certify_line(image, model, config).data
            except DegenerateLineError as exc:
                root, point = _cusp_point(image, exc)
                assert evaluate(model.q4.terms, point) == 0, (where, perm, signs)
                refused.add((where, perm, root))
                continue
            pairs += 1
            assert _facts(got) == _facts(data), (where, perm, signs)
            for mine, theirs in zip(_verdicts(data), _verdicts(got)):
                assert {mine, theirs} != {"unramified", "ramified"}, (where, perm, signs)
    assert refused == CUSP_IMAGES
    assert pairs == 529
