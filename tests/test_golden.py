"""Golden certificates: the emitted bytes of fixed scenarios, frozen.

Each scenario renders one or more canonical JSON documents (a
certificate, the data carried by an error, or the `verify-paper` report)
and compares them byte for byte with tests/golden/<scenario>.jsonl,
one document per line.  Any change to those bytes is a deliberate
update: regenerate the files from the current code with

    python tests/test_golden.py --update

and record the reason in CHANGES.md.

Every frozen certificate must also pass the benchmark's independent
checker (`bench/oracles.py`) and the tests' exact oracles
(`exact_oracles.py`): its 5-adic point entries against the ordinarity
ratios in valuations, and its Galois section against brute-force
Frobenius cycle types.  No frozen
document, and no JSON output of a pinned benchmark operation, holds a
float: every number is an int and every rational a string.

The benchmark's outputs are frozen too: one operation of each workload
of `bench/workloads.py` at seed 0 must pass the workload's own checks
and hash to the sha256 pinned in `BENCH_DIGESTS`.  A change to those
bytes is a deliberate update of the pin, recorded like a golden's.

Beside the bytes, tests/golden/verdicts.json pins what is certified:
the verdict projection (`verdict_projection`) of every golden
certificate and the outcome of `certify` on each line of the seed-0
certify-batch sample, kept as primitive rows.  Blocks and points are
compared as sorted multisets, so a change that only reorders them keeps
the file; `--update` never rewrites it, only

    python tests/test_golden.py --update-verdicts

does, for a change that is meant to change a verdict.
"""
import io
import json
import sys
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from hmslines import cli, errors, lines, quartics, search
from hmslines.errors import HmsError, PrecisionError, SearchExhausted
from hmslines.lines import Line, TangentConeChart, labc_line
from hmslines.search import (
    build_model,
    certify_line,
    derive_chart_params,
    find_lines,
    parse_config,
)
from hmslines.serialize import canonical_json, frac_str
from hmslines.surface import twist_by_name, twisted_equations

GOLDEN_DIR = Path(__file__).with_name("golden")

# the benchmark's independent certificate checker and its workloads,
# imported as the benchmark imports them
sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
from oracles import certificate_errors  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from exact_oracles import (  # noqa: E402
    GROUP_ORDERS,
    common_rational_root,
    evaluate,
    galois_errors,
    local_5_errors,
    local_errors,
)

README_LINE = [[4, 0, -3, 3, 0, -2], [0, 20, -23, 7, 40, 6]]
CHAR3_LINE = [[59046, 0, -1, 59049, 243, -243], [0, 19682, -19683, 3, 243, -243]]
CHAR3_RAMIFIED_LINE = [[1, -1, 0, 2, 1, -1], [0, 0, 1, -1, -1, 1]]
# c4 = 0 and c3 = 0 mod 5: the 5-adic report has a (linear)^2 block at
# [1:0], split, whose two points [1 : z] come in the order the golden
# freezes
CHAR3_DOUBLE_ROOT_LINE = [[159, 0, -1, 0, 0, 0], [0, 53, -8748, 8427, -8586, 8586]]
# labc_line(-78, 0, 0): its quartic has discriminant zero, so the
# certificate fails with no galois, real or local section
CHAR3_TANGENTIAL_LINE = [[78, 0, -1, 0, 0, 0], [0, 1, 0, 78, 0, 0]]
# outside the labc family, so the chart params and the parity section
# are null; its quartic u^4 - t^3 u is u (u - t)^3 mod 3, and the cube
# stays inconclusive at 3
CHAR3_OFF_CHART_LINE = [[1, 0, 0, 0, 0, 0], [0, 0, 1, -1, 1, -1]]


def _config(name, **overrides):
    path = resources.files("hmslines").joinpath(f"configs/{name}")
    data = json.loads(path.read_text())
    data.update(overrides)
    return parse_config(data)


def _certify(rows, config):
    model = build_model(config)
    line = Line([[Fraction(c) for c in row] for row in rows])
    kind, params = derive_chart_params(line, config, model)
    return certify_line(line, model, config, chart_params=params, chart_kind=kind)


def _find(name, count):
    results = find_lines(_config(name), max_results=count)
    return [cert.to_json() for _, cert in results]


def _precision_failure(rows, precision):
    try:
        _certify(rows, _config("char3-demo.json", precision=precision))
    except PrecisionError as exc:
        return [canonical_json({"message": str(exc), "needed": exc.needed})]
    raise AssertionError(f"precision {precision} unexpectedly sufficed")


def _exhausted(name, **overrides):
    try:
        find_lines(_config(name, **overrides))
    except SearchExhausted as exc:
        return [canonical_json({"message": str(exc), "stats": exc.stats})]
    raise AssertionError("the search unexpectedly found a line")


def _printed(*argv):
    """What the CLI prints for argv, one document per line."""
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(list(argv))
    return out.getvalue().splitlines()


SCENARIOS = {
    "find-rho0-demo": lambda: _find("rho0-demo.json", 6),
    "find-char3-demo": lambda: _find("char3-demo.json", 6),
    "certify-readme-rho0": lambda: [
        _certify(README_LINE, _config("rho0-demo.json")).to_json()
    ],
    "certify-char3-line-p7": lambda: [
        _certify(CHAR3_LINE, _config("char3-demo.json", precision=7)).to_json()
    ],
    "certify-char3-line-p60": lambda: [
        _certify(CHAR3_LINE, _config("char3-demo.json", precision=60)).to_json()
    ],
    "certify-char3-ramified": lambda: [
        _certify(CHAR3_RAMIFIED_LINE, _config("char3-demo.json")).to_json()
    ],
    "certify-char3-double-root-chart": lambda: [
        _certify(CHAR3_DOUBLE_ROOT_LINE, _config("char3-demo.json")).to_json()
    ],
    "certify-char3-tangential": lambda: [
        _certify(CHAR3_TANGENTIAL_LINE, _config("char3-demo.json")).to_json()
    ],
    "certify-char3-off-chart": lambda: [
        _certify(CHAR3_OFF_CHART_LINE, _config("char3-demo.json")).to_json()
    ],
    "precision-char3-line-p5": lambda: _precision_failure(CHAR3_LINE, 5),
    "precision-char3-line-p6": lambda: _precision_failure(CHAR3_LINE, 6),
    "exhausted-char3-p5-h120": lambda: _exhausted(
        "char3-demo.json", precision=5, height_bound=120
    ),
    "verify-paper": lambda: _printed("verify-paper", "--json"),
}


def _render(name) -> bytes:
    return "".join(doc + "\n" for doc in SCENARIOS[name]()).encode("utf-8")


def _golden_path(name) -> Path:
    return GOLDEN_DIR / f"{name}.jsonl"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden(name):
    path = _golden_path(name)
    assert path.exists(), f"no golden file for {name}; run with --update"
    expected = path.read_bytes()
    actual = _render(name)
    if actual == expected:
        return
    offset = next(
        (i for i, (a, b) in enumerate(zip(actual, expected)) if a != b),
        min(len(actual), len(expected)),
    )
    document = expected[:offset].count(b"\n")
    pytest.fail(
        f"golden scenario {name!r} differs at byte {offset} "
        f"(document {document}; {len(actual)} bytes now, "
        f"{len(expected)} frozen)"
    )


def _refuse_float(text):
    raise AssertionError(f"a float in a pinned document: {text}")


def _load_without_floats(document: str):
    """json.loads, failing on a float: every number written is an int."""
    return json.loads(document, parse_float=_refuse_float)


def test_golden_documents_hold_no_float():
    for path in sorted(GOLDEN_DIR.glob("*.jsonl")):
        for document in path.read_text().splitlines():
            _load_without_floats(document)


def _golden_certificates():
    """Every certificate frozen in the golden files; the documents with
    a `message` are errors, not certificates, and `verify-paper` is the
    report of the paper's checks."""
    for path in sorted(GOLDEN_DIR.glob("*.jsonl")):
        if path.name == "verify-paper.jsonl":
            continue
        for n, line in enumerate(path.read_text().splitlines()):
            data = json.loads(line)
            if "message" not in data:
                yield f"{path.name}:{n}", data


def _chart_errors(data):
    """Defects of a certificate's chart record: params, when given, must
    give back the line's rows through the package's chart of that kind,
    on the certificate's twist and seed.  This checks the record, not
    the chart's arithmetic, which `test_lines.py` tests."""
    chart = data["chart"]
    if chart["params"] is None:
        return []
    params = [Fraction(v) for v in chart["params"]]
    if chart["kind"] == "labc":
        line = labc_line(*params)
    else:
        twist = data["twist"]
        model = twisted_equations(twist_by_name(
            twist["label"], Fraction(twist["lambda1"]), Fraction(twist["lambda2"])
        ))
        seed = [Fraction(c) for c in chart["seed"]]
        line = TangentConeChart(model, seed).line_at(*params)
    if [[frac_str(c) for c in row] for row in line.rows] != data["line"]["rows"]:
        return [f"chart: the {chart['kind']} params do not give back line.rows"]
    return []


def _independent_errors(data):
    return (
        certificate_errors(data)
        + local_5_errors(data)
        + galois_errors(data)
        + local_errors(data)
        + _chart_errors(data)
    )


def test_golden_certificates_pass_the_independent_checks():
    labels, charts = {}, {}
    for where, data in _golden_certificates():
        assert _independent_errors(data) == [], where
        if data["galois"] is not None:
            label = data["galois"]["label"]
            labels[label] = labels.get(label, 0) + 1
        if data["chart"]["params"] is not None:
            kind = data["chart"]["kind"]
            charts[kind] = charts.get(kind, 0) + 1
    assert labels == {"S4": 12, "reducible-composite": 5, "C2": 1}
    assert charts == {"labc": 11, "tangent-cone": 7}


def _s4_certificate():
    """The first certificate of the rho0-demo search, an S4 quartic."""
    data = json.loads(_golden_path("find-rho0-demo").read_text().splitlines()[1])
    assert data["galois"]["label"] == "S4"
    return data


def _relabel(label):
    """An S4 section relabelled as a whole: group, factor and orders."""

    def edit(section):
        section["label"] = label
        section["factors"][0].update(label=label, order=GROUP_ORDERS[label])
        section["splitting_degree_bound"] = GROUP_ORDERS[label]

    return edit


def _set(key, value):
    return lambda section: section.update({key: value})


@pytest.mark.parametrize(
    "edit, defect",
    [
        (_relabel("A4"), "Frobenius type"),
        (_relabel("V4"), "Frobenius type"),
        (_set("disc_is_square", True), "disc_is_square"),
        (_set("splitting_degree_bound", 12), "splitting_degree_bound"),
        (lambda section: section["factors"][0].update(degree=3), "degrees"),
        (lambda section: section["factors"][0].update(order=12), "order"),
    ],
    ids=["S4 as A4", "S4 as V4", "square class", "bound", "degree", "order"],
)
def test_a_changed_galois_field_is_reported(edit, defect):
    data = _s4_certificate()
    assert galois_errors(data) == []
    edit(data["galois"])
    errors = galois_errors(data)
    assert errors and all(defect in error for error in errors), errors


def _set_point(key, value):
    return lambda section: section["points"][0].update({key: value})


@pytest.mark.parametrize(
    "edit, defect",
    [
        # v(u2) with v_sigma3 = 2 added, not subtracted
        (_set_point("v_u2", -1), "ratio valuations"),
        (_set_point("ordinary", False), "ordinary is not True"),
        (_set_point("curve_V_avoided", None), "curve_V_avoided"),
        (_set("points_extracted", 2), "points_extracted"),
    ],
    ids=["v_u2", "ordinary", "curve V", "point count"],
)
def test_a_changed_local_5_field_is_reported(edit, defect):
    data = json.loads(_golden_path("find-char3-demo").read_text().splitlines()[4])
    assert data["local_5"]["points"][0]["v_sigma3"] == 2
    assert local_5_errors(data) == []
    edit(data["local_5"])
    errors = local_5_errors(data)
    assert errors and all(defect in error for error in errors), errors


def _edit_local_3(edit):
    return lambda data: edit(data["local_3"])


def _set_param(index, value):
    return lambda data: data["chart"]["params"].__setitem__(index, value)


@pytest.mark.parametrize(
    "name, index, edit, defect",
    [
        # local_3 of this certificate: a (linear)^2 and a quadratic block
        ("find-char3-demo", 4, _edit_local_3(_set("residue_degrees", [1, 1, 1, 1])),
         "local_3: residue_degrees"),
        ("find-char3-demo", 4,
         _edit_local_3(lambda section: section["blocks"][1].update(residue_degree=1)),
         "local_3: the blocks'"),
        ("find-char3-demo", 4,
         _edit_local_3(lambda section: section["blocks"][0].update(multiplicity=1)),
         "local_3: the blocks'"),
        ("find-char3-demo", 4, _edit_local_3(_set("points_extracted", 2)),
         "local_3: points_extracted"),
        ("find-char3-demo", 4, _set_param(0, "166"), "chart: the labc params"),
        ("find-rho0-demo", 1, _set_param(1, "1"), "chart: the tangent-cone params"),
    ],
    ids=["residue degrees", "block residue degree", "block multiplicity",
         "point count", "labc param", "tangent-cone param"],
)
def test_a_changed_local_or_chart_field_is_reported(name, index, edit, defect):
    data = json.loads(_golden_path(name).read_text().splitlines()[index])
    assert local_errors(data) == _chart_errors(data) == []
    edit(data)
    errors = local_errors(data) + _chart_errors(data)
    assert errors and all(error.startswith(defect) for error in errors), errors


# sha256 of the outputs of one operation of each workload at seed 0
BENCH_DIGESTS = {
    "rho0-harvest": "f519a0e5a87ffe11b55f9276a1b4bb39bdc0e0636fe48685c307c63311fdefc1",
    "char3-starved": "b85d03d7a55aa906bde7ff2d4e3ce62348c7c92a3a8dc9dc1aa5c37d6d7b5499",
    "certify-batch": "f58929dab866dd47acfcb0f52ddf05a4e87cd81416ee1b55c4f3e7d911bcc5dc",
}


class _CountingClock:
    """The benchmark clock's one call from a workload, counting candidates."""

    ticks = 0

    def tick(self):
        self.ticks += 1


@pytest.mark.parametrize("name", sorted(BENCH_DIGESTS))
def test_bench_digest_is_pinned(name):
    hms = {"errors": errors, "lines": lines, "quartics": quartics, "search": search}
    workload = WORKLOADS[name](hms, 0)
    clock = _CountingClock()
    op = workload.op(clock)
    op.candidates = clock.ticks
    assert workload.errors(op) == []
    assert op.digest == BENCH_DIGESTS[name]
    for text in op.outputs:
        # certify-batch writes a line undecided at its precision as text
        if not text.startswith("undecided: "):
            _load_without_floats(text)


def test_certify_batch_lines_open_at_4_rebuild_to_their_bytes_at_60(monkeypatch):
    # with the sections built at precision 4 first, the lines of the
    # certify-batch sample that hold a null 5-adic valuation at 4 or
    # raise there are rebuilt at 60, to the bytes of a direct build at 60
    workload = WORKLOADS["certify-batch"](
        {"errors": errors, "lines": lines, "quartics": quartics, "search": search}, 0
    )
    open_lines = {"null": [], "raises": []}
    for config, model, line in workload.sample:
        try:
            low = certify_line(line, model, replace(config, precision=4))
        except PrecisionError:
            open_lines["raises"].append((config, model, line))
            continue
        if any(
            None in (entry["v_sigma3"], entry["v_sigma5"], entry["v_D"])
            for entry in low.data["local_5"]["points"]
        ):
            open_lines["null"].append((config, model, line))
    assert {kind: len(found) for kind, found in open_lines.items()} == {
        "null": 22,
        "raises": 5,
    }
    for config, model, line in open_lines["null"] + open_lines["raises"]:
        certificates = []
        for first in (4, config.precision):
            monkeypatch.setattr(search, "FIRST_PRECISION", first)
            certificates.append(certify_line(line, model, config).to_json())
        assert certificates[0] == certificates[1], line.ints


def test_certify_batch_reads_each_5_adic_section_once(monkeypatch):
    # every null v_sigma5 of the seed-0 certify-batch sample is an exact
    # zero of sigma_5, proved over Q at the first precision: no 5-adic
    # section is rebuilt at 60, and the 3-adic section that raises at 8
    # still is.  Oracle: on each such line the quartic and sigma_5 have
    # one common rational root, a point of the model where sigma_5 is 0
    # in exact arithmetic, and one null point of degree 1
    builds = Counter()
    local_section = search._local_section

    def counting(sections, report, k):
        builds[report.p, k] += 1
        return local_section(sections, report, k)

    monkeypatch.setattr(search, "_local_section", counting)
    workload = WORKLOADS["certify-batch"](
        {"errors": errors, "lines": lines, "quartics": quartics, "search": search}, 0
    )
    exact_lines = 0
    for config, model, line in workload.sample:
        try:
            cert = certify_line(line, model, config)
        except PrecisionError:
            continue
        points = (cert.data["local_5"] or {}).get("points", [])
        nulls = [entry for entry in points if entry["v_sigma5"] is None]
        if not nulls:
            continue
        exact_lines += 1
        t, u = common_rational_root(
            lines.quartic_of_line(line, model).coeffs,
            model.compiled[5].restrict(*line.ints),
        )
        point = [t * a + u * b for a, b in zip(*line.ints)]
        for form in (model.q1, model.q2, model.q4, model.forms[5]):
            assert evaluate(form.terms, point) == 0, line.ints
        assert [entry["conjugates"] for entry in nulls] == [1], line.ints
    assert exact_lines == 16
    assert builds == {(3, 8): 128, (3, 60): 1, (5, 8): 128}


VERDICTS_PATH = GOLDEN_DIR / "verdicts.json"
# the certify-batch sample's configurations: the demos at this precision
BATCH_PRECISION = 60


def _local_projection(section):
    if section is None:
        return None
    return {
        "verdict": section["verdict"],
        "blocks": sorted(blk["verdict"] for blk in section["blocks"]),
        "points": sorted(
            ([pt["kind"], pt["ordinary"], pt["curve_V_avoided"]]
             for pt in section.get("points", [])),
            key=json.dumps,
        ),
    }


def verdict_projection(data):
    """What a certificate certifies, with nothing of how it is written:
    the summary's pass and checks, the real root count, the Galois label
    and sorted factor labels, and each local section's verdict with the
    sorted multisets of its blocks' verdicts and of its points' kind,
    ordinarity and curve V avoidance."""
    galois, real = data["galois"], data["real"]
    return {
        "outcome": "certificate",
        "passed": data["summary"]["passed"],
        "checks": data["summary"].get("checks"),
        "real_root_count": None if real is None else real["root_count"],
        "galois": None if galois is None else {
            "label": galois["label"],
            "factors": sorted(f["label"] for f in galois["factors"]),
        },
        "local_3": _local_projection(data["local_3"]),
        "local_5": _local_projection(data["local_5"]),
    }


def _batch_outcome(name, rows, models):
    """The verdict projection of `certify` on one line of the sample, or
    the class of the error it raises."""
    if name not in models:
        config = _config(name, precision=BATCH_PRECISION)
        models[name] = config, build_model(config)
    config, model = models[name]
    line = Line([[Fraction(c) for c in row] for row in rows])
    try:
        return verdict_projection(certify_line(line, model, config).data)
    except PrecisionError:
        return {"outcome": "PrecisionError"}
    except HmsError:
        return {"outcome": "HmsError"}


def _verdict_entries(batch_lines):
    """One entry per golden certificate, then one per (config, rows) of
    batch_lines."""
    entries = [
        {"golden": where, **verdict_projection(data)}
        for where, data in _golden_certificates()
    ]
    models = {}
    for name, rows in batch_lines:
        entries.append(
            {"config": name, "rows": rows, **_batch_outcome(name, rows, models)}
        )
    return entries


def _render_verdicts(entries) -> bytes:
    body = ",\n".join(json.dumps(entry, sort_keys=True) for entry in entries)
    return f"[\n{body}\n]\n".encode("utf-8")


def test_verdicts_are_pinned():
    expected = VERDICTS_PATH.read_bytes()
    batch_lines = [
        (entry["config"], entry["rows"])
        for entry in json.loads(expected)
        if "config" in entry
    ]
    assert len(batch_lines) == 128
    actual = _render_verdicts(_verdict_entries(batch_lines))
    if actual != expected:
        moved = [
            entry.get("golden") or entry["rows"]
            for entry, pinned in zip(json.loads(actual), json.loads(expected))
            if entry != pinned
        ]
        pytest.fail(f"verdicts moved: {moved or 'the entry count changed'}")


def test_a_reordering_keeps_the_verdict_projection():
    data = json.loads(_golden_path("certify-char3-double-root-chart").read_text())
    moved = json.loads(json.dumps(data))
    for name in ("local_3", "local_5"):
        moved[name]["blocks"].reverse()
        moved[name].get("points", []).reverse()
    assert verdict_projection(moved) == verdict_projection(data)
    moved["local_5"]["points"][0]["ordinary"] = False
    assert verdict_projection(moved) != verdict_projection(data)


def _sample_lines():
    """(config, primitive rows) of each line of the seed-0 certify-batch
    sample, in its order; each config is a demo's at BATCH_PRECISION."""
    workload = WORKLOADS["certify-batch"](
        {"errors": errors, "lines": lines, "quartics": quartics, "search": search}, 0
    )
    out = []
    for config, _, line in workload.sample:
        name = "char3-demo.json" if config.seed_point is None else "rho0-demo.json"
        assert config.digest == _config(name, precision=BATCH_PRECISION).digest
        out.append((name, [list(row) for row in line.primitive_rows()]))
    return out


def update():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(SCENARIOS):
        _golden_path(name).write_bytes(_render(name))
        print(f"wrote {_golden_path(name)}")


def update_verdicts():
    VERDICTS_PATH.write_bytes(_render_verdicts(_verdict_entries(_sample_lines())))
    print(f"wrote {VERDICTS_PATH}")


if __name__ == "__main__":
    commands = {"--update": update, "--update-verdicts": update_verdicts}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        sys.exit("usage: python tests/test_golden.py --update | --update-verdicts")
    commands[sys.argv[1]]()
