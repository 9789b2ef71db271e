"""Golden certificates: the emitted bytes of fixed scenarios, frozen.

Each scenario renders one or more canonical JSON documents (a
certificate, the data carried by an error, or the `verify-paper` report)
and compares them byte for byte with tests/golden/<scenario>.jsonl,
one document per line.  Any change to those bytes is a deliberate
update: regenerate the files from the current code with

    python tests/test_golden.py --update

and record the reason in CHANGES.md.

Every frozen certificate must also pass the benchmark's independent
checker (`bench/oracles.py`), and each 5-adic point entry must agree
with the ordinarity formulas written out in this file.  No frozen
document, and no JSON output of a pinned benchmark operation, holds a
float: every number is an int and every rational a string.

The benchmark's outputs are frozen too: one operation of each workload
of `bench/workloads.py` at seed 0 must pass the workload's own checks
and hash to the sha256 pinned in `BENCH_DIGESTS`.  A change to those
bytes is a deliberate update of the pin, recorded like a golden's.
"""
import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from hmslines import cli, errors, lines, quartics, search
from hmslines.errors import PrecisionError, SearchExhausted
from hmslines.lines import Line
from hmslines.search import (
    build_model,
    certify_line,
    derive_chart_params,
    find_lines,
    parse_config,
)
from hmslines.serialize import canonical_json

GOLDEN_DIR = Path(__file__).with_name("golden")

# the benchmark's independent certificate checker and its workloads,
# imported as the benchmark imports them
sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
from oracles import certificate_errors  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

README_LINE = [[4, 0, -3, 3, 0, -2], [0, 20, -23, 7, 40, 6]]
CHAR3_LINE = [[59046, 0, -1, 59049, 243, -243], [0, 19682, -19683, 3, 243, -243]]
CHAR3_RAMIFIED_LINE = [[1, -1, 0, 2, 1, -1], [0, 0, 1, -1, -1, 1]]
# c4 = 0: the 5-adic report works in a non-identity chart, and its split
# (linear)^2 block gives two points whose order the golden freezes
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


def test_golden_certificates_pass_the_independent_checks():
    checked = 0
    for where, data in _golden_certificates():
        assert certificate_errors(data) == [], where
        local_5 = data["local_5"]
        if local_5 is None:
            continue
        # the ratio valuations and verdicts from the three valuations:
        # u1 = D^5 / sigma_5^6, u2 = D^3 / (sigma_5^3 sigma_3), ordinary
        # when neither has positive valuation; D != 0 keeps V avoided
        for entry in local_5["points"]:
            s3, s5, d = entry["v_sigma3"], entry["v_sigma5"], entry["v_D"]
            u1 = None if None in (d, s5) else 5 * d - 6 * s5
            u2 = None if None in (d, s5, s3) else 3 * d - 3 * s5 - s3
            ordinary = None if None in (u1, u2) else u1 <= 0 and u2 <= 0
            assert (entry["v_u1"], entry["v_u2"]) == (u1, u2), where
            assert entry["ordinary"] == ordinary, where
            assert entry["curve_V_avoided"] == (None if d is None else True), where
        assert local_5["points_extracted"] == sum(
            entry["residue_degree"] for entry in local_5["points"]
        ), where
        checked += 1
    assert checked, "no golden certificate was checked"


# sha256 of the outputs of one operation of each workload at seed 0
BENCH_DIGESTS = {
    "rho0-harvest": "6581bc1d4a051bbf74e763d848b4f57b4ec1ff292c66fff6a7fd6a9b0f76a4fe",
    "char3-starved": "b85d03d7a55aa906bde7ff2d4e3ce62348c7c92a3a8dc9dc1aa5c37d6d7b5499",
    "certify-batch": "03106aea7684b46fbe8b0ed8675be733c0d4ee0fdfec70106a3f084ac4d0e07d",
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


def update():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(SCENARIOS):
        _golden_path(name).write_bytes(_render(name))
        print(f"wrote {_golden_path(name)}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    update()
