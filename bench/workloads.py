"""The three benchmark workloads: inputs, one timed operation, output checks.

Each workload builds its inputs from the seed (untimed), then
`op(clock)` runs one closed-loop operation through the public API,
ticks the clock once per candidate, and returns an `Op` with the bytes
it produced.  `errors(op)` checks one operation's outputs and returns
the defects.
"""

import hashlib
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

import inputs
import oracles

# the starved search walks its whole class: no max_results cut-off
SWEEP = 10**6


@dataclass
class Op:
    outputs: list
    undecided: int | None = None  # None: the operation does not report it
    lines: list = field(default_factory=list)
    stats: dict | None = None
    # set by the runner from the operation's Clock
    candidates: int = 0
    wall_s: float = 0.0
    scaled_s: float = 0.0

    def __post_init__(self):
        self.digest = hashlib.sha256("\n".join(self.outputs).encode()).hexdigest()


@contextmanager
def ticking(target, attr, clock):
    """Tick the clock on every call of one chart entry point (one per candidate)."""
    fn = target.__dict__[attr]

    def ticked(*args, **kwargs):
        clock.tick()
        return fn(*args, **kwargs)

    setattr(target, attr, ticked)
    try:
        yield
    finally:
        setattr(target, attr, fn)


def _certificate_defects(text, must_pass):
    data = json.loads(text)
    errors = oracles.certificate_errors(data)
    if must_pass and not data["summary"]["passed"]:
        errors.append("an emitted certificate has passed false")
    return errors


class _Search:
    """Shared by the two find_lines workloads."""

    def __init__(self, hms):
        self.search = hms["search"]
        self.hms = hms

    def _certify_path(self, line, config):
        """The `certify` command's path: chart inversion, certificate, JSON."""
        model = self.search.build_model(config)
        kind, params = self.search.derive_chart_params(line, config, model)
        return self.search.certify_line(
            line, model, config, chart_params=params, chart_kind=kind
        ).to_json()

    def _emitted_errors(self, op):
        errors = []
        for line, text in zip(op.lines, op.outputs):
            errors += _certificate_defects(text, must_pass=True)
            if self._certify_path(line, self.config) != text:
                errors.append("find_lines and certify disagree on a line")
        return errors


class Rho0Harvest(_Search):
    name = "rho0-harvest"

    def __init__(self, hms, seed, quick=False):
        super().__init__(hms)
        self.results = 3 if quick else inputs.HARVEST_RESULTS
        self.raw = inputs.rho0_config(seed)
        self.config = self.search.parse_config(self.raw)
        self.setup_configs = [self.raw]

    def op(self, clock):
        with ticking(self.hms["lines"].TangentConeChart, "line_at", clock):
            found = self.search.find_lines(self.config, max_results=self.results)
            outputs = [cert.to_json() for _, cert in found]
        return Op(outputs, lines=[line for line, _ in found])

    def errors(self, op):
        errors = self._emitted_errors(op)
        if len(op.outputs) != self.results:
            errors.append(f"harvest found {len(op.outputs)} of {self.results} lines")
        return errors


class Char3Starved(_Search):
    name = "char3-starved"

    def __init__(self, hms, seed, quick=False):
        super().__init__(hms)
        self.raw = inputs.char3_config(
            seed, inputs.STARVED_PRECISION, height_bound=120 if quick else 400
        )
        self.config = self.search.parse_config(self.raw)
        self.setup_configs = [self.raw]

    def op(self, clock):
        exhausted = self.hms["errors"].SearchExhausted
        with ticking(self.search, "labc_line", clock):
            try:
                found = self.search.find_lines(self.config, max_results=SWEEP)
                stats = None
            except exhausted as exc:
                found, stats = [], dict(exc.stats)
            outputs = [cert.to_json() for _, cert in found]
        undecided = stats["precision_failures"] if stats else 0
        outputs.append(json.dumps(stats, sort_keys=True))
        return Op(outputs, undecided, [line for line, _ in found], stats)

    def errors(self, op):
        errors = self._emitted_errors(op)
        if op.stats is not None:
            parts = sum(v for k, v in op.stats.items() if k != "candidates")
            if parts != op.stats["candidates"]:
                errors.append(f"stats add up to {parts}, not {op.stats['candidates']}")
            if op.stats["candidates"] != op.candidates:
                errors.append("stats disagree with the chart call count")
        return errors


class CertifyBatch:
    """`certify` on a seeded sample of lines from both charts, precision 60.

    The sample has `per_stratum` lines in each of four strata, decided
    by the independent oracles before any certificate is built: rho0
    lines with four real roots (they must pass) or fewer (they must
    fail), and char3 lines whose primitive quartic has a discriminant of
    odd 3-adic valuation (ramified, so they must fail) or of even
    valuation (the oracles cannot tell; about one in nine passes).
    """

    name = "certify-batch"

    def __init__(self, hms, seed, quick=False):
        self.search = hms["search"]
        self.precision_error = hms["errors"].PrecisionError
        per_stratum = 1 if quick else 32
        rng = random.Random(f"certify-{seed}")
        rho0_raw = inputs.rho0_config(0, inputs.CERTIFY_PRECISION)
        char3_raw = inputs.char3_config(0, inputs.CERTIFY_PRECISION)
        self.setup_configs = [rho0_raw, char3_raw]
        self.sample = []
        for raw, draw, classify, strata in (
            (rho0_raw, self._rho0_params, self._rho0_stratum, ("pass", "fail")),
            (char3_raw, self._char3_params, self._char3_stratum, ("even", "odd")),
        ):
            config = self.search.parse_config(raw)
            model = self.search.build_model(config)
            if config.seed_point is None:
                chart = hms["lines"].labc_line
            else:
                seed_point = list(config.seed_point)
                chart = hms["lines"].TangentConeChart(model, seed_point).line_at
            wanted = dict.fromkeys(strata, per_stratum)
            params = draw()
            rng.shuffle(params)
            for triple in params:
                if not any(wanted.values()):
                    break
                line = chart(*triple)
                coeffs = hms["lines"].quartic_of_line(line, model).coeffs
                stratum = classify([Fraction(c) for c in coeffs])
                if wanted.get(stratum):
                    wanted[stratum] -= 1
                    rows = [[Fraction(c) for c in row] for row in line.rows]
                    self.sample.append((config, model, hms["lines"].Line(rows)))
            if any(wanted.values()):
                raise RuntimeError(f"sample window too small for {raw['twist']}")
        rng.shuffle(self.sample)

    @staticmethod
    def _rho0_params():
        """Chart triples within 4 steps of the rho0-demo anchor, height <= 50."""
        return [
            (Fraction(2 + i), Fraction(1, 16) + j, Fraction(3 + k))
            for i in range(-4, 5)
            for j in range(-3, 4)
            for k in range(-4, 5)
        ]

    @staticmethod
    def _char3_params():
        """Every chart triple of the char3-demo class with height <= 400."""
        a_values = [3 + 81 * n for n in range(-4, 5)]
        bc_values = [243 + 81 * n for n in range(-7, 2)]
        return [(a, b, c) for a in a_values for b in bc_values for c in bc_values]

    @staticmethod
    def _rho0_stratum(coeffs):
        if oracles.discriminant(coeffs) == 0:
            return None
        return "pass" if oracles.real_root_count(coeffs) == 4 else "fail"

    @staticmethod
    def _char3_stratum(coeffs):
        disc = oracles.discriminant(oracles.primitive(coeffs))
        if disc == 0:
            return None
        return "odd" if oracles.valuation(disc, 3) % 2 else "even"

    def op(self, clock):
        outputs, undecided = [], 0
        for config, model, line in self.sample:
            clock.tick()
            try:
                kind, params = self.search.derive_chart_params(line, config, model)
                cert = self.search.certify_line(
                    line, model, config, chart_params=params, chart_kind=kind
                )
                outputs.append(cert.to_json())
            except self.precision_error as exc:
                outputs.append(f"undecided: needs precision {exc.needed}")
                undecided += 1
        return Op(outputs, undecided)

    def errors(self, op):
        errors, verdicts = [], set()
        for text in op.outputs:
            if text.startswith("undecided"):
                continue
            errors += _certificate_defects(text, must_pass=False)
            verdicts.add(json.loads(text)["summary"]["passed"])
        if verdicts != {True, False}:
            errors.append("the batch lacks passing or failing lines")
        return errors


WORKLOADS = {w.name: w for w in (Rho0Harvest, Char3Starved, CertifyBatch)}
