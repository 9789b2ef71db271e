"""Congruence-guided line search and solvable-point certificates.

A search configuration prescribes local behaviour at up to three places
(the real one and the primes 3 and 5) through parameter triples in a
line chart.  The searcher combines the congruence targets by the
Chinese remainder theorem into one class, a representative per
parameter and one modulus 3^k3 5^k5 for all three
(`_combined_parameters`), walks candidate parameters outward from the
representatives, and certifies each resulting line: real root
count of the restricted quartic, unramified splitting over Z_3 and Z_5,
ordinarity of the 5-adic intersection points, and avoidance of the
degenerate curve.  Certificates serialize to canonical JSON so repeated
runs are byte identical.

Candidates walk on integer numerators (`_candidate_params`), and every
line of the search or of a certificate is an integer basis: its quartic
and its 5-adic forms are restricted by the model's compiled integer
kernel (`SurfaceModel.compiled`), never by the ring-generic
`mpoly.restrict_to_span`.

The roots of a Hensel block come from `hensel.block_roots`; this module
owns the points: `intersection_points` keeps each root (t, u), in the
root's `UnramifiedRing`, as the point t * ints[0] + u * ints[1] on the
line's integer basis (`LocalPoint`).  The 5-adic invariants restrict
sigma_3, sigma_5 and sigma_6 to that basis once per line (`_SpanForms`)
and evaluate the binary forms at each (t, u); only the cusp report
forms the six coordinates.  Every valuation is a `UElt.valuation`.

Two sections come straight from the function that computes them:
`galois.solvability_report` returns the `galois` section as it is
serialized, and `lines.cusp_proximity` returns the depths from which
`_cusp_report` writes the cusp distances 3^(-depth).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .errors import (
    ConfigError,
    DegenerateLineError,
    HmsError,
    NotOnSurfaceError,
    PrecisionError,
    SearchExhausted,
)
from .hensel import block_roots, hensel_factor_quartic
from .lines import (
    Line,
    TangentConeChart,
    cusp_proximity,
    labc_line,
    labc_params_of_line,
    parity_admissible,
    quartic_of_line,
)
from .padics import UElt, UnramifiedRing
from .quartics import integer_model, real_root_count
from .galois import solvability_report
from .scalars import sup_norm_shell, valuation_of_rational
from .serialize import canonical_json, config_digest, frac_str, parse_frac
from .surface import (
    BUILTIN_TWISTS,
    SurfaceModel,
    ordinarity_from_valuations,
    twist_by_name,
    twisted_equations,
)

CERTIFICATE_SCHEMA = "hmslines-certificate/1"

_CONFIG_KEYS = {
    "twist",
    "lambda1",
    "lambda2",
    "seed_point",
    "targets",
    "k3",
    "k5",
    "height_bound",
    "precision",
    "rng_seed",
}


# -- configuration -----------------------------------------------------


@dataclass
class SearchConfig:
    twist: str
    lambda1: Fraction
    lambda2: Fraction
    seed_point: tuple | None
    # place ("real", 3 or 5) -> the chart triple (a, b, c) anchoring the
    # search there; at a finite place only its residues mod p^k matter
    targets: dict
    k3: int
    k5: int
    height_bound: int
    precision: int
    digest: str


def _parse_place(raw):
    if raw == "real":
        return "real"
    if isinstance(raw, (bool, float)):
        raise ConfigError(f"unknown place {raw!r}; expected 'real', 3, or 5")
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"unknown place {raw!r}; expected 'real', 3, or 5")
    if value not in (3, 5):
        raise ConfigError(f"unsupported finite place {value}; expected 3 or 5")
    return value


def _parse_int(data, key, default, minimum):
    raw = data.get(key, default)
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{key} must be an integer")
    if raw < minimum:
        raise ConfigError(f"{key} must be at least {minimum}")
    return raw


def parse_config(data: dict) -> SearchConfig:
    """Validate a configuration dict; raises ConfigError on any defect."""
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    twist = data.get("twist")
    if twist not in BUILTIN_TWISTS:
        raise ConfigError(
            f"twist must be one of {BUILTIN_TWISTS}, got {twist!r}"
        )
    lambda1 = parse_frac(data.get("lambda1", "1"))
    lambda2 = parse_frac(data.get("lambda2", "1"))
    if lambda1 == 0 or lambda2 == 0:
        raise ConfigError("twist parameters lambda1, lambda2 must be nonzero")

    seed_raw = data.get("seed_point")
    seed_point = None
    if seed_raw is not None:
        if not isinstance(seed_raw, (list, tuple)) or len(seed_raw) != 6:
            raise ConfigError("seed_point must be a list of 6 rationals")
        seed_point = tuple(parse_frac(c) for c in seed_raw)

    targets_raw = data.get("targets", [])
    if not isinstance(targets_raw, list):
        raise ConfigError("targets must be a list")
    targets = {}
    for entry in targets_raw:
        if not isinstance(entry, dict) or "place" not in entry:
            raise ConfigError("each target needs a 'place' key")
        place = _parse_place(entry["place"])
        if place in targets:
            raise ConfigError(f"duplicate target for place {place!r}")
        params_raw = entry.get("params")
        if not isinstance(params_raw, (list, tuple)) or len(params_raw) != 3:
            raise ConfigError("target params must be a triple (a, b, c)")
        params = tuple(parse_frac(v) for v in params_raw)
        extra = set(entry) - {"place", "params"}
        if extra:
            raise ConfigError(f"unknown target keys: {sorted(extra)}")
        if place != "real":
            for value in params:
                if value.denominator % place == 0:
                    raise ConfigError(
                        f"target parameter {frac_str(value)} is not a {place}-adic integer"
                    )
        targets[place] = params

    k3 = _parse_int(data, "k3", 0, 0)
    k5 = _parse_int(data, "k5", 0, 0)
    height_bound = _parse_int(data, "height_bound", 50, 1)
    precision = _parse_int(data, "precision", 12, 1)
    _parse_int(data, "rng_seed", 0, 0)  # validated; only the digest reads it

    if twist != "char3-x" and targets and seed_point is None:
        raise ConfigError("this twist needs a seed_point for the line chart")

    if 3 in targets and k3 < 1:
        raise ConfigError("a place-3 target needs k3 >= 1")
    if 5 in targets and k5 < 1:
        raise ConfigError("a place-5 target needs k5 >= 1")

    return SearchConfig(
        twist=twist,
        lambda1=lambda1,
        lambda2=lambda2,
        seed_point=seed_point,
        targets=targets,
        k3=k3,
        k5=k5,
        height_bound=height_bound,
        precision=precision,
        digest=config_digest(data),
    )


def load_config(path: str) -> SearchConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}")
    return parse_config(data)


# -- candidate enumeration ---------------------------------------------


def _candidate_params(reps, modulus, height_bound):
    """Walk chart triples outward from the combined representative.

    On each axis rep + n * modulus is (num + n * modulus * den) / den,
    already in lowest terms since gcd(num + n * modulus * den, den) =
    gcd(num, den) = 1, so the height bound, |num + n * step| <=
    height_bound with step = modulus * den, holds on one interval of n
    per axis.  Each sup-norm shell of offsets is clipped to that box,
    and only the triples yielded become Fractions.  A representative
    whose denominator exceeds the bound admits no triple at all.
    """
    if any(rep.denominator > height_bound for rep in reps):
        return
    axes = [(rep.numerator, modulus * rep.denominator) for rep in reps]
    box = [
        range(-((height_bound + num) // step), (height_bound - num) // step + 1)
        for num, step in axes
    ]
    if not all(box):
        return
    dens = [rep.denominator for rep in reps]
    for radius in range(max(max(-axis[0], axis[-1]) for axis in box) + 1):
        for off in sup_norm_shell(radius, box):
            nums = [num + n * step for (num, step), n in zip(axes, off)]
            yield tuple(map(Fraction, nums, dens))


# -- intersection points over Z_p ----------------------------------------


@dataclass
class LocalPoint:
    """One p-adic intersection point of a line with the degree-8 locus:
    [t : u] in the parametrization of `quartic_of_line`, the point
    t * ints[0] + u * ints[1] on the line's integer basis.

    t and u are elements of one `UnramifiedRing`, which carries p and
    the precision K.  A degree-1 ring, Z/p^K, holds a rational point; a
    ring of degree d holds a point standing for d Galois-conjugate
    geometric points.
    """

    block: int
    t: UElt
    u: UElt

    @property
    def ring(self) -> UnramifiedRing:
        return self.t.ring

    def coordinates(self, rows) -> tuple:
        """The six coordinates t * rows[0] + u * rows[1] in the point's ring."""
        return tuple(self.t * a + self.u * b for a, b in zip(*rows))


def intersection_points(report):
    """The p-adic intersection points of a line, one per root of each
    block of its local report (`block_roots`), in block order.

    Blocks whose verdict is ramified or inconclusive contribute no
    points (their roots live outside the unramified tower or are not
    pinned down at this precision).
    """
    return [
        LocalPoint(idx, t, u)
        for idx, blk in enumerate(report.blocks)
        for t, u in block_roots(report, blk)
    ]


# -- local invariants at an intersection point ----------------------------


def _binary_value(coeffs, t, upows):
    """sum c_i t^i u^(n-i) of coeffs c_0..c_n by homogeneous Horner,
    with upows[k] = u^k."""
    acc = upows[0] * coeffs[-1]
    for k, c in enumerate(reversed(coeffs[:-1]), 1):
        acc = acc * t + upows[k] * c
    return acc


class _SpanForms:
    """The model's forms f3, f5 and f6 restricted to the span of two
    integer rows by its compiled kernel (`SurfaceModel.compiled`), with
    the constants that turn their values into the valuations at p of
    sigma_3, sigma_5 and D.

    `coeffs` holds each restriction as its coefficients c_0..c_n of
    t^i u^(n-i).  Z -> Z/p^K is a ring map, so a restricted form at
    (t, u) in a ring is the form at the coordinates t * rows[0] +
    u * rows[1] there.  sigma_k = scales[k] * f_k, and D =
    s3^2 f3^2 - 4 s6 f6 is p^v_shift times the integral bracket
    a f3^2 - b f6 over a p-unit.
    """

    def __init__(self, model: SurfaceModel, rows, p: int):
        self.coeffs = tuple(model.compiled[k].restrict(*rows) for k in (3, 5, 6))
        s3, s6 = model.scales[3], model.scales[6]
        self.v_scale3 = valuation_of_rational(s3, p)
        self.v_scale5 = valuation_of_rational(model.scales[5], p)
        # pull out the common p-power of the scales, then the p-unit
        # denominators, so the bracket has integer coefficients
        self.v_shift = min(2 * self.v_scale3, valuation_of_rational(4 * s6, p))
        shift = Fraction(p) ** self.v_shift
        c3, c6 = s3 * s3 / shift, 4 * s6 / shift
        unit = c3.denominator * c6.denominator
        self.a, self.b = int(c3 * unit), int(c6 * unit)

    def values(self, t, u):
        """f3, f5 and f6 at t * rows[0] + u * rows[1], in the ring of t, u."""
        upows = [t.ring.one()]
        for _ in range(6):  # u^6 for the sextic
            upows.append(upows[-1] * u)
        return tuple(_binary_value(c, t, upows) for c in self.coeffs)


def _point_invariants(forms: _SpanForms, pt: LocalPoint) -> dict:
    """Valuations of sigma_3, sigma_5, D and the ordinarity ratios at a
    point of the span that `forms` is restricted to.

    The ratios u1 = D^5 / sigma_5^6 and u2 = D^3 / (sigma_5^3 sigma_3)
    are invariant under scaling the coordinates, so any integral
    representative of the projective point gives the same answer.  A
    valuation not determined at the point's precision is None, and so
    are `ordinary` and `curve_V_avoided` when they depend on it.
    """
    ring = pt.ring
    f3, f5, f6 = forms.values(pt.t, pt.u)

    def val_of(shift, value):
        """shift + v(value), None when v(value) is not determined."""
        v = value.valuation()
        return shift + v if isinstance(v, int) else None

    v_s3, v_s5 = val_of(forms.v_scale3, f3), val_of(forms.v_scale5, f5)
    v_D = val_of(forms.v_shift, f3 * f3 * forms.a - f6 * forms.b)

    v_u1, v_u2, ordinary = ordinarity_from_valuations(v_s3, v_s5, v_D)
    return {
        "block": pt.block,
        "kind": "rational" if ring.deg == 1 else "unramified",
        "residue_degree": ring.deg,
        "conjugates": ring.deg,
        "precision": ring.K,
        "v_sigma3": v_s3,
        "v_sigma5": v_s5,
        "v_D": v_D,
        "v_u1": v_u1,
        "v_u2": v_u2,
        "ordinary": ordinary,
        "curve_V_avoided": True if v_D is not None else None,
    }


def _cusp_report(rows, points):
    """Distance of 3-adic intersection points of the span of rows from
    the coordinate cusp line spanned by e1 and e2, where the `NONCUSP`
    coordinates 0, 3, 4 and 5 vanish (`lines.cusp_proximity`)."""
    if not points:
        return None
    depths = cusp_proximity([pt.coordinates(rows) for pt in points])
    return {
        "p": 3,
        "depths": list(depths),
        "distances": [
            frac_str(0) if d is None else frac_str(Fraction(1, 3**d)) for d in depths
        ],
    }


# -- certificates --------------------------------------------------------


class SolvableLineCertificate:
    """Verification record for one line; serializes canonically."""

    def __init__(self, data: dict):
        self.data = data

    @property
    def passed(self) -> bool:
        return self.data["summary"]["passed"]

    def to_json(self) -> str:
        return canonical_json(self.data)

    def __eq__(self, other):
        return (
            isinstance(other, SolvableLineCertificate)
            and self.to_json() == other.to_json()
        )

    def __repr__(self):
        state = "passed" if self.passed else "failed"
        return f"<SolvableLineCertificate {state}>"


def _serialize_block(blk) -> dict:
    return {
        "degree": blk.degree,
        "residue_degree": blk.residue_degree,
        "multiplicity": blk.multiplicity,
        "verdict": blk.verdict,
        "disc_valuation": blk.disc_valuation,
    }


def _parity_section(line: Line, config: SearchConfig):
    try:
        a, b, c = labc_params_of_line(line)
    except HmsError:
        return None
    ord_b = valuation_of_rational(b, 3) if b != 0 else None
    ord_c = valuation_of_rational(c, 3) if c != 0 else None
    ord_l1 = valuation_of_rational(config.lambda1, 3)
    ord_l2 = valuation_of_rational(config.lambda2, 3)
    admissible = None
    if ord_b is not None and ord_c is not None:
        admissible = parity_admissible(ord_b, ord_c, ord_l1, ord_l2)
    return {
        "a": frac_str(a),
        "b": frac_str(b),
        "c": frac_str(c),
        "ord_b": ord_b,
        "ord_c": ord_c,
        "ord_lambda1": ord_l1,
        "ord_lambda2": ord_l2,
        "admissible": admissible,
    }


def _local_section(line, model, config, report) -> dict:
    """Intersection points and p-specific extras around a Hensel report."""
    p = report.p
    points = intersection_points(report)
    section = {
        "p": p,
        "precision": report.prec,
        "squarefree_mod_p": report.squarefree_mod_p,
        "residue_degrees": list(report.residue_degrees),
        "verdict": report.verdict,
        "blocks": [_serialize_block(b) for b in report.blocks],
        "points_extracted": sum(pt.ring.deg for pt in points),
    }
    if p == 3 and config.twist == "char3-x":
        section["cusp"] = _cusp_report(line.ints, points)
        section["parity"] = _parity_section(line, config)
    if p == 5:
        # restricted once per line, and only for a line with points
        forms = _SpanForms(model, line.ints, p) if points else None
        section["points"] = [_point_invariants(forms, pt) for pt in points]
    section["required"] = p in config.targets
    return section


def _points_ordinary(section) -> bool:
    """Four 5-adic points extracted, each ordinary and off the curve V."""
    return section["points_extracted"] == 4 and all(
        entry["ordinary"] is True and entry["curve_V_avoided"] is True
        for entry in section["points"]
    )


class _Sections:
    """The sections of one line's certificate, each built once, on use.

    Searching and certifying share these builders and the assembler
    `_certificate`, so a certificate has the same bytes whichever path
    built it.  Construction restricts the quartic and evaluates its
    discriminant; NotOnSurfaceError or DegenerateLineError means the
    line is not a generator of the model at all.
    """

    def __init__(self, line: Line, model: SurfaceModel, config: SearchConfig):
        quartic = quartic_of_line(line, model)
        if all(c == 0 for c in quartic.coeffs):
            raise DegenerateLineError("the line lies inside the degree-8 locus")
        self.line, self.model, self.config = line, model, config
        self.quartic = quartic
        self.disc = quartic.discriminant()
        self._built = {}

    def _once(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def quartic_section(self) -> dict:
        section = {
            "coeffs": [frac_str(c) for c in self.quartic.coeffs],
            "primitive_coeffs": list(integer_model(self.quartic)[0]),
            "discriminant": frac_str(self.disc),
        }
        if self.disc != 0:
            section["disc_valuation_3"] = valuation_of_rational(self.disc, 3)
            section["disc_valuation_5"] = valuation_of_rational(self.disc, 5)
        return section

    def galois(self) -> dict:
        return self._once("galois", lambda: solvability_report(self.quartic))

    def real(self) -> dict:
        return self._once(
            "real",
            lambda: {
                "root_count": real_root_count(self.quartic),
                "required": "real" in self.config.targets,
            },
        )

    def hensel(self, p: int):
        return self._once(
            ("hensel", p),
            lambda: hensel_factor_quartic(self.quartic, p, self.config.precision),
        )

    def local(self, p: int) -> dict:
        return self._once(
            ("local", p),
            lambda: _local_section(
                self.line, self.model, self.config, self.hensel(p)
            ),
        )

    def targeted_gates(self):
        """(name, verdict) of each targeted gate, cheapest first, lazily.

        The real gate needs the real root count, the 3-adic gate the
        Hensel report at 3 alone, and the 5-adic gate the Hensel report
        at 5 before the points and invariants it reads last.
        """
        targeted = self.config.targets
        if "real" in targeted:
            yield "real_four_roots", self.real()["root_count"] == 4
        if 3 in targeted:
            yield "unramified_at_3", self.hensel(3).verdict == "unramified"
        if 5 in targeted:
            yield "ordinary_at_5", (
                self.hensel(5).verdict == "unramified"
                and _points_ordinary(self.local(5))
            )


def _certificate(sections: _Sections, chart_params, chart_kind):
    """Assemble the certificate, building the sections not built yet."""
    config = sections.config
    data = {
        "schema": CERTIFICATE_SCHEMA,
        "config_digest": config.digest,
        "twist": {
            "label": config.twist,
            "lambda1": frac_str(config.lambda1),
            "lambda2": frac_str(config.lambda2),
        },
        "chart": {
            "kind": chart_kind,
            "params": None
            if chart_params is None
            else [frac_str(v) for v in chart_params],
            "seed": None
            if config.seed_point is None
            else [frac_str(c) for c in config.seed_point],
        },
        "line": {
            "rows": [[frac_str(c) for c in row] for row in sections.line.rows],
            "primitive_rows": [list(r) for r in sections.line.primitive_rows()],
        },
        "quartic": sections.quartic_section(),
    }
    if sections.disc == 0:
        data.update(galois=None, real=None, local_3=None, local_5=None)
        data["summary"] = {
            "passed": False,
            "reasons": ["discriminant vanishes: tangential intersection"],
        }
        return SolvableLineCertificate(data)

    # only the local sections can raise (a PrecisionError), so they are
    # built first: a line undecided at this precision costs no Galois group
    local_3, local_5 = sections.local(3), sections.local(5)
    data["galois"] = sections.galois()
    data["real"] = sections.real()
    data["local_3"] = local_3
    data["local_5"] = local_5
    checks = dict(sections.targeted_gates())
    reasons = [f"check failed: {name}" for name, ok in checks.items() if not ok]
    if not checks:
        reasons.append("no local targets were requested")
    data["summary"] = {
        "passed": bool(checks) and all(checks.values()),
        "checks": checks,
        "reasons": reasons,
    }
    return SolvableLineCertificate(data)


def certify_line(
    line: Line,
    model: SurfaceModel,
    config: SearchConfig,
    chart_params=None,
    chart_kind=None,
) -> SolvableLineCertificate:
    """Run every check on one line and assemble the certificate.

    The summary gates only on the places the configuration targets;
    everything else is recorded as evidence.  Raises PrecisionError
    when a local factorization cannot be resolved at the configured
    precision, NotOnSurfaceError or DegenerateLineError when the line
    is not a generator of the model at all.
    """
    sections = _Sections(line, model, config)
    return _certificate(sections, chart_params, chart_kind)


def derive_chart_params(line: Line, config: SearchConfig, model: SurfaceModel):
    """Invert the configured line chart on a given line, if possible.

    Returns (kind, params) where params is None when the line is not in
    the chart's image (certificates then record the line by its rows
    alone).  A twist without a seed point has no chart, and kind None.
    """
    try:
        chart = line_chart(config, model)
    except ConfigError:
        return (None if config.seed_point is None else TangentConeChart.kind), None
    try:
        return chart.kind, chart.params_of(line)
    except HmsError:
        return chart.kind, None


# -- the search itself ---------------------------------------------------


def build_model(config: SearchConfig) -> SurfaceModel:
    try:
        twist = twist_by_name(
            config.twist, lambda1=config.lambda1, lambda2=config.lambda2
        )
        return twisted_equations(twist)
    except HmsError as exc:
        raise ConfigError(f"cannot build the twisted model: {exc}")


class _LabcChart:
    """The labc family as a line chart; `line_at` calls this module's
    `labc_line` once per candidate."""

    kind = "labc"
    params_of = staticmethod(labc_params_of_line)

    def line_at(self, a, b, c) -> Line:
        return labc_line(a, b, c)


def line_chart(config: SearchConfig, model: SurfaceModel):
    """The configured chart, with `kind`, `line_at(a, b, c)` and
    `params_of(line)`; ConfigError when the config gives none."""
    if config.twist == "char3-x":
        return _LabcChart()
    if config.seed_point is None:
        raise ConfigError("this twist needs a seed_point for the line chart")
    try:
        return TangentConeChart(model, list(config.seed_point))
    except HmsError as exc:
        raise ConfigError(f"seed_point does not give a line chart: {exc}")


def _residue_of(value: Fraction, m: int) -> int:
    """value mod m, for a value whose denominator is prime to m."""
    return value.numerator * pow(value.denominator, -1, m) % m


def _combined_parameters(config: SearchConfig):
    """The congruence class the search walks, as (reps, modulus).

    The modulus is 3^k3 5^k5 over the finite places targeted.  Each
    reps[i] is congruent to the i-th parameter of every finite target
    mod that place's power, and is the member of its class nearest the
    anchor: the real target, else the first finite one.  With no finite
    target the anchor comes back unchanged and the modulus is 1.
    """
    targets = config.targets
    anchor = targets.get("real") or targets.get(3) or targets.get(5)
    if anchor is None:
        raise ConfigError("the search needs at least one target")
    finite = [
        (targets[p], p**k) for p, k in ((3, config.k3), (5, config.k5)) if p in targets
    ]
    if not finite:
        return tuple(anchor), 1
    modulus = prod(m for _, m in finite)
    reps = []
    for i, near in enumerate(anchor):
        base = sum(
            _residue_of(target[i], m) * (modulus // m) * pow(modulus // m, -1, m)
            for target, m in finite
        ) % modulus
        reps.append(Fraction(base + modulus * round(Fraction(near - base, modulus))))
    return tuple(reps), modulus


def find_lines(config: SearchConfig, max_results: int = 1):
    """Search the congruence class for lines passing every target gate.

    Each candidate line is decided gate first: after the chart, the
    duplicate check and the zero-discriminant check, the targeted gates
    run cheapest first (real root count, Hensel at 3, Hensel at 5 and
    then the 5-adic points) and the first gate decided false rejects the
    line.
    Only a line passing every gate gets its remaining sections, reusing
    what the gates built, and the certificate `certify_line` would give.

    Returns a list of (Line, SolvableLineCertificate) pairs, at most
    max_results long, in deterministic enumeration order.  Raises
    SearchExhausted (with rejection statistics) when the height bound
    is reached first.  The statistics count a candidate whose targeted
    gate is decided false as a gate failure, even where an evidence-only
    section would have raised; a PrecisionError while deciding a gate,
    or while building a passing line's evidence, is a precision failure.
    """
    model = build_model(config)
    chart = line_chart(config, model)
    reps, modulus = _combined_parameters(config)
    stats = {
        "candidates": 0,
        "chart_failures": 0,
        "off_surface": 0,
        "degenerate": 0,
        "zero_discriminant": 0,
        "duplicates": 0,
        "precision_failures": 0,
        "gate_failures": 0,
    }
    results = []
    seen = set()
    for params in _candidate_params(reps, modulus, config.height_bound):
        stats["candidates"] += 1
        try:
            line = chart.line_at(*params)
        except HmsError:
            stats["chart_failures"] += 1
            continue
        if line.ints in seen:
            stats["duplicates"] += 1
            continue
        seen.add(line.ints)
        try:
            sections = _Sections(line, model, config)
            if sections.disc == 0:
                outcome = "zero_discriminant"
            elif not all(ok for _, ok in sections.targeted_gates()):
                outcome = "gate_failures"
            else:
                cert = _certificate(sections, params, chart.kind)
                outcome = None
        except NotOnSurfaceError:
            outcome = "off_surface"
        except DegenerateLineError:
            outcome = "degenerate"
        except PrecisionError:
            outcome = "precision_failures"
        if outcome is not None:
            stats[outcome] += 1
            continue
        results.append((line, cert))
        if len(results) >= max_results:
            return results
    if results:
        return results
    raise SearchExhausted(
        "no line passed every gate within the height bound", stats=stats
    )
