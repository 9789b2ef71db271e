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
and its 5-adic forms are restricted on it by the model's compiled forms
(`SurfaceModel.compiled`, one evaluation per restriction), never by the
ring-generic `mpoly.restrict_to_span`.  On either chart the quartic is
int coefficients and the positive scale den^4, and a candidate the
gates reject builds no Fraction coefficient; a labc candidate skips
only the quadric check, which its chart's `contained` flag makes
redundant (`_LabcChart`).

The roots of a Hensel block come from `hensel.block_roots`; this module
owns the points: `intersection_points` keeps each root, z in its
`UnramifiedRing`, as the point [z : 1] or [1 : z] on the line's integer
basis (`LocalPoint`).  Two sections read points, and only they extract
them: the 5-adic section, for its invariants, and the 3-adic section of
the char3-x twist, for its cusp report.  Every other local section
counts them, without a lift (`_points_extracted`).  The 5-adic
invariants restrict sigma_3, sigma_5 and sigma_6 to the basis once per
line, all three from one packed point (`_SpanForms`, by
`surface.restrict_forms`), and evaluate each form at a point in z by
the kernel (`padics.pevalmod`): one remainder by the ring's modulus
when z is the ring's generator, else one Horner pass; only the cusp
report forms the six coordinates.  Every valuation is a
`UElt.valuation`.

The local sections are decided at a low precision first: `_Sections`
builds one Hensel report per prime, at the configured precision K, and
reads the points of a local section off its lift at min(K,
FIRST_PRECISION), and again at K only when that raised PrecisionError
or left a 5-adic point valuation undetermined that is not an exact
zero (`_Sections.local`).  A null v_sigma5 is proved exact over Q, from
the gcd of the line's quartic and sigma_5 restricted to the line, and
stays null in the certificate (`_Sections.sigma5_zeros_exact`).  A p-adic valuation
determined mod p^k is the true one (precision on demand, as in Caruso,
Roe and Vaccon, "Tracking p-adic precision", LMS J. Comput. Math. 17A,
2014), and a section records K, so a certificate has the bytes of a
build at K, and every PrecisionError comes from the build at K.

Two sections come straight from the function that computes them:
`galois.solvability_report` returns the `galois` section as it is
serialized, and `lines.cusp_proximity` returns the depths from which
`_cusp_report` writes the cusp distances 3^(-depth).  The parity
section of the char3-x twist is the 3-adic parity rule at the labc
parameters that the certificate records as its chart, and null when it
records none (`_certificate`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

from .errors import (
    ConfigError,
    DegenerateLineError,
    HmsError,
    NotOnSurfaceError,
    PrecisionError,
    SearchExhausted,
)
from .hensel import binary_gcd, block_roots, hensel_factor_quartic, require_root_digits
from .lines import (
    NONCUSP,
    Line,
    TangentConeChart,
    cusp_proximity,
    labc_line,
    labc_params_of_line,
    labc_restriction,
    parity_admissible,
    primitive_vector,
    quartic_of_line,
)
from .padics import UElt, UnramifiedRing, pevalmod, trim
from .quartics import BinaryQuartic, real_root_count
from .galois import solvability_report
from .scalars import split_p_power, sup_norm_shell, valuation_of_rational
from .serialize import canonical_json, config_digest, frac_str, parse_frac, ratio_str
from .surface import (
    BUILTIN_TWISTS,
    SurfaceModel,
    ordinarity_from_valuations,
    restrict_forms,
    twist_by_name,
    twisted_equations,
)

CERTIFICATE_SCHEMA = "hmslines-certificate/2"

# the precision at which a line's local sections read their points first
# (`_Sections.local`)
FIRST_PRECISION = 8

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
    """The place "real", or the int 3 or 5.  "3" is refused, not read as
    3: the config digest is of the raw values, so one search would have
    two digests."""
    if raw == "real":
        return raw
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"unknown place {raw!r}; expected 'real', 3, or 5")
    if raw not in (3, 5):
        raise ConfigError(f"unsupported finite place {raw}; expected 3 or 5")
    return raw


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
    except ValueError as exc:
        # not UTF-8, not JSON, or an integer past int's digit limit
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
    and a parameter is yielded as an int where it is integral, else as
    a Fraction.  A representative whose denominator exceeds the bound
    admits no triple at all.
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
            yield tuple(
                num if den == 1 else Fraction(num, den) for num, den in zip(nums, dens)
            )


# -- intersection points over Z_p ----------------------------------------


@dataclass
class LocalPoint:
    """One p-adic intersection point of a line with the degree-8 locus:
    [z : 1] in the parametrization of `quartic_of_line`, or [1 : z] when
    `flipped`, on the line's integer basis `ints`.

    z is an element of an `UnramifiedRing`, which carries p and the
    precision K.  A degree-1 ring, Z/p^K, holds a rational point; a
    ring of degree d holds a point standing for d Galois-conjugate
    geometric points.
    """

    block: int
    z: UElt
    flipped: bool

    @property
    def ring(self) -> UnramifiedRing:
        return self.z.ring

    def coordinates(self, rows) -> tuple:
        """The six coordinates z * rows[0] + rows[1] in the point's ring,
        or rows[0] + z * rows[1] when flipped."""
        scaled, fixed = rows[::-1] if self.flipped else rows
        return tuple(self.z * a + b for a, b in zip(scaled, fixed))


def intersection_points(report, K):
    """The p-adic intersection points of a line, one per root of each
    block of its local report read off the lift mod p^K (`block_roots`),
    in block order.

    Blocks whose verdict is ramified or inconclusive contribute no
    points (their roots live outside the unramified tower or are not
    pinned down at this precision).
    """
    return [
        LocalPoint(idx, z, flipped)
        for idx, blk in enumerate(report.blocks)
        for z, flipped in block_roots(report, blk, K)
    ]


def _points_extracted(report, K):
    """What `intersection_points(report, K)` adds up to in ring degrees,
    extracting nothing: the roots of an unramified block of degree d are
    d geometric points, and the other blocks give none.  It raises the
    PrecisionError that `block_roots` would (`require_root_digits`), in
    the same block order."""
    unramified = [blk for blk in report.blocks if blk.verdict == "unramified"]
    for blk in unramified:
        require_root_digits(blk, K)
    return sum(blk.degree for blk in unramified)


# -- local invariants at an intersection point ----------------------------


@lru_cache(maxsize=64)
def _scale_constants(s3, s5, s6, p: int):
    """(v_p(s3), v_p(s5), v_shift, a, b) of `_SpanForms` for a model's
    scales s3, s5 and s6, worked out once per model and p."""
    v3, v5 = valuation_of_rational(s3, p), valuation_of_rational(s5, p)
    # pull out the common p-power of the scales, then the p-unit
    # denominators, so the bracket has integer coefficients
    v_shift = min(2 * v3, valuation_of_rational(4 * s6, p))
    c3, c6 = (c / Fraction(p) ** v_shift for c in (s3 * s3, 4 * s6))
    unit = c3.denominator * c6.denominator
    return v3, v5, v_shift, int(c3 * unit), int(c6 * unit)


class _SpanForms:
    """The model's forms f3, f5 and f6 restricted to the span of two
    integer rows by its compiled forms (`SurfaceModel.compiled`), all
    three from one packed point (`surface.restrict_forms`), with the
    constants that turn their values into the valuations at p of
    sigma_3, sigma_5 and D.

    `coeffs` holds each restriction as its coefficients c_0..c_n of
    t^i u^(n-i).  Z -> Z/p^K is a ring map, so a restricted form at a
    point's [t : u] in its ring is the form at the point's
    `coordinates` there.  sigma_k = scales[k] * f_k, and D =
    s3^2 f3^2 - 4 s6 f6 is p^v_shift times the integral bracket
    a f3^2 - b f6 over a p-unit.  Only the restriction is per line; the
    constants are the model's, kept per (scales, p) (`_scale_constants`).
    """

    def __init__(self, model: SurfaceModel, rows, p: int):
        self.coeffs = restrict_forms([model.compiled[k] for k in (3, 5, 6)], *rows)
        self.v_scale3, self.v_scale5, self.v_shift, self.a, self.b = _scale_constants(
            model.scales[3], model.scales[5], model.scales[6], p
        )

    def values(self, pt: LocalPoint):
        """f3, f5 and f6 at the point, in its ring, by the kernel
        (`padics.pevalmod`) over the coefficients of z^i, which are c_i
        at [z : 1] and c_(n-i) at [1 : z]: one remainder by the ring's
        modulus when z is the ring's generator, else one Horner pass
        in z."""
        ring, z = pt.ring, trim(pt.z.coeffs)
        return tuple(
            ring.elt(pevalmod(c[::-1] if pt.flipped else c, z, ring.modulus, ring.mod))
            for c in self.coeffs
        )


def _point_invariants(forms: _SpanForms, pt: LocalPoint) -> dict:
    """Valuations of sigma_3, sigma_5, D and the ordinarity ratios at a
    point of the span that `forms` is restricted to.

    The ratios u1 = D^5 / sigma_5^6 and u2 = D^3 / (sigma_5^3 sigma_3)
    are invariant under scaling the coordinates, so any integral
    representative of the projective point gives the same answer.  A
    valuation not determined at the point's precision is None, and so
    are `ordinary` and `curve_V_avoided` when they depend on it.

    A point's `residue_degree` is the degree of the ring its root lives
    in, not its block's (the degree of the block's residue factor): 2
    for an unramified (linear)^2 block whose w, the unit part of its
    discriminant, is not a square mod p, where the block records 1.
    """
    ring = pt.ring
    f3, f5, f6 = forms.values(pt)

    def val_of(shift, value):
        """shift + v(value), None when v(value) is not determined."""
        v = value.valuation()
        return None if v is None else shift + v

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


def _cusp_report(rows, points, prec):
    """Distance of 3-adic intersection points of the span of rows from
    the coordinate cusp line spanned by e1 and e2, where the `NONCUSP`
    coordinates 0, 3, 4 and 5 vanish (`lines.cusp_proximity`).

    `cusp_proximity` refuses an undetermined depth with no hint.  A
    root of a (linear)^2 block keeps only prec - v digits, so the hint
    set here is the configured precision prec + 1, which gives every
    point one more digit, not its point ring's K + 1."""
    if not points:
        return None
    try:
        depths = cusp_proximity([pt.coordinates(rows) for pt in points])
    except PrecisionError as exc:
        exc.needed = prec + 1
        raise
    return {
        "p": 3,
        "depths": list(depths),
        "distances": [ratio_str(1, 3**d) for d in depths],
    }


def _refuse_a_cusp_root(report, rows, points):
    """Raise DegenerateLineError when the span of the integer rows meets
    the cusp line, where its `NONCUSP` columns of rank 1 vanish (rank 0
    is the cusp line, whose zero quartic never gets here), at [t0 : u0],
    a root of the quartic, as q4 of the cube-root twist has no monomial
    in x1 and x2 alone, that reduces into a point's block: that point's
    cusp depth is undetermined at every precision."""
    P, Q = ([row[i] for i in NONCUSP] for row in rows)
    if any(P[i] * Q[j] != P[j] * Q[i] for i in range(4) for j in range(i)):
        return
    t0, u0 = primitive_vector(next((q, -p) for p, q in zip(P, Q) if p or q))
    linear = (-t0, u0)
    if any(report.roots_reducing_into(linear, report.blocks[pt.block]) for pt in points):
        raise DegenerateLineError(
            f"the line meets the cusp line at [{t0} : {u0}], a root of its "
            "quartic, whose cusp depth no precision decides"
        )


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


def _serialize_block(blk) -> dict:
    return {
        "degree": blk.degree,
        "residue_degree": blk.residue_degree,
        "multiplicity": blk.multiplicity,
        "verdict": blk.verdict,
        "disc_valuation": blk.disc_valuation,
    }


def _parity_section(params, config: SearchConfig):
    """The 3-adic parity rule at the labc parameters (a, b, c) of a
    line, None without them."""
    if params is None:
        return None
    a, b, c = params
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


def _local_section(sections, report, k) -> dict:
    """Intersection points and p-specific extras around a Hensel report
    of the line of `sections`, with the points read off its lift mod
    p^k by the two sections that read them, the 5-adic invariants and
    the cusp report of the char3-x twist at 3.  Every other section only
    counts them (`_points_extracted`), with the same PrecisionError.

    The precisions recorded are those of a build at the configured K,
    whatever k is: K for the section, and K - v for a point whose ring
    keeps v digits fewer than k (v the disc_valuation of its (linear)^2
    block, else 0).
    """
    line, config = sections.line, sections.config
    p = report.p
    K = config.precision
    cusp = p == 3 and config.twist == "char3-x"
    if p == 5 or cusp:
        points = intersection_points(report, k)
        extracted = sum(pt.ring.deg for pt in points)
    else:
        extracted = _points_extracted(report, k)
    section = {
        "p": p,
        "precision": K,
        "squarefree_mod_p": report.squarefree_mod_p,
        "residue_degrees": list(report.residue_degrees),
        "verdict": report.verdict,
        "blocks": [_serialize_block(b) for b in report.blocks],
        "points_extracted": extracted,
    }
    if cusp:
        try:
            section["cusp"] = _cusp_report(line.ints, points, K)
        except PrecisionError:
            _refuse_a_cusp_root(report, line.ints, points)
            raise
    if p == 5:
        # the forms are restricted once per line, and only for a point
        section["points"] = [
            dict(_point_invariants(sections.forms(), pt), precision=pt.ring.K + K - k)
            for pt in points
        ]
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
    built it.  Construction restricts q4 on `line.ints` with the model's
    compiled form, ints that are s = den^4 times the quartic on
    `line.rows`: through `quartic_of_line`, or directly when the line
    comes from a chart whose family is `contained` in the quadrics, so
    that `in_quadrics` would hold anyway.  NotOnSurfaceError, or the
    DegenerateLineError of a zero `BinaryQuartic`, means the line is not
    a generator of the model at all.  Every gate and section reads only
    the quartic's primitive `coeffs` and `disc`, which neither s nor the
    content changes, and `quartic_section` alone writes the quartic on
    `line.rows`, from those ints, the content and s (`ratio_str`): no
    builder forms a Fraction coefficient.

    Each Hensel report is built once, at the configured precision K,
    and a gate builds none for an odd v_p(D) (`_unramified`).  A
    local section reads its points off the report's lift at min(K,
    FIRST_PRECISION) first, and at K only when something is open there
    that is not an exact zero (`local`); it records K whichever lift
    it reads (`_local_section`).  The 5-adic forms are restricted once
    per line (`forms`).
    """

    def __init__(
        self, line: Line, model: SurfaceModel, config: SearchConfig, contained=False
    ):
        if contained:
            quartic = BinaryQuartic(model.compiled[4].restrict(*line.ints))
        else:
            quartic = quartic_of_line(line, model)
        self._scale = line.den**4
        self.line, self.model, self.config = line, model, config
        self.quartic = quartic
        self.tangential = quartic.disc == 0
        self._built = {}

    def _once(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def quartic_section(self) -> dict:
        """The quartic on `line.rows`: each coefficient, the primitive one
        times the content, over the scale s, and the discriminant D of
        the ints, of degree 6, over s^6, with v_p(D) - 6 v_p(s)."""
        q, scale = self.quartic, self._scale
        disc = q.discriminant()
        section = {
            "coeffs": [ratio_str(q.content * c, scale) for c in q.coeffs],
            "primitive_coeffs": list(q.coeffs),
            "discriminant": ratio_str(disc, scale**6),
        }
        if disc != 0:
            for p in (3, 5):
                v = split_p_power(disc, p)[0] - 6 * split_p_power(scale, p)[0]
                section[f"disc_valuation_{p}"] = v
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

    def forms(self) -> _SpanForms:
        """The 5-adic forms of the line (`_SpanForms`), restricted once."""
        return self._once("forms", lambda: _SpanForms(self.model, self.line.ints, 5))

    def local(self, p: int) -> dict:
        """The local section at p, built once: read off the report's
        lift at FIRST_PRECISION when that is below the configured
        precision K, raises no PrecisionError and leaves nothing
        `_undetermined`; else at K, whose PrecisionError is the one
        raised."""
        key = ("local", p)
        if key not in self._built:
            report, K = self.hensel(p), self.config.precision
            section = None
            if K > FIRST_PRECISION:
                try:
                    section = _local_section(self, report, FIRST_PRECISION)
                except PrecisionError:
                    pass
            if section is None or self._undetermined(section):
                section = _local_section(self, report, K)
            self._built[key] = section
        return self._built[key]

    def _undetermined(self, section) -> bool:
        """Whether a local section holds a 5-adic point valuation that its
        precision leaves undetermined and that is not an exact zero: a
        null v_sigma3 or v_D, or a null v_sigma5 unless every such null
        is an exact zero of sigma_5, which no precision decides
        (`sigma5_zeros_exact`).  Its other nulls (the disc_valuation of
        a simple block, a cusp section with no points) are the same at
        every precision."""
        points = section.get("points", ())
        if any(None in (entry["v_sigma3"], entry["v_D"]) for entry in points):
            return True
        nulls = any(entry["v_sigma5"] is None for entry in points)
        return nulls and not self.sigma5_zeros_exact(section)

    def sigma5_zeros_exact(self, section) -> bool:
        """Whether every null v_sigma5 of a 5-adic section is an exact
        zero of sigma_5 at its point.

        Let g be the primitive gcd over Q of the line's quartic q and of
        f5, sigma_5 restricted on the same basis (`hensel.binary_gcd`),
        built only here, for a section that has such a null.  g divides
        f5, so sigma_5 vanishes at every root of g, and a point whose
        v_sigma5 is determined is not one.  g divides q, whose
        discriminant is not 0 here, so its roots are distinct roots of
        q, and those that reduce into a block are roots of that block:
        deg(r) mult_r(g mod p) of them, r the block's residue factor
        (`HenselReport.roots_reducing_into`, which counts a root at
        [1:0] and a top coefficient divisible by p too).  Every root of
        an unramified block is one of the geometric points that its
        points stand for, as many as their rings' degrees.  So when, in
        every block that holds null points, those counts are equal,
        every null point is a root of g, where sigma_5 is exactly 0: a
        null at every precision.  The count covers a simple block and an
        unramified (linear)^2 block alike, and the certificate keeps the
        null.
        """
        report = self.hensel(5)
        g = binary_gcd(self.quartic.coeffs, self.forms().coeffs[1])
        nulls = {}
        for entry in section["points"]:
            if entry["v_sigma5"] is None:
                nulls[entry["block"]] = nulls.get(entry["block"], 0) + entry["conjugates"]
        return all(
            report.roots_reducing_into(g, report.blocks[block]) == count
            for block, count in nulls.items()
        )

    def _unramified(self, p: int) -> bool:
        """Whether the Hensel report at p says "unramified", answered
        False without a report when v_p(D) is odd.

        For A = Q_p[t]/(f), f the quartic made monic, v_p(disc f) =
        v_p(disc O_A) + 2 v_p([O_A : Z_p[t]/(f)]) (Neukirch, Algebraic
        Number Theory, I (2.12), on each field factor of A), and an
        unramified A has a unit discriminant, so an odd v_p(D) is never
        unramified; the report's blocks agree, their discriminant
        valuations adding up to v_p(D) (`hensel_factor_quartic`).  It
        outruns the report in one case: two (linear)^2 blocks both
        O(p^K), which makes the report raise PrecisionError, here read
        as False.  Only `find_lines` statistics see it: `_certificate`
        builds the local sections before the gates.
        """
        if split_p_power(self.quartic.disc, p)[0] % 2 == 1:
            return False
        return self.hensel(p).verdict == "unramified"

    def targeted_gates(self):
        """(name, verdict) of each targeted gate, cheapest first, lazily.

        The real gate needs the real root count.  The 3-adic gate reads
        the parity of v_3(D) and then, when it is even, the Hensel
        report at 3 alone (`_unramified`).  The 5-adic gate reads the
        parity of v_5(D), then the Hensel report at 5, and last the
        points and invariants of the 5-adic section.  The
        discriminant must not be 0, which `find_lines` and
        `_certificate` check first.
        """
        targeted = self.config.targets
        if "real" in targeted:
            yield "real_four_roots", self.real()["root_count"] == 4
        if 3 in targeted:
            yield "unramified_at_3", self._unramified(3)
        if 5 in targeted:
            yield "ordinary_at_5", (
                self._unramified(5) and _points_ordinary(self.local(5))
            )


def _certificate(sections: _Sections, chart_params, chart_kind):
    """Assemble the certificate, building the sections not built yet.

    Only the local sections can raise (a PrecisionError), so they are
    built first: a line undecided at this precision formats no row or
    coefficient and costs no Galois group.  The char3-x twist's 3-adic
    section gets its parity section here, from the chart parameters
    recorded when they are the labc chart's, else null."""
    config, line = sections.config, sections.line
    if sections.tangential:
        evidence = dict(galois=None, real=None, local_3=None, local_5=None)
        summary = {
            "passed": False,
            "reasons": ["discriminant vanishes: tangential intersection"],
        }
    else:
        local_3, local_5 = sections.local(3), sections.local(5)
        if config.twist == "char3-x":
            labc = chart_params if chart_kind == _LabcChart.kind else None
            local_3["parity"] = _parity_section(labc, config)
        evidence = {
            "galois": sections.galois(),
            "real": sections.real(),
            "local_3": local_3,
            "local_5": local_5,
        }
        checks = dict(sections.targeted_gates())
        reasons = [f"check failed: {name}" for name, ok in checks.items() if not ok]
        if not checks:
            reasons.append("no local targets were requested")
        summary = {
            "passed": bool(checks) and all(checks.values()),
            "checks": checks,
            "reasons": reasons,
        }
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
            "rows": [[ratio_str(x, line.den) for x in row] for row in line.ints],
            "primitive_rows": [list(r) for r in line.primitive_rows()],
        },
        "quartic": sections.quartic_section(),
        **evidence,
        "summary": summary,
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
    everything else is recorded as evidence.  The parity section of a
    char3-x line reads labc chart parameters (`derive_chart_params`),
    and is null without them.  Raises PrecisionError when a local
    factorization cannot be resolved at the configured precision,
    NotOnSurfaceError or DegenerateLineError when the line is not a
    generator of the model at all or meets the cusp line at a 3-adic
    point (`_refuse_a_cusp_root`).
    """
    return _certificate(_Sections(line, model, config), chart_params, chart_kind)


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
    `labc_line` once per candidate.

    `contained` records that q1 and q2 restrict to zero on the family,
    as `verify-paper` checks: an identity in (a, b, c), a = bc included,
    so that every labc line lies in the quadrics and the search
    restricts q4 to it without `in_quadrics` (`_Sections`).
    """

    kind = "labc"
    params_of = staticmethod(labc_params_of_line)

    def __init__(self, model: SurfaceModel):
        self.contained = all(
            labc_restriction(f).is_zero for f in (model.q1, model.q2)
        )

    def line_at(self, a, b, c) -> Line:
        return labc_line(a, b, c)


def line_chart(config: SearchConfig, model: SurfaceModel):
    """The configured chart, with `kind`, `line_at(a, b, c)` and
    `params_of(line)`; ConfigError when the config gives none.  A chart
    is built once per model, and kept in `model.charts`: the labc chart
    under "labc", a tangent-cone chart under its seed."""
    if config.twist == "char3-x":
        if "labc" not in model.charts:
            model.charts["labc"] = _LabcChart(model)
        return model.charts["labc"]
    seed = config.seed_point
    if seed is None:
        raise ConfigError("this twist needs a seed_point for the line chart")
    chart = model.charts.get(seed)
    if chart is None:
        try:
            chart = model.charts[seed] = TangentConeChart(model, list(seed))
        except HmsError as exc:
            raise ConfigError(f"seed_point does not give a line chart: {exc}")
    return chart


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
    run cheapest first (`_Sections.targeted_gates`: real root count;
    the parity of v_3(D), then the Hensel report at 3; the parity of
    v_5(D), then the Hensel report at 5, then the 5-adic points) and the
    first gate decided false rejects the line.
    Only a line passing every gate gets its remaining sections, reusing
    what the gates built, and the certificate `certify_line` would give.

    Returns a list of (Line, SolvableLineCertificate) pairs, at most
    max_results long, in deterministic enumeration order.  Raises
    SearchExhausted (with rejection statistics) when the height bound
    is reached first.  The statistics count a candidate whose targeted
    gate is decided false as a gate failure, even where an evidence-only
    section would have raised, or where the report the parity spared
    would have raised (two (linear)^2 blocks both O(p^K) with v_p(D)
    odd); a PrecisionError while deciding a gate, or while building a
    passing line's evidence, is a precision failure; a passing line on
    the cusp line at a 3-adic point is degenerate.
    """
    model = build_model(config)
    chart = line_chart(config, model)
    contained = isinstance(chart, _LabcChart) and chart.contained
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
            sections = _Sections(line, model, config, contained)
            if sections.tangential:
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
