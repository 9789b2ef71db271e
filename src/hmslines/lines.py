"""Lines on the quadric part of a twisted model and their invariants.

A line contained in {q1 = 0, q2 = 0} meets the degree-4 locus q4 = 0 in
the four roots of a binary quartic, computed by `quartic_of_line`.  Two
rational charts produce such lines:

* `TangentConeChart` works on any model.  At a smooth rational point
  the quadric cut by its tangent hyperplane is a cone over a conic whose
  points are the ruling directions, reached by one chord rule: a binary
  quadratic map, kept per ruling.  A ruling at the seed, a step along it
  and a ruling there parametrize a three-dimensional family by (a, b, c).
  The seed's conic point comes from a height scan alone
  (`rational_conic_point`), which fails with `HmsError`.

* `labc_line` is the explicit family available on the cube-root twist
  model, where the same three parameters appear polynomially in a pair
  of spanning points.

The character-3 helpers of a certificate (`parity_admissible`,
`cusp_proximity`) quantify the 3-adic behaviour of the labc family;
`cusp_proximity` returns the depth at the cusp line of each point, its
six coordinates in one ring mod 3^K, from which the certificate's cusp
section writes the distances.
"""

from fractions import Fraction
from math import gcd
from operator import mul

from .errors import DegenerateLineError, HmsError, NotOnSurfaceError, PrecisionError
from .mpoly import SparsePoly, restrict_to_span
from .quartics import BinaryQuartic
from .scalars import integer_numerators, primitive_integers, sup_norm_shell
from .surface import SurfaceModel


def primitive_vector(v):
    """Scale a rational vector to integers with content 1, first nonzero > 0."""
    ints = primitive_integers(v)
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def _minor_at(u, v):
    """The first column pair (i, j), i < j, where the 2x2 minor of the
    rows u and v is nonzero, or None when they are dependent.  For two
    rows this pair is the pivot columns of their RREF."""
    pairs = ((i, j) for i in range(len(u)) for j in range(i + 1, len(u)))
    return next(((i, j) for i, j in pairs if u[i] * v[j] != u[j] * v[i]), None)


def _echelon(u, v, cols):
    """(den, (P, Q)) for integer rows u, v with a nonzero 2x2 minor at
    the columns cols = (i, j): P / den and Q / den are the basis of
    their span that is (1, 0) and (0, 1) at those columns.  By Cramer's
    rule P[k] and Q[k] are the minors of (u, v) at (k, j) and (i, k),
    and den the one at (i, j); all are divided by their gcd, with the
    sign that makes den > 0, so den is the least common denominator."""
    i, j = cols
    P = [x * v[j] - u[j] * y for x, y in zip(u, v)]
    Q = [u[i] * y - x * v[i] for x, y in zip(u, v)]
    g = gcd(*P, *Q)
    if P[i] < 0:
        g = -g
    return P[i] // g, (tuple(p // g for p in P), tuple(q // g for q in Q))


class Line:
    """A projective line in P^5, stored by one primitive integer basis.

    `ints` is the reduced row echelon basis at the `pivots` times its
    least common denominator `den`, built by `_echelon` from the
    spanning vectors scaled to integers; `rows`, the reduced rows
    ints / den as Fractions, is a view of it.  Two Line objects compare
    equal exactly when they are the same subspace.  The basis doubles as a
    parametrization: the point at [t : u] is t * rows[0] + u * rows[1],
    and t * ints[0] + u * ints[1] is den times it, so a form of degree d
    restricted on `ints` (as `quartic_of_line` does) is den^d times the
    form restricted on `rows`.
    """

    def __init__(self, basis):
        basis = [list(row) for row in basis]
        if len(basis) != 2 or any(len(row) != 6 for row in basis):
            raise HmsError("a line needs two spanning vectors of length 6")
        u, v = (integer_numerators(row)[1] for row in basis)
        self.pivots = _minor_at(u, v)
        if self.pivots is None:
            raise DegenerateLineError("spanning vectors are proportional")
        self.den, self.ints = _echelon(u, v, self.pivots)

    @property
    def rows(self):
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.ints)

    def contains(self, pt) -> bool:
        """Whether pt is on the line: its coordinates at the pivot
        columns must give it back as a combination of the basis."""
        p0, p1 = self.pivots
        return all(
            self.den * c == pt[p0] * u + pt[p1] * v for c, u, v in zip(pt, *self.ints)
        )

    def primitive_rows(self):
        return tuple(primitive_vector(row) for row in self.ints)

    def __eq__(self, other):
        return isinstance(other, Line) and self.ints == other.ints

    def __repr__(self):
        return f"Line{self.rows!r}"


def _dot(u, v):
    return sum(map(mul, u, v))


def in_quadrics(line: Line, model: SurfaceModel) -> bool:
    """Whether the line lies in q1 = q2 = 0, by five integer dot
    products on its basis (P, Q) = `line.ints`: q1 . P and q1 . Q with
    the model's `q1_row`, and P G P = 2 q2(P), Q G Q = 2 q2(Q) and
    P G Q = B(P, Q) with its doubled Gram matrix G of q2."""
    P, Q = line.ints
    if _dot(model.q1_row, P) or _dot(model.q1_row, Q):
        return False
    GP, GQ = ([_dot(row, v) for row in model.gram] for v in (P, Q))
    return not (_dot(P, GP) or _dot(Q, GQ) or _dot(P, GQ))


def quartic_of_line(line: Line, model: SurfaceModel) -> BinaryQuartic:
    """The binary quartic cutting out line-meets-(q4 = 0), on the line's
    integer basis.

    The line must lie in both quadric equations of the model
    (`in_quadrics`); its four intersection points with the degree-8
    surface are the roots of the returned form in the parametrization
    [t : u] -> t * ints[0] + u * ints[1].  The model's compiled q4 is
    restricted on `line.ints`, so the coefficients are ints: den^4 times
    those of the quartic on `line.rows`, a positive factor that moves no
    root, no sign and no primitive coefficient.  A line inside the
    degree-8 locus restricts to the zero form, which `BinaryQuartic`
    refuses with DegenerateLineError.
    """
    if not in_quadrics(line, model):
        raise NotOnSurfaceError("line does not lie in the quadric part of the model")
    return BinaryQuartic(model.compiled[4].restrict(*line.ints))


# -- tangent cone ------------------------------------------------------


def _chord_indices(c):
    """i, the first index of the nonzero frame coordinates c, then j1 < j2."""
    i = next(k for k in range(3) if c[k] != 0)
    return (i, *(k for k in range(3) if k != i))


class _ConeFrame:
    """The tangent-cone data of the quadric pencil at a smooth point x.

    V, cut out by the hyperplane q1 and the polar hyperplane of x, has
    dimension 4 and contains x; U is a complement of x inside V, and q2
    on V descends to a conic on U whose points are the rulings at x.
    Everything is integral and projective, so x may be any integer
    multiple of the point.  Basis vector k of V is Cramer's solution of
    [q1_row; G x] on the pivot columns: the pivot minor det at the k-th
    free column and 0 at the other free columns, one common factor det
    for the whole basis.  gram (G) and q1_row are a model's integer Gram
    matrix of q2 and row of q1 (`SurfaceModel`); polar is G x."""

    def __init__(self, x, gram, q1_row):
        self._gram, self._q1_row = gram, q1_row
        self.polar = [_dot(row, x) for row in gram]
        # q1(x) and B(x, x) = 2 q2(x) vanish exactly on both quadrics
        if not self._in_tangent_space(x):
            raise NotOnSurfaceError("tangent cone needs a point on both quadrics")
        pivots = _minor_at(q1_row, self.polar)
        if pivots is None:
            raise HmsError(
                "polar hyperplane degenerates; the point is singular on the pencil"
            )
        (p0, p1), a, b = pivots, q1_row, self.polar
        det = a[p0] * b[p1] - a[p1] * b[p0]
        self._free = [j for j in range(len(x)) if j not in pivots]
        V = []
        for j in self._free:
            v = [0] * len(x)
            v[j] = det
            v[p0] = a[p1] * b[j] - a[j] * b[p1]
            v[p1] = a[j] * b[p0] - a[p0] * b[j]
            V.append(v)
        self._lam = [x[j] for j in self._free]
        self._jstar = next(j for j in range(4) if self._lam[j] != 0)
        self.U = [V[j] for j in range(4) if j != self._jstar]

    def _in_tangent_space(self, w) -> bool:
        return _dot(self._q1_row, w) == 0 and _dot(self.polar, w) == 0

    def project(self, w):
        """Frame coordinates of a cone vector w, i.e. w mod x inside V,
        up to a factor that is the same for every w of this frame."""
        if not self._in_tangent_space(w):
            raise HmsError("vector is not in the tangent space")
        mu = [w[j] for j in self._free]
        lam, js = self._lam, self._jstar
        coords = [lam[js] * mu[j] - mu[js] * lam[j] for j in range(4) if j != js]
        if not any(coords):
            raise DegenerateLineError("direction is proportional to the vertex")
        return coords

    def chord_map(self, w):
        """The chord rule through the ruling w as a binary quadratic map
        (A, B, C), whose `chord_at` [r : s] is r^2 A + r s B + s^2 C: the
        conic's second point y = (E G E) W - 2 (G W . E) E on the chord
        from W = w made primitive along E = s U2 - r U1 modulo x, with
        U1, U2 = U_j1, U_j2 (`_chord_indices` of w's frame coordinates).
        With gij = Ui G Uj and bi = G W . Ui, E G E = r^2 g11 - 2 r s g12
        + s^2 g22 and G W . E = s b2 - r b1; collecting r^2, r s and s^2,
            A = g11 W - 2 b1 U1,  B = 2 b2 U1 + 2 b1 U2 - 2 g12 W,
            C = g22 W - 2 b2 U2,  all integers.
        For E made primitive, of content g, y is this sum over g^2 > 0,
        which no user sees: directions are made primitive, lines
        echelon, and chord parameters are projective."""
        _, j1, j2 = _chord_indices(self.project(w))
        W, U1, U2 = primitive_integers(w), self.U[j1], self.U[j2]
        GW, GU1, GU2 = ([_dot(row, v) for row in self._gram] for v in (W, U1, U2))
        if _dot(GW, W) != 0:
            raise HmsError("chord base is not on the cone")
        g11, g12, g22 = _dot(U1, GU1), _dot(U1, GU2), _dot(U2, GU2)
        b1, b2 = _dot(GW, U1), _dot(GW, U2)
        return (
            [g11 * c - 2 * b1 * u for c, u in zip(W, U1)],
            [2 * (b2 * u + b1 * v) - 2 * g12 * c for c, u, v in zip(W, U1, U2)],
            [g22 * c - 2 * b2 * v for c, v in zip(W, U2)],
        )

    @staticmethod
    def chord_parameter(c0, z):
        """Inverse of `chord_at` up to scale, on the frame coordinates
        c0 of the base ruling and z of the chord point, each up to scale."""
        i, j1, j2 = _chord_indices(c0)
        r, s = z[i] * c0[j1] - c0[i] * z[j1], c0[i] * z[j2] - z[i] * c0[j2]
        if r == 0 and s == 0:
            raise HmsError("the base point has no chord parameter")
        return r, s

    def tangent_chord(self, w):
        """The chord parameter whose point is w itself: E polar-orthogonal to w."""
        _, j1, j2 = _chord_indices(self.project(w))
        Gw = [_dot(row, w) for row in self._gram]
        r, s = _dot(Gw, self.U[j2]), _dot(Gw, self.U[j1])
        if r == 0 and s == 0:
            raise HmsError("base point is singular on the conic")
        return r, s


def chord_at(chord, r, s):
    """r^2 A + r s B + s^2 C, the point at [r : s] of a chord map (A, B, C)."""
    y = [r * r * a + r * s * b + s * s * c for a, b, c in zip(*chord)]
    if not any(y):
        raise DegenerateLineError("chord parametrization collapsed")
    return y


CONIC_HEIGHT = 24


def rational_conic_point(conic):
    """Deterministic small-height search for a rational point on a conic,
    given by the 3x3 doubled Gram matrix of its ternary quadratic form.

    Scans primitive integer triples by increasing sup-norm up to
    `CONIC_HEIGHT`; a HmsError reports a scan that finds none.
    """
    for h in range(1, CONIC_HEIGHT + 1):
        for point in sup_norm_shell(h, [range(-h, h + 1)] * 3):
            if gcd(*point) == 1 and _dot(point, [_dot(r, point) for r in conic]) == 0:
                return list(point)
    raise HmsError(
        f"no rational point of height <= {CONIC_HEIGHT} on the tangent conic"
    )


class TangentConeChart:
    """Three-parameter rational chart (a, b, c) -> line in {q1 = q2 = 0}.

    w_a is the primitive ruling direction with chord parameter [a : 1]
    at the seed; x' = seed + b * w_a walks along that ruling, and the
    line is the ruling of the cone at x' with chord parameter [c : 1]
    through w_a.  `params_of` inverts the chart at line level: away
    from b = 0 it recovers the exact parameters, while lines through
    the seed (where (a, c) -> ruling collapses a dimension) get one
    canonical preimage.  Both directions run on integer vectors and the
    model's integer Gram matrix G of q2 (`SurfaceModel.gram`); only the
    returned (a, b, c) are rationals.  The seed's conic is the integer
    matrix U G U^T of its frame, formed once for c0.  The chart keeps G
    and q1_row, not the model, which keeps the chart: no cycle."""

    kind = "tangent-cone"

    def __init__(self, model: SurfaceModel, seed):
        self.gram, self.q1_row = model.gram, model.q1_row
        self.seed = list(primitive_vector(seed))
        self.frame0 = _ConeFrame(self.seed, self.gram, self.q1_row)
        U = self.frame0.U
        GU = [[_dot(row, u) for row in self.gram] for u in U]
        self.conic = [[_dot(u, gv) for gv in GU] for u in U]
        self.c0 = rational_conic_point(self.conic)
        self.w0 = [_dot(self.c0, col) for col in zip(*U)]
        self.chord0 = self.frame0.chord_map(self.w0)
        self._rulings = {}

    def direction(self, a):
        return primitive_vector(chord_at(self.chord0, a.numerator, a.denominator))

    def _walk(self, w, b):
        """An integer multiple of the point seed + b * w, and its frame."""
        if b == 0:
            return self.seed, self.frame0
        x1 = [b.denominator * xi + b.numerator * wi for xi, wi in zip(self.seed, w)]
        return x1, _ConeFrame(x1, self.gram, self.q1_row)

    def line_at(self, a, b, c) -> Line:
        """The line at (a, b, c); x' and its chord map through w_a are
        kept per ruling (a, b), so a ruling met again costs one `chord_at`."""
        if (a, b) not in self._rulings:
            w = self.direction(a)
            x1, frame = self._walk(w, b)
            self._rulings[a, b] = x1, frame.chord_map(w)
        x1, chord = self._rulings[a, b]
        return Line([x1, chord_at(chord, c.numerator, c.denominator)])

    def params_of(self, line: Line):
        """Chart coordinates of a line in the quadric pencil.

        Raises when the line sits outside the chart (a parameter lands
        at infinity, or the cone intersection degenerates)."""
        P, Q = line.ints
        if line.contains(self.seed):
            # the line is itself a ruling at the seed; any other ruling
            # may serve as the a-direction, so pick one deterministically
            other = P if _minor_at(P, self.seed) else Q
            a = self._ruling_parameter(self._companion_base(other))
            w, b = self.direction(a), Fraction(0)
        else:
            # the line meets the polar hyperplane of the seed at y0
            bp, bq = (_dot(self.frame0.polar, v) for v in (P, Q))
            y0 = [bq * p - bp * q for p, q in zip(P, Q)] if bp or bq else P
            a = self._ruling_parameter(self.frame0.project(y0))
            w = self.direction(a)
            b = self._step(w, y0)
        x1, frame = self._walk(w, b)
        zdir = P if _minor_at(P, x1) else Q
        r2, s2 = frame.chord_parameter(frame.project(w), frame.project(zdir))
        if s2 == 0:
            raise HmsError("line parameter at infinity; not in this chart")
        return a, b, Fraction(r2, s2)

    def _step(self, w, y):
        """The b with y proportional to seed + b * w, by Cramer's rule on
        a nonzero 2x2 minor of (seed, w); w, a ruling direction, is
        never proportional to the seed."""
        x = self.seed
        i, j = _minor_at(x, w)
        det = x[i] * w[j] - x[j] * w[i]
        m0, m1 = y[i] * w[j] - y[j] * w[i], x[i] * y[j] - x[j] * y[i]
        if m0 == 0 or any(det * yc != m0 * xc + m1 * wc for yc, xc, wc in zip(y, x, w)):
            raise HmsError("line meets the cone only along the base conic")
        return Fraction(m1, m0)

    def _ruling_parameter(self, u):
        """The a with ruling direction u (frame coordinates at the seed);
        the base ruling itself is recovered through the tangent chord."""
        try:
            r, s = self.frame0.chord_parameter(self.c0, u)
        except HmsError:
            r, s = self.frame0.tangent_chord(self.w0)
        if s == 0:
            raise HmsError("ruling parameter at infinity; not in this chart")
        return Fraction(r, s)

    def _companion_base(self, other):
        """Frame coordinates of a seed ruling other than `other`, joined
        to it by a chord: inverting a line through the seed, it plays the
        a-ruling, and `other` becomes its chord parameter c."""
        z, chord = self.frame0.project(other), self.frame0.chord_map(other)
        for r0, s0 in ((0, 1), (1, 1), (-1, 1), (2, 1), (1, 0), (1, 2), (3, 1)):
            try:
                cand = self.frame0.project(chord_at(chord, r0, s0))
            except DegenerateLineError:
                continue
            if _minor_at(cand, z):
                return cand
        raise HmsError("ruling admits no companion chord in this chart")


# -- the explicit three-parameter family on the cube-root twist --------


def labc_points(a, b, c):
    """The spanning points of L_{a,b,c},

    P = (-b^2, 1, 0, -(a + b c), -b, b),  Q = (a - b c, 0, 1, -c^2, -c, c),

    over any ring: rationals, or polynomials in a, b, c for the
    symbolic checks (`labc_restriction`)."""
    P = (-b * b, 1, 0, -(a + b * c), -b, b)
    Q = (a - b * c, 0, 1, -c * c, -c, c)
    return P, Q


def labc_line(a, b, c) -> Line:
    """The line L_{a,b,c} of `labc_points` for rational a, b, c.

    It lies in both quadrics of the cube-root twist model for every
    rational a, b, c; `labc_restriction` of q1 and q2 is what checks
    that symbolically."""
    return Line(labc_points(a, b, c))


def labc_restriction(f: SparsePoly) -> SparsePoly:
    """f on t P + u Q for the points (P, Q) of `labc_points` over
    polynomials in (a, b, c): a binary form in (t, u) whose coefficients
    are polynomials in (a, b, c), or constants."""
    a, b, c = (SparsePoly.variable(i, 3) for i in range(3))
    return restrict_to_span(f, labc_points(a, b, c))


def labc_params_of_line(line: Line):
    """Recover (a, b, c) from a member of the labc family.

    P / den and Q / den, the (1, 2) echelon of `line.ints`, are the
    points of `labc_points` at b = P5 / den, c = Q5 / den and a - bc =
    Q0 / den exactly when P4 = -P5, Q4 = -Q5, den P0 = -P5^2, den Q3 =
    -Q5^2 and den P3 = -(den Q0 + 2 P5 Q5), den^2 times -(a + bc).
    Raises HmsError when the line does not project isomorphically to
    the (x1, x2) coordinate plane or does not match the family shape."""
    u, v = line.ints
    if u[1] * v[2] == u[2] * v[1]:
        raise HmsError("line is degenerate over the (x1, x2) plane")
    den, (P, Q) = _echelon(u, v, (1, 2))
    if (P[4], Q[4], den * P[0], den * Q[3], den * P[3]) != (
        -P[5], -Q[5], -P[5] * P[5], -Q[5] * Q[5], -(den * Q[0] + 2 * P[5] * Q[5])
    ):
        raise HmsError("line is not in the labc family")
    a = Fraction(P[5] * Q[5] + den * Q[0], den * den)
    return a, Fraction(P[5], den), Fraction(Q[5], den)


def parity_admissible(ord_b: int, ord_c: int, ord_lambda1: int, ord_lambda2: int) -> bool:
    """Parity rule for unramified 3-adic intersection points on the labc
    family: the valuation of b must match that of lambda1 mod 2, and the
    valuation of c that of lambda2."""
    return (ord_b - ord_lambda1) % 2 == 0 and (ord_c - ord_lambda2) % 2 == 0


# the coordinates that vanish on the cusp line; their valuations give the depth
NONCUSP = (0, 3, 4, 5)


def cusp_proximity(points) -> tuple:
    """The 3-adic closeness of each point to the coordinate cusp line,
    as a tuple of depths.

    A point is its six coordinates in one `UnramifiedRing` mod 3^K.  Its
    depth is the least valuation of its non-cusp coordinates `NONCUSP`
    less the least valuation of all six, so its 3-adic distance from
    the line is 3^(-depth) whatever its scaling.  A coordinate zero mod
    3^K has no determined valuation, and every determined one is below
    K, so the least determined valuation of a set of coordinates is
    their least valuation.  When none of the six, or none of `NONCUSP`,
    is determined, the depth is refused with a PrecisionError, never
    certified from incomplete evidence.  The error carries no `needed`:
    the caller knows how many digits its points lost, and sets it.
    """
    depths = []
    for pt in points:
        vals = [c.valuation() for c in pt]
        known = [v for v in vals if v is not None]
        if not known:
            raise PrecisionError(
                "no coordinate valuation is certified at this precision"
            )
        gauge = [vals[i] for i in NONCUSP if vals[i] is not None]
        if not gauge:
            raise PrecisionError("cusp depth is unresolved at this precision")
        depths.append(min(gauge) - min(known))
    return tuple(depths)
