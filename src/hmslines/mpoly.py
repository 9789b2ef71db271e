"""Sparse multivariate polynomials over any exact scalar ring.

Terms are stored as a dict from exponent tuples to nonzero coefficients.
Coefficients may be int, Fraction, UElt (finite fields included, as
precision-1 rings) or even SparsePoly again (polynomial coefficients
are used by the symbolic line-family checks); all that is required of
the scalar is +, -, * and the test `x == 0`.

Composition has one implementation, `SparsePoly.substitute`;
`restrict_to_span` is that composition on linear images.  It serves
rows over F_q or over polynomials (`verify-paper`'s symbolic checks and
the labc chart's `contained` flag) and the tests, never a line of the
search or a certificate, whose integer lines go through the model's
compiled forms in `surface`, one evaluation each.

The canonical term order, which fixes the sign of `canonical`'s
leading coefficient, is graded lexicographic, highest first.
"""

from fractions import Fraction
from math import gcd

from .errors import HmsError
from .scalars import integer_numerators


def _glex_key(exp):
    return (sum(exp), exp)


class SparsePoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exp, c in terms.items():
                if c == 0:
                    continue
                exp = tuple(exp)
                if len(exp) != nvars:
                    raise HmsError("exponent arity mismatch")
                clean[exp] = c
        self.terms = clean

    # -- constructors ------------------------------------------------

    @staticmethod
    def constant(c, nvars: int) -> "SparsePoly":
        return SparsePoly(nvars, {tuple([0] * nvars): c})

    @staticmethod
    def variable(i: int, nvars: int) -> "SparsePoly":
        exp = [0] * nvars
        exp[i] = 1
        return SparsePoly(nvars, {tuple(exp): 1})

    # -- ring structure ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, SparsePoly):
            if other.nvars != self.nvars:
                raise HmsError("nvars mismatch")
            return other
        return SparsePoly.constant(other, self.nvars)

    def __add__(self, other):
        o = self._coerce(other)
        terms = dict(self.terms)
        for exp, c in o.terms.items():
            if exp in terms:
                s = terms[exp] + c
                if s == 0:
                    del terms[exp]
                else:
                    terms[exp] = s
            else:
                terms[exp] = c
        out = SparsePoly.__new__(SparsePoly)
        out.nvars = self.nvars
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            return SparsePoly(
                self.nvars, {e: c * other for e, c in self.terms.items()}
            )
        o = self._coerce(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                if exp in terms:
                    prod = terms[exp] + prod
                if prod == 0:
                    terms.pop(exp, None)
                else:
                    terms[exp] = prod
        return SparsePoly(self.nvars, terms)

    def __rmul__(self, other):
        return SparsePoly(self.nvars, {e: other * c for e, c in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise HmsError("negative polynomial power")
        if k == 0:
            return SparsePoly.constant(1, self.nvars)
        # left to right over the bits of k, from the base itself
        result = self
        for bit in bin(k)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, SparsePoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if other == 0:
            return self.is_zero
        return self == self._coerce(other)

    # -- queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        """Terms in graded-lex order, highest first."""
        return sorted(self.terms.items(), key=lambda t: _glex_key(t[0]), reverse=True)

    # -- operations ---------------------------------------------------

    def substitute(self, images):
        """Map variable i to the polynomial images[i] (all in common arity)."""
        if len(images) != self.nvars:
            raise HmsError("substitution arity mismatch")
        nv = images[0].nvars
        pow_cache = [{} for _ in range(self.nvars)]
        result = SparsePoly(nv)
        for exp, c in self.terms.items():
            term = SparsePoly.constant(c, nv)
            for i, e in enumerate(exp):
                if e == 0:
                    continue
                cache = pow_cache[i]
                if e not in cache:
                    cache[e] = images[i] ** e
                term = term * cache[e]
            result = result + term
        return result

    # -- normalization over Q -----------------------------------------

    def canonical(self):
        """(scale, poly) with self = scale * poly, poly with int
        coefficients of content 1 and its graded-lex leading coefficient
        positive.

        Coefficients must be Fraction/int, and the polynomial nonzero.
        """
        den, ints = integer_numerators(self.terms.values())
        content = gcd(*ints)
        if self.sorted_terms()[0][1] < 0:
            content = -content
        return Fraction(content, den), SparsePoly(
            self.nvars, {e: n // content for e, n in zip(self.terms, ints)}
        )


def restrict_to_span(f: SparsePoly, rows) -> SparsePoly:
    """f composed with (y_0, .., y_{k-1}) -> sum_j y_j rows[j]; a k-ary form.

    `SparsePoly.substitute` on the linear images sum_j rows[j][i] y_j
    of the variables.  The rows may be over any scalar ring, polynomial
    coefficients included.
    """
    if any(len(row) != f.nvars for row in rows):
        raise HmsError("basis arity mismatch")
    k = len(rows)
    units = [tuple(int(j == l) for l in range(k)) for j in range(k)]
    return f.substitute([SparsePoly(k, dict(zip(units, col))) for col in zip(*rows)])
