"""Exact construction and certification of lines on twisted surface models.

The package works entirely in exact arithmetic: rationals, integers
(the twists over the Eisenstein field Q(omega) are composed on int
pairs a + b omega), and unramified p-adic rings mod p^K with sound
valuations (a value that is zero at the working precision has an
indeterminate valuation, never a guessed one); at precision 1 such a
ring is a finite field F_{p^d}.
On top of that tower it builds sparse multivariate polynomials, the
twisted models of a surface of sigma-type in P^5, line charts on those
models, local factorization of the restricted quartic over Z_p, and a
search that combines congruence targets at 3 and 5 with a real anchor
and certifies the lines it finds.

The package root exports nothing: import each name from the module that
defines it, as README's *Library layout* lists them.
"""
