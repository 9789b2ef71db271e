"""Mutation catalogue of the verdict rules: does tier-1 catch each fault?

Each entry of `MUTANTS` is a named (file, old, new) edit that breaks one
verdict rule of the package.  The probe copies the repository to a
temporary directory, checks that the unmutated copy passes tier-1, then
for each mutant applies its edit to the copy, runs tier-1 with `-x`,
less the test that the edits still apply, and prints KILLED with the
first failing test, or SURVIVED.  An edit whose `old` text does not
occur exactly once in its file is an error: the probe stops before
running anything, so a stale entry is never skipped, and tier-1 fails
on it too (`test_hygiene.py`).  A surviving mutant is a gap in the
tests, to be closed by a test, not by editing the catalogue (mutation
analysis: DeMillo, Lipton and Sayward, "Hints on test data selection",
IEEE Computer 11(4), 1978).

Run from the repository root, outside tier-1 (pytest does not collect
this file):

    python tests/mutation_probe.py

It uses only the standard library and the interpreter running it, which
must have pytest and hypothesis.  Exit status: 0 when every mutant is
killed, 1 when one survives, 2 on a stale edit or a failing baseline.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "pyproject.toml", "README.md", "BENCHMARK.json")
TIER1 = ("-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors")
# a mutant that makes tier-1 run this long is counted as killed
TIMEOUT_S = 600
# tier-1's check that every edit applies once fails on any mutated copy,
# so the mutant runs leave it out; the baseline run keeps it
MUTANT_RUN = ("--deselect", "tests/test_hygiene.py::test_every_mutant_applies_once")

# (name, file, old, new): one or more per verdict rule
MUTANTS = [
    ("ordinarity bound <= 0 made < 0", "src/hmslines/surface.py",
     "else v_u1 <= 0 and v_u2 <= 0",
     "else v_u1 < 0 and v_u2 < 0"),
    ("sign of v_sigma3 in v(u2)", "src/hmslines/surface.py",
     "3 * (v_D - v_sigma5) - v_sigma3",
     "3 * (v_D - v_sigma5) + v_sigma3"),
    ("parity rule without its c clause", "src/hmslines/lines.py",
     "return (ord_b - ord_lambda1) % 2 == 0 and (ord_c - ord_lambda2) % 2 == 0",
     "return (ord_b - ord_lambda1) % 2 == 0"),
    ("Frobenius types (2,2) and (4) swapped", "src/hmslines/galois.py",
     "return (2, 2) if pow(q.disc, (p - 1) // 2, p) == 1 else (4,)",
     "return (4,) if pow(q.disc, (p - 1) // 2, p) == 1 else (2, 2)"),
    ("Hensel parity flipped", "src/hmslines/hensel.py",
     'verdict = "unramified" if v % 2 == 0 else "ramified"',
     'verdict = "unramified" if v % 2 == 1 else "ramified"'),
    ("cusp depth without subtracting the least valuation", "src/hmslines/lines.py",
     "depths.append(min(gauge) - min(known))",
     "depths.append(min(gauge))"),
    ("coordinate 2 counted as non-cusp", "src/hmslines/lines.py",
     "NONCUSP = (0, 3, 4, 5)",
     "NONCUSP = (0, 2, 3, 4, 5)"),
    ("no refusal of an undetermined cusp depth", "src/hmslines/lines.py",
     "gauge = [vals[i] for i in NONCUSP if vals[i] is not None]",
     "gauge = [pt[0].ring.K - 1 if vals[i] is None else vals[i] for i in NONCUSP]"),
    ("curve_V_avoided always true", "src/hmslines/search.py",
     '"curve_V_avoided": True if v_D is not None else None,',
     '"curve_V_avoided": True,'),
    ("cusp hint one short", "src/hmslines/search.py",
     "exc.needed = prec + 1",
     "exc.needed = prec"),
    ("cusp root refused whatever block it reduces into", "src/hmslines/search.py",
     "if any(report.roots_reducing_into(linear, report.blocks[pt.block]) for pt in points):",
     "if True:"),
    ("cusp root refused on a line that misses the cusp line", "src/hmslines/search.py",
     "if any(P[i] * Q[j] != P[j] * Q[i] for i in range(4) for j in range(i)):",
     "if False:"),
    ("CRT representative by floor, not nearest", "src/hmslines/search.py",
     "round(Fraction(near - base, modulus))",
     "(near - base) // modulus"),
    ("real root count from P or D", "src/hmslines/quartics.py",
     "return 4 if P < 0 and D < 0 else 0",
     "return 4 if P < 0 or D < 0 else 0"),
    ("resolvent labels C4 and D4 swapped", "src/hmslines/galois.py",
     '        return "C4"\n    return "D4"',
     '        return "D4"\n    return "C4"'),
    ("squarefree blocks in reverse residue order", "src/hmslines/hensel.py",
     "return sorted(factors.items(), key=lambda kv: (len(kv[0]), kv[0]))",
     "return sorted(factors.items(), key=lambda kv: (len(kv[0]), kv[0]), reverse=True)"),
    ("[1:0] block given multiplicity 1", "src/hmslines/hensel.py",
     "(1, 4 - self.top)",
     "(1, 1)"),
    ("residue memo key drops a coefficient", "src/hmslines/hensel.py",
     "key = (p, *[c % p for c in ics])",
     "key = (p, *[c % p for c in ics[1:]])"),
    # (a ramified block and an inconclusive one cannot meet in a quartic:
    # that needs degree 2 + 3 at least, so only this order is observable)
    ("unramified block outranks inconclusive", "src/hmslines/hensel.py",
     '("ramified", "inconclusive", "unramified")',
     '("ramified", "unramified", "inconclusive")'),
    ("double-root hint one digit short", "src/hmslines/hensel.py",
     "needed=v + 1,",
     "needed=v,"),
    ("two (linear)^2 blocks read no lifted discriminant", "src/hmslines/hensel.py",
     "if len(doubles) == 2 and disc:",
     "if len(doubles) > 2 and disc:"),
    ("two (linear)^2 blocks lifted one digit short", "src/hmslines/hensel.py",
     "k = min(prec, split_p_power(disc, p)[0])",
     "k = min(prec, split_p_power(disc, p)[0] - 1)"),
    ("unread (linear)^2 valuation v, not v_p(D) - v", "src/hmslines/hensel.py",
     "split_p_power(disc, p)[0] - sum(valuations.values())",
     "sum(valuations.values())"),
    ("block roots always read as [z : 1]", "src/hmslines/hensel.py",
     "flipped = coeffs[-1] % p == 0",
     "flipped = False"),
    ("forms at a flipped point not reversed", "src/hmslines/search.py",
     "c[::-1] if pt.flipped else c,",
     "c,"),
    ("undetermined point not rebuilt", "src/hmslines/search.py",
     "if not _undetermined(result, sigma5_exact):",
     "if True:"),
    ("parity gate reads even as odd", "src/hmslines/search.py",
     "if split_p_power(self.quartic.disc, p)[0] % 2 == 1:",
     "if split_p_power(self.quartic.disc, p)[0] % 2 == 0:"),
    ("every sigma_5 null called exact", "src/hmslines/search.py",
     "return nulls and not sigma5_exact(section)",
     "return False"),
    ("null count ignores the block's residue multiplicity", "src/hmslines/hensel.py",
     "return (len(r) - 1) * mult",
     "return len(r) - 1"),
    ("section precision written at FIRST_PRECISION", "src/hmslines/search.py",
     '"precision": K,',
     '"precision": k,'),
    ("Kronecker base one bit short", "src/hmslines/surface.py",
     "reach**self.degree).bit_length() + 1",
     "reach**self.degree).bit_length()"),
    ("Kronecker digit without its sign fold", "src/hmslines/surface.py",
     "if digit >= half:",
     "if False:"),
    ("certificate coefficients not divided by the scale", "src/hmslines/search.py",
     "ratio_str(q.content * c, scale)",
     "ratio_str(q.content * c, 1)"),
    ("certificate coefficients without the content", "src/hmslines/search.py",
     "ratio_str(q.content * c, scale)",
     "ratio_str(c, scale)"),
    ("certificate discriminant divided by scale^4 instead of scale^6",
     "src/hmslines/search.py",
     "scale**6",
     "scale**4"),
    ("discriminant without the content's sixth power", "src/hmslines/quartics.py",
     "return self.disc * self.content**6",
     "return self.disc"),
    ("chord map's rs vector with g12 for 2 g12", "src/hmslines/lines.py",
     "- 2 * g12 * c",
     "- g12 * c"),
    ("chord map's rs vector with b1 and b2 swapped", "src/hmslines/lines.py",
     "2 * (b2 * u + b1 * v)",
     "2 * (b1 * u + b2 * v)"),
    ("Newton step reuses the inverse mod p", "src/hmslines/hensel.py",
     "inv = inv * (2 - peval(df, r, m) * inv) % m",
     "inv = inv"),
    ("(linear)^2 part peeled as a simple root", "src/hmslines/hensel.py",
     "if mult == 1 and deg(g) == 1:",
     "if deg(g) == 1:"),
    ("[1:0] block lifted as the last part, not the first", "src/hmslines/hensel.py",
     "at_infinity + parts, self.p, K)\n        if at_infinity:\n            g = lifted.pop(0)",
     "parts + at_infinity, self.p, K)\n        if at_infinity:\n            g = lifted.pop()"),
    ("pair lift's cofactor keeps the first part's residue", "src/hmslines/hensel.py",
     "pdivmod(pmod(f, p), g0, p)[0]",
     "pmod(f, p)"),
    ("unread section counts an inconclusive block", "src/hmslines/search.py",
     "return sum(blk.degree for blk in unramified)",
     "return sum(blk.degree for blk in report.blocks)"),
    ("labc family check without den P3 = -(den Q0 + 2 P5 Q5)", "src/hmslines/lines.py",
     ", den * P[3]) != (\n        -P[5], -Q[5], -P[5] * P[5], -Q[5] * Q[5], -(den * Q[0] + 2 * P[5] * Q[5])",
     ") != (\n        -P[5], -Q[5], -P[5] * P[5], -Q[5] * Q[5]"),
    ("rational written without the gcd reduction", "src/hmslines/serialize.py",
     "g = gcd(num, den)",
     "g = 1"),
    ("Galois sieve gives up after a root-free type", "src/hmslines/galois.py",
     "if sieved == SIEVE_PATIENCE and not root_free:",
     "if sieved == SIEVE_PATIENCE:"),
    # (split_p_power's refusal of 0 has no entry: without it the
    # valuation loop never ends, so its mutant only runs out the timeout)
    ("Hensel factorization at an even p", "src/hmslines/hensel.py",
     'if p % 2 == 0:\n        raise HmsError("odd p required")',
     'if False:\n        raise HmsError("odd p required")'),
    ("residue factorization above degree 4", "src/hmslines/hensel.py",
     "if deg(f) > 4:",
     "if False:"),
    ("residue factorization of a non-monic input", "src/hmslines/hensel.py",
     "if not f or f[-1] != 1:",
     "if not f:"),
    ("Frobenius cycle type at a prime of the discriminant", "src/hmslines/galois.py",
     "if q.disc % p == 0:",
     "if False:"),
]


def stale_edits(root):
    """The mutants whose `old` text does not occur exactly once."""
    stale = []
    for name, path, old, _ in MUTANTS:
        count = (root / path).read_text().count(old)
        if count != 1:
            stale.append(f"{name}: {path} has {count} occurrences of its text")
    return stale


def run_tier1(copy, *extra):
    """(passed, first failing test or None, seconds) of tier-1 on copy,
    with extra pytest arguments."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, *TIER1, *extra], cwd=copy, env=env, capture_output=True,
            text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False, f"timeout after {TIMEOUT_S} s", time.perf_counter() - start
    seconds = time.perf_counter() - start
    failed = [
        line.split(" - ")[0].split(" ", 1)[1]
        for line in done.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    if done.returncode == 0:
        return True, None, seconds
    return False, failed[0] if failed else f"exit {done.returncode}", seconds


def main():
    stale = stale_edits(ROOT)
    if stale:
        print("stale mutation edits:\n  " + "\n  ".join(stale))
        return 2
    start = time.perf_counter()
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "out")
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=ignore)
            else:
                shutil.copy2(source, copy / name)
        passed, first, seconds = run_tier1(copy)
        print(f"baseline  {'passed' if passed else 'FAILED: ' + first}  {seconds:.1f} s")
        if not passed:
            return 2
        for name, path, old, new in MUTANTS:
            target = copy / path
            original = target.read_text()
            target.write_text(original.replace(old, new))
            try:
                passed, first, seconds = run_tier1(copy, *MUTANT_RUN)
            finally:
                target.write_text(original)
            if passed:
                survivors += 1
                print(f"SURVIVED  {name}  ({path})  {seconds:.1f} s")
            else:
                print(f"KILLED    {name}  by {first}  {seconds:.1f} s")
    total = time.perf_counter() - start
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} killed in {total:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
