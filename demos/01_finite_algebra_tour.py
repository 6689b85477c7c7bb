#!/usr/bin/env python3
"""Tour of the exact algebra layer: groups, characters, orbits, averages.

Everything printed here is computed in integer/rational arithmetic; the
cyclotomic averages are reduced modulo cyclotomic polynomials, so equality
checks are exact, not floating-point.
"""

from fractions import Fraction

from cfspectra import (
    Character,
    CyclotomicSum,
    FiniteAbelianGroup,
    GroupAutomorphism,
    ModuleAction,
    cyclo_equal,
    dual_characters,
    orbit,
    orbit_average,
    orbit_trace_counts,
)

# A small module: Z/3, acted on by Z/2 through negation.
z3 = FiniteAbelianGroup((3,))
z2 = FiniteAbelianGroup((2,))
negation = GroupAutomorphism(z3, ((2,),))
action = ModuleAction(z2, z3, (negation,))

print("module:", z3, " acting group:", z2)
print("orbit of 1 under negation:", sorted(orbit(action, (1,))))

# Characters of Z/3 and their exact values: a value exp(2 pi i e/N) is the
# integer exponent e in Z/N, N the group exponent.
for chi in dual_characters(z3):
    print(f"character {chi.exponents}: value at 1 is exp(2 pi i {chi.evaluate((1,))}/{z3.exponent})")

# The orbit average of a nontrivial character is an exact cyclotomic number:
# (zeta_3 + zeta_3^2) / 2 reduces to -1/2.
chi = Character(z3, (1,))
avg = orbit_average(action, chi, (1,))
print("orbit average of chi at 1:", avg, "=", avg.value())
print("equals -1/2 exactly:", cyclo_equal(avg, CyclotomicSum.from_fraction(Fraction(-1, 2))))

# Trace counts: how many points of each orbit lie back in a subgroup.
print("trace counts over the full module:", orbit_trace_counts(action, z3.elements()))

# The whole point of the exact layer: distinct cyclotomic sums that agree to
# many decimal places are still told apart.
a = CyclotomicSum.from_exponents(z3.exponent, [chi.evaluate((1,)), chi.evaluate((2,))], 2)
b = CyclotomicSum.from_fraction(Fraction(-1, 2))
print("reduced coefficients agree:", a == b)
