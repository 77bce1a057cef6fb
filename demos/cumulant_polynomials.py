"""
Cumulant polynomials three ways
===============================

Builds the even cumulants of the theta-weighted integer distribution as
exact polynomials in m = k^2, then confirms one of them numerically by two
independent summation routes (a Lambert series in the nome and a direct
two-dimensional lattice fold).
"""

from thetakit import (
    cumulant_eisenstein,
    cumulant_lambert,
    cumulant_poly,
    make_context,
    p_poly,
    schett_reduced,
    symmetry_check_P,
)

print("== the reduced differential-operator polynomials ==")
for n in range(4):
    print(f"S_{n}(m) = {schett_reduced(n)}")

print()
print("== packaged into the even-order family P ==")
for n in range(1, 4):
    print(f"P_{2 * n}(m) = {p_poly(n)}")
# each P is self-dual up to sign under m -> 1 - m
print("self-duality holds for n = 1..8:",
      all(symmetry_check_P(n) for n in range(1, 9)))

print()
print("== cumulants in graded form ==")
for n in range(2, 6):
    kp = cumulant_poly(n)
    print(f"kappa_{2 * n} = (z/2)^{2 * n} * ({kp.coefficient})")

print()
print("== numeric cross-check at k = 0.6, order 4 ==")
ctx = make_context("0.6", 40)
poly_route = cumulant_poly(2).evaluate(ctx)
series_route = cumulant_lambert(2, ctx)
print(f"polynomial route = {poly_route}")
print(f"series route     = {series_route}")
print(f"difference       = {poly_route - series_route}")

print()
print("== lattice-fold route (truncated, with an estimated tail) ==")
lattice = cumulant_eisenstein(2, ctx, lattice_cutoff=1500)
print(f"lattice value    = {lattice.value}")
print(f"tail estimate    = {lattice.tail}")
print(f"vs series route  = {float(abs(lattice.value - series_route)):.3e}")
