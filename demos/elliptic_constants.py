"""
Elliptic constants from the AGM up
==================================

Walks the numeric kernel from a bare arithmetic-geometric mean to the full
modulus context: complete integrals, nome, theta values, and the closed
forms at the self-dual point k = 1/sqrt(2).
"""

from thetakit import (
    agm,
    ellipK,
    gamma_quarter,
    hpf,
    lemniscatic_context,
    make_context,
    pi,
    theta0,
    verify_legendre,
)

DIGITS = 40

print("== arithmetic-geometric mean ==")
# Gauss's observation: agm(1, sqrt 2) ties the lemniscate to the circle
root2 = hpf(2, DIGITS).sqrt()
g = agm(1, root2, DIGITS)
print(f"agm(1, sqrt 2) = {g}")
print(f"pi / agm      = {pi(DIGITS) / g}")

print()
print("== complete integrals at k = 0.6 ==")
ctx = make_context("0.6", DIGITS)
print(f"K  = {ctx.K}")
print(f"E  = {ctx.E}")
print(f"K' = {ctx.Kprime}")
# Legendre: E K' + E' K - K K' = pi/2, checked as a residual
report = verify_legendre(ctx)
print(f"Legendre residual = {report.residual}  (passed: {report.passed})")

print()
print("== nome and theta values ==")
print(f"c = K'/K        = {ctx.c}")
print(f"q = exp(-pi c)  = {ctx.q}")
t3 = theta0(3, ctx.q)
print(f"theta3(q)       = {t3}")
print(f"theta3^2 - z    = {t3 * t3 - ctx.z}")

print()
print("== the self-dual point k = 1/sqrt 2 ==")
lem = lemniscatic_context(DIGITS)
gq = gamma_quarter(DIGITS)
closed_K = gq * gq / (pi(DIGITS).sqrt() * 4)
print(f"K(1/sqrt 2)             = {ellipK(lem.k)}")
print(f"Gamma(1/4)^2/(4 sqrt pi) = {closed_K}")
print(f"difference               = {ellipK(lem.k) - closed_K}")
# here K = K', so the nome collapses to e^-pi and the variance to 1/(4 pi)
print(f"q at the self-dual point = {lem.q}")
print(f"sigma^2 - 1/(4 pi)       = {lem.sigma2 - 1 / (pi(DIGITS) * 4)}")
