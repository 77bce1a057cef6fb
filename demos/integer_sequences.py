"""
Integer sequences from moment polynomials
=========================================

The even moments of the theta-weighted integer distribution are exact
polynomials R_{2n}(m) once the variance is factored out.  Their values at
the self-dual point m = 1/2 are integer sequences, and their values at
m = 1/p obey scaling conjectures for small p.  The sequences are computed at
the point itself: the sn recurrence, the cumulants and the Bell recursion
run on the one value of m, with no polynomial built.  The polynomials are
printed first for scale, and evaluating one of them by hand at the end
gives the same number by the other route.
"""

from fractions import Fraction

from thetakit import (
    a_sequence,
    bell_moments,
    conjecture_check,
    d_sequence,
    dk_sequence,
    kappa_recurrence_check,
    q_from_a,
    q_sequence,
)

print("== moment polynomials (Bell recursion over graded cumulants) ==")
for row in bell_moments(4)[2:]:
    print(f"R_{2 * row.n}(m) = {row.R}")

print()
print("== the integer sequence d(n) = 2^n R_{4n}(1/2) ==")
print(d_sequence(7))

print()
print("== the same moments at m = 1/3 (modulus 1/sqrt 3) ==")
for n, value in enumerate(dk_sequence(3, 6)):
    print(f"R_{4 * n}(1/3) = {value}")

print()
print("== integrality after scaling, p = 3 ==")
for row in conjecture_check(3, 6):
    print(f"m = {row.m}:  raw = {row.value}  alpha = {row.alpha}"
          f"  scaled = {row.scaled}  integer: {row.is_integer}")

print()
print("== the self-dual cumulant integers Q and their companion A ==")
print(f"Q_4..Q_12 by grading:             {q_sequence(3)}")
print(f"nonzero part Q_4, Q_8, Q_12 via A: {q_from_a(3)}")
print(f"A_0..A_5:                         {a_sequence(5)}")
# a third consistency pass: the quadratic recurrence among the kappas
print(f"cumulant recurrence closes through order 16: {kappa_recurrence_check(8)}")

print()
print("== a moment by hand, by the polynomial route ==")
r8 = bell_moments(4)[4].R
print(f"R_8(1/2) = {r8.evaluate(Fraction(1, 2))}, so d(2) = 4 * that"
      f" = {r8.evaluate(Fraction(1, 2)) * 4}, as the point route gave above")
