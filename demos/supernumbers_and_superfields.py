"""A walk through the arithmetic layer: supernumbers, then superfields.

Every quantity in this package lives in a finite real Grassmann algebra.
A supernumber splits into a body (an ordinary float) and a soul (the
nilpotent rest).  Analytic functions extend to such numbers by a Taylor
series that terminates on its own, because high soul powers vanish.  The
text form that ``to_text`` prints, ``parse`` reads back.

The second half builds a random superfield, splits its value at one
spacetime point into the four theta components, and checks there that the
two covariant derivatives square to the coordinate translations and
anticommute with each other.
"""

import math

from susygordon import (
    DEFAULT_CONTEXT as CTX,
    apply_analytic,
    evaluate_bundle,
    op_D,
    parse,
    random_superfield,
    superfield_jet,
    theta_coefficients,
    to_text,
)
from susygordon.analytic import SIN

theta1, theta2 = CTX.gen("theta1"), CTX.gen("theta2")
mu = CTX.gen("mu")

print("== supernumber arithmetic ==")
z = CTX.scalar(0.4) + theta1 * theta2 * 2.0
print("z          =", to_text(z))
print("z body     =", z.body)
print("z soul^2   =", to_text((z - CTX.scalar(z.body)) * (z - CTX.scalar(z.body))), "(nilpotent)")
print("parse(to_text(z)) == z :", parse(to_text(z)) == z)

s = apply_analytic(SIN, z)
# hand expansion: sin(0.4 + e) = sin 0.4 + e cos 0.4 with e^2 = 0
want = CTX.scalar(math.sin(0.4)) + theta1 * theta2 * (2.0 * math.cos(0.4))
print("sin z      =", to_text(s))
print("   matches hand expansion to", (s - want).norm())

print()
print("== odd numbers anticommute ==")
print("theta1*theta2 + theta2*theta1 =",
      to_text(theta1 * theta2 + theta2 * theta1))
print("mu*mu =", to_text(mu * mu))

print()
print("== covariant derivatives on a random superfield ==")
f = random_superfield(11, CTX)
x, t = CTX.scalar(0.7), CTX.scalar(-0.2)
bundle = evaluate_bundle(f, x, t)
jet = superfield_jet(f, x, t, order=2)

u_half, phi, psi, F = theta_coefficients(bundle.value, CTX)
glued = u_half + theta1 * phi + theta2 * psi + theta1 * theta2 * F
print("Phi - (u/2 + th1 phi + th2 psi + th1 th2 F) :", (glued - bundle.value).norm())

dxx = op_D(op_D(jet, CTX, "x"), CTX, "x").value()
dtt = op_D(op_D(jet, CTX, "t"), CTX, "t").value()
mixed = op_D(op_D(jet, CTX, "t"), CTX, "x").value() \
    + op_D(op_D(jet, CTX, "x"), CTX, "t").value()

print("D_x D_x Phi - Phi_x :", (dxx - bundle.d_x).norm())
print("D_t D_t Phi - Phi_t :", (dtt - bundle.d_t).norm())
print("{D_x, D_t} Phi      :", mixed.norm())
print("all three are machine zeros; the square-root structure is exact")
