"""Closed-form waves, elliptic backgrounds, and the integrator behind them.

The traveling-wave profile equation has a separatrix solution, the kink
arcsin(tanh sigma).  Integrating the same equation numerically from kink
initial data must track the closed form, and the conserved energy along
the way measures integrator quality.  Off the separatrix the orbits are
elliptic, which is where the Jacobi functions earn their keep.

The last section sweeps the whole solution catalog the same way the
command line does.
"""

import math

from susygordon import (
    catalog_names,
    first_integral_check,
    integrate_profile_ode,
    jacobi,
    make_system,
    verify_entry,
)
from susygordon.odes import drift_ratio

print("== kink vs integrator ==")
system = make_system("rebp", eps=-1.0)
traj = integrate_profile_ode(system, (0.0, 1.0), 0.0, 3.0, 1.0 / 256)
worst = max(
    abs(s.value - math.asin(math.tanh(s.sigma)))
    for s in traj.samples
)
print(f"  max |numeric - arcsin(tanh)| over [0,3]: {worst:.2e}")
print(f"  energy drift along the run:              {first_integral_check(traj):.2e}")
ratio = drift_ratio(system, (0.3, 0.9), 0.0, 3.0, 0.1)
print(f"  drift ratio when halving the step:       {ratio:.1f}  (16 = 4th order)")

print()
print("== Jacobi functions from the arithmetic-geometric mean ==")
for m in (0.2, 0.81, -0.5):
    tr = jacobi(1.1, m)
    p1 = tr.sn ** 2 + tr.cn ** 2 - 1.0
    p2 = tr.dn ** 2 + m * tr.sn ** 2 - 1.0
    print(f"  m={m:+.2f}  sn={tr.sn:+.6f}  identities {abs(p1):.1e} {abs(p2):.1e}")

print()
print("== full catalog sweep ==")
for name in catalog_names():
    check = verify_entry(name)
    flag = "ok" if check.passed else "FAIL"
    print(f"  {name:8s} {check.subalgebra:8s} residual {check.max_residual:.2e}"
          f"  (tol {check.tolerance:g})  {flag}")
