"""Cyclicity on the polydisc: sparseness conditions and the orbit harness.

With several variables, the tail-span criterion runs along an enumeration
of the multi-index spectrum and needs two sparseness conditions: bounded
difference multiplicity (C1) and componentwise gap divergence (C2).  The
semigroup orbit projection provides an independent numerical confirmation
by driving the constant 1 into the truncated orbit span.
"""

from cyclica.orbit import one_in_orbit_check, orbit_project_polydisc
from cyclica.polydisc import PolySeries, check_c1_c2, polydisc_cyclicity

f = PolySeries(2, 1, [((2**k, 3**k), [16.0**-k]) for k in range(1, 9)])
c1, c2, note = check_c1_c2(f)
print("C1 multiplicity:", c1)
print("C2 verdict:", c2.status, "| certificate:", note)
print("cyclicity:", polydisc_cyclicity(f).status)

box = (2**6, 3**4)
print(f"constant-1 reachable in box {box}:",
      one_in_orbit_check(f, box, threshold=1e-2))

one = PolySeries(2, 1, [((0, 0), [1.0])])
rep = orbit_project_polydisc(f, one, box)
print("residual chain over growing sub-boxes:",
      [round(float(r), 4) for r in rep.residuals])
