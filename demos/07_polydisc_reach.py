"""How far the polydisc orbit harness reaches: the constant 1 against the
orbit of criterion 8's series over growing shift boxes.

Lacunarity leaves few exponent coincidences, so the block of the orbit
system that holds the constant stays tiny while the box grows: the harness
finds that block by a search over exponents and never touches the rest of
the box.  The residual of 1 keeps falling; once the box passes every
exponent of f on both axes the block stops growing (512 columns).
"""

from cyclica.orbit import one_in_orbit_check, orbit_project_polydisc
from cyclica.polydisc import PolySeries

f = PolySeries(2, 1, [((2**k, 3**k), [16.0**-k]) for k in range(1, 11)])
one = PolySeries(2, 1, [((0, 0), [1.0])])

print(f"{'box':>18} {'columns':>16} {'block':>12} {'residual of 1':>14}")
for a, b in [(8, 4), (10, 5), (11, 6), (12, 7), (14, 9), (20, 12)]:
    rep = orbit_project_polydisc(f, one, (2**a, 3**b))
    rows, cols = rep.detail["block"]
    print(f"{f'(2^{a}, 3^{b})':>18} "
          f"{rep.detail['columns_at_full_box']:>16,} {f'{rows} x {cols}':>12} "
          f"{rep.residual_final:>14.3e}")

box = (2**14, 3**9)
print(f"constant 1 within 1e-3 of the orbit span over {box}:",
      one_in_orbit_check(f, box, threshold=1e-3))
