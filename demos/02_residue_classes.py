"""Residue classes decide cyclicity for powers of the backward shift.

A scalar lacunary series is S*^N-cyclic exactly when every tail of its
spectrum keeps hitting all residue classes modulo N.  Three generators
illustrate the three possible flavors of verdict: the factorial sequence
(n_k = (k+1)! + k) is Proven for every N, the geometric sequence misses
classes outright, and the CRT sequence realizes a prescribed divisor-closed
set as the exact set of good powers.
"""

from cyclica import (
    CrtSequenceSpec,
    DivisorClosedSet,
    IntegerSpectrum,
    af_membership,
    spectrum_admits_SstarN,
)

fact = IntegerSpectrum.factorial_plus_k()
print("factorial sequence:", fact.terms(5), "...")
for N in (2, 5, 12):
    print(f"  S*^{N}:", spectrum_admits_SstarN(fact, N).status)

geo = IntegerSpectrum.geometric(2)
v = spectrum_admits_SstarN(geo, 2)
print("geometric(2), N=2:", v.status,
      "| missing residues:", v.detail.get("missing_residues"))

dc = DivisorClosedSet({4, 6})
spec = IntegerSpectrum.crt(CrtSequenceSpec(dc))
print("divisor closure of {4, 6}:", sorted(dc.closure))
print("good powers up to 8:", sorted(af_membership(spec, 8)))
print("first CRT terms mod 12:", spec.residues(12, 8))
