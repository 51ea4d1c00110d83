"""Vector-valued power series on the polydisc and their shift semigroup.

A polydisc series is a finite list of (multi-index, coefficient vector)
terms; the backward shifts S*^alpha drop everything below alpha and act as a
semigroup.  Cyclicity under the sparseness conditions (bounded difference
multiplicity, componentwise gap divergence) reduces to the same coefficient
tail-span criterion as on the disc, re-indexed by the user's enumeration of
the spectrum; ``coefspace.cyclicity_single`` decides it, checking a declared
TailModel against the stored terms before it gives an exact verdict.
"""

from __future__ import annotations

import numpy as np

from .coefspace import TailModel, cyclicity_single
from .core import Tolerances
from .spectrum import (
    IntegerSpectrum,
    MultiSpectrum,
    is_hadamard_lacunary,
    polydisc_c1,
    polydisc_c2,
)
from .verdicts import NON_CYCLIC, Verdict

__all__ = [
    "PolySeries",
    "poly_backward_shift",
    "graded_lex_sorted",
    "polydisc_cyclicity",
    "check_c1_c2",
]


class PolySeries:
    """Finite multi-index power series with coefficients in C^d.

    The term order is preserved as given: it defines the enumeration
    (alpha_j) used by the gap condition and the tail-span criterion.
    """

    __slots__ = ("poly_dim", "dim", "multi_exponents", "coeffs")

    def __init__(self, poly_dim, dim, terms):
        poly_dim, dim = int(poly_dim), int(dim)
        if poly_dim < 1 or dim < 1:
            raise ValueError("poly_dim and dim must be >= 1")
        exps, cfs = [], []
        for alpha, c in terms:
            a = tuple(int(x) for x in alpha)
            if len(a) != poly_dim or any(x < 0 for x in a):
                raise ValueError(f"bad multi-index {alpha!r}")
            v = np.asarray(c, dtype=complex).reshape(dim)
            if np.any(v != 0):
                exps.append(a)
                cfs.append(v)
        if len(set(exps)) != len(exps):
            raise ValueError("multi-indices must be pairwise distinct")
        object.__setattr__(self, "poly_dim", poly_dim)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "multi_exponents", tuple(exps))
        object.__setattr__(
            self, "coeffs",
            np.asarray(cfs, dtype=complex).reshape(len(exps), dim),
        )
        if not np.all(np.isfinite(self.coeffs.view(float))):
            raise ValueError("coefficients must be finite")

    def __setattr__(self, name, value):
        raise AttributeError("PolySeries is immutable")

    @property
    def terms(self):
        return list(zip(self.multi_exponents, self.coeffs))

    def __len__(self):
        return len(self.multi_exponents)

    def __repr__(self):
        return (
            f"PolySeries(poly_dim={self.poly_dim}, dim={self.dim}, "
            f"terms={len(self)})"
        )

    def __eq__(self, other):
        if not isinstance(other, PolySeries):
            return NotImplemented
        return (
            self.poly_dim == other.poly_dim
            and self.dim == other.dim
            and self.multi_exponents == other.multi_exponents
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def norm(self):
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    def spectrum(self) -> MultiSpectrum:
        return MultiSpectrum(self.multi_exponents)


def poly_backward_shift(f: PolySeries, alpha) -> PolySeries:
    """S*^alpha: keep terms with exponent >= alpha componentwise, shifted down."""
    alpha = tuple(int(x) for x in alpha)
    if len(alpha) != f.poly_dim or any(x < 0 for x in alpha):
        raise ValueError(f"bad shift multi-index {alpha!r}")
    out = []
    for t, c in zip(f.multi_exponents, f.coeffs):
        if all(ti >= ai for ti, ai in zip(t, alpha)):
            out.append((tuple(ti - ai for ti, ai in zip(t, alpha)), c))
    return PolySeries(f.poly_dim, f.dim, out)


def graded_lex_sorted(f: PolySeries) -> PolySeries:
    """Re-enumerate the terms in graded lexicographic order (the default)."""
    order = sorted(range(len(f)), key=lambda i: (sum(f.multi_exponents[i]), f.multi_exponents[i]))
    return PolySeries(
        f.poly_dim, f.dim,
        [(f.multi_exponents[i], f.coeffs[i]) for i in order],
    )


def check_c1_c2(f: PolySeries):
    """Evaluate both sparseness conditions on the stored spectrum.

    Returns (c1 multiplicity, c2 verdict, certificate note).  If some
    coordinate projection of the spectrum is Hadamard lacunary with distinct
    values, bounded difference multiplicity follows and the note records the
    certifying coordinate.
    """
    ms = f.spectrum()
    c1 = polydisc_c1(ms)
    _, c2 = polydisc_c2(ms)
    note = None
    for k in range(f.poly_dim):
        proj = [t[k] for t in ms.entries]
        # explicit() rejects a projection that does not strictly increase,
        # and the ratio one with fewer than two terms or a leading zero
        try:
            if is_hadamard_lacunary(IntegerSpectrum.explicit(proj), 1.0 + 1e-9,
                                    horizon=len(proj)):
                note = f"coordinate {k} is lacunary with distinct values"
                break
        except ValueError:
            pass
    return c1, c2, note


def polydisc_cyclicity(f: PolySeries, tol: Tolerances = Tolerances(),
                       model: TailModel = None) -> Verdict:
    """Tail-span cyclicity along the enumeration (alpha_j) of the spectrum.

    Requires the sparseness conditions to hold (at horizon); a definitive
    violation raises with a pointer to the orbit harness.  The verdict is
    ``cyclicity_single``'s: with a TailModel over the enumeration index it is
    checked against the stored terms (ValueError on a contradiction) and the
    verdict is exact; otherwise the stored enumeration gives an at-horizon
    verdict.
    """
    if len(f) == 0:
        return Verdict(NON_CYCLIC, "exact", detail={"reason": "zero series"})
    c1, c2, note = check_c1_c2(f)
    if not bool(c2):
        raise ValueError(
            "componentwise gap divergence fails on this enumeration; "
            "only the orbit harness applies"
        )
    v = cyclicity_single(f, tol, model=model)  # positions follow the enumeration
    return Verdict(v.status, v.mode,
                   detail={**v.detail, "c1": c1, "c1_certificate": note})
