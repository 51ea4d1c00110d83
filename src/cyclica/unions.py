"""Families supported on finite unions of shifted lacunary spectra.

A d-tuple of scalar series whose spectra are shifts of one lacunary base
sequence is handled by removing the shifts (monomial multipliers reduce to
backward shifts) and stacking the coefficients along the base sequence:
component i fills column i and ``VectorSeries`` merges the base terms the
components share.  The stacked tail-span criterion then decides cyclicity.
A sufficient stacked criterion, the polynomial-multiplier reduction, a
randomized construction with prescribed per-coordinate spectra, and a
declared-value ledger for the degree of cyclicity round out the module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from .coefspace import TailModel, cyclicity_single
from .core import Tolerances, VectorSeries, _family, backward_shift, first_proper_tail
from .spectrum import IntegerSpectrum
from .verdicts import (
    CYCLIC,
    CYCLIC_SUFFICIENT,
    INCONCLUSIVE,
    NON_CYCLIC,
    Verdict,
)

__all__ = [
    "ShiftedSpectrumFamily",
    "DcLedger",
    "shifted_stack_cyclicity",
    "multiplier_reduce",
    "stacked_sufficient",
    "construct_prescribed_spectra",
    "dc_checks",
]


@dataclass(frozen=True)
class ShiftedSpectrumFamily:
    """d scalar series f_i with spectra inside Lambda + m_i, min shift 0."""

    base: IntegerSpectrum
    shifts: tuple
    components: tuple

    def __init__(self, base, shifts, components):
        shifts = tuple(int(m) for m in shifts)
        components = tuple(components)
        if len(shifts) != len(components) or not components:
            raise ValueError("need one shift per component")
        if min(shifts) != 0:
            raise ValueError("shifts must be normalized so the smallest is 0")
        if any(f.dim != 1 for f in components):
            raise ValueError("components must be scalar series")
        lam = set(base.terms(len(base)) if base.is_finite else base.terms(64))
        for m, f in zip(shifts, components):
            bad = [int(e) for e in f.exponents if int(e) - m not in lam]
            if bad:
                raise ValueError(
                    f"component exponents {bad} do not land in the base "
                    f"spectrum after removing the shift {m}"
                )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "components", components)

    @property
    def dim(self):
        return len(self.components)


def shifted_stack_cyclicity(fam: ShiftedSpectrumFamily,
                            tol: Tolerances = Tolerances(),
                            model: TailModel = None) -> Verdict:
    """Cyclicity of the family via backward-shifting each component by its m_i.

    The deshifted components share the base spectrum; their coefficient
    stacks (f_1^(n + m_1), ..., f_d^(n + m_d)) form a vector series whose
    tail-span criterion decides cyclicity of the original family.
    """
    deshifted = [backward_shift(f, m) for f, m in zip(fam.components, fam.shifts)]
    # component i fills column i; VectorSeries merges the base terms that the
    # components share (the family constructor checked they lie in the base)
    stacked = VectorSeries(fam.dim, np.concatenate([f.exponents for f in deshifted]),
                           block_diag(*[f.coeffs for f in deshifted]))
    return cyclicity_single(stacked, tol, model=model)


def multiplier_reduce(components, multipliers):
    """Componentwise projection P_+(conj-multiplier * f): a correlation.

    Each multiplier is a nonzero scalar polynomial given by its coefficient
    list; output coefficient j of a component is
    sum_l conj(theta^(l)) f^(j + l), computed exactly on the truncation.
    Cyclicity verdicts are invariant under this transformation.
    """
    components = list(components)
    multipliers = [np.asarray(t, dtype=complex).ravel() for t in multipliers]
    if len(components) != len(multipliers):
        raise ValueError("need one multiplier per component")
    if any(np.all(t == 0) for t in multipliers):
        raise ValueError("multipliers must be nonzero polynomials")
    out = []
    for f, th in zip(components, multipliers):
        # entry (e, l) is conj(theta^(l)) f^(e) at exponent e - l; the stable
        # merge sums the entries of one exponent in (e, l) order.  Each
        # theta^(l) multiplies as a scalar, since numpy's broadcast complex
        # product can differ in the last bit, and 0.0 + maps -0.0 to +0.0 as
        # the merge's sum into zeros does, whether an exponent is shared or not
        j = (f.exponents[:, None] - np.arange(th.size)).ravel()
        terms = 0.0 + np.stack([np.conj(t) * f.coeffs for t in th], axis=1)
        terms = terms.reshape(-1, f.dim)
        keep = (j >= 0) & np.tile(th != 0, len(f))
        trunc = f.truncation_degree if keep.any() else 0
        out.append(VectorSeries(f.dim, j[keep], terms[keep], trunc))
    return out


def stacked_sufficient(phis, tol: Tolerances = Tolerances()) -> Verdict:
    """Sufficient criterion for a list of C^d-valued series phi_1..phi_r.

    With sigma(phi_i) inside Lambda + (i-1) for a lacunary base Lambda, the
    family is cyclic when the stacks
    (phi_1^(n_k), phi_2^(n_k + 1), ..., phi_r^(n_k + r - 1)) span C^{d r}
    along every tail.  The converse fails, so a deficient stack is only
    Inconclusive.  An exponent of phi_i below i - 1 breaks the premise and
    raises ValueError.
    """
    phis, d = _family(phis)
    r = len(phis)
    # phi_i fills column block i at its exponents minus i; VectorSeries merges
    # them over the shifted base and rejects an exponent below the shift
    exps = np.concatenate([p.exponents - i for i, p in enumerate(phis)])
    stacks = VectorSeries(d * r, exps, block_diag(*[p.coeffs for p in phis])).coeffs
    hit = first_proper_tail(stacks, tol, range(len(stacks) // 2 + 1))
    if hit is None:
        return Verdict(CYCLIC_SUFFICIENT, "at-horizon")
    return Verdict(INCONCLUSIVE, "at-horizon", witness=hit[0],
                   detail={"dim_stack_span": hit[1], "dim": d * r})


def construct_prescribed_spectra(spectra, seed: int = 0, horizon: int = 16,
                                 tol: Tolerances = Tolerances()):
    """A cyclic d-tuple whose i-th component has exactly the i-th spectrum.

    Coefficients are drawn seeded-uniformly on complex circles with a
    square-summable radial profile, up to 16 times; the first candidate is
    accepted for which ``cyclicity_single`` finds the last half of the
    stacked coefficients along the union enumeration spanning C^d (the tails
    are nested, so every earlier tail does too; an at-horizon certificate).
    Spectra must be generator-backed (infinite); a finite explicit list
    violates the precondition.

    Returns (stacked VectorSeries, list of scalar components, Verdict).
    """
    spectra = list(spectra)
    d = len(spectra)
    if d < 1:
        raise ValueError("need at least one spectrum")
    for s in spectra:
        if s.is_finite:
            raise ValueError("prescribed spectra must be infinite (generator-backed)")
    rng = np.random.default_rng(seed)
    exps_per = [s.terms(horizon) for s in spectra]
    for attempt in range(16):
        comps = []
        for ex in exps_per:
            radial = 2.0 ** (-np.arange(1, len(ex) + 1, dtype=float))
            c = radial * np.exp(2j * np.pi * rng.uniform(size=len(ex)))
            comps.append(VectorSeries(1, ex, c))
        # component i fills column i; VectorSeries merges the shared exponents
        stacked = VectorSeries(d, np.concatenate([f.exponents for f in comps]),
                               block_diag(*[f.coeffs for f in comps]))
        if cyclicity_single(stacked, tol).status == CYCLIC:
            v = Verdict(CYCLIC, "at-horizon",
                        detail={"seed": seed, "attempt": attempt})
            return stacked, comps, v
    raise RuntimeError(
        "no cyclic candidate found after 16 draws; "
        "the prescribed spectra may interleave degenerately"
    )


@dataclass(frozen=True)
class DcLedger:
    """Declared degree-of-cyclicity values with recorded relations.

    ``values`` maps a name to its declared dc; ``subset_relations`` lists
    pairs (A, B) meaning A is a subfamily of B; ``sum_relations`` lists
    triples (A, B, C) meaning C is the sum family of A and B.
    """

    dim: int
    values: dict
    subset_relations: tuple = ()
    sum_relations: tuple = ()


def dc_checks(ledger: DcLedger):
    """Evaluate range, monotonicity and subadditivity on the declared values."""
    out = []
    for name, v in ledger.values.items():
        ok = 0 <= v <= ledger.dim
        out.append({
            "check": "range", "entries": (name,), "satisfied": ok,
            "note": f"dc({name}) = {v} must lie in [0, {ledger.dim}]",
        })
    for a, b in ledger.subset_relations:
        ok = ledger.values[a] <= ledger.values[b]
        out.append({
            "check": "monotonicity", "entries": (a, b), "satisfied": ok,
            "note": f"{a} within {b} requires dc({a}) <= dc({b})",
        })
    for a, b, c in ledger.sum_relations:
        ok = ledger.values[c] <= ledger.values[a] + ledger.values[b]
        out.append({
            "check": "subadditivity", "entries": (a, b, c), "satisfied": ok,
            "note": f"dc({c}) <= dc({a}) + dc({b})",
        })
    return out
