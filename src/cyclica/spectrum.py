"""Analysis of exponent sequences.

Hadamard lacunarity, difference multiplicity, residue-class coverage modulo N,
bounded-block structure, and the two polydisc sparseness conditions (bounded
multi-index difference multiplicity, componentwise gap divergence).

Spectra are 1-indexed: ``term(1)`` is the first exponent, matching the usual
n_1 < n_2 < ... notation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import constructions
from .verdicts import NO_WITNESS, PROVEN, YES_AT_HORIZON, Verdict

__all__ = [
    "IntegerSpectrum",
    "MultiSpectrum",
    "lacunarity_ratio",
    "is_hadamard_lacunary",
    "difference_multiplicity",
    "residues_hit",
    "spectrum_admits_SstarN",
    "bounded_block_check",
    "polydisc_c1",
    "polydisc_c2",
]


class IntegerSpectrum:
    """A strictly increasing sequence of nonnegative integer exponents.

    Backed either by an explicit list or by one of three named lazy
    generators.  Generator evaluation is deterministic and restartable.
    :meth:`residues` streams n_1, ..., n_K modulo N in one pass for every
    kind, one product per step, so factorial-scale exponents are never
    materialized unless explicitly requested via ``term`` or ``terms``.
    """

    def __init__(self, kind, *, values=None, base=None, crt_spec=None):
        if kind not in ("explicit", "geometric", "factorial_plus_k", "crt"):
            raise ValueError(f"unknown spectrum kind {kind!r}")
        self.kind = kind
        self.base = base
        self.crt_spec = crt_spec
        if kind == "explicit":
            vals = [int(v) for v in values]
            if any(v < 0 for v in vals):
                raise ValueError("exponents must be nonnegative")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError("exponents must be strictly increasing")
            self.values = tuple(vals)
        elif kind == "geometric":
            if base is None or base < 2:
                raise ValueError("geometric base must be an integer >= 2")
            self.values = None
        elif kind == "crt":
            if crt_spec is None:
                raise ValueError("crt spectrum needs a CrtSequenceSpec")
            self.values = None
        else:
            self.values = None

    # -- constructors -------------------------------------------------------
    @classmethod
    def explicit(cls, values):
        return cls("explicit", values=values)

    @classmethod
    def geometric(cls, a):
        return cls("geometric", base=int(a))

    @classmethod
    def factorial_plus_k(cls):
        return cls("factorial_plus_k")

    @classmethod
    def crt(cls, spec):
        return cls("crt", crt_spec=spec)

    # -- evaluation ---------------------------------------------------------
    def __len__(self):
        if self.kind == "explicit":
            return len(self.values)
        raise TypeError("generator-backed spectra are unbounded")

    @property
    def is_finite(self):
        return self.kind == "explicit"

    def _check_index(self, k):
        if k < 1:
            raise IndexError("spectra are 1-indexed")
        if self.kind == "explicit" and k > len(self.values):
            raise IndexError(f"spectrum has only {len(self.values)} terms")

    def term(self, k: int) -> int:
        """The k-th exponent (1-indexed), as an exact integer."""
        self._check_index(k)
        if self.kind == "explicit":
            return self.values[k - 1]
        if self.kind == "geometric":
            return self.base**k
        if self.kind == "factorial_plus_k":
            # arbitrary-precision on explicit request
            return math.factorial(k + 1) + k
        return constructions.crt_sequence_value(self.crt_spec, k)

    def terms(self, horizon: int):
        if self.kind == "crt":
            return [math.factorial(k + 1) + r
                    for k, r in enumerate(self.crt_spec.offsets(horizon), 1)]
        return [self.term(k) for k in range(1, horizon + 1)]

    def residues(self, modulus: int, horizon: int) -> list:
        """[n_k mod modulus for k = 1..K] in one pass, K the horizon cut to
        the spectrum's length."""
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        K = self._horizon(horizon)
        if self.kind == "explicit":
            return [v % modulus for v in self.values[:K]]
        if self.kind == "geometric":
            out, x = [], 1
            for _ in range(K):
                x = x * self.base % modulus
                out.append(x)
            return out
        if self.kind == "factorial_plus_k":
            return constructions.factorial_residues(K, modulus)
        return constructions.crt_sequence_residues(self.crt_spec, K, modulus)

    def _horizon(self, horizon):
        if self.kind == "explicit":
            horizon = min(horizon, len(self.values))
        return max(horizon, 0)


def lacunarity_ratio(s: IntegerSpectrum, horizon: int) -> float:
    """min over k < horizon of n_{k+1}/n_k."""
    vals = s.terms(s._horizon(horizon))
    if len(vals) < 2:
        raise ValueError("need at least 2 terms for a lacunarity ratio")
    if vals[0] == 0:
        raise ValueError("ratio undefined for a zero term")
    return min(b / a for a, b in zip(vals, vals[1:]))


def is_hadamard_lacunary(s: IntegerSpectrum, d: float, horizon: int = 32) -> bool:
    return lacunarity_ratio(s, horizon) >= d


def difference_multiplicity(s: IntegerSpectrum, horizon: int) -> int:
    """max over I > 0 of the number of pairs with n_j - n_k = I (first terms)."""
    vals = s.terms(s._horizon(horizon))
    counts = Counter(
        vals[j] - vals[k] for k in range(len(vals)) for j in range(k + 1, len(vals))
    )
    return max(counts.values(), default=0)


def residues_hit(s: IntegerSpectrum, modulus: int, window: int = 32):
    """{n_k mod N : 1 <= k <= window}."""
    return set(s.residues(modulus, window))


def spectrum_admits_SstarN(s: IntegerSpectrum, N: int, horizon: int = 64) -> Verdict:
    """Does every tail of the spectrum hit all residue classes modulo N?

    Proven outcomes are generator-specific: the factorial sequence satisfies
    n_k = k (mod N) for k >= N-1, and the CRT sequence covers exactly the
    divisor closure of its defining set.  Explicit and geometric spectra are
    checked tail-by-tail up to the horizon; a missing class in some tail is
    returned as a concrete witness.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N == 1:
        return Verdict(PROVEN, "proven", detail={"argument": "single residue class"})
    if s.kind == "factorial_plus_k":
        return Verdict(
            PROVEN, "proven",
            detail={"argument": f"n_k = k (mod {N}) for every k >= {N - 1}"},
        )
    if s.kind == "crt" and N in s.crt_spec.divisor_set.closure:
        return Verdict(PROVEN, "proven",
                       detail={"argument": f"{N} lies in the divisor closure"})
    miss = _missing_residue_witness(s, N, horizon)
    if miss is not None:
        m, missing = miss
        return Verdict(NO_WITNESS, "at-horizon", witness=m,
                       detail={"missing_residues": sorted(missing)})
    if s.kind == "crt":
        return Verdict(NO_WITNESS, "proven", witness=None,
                       detail={"argument": f"{N} outside the divisor closure"})
    return Verdict(YES_AT_HORIZON, "at-horizon", detail={"horizon": horizon})


def _missing_residue_witness(s, N, horizon):
    """First tail start m (<= horizon/2) whose residues miss a class mod N."""
    K = s._horizon(horizon)
    # tails are nested: tail m misses exactly the classes last seen before m
    last = {r: k for k, r in enumerate(s.residues(N, K), 1)}
    m = min(last.get(r, 0) for r in range(N)) + 1
    # only tails of length >= K/2 are meaningful evidence
    if m > max(K // 2, 1):
        return None
    return m, {r for r in range(N) if last.get(r, 0) < m}


def bounded_block_check(s: IntegerSpectrum, N: int, horizon: int, d_min: float) -> bool:
    """Do the block indices {floor(n/N)} form a lacunary sequence?

    Duplicate block indices (several exponents inside one width-N block) are
    collapsed; a leading zero block is skipped for the ratio test.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if d_min <= 1:
        raise ValueError("d_min must exceed 1")
    vals = s.terms(s._horizon(horizon))
    blocks = []
    for n in vals:
        q = n // N
        if not blocks or q != blocks[-1]:
            blocks.append(q)
    if any(b <= a for a, b in zip(blocks, blocks[1:])):
        return False
    positive = [b for b in blocks if b > 0]
    if len(positive) < 2:
        return len(positive) >= 1
    return all(b / a >= d_min for a, b in zip(positive, positive[1:]))


@dataclass(frozen=True)
class MultiSpectrum:
    """An ordered, duplicate-free list of multi-indices in Z_+^n.

    The order is fixed by the caller and defines the enumeration (alpha_j)
    against which the gap condition is evaluated.
    """

    entries: tuple

    def __init__(self, entries):
        ents = tuple(tuple(int(c) for c in e) for e in entries)
        if not ents:
            raise ValueError("MultiSpectrum needs at least one entry")
        if any(len(e) != len(ents[0]) for e in ents):
            raise ValueError("all multi-indices must have the same length")
        if any(c < 0 for e in ents for c in e):
            raise ValueError("multi-indices must be nonnegative")
        if len(set(ents)) != len(ents):
            raise ValueError("multi-indices must be pairwise distinct")
        object.__setattr__(self, "entries", ents)

    @property
    def poly_dim(self):
        return len(self.entries[0])

    def __len__(self):
        return len(self.entries)


def polydisc_c1(ms: MultiSpectrum) -> int:
    """max over beta != 0 in Z_+^n of #{(alpha, alpha') : alpha - alpha' = beta}.

    One table of all differences alpha - alpha', in object dtype so that it
    stays exact for entries of any size; the entries are distinct, so the
    nonzero differences are those off the diagonal, and only the
    componentwise nonnegative ones are counted.
    """
    E = np.array(ms.entries, dtype=object)
    D = E[:, None] - E[None]
    D = D[(D >= 0).all(axis=2) & ~np.eye(len(E), dtype=bool)]
    return max(Counter(map(tuple, D.tolist())).values(), default=0)


def polydisc_c2(ms: MultiSpectrum):
    """Per-component consecutive gaps along the enumeration, with a verdict.

    The divergence requirement "gaps tend to infinity in every component" is
    operationalized as: strictly increasing over the final half of the
    enumeration, reported at-horizon only.

    Returns (gap profile as a list per component, Verdict).
    """
    n = ms.poly_dim
    gaps = [
        [ms.entries[j + 1][k] - ms.entries[j][k] for j in range(len(ms) - 1)]
        for k in range(n)
    ]
    ok = True
    bad_component = None
    for k in range(n):
        g = gaps[k]
        tail = g[len(g) // 2 :]
        if len(tail) >= 2 and any(b <= a for a, b in zip(tail, tail[1:])):
            ok = False
            bad_component = k
            break
    if ok:
        v = Verdict(YES_AT_HORIZON, "at-horizon", detail={"components": n})
    else:
        v = Verdict(NO_WITNESS, "at-horizon", witness=bad_component,
                    detail={"reason": "gaps not eventually increasing"})
    return gaps, v
