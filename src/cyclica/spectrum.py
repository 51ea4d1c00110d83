"""Analysis of exponent sequences.

Hadamard lacunarity, difference multiplicity, residue-class coverage modulo N,
bounded-block structure, and the two polydisc sparseness conditions (bounded
multi-index difference multiplicity, componentwise gap divergence).

Spectra are 1-indexed: ``terms(K)`` lists n_1 < n_2 < ... < n_K, matching
the usual notation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .core import _index
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

    Backed either by an explicit tuple or by one of three generators, each a
    running product plus an offset, n_k = P_k + r_k with P_k = P_(k-1) m_k
    and P_0 = 1: geometric has m_k = b and r_k = 0, ``factorial_plus_k``
    m_k = k + 1 and r_k = k, and crt m_k = k + 1 with r_k from
    :meth:`CrtSequenceSpec.offsets`.  :meth:`terms` runs the product
    exactly; :meth:`residues` runs it modulo N, one product per step, so
    factorial-scale exponents are never built for a residue.  Both cut the
    horizon K to the spectrum's length.
    """

    def __init__(self, kind, *, values=None, base=None, crt_spec=None):
        if kind not in ("explicit", "geometric", "factorial_plus_k", "crt"):
            raise ValueError(f"unknown spectrum kind {kind!r}")
        self.kind = kind
        self.base = _index(base, "base", 2) if kind == "geometric" else base
        self.crt_spec = crt_spec
        self.values = None
        if kind == "explicit":
            vals = [_index(v, "values", 0) for v in values]
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError("exponents must be strictly increasing")
            self.values = tuple(vals)
        elif kind == "crt" and crt_spec is None:
            raise ValueError("crt spectrum needs a CrtSequenceSpec")

    # -- constructors -------------------------------------------------------
    @classmethod
    def explicit(cls, values):
        return cls("explicit", values=values)

    @classmethod
    def geometric(cls, a):
        return cls("geometric", base=a)

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

    def _steps(self, K):
        """(m_k, r_k) for k = 1..K of a generator spectrum."""
        if self.kind == "geometric":
            return zip(repeat(self.base, K), repeat(0, K))
        offsets = (range(1, K + 1) if self.kind == "factorial_plus_k"
                   else self.crt_spec.offsets(K))
        return zip(range(2, K + 2), offsets)

    def terms(self, horizon: int) -> list:
        """[n_1, ..., n_K] as exact integers."""
        K = _index(horizon, "horizon", 0)
        if self.values is not None:
            return list(self.values[:K])
        out, p = [], 1
        for m, r in self._steps(K):
            p *= m
            out.append(p + r)
        return out

    def residues(self, modulus: int, horizon: int) -> list:
        """[n_1 mod N, ..., n_K mod N] for the modulus N, in one pass."""
        modulus, K = _index(modulus, "modulus", 1), _index(horizon, "horizon", 0)
        if self.values is not None:
            return [v % modulus for v in self.values[:K]]
        out, p = [], 1
        for m, r in self._steps(K):
            p = p * m % modulus
            out.append((p + r) % modulus)
        return out


def lacunarity_ratio(s: IntegerSpectrum, horizon: int) -> float:
    """min over k < horizon of n_{k+1}/n_k."""
    vals = s.terms(horizon)
    if len(vals) < 2:
        raise ValueError("need at least 2 terms for a lacunarity ratio")
    if vals[0] == 0:
        raise ValueError("ratio undefined for a zero term")
    return min(b / a for a, b in zip(vals, vals[1:]))


def is_hadamard_lacunary(s: IntegerSpectrum, d: float, horizon: int = 32) -> bool:
    return lacunarity_ratio(s, horizon) >= d


def difference_multiplicity(s: IntegerSpectrum, horizon: int) -> int:
    """max over I > 0 of the number of pairs with n_j - n_k = I (first terms)."""
    vals = s.terms(horizon)
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
    return _admits_SstarN(s, N, horizon, lambda: s.residues(N, horizon))


def _admits_SstarN(s, N, horizon, residues):
    """:func:`spectrum_admits_SstarN`, calling ``residues()`` for the
    residue stream only when the tails must be checked."""
    N, horizon = _index(N, "N", 1), _index(horizon, "horizon", 0)
    if N == 1:
        return Verdict(PROVEN, "proven", detail={"argument": "single residue class"})
    if s.kind == "factorial_plus_k":
        return Verdict(
            PROVEN, "proven",
            detail={"argument": f"n_k = k (mod {N}) for every k >= {N - 1}"},
        )
    if s.kind == "crt" and N in s.crt_spec.divisor_set:
        return Verdict(PROVEN, "proven",
                       detail={"argument": f"{N} lies in the divisor closure"})
    miss = _missing_residue_witness(residues(), N)
    if miss is not None:
        m, missing = miss
        return Verdict(NO_WITNESS, "at-horizon", witness=m,
                       detail={"missing_residues": sorted(missing)})
    if s.kind == "crt":
        return Verdict(NO_WITNESS, "proven", witness=None,
                       detail={"argument": f"{N} outside the divisor closure"})
    return Verdict(YES_AT_HORIZON, "at-horizon", detail={"horizon": horizon})


def _missing_residue_witness(residues, N):
    """First tail start m (<= K/2) whose residues, of the K given, miss a
    class mod N."""
    K = len(residues)
    # tails are nested: tail m misses exactly the classes last seen before m
    last = {r: k for k, r in enumerate(residues, 1)}
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
    N = _index(N, "N", 1)
    if d_min <= 1:
        raise ValueError("d_min must exceed 1")
    vals = s.terms(horizon)
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
        ents = tuple(tuple(_index(c, "entries", 0) for c in e) for e in entries)
        if not ents:
            raise ValueError("MultiSpectrum needs at least one entry")
        if any(len(e) != len(ents[0]) for e in ents):
            raise ValueError("all multi-indices must have the same length")
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
