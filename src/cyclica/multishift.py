"""The reshaping isomorphism and N-th power shift cyclicity.

Grouping N consecutive Taylor coefficients of an X-valued series into one
X^N-valued coefficient is an isometric isomorphism that intertwines the N-th
power of the backward shift with the plain backward shift.  Cyclicity for
S*^N therefore reduces to the tail-span criterion for the reshaped series;
in the scalar case this is equivalent to every spectrum tail hitting every
residue class modulo N.  The reshaped series is built by writing each
coefficient into its slot and letting ``VectorSeries`` merge the exponents
that share a block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Tolerances, VectorSeries, _family, backward_shift, first_proper_tail
from .spectrum import IntegerSpectrum, spectrum_admits_SstarN
from .verdicts import CYCLIC, NON_CYCLIC, Verdict

__all__ = [
    "ReshapedSeries",
    "psi_reshape",
    "psi_unreshape",
    "sstarN_cyclicity",
    "sstarN_cyclicity_spectral",
    "residue_crosscheck",
    "af_membership",
    "bounded_block_family_cyclicity",
]


@dataclass(frozen=True)
class ReshapedSeries:
    base_dim: int
    block: int
    series: VectorSeries  # dimension base_dim * block
    truncation_degree: int  # the original series' truncation


def psi_reshape(f: VectorSeries, N: int) -> ReshapedSeries:
    """Stack coefficients N at a time: block k holds (f^(Nk), ..., f^(Nk+N-1)).

    Slot i of a stacked coefficient (entries i*d .. (i+1)*d - 1) carries the
    original coefficient at exponent N*k + i.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    d, n = f.dim, len(f)
    slots = np.zeros((n, N, d), dtype=complex)
    # += sums into zeros as the merge does, so a -0.0 part reads +0.0
    # whether or not its block is shared
    slots[np.arange(n), f.exponents % N] += f.coeffs
    series = VectorSeries(d * N, f.exponents // N, slots.reshape(n, N * d),
                          f.truncation_degree // N)
    return ReshapedSeries(base_dim=d, block=N, series=series,
                          truncation_degree=f.truncation_degree)


def psi_unreshape(rs: ReshapedSeries) -> VectorSeries:
    """Inverse of :func:`psi_reshape` (exact round trip, truncation
    included: the reshaped truncation floor(T / N) alone cannot give T back)."""
    d, N, s = rs.base_dim, rs.block, rs.series
    exps = (s.exponents[:, None] * N + np.arange(N)).ravel()
    return VectorSeries(d, exps, s.coeffs.reshape(-1, d), rs.truncation_degree)


def _window_span_verdict(rows, tol):
    """Tail spans over the windows of a stacked coefficient enumeration.

    Cyclic-at-horizon iff the span of {rows[k] : k >= m} is all of C^D, D
    the length of a row, for every window start m up to half the
    enumeration.
    """
    n = len(rows)
    if n == 0:
        return Verdict(NON_CYCLIC, "at-horizon", witness=0,
                       detail={"reason": "empty enumeration"})
    hit = first_proper_tail(rows, tol, range(n // 2 + 1))
    if hit is None:
        return Verdict(CYCLIC, "at-horizon")
    return Verdict(NON_CYCLIC, "at-horizon", witness=hit[0],
                   detail={"dim_tail_span": hit[1], "dim": len(rows[0])})


D_MIN = 1.2
MAX_CELLS = 4


def _check_reshaped_lacunary(rs: ReshapedSeries):
    """The reshaped block indices must be lacunary up to bounded clusters.

    Adjacent block indices (a block straddling a cell boundary) are merged
    into clusters of at most MAX_CELLS cells; beyond the first quarter of
    them the cluster starts must grow with ratio at least D_MIN.
    """
    exps = sorted({int(q) for q in rs.series.exponents})
    if len(exps) < 3:
        return
    clusters = [[exps[0], exps[0]]]
    for q in exps[1:]:
        if q - clusters[-1][1] <= 1:
            clusters[-1][1] = q
        else:
            clusters.append([q, q])
    cut = len(clusters) // 4
    if any(hi - lo + 1 > MAX_CELLS for lo, hi in clusters[cut:]):
        raise ValueError(
            "reshaped spectrum has unbounded block runs; "
            "use the bounded-block machinery (blocks module) instead"
        )
    tail = [lo for lo, _ in clusters[cut:] if lo > 0]
    if len(tail) >= 2 and any(b / a < D_MIN for a, b in zip(tail, tail[1:])):
        raise ValueError(
            "reshaped spectrum is not lacunary beyond the burn-in; "
            "use the bounded-block machinery (blocks module) instead"
        )


def sstarN_cyclicity(f: VectorSeries, N: int, tol: Tolerances = Tolerances(),
                     spectrum=None, horizon: int = 64) -> Verdict:
    """Cyclicity of f for the N-th power of the backward shift.

    For a scalar series on a generator-backed spectrum (pass ``spectrum``),
    the residue-class argument applies and can return a Proven verdict.  A
    declared spectrum must match f's exponents term by term (ValueError
    otherwise), since the residue argument reads only the spectrum.
    Otherwise the stored truncation is reshaped and the stacked tail spans
    are checked window-by-window (at-horizon).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if spectrum is not None and f.exponents.tolist() != spectrum.terms(len(f)):
        raise ValueError("the series' exponents do not match the declared spectrum")
    if f.dim == 1 and spectrum is not None:
        v = spectrum_admits_SstarN(spectrum, N, horizon)
        status = CYCLIC if bool(v) else NON_CYCLIC
        return Verdict(status, v.mode, witness=v.witness, detail=dict(v.detail))
    rs = psi_reshape(f, N)
    _check_reshaped_lacunary(rs)
    return _window_span_verdict(rs.series.coeffs, tol)


def sstarN_cyclicity_spectral(spectrum: IntegerSpectrum, N: int, horizon: int = 32,
                              seed: int = 0, tol: Tolerances = Tolerances()) -> Verdict:
    """Stacked-span verdict for a scalar series given only its spectrum.

    Builds the reshaped coefficient stacks from the exact (block index,
    residue) pairs divmod(n_k, N).  The coefficients are seeded nonzero
    random values.
    """
    return _window_span_verdict(_stacks(spectrum, N, horizon, seed), tol)


def _stacks(spectrum: IntegerSpectrum, N: int, horizon: int, seed: int):
    """The block-by-residue stack matrix of n_1, ..., n_K, K the horizon cut
    to the spectrum's length: a seeded random coefficient k lands in row q,
    column r for divmod(n_k, N) = (q, r), the rows in increasing q."""
    if N < 1:
        raise ValueError("N must be >= 1")
    pairs = [divmod(n, N) for n in spectrum.terms(horizon)]
    rng = np.random.default_rng(seed)
    K = len(pairs)
    coeffs = rng.uniform(0.5, 1.5, size=K) * np.exp(2j * np.pi * rng.uniform(size=K))
    # the block keys are factorial-scale Python integers, beyond int64, and a
    # CRT spectrum need not increase, so the stacks are merged in a dict
    # rather than by VectorSeries
    blocks = {}
    for k, (q, r) in enumerate(pairs):
        blocks.setdefault(q, np.zeros(N, dtype=complex))[r] += coeffs[k]
    return np.array([blocks[q] for q in sorted(blocks)]).reshape(-1, N)


def _generic_rank(pattern):
    """Generic rank of a boolean block-by-residue incidence pattern.

    With continuously distributed nonzero entries the rank equals the size
    of a maximum bipartite matching almost surely.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    r, c = pattern.nonzero()  # row-major, so c is already the CSR's indices
    indptr = np.searchsorted(r, np.arange(len(pattern) + 1))
    graph = csr_matrix((np.ones(len(c)), c, indptr), shape=pattern.shape)
    match = maximum_bipartite_matching(graph, perm_type="column")
    return int(np.sum(match != -1))


def residue_crosscheck(spectrum: IntegerSpectrum, N: int, horizon: int = 32,
                       seed: int = 0, tol: Tolerances = Tolerances()) -> bool:
    """The residue verdict and the stacked-span verdict must agree.

    Both sides read one stack matrix at the same horizon: the combinatorial
    side takes the generic rank of its nonzero pattern (full in every window
    iff residues can be matched to distinct blocks), the numerical side the
    windowed SVD span of its rows.
    """
    stacks = _stacks(spectrum, N, horizon, seed)
    # deleting rows never enlarges a maximum matching: the last window decides
    combinatorial = _generic_rank(stacks[len(stacks) // 2:] != 0) == N
    return combinatorial == bool(_window_span_verdict(stacks, tol))


def af_membership(spectrum: IntegerSpectrum, n_max: int, horizon: int = 64):
    """{N <= n_max : the residue criterion holds with a Proven verdict}."""
    out = set()
    for N in range(1, n_max + 1):
        if spectrum_admits_SstarN(spectrum, N, horizon).status == "Proven":
            out.add(N)
    return out


def bounded_block_family_cyclicity(family, N: int,
                                   tol: Tolerances = Tolerances()) -> Verdict:
    """Stacked family criterion: reshape every S*^i f (i < N) and take spans.

    The family is cyclic iff the union of tail spans of
    {reshape(S*^i f) : f in family, 0 <= i < N} is all of C^{d N}.
    Each reshaped spectrum must be lacunary (bounded-block property).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    family, d = _family(family)
    reshaped = []
    for f in family:
        for i in range(N):
            rs = psi_reshape(backward_shift(f, i), N)
            _check_reshaped_lacunary(rs)
            reshaped.append(rs)
    # union enumeration over block indices; for each threshold block q, the
    # span of all stacked coefficients at blocks >= q must be full.  Rows of
    # different members at one block stay separate vectors, so the union is
    # sorted here, never merged by VectorSeries
    keys = np.concatenate([rs.series.exponents for rs in reshaped])
    order = np.argsort(keys, kind="stable")
    rows = np.concatenate([rs.series.coeffs for rs in reshaped])[order]
    if not len(rows):
        return _window_span_verdict(rows, tol)  # NonCyclic: empty enumeration
    all_blocks, starts = np.unique(keys[order], return_index=True)
    hit = first_proper_tail(rows, tol, starts[: len(all_blocks) // 2 + 1])
    if hit is None:
        return Verdict(CYCLIC, "at-horizon")
    return Verdict(NON_CYCLIC, "at-horizon", witness=int(all_blocks[hit[0]]),
                   detail={"dim_tail_span": hit[1], "dim": d * N})
