"""Truncated vector-valued power series and the shift operators acting on them.

Everything downstream works with three small value types:

* :class:`VectorSeries` -- a truncated power series with coefficients in C^d,
  stored sparsely as (exponent, coefficient) pairs,
* :class:`Subspace` -- an orthonormal basis of a subspace of C^d,
* :class:`Tolerances` -- the numerical thresholds shared by the whole package.

All operations are pure; series and subspaces are never mutated in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tolerances",
    "VectorSeries",
    "Subspace",
    "backward_shift",
    "first_proper_tail",
    "forward_shift",
    "inner_product",
    "numerical_span",
    "project_vector",
    "scalar_series",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the package.

    tol_rank      relative singular-value cutoff for numerical span/rank
    tol_orth      relative cutoff below which a residual off X_* is zeroed,
                  against max(|a|, 1) for the coefficient a it splits
    tol_unitary   boundary-unitarity tolerance for inner matrix polynomials
    tol_residual  threshold below which an orbit residual counts as zero
    """

    tol_rank: float = 1e-9
    tol_orth: float = 1e-10
    tol_unitary: float = 1e-8
    tol_residual: float = 1e-6

    def __post_init__(self):
        for name in ("tol_rank", "tol_orth", "tol_unitary", "tol_residual"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {v}")


class VectorSeries:
    """Truncated power series sum_k a_k z^{n_k} with coefficients a_k in C^d.

    Zero coefficients are dropped on construction, so the stored exponent
    list is exactly the Fourier spectrum of the truncation.  Exponents are
    kept strictly increasing.

    Attributes:
        dim: ambient coefficient dimension d.
        exponents: int64 array of exponents, strictly increasing.
        coeffs: complex array of shape (n_terms, d).
        truncation_degree: degree up to which the series is trusted.
    """

    __slots__ = ("dim", "exponents", "coeffs", "truncation_degree")

    def __init__(self, dim, exponents, coeffs, truncation_degree=None):
        dim = int(dim)
        if dim < 1:
            raise ValueError("dim must be >= 1")
        exps = np.asarray(exponents, dtype=np.int64)
        cfs = np.asarray(coeffs, dtype=complex)
        if cfs.ndim == 1:
            cfs = cfs.reshape(-1, 1) if dim == 1 else cfs.reshape(1, -1)
        if exps.ndim != 1 or cfs.shape != (exps.shape[0], dim):
            raise ValueError(
                f"shape mismatch: {exps.shape[0]} exponents vs coeffs {cfs.shape}, dim {dim}"
            )
        if np.any(exps < 0):
            raise ValueError("exponents must be nonnegative")
        order = np.argsort(exps, kind="stable")
        exps = exps[order]
        cfs = cfs[order]
        if exps.size and np.any(np.diff(exps) == 0):
            # merge duplicate exponents
            uniq, inv = np.unique(exps, return_inverse=True)
            merged = np.zeros((uniq.size, dim), dtype=complex)
            np.add.at(merged, inv, cfs)
            exps, cfs = uniq, merged
        if not np.all(np.isfinite(cfs.real) & np.isfinite(cfs.imag)):
            raise ValueError("coefficients must be finite")
        keep = np.any(cfs != 0, axis=1)  # a norm can underflow to 0
        exps, cfs = exps[keep], cfs[keep]
        if truncation_degree is None:
            truncation_degree = int(exps[-1]) if exps.size else 0
        truncation_degree = int(truncation_degree)
        if exps.size and truncation_degree < exps[-1]:
            raise ValueError("truncation_degree smaller than the largest exponent")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "coeffs", cfs)
        object.__setattr__(self, "truncation_degree", truncation_degree)

    def __setattr__(self, name, value):
        raise AttributeError("VectorSeries is immutable")

    def __len__(self):
        return int(self.exponents.size)

    def __repr__(self):
        return (
            f"VectorSeries(dim={self.dim}, terms={len(self)}, "
            f"trunc={self.truncation_degree})"
        )

    def __eq__(self, other):
        if not isinstance(other, VectorSeries):
            return NotImplemented
        return (
            self.dim == other.dim
            and np.array_equal(self.exponents, other.exponents)
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def coefficient(self, exponent):
        """Coefficient vector at a given exponent (zero vector if absent)."""
        i = np.searchsorted(self.exponents, exponent)
        if i < len(self) and self.exponents[i] == exponent:
            return self.coeffs[i].copy()
        return np.zeros(self.dim, dtype=complex)

    @property
    def is_zero(self):
        return len(self) == 0

    def norm(self):
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))


def scalar_series(exponents, coeffs, truncation_degree=None):
    """Convenience constructor for a series with scalar (d = 1) coefficients."""
    c = np.asarray(coeffs, dtype=complex).reshape(-1, 1)
    return VectorSeries(1, exponents, c, truncation_degree)


def backward_shift(f: VectorSeries, n: int = 1) -> VectorSeries:
    """Drop the first n coefficients and shift the rest down: sum_{k>=n} a_k z^{k-n}."""
    n = int(n)
    if n < 0:
        raise ValueError("shift must be nonnegative")
    if n == 0:
        return f
    keep = f.exponents >= n
    trunc = max(f.truncation_degree - n, 0)
    return VectorSeries(f.dim, f.exponents[keep] - n, f.coeffs[keep], trunc)


def forward_shift(f: VectorSeries, n: int = 1) -> VectorSeries:
    """Multiply by z^n: exponents increase by n, norm is preserved."""
    n = int(n)
    if n < 0:
        raise ValueError("shift must be nonnegative")
    return VectorSeries(f.dim, f.exponents + n, f.coeffs, f.truncation_degree + n)


def inner_product(f: VectorSeries, g: VectorSeries) -> complex:
    """l^2 pairing sum_k <f_hat(k), g_hat(k)>, conjugate-linear in g."""
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    i = j = 0
    total = 0.0 + 0.0j
    fe, ge = f.exponents, g.exponents
    while i < len(f) and j < len(g):
        if fe[i] == ge[j]:
            total += np.vdot(g.coeffs[j], f.coeffs[i])
            i += 1
            j += 1
        elif fe[i] < ge[j]:
            i += 1
        else:
            j += 1
    return complex(total)


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^d given by an orthonormal basis (columns of ``basis``)."""

    dim_ambient: int
    basis: np.ndarray = field(default=None)  # shape (d, r), orthonormal columns

    def __post_init__(self):
        d = int(self.dim_ambient)
        b = self.basis
        if b is None:
            b = np.zeros((d, 0), dtype=complex)
        b = np.asarray(b, dtype=complex)
        if b.ndim != 2 or b.shape[0] != d:
            raise ValueError(f"basis shape {b.shape} incompatible with ambient dim {d}")
        if b.shape[1] > d:
            raise ValueError("more basis vectors than ambient dimension")
        object.__setattr__(self, "dim_ambient", d)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self):
        return int(self.basis.shape[1])

    @property
    def is_full(self):
        return self.dim == self.dim_ambient


def _family(family):
    """(members, d): a family as a list (one member with a ``dim`` stands
    for itself), nonempty and in one dimension d."""
    family = [family] if hasattr(family, "dim") else list(family)
    if not family:
        raise ValueError("empty family")
    dims = {m.dim for m in family}
    if len(dims) != 1:
        raise ValueError(f"mixed dimensions in family: {sorted(dims)}")
    return family, dims.pop()


def _as_rows(rows):
    """An (n, d) complex array of finite rows; a 1-d or ragged input raises."""
    a = np.asarray(rows, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected an (n, d) array of rows, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("vector entries must be finite")
    return a


def numerical_span(rows, tol: Tolerances = Tolerances()) -> Subspace:
    """Orthonormal basis of the span of the rows, with an SVD rank cutoff.

    ``rows`` is an (n, d) array or a list of n length-d vectors; d is read
    from its second axis, so n = 0 gives the zero subspace of C^d.
    Singular values below ``tol.tol_rank`` times the largest are treated as
    zero.  Deterministic for a fixed row order.
    """
    m = _as_rows(rows)
    d = m.shape[1]
    u, s, _ = np.linalg.svd(m.T, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return Subspace(d)
    rank = int(np.sum(s >= tol.tol_rank * s[0]))
    return Subspace(d, u[:, :rank])


def first_proper_tail(rows, tol: Tolerances, starts, last=None):
    """The first of the nested windows ``rows[starts[i]:]`` not spanning C^d.

    ``rows`` is an (n, d) array or a list of n length-d vectors, and d is
    read from its second axis.  ``starts`` is nondecreasing.  The last
    window is decided by ``last``, its span as the caller computes it (a
    family joins its members' own spans), by default :func:`numerical_span`
    of the window, as ``coefspace.x_star`` decides its window.  The others
    are ranked on unit-length rows (a span ignores row lengths) with the
    fixed cutoff ``tol_rank``, far above the rounding floor of every window.
    By interlacing that rank never grows as rows are dropped, so bisection
    finds the first deficient window with O(log len(starts)) SVDs.

    Returns None when the last window spans C^d, else (index, rank).
    """
    rows = _as_rows(rows)
    dim = rows.shape[1]
    if last is None:
        last = numerical_span(rows[starts[-1]:], tol)
    if last.is_full:
        return None
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    unit = rows / np.where(norms > 0, norms, 1.0)
    lo, hi, hi_rank = 0, len(starts) - 1, last.dim
    while lo < hi:
        mid = (lo + hi) // 2
        s = np.linalg.svd(unit[starts[mid]:], compute_uv=False)
        rank = int(np.sum(s >= tol.tol_rank))
        if rank < dim:
            hi, hi_rank = mid, rank
        else:
            lo = mid + 1
    return hi, hi_rank


def project_vector(v, s: Subspace) -> np.ndarray:
    """Orthogonal projection of v onto s; idempotent and norm-contracting."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (s.dim_ambient,) or not np.isfinite(v).all():
        raise ValueError(f"expected a finite vector of length {s.dim_ambient}, got {v.shape}")
    return s.basis @ (s.basis.conj().T @ v)
