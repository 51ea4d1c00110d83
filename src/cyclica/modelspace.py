"""Finite Blaschke products with matrix values and their model spaces.

The backward-shift span E_p of a C^d-valued polynomial p with independent
orbit is a model space K_Theta = H^2 (-) Theta H^2, where Theta is an
ordered product of rank-one factors (1 - P) + z P, P = <., x> x, with
dim Ker Theta(0)* = 1.  This module computes the factorization by a peeling
algorithm (extract the constants of the orbit span, deflate, recurse),
assembles and verifies the product, and inverts the construction (factor
vectors -> Theta -> cyclic generator).  Each peeling stage takes one SVD:
its right singular basis gives both the constant and an orthonormal basis
of the constant's complement, and the deflation is an isometry on that
complement, so the basis stays orthonormal without re-orthonormalization.
The product is assembled by one step per factor on all coefficients at
once, Theta_k[m] = Theta_(k-1)[m] (1 - P_k) + Theta_(k-1)[m-1] P_k.

All subspace work happens in the (N+1)*d-dimensional coefficient space of
polynomials of degree at most N; polynomials are stacked with coefficient j
occupying entries j*d .. (j+1)*d - 1.  Two index-built matrices carry it:
the block-Hankel orbit matrix [S*^n p : 0 <= n <= N] (block j of column n is
the coefficient p^(j+n)) and the block-Toeplitz matrix of the truncations of
Theta z^j v (block t of column j*d + v is column v of Theta^(t-j)), whose
columns span Theta H^2 on these degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Tolerances, VectorSeries, numerical_span

__all__ = [
    "MatrixPolynomial",
    "PotapovProduct",
    "DegenerateInputError",
    "NotCyclicGeneratorError",
    "factorize_Ep",
    "verify_potapov",
    "synthesize_from_vectors",
    "kernel_dim_theta0star",
    "model_space_basis",
]


class DegenerateInputError(ValueError):
    """The orbit of the input polynomial is linearly dependent."""


class NotCyclicGeneratorError(ValueError):
    """Peeling found a constants space of dimension != 1."""


@dataclass(frozen=True)
class MatrixPolynomial:
    """sum_m coeffs[m] z^m with d x d complex matrix coefficients."""

    dim: int
    coeffs: np.ndarray  # (M+1, d, d)

    def __init__(self, dim, coeffs):
        d = int(dim)
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 3 or c.shape[1:] != (d, d):
            raise ValueError(f"coefficients must have shape (M+1, {d}, {d})")
        # trim trailing zero coefficients, keeping at least the constant
        last = c.shape[0]
        while last > 1 and np.all(c[last - 1] == 0):
            last -= 1
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "coeffs", c[:last].copy())

    @property
    def degree(self):
        return self.coeffs.shape[0] - 1

    def __call__(self, z):
        """The value at z, or at every point of an array z (shape
        z.shape + (d, d)), by the same power accumulation at each point."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape + (self.dim, self.dim), dtype=complex)
        zp = np.ones_like(z)
        for c in self.coeffs:
            out += c * zp[..., None, None]
            # the scalar product, each operation rounded: numpy's complex
            # multiply of two arrays may fuse them and change the last bit
            nxt = np.empty_like(zp)
            nxt.real = zp.real * z.real - zp.imag * z.imag
            nxt.imag = zp.real * z.imag + zp.imag * z.real
            zp = nxt
        return out


def _factor_norm(x):
    """The norm of a factor vector, or ValueError when it lies outside
    (0, inf): 0 for a zero vector, inf or nan for a non-finite one, and
    also 0 or inf when the squares of finite, nonzero entries underflow or
    overflow."""
    with np.errstate(over="ignore"):
        n = np.linalg.norm(x)
    if not 0 < n < np.inf:
        raise ValueError(f"factor vector must be nonzero and finite, with a norm that "
                         f"neither underflows to 0 nor overflows to inf (norm {n})")
    return n


@dataclass(frozen=True)
class PotapovProduct:
    """Ordered unit factor vectors and the assembled matrix polynomial.

    Factors are stored in assembly order: the first vector's Blaschke factor
    is the leftmost in the matrix product.
    """

    dim: int
    factors: tuple
    assembled: MatrixPolynomial

    def __init__(self, dim, factors):
        d = int(dim)
        factors = list(factors)
        fs = tuple(np.asarray(x, dtype=complex) for x in factors)
        if any(x.shape != (d,) for x in fs):
            raise ValueError("factor vectors must have length dim")
        norms = [_factor_norm(x) for x in factors]
        fs = tuple(x / n for x, n in zip(fs, norms))
        I = np.eye(d, dtype=complex)
        theta = I[None]
        for x in fs:
            # x is already a unit vector, but x / ||x|| can differ from it
            # in the last bit, and the committed factorize reports hold the
            # product of projections onto x / ||x||
            x = x / np.linalg.norm(x)
            P = np.outer(x, x.conj())
            step = np.zeros((len(theta) + 1, d, d), dtype=complex)
            step[:-1] += theta @ (I - P)
            step[1:] += theta @ P
            theta = step
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "factors", fs)
        # trims the trailing zero coefficients, e.g. the top one of
        # orthogonal consecutive factors, where P_(k-1) P_k = 0
        object.__setattr__(self, "assembled", MatrixPolynomial(d, theta))

    @property
    def n_factors(self):
        return len(self.factors)


def _orbit_matrix(p: VectorSeries, N: int) -> np.ndarray:
    """Stacked orbit [S*^n p : 0 <= n <= N]; block j of column n is p^(j+n)."""
    if p.exponents.size and p.exponents[-1] > N:
        raise ValueError("polynomial degree exceeds the stacking degree")
    c = np.zeros((2 * N + 2, p.dim), dtype=complex)  # rows 0..2N, empty at N = -1
    c[p.exponents] = p.coeffs
    j = np.arange(N + 1)
    return c[j[:, None] + j].transpose(0, 2, 1).reshape((N + 1) * p.dim, N + 1)


def _theta_columns(T: np.ndarray, N: int) -> np.ndarray:
    """Degree-(<= N) truncations of Theta z^j v as columns j*d + v.

    Block t of column j*d + v is column v of T[t - j] (zero outside the
    stored coefficients), so the matrix is block-Toeplitz.
    """
    d = T.shape[1]
    padded = np.zeros((len(T) + N + 1, d, d), dtype=complex)
    padded[: len(T)] = T  # negative t - j index the zero tail
    t = np.arange(N + 1)
    blocks = padded[t[:, None] - t]  # [t, j] -> T[t - j]
    return blocks.transpose(0, 2, 1, 3).reshape((N + 1) * d, (N + 1) * d)


def factorize_Ep(p: VectorSeries, tol: Tolerances = Tolerances()) -> PotapovProduct:
    """Peel the orbit span of p into an ordered product of rank-one factors.

    Requires {S*^n p : 0 <= n <= N} independent (N the degree of p).  At
    each stage the constants inside the current orbit span form a line; its
    unit vector is emitted as a factor, the span is deflated by one
    dimension, and the process repeats.  The factor extracted first is the
    leftmost in the assembled product.

    Each stage takes one SVD, of the degree >= 1 part of its orthonormal
    basis B.  The last right singular vector is the constant; the others
    are an orthonormal basis of its complement in span(B), on which
    P g(0) = 0, so the deflation g |-> (1 - P)g + S*(P g) is an isometry
    and maps B's complement columns to the next orthonormal basis.
    """
    if p.is_zero:
        raise DegenerateInputError("zero polynomial")
    d = p.dim
    N = int(p.exponents[-1])
    B, s, _ = np.linalg.svd(_orbit_matrix(p, N), full_matrices=False)
    if s[-1] < tol.tol_rank * s[0]:
        raise DegenerateInputError(
            f"orbit of the polynomial is numerically dependent "
            f"(relative smallest singular value {s[-1] / s[0]:.3e})"
        )
    factors = []
    for _ in range(N + 1):
        r = B.shape[1]
        if N:
            # constants inside span(B): kernel of the degree >= 1 part
            _, sv, vh = np.linalg.svd(B[d:, :], full_matrices=True)
            # B is orthonormal, so these singular values live on an O(1)
            # scale; an absolute cutoff also catches the all-constant case
            # where B[d:] vanishes entirely
            small = sv <= tol.tol_rank * max(float(sv[0]), 1.0)
            null_dim = int(np.sum(small)) + (r - len(sv))
            if null_dim != 1:
                raise NotCyclicGeneratorError(
                    f"constants space has dimension {null_dim} at stage "
                    f"{len(factors)}; the orbit span is not singly generated"
                )
            V = vh.conj().T
        else:
            V = np.ones((1, 1), dtype=complex)  # B's one column is p itself
        e = B[:d] @ V[:, r - 1]  # the coefficient of the constant in span(B)
        e = e / np.linalg.norm(e)
        factors.append(e)
        if r == 1:
            break
        # deflate g |-> (1 - P)g + S*(P g) coefficientwise on all columns at
        # once; stacked matrix-vector products P @ g_j keep the
        # per-coefficient bits
        G = (B @ V[:, : r - 1]).T.reshape(r - 1, N + 1, d)
        PG = (np.outer(e, e.conj()) @ G[..., None])[..., 0]
        G = G - PG
        G[:, :-1] += PG[:, 1:]
        B = G.reshape(r - 1, -1).T
    return PotapovProduct(d, factors)


def kernel_dim_theta0star(theta: MatrixPolynomial,
                          tol: Tolerances = Tolerances()) -> int:
    """Numerical nullity of the adjoint of the constant coefficient."""
    s = np.linalg.svd(theta.coeffs[0].conj().T, compute_uv=False)
    if s.size == 0:
        return theta.dim
    # Theta is boundary-unitary, so Theta(0) lives on an O(1) scale; an
    # absolute cutoff also handles the pure-monomial case Theta(0) ~ 0
    return int(np.sum(s < tol.tol_rank * max(float(s[0]), 1.0)))


def model_space_basis(pp: PotapovProduct, tol: Tolerances = Tolerances()):
    """Orthonormal basis of K_Theta inside polynomials of degree < n_factors.

    K_Theta is the orthocomplement of Theta H^2; on polynomials of degree at
    most N = n_factors - 1 the constraints are the degree-(<= N) truncations
    of Theta z^j v over 0 <= j <= N and basis vectors v.
    """
    d = pp.dim
    n = pp.n_factors
    if n == 0:
        return np.zeros((d, 0), dtype=complex)
    u, s, _ = np.linalg.svd(_theta_columns(pp.assembled.coeffs, n - 1),
                            full_matrices=True)
    # absolute scale: the constraint columns are truncations of the
    # boundary-unitary Theta, so genuine constraints have O(1) norm
    rank = int(np.sum(s >= tol.tol_rank * max(float(s[0]), 1.0))) if s.size else 0
    return u[:, rank:]


def verify_potapov(pp: PotapovProduct, seed: int = 0,
                   tol: Tolerances = Tolerances(), generator: VectorSeries = None):
    """Structural checks on an assembled product; failures live in the report.

    Checks: boundary unitarity at 32 seeded circle points; det Theta equal to
    a unimodular constant times z^{n_factors}; dim Ker Theta(0)* = 1; the
    nested-factor condition (Theta(0) singular with a one-dimensional kernel,
    i.e. the partial product is injective on the orthocomplement of the last
    factor vector); and, when a generator is supplied, orthogonality of its
    orbit to Theta H^2 plus equality of K_Theta with the orbit span.
    """
    rng = np.random.default_rng(seed)
    theta = pp.assembled
    d = pp.dim
    n = pp.n_factors
    report = {}

    defect = 0.0
    for m in theta(np.exp(2j * np.pi * rng.uniform(size=32))):
        defect = max(defect, float(np.abs(m.conj().T @ m - np.eye(d)).max()))
    report["unitarity_defect"] = defect
    report["unitary_on_boundary"] = defect < tol.tol_unitary

    # det Theta = gamma z^n by monomial fit at n + 3 points
    pts = 0.7 * np.exp(2j * np.pi * (np.arange(n + 3) + 0.25) / (n + 3))
    # scalar powers, as numpy squares an array by a differently rounded loop
    gammas = np.linalg.det(theta(pts)) / np.array([z**n for z in pts])
    gamma = complex(np.mean(gammas))
    report["det_gamma"] = gamma
    report["det_monomial_defect"] = float(np.max(np.abs(gammas - gamma))) if n else 0.0
    report["det_gamma_unimodular_defect"] = abs(abs(gamma) - 1.0)
    report["det_ok"] = (
        report["det_monomial_defect"] < tol.tol_unitary
        and report["det_gamma_unimodular_defect"] < tol.tol_unitary
    )

    report["kernel_dim_theta0star"] = kernel_dim_theta0star(theta, tol)
    report["kernel_ok"] = (report["kernel_dim_theta0star"] == 1) if n else (
        report["kernel_dim_theta0star"] == 0
    )

    if n:
        s0 = np.linalg.svd(theta.coeffs[0], compute_uv=False)
        report["nesting_defect"] = float(s0[-1] / max(float(s0[0]), 1.0))
        if n >= 2:
            A = np.eye(d, dtype=complex)
            for x in pp.factors[:-1]:
                A = A @ (np.eye(d) - np.outer(x, x.conj()))
            # the rows of vh after the first span the complement of x
            W = np.linalg.svd(pp.factors[-1].conj()[None, :])[2][1:].conj().T
            sv = np.linalg.svd(A @ W, compute_uv=False)
            report["nesting_margin"] = float(sv[-1]) if sv.size else 1.0
        else:
            report["nesting_margin"] = 1.0
        report["nesting_ok"] = (
            report["nesting_defect"] < 1e-7 and report["nesting_margin"] > tol.tol_rank
        )
    else:
        report["nesting_defect"] = 0.0
        report["nesting_margin"] = 1.0
        report["nesting_ok"] = True

    if generator is not None:
        orbit = _orbit_matrix(generator, n - 1)
        K = model_space_basis(pp, tol)
        O = numerical_span(orbit.T, tol).basis
        # mutual projection defect between K_Theta and the orbit span
        d1 = float(np.linalg.norm(O - K @ (K.conj().T @ O), 2)) if O.size else 0.0
        d2 = float(np.linalg.norm(K - O @ (O.conj().T @ K), 2)) if K.size else 0.0
        report["model_space_defect"] = max(d1, d2)
        report["model_space_ok"] = report["model_space_defect"] < 1e-7
        # orthogonality of the orbit to Theta H^2 on the stored degrees; the
        # orbit scales with the generator and Theta does not, so the defect
        # is judged against the largest orbit-column norm
        W = _theta_columns(theta.coeffs, n - 1)
        maxdot = float(np.abs(W.conj().T @ orbit).max(initial=0.0))
        report["orbit_orthogonality_defect"] = maxdot
        report["orbit_orthogonality_ok"] = (
            maxdot <= 1e-7 * np.linalg.norm(orbit, axis=0).max(initial=0.0))

    report["all_ok"] = all(
        bool(report[k]) for k in report if k.endswith("_ok")
    )
    return report


def synthesize_from_vectors(vectors, seed: int = 0,
                            tol: Tolerances = Tolerances()):
    """Assemble a product from factor vectors and find a cyclic generator.

    The product must be of nested type: its constant coefficient needs a
    one-dimensional kernel.  A generator is drawn as a seeded random
    combination of a model-space basis and accepted once its orbit has full
    rank; the round trip through :func:`factorize_Ep` reproduces the same
    model space.
    """
    vectors = list(vectors)
    if not vectors:
        raise ValueError("need at least one factor vector")
    d = len(np.atleast_1d(vectors[0]))
    pp = PotapovProduct(d, vectors)
    n = pp.n_factors
    nullity = kernel_dim_theta0star(pp.assembled, tol)
    if nullity != 1:
        raise ValueError(
            f"factor vectors violate the nesting condition: Theta(0) has "
            f"kernel dimension {nullity}, need 1"
        )
    K = model_space_basis(pp, tol)
    if K.shape[1] != n:
        raise ValueError(
            f"model space has dimension {K.shape[1]}, expected {n}"
        )
    rng = np.random.default_rng(seed)
    for _ in range(16):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p = VectorSeries(d, range(n), (K @ c).reshape(n, d))  # drops zero blocks
        if p.is_zero or int(p.exponents[-1]) != n - 1:
            continue
        s = np.linalg.svd(_orbit_matrix(p, n - 1), compute_uv=False)
        if s[-1] >= tol.tol_rank * s[0]:
            return pp, p
    raise RuntimeError("no cyclic generator found after 16 seeded draws")
