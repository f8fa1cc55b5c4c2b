"""Dense complex linear algebra on qubit-scale operators.

Everything downstream (circuit simulation, channel distances, reductions)
is built on the handful of primitives here: Kronecker products, partial
traces, Hermitian spectral decompositions (also on the range of a thin
factor), pivoted Cholesky factors, singular values, and PSD square roots.
Matrices are plain ``numpy.ndarray`` values of dtype complex128; states
are 1-d arrays.  All functions are pure.

The state tolerances TOL_HERM, TOL_TRACE and TOL_PSD live here; the
others in the modules that decide with them (README, "Tolerances").
They held on dense diamond norms of the identity against the depolarizer
at Choi sides 256 and 1024 (gap 9.3e-10 at 1024); ``DIM_CAP`` admits sides
up to 4096, where no run has measured them.
"""

from __future__ import annotations

import math

import numpy as np

TOL_HERM = 1e-9
TOL_PSD = 1e-9
TOL_TRACE = 1e-9

#: Columns of a - l l^dagger that ``psd_factor`` forms at a time to measure its
#: residual: two buffers of _PANEL x side entries instead of one of side^2.
_PANEL = 64

#: Hard cap on any matrix side, and the only one: ``check_cap`` and
#: ``check_wires`` read it when called.  Exceeding it raises SizeCapError,
#: never silent truncation: polarization parameters can explode (see reductions).
DIM_CAP = 4096


class SizeCapError(ValueError):
    """An operation would produce a matrix side above the dimension cap."""


def check_cap(dim: int, context: str = "matrix") -> None:
    """Raise SizeCapError if ``dim`` exceeds ``DIM_CAP``, read at call time."""
    if dim > DIM_CAP:
        raise SizeCapError(
            f"{context} dimension {dim} exceeds the cap {DIM_CAP}; "
            "refusing rather than truncating"
        )


def check_wires(wires: int, context: str = "live wires") -> int:
    """Refuse ``wires`` qubits if their matrix side 2^wires would exceed ``DIM_CAP``.

    Returns the wire limit floor(log2(DIM_CAP)).  The check is arithmetic,
    so callers make it before allocating anything of that width.
    """
    limit = int(math.log2(DIM_CAP))
    if wires > limit:
        raise SizeCapError(
            f"{wires} {context} exceed the cap of {limit} wires (2^{limit} = {DIM_CAP})"
        )
    return limit


def as_matrix(x) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting NaN/Inf entries."""
    m = np.asarray(x, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def as_state(x) -> np.ndarray:
    """Coerce to a 1-d complex128 array, rejecting NaN/Inf entries."""
    v = np.asarray(x, dtype=np.complex128).reshape(-1)
    if not np.isfinite(v).all():
        raise ValueError("state contains non-finite entries")
    return v


def dag(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return x.conj().T


def herm_defect(x: np.ndarray) -> float:
    """Largest absolute entry of x - x^dagger."""
    return float(np.abs(x - dag(x)).max(initial=0.0))


def tensor(a, b) -> np.ndarray:
    """Kronecker product; dimensions multiply, subject to the cap."""
    a = as_matrix(a)
    b = as_matrix(b)
    check_cap(a.shape[0] * b.shape[0], "tensor rows")
    check_cap(a.shape[1] * b.shape[1], "tensor cols")
    return np.kron(a, b)


def partial_trace(x, dims, keep) -> np.ndarray:
    """Trace out all factors of ``x`` not listed in ``keep``.

    ``dims`` are the subsystem dimensions (their product must equal the side
    of the square matrix ``x``).  ``keep`` is a sequence of factor indices;
    the output factors appear in the order given by ``keep``.
    """
    x = as_matrix(x)
    dims = [int(d) for d in dims]
    n = len(dims)
    side = int(np.prod(dims)) if dims else 1
    if x.shape[0] != x.shape[1] or x.shape[0] != side:
        raise ValueError(
            f"shape mismatch: matrix is {x.shape}, subsystem dims {dims} "
            f"imply side {side}"
        )
    keep = list(keep)
    if any(k < 0 or k >= n for k in keep) or len(set(keep)) != len(keep):
        raise ValueError(f"keep indices {keep} invalid for {n} factors")
    t = x.reshape(dims + dims)
    # einsum: traced factors share a row/col letter, kept factors keep both.
    letters = "abcdefghijklmnopqrstuvwxyz"
    if 2 * n > len(letters):
        raise ValueError("too many subsystem factors")
    row = list(letters[:n])
    col = [letters[n + i] if i in keep else letters[i] for i in range(n)]
    out = "".join(row[k] for k in keep) + "".join(col[k] for k in keep)
    res = np.einsum(f"{''.join(row)}{''.join(col)}->{out}", t)
    kept = int(np.prod([dims[k] for k in keep])) if keep else 1
    return res.reshape(kept, kept)


def spectral(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decompose a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` sorted descending and the
    matching orthonormal eigenvectors as columns of ``v``, so that
    ``h == v @ diag(w) @ v.conj().T`` up to reconstruction tolerance.
    The input is symmetrized as (H + H^dagger)/2 before factoring; a
    Hermiticity defect beyond TOL_HERM is an error.
    """
    h = as_matrix(h)
    d = herm_defect(h)
    if d > TOL_HERM:
        raise ValueError(f"matrix is not Hermitian: defect {d:.3e} > {TOL_HERM:.1e}")
    w, v = np.linalg.eigh((h + dag(h)) / 2)
    return w[::-1].copy(), v[:, ::-1].copy()


def psd_factor(a, max_rank: int | None = None) -> tuple[np.ndarray, float]:
    """Pivoted Cholesky factor of a Hermitian positive semidefinite matrix.

    Returns ``(l, residual)`` with ``a ~ l @ l.conj().T`` and
    ``residual >= ||a - l l^dagger||_F``.  Each column pivots on the largest
    diagonal entry of the remaining Schur complement, and the factor stops
    once none exceeds side * eps_mach * max(diag a): below that the
    diagonal is rounding.  So the column count is the rank the
    factorization observes, and costs side * rank^2 to reach; a caller
    that has no use for more than ``max_rank`` columns stops there.  If
    that cuts the factor, with diagonal entries above the stop left, the
    residual is inf, and the side^2 * rank product that would measure it
    is skipped: every caller that passes ``max_rank`` reads a cut factor
    as "not thin" and no further.  Otherwise the residual is the computed
    norm of a - l l^dagger plus (side + 2 rank) eps_mach (||l||_F^2 + that
    norm) for the rounding of forming it (the gamma_k bound for a product,
    Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3).

    The norm is summed over panels of ``_PANEL`` columns of the lower
    triangle: each panel of l l^dagger, from the panel's diagonal block
    down, is one product of l's rows there with l's rows in the panel.
    Below the diagonal block the same panel, conjugated, stands for the
    entries mirrored above the diagonal, and those are compared with a's
    own entries there.  So every entry of a is compared, with half the
    multiply-adds of l l^dagger, and no side^2 array is made: the peak is
    l, two buffers of ``_PANEL`` x side entries and O(side) vectors, beside
    a.  While it is formed, l's rows grow by doubling from 16, each time
    into one new array with the old rows copied in: at most 1.5 times the
    rows of the last doubling, 2^ceil(log2 rank) of them, beside a.  The
    allowance covers the upper triangle too: its entries of l l^dagger
    are the lower triangle's dot products, conjugated, so the
    same bound holds for each of them as computed.  The factorization
    reads ``a`` as Hermitian, its column p as conj(a[p]), but the residual
    compares both triangles, so an anti-Hermitian part of ``a`` shows in
    it, and so does a negative eigenvalue: no l l^dagger comes close to a
    matrix that is not PSD.
    """
    a = as_matrix(a)
    n = a.shape[0]
    eps = np.finfo(float).eps
    d = a.diagonal().real.copy()
    stop = n * eps * max(float(d.max(initial=0.0)), 0.0)
    rows = np.empty((min(n, 16), n), dtype=np.complex128)  # row k holds column k of l
    pivots = np.empty(n, dtype=np.intp)  # an array: indexing by a list converts it each time
    rank = 0
    for k in range(n if max_rank is None else min(n, max_rank)):
        p = int(np.argmax(d))
        if d[p] <= stop:
            break
        if k == len(rows):  # double the rows: the old ones and the new array, never a third
            grown = np.empty((min(2 * k, n), n), dtype=np.complex128)
            grown[:k] = rows
            rows = grown
        # column p of the Schur complement, formed in its row of ``rows``;
        # a is Hermitian, so its column p is conj(a[p])
        col = np.conjugate(a[p], out=rows[k])
        col -= rows[:k, p].conj() @ rows[:k]
        root = math.sqrt(d[p])
        # scaled through its float64 view by a real reciprocal, not by a complex division
        col.view(np.float64)[:] *= 1.0 / root
        col[pivots[:k]] = 0.0  # exact zeros above the diagonal of the pivoted factor
        col[p] = root
        d -= col.real**2 + col.imag**2
        d[p] = 0.0  # earlier pivots stay at 0: col is exactly 0 there
        pivots[k], rank = p, k + 1
    l = rows[:rank].T
    if d.max(initial=0.0) > stop:  # cut at max_rank: what is left is not measured
        return l, math.inf
    r = rows[:rank]  # l^T, C-contiguous: its column slices are BLAS operands as they stand
    prod, diff = np.empty((2, min(n, _PANEL) * n), dtype=np.complex128)
    gap2 = 0.0
    for s in range(0, n, _PANEL):
        e = min(s + _PANEL, n)
        w = e - s
        # columns s:e of l l^dagger from row s down; only the panel's rows of l are conjugated
        panel = prod[: (n - s) * w].reshape(n - s, w)
        np.matmul(r[:, s:].T, r[:, s:e].conj(), out=panel)
        low = np.subtract(panel, a[s:, s:e], out=diff[: (n - s) * w].reshape(n - s, w))
        gap2 += float(np.vdot(low, low).real)
        # below the diagonal block, the conjugated panel is rows s:e of l l^dagger right of
        # that block, transposed
        up = np.conjugate(panel[w:], out=diff[: (n - e) * w].reshape(n - e, w))
        up -= a[s:e, e:].T
        gap2 += float(np.vdot(up, up).real)
    fro = math.sqrt(gap2)
    fro2 = float(np.vdot(r, r).real)
    return l, fro + (n + 2 * rank) * eps * (fro + fro2)


def range_spectral(f: np.ndarray, signs=None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of F diag(signs) F^dagger on the range of F.

    For F of side x m with m below the side: a thin QR F = Q R, and
    :func:`spectral` of the m x m core R diag(signs) R^dagger, whose
    eigenvectors Q lifts back.  Returns ``(w, Q w_vecs)`` sorted descending
    as :func:`spectral` does, one pair per column of F; ``signs`` defaults
    to all ones, F F^dagger.
    """
    q, r = np.linalg.qr(f)
    w, v = spectral((r if signs is None else r * signs) @ dag(r))
    return w, q @ v


def singular_values(x) -> np.ndarray:
    """Singular values of ``x``, sorted descending (count = min(rows, cols))."""
    return np.linalg.svd(as_matrix(x), compute_uv=False)


def psd_sqrt(p) -> np.ndarray:
    """Hermitian PSD square root.

    Eigenvalues within TOL_PSD of zero are clamped to zero before the
    square root (numerical PSD drift from channel composition is
    expected); an eigenvalue below -TOL_PSD is an error.
    """
    w, v = spectral(p)
    if w[-1] < -TOL_PSD:
        raise ValueError(
            f"matrix is not PSD: eigenvalue {w[-1]:.3e} below -{TOL_PSD:.1e}"
        )
    w = np.clip(w, 0.0, None)
    r = (v * np.sqrt(w)) @ dag(v)
    return (r + dag(r)) / 2


def matrix_to_json(m) -> dict:
    """Repo-wide matrix JSON object: rows, cols, row-major [re, im] pairs.

    ``entries`` is the complex array itself, which ``jsonutil`` writes as
    those pairs; the standard ``json`` module cannot serialize it.
    """
    m = as_matrix(m)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": m,
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`; exact up to decimal parsing.
    Only JSON integers are sizes, and only JSON numbers entry parts."""
    try:
        rows, cols = obj["rows"], obj["cols"]
        entries = list(obj["entries"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if type(rows) is not int or type(cols) is not int:
        raise ValueError(f"malformed matrix JSON: rows {rows!r} and cols {cols!r} must be integers")
    if rows < 0 or cols < 0 or len(entries) != rows * cols:
        raise ValueError(
            f"matrix JSON has {len(entries)} entries, expected {rows}x{cols}"
        )
    check_cap(max(rows, cols, 1), "matrix JSON")
    try:
        # not a bool, and not a string: "10" would unpack as the pair "1", "0"
        if any(type(x) not in (int, float) for pair in entries for x in pair):
            raise TypeError("a part is not a JSON number")
        flat = np.array([complex(re, im) for re, im in entries], dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: float(10**400)
        raise ValueError(f"malformed matrix JSON: entries must be [re, im] pairs ({exc})") from exc
    return as_matrix(flat.reshape(rows, cols))
