"""Independent oracles the optimizers are checked against.

Nothing here shares code paths with the seesaw: states come from an
explicit hyperspherical grid, channels act through stacked Kraus tensors,
and trace norms come from batched eigenvalue sums.
"""

import itertools

import numpy as np

from qcdist.simulate import kraus_of


def hyperspherical_grid(dim, n_theta=5, n_phase=6):
    """Deterministic grid of unit vectors in C^dim.

    Magnitude angles run over an inclusive [0, pi/2] grid (so computational
    basis states and uniform superpositions are hit exactly); phases over
    an endpoint-free [0, 2pi) grid; the first amplitude is real.
    """
    thetas = np.linspace(0.0, np.pi / 2, n_theta)
    phases = np.linspace(0.0, 2 * np.pi, n_phase, endpoint=False)
    states = []
    for th in itertools.product(thetas, repeat=dim - 1):
        amps = np.ones(dim)
        for i, t in enumerate(th):
            amps[i] *= np.cos(t)
            amps[i + 1 :] *= np.sin(t)
        if np.abs(amps[1:]).max() < 1e-15:
            states.append(amps.astype(complex))
            continue
        for ph in itertools.product(phases, repeat=dim - 1):
            z = amps.astype(complex)
            z[1:] *= np.exp(1j * np.array(ph))
            states.append(z)
    return np.array(states)


def _apply_ext_batch(kraus, psis, din, ref):
    k = np.stack(kraus)
    mats = psis.reshape(-1, din, ref)
    v = np.einsum("koi,nir->nkor", k, mats)
    rho = np.einsum("nkor,nkps->norps", v, v.conj())
    side = k.shape[1] * ref
    return rho.reshape(-1, side, side)


def grid_max_output_tnorm(ch0, ch1, states=None):
    """Max over grid states psi of tnorm((Phi0 - Phi1) (x) I (psi psi^dag)).

    The reference space has the input dimension; a lower bound on the
    diamond-norm distance that is exact whenever the grid contains an
    optimal input.
    """
    din = ch0.dim_in
    if states is None:
        states = hyperspherical_grid(din * din)
    rho0 = _apply_ext_batch(kraus_of(ch0), states, din, din)
    rho1 = _apply_ext_batch(kraus_of(ch1), states, din, din)
    w = np.linalg.eigvalsh(rho0 - rho1)
    values = np.abs(w).sum(axis=1)
    best = int(np.argmax(values))
    return float(values[best]), states[best]


def kron_entry_oracle(a, b):
    """Kronecker product straight from the definition, entry by entry."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def tnorm_from_eigs(h):
    """Trace norm of a Hermitian matrix as the sum of |eigenvalues|."""
    return float(np.abs(np.linalg.eigvalsh(h)).sum())
