import numpy as np
import pytest

from qcdist import jsonutil
from qcdist.jsonutil import dumps
from qcdist.linalg import (
    SizeCapError,
    complex_pairs,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    psd_sqrt,
    singular_values,
    spectral,
    tensor,
)

from helpers import random_density, random_hermitian, random_unitary
from oracles import kron_entry_oracle


def test_tensor_identity():
    assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_scalar():
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(tensor(np.array([[2.0]]), m), 2 * m)


def test_tensor_entry_formula():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.abs(tensor(a, b) - kron_entry_oracle(a, b)).max() < 1e-12


def test_tensor_associative_bilinear():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
        assert np.abs(tensor(tensor(a, b), c) - tensor(a, tensor(b, c))).max() < 1e-12
        s, t = rng.standard_normal(2)
        assert np.abs(tensor(s * a + t * b, c) - (s * tensor(a, c) + t * tensor(b, c))).max() < 1e-12


def test_tensor_cap():
    with pytest.raises(SizeCapError):
        tensor(np.eye(128), np.eye(64))


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 3)
    xi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    out = partial_trace(tensor(rho, xi), [3, 4], [0])
    assert np.abs(out - rho * np.trace(xi)).max() < 1e-12


def test_partial_trace_maximally_entangled():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    proj = np.outer(phi, phi.conj())
    for keep in ([0], [1]):
        assert np.abs(partial_trace(proj, [2, 2], keep) - np.eye(2) / 2).max() < 1e-15


def test_partial_trace_composes_to_full_trace():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    step = partial_trace(x, [2, 3], [0])
    total = partial_trace(step, [2], [])
    assert abs(complex(total[0, 0]) - np.trace(x)) < 1e-12


def test_partial_trace_shape_error():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), [2, 2], [0])


def test_partial_trace_keep_order():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    swapped = partial_trace(tensor(a, b), [2, 3], [1, 0])
    assert np.abs(swapped - tensor(b, a)).max() < 1e-12


def test_spectral_diag():
    w, v = spectral(np.diag([3.0, 1.0]))
    assert np.allclose(w, [3.0, 1.0])
    assert np.abs(np.abs(v) - np.eye(2)).max() < 1e-12


def test_spectral_pauli_x():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    w, v = spectral(x)
    assert np.allclose(w, [1.0, -1.0])
    plus = np.array([1, 1]) / np.sqrt(2)
    assert abs(abs(plus @ v[:, 0]) - 1.0) < 1e-12


def test_spectral_reconstruction_and_orthonormality():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 8)
    w, v = spectral(h)
    assert np.abs(v @ np.diag(w) @ v.conj().T - h).max() < 1e-10
    assert np.abs(v.conj().T @ v - np.eye(8)).max() < 1e-10
    assert np.all(np.diff(w) <= 1e-12)


def test_spectral_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        spectral(np.array([[0, 1], [0, 0]], dtype=complex))


def test_singular_values_identity():
    assert np.allclose(singular_values(np.eye(5)), np.ones(5))


def test_singular_values_hermitian_abs_eigs():
    assert np.allclose(singular_values(np.diag([2.0, -3.0])), [3.0, 2.0])
    rng = np.random.default_rng(6)
    h = random_hermitian(rng, 5)
    w, _ = spectral(h)
    assert np.abs(singular_values(h) - np.sort(np.abs(w))[::-1]).max() < 1e-10


def test_singular_values_sum_matches_tr_sqrt():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    direct = singular_values(x).sum()
    via_sqrt = np.trace(psd_sqrt(x.conj().T @ x)).real
    assert abs(direct - via_sqrt) < 1e-10


def test_psd_sqrt_closed_forms():
    assert np.abs(psd_sqrt(np.eye(3)) - np.eye(3)).max() < 1e-12
    assert np.abs(psd_sqrt(np.diag([4.0, 9.0])) - np.diag([2.0, 3.0])).max() < 1e-12


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(8)
    rho = random_density(rng, 6)
    s = psd_sqrt(rho)
    assert np.abs(s @ s - rho).max() < 1e-10


def test_psd_sqrt_rejects_negative():
    with pytest.raises(ValueError, match="PSD"):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_matrix_json_roundtrip_exact():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    import json

    from qcdist.jsonutil import dumps

    blob = dumps(matrix_to_json(m))
    back = matrix_from_json(json.loads(blob))
    assert np.array_equal(back, m)


def test_matrix_json_rejects_bad_shapes():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})


SPECIAL_FLOATS = [-0.0, 0.0, 1e-300, -1e-300, 5e-324, 1.0, -3.0, 2.0**60, 1e22,
                  1e300, -1.7976931348623157e308, 0.1, 1 / 3]


@pytest.mark.parametrize("seed", range(4))
def test_number_lists_written_like_the_recursive_writer(monkeypatch, seed):
    rng = np.random.default_rng(40 + seed)
    shape = tuple(int(x) for x in rng.integers(1, 12, size=2))
    parts = rng.standard_normal((2,) + shape) * 10.0 ** rng.integers(-300, 300, size=(2,) + shape)
    parts.reshape(-1)[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[: parts.size]
    rng.shuffle(parts.reshape(-1))
    m = parts[0] + 1j * parts[1]
    obj = {
        "matrix": matrix_to_json(m),
        "pairs": complex_pairs(m[0]),
        "tuple_pairs": [tuple(p) for p in complex_pairs(m[-1])],
        "floats": parts[0].reshape(-1).tolist(),
        "numpy_floats": list(parts[1].reshape(-1)),
        "mixed": [1, 2.0, True, None, [0.5, 1], [[1.0, 2.0, 3.0]]],
        "empty": [],
    }
    fast = dumps(obj)
    # the old per-entry conversion, written by the recursive writer alone
    obj["matrix"]["entries"] = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    monkeypatch.setattr(jsonutil, "_number_list", lambda items: None)
    assert fast == dumps(obj)


EDGE_DOUBLES = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                1e16, 1e17, 9007199254740993.0, 1.7976931348623157e308, -1.7976931348623157e308,
                0.1, 1e-5, 1e-4, 1e23, 0.30000000000000004]


@pytest.mark.parametrize("seed", range(3))
def test_number_lists_read_like_percent_17g_per_value(seed):
    bits = np.random.default_rng(50 + seed).integers(-(2**63), 2**63 - 1, size=20000, dtype=np.int64)
    doubles = bits.view(np.float64)  # every sign, exponent and mantissa
    xs = EDGE_DOUBLES + doubles[np.isfinite(doubles)].tolist()
    assert dumps(xs) == "[" + ",".join("%.17g" % x for x in xs) + "]"
    pairs = [[a, b] for a, b in zip(xs[0::2], xs[1::2])]
    assert dumps(pairs) == "[" + ",".join("[%.17g,%.17g]" % (a, b) for a, b in pairs) + "]"
    assert jsonutil.format_floats(xs[:40], "%.17g,%.17g", " ") == " ".join(
        "%.17g,%.17g" % (a, b) for a, b in zip(xs[0:40:2], xs[1:40:2])
    )


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_number_lists_refuse_non_finite(bad):
    for obj in ([1.0, bad], [[1.0, 0.0], [0.0, bad]]):
        with pytest.raises(ValueError, match="non-finite"):
            dumps(obj)


def test_unitary_conjugation_preserves_spectrum():
    rng = np.random.default_rng(10)
    h = random_hermitian(rng, 4)
    u = random_unitary(rng, 4)
    w1, _ = spectral(h)
    w2, _ = spectral(u @ h @ u.conj().T)
    assert np.abs(w1 - w2).max() < 1e-10
