import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qcdist import jsonutil
from qcdist.jsonutil import dumps
from qcdist.linalg import (
    SizeCapError,
    as_matrix,
    as_state,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    psd_factor,
    psd_sqrt,
    range_spectral,
    singular_values,
    spectral,
    tensor,
)

from helpers import random_density, random_hermitian, random_unitary
from oracles import kron_entry_oracle, percent_17g_json


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


def _low_rank_psd(rng, n, m):
    x = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    a = x @ x.conj().T
    return (a + a.conj().T) / 2


def _residual(a, l):
    return float(np.linalg.norm(a - l @ l.conj().T))


@pytest.mark.parametrize("m", [1, 5, 24])
def test_psd_factor_finds_the_exact_rank(m):
    rng = np.random.default_rng(40 + m)
    a = _low_rank_psd(rng, 24, m)
    l, residual = psd_factor(a)
    assert l.shape == (24, m)
    assert _residual(a, l) <= residual <= 1e-11 * np.abs(a).max()


def test_psd_factor_of_the_zero_matrix_is_empty():
    l, residual = psd_factor(np.zeros((8, 8)))
    assert l.shape == (8, 0) and residual == 0.0


def test_psd_factor_ignores_rounding_noise():
    # eigenvalues of +-1e-17 on top of a rank-3 matrix are rounding, not rank
    rng = np.random.default_rng(41)
    a = _low_rank_psd(rng, 16, 3)
    u = random_unitary(rng, 16)
    noise = u @ np.diag(rng.choice([-1e-17, 1e-17], size=16)) @ u.conj().T
    a = a + (noise + noise.conj().T) / 2
    l, residual = psd_factor(a)
    assert l.shape == (16, 3)
    assert _residual(a, l) <= residual <= 1e-12


def test_psd_factor_residual_bounds_what_is_left():
    # the residual is summed in panels of 64 columns: one at side 16, several at
    # 128 and 512, and a partial last one at 65
    rng = np.random.default_rng(42)
    for n, m in [(6, 2), (16, 9), (32, 4), (64, 12), (65, 9), (128, 40), (512, 32)]:
        a = _low_rank_psd(rng, n, m)
        for cut in (None, 1, m - 1, m):
            l, residual = psd_factor(a, cut)
            assert residual >= _residual(a, l)
            # a factor cut short of the rank does not measure what is left
            assert (residual == np.inf) == (cut is not None and cut < m)
            if residual < np.inf:
                # the rounding allowance (side + 2 rank) eps ||l||_F^2 grows with the
                # trace: on a flat diagonal it is above 1e-11 max|a| at side 512
                allowance = 2 * (n + 2 * m) * np.finfo(float).eps * np.vdot(l, l).real
                assert residual <= 1e-11 * np.abs(a).max() + allowance
        # a negative eigenvalue leaves a residual of at least its size
        b = a - 0.5 * np.eye(n)
        l, residual = psd_factor(b)
        assert residual >= max(_residual(b, l), 0.5)


@pytest.mark.parametrize("n", [16, 65, 128])
def test_psd_factor_residual_shows_an_anti_hermitian_part(n):
    rng = np.random.default_rng(50 + n)
    a = _low_rank_psd(rng, n, 4)
    s = random_hermitian(rng, n) * 1j
    s *= 1e-6 / np.linalg.norm(s)  # anti-Hermitian, of Frobenius norm 1e-6
    low = np.tril(random_hermitian(rng, n), -1)
    low *= np.sqrt(2) * 1e-6 / np.linalg.norm(low)
    # each has an anti-Hermitian part of norm 1e-6: s, or half of a change to one triangle
    for b in (a + s, a + low, a + low.conj().T):
        l, residual = psd_factor(b)
        assert residual >= max(_residual(b, l), 1e-6)


def test_psd_factor_residual_peak_memory():
    # no side^2 array: l, the two panels of a - l l^dagger (64 columns each) and
    # O(side) vectors; l @ l^dagger alone would take side^2 * 16 = 4 MiB
    n, m = 512, 32
    a = _low_rank_psd(np.random.default_rng(52), n, m)
    tracemalloc.start()
    try:
        l, _ = psd_factor(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert l.shape == (n, m)
    assert peak < l.nbytes + 2 * 64 * n * 16 + 32 * n * 16


def test_psd_factor_row_growth_peak_memory():
    # a factor cut at rank 128, as Channel.factor cuts a full-rank J: its rows
    # double from 64 to 128 into one new array, beside the 64 old ones, and no
    # residual is formed; a concatenation with an empty block would hold twice 128
    n, m = 512, 128
    a = _low_rank_psd(np.random.default_rng(53), n, 2 * m)
    tracemalloc.start()
    try:
        l, residual = psd_factor(a, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert l.shape == (n, m) and residual == np.inf
    assert peak < 1.5 * m * n * 16 + 32 * n * 16


def test_psd_factor_is_deterministic():
    rng = np.random.default_rng(43)
    a = _low_rank_psd(rng, 32, 7)
    l0, r0 = psd_factor(a)
    l1, r1 = psd_factor(a.copy())
    assert np.array_equal(l0, l1) and r0 == r1


def test_range_spectral_matches_spectral_on_the_range():
    rng = np.random.default_rng(44)
    f = rng.standard_normal((20, 5)) + 1j * rng.standard_normal((20, 5))
    signs = np.array([1.0, 1.0, -1.0, 1.0, -1.0])
    h = (f * signs) @ f.conj().T
    w, v = range_spectral(f, signs)
    assert w.shape == (5,) and v.shape == (20, 5)
    assert np.all(np.diff(w) <= 0)
    full = spectral(h)[0]
    assert np.abs(w - np.concatenate([full[:3], full[-2:]])).max() < 1e-10
    assert np.abs(v.conj().T @ v - np.eye(5)).max() < 1e-12
    assert np.abs((v * w) @ v.conj().T - h).max() < 1e-10


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


@pytest.mark.parametrize("text", [
    '{"rows": Infinity, "cols": 2, "entries": []}',
    '{"rows": 2, "cols": -Infinity, "entries": []}',
    '{"rows": 1, "cols": 1, "entries": [[%d, 0]]}' % 10**400,
], ids=["rows_inf", "cols_minus_inf", "huge_int_entry"])
def test_matrix_json_refuses_values_that_overflow(text):
    # each raised OverflowError, which the CLI did not catch
    with pytest.raises(ValueError, match="malformed matrix JSON"):
        matrix_from_json(json.loads(text))


SPECIAL_FLOATS = [-0.0, 0.0, 1e-300, -1e-300, 5e-324, 1.0, -3.0, 2.0**60, 1e22,
                  1e300, -1.7976931348623157e308, 0.1, 1 / 3]


@pytest.mark.parametrize("seed", range(4))
def test_number_lists_written_like_the_recursive_writer(seed):
    rng = np.random.default_rng(40 + seed)
    shape = tuple(int(x) for x in rng.integers(1, 12, size=2))
    parts = rng.standard_normal((2,) + shape) * 10.0 ** rng.integers(-300, 300, size=(2,) + shape)
    parts.reshape(-1)[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[: parts.size]
    rng.shuffle(parts.reshape(-1))
    m = parts[0] + 1j * parts[1]
    arrays = {
        "matrix": matrix_to_json(m),
        "row": m[0],
        "column": m[:, -1],  # not contiguous
        "transposed": m.T,
        "empty_array": np.zeros((0, 3), dtype=np.complex128),
    }
    lists = {
        "tuple_pairs": [(float(z.real), float(z.imag)) for z in m[-1]],
        "floats": parts[0].reshape(-1).tolist(),
        "numpy_floats": list(parts[1].reshape(-1)),
        "mixed": [1, 2.0, True, None, [0.5, 1], [[1.0, 2.0, 3.0]]],
        "empty": [],
    }
    fast = dumps({**arrays, **lists})

    def pairs(a):  # the old per-entry conversion, written by the recursive writer
        return [[float(z.real), float(z.imag)] for z in a.reshape(-1)]

    slow = {key: pairs(a) if isinstance(a, np.ndarray) else a for key, a in arrays.items()}
    slow["matrix"] = {**arrays["matrix"], "entries": pairs(m)}
    assert fast == dumps({**slow, **lists})
    assert fast == percent_17g_json({**arrays, **lists})


EDGE_DOUBLES = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                1e16, 1e17, 9007199254740993.0, 1.7976931348623157e308, -1.7976931348623157e308,
                0.1, 1e-5, 1e-4, 1e23, 0.30000000000000004]


@pytest.mark.parametrize("seed", range(3))
def test_number_lists_read_like_percent_17g_per_value(seed):
    bits = np.random.default_rng(50 + seed).integers(-(2**63), 2**63 - 1, size=20000, dtype=np.int64)
    doubles = bits.view(np.float64)  # every sign, exponent and mantissa
    xs = EDGE_DOUBLES + doubles[np.isfinite(doubles)].tolist()
    xs = xs[: len(xs) // 2 * 2]
    assert len(xs) > 2 * jsonutil.CHUNK  # several chunks, and a short last one
    assert dumps(xs) == "[" + ",".join("%.17g" % x for x in xs) + "]"
    pairs = np.array(xs).view(np.complex128)
    assert dumps(pairs) == "[" + ",".join(
        "[%.17g,%.17g]" % (a, b) for a, b in zip(xs[0::2], xs[1::2])
    ) + "]"
    assert "".join(jsonutil.format_floats(np.array(xs))) == ",".join("%.17g" % x for x in xs)
    assert "".join(jsonutil.format_floats(np.array(xs[:40]), "%.17g,%.17g", " ")) == " ".join(
        "%.17g,%.17g" % (a, b) for a, b in zip(xs[0:40:2], xs[1:40:2])
    )


def _formatter_edge_values() -> list[float]:
    """Values where a vectorized %.17g would go wrong first, both signs,
    shuffled so that every chunk mixes them."""
    rng = np.random.default_rng(60)
    # exact ties at the 17th digit: x * 10 or x * 100 ends in .5
    quarters = (2 * rng.integers(2 * 10**15, 9 * 10**15 // 2, 300) + 1) / 4  # [1e15, 2.25e15)
    eighths = (2 * rng.integers(4 * 10**14, 4 * 10**15, 300) + 1) / 8  # [1e14, 1e15)
    tens = np.array([10.0**k for k in range(-323, 309)] + [float(f"1e{k}") for k in range(-323, 309)])
    tens = tens[(tens > 0) & np.isfinite(tens)]
    carries = [9.9999999999999999e16] + [float(f"9.99999999999999999e{k}") for k in range(-300, 300, 7)]
    edges = np.array([1e-250, 1e250, 2.2250738585072014e-308])
    subnormal = rng.integers(1, 2**52, 100).view(np.float64)
    xs = np.concatenate([
        quarters, eighths, tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
        carries, edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf),
        subnormal, [5e-324, 0.0],
    ])
    assert (quarters >= 1e15).all() and (quarters < 2.25e15).all() and (quarters % 0.5 == 0.25).all()
    assert (eighths >= 1e14).all() and (eighths < 1e15).all() and (eighths % 0.25 != 0).all()
    xs = np.concatenate([xs, -xs])
    return xs[rng.permutation(len(xs))].tolist()


FORMATTER_EDGES = _formatter_edge_values()


@pytest.mark.parametrize("n", [
    jsonutil.VECTOR_MIN - 1, jsonutil.VECTOR_MIN, jsonutil.VECTOR_MIN + 1,
    1023, 1024, 1025,  # a part-filled chunk, around a power of two
    jsonutil.CHUNK - 1, jsonutil.CHUNK, jsonutil.CHUNK + 1, len(FORMATTER_EDGES),
])
def test_formatter_edge_values_read_like_percent_17g(n):
    assert len(FORMATTER_EDGES) > 2 * jsonutil.CHUNK
    xs = FORMATTER_EDGES[:n]
    assert "".join(jsonutil.format_floats(np.array(xs))) == ",".join("%.17g" % x for x in xs)
    pairs = xs[: n // 2 * 2]  # the two-field templates take whole items, either side of the cutoff
    items = list(zip(pairs[0::2], pairs[1::2]))
    assert "".join(jsonutil.format_floats(np.array(pairs), "[%.17g,%.17g]")) == ",".join(
        "[%.17g,%.17g]" % item for item in items
    )
    assert "".join(jsonutil.format_floats(np.array(pairs), "%.17g,%.17g", " ")) == " ".join(
        "%.17g,%.17g" % item for item in items
    )
    assert dumps(np.array(pairs).view(np.complex128)) == "[" + ",".join(
        "[%.17g,%.17g]" % item for item in items
    ) + "]"
    # literals so long that one chunk of text is more than PIECE characters
    item, sep = "<" + "x" * 60 + "%.17g>", " | "
    pieces = jsonutil.format_floats(np.array(xs), item, sep)
    assert "".join(pieces) == sep.join(item % x for x in xs)
    assert all(piece.startswith(sep) for piece in pieces[1:])


@pytest.mark.parametrize("n", [131_072, 524_288])
def test_formatter_working_memory_does_not_grow_with_the_array(n):
    # amplify's witness is 131,072 floats, and its emission sets that workload's peak RSS
    rng = np.random.default_rng(70)
    values = rng.standard_normal(n) * 10.0 ** rng.uniform(-20, 1, n)
    jsonutil.format_floats(values[: jsonutil.CHUNK], "[%.17g,%.17g]")  # the tables, built once
    tracemalloc.start()
    try:
        pieces = jsonutil.format_floats(values, "[%.17g,%.17g]")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a chunk's digits, rows of text and temporaries take about 130 bytes per value;
    # an array of flags as long as the input would add n bytes, past the bound at 524,288
    assert peak - sum(map(sys.getsizeof, pieces)) < 192 * jsonutil.CHUNK


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_number_lists_refuse_non_finite(bad):
    objs = (
        [1.0, bad],
        [[1.0, 0.0], [0.0, bad]],
        np.array([1.0, complex(0.0, bad)]),
        {"entries": np.array([[1.0, 0.0], [complex(bad, 0.0), 1.0]])},
    )
    for obj in objs:
        with pytest.raises(ValueError, match="non-finite"):
            dumps(obj)
    # the first non-finite value is the one named, past the cutoff and the first chunk
    values = np.zeros(3 * jsonutil.CHUNK)
    assert len(values) >= jsonutil.VECTOR_MIN
    values[[jsonutil.CHUNK + 5, -1]] = [bad, float("inf") if bad != bad else float("nan")]
    with pytest.raises(ValueError, match=f"non-finite float {bad!r} "):
        jsonutil.format_floats(values)


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        np.complex128,
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
        elements=st.complex_numbers(allow_nan=False, allow_infinity=False),
    )
)
def test_arrays_of_any_shape_read_like_percent_17g_per_value(a):
    assert dumps({"a": a, "t": [a]}) == percent_17g_json({"a": a, "t": [a]})


@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_matrices_and_states_refuse_non_finite_parts(part, bad):
    entry = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
    m = np.eye(2, dtype=np.complex128)
    m[1, 0] = entry
    with pytest.raises(ValueError, match="matrix contains non-finite"):
        as_matrix(m)
    with pytest.raises(ValueError, match="state contains non-finite"):
        as_state(m[:, 0])
    assert as_matrix(np.eye(2)).dtype == np.complex128
    assert as_state([1.0, 1j]).shape == (2,)


def test_unitary_conjugation_preserves_spectrum():
    rng = np.random.default_rng(10)
    h = random_hermitian(rng, 4)
    u = random_unitary(rng, 4)
    w1, _ = spectral(h)
    w2, _ = spectral(u @ h @ u.conj().T)
    assert np.abs(w1 - w2).max() < 1e-10
