import json
import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm as scipy_expm
from harness import CONFIG_DIR, traced_peak
from test_acceptance import interior_level

from bohm_squeeze import fockalg as fa


@pytest.fixture(scope="module")
def spec24():
    return fa.FockSpaceSpec(24)


@pytest.fixture(scope="module")
def spec40_direct_nu1():
    # shared by the truncation-law and factorization tests
    spec = fa.FockSpaceSpec(40)
    return spec, fa.two_mode_squeeze_direct(1.0, spec)


# ---------------------------------------------------------------------------
# dense reference: ladder operators on the (n_max + 1)^2 product basis


def dense_ladder(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation operators (a, b) = (A1 x I, I x A1), <n-1|A1|n> = sqrt(n)."""
    one = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1)
    eye = np.eye(n_max + 1)
    return np.kron(one, eye), np.kron(eye, one)


def dense_index(n_max: int, n_a: int, n_b: int) -> int:
    """Flat index of |n_a, n_b> (n_a major)."""
    return n_a * (n_max + 1) + n_b


def sector_states(n_max: int, d: int) -> list[int]:
    """Dense indices of sector d's states, by position j = min(n_a, n_b)."""
    return [dense_index(n_max, j + max(d, 0), j + max(-d, 0)) for j in range(n_max + 1 - abs(d))]


def to_dense(op: fa.FockOperator) -> np.ndarray:
    """Assemble sector storage into the dense |n_a, n_b> matrix, zero between sectors."""
    n_max = op.spec.n_max
    out = np.zeros(((n_max + 1) ** 2,) * 2)
    for d in range(-n_max, n_max + 1):
        idx = sector_states(n_max, d)
        out[np.ix_(idx, idx)] = op.entries[d + n_max, : len(idx), : len(idx)]
    return out


def pair_exponential(f: float, spec: fa.FockSpaceSpec) -> np.ndarray:
    """exp(f a+ b+) on every sector, scaled from the truncation's table as the factored route does."""
    n_max = spec.n_max
    table = spec._pair_table[np.abs(np.arange(-n_max, n_max + 1))]
    return fa._scale_pair_table(table, fa._pair_powers(f, n_max + 1))


def identity_operator(spec: fa.FockSpaceSpec) -> np.ndarray:
    return np.broadcast_to(np.eye(spec.n_max + 1), spec.sector_shape)


def test_minimal_ladder_matrix():
    a, b = dense_ladder(1)
    # A1 is 2x2 with sqrt(1) at (0, 1); a = A1 x I
    expected_a = np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    np.testing.assert_array_equal(a, expected_a)
    expected_b = np.kron(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
    np.testing.assert_array_equal(b, expected_b)


def test_vacuum_annihilation():
    a, b = dense_ladder(6)
    vac = np.zeros(a.shape[0])
    vac[dense_index(6, 0, 0)] = 1.0
    assert np.all(a @ vac == 0.0)
    assert np.all(b @ vac == 0.0)


def test_commutator_is_identity_below_truncation():
    a, _ = dense_ladder(9)
    comm = a @ a.T - a.T @ a
    # rows/cols not touching the top single-mode level n_a = 9
    keep = [dense_index(9, na, nb) for na in range(9) for nb in range(10)]
    np.testing.assert_allclose(comm[np.ix_(keep, keep)], np.eye(len(keep)), atol=1e-13)


def test_modes_commute():
    a, b = dense_ladder(5)
    np.testing.assert_array_equal(a @ b, b @ a)


@pytest.mark.parametrize("n_max", range(1, 9))
def test_sector_operators_match_dense_reference(n_max):
    # the sector-built exponentials against scipy's on the dense kron
    # generators; zeros between sectors are checked too.  The factored
    # route's middle generator is the number operator n_a + n_b + 1, which
    # a a+ + b+ b is untruncated
    spec = fa.FockSpaceSpec(n_max)
    a, b = dense_ladder(n_max)
    ad, bd = a.T, b.T
    number = ad @ a + np.eye(len(a)) + bd @ b
    for nu in [-0.6, 0.3, 1.0]:
        direct = scipy_expm(nu * (ad @ bd - a @ b))
        np.testing.assert_allclose(to_dense(fa.two_mode_squeeze_direct(nu, spec)), direct, rtol=0, atol=1e-13)
        f = fa.disentangle_closed_form(nu)
        factored = scipy_expm(f.f1 * ad @ bd) @ scipy_expm(f.f2 * number) @ scipy_expm(f.f3 * a @ b)
        np.testing.assert_allclose(to_dense(fa.two_mode_squeeze_factored(nu, spec)), factored, rtol=0, atol=1e-13)


PAIR_FACTORS = [0.0, 0.25, -0.25, math.tanh(1.0), -math.tanh(1.0), 1.0, -1.0]


@pytest.mark.parametrize("n_max", [*range(1, 9), 24, 40])
def test_pair_exponential_matches_dense_sector_blocks(n_max):
    # closed-form elements against scipy's exponential of each dense sector
    # block of f a+ b+; padding rows and columns hold the identity
    a, b = dense_ladder(n_max)
    pairs = a.T @ b.T
    for f in PAIR_FACTORS:
        stack = pair_exponential(f, fa.FockSpaceSpec(n_max))
        for d in range(-n_max, n_max + 1):
            idx = sector_states(n_max, d)
            size = len(idx)
            ref = scipy_expm(f * pairs[np.ix_(idx, idx)])
            block = stack[d + n_max]
            assert np.abs(block[:size, :size] - ref).max() <= 1e-12 * np.abs(ref).max(), (f, d)
            np.testing.assert_array_equal(block[size:, :], np.eye(n_max + 1)[size:, :])
            np.testing.assert_array_equal(block[:, size:], np.eye(n_max + 1)[:, size:])


def test_pair_exponential_at_zero_is_identity():
    for n_max in [1, 24, fa.N_MAX_LIMIT]:
        identity = np.broadcast_to(np.eye(n_max + 1), (2 * n_max + 1, n_max + 1, n_max + 1))
        np.testing.assert_array_equal(pair_exponential(0.0, fa.FockSpaceSpec(n_max)), identity)


@pytest.mark.parametrize("f", [1.0, -1.0])
def test_pair_exponential_at_truncation_limit(f):
    # largest element C(160, 80) ~ 9.2e46: finite and silent; the vacuum
    # column of sector 0 is <k, k| exp(f a+ b+) |0, 0> = f^k, exactly
    n_max = fa.N_MAX_LIMIT
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack = pair_exponential(f, fa.FockSpaceSpec(n_max))
    assert np.all(np.isfinite(stack))
    np.testing.assert_array_equal(stack[n_max, :, 0], f ** np.arange(n_max + 1))


@pytest.mark.parametrize("f", [0.46, -0.76, 1e-3])
def test_pair_exponential_matches_mpmath_at_truncation_limit(f):
    # Truax's closed form in 40 digits at n_max = 160, every element of every
    # tenth column of five sectors: within (k + 2) eps relative, k the
    # sub-diagonal, and within the smallest subnormal where the exact value
    # is subnormal
    n_max = fa.N_MAX_LIMIT
    stack = pair_exponential(f, fa.FockSpaceSpec(n_max))
    eps = np.finfo(float).eps
    past_underflow = 0
    with mpmath.workdps(40):
        factorial = [mpmath.factorial(i) for i in range(n_max + 1)]
        power = [mpmath.mpf(f) ** k for k in range(n_max + 1)]
        for d in [0, 1, -37, 80, n_max]:
            size = n_max + 1 - abs(d)
            for j in range(0, size, 10):
                n_a, n_b = j + max(d, 0), j + max(-d, 0)
                for k in range(size - j):
                    exact = power[k] / factorial[k] * mpmath.sqrt(
                        factorial[n_a + k] * factorial[n_b + k] / (factorial[n_a] * factorial[n_b])
                    )
                    value = stack[d + n_max, j + k, j]
                    assert abs(value - exact) <= (k + 2) * eps * abs(exact) + 2.0**-1074, (d, j, k)
                    past_underflow += abs(f) ** k < np.finfo(float).tiny <= abs(value)
    if f == 1e-3:
        # f^k is subnormal from k = 103 on; these elements are normal and
        # keep their digits
        assert past_underflow > 100
    else:
        assert past_underflow == 0


def test_factored_route_needs_no_matrix_exponential(monkeypatch):
    # a fresh spec, so no cached direct-route spectrum can hide a call
    spec = fa.FockSpaceSpec(24)
    expected = fa.two_mode_squeeze_factored(0.5, spec).entries

    def refuse(m, **kwargs):
        raise AssertionError("the factored route called a decomposition")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    np.testing.assert_array_equal(fa.two_mode_squeeze_factored(0.5, spec).entries, expected)
    np.testing.assert_array_equal(fa.two_mode_squeeze_factored(0.5, fa.FockSpaceSpec(24)).entries, expected)


def test_interior_block_matches_dense_sub_matrix():
    spec = fa.FockSpaceSpec(6)
    op = fa.two_mode_squeeze_factored(0.7, spec)
    idx = [dense_index(6, na, nb) for na in range(4) for nb in range(4)]
    sub = to_dense(op)[np.ix_(idx, idx)]
    block = fa.interior_block(op, 3)
    assert block.shape == (7, 4, 4)
    assert np.linalg.norm(block) == pytest.approx(np.linalg.norm(sub), rel=1e-14)
    assert np.count_nonzero(block) == np.count_nonzero(sub)


# ---------------------------------------------------------------------------
# two-mode squeeze, direct


def sector_generator(nu: float, n_max: int, d: int) -> np.ndarray:
    """Dense block of nu (a+ b+ - a b) on sector d's n_max + 1 - |d| states."""
    size = n_max + 1 - abs(d)
    block = np.zeros((size, size))
    for j in range(size - 1):
        n_a, n_b = j + max(d, 0), j + max(-d, 0)
        block[j + 1, j] = math.sqrt((n_a + 1) * (n_b + 1))
    return nu * (block - block.T)


@pytest.mark.parametrize(
    "n_max, nu", [(24, 0.1), (24, 0.25), (24, 0.5), (24, 0.75), (24, 1.0), (60, 0.5), (4, -2.0)]
)
def test_direct_matches_scipy_sector_blocks(n_max, nu):
    entries = fa.two_mode_squeeze_direct(nu, fa.FockSpaceSpec(n_max)).entries
    for d in range(-n_max, n_max + 1):
        size = n_max + 1 - abs(d)
        ref = scipy_expm(sector_generator(nu, n_max, d))
        assert np.abs(entries[d + n_max, :size, :size] - ref).max() <= 1e-12, d
    # orthogonal to rounding on every sector, padding included
    assert np.abs(entries.swapaxes(1, 2) @ entries - np.eye(n_max + 1)).max() <= 1e-13


@pytest.mark.parametrize("n_max", [1, 2, 7, 24, 60])
@pytest.mark.parametrize("nu", [0.5, -2.0])
def test_direct_padding_is_identity(n_max, nu):
    # padding eigenvalues are exactly 0, so no phase reaches the padding
    entries = fa.two_mode_squeeze_direct(nu, fa.FockSpaceSpec(n_max)).entries
    eye = np.eye(n_max + 1)
    for d in range(-n_max, n_max + 1):
        size = n_max + 1 - abs(d)
        np.testing.assert_array_equal(entries[d + n_max, size:, :], eye[size:, :])
        np.testing.assert_array_equal(entries[d + n_max, :, size:], eye[:, size:])


@pytest.mark.parametrize("n_max, nu", [(24, 0.5), (60, 1.0), (3, -0.7)])
def test_direct_mirror_is_bitwise_copy(n_max, nu):
    # sector -d is a copy of sector d, not computed, in both routes and at
    # the full and the interior level
    spec = fa.FockSpaceSpec(n_max)
    for route in [fa.two_mode_squeeze_direct, fa.two_mode_squeeze_factored]:
        for level in [n_max, n_max // 2]:
            entries = route(nu, spec, level=level).entries
            for d in range(1, level + 1):
                np.testing.assert_array_equal(entries[level - d], entries[level + d])
    # the one-state sector d = n_max is the identity, from its all-zero block
    np.testing.assert_array_equal(fa.two_mode_squeeze_direct(nu, spec).entries[2 * n_max], np.eye(n_max + 1))


def test_direct_zero_squeeze_is_identity(spec24):
    op = fa.two_mode_squeeze_direct(0.0, spec24)
    np.testing.assert_array_equal(op.entries, identity_operator(spec24))


@pytest.mark.parametrize("n_max", [4, 24])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_direct_guard_at_predicted_orthogonality_defect(n_max, sign):
    # the generator's 1-norm is |nu| times its largest column sum (7 at
    # n_max = 4); the route raises once 2 (norm 2^-52)^2, twice its
    # predicted orthogonality defect, passes the bound.  Just below, the
    # measured defect stays within the bound and no entry exceeds 1
    spec = fa.FockSpaceSpec(n_max)
    column_sum = max(np.abs(sector_generator(1.0, n_max, d)).sum(axis=0).max() for d in range(n_max + 1))
    edge = 2.0**52 * math.sqrt(fa.DIRECT_DEFECT_BOUND / 2.0) / column_sum
    entries = fa.two_mode_squeeze_direct(sign * 0.999 * edge, spec).entries
    assert np.abs(entries).max() <= 1.0 + 1e-12
    defect = np.abs(entries.swapaxes(1, 2) @ entries - np.eye(n_max + 1)).max()
    assert defect <= fa.DIRECT_DEFECT_BOUND
    for nu in [1.001 * edge, 1e11, 1e16, 1e18, 1e200, 1e308, math.nan]:
        with pytest.raises(fa.ConvergenceError, match="1-norm"):
            fa.two_mode_squeeze_direct(sign * nu, spec)


def test_direct_guard_norm_is_the_largest_column_sum():
    # the guard's 1-norm per unit nu, 2 n_max - 1, is bitwise the largest
    # column sum of |G| over every sector, G's couplings being sqrt(n_a n_b)
    # at (n_a, n_b) = (j + d, j), j = 1 .. n_max - d
    for n_max in range(fa.N_MAX_LIMIT + 1):
        d, j = np.arange(n_max + 1)[:, None], np.arange(1, n_max + 1)
        coupling = np.where(j <= n_max - d, np.sqrt((j + d) * j), 0.0)
        # column j sums the couplings above and below it, c_0 = c_(n_max + 1) = 0
        ends = np.pad(coupling, ((0, 0), (1, 1)))
        column_sum = (ends[:, :-1] + ends[:, 1:]).max(initial=0.0)
        assert max(2 * n_max - 1, 0) == column_sum, n_max


@pytest.mark.parametrize("n_max", [1, 24, 160])
def test_direct_guard_edge_needs_no_route(monkeypatch, n_max):
    # the guard trips between 0.999 and 1.001 of its edge, and reads no
    # spectrum to judge: no decomposition runs
    def refuse(m, **kwargs):
        raise AssertionError("the guard called a decomposition")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    edge = 2.0**52 * math.sqrt(fa.DIRECT_DEFECT_BOUND / 2.0) / (2 * n_max - 1)
    for sign in [1.0, -1.0]:
        fa._check_direct(sign * 0.999 * edge, n_max)
        with pytest.raises(fa.ConvergenceError, match="1-norm"):
            fa._check_direct(sign * 1.001 * edge, n_max)


def test_direct_guard_at_vacuum_space():
    # at n_max = 0 the generator is 0: no finite nu trips the guard, and
    # the route is the identity; its SVD block is 0 x 1, so a chunk's
    # (nu, sector) pair holds no bytes
    for nu in [0.5, -1e16, 1e308, -1.7976931348623157e308]:
        fa._check_direct(nu, 0)
    for nu in [math.inf, -math.inf, math.nan]:
        with pytest.raises(fa.ConvergenceError, match="1-norm"):
            fa._check_direct(nu, 0)
    spec = fa.FockSpaceSpec(0)
    assert spec._spectrum[0].shape == (1, 0)
    op = fa.two_mode_squeeze_direct([0.5, -1e16, 1e308], spec)
    np.testing.assert_array_equal(op.entries, np.ones((3, 1, 1, 1)))


def test_direct_vacuum_column_matches_pair_law(spec40_direct_nu1):
    # <n,n|U|0,0> = tanh(nu)^n / cosh(nu) well below the truncation edge
    spec, direct = spec40_direct_nu1
    col = fa.vacuum_column(direct)
    ns = np.arange(13)
    expected = np.tanh(1.0) ** ns / np.cosh(1.0)
    assert np.abs(col[ns, ns] - expected).max() < 1e-10


def test_direct_vacuum_column_pair_structure(spec40_direct_nu1):
    # the generator creates and destroys pairs only, so <m,n|U|0,0> = 0
    # for m != n (exactly, by the preserved mode-number difference)
    spec, direct = spec40_direct_nu1
    col = fa.vacuum_column(direct).copy()
    np.fill_diagonal(col, 0.0)
    assert np.abs(col).max() < 1e-10


def test_direct_route_holds_four_operators_at_most():
    # on a fresh spec: the result, the eigenvectors and Z Z^T, about 2
    # operators
    spec = fa.FockSpaceSpec(40)
    op, peak = traced_peak(lambda: fa.two_mode_squeeze_direct(0.5, spec))
    assert peak < 4.5 * op.entries.nbytes


def test_direct_route_reuses_its_spectrum_memory():
    # a second nu on the same spec computes no decomposition, so it peaks
    # below the first by at least the singular vectors it reuses
    spec = fa.FockSpaceSpec(40)
    peaks = [traced_peak(lambda: fa.two_mode_squeeze_direct(nu, spec))[1] for nu in [0.5, 0.75]]
    _, u, v = spec._spectrum
    assert peaks[1] + u.nbytes + v.nbytes <= peaks[0]


# 0.0 and -0.0 give the identity; -1.3 is a negative squeeze
RUN_NU = [0.5, 0.0, -0.0, -1.3, 0.25]


@pytest.mark.parametrize("n_max", [24, 60])
@pytest.mark.parametrize("route", [fa.two_mode_squeeze_direct, fa.two_mode_squeeze_factored])
def test_run_of_nu_is_bitwise_the_single_calls(monkeypatch, n_max, route):
    # a sequence of nu gives one operator with a leading nu axis, each slice
    # bitwise what a call with that nu alone gives (-0.0 included), with
    # every nu of the run in one chunk of the direct route, two a chunk (a
    # remainder of one) and three sectors of one nu a chunk
    spec = fa.FockSpaceSpec(n_max)
    for level in [n_max, n_max // 2]:
        alone = np.stack([route(nu, spec, level=level).entries for nu in RUN_NU])
        assert alone.shape == (len(RUN_NU), *fa.FockSpaceSpec(level).sector_shape)
        sectors, pair_bytes = level + 1, 8 * (level + 1) * ((n_max + 1) // 2)
        for chunk_bytes in [len(RUN_NU) * sectors * pair_bytes, 2 * sectors * pair_bytes, 3 * pair_bytes]:
            monkeypatch.setattr(fa, "DIRECT_CHUNK_BYTES", chunk_bytes)
            run = route(RUN_NU, spec, level=level)
            assert run.spec == fa.FockSpaceSpec(level)
            assert run.entries.tobytes() == alone.tobytes()
        monkeypatch.undo()


def test_direct_matches_scipy_on_the_interior_at_the_storage_bound():
    # the parity route on the level-80 block at n_max = 160, against scipy's
    # expm of each sector's generator: within 1e-13 (3.8e-14 at most
    # measured for nu = 0.25, 0.5, 1 and -0.75), and the whole operator
    # orthogonal within 1e-13 (7.8e-15 measured)
    spec = fa.FockSpaceSpec(160)
    for nu in [0.5, -0.75]:
        block = fa.two_mode_squeeze_direct(nu, spec, level=80).entries
        for d in range(81):
            size = 81 - d
            ref = scipy_expm(sector_generator(nu, 160, d))[:size, :size]
            assert np.abs(block[80 + d, :size, :size] - ref).max() <= 1e-13, (nu, d)
        entries = fa.two_mode_squeeze_direct(nu, spec).entries
        assert np.abs(entries.swapaxes(1, 2) @ entries - np.eye(161)).max() <= 1e-13


CONFIG_NU = json.loads((CONFIG_DIR / "fock.json").read_text())["nu_values"]


@pytest.mark.parametrize("n_max, nu_values", [(24, CONFIG_NU), (60, [0.3, -1.7, 2.0])])
@pytest.mark.parametrize("route", [fa.two_mode_squeeze_direct, fa.two_mode_squeeze_factored])
def test_spec_reused_across_nu_is_bitwise_fresh(n_max, nu_values, route):
    # the cached sector structure carries nothing from one nu to the next
    shared = fa.FockSpaceSpec(n_max)
    for nu in nu_values:
        np.testing.assert_array_equal(route(nu, shared).entries, route(nu, fa.FockSpaceSpec(n_max)).entries)


def test_cached_sector_structure_is_read_only():
    spec = fa.FockSpaceSpec(6)
    cached = [spec._pair_table, *spec._spectrum]
    assert len(cached) == 4
    for a in cached:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0


def test_factored_route_holds_three_operators_at_most():
    # the raising factor, the lowering factor scaled in place by the middle
    # one, and their product
    spec = fa.FockSpaceSpec(80)
    op, peak = traced_peak(lambda: fa.two_mode_squeeze_factored(0.5, spec))
    assert peak < 3.25 * op.entries.nbytes


def test_factored_route_peaks_at_result_and_one_chunk():
    # with the table built: the result, one chunk of each factor, and the
    # n x n power tables and middle factor (0.04 operators at n_max = 80)
    spec = fa.FockSpaceSpec(80)
    spec._pair_table
    op, peak = traced_peak(lambda: fa.two_mode_squeeze_factored(0.5, spec))
    chunk = fa.DIRECT_CHUNK_BYTES // op.entries[0].nbytes
    assert chunk < len(op.entries)
    assert peak < op.entries.nbytes + 2 * chunk * op.entries[0].nbytes + 0.1 * op.entries.nbytes


@pytest.mark.parametrize("n_max, nu", [(6, 0.7), (24, -0.4), (24, 1e-3)])
def test_factored_chunks_are_bitwise_one_product(monkeypatch, n_max, nu):
    # the route forms the n_max + 1 sectors d >= 0, and three sectors a
    # chunk leave a remainder of one sector of 7 and of 25; every chunk's
    # product equals the one product over all sectors of the raising
    # factor, scaled by the middle one, and the lowering factor
    spec = fa.FockSpaceSpec(n_max)
    f = fa.disentangle_closed_form(nu)
    d, j = np.arange(-n_max, n_max + 1)[:, None], np.arange(n_max + 1)
    n_a, n_b = j + np.maximum(d, 0), j + np.maximum(-d, 0)
    # the number operator n_a + n_b + 1 at each state, 0 on padding
    number = np.where(j <= n_max - np.abs(d), n_a + n_b + 1, 0)
    raising = pair_exponential(f.f1, spec) * np.exp(f.f2 * number)[:, None, :]
    lowering = pair_exponential(f.f3, spec).swapaxes(1, 2).copy()
    whole = raising @ lowering
    sector_bytes = 8 * (n_max + 1) ** 2
    assert (n_max + 1) % 3 == 1
    for chunk_bytes in [(n_max + 1) * sector_bytes, 3 * sector_bytes + 8, sector_bytes]:
        monkeypatch.setattr(fa, "DIRECT_CHUNK_BYTES", chunk_bytes)
        np.testing.assert_array_equal(fa.two_mode_squeeze_factored(nu, spec).entries, whole)


def test_factored_route_reads_each_function(monkeypatch):
    # f1, f2 and f3 come from disentangle_closed_form with no relation
    # between them assumed: three unrelated values give the product of the
    # three dense exponentials
    n_max = 4
    a, b = dense_ladder(n_max)
    ad, bd = a.T, b.T
    f1, f2, f3 = 0.3, -0.1, 0.2
    monkeypatch.setattr(fa, "disentangle_closed_form", lambda nu: fa.DisentangleFunctions(f1, f2, f3))
    number = ad @ a + np.eye(len(a)) + bd @ b
    dense = scipy_expm(f1 * ad @ bd) @ scipy_expm(f2 * number) @ scipy_expm(f3 * a @ b)
    factored = fa.two_mode_squeeze_factored(0.0, fa.FockSpaceSpec(n_max))
    np.testing.assert_allclose(to_dense(factored), dense, rtol=0, atol=1e-13)


def test_direct_is_orthogonal_on_interior(spec24):
    op = fa.two_mode_squeeze_direct(0.5, spec24)
    prod = op.entries.swapaxes(1, 2) @ op.entries
    interior = fa.interior_block(fa.FockOperator(spec24, prod), 12)
    eye = fa.interior_block(fa.FockOperator(spec24, identity_operator(spec24)), 12)
    np.testing.assert_allclose(interior, eye, atol=1e-8)


# ---------------------------------------------------------------------------
# factored form


def test_factored_zero_squeeze_is_identity(spec24):
    op = fa.two_mode_squeeze_factored(0.0, spec24)
    np.testing.assert_allclose(op.entries, identity_operator(spec24), atol=1e-15)


def test_factored_interior_block_is_truncation_independent():
    # raising/lowering paths that start and end at levels <= k never touch
    # the truncation edge, so the interior block must not depend on n_max
    f24 = fa.two_mode_squeeze_factored(1.0, fa.FockSpaceSpec(24))
    f32 = fa.two_mode_squeeze_factored(1.0, fa.FockSpaceSpec(32))
    b24 = fa.interior_block(f24, 12)
    b32 = fa.interior_block(f32, 12)
    assert np.abs(b24 - b32).max() < 1e-11


@pytest.mark.parametrize("n_max", [0, 1, 6, 12])
@pytest.mark.parametrize("nu", [0.3, -0.7, 1.0])
def test_factored_route_has_no_truncation_error(n_max, nu):
    # the middle generator is the number operator on every state, the edge
    # n_a = n_max included, so the whole operator is the block of a
    # truncation 16 larger (bitwise on this build; 1e-12 allows rounding)
    full = fa.interior_block(fa.two_mode_squeeze_factored(nu, fa.FockSpaceSpec(n_max)), n_max)
    larger = fa.interior_block(fa.two_mode_squeeze_factored(nu, fa.FockSpaceSpec(n_max + 16)), n_max)
    assert np.abs(full - larger).max() <= 1e-12


def test_factored_matches_direct_where_truncation_converged(spec40_direct_nu1):
    # with the interior well below the occupation reached by the squeeze,
    # both routes agree to stencil-free precision; this is the operator
    # identity itself (the fixed-truncation distance at deeper interiors is
    # reflection error of the direct route, not an identity violation)
    spec, direct = spec40_direct_nu1
    factored = fa.two_mode_squeeze_factored(1.0, spec)
    d = fa.interior_block(direct, 4)
    f = fa.interior_block(factored, 4)
    assert np.linalg.norm(d - f) / np.linalg.norm(d) < 1e-9

    spec40 = spec
    direct_half = fa.two_mode_squeeze_direct(0.5, spec40)
    factored_half = fa.two_mode_squeeze_factored(0.5, spec40)
    d = fa.interior_block(direct_half, 10)
    f = fa.interior_block(factored_half, 10)
    assert np.linalg.norm(d - f) / np.linalg.norm(d) < 1e-9


def test_factored_vacuum_column_matches_pair_law(spec24):
    factored = fa.two_mode_squeeze_factored(0.75, spec24)
    col = fa.vacuum_column(factored)
    ns = np.arange(13)
    expected = np.tanh(0.75) ** ns / np.cosh(0.75)
    assert np.abs(col[ns, ns] - expected).max() < 1e-12


def test_fixed_truncation_distance_grows_with_squeeze(spec24):
    # documents the reflection-error law at fixed n_max = 24, interior 12:
    # negligible at nu = 0.1, catastrophic by nu = 1
    distances = {}
    for nu in [0.1, 0.5, 1.0]:
        d = fa.interior_block(fa.two_mode_squeeze_direct(nu, spec24), 12)
        f = fa.interior_block(fa.two_mode_squeeze_factored(nu, spec24), 12)
        distances[nu] = np.linalg.norm(d - f) / np.linalg.norm(d)
    assert distances[0.1] < 1e-8
    assert distances[0.5] > 1e-5
    assert distances[1.0] > 1e-2

# the factored route's sector-0 diagonal stays within this many eps of the
# exact value of its own product, times the product's largest term (at most
# 25 measured for nu in {0.5, 1} and levels up to 80)
FACTORED_ROUNDING_MULTIPLE = 64


@pytest.mark.parametrize("nu", [0.5, 1.0])
@pytest.mark.parametrize("level", [40, 80])
def test_factored_rounding_is_set_by_largest_term(nu, level):
    # element (i, i) of sector 0 is sum_k C(i, k)^2 (f1 f3)^(i-k) e^(f2 (2k+1))
    # with the float f1, f2, f3; sum it in 60 digits with n_max = level + 1
    spec = fa.FockSpaceSpec(level + 1)
    diagonal = np.diagonal(fa.two_mode_squeeze_factored(nu, spec).entries[spec.n_max])
    f = fa.disentangle_closed_form(nu)
    with mpmath.workdps(60):
        pair, f2 = mpmath.mpf(f.f1) * mpmath.mpf(f.f3), mpmath.mpf(f.f2)
        for i in range(level + 1):
            terms = [mpmath.binomial(i, k) ** 2 * pair ** (i - k) * mpmath.exp(f2 * (2 * k + 1)) for k in range(i + 1)]
            largest = max(abs(term) for term in terms)
            error = abs(mpmath.mpf(diagonal[i]) - mpmath.fsum(terms))
            assert error <= FACTORED_ROUNDING_MULTIPLE * np.finfo(float).eps * largest
    if nu == 0.5:
        # the module docstring's figures: 3.8e8 at level 40, 4.9e18 at 80,
        # where the element itself is 0.035 and rounding leaves nothing
        assert float(largest) == pytest.approx({40: 3.8e8, 80: 4.9e18}[level], rel=0.01)
        if level == 80:
            assert abs(diagonal[level] - 0.035) > 1.0


@settings(max_examples=30, deadline=None)
@given(n_max=st.integers(22, 40), nu=st.floats(-1.0, 1.0))
def test_factored_matches_direct_on_occupation_rule_interior(n_max, nu):
    # criterion 1's interior rule across truncations: below n_max = 22 the
    # rule's level is not yet converged (n_max = 16, nu = 0.925: 3.3e-7 at L = 2)
    spec = fa.FockSpaceSpec(n_max)
    level = interior_level(nu, n_max)
    d = fa.interior_block(fa.two_mode_squeeze_direct(nu, spec), level)
    f = fa.interior_block(fa.two_mode_squeeze_factored(nu, spec), level)
    assert np.linalg.norm(d - f) / np.linalg.norm(d) < 1e-8


def test_level_12_at_strong_squeeze_needs_n_max_56():
    # criterion 1's fixed level 12 at nu = 1 converges once the truncation
    # clears the squeezed occupation 12 cosh 2 + sinh^2 1 ~ 46 (3.1e-10)
    start = time.perf_counter()
    spec = fa.FockSpaceSpec(56)
    d = fa.interior_block(fa.two_mode_squeeze_direct(1.0, spec), 12)
    f = fa.interior_block(fa.two_mode_squeeze_factored(1.0, spec), 12)
    distance = np.linalg.norm(d - f) / np.linalg.norm(d)
    elapsed = time.perf_counter() - start
    assert distance < 1e-9
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# compression to an interior level

ROUTES = [fa.two_mode_squeeze_direct, fa.two_mode_squeeze_factored]
COMPRESSION_NU = [0.0, 0.3, -0.7, 1.0]


def compression_levels(n_max: int) -> list[int]:
    return sorted({0, 1, n_max // 2, n_max - 1, n_max})


@pytest.mark.parametrize("n_max", [1, 4, 24, 60])
@pytest.mark.parametrize("route", ROUTES)
def test_compression_is_interior_block_of_full_operator(n_max, route):
    # the factored corner is exact (lower- times upper-triangular factors:
    # rows and columns <= level never reach past it), and bitwise so up to
    # n_max = 24; elsewhere both routes agree to rounding, at levels where
    # the factored product is more than cancellation noise (below ~40)
    spec = fa.FockSpaceSpec(n_max)
    for nu in COMPRESSION_NU:
        full = route(nu, spec)
        for level in compression_levels(n_max):
            op = route(nu, spec, level=level)
            assert op.spec == fa.FockSpaceSpec(level)
            block, reference = fa.interior_block(op, level), fa.interior_block(full, level)
            if route is fa.two_mode_squeeze_factored and (n_max <= 24 or level == n_max):
                np.testing.assert_array_equal(block, reference)
            elif route is fa.two_mode_squeeze_direct or level < 40:
                scale = np.abs(reference).max()
                assert np.abs(block - reference).max() <= 8 * np.finfo(float).eps * scale, (nu, level)


@pytest.mark.parametrize("n_max", [1, 4, 24])
@pytest.mark.parametrize("route", ROUTES)
def test_compression_padding_is_identity(n_max, route):
    for level in compression_levels(n_max):
        entries = route(0.7, fa.FockSpaceSpec(n_max), level=level).entries
        eye = np.eye(level + 1)
        for d in range(-level, level + 1):
            size = level + 1 - abs(d)
            np.testing.assert_array_equal(entries[d + level, size:, :], eye[size:, :])
            np.testing.assert_array_equal(entries[d + level, :, size:], eye[:, size:])


@pytest.mark.parametrize("route", ROUTES)
def test_compression_at_n_max_is_full_operator(route):
    # one code path: the default level is n_max, and the full operator is
    # the scipy-checked one of the tests above
    spec = fa.FockSpaceSpec(24)
    for nu in COMPRESSION_NU:
        full = route(nu, spec)
        assert full.spec == spec
        np.testing.assert_array_equal(route(nu, spec, level=24).entries, full.entries)


def test_compression_of_vacuum_space():
    # level 0 keeps the vacuum alone: <0,0|U|0,0> = 1 / cosh nu to rounding.
    # On the space of the vacuum alone the generator is 0, so the direct
    # route gives 1, while the factored route, free of truncation error,
    # gives bitwise the level-0 block of n_max = 24
    spec = fa.FockSpaceSpec(24)
    for route in ROUTES:
        (((amplitude,),),) = route(0.1, spec, level=0).entries
        assert amplitude == pytest.approx(1.0 / math.cosh(0.1), rel=1e-14)
    np.testing.assert_array_equal(fa.two_mode_squeeze_direct(0.5, fa.FockSpaceSpec(0)).entries, np.ones((1, 1, 1)))
    vacuum = fa.two_mode_squeeze_factored(0.5, fa.FockSpaceSpec(0)).entries
    np.testing.assert_array_equal(vacuum, fa.two_mode_squeeze_factored(0.5, spec, level=0).entries)
    assert vacuum[0, 0, 0] == pytest.approx(1.0 / math.cosh(0.5), rel=1e-14)


def test_compression_keeps_the_direct_guard():
    spec = fa.FockSpaceSpec(24)
    messages = []
    for level in [None, 12, 0]:
        with pytest.raises(fa.ConvergenceError, match="1-norm") as info:
            fa.two_mode_squeeze_direct(1e16, spec, level=level)
        messages.append(str(info.value))
    assert len(set(messages)) == 1
    # the factored route has no guard: its compression at 1e16 is still the
    # full operator's block
    block = fa.interior_block(fa.two_mode_squeeze_factored(1e16, spec, level=12), 12)
    np.testing.assert_array_equal(block, fa.interior_block(fa.two_mode_squeeze_factored(1e16, spec), 12))


def test_direct_run_holding_a_refused_nu_raises_its_guard():
    # the guard is judged per nu: a run that holds a refused nu among nu
    # within the guard raises what that nu raises alone
    spec = fa.FockSpaceSpec(24)
    with pytest.raises(fa.ConvergenceError, match="1-norm") as alone:
        fa.two_mode_squeeze_direct(1e16, spec)
    with pytest.raises(fa.ConvergenceError, match="1-norm") as run:
        fa.two_mode_squeeze_direct([0.5, 1e16, -1.0], spec, level=12)
    assert str(run.value) == str(alone.value)


def interior_of_direct(nu, spec, *, level):
    return fa.interior_block(fa.two_mode_squeeze_direct(nu, spec), level)


@pytest.mark.parametrize("route", [*ROUTES, interior_of_direct])
@pytest.mark.parametrize("level", [-1, 5, 100])
def test_compression_level_outside_truncation_is_rejected(route, level):
    with pytest.raises(ValueError, match="outside"):
        route(0.5, fa.FockSpaceSpec(4), level=level)


# ---------------------------------------------------------------------------
# factorization-function system


def test_ode_initial_conditions():
    f = fa.disentangle_ode_fixed(0.0, 100)
    assert (f.f1, f.f2, f.f3) == (0.0, 0.0, 0.0)


def test_ode_matches_closed_forms():
    f = fa.disentangle_ode_fixed(1.0, 1000)
    assert f.f1 == pytest.approx(math.tanh(1.0), abs=1e-9)
    assert f.f2 == pytest.approx(-math.log(math.cosh(1.0)), abs=1e-9)
    assert f.f3 == pytest.approx(-math.tanh(1.0), abs=1e-9)


def test_ode_antisymmetry_of_f1_f3():
    for nu_end in [0.25, 0.5, 1.5]:
        f = fa.disentangle_ode_fixed(nu_end, 800)
        assert f.f1 == pytest.approx(-f.f3, abs=1e-11)


def test_ode_negative_direction():
    f = fa.disentangle_ode_fixed(-0.8, 500)
    assert f.f1 == pytest.approx(math.tanh(-0.8), abs=1e-9)
    assert f.f2 == pytest.approx(-math.log(math.cosh(0.8)), abs=1e-9)


# Dormand & Prince (1980) 5(4) pair: stage coefficients a_ij, 5th-order
# weights b_j and embedded 4th-order weights b*_j
DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
DP_B = [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0]
DP_B4 = [5179 / 57600, 0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]


def reference_ode_oracle(nu_end: float, steps: int, local_tol: float = 1e-9) -> tuple[float, float, float]:
    """Dormand-Prince with a right-hand-side call per stage and 7 a step: the arithmetic the oracle keeps."""

    def rhs(f):
        return 1.0 - f[0] * f[0], -f[0], -math.exp(2.0 * f[1])

    def advance(f, h, weights, k):
        # f + h * sum_j w_j k_j in each component, summed left to right
        out = []
        for i in range(3):
            total = weights[0] * k[0][i]
            for w, kj in zip(weights[1:], k[1:]):
                total += w * kj[i]
            out.append(f[i] + h * total)
        return tuple(out)

    h = nu_end / steps
    f = (0.0, 0.0, 0.0)
    for _ in range(steps):
        k = [rhs(f)]
        for row in DP_A[1:]:
            k.append(rhs(advance(f, h, row, k)))
        fifth, fourth = advance(f, h, DP_B, k), advance(f, h, DP_B4, k)
        err = max(abs(x - y) for x, y in zip(fifth, fourth))
        if not err <= local_tol:
            raise fa.ConvergenceError(f"local error estimate {err:.3e} exceeds {local_tol:.0e}")
        f = fifth
    return f


@pytest.mark.parametrize("steps", [2000, 500])
@pytest.mark.parametrize("nu", [0.1, 0.25, 0.5, 0.75, 1.0, -0.8])
def test_ode_bits_match_per_stage_reference(nu, steps):
    f = fa.disentangle_ode_fixed(nu, steps)
    assert (f.f1, f.f2, f.f3) == reference_ode_oracle(nu, steps)


def test_ode_fifth_order():
    # at nu = 1, above rounding, halving the step divides the global error
    # by about 2^5 (27.3 from 20 to 40 steps, 29.9 from 40 to 80)
    c = fa.disentangle_closed_form(1.0)

    def error(steps):
        f = fa.disentangle_ode_fixed(1.0, steps)
        return max(abs(f.f1 - c.f1), abs(f.f2 - c.f2), abs(f.f3 - c.f3))

    errors = [error(steps) for steps in (20, 40, 80)]
    assert errors[-1] > 1e-14
    for coarse, fine in zip(errors, errors[1:]):
        assert 2.0**4.5 < coarse / fine < 2.0**5.5


def test_ode_step_count_validation():
    # a count below one or one that is not an integer: range() would take
    # no step or raise a TypeError
    for steps in (0, -3, 2.5, 10.0, None):
        with pytest.raises(ValueError, match="integer count of at least one integration step"):
            fa.disentangle_ode_fixed(1.0, steps)


def test_ode_step_size_failure():
    # 10 steps of 0.1 cannot hold the 1e-9 local bound: the first one errs
    # by 2.8e-9
    with pytest.raises(fa.ConvergenceError, match="local error estimate 2.828e-09 exceeds 1e-09; increase steps"):
        fa.disentangle_ode_fixed(1.0, 10)


def test_ode_fixed_refuses_a_nan_nu():
    # no step count could reach it: the pass's own refusal, not a
    # ConvergenceError asking for more steps
    with pytest.raises(ValueError, match="nu must be a number"):
        fa.disentangle_ode_fixed(math.nan, 10)


def test_ode_fixed_refuses_a_result_that_is_not_finite(monkeypatch):
    # every accepted step has finite estimates, and no (nu, steps) is known
    # to give a non-finite result through them; a step that did is still
    # refused by the final guard
    def step(f1, f2, f3, k1, m1, h):
        return math.inf, f2 - h, f3, k1, m1, h, 0.0, 0.0, 0.0

    monkeypatch.setattr(fa, "_dp_step", step)
    with pytest.raises(fa.ConvergenceError, match=r"^result \(inf, -1\.0, 0\.0\) is not finite; increase steps$"):
        fa.disentangle_ode_fixed(1.0, 2)


DP_E = [71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]  # b_j - b*_j


def reference_ode_pass(nu_end: float, h: float = fa.ODE_TOL**0.2) -> tuple[float, float, float] | None:
    """The controlled pass to one nu from a first trial step h, one right-hand-side call per stage.

    It steps in nu_end's own direction, where the oracle mirrors |nu_end|,
    with Hairer, Norsett & Wanner's controller as the oracle documents it:
    the root-mean-square error in units of ODE_TOL (1 + |new|), safety 0.9,
    factors within [0.2, 5], steps of at most ODE_STEP_CAP, the last step
    cut to land on nu_end, f2's rounding summed apart.  None once the step
    budget is spent.
    """

    def rhs(f):
        return 1.0 - f[0] * f[0], -f[0], -math.exp(2.0 * f[1])

    def combine(h, weights, k, i):
        total = weights[0] * k[0][i]
        for w, kj in zip(weights[1:], k[1:]):
            total += w * kj[i]
        return h * total

    sign, target = math.copysign(1.0, nu_end), abs(nu_end)
    x, f, c2 = 0.0, (0.0, 0.0, 0.0), 0.0
    for _ in range(fa.ODE_BUDGET):
        h = (x + h) - x
        cut = x + h >= target
        if cut:
            h = target - x
        k = [rhs(f)]
        try:
            for row in DP_A[1:]:
                k.append(rhs(tuple(f[i] + combine(sign * h, row, k, i) for i in range(3))))
            increments = [combine(sign * h, DP_B[:6], k, i) for i in range(3)]
            new = tuple(f[i] + increments[i] for i in range(3))
            k.append(rhs(new))
            scaled = [abs(combine(sign * h, DP_E, k, i)) / (1.0 + abs(new[i])) for i in range(3)]
            err = math.hypot(*scaled) / (3**0.5 * fa.ODE_TOL)
        except OverflowError:
            err = math.inf
        if err <= 1.0:
            c2 += (f[1] - new[1]) + increments[1]
            x, f = x + h, new
            if cut:
                return f[0], f[1] + c2, f[2]
            fac = min(5.0, 0.9 * err**-0.2) if err else 5.0
        else:
            fac = max(0.2, 0.9 * err**-0.2)
        h = min(h * fac, fa.ODE_STEP_CAP)
    return None


@pytest.mark.parametrize("nu", [0.0, 0.1, 0.5, -0.8, 1.0, 2.9, -3.0])
def test_ode_pass_matches_per_stage_reference(nu):
    # the inlined stages, their mirror for negative nu and the landing are
    # bitwise a pass in nu's own direction
    (f,) = fa.disentangle_ode_oracle([nu])
    assert (f.f1, f.f2, f.f3) == reference_ode_pass(nu)


@pytest.mark.parametrize(
    "nu, steps",
    [
        (0.0, 20),
        (0.1, 20),
        (0.25, 50),
        (1.0, 200),
        (-1.0, 200),
        (5.0, 1000),
        (-5.0, 1000),
        (10.0, 2000),
        (-12.0, 2000),
        (1e308, 2000),
    ],
)
def test_ode_step_law(monkeypatch, nu, steps):
    # the retired law min(2000, max(20, ceil(|nu| / 5e-3))) took these steps:
    # the controlled pass takes fewer attempts and lands within rounding of
    # the closed forms (the law's 2000 steps were 1.8e-14 off at -12, past
    # its 5e-3 step bound); where the law's steps failed, at 1e308, the pass
    # fails without an attempt: its budget's steps of at most ODE_STEP_CAP
    # cannot get there
    attempts = []
    step = fa._dp_step
    monkeypatch.setattr(fa, "_dp_step", lambda *args: attempts.append(args) or step(*args))
    (f,) = fa.disentangle_ode_oracle([nu])
    if nu > fa.ODE_BUDGET * fa.ODE_STEP_CAP:
        assert isinstance(f, fa.ConvergenceError) and attempts == []
        return
    c = fa.disentangle_closed_form(nu)
    assert len(attempts) < steps
    assert max(abs(f.f1 - c.f1), abs(f.f2 - c.f2), abs(f.f3 - c.f3)) <= 1e-14


def test_ode_step_law_rejects_nan():
    with pytest.raises(ValueError, match="nu"):
        fa.disentangle_ode_oracle([0.5, math.nan])


def test_ode_step_law_holds_rounding_floor():
    # the controller's steps keep the global error at rounding: 6.1e-15 at
    # worst on [-2, 2]
    nus = np.linspace(-2.0, 2.0, 141)
    worst = 0.0
    for nu, f in zip(nus, fa.disentangle_ode_oracle(list(nus)), strict=True):
        c = fa.disentangle_closed_form(nu)
        worst = max(worst, abs(f.f1 - c.f1), abs(f.f2 - c.f2), abs(f.f3 - c.f3))
    assert worst <= 1e-14


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ode_step_cap_edge(sign):
    # the retired 2000-step cap held the local check up to |nu| ~ 106.67:
    # the pass has no cap there, and lands within rounding of the closed
    # forms on both sides; disentangle_ode_fixed keeps its failure at 107.5
    for f, nu in zip(fa.disentangle_ode_oracle([sign * 106.0, sign * 107.5]), [106.0, 107.5]):
        c = fa.disentangle_closed_form(sign * nu)
        assert max(abs(f.f1 - c.f1), abs(f.f2 - c.f2), abs(f.f3 - c.f3)) <= 1e-13
    with pytest.raises(fa.ConvergenceError, match="local error"):
        fa.disentangle_ode_fixed(sign * 107.5, 2000)


@pytest.mark.parametrize(
    "nu_end, steps, local_tol, failing",
    [
        # the fixed-step check first fails at step 28 of h = 0.02 under
        # 3e-12, and at step 19 of h = 107.5 / 2000 under the default bound
        (4.0, 200, 3e-12, 28),
        (107.5, 2000, 1e-9, 19),
    ],
)
def test_ode_shared_pass_matches_lone_calls(monkeypatch, nu_end, steps, local_tol, failing):
    # the nu count * h of the grid h = nu_end / steps, in any order and with
    # repeats, mirrors, 0.0, -0.0 and a nu past the step budget: one pass
    # serves them all, each entry bitwise a call of its nu alone, and the nu
    # past the budget gets the error a lone call gets; a lone fixed-step call
    # of a count gets through before the failing step and raises from it on
    h = nu_end / steps
    counts = [steps, 20, failing - 1, failing, 20]
    nus = [count * h for count in counts] + [0.0, -0.8, -0.0, 1e300, -nu_end]
    for nu, shared in zip(nus, fa.disentangle_ode_oracle(nus), strict=True):
        (alone,) = fa.disentangle_ode_oracle([nu])
        if isinstance(alone, fa.ConvergenceError):
            assert str(shared) == str(alone) and "step budget" in str(alone)
        else:
            bits = [[v.hex() for v in (f.f1, f.f2, f.f3)] for f in (shared, alone)]
            assert bits[0] == bits[1]
    monkeypatch.setattr(fa, "ODE_FIXED_STEP_TOL", local_tol)
    for count in counts:
        assert (count * h) / count == h  # the lone call takes the grid's step
        if count < failing:
            f = fa.disentangle_ode_fixed(count * h, count)
            assert isinstance(f, fa.DisentangleFunctions)
        else:
            with pytest.raises(fa.ConvergenceError, match="local error"):
                fa.disentangle_ode_fixed(count * h, count)


@pytest.mark.parametrize("nu", [1.0, -2.5])
def test_ode_budget_edge(monkeypatch, nu):
    # the budget counts the attempts of each nu's own path: at exactly that
    # many nu lands, beside a nu past the budget and after one whose landing
    # took attempts of its own; one fewer and it gets an error naming the budget
    attempts = []
    step = fa._dp_step
    monkeypatch.setattr(fa, "_dp_step", lambda *args: attempts.append(args) or step(*args))
    (alone,) = fa.disentangle_ode_oracle([nu])
    need = len(attempts)
    monkeypatch.setattr(fa, "ODE_BUDGET", need)
    shared = fa.disentangle_ode_oracle([2.0 * nu, nu, 0.5 * nu])
    assert shared[1] == alone and isinstance(shared[2], fa.DisentangleFunctions)
    assert isinstance(shared[0], fa.ConvergenceError)
    monkeypatch.setattr(fa, "ODE_BUDGET", need - 1)
    (short,) = fa.disentangle_ode_oracle([nu])
    assert isinstance(short, fa.ConvergenceError) and f"step budget of {need - 1} attempts" in str(short)


def test_ode_overflowing_stage_is_a_rejected_step():
    # a trial step of 1e3 from the origin overflows a stage exponential
    # (math.exp raises OverflowError, and a traceback once ended the run):
    # the walk rejects it as a step whose error is inf, shrinks the step as
    # the reference does, and still lands within rounding of the closed forms
    with pytest.raises(OverflowError):
        fa._dp_step(0.0, 0.0, 0.0, 1.0, -1.0, 1e3)
    walk = [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0, 1e3, 0]
    fa._walk(walk, 2000.0, land=True)
    x, f1, f2, c2, f3, *_ = walk
    assert x == 2000.0 and (f1, f2 + c2, f3) == reference_ode_pass(2000.0, 1e3)
    c = fa.disentangle_closed_form(2000.0)
    assert max(abs(f1 - c.f1), abs(f2 + c2 - c.f2), abs(f3 - c.f3)) <= 1e-13


@pytest.mark.parametrize("nu", [1e19, 1e100, -1e100])
def test_ode_non_finite_steps_raise(nu):
    # at 1e100 the estimate is NaN and the result was (-inf, inf, -inf);
    # at 1e19 a stage exponential overflows
    with pytest.raises(fa.ConvergenceError):
        fa.disentangle_ode_fixed(nu, 2000)


@settings(deadline=None, max_examples=60)
@given(nus=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=3))
def test_ode_oracle_finite_or_convergence_error(nus):
    for f in fa.disentangle_ode_oracle(nus):
        assert isinstance(f, fa.ConvergenceError) or all(math.isfinite(v) for v in (f.f1, f.f2, f.f3))


def test_closed_form_at_large_squeeze():
    # cosh overflows past |nu| ~ 710; ln cosh nu -> |nu| - ln 2
    f = fa.disentangle_closed_form(800.0)
    assert (f.f1, f.f2, f.f3) == (1.0, -(800.0 - math.log(2.0)), -1.0)
    assert fa.disentangle_closed_form(-20.5).f2 == pytest.approx(-math.log(math.cosh(20.5)), rel=1e-15)


def test_factored_route_silent_at_overflowing_squeeze():
    # f2 * number overflows to -inf at nu = 1e308; the middle factor's limit
    # is 0, the number being at least 1, which nu = 1e300 reaches without
    # overflow
    spec = fa.FockSpaceSpec(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        limit = fa.two_mode_squeeze_factored(1e308, spec)
        reference = fa.two_mode_squeeze_factored(1e300, spec)
    np.testing.assert_array_equal(limit.entries, reference.entries)


# ---------------------------------------------------------------------------
# spec guards


def test_n_max_limit_edge():
    # the bound is the largest n_max whose sector storage fits in 64 MiB
    def storage(n_max):
        return (2 * n_max + 1) * (n_max + 1) ** 2 * 8

    limit = fa.N_MAX_LIMIT
    assert storage(limit) <= 2**26 < storage(limit + 1)
    assert fa.FockSpaceSpec(limit).sector_shape == (2 * limit + 1, limit + 1, limit + 1)
    with pytest.raises(ValueError, match="exceeds"):
        fa.FockSpaceSpec(limit + 1)
    # n_max = 0 is the vacuum alone, the space a level-0 compression lives on
    with pytest.raises(ValueError, match="at least 0"):
        fa.FockSpaceSpec(-1)


def test_operator_shape_checked(spec24):
    with pytest.raises(ValueError, match="sectors"):
        fa.FockOperator(spec24, np.eye(625))


def test_interior_level_bound(spec24):
    op = fa.two_mode_squeeze_direct(0.1, spec24)
    with pytest.raises(ValueError, match="interior"):
        fa.interior_block(op, 30)
