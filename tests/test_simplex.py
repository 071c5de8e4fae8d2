import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from gradplay.simplex import (
    NonFiniteInputError,
    SupportProjection,
    from_local,
    project_on_support,
    project_to_simplex,
    tangent_basis,
    to_local,
)

SQRT2 = np.sqrt(2.0)


def qp_projection_oracle(x):
    """Exact simplex projection by KKT support enumeration (test-only).

    For every candidate support S, the water level is
    theta = (sum_S x_i - 1)/|S|; the unique KKT point has x_i - theta >= 0 on
    S and x_i - theta <= 0 off S.  Exponential in k, independent of the
    production sort-and-threshold path.
    """
    x = np.asarray(x, dtype=float)
    k = x.size
    best = None
    best_d = np.inf
    for mask in range(1, 2**k):
        support = [i for i in range(k) if mask >> i & 1]
        theta = (x[support].sum() - 1.0) / len(support)
        if any(x[i] - theta < -1e-12 for i in support):
            continue
        if any(x[i] - theta > 1e-12 for i in range(k) if not (mask >> i & 1)):
            continue
        s = np.zeros(k)
        s[support] = x[support] - theta
        d = float(np.sum((s - x) ** 2))
        if d < best_d:
            best_d, best = d, s
    assert best is not None
    return best


def test_projection_fixed_point_inside():
    assert_allclose(project_to_simplex([0.5, 0.5]), [0.5, 0.5], atol=1e-15)


def test_projection_clips_to_vertex():
    # oracle-confirmed: support {0}, theta = 0.5
    assert_allclose(project_to_simplex([1.5, 0.5]), [1.0, 0.0], atol=1e-15)
    assert_allclose(qp_projection_oracle([1.5, 0.5]), [1.0, 0.0], atol=1e-15)


def test_projection_three_dim_vertex():
    assert_allclose(project_to_simplex([2.0, -1.0, 0.0]), [1.0, 0.0, 0.0], atol=1e-15)
    assert_allclose(qp_projection_oracle([2.0, -1.0, 0.0]), [1.0, 0.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_projection_matches_qp_oracle(k):
    rng = np.random.default_rng(42 + k)
    for _ in range(400):
        x = rng.uniform(-3.0, 3.0, size=k) * rng.choice([0.3, 1.0, 10.0])
        p = project_to_simplex(x)
        assert p.min() >= 0.0
        assert abs(p.sum() - 1.0) <= 1e-12
        assert_allclose(p, qp_projection_oracle(x), atol=1e-8)


@given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=6))
def test_projection_idempotent(vals):
    p = project_to_simplex(vals)
    assert_allclose(project_to_simplex(p), p, atol=1e-12)


@given(
    st.integers(1, 6).flatmap(
        lambda k: st.tuples(
            st.lists(st.floats(-20.0, 20.0), min_size=k, max_size=k),
            st.lists(st.floats(-20.0, 20.0), min_size=k, max_size=k),
        )
    )
)
def test_projection_nonexpansive(pair):
    x, y = np.asarray(pair[0]), np.asarray(pair[1])
    px, py = project_to_simplex(x), project_to_simplex(y)
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


@pytest.mark.parametrize("k", [2, 3, 4])
def test_projection_affine_regime_near_interior(k):
    # interior point plus a small step projects by removing the mean drift
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.random(k) + 0.5
        x /= x.sum()
        p = rng.normal(size=k) * 0.01
        expected = x + p - (p.sum() / k) * np.ones(k)
        assert_allclose(project_to_simplex(x + p), expected, atol=1e-12)


def test_projection_rejects_empty():
    with pytest.raises(ValueError):
        project_to_simplex(np.zeros(0))


def sort_threshold_vector(x):
    """The 1-D sort-and-threshold projection, written out for one vector (test-only)."""
    x = x - np.max(x)
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, x.size + 1)
    rho = idx[u * idx > css][-1]
    return np.maximum(x - css[rho - 1] / rho, 0.0)


# a few exact values, so that rows hold ties, and arbitrary floats
ENTRIES = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 1 / 3, 0.5, 1.0, 2.0]), st.floats(-3.0, 3.0))


@given(
    st.integers(2, 6).flatmap(
        lambda k: st.lists(st.lists(ENTRIES, min_size=k, max_size=k), min_size=1, max_size=5)
    ),
    st.sampled_from([1e-100, 1.0, 1e100]),
)
def test_projection_rows_match_vectors_bit_for_bit(rows, scale):
    X = np.array(rows) * scale
    P = project_to_simplex(X)
    assert P.shape == X.shape
    for x, p in zip(X, P):
        assert_array_equal(p, project_to_simplex(x))
        assert_array_equal(p, sort_threshold_vector(x))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_projection_rows_at_water_level_ties_match_vectors_bit_for_bit(k):
    # the sorted entry j sits exactly on the water level (sum of the first j
    # entries - 1) / j, where two support sizes give the same threshold
    rng = np.random.default_rng(k)
    X = np.empty((200, k))
    for row in X:
        u = np.sort(rng.random(k))[::-1] * rng.choice([0.1, 1.0, 3.0])
        j = int(rng.integers(1, k))
        u[j] = (u[:j].sum() - 1.0) / j
        row[:] = rng.permutation(u)
    for x, p in zip(X, project_to_simplex(X)):
        assert_array_equal(p, sort_threshold_vector(x))


def sort_support_size(x):
    """rho, the support size the sort path picks for the vector x (test-only)."""
    u = np.sort(x - np.max(x))[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, x.size + 1)
    return idx[u * idx > css][-1]


@given(
    st.integers(2, 6).flatmap(
        lambda k: st.lists(st.lists(ENTRIES, min_size=k, max_size=k), min_size=1, max_size=5)
    ),
    st.sampled_from([1e-100, 1.0, 1e100]),
    st.sampled_from([0.0, 1e20]),  # far from 0, where a water level of the raw rows is lost
)
def test_projection_on_its_support_matches_sort_path(rows, scale, offset):
    X = np.array(rows) * scale + offset
    P = project_to_simplex(X)
    for x, p in zip(X, P):
        s = p > 0
        za = x - x.max()
        # both paths round only in the water level: a few ulps of the anchored row
        tol = 4 * x.size * np.finfo(float).eps * max(1.0, np.abs(za).max())
        r = za - (za[s].sum() - 1.0) / s.sum()
        q = project_on_support(x[None], s[None])
        if q is None:  # the sign check fails only by rounding, at an entry on the water level
            assert (np.where(s, r, -r) >= -tol).all()
        elif s.sum() <= 3 and sort_support_size(x) == s.sum():
            assert_array_equal(q[0], p)
        else:
            assert np.abs(q[0] - p).max() <= tol
        if q is not None:
            assert not np.signbit(q[0]).any() and (q[0][~s] == 0.0).all()
        for j in range(x.size):  # a support with one entry more or less is wrong
            w = s.copy()
            w[j] = not w[j]
            q = project_on_support(x[None], w[None]) if w.any() else None
            assert q is None or np.abs(q[0] - p).max() <= tol  # else w differs at a tie


@given(
    st.integers(2, 6).flatmap(
        lambda k: st.lists(st.lists(ENTRIES, min_size=k, max_size=k), min_size=1, max_size=5)
    ),
    st.sampled_from([1e-100, 1.0, 1e100]),
    st.sampled_from([0.0, 1e20]),
)
def test_support_map_matches_both_references(rows, scale, offset):
    # the cached map of a support against project_on_support (the exact
    # reference on that support) and the sort path, with the tolerance above
    X = np.array(rows) * scale + offset
    P = project_to_simplex(X)
    for x, p in zip(X, P):
        s = p > 0
        za = x - x.max()
        tol = 4 * x.size * np.finfo(float).eps * max(1.0, np.abs(za).max())
        r = za - (za[s].sum() - 1.0) / s.sum()
        q = SupportProjection(s[None])(x[None])
        ref = project_on_support(x[None], s[None])
        if q is None:  # the check fails only by rounding, at an entry on the water level
            assert (np.where(s, r, -r) >= -tol).all()
        else:
            assert np.abs(q[0] - p).max() <= tol
            assert ref is None or np.abs(q[0] - ref[0]).max() <= tol
            assert not np.signbit(q[0]).any() and (q[0][~s] == 0.0).all()
        for j in range(x.size):  # a support with one entry more or less is wrong
            w = s.copy()
            w[j] = not w[j]
            q = SupportProjection(w[None])(x[None]) if w.any() else None
            assert q is None or np.abs(q[0] - p).max() <= tol  # else w differs at a tie
    # all rows through one block-diagonal map, each row to its own tolerance
    S = P > 0
    Q = SupportProjection(S)(X)
    za = X - X.max(axis=1, keepdims=True)
    tol = 4 * X.shape[1] * np.finfo(float).eps * np.maximum(1.0, np.abs(za).max(axis=1, keepdims=True))
    if Q is None:  # only by rounding, at an entry on the water level
        theta = (np.where(S, za, 0.0).sum(axis=1, keepdims=True) - 1.0) / S.sum(axis=1, keepdims=True)
        assert (np.abs(za - theta) <= tol).any()
    else:
        assert (np.abs(Q - P) <= tol).all()


def test_projection_on_a_wrong_support_is_none():
    X = np.array([[0.9, 0.1, -2.0], [0.2, 0.3, 0.5]])
    support = np.array([[True, True, False], [True, True, True]])
    assert_array_equal(project_on_support(X, support), project_to_simplex(X))
    for i, j in [(0, 1), (0, 2), (1, 0)]:
        wrong = support.copy()
        wrong[i, j] = not wrong[i, j]
        assert project_on_support(X, wrong) is None


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (2, 2, 2), ()])
def test_projection_rejects_empty_and_higher_rank(shape):
    with pytest.raises(ValueError, match="nonempty"):
        project_to_simplex(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_projection_rejects_nonfinite_rows(bad):
    X = np.full((3, 2), 0.5)
    X[2, 1] = bad
    with pytest.raises(NonFiniteInputError):
        project_to_simplex(X)
    with pytest.raises(NonFiniteInputError):
        project_to_simplex(X[2])


def test_tangent_basis_k2_matches_convention():
    N = tangent_basis(2).N
    assert_allclose(N, [[1.0 / SQRT2], [-1.0 / SQRT2]], atol=1e-15)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_tangent_basis_orthonormal_zero_sum(k):
    N = tangent_basis(k).N
    assert N.shape == (k, k - 1)
    assert_allclose(np.ones(k) @ N, np.zeros(k - 1), atol=1e-12)
    assert_allclose(N.T @ N, np.eye(k - 1), atol=1e-12)
    for j in range(k - 1):
        col = N[:, j]
        first = col[np.nonzero(np.abs(col) > 1e-14)[0][0]]
        assert first > 0


def test_tangent_basis_rejects_small_k():
    with pytest.raises(ValueError):
        tangent_basis(1)


def test_tangent_basis_is_shared_and_read_only():
    b = tangent_basis(3)
    assert tangent_basis(3) is b
    with pytest.raises(ValueError, match="read-only"):
        b.N[0, 0] = 1.0
    assert_allclose(b.N.T @ b.N, np.eye(2), atol=1e-12)  # the failed write left it intact
    assert tangent_basis(np.int64(3)) is b
    for k in (1, 0, -2, np.int64(1)):
        with pytest.raises(ValueError, match="k >= 2"):
            tangent_basis(k)


def test_tangent_basis_float_k_is_a_type_error():
    # 2.0 == 2 as a dict key, so the shared k = 2 basis must not answer for it
    tangent_basis(2)
    for k in (2.0, np.float64(3.0)):
        with pytest.raises(TypeError):
            tangent_basis(k)


def test_to_local_zero_at_center():
    b = tangent_basis(3)
    x = np.array([0.2, 0.3, 0.5])
    assert_allclose(to_local(x, x, b), np.zeros(2), atol=1e-15)


def test_to_local_k2_value():
    b = tangent_basis(2)
    w = to_local([0.6, 0.4], [0.5, 0.5], b)
    assert_allclose(w, [0.2 / SQRT2], atol=1e-15)
    assert_allclose(from_local(w, [0.5, 0.5], b), [0.6, 0.4], atol=1e-15)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_local_round_trip_on_simplex(k):
    rng = np.random.default_rng(11)
    b = tangent_basis(k)
    x_star = np.full(k, 1.0 / k)
    for _ in range(25):
        x = rng.random(k) + 0.1
        x /= x.sum()
        w = to_local(x, x_star, b)
        assert_allclose(from_local(w, x_star, b), x, atol=1e-12)


def test_from_local_output_sums_to_one():
    rng = np.random.default_rng(3)
    b = tangent_basis(4)
    x_star = np.full(4, 0.25)
    for _ in range(20):
        w = rng.normal(size=3)
        assert abs(from_local(w, x_star, b).sum() - 1.0) <= 1e-12


def test_local_dimension_mismatch():
    b = tangent_basis(3)
    with pytest.raises(ValueError):
        to_local([0.5, 0.5], [0.5, 0.5], b)
    with pytest.raises(ValueError):
        from_local([0.1], [1 / 3, 1 / 3, 1 / 3], b)
