"""Exact linear algebra: products, solving, rank, generalized inverses."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _helpers import (
    PROPERTY,
    fraction_block_diag,
    fraction_difference,
    fraction_hstack,
    fraction_is_symmetric,
    fraction_is_zero,
    fraction_kron,
    fraction_negation,
    fraction_product,
    fraction_scaled,
    fraction_solve,
    fraction_sum,
    fraction_trace,
    fraction_transpose,
    fraction_vstack,
    naive_consistent,
    naive_rank,
    random_matrix,
)
from gamedecomp import dense
from gamedecomp.linalg import (
    MAX_PRINTED_BITS,
    Matrix,
    ResultTooLongError,
    _bareiss_echelon,
    block_diag,
    format_rational,
    group_inverse_via_solve,
    hstack,
    is_range_projector,
    kron,
    mp_inverse,
    parse_rational,
    rank,
    solve_linear,
    stp,
    vstack,
)


def test_entries_are_exact_rationals():
    m = Matrix([[1, "2/3"], [Fraction(1, 7), 0]])
    assert m[0, 1] == Fraction(2, 3)
    with pytest.raises(TypeError):
        Matrix([[0.5]])
    with pytest.raises(TypeError):
        Matrix([[True]])


def test_string_entries_take_the_rational_grammar():
    # Fraction alone reads "1_000" and other scripts' digits, and builds
    # a 6.6-million-bit numerator for "1e2000000"
    assert Matrix([[" −3/4 ", "1.5e-2"]]) == Matrix([[Fraction(-3, 4), Fraction(3, 200)]])
    for text, reason in [("1e2000000", "exponent"), ("1_000", "ASCII"), ("١", "ASCII")]:
        with pytest.raises(ValueError, match=reason):
            Matrix([[text]])


def test_format_rational_writes_what_parse_rational_reads():
    assert MAX_PRINTED_BITS == 14_284
    cases = [
        (Fraction(0), None, 0),
        (Fraction(-3), None, -3),
        (Fraction(-9, 8), None, "-9/8"),
        (Fraction(-9, 8), 0, "-1"),
        (Fraction(-1, 200), 2, "0.00"),
        (Fraction(-1, 200), 3, "-0.005"),
        (Fraction(5, 2), 0, "2"),
        (Fraction(2, 3), 4, "0.6667"),
        (7, 2, "7.00"),
    ]
    for x, digits, written in cases:
        assert format_rational(x, digits) == written
        read = parse_rational(str(written))
        assert read == (x if digits is None else round(Fraction(x), digits))
    big = 2**MAX_PRINTED_BITS
    assert parse_rational(format_rational(Fraction(1, big - 1))) == Fraction(1, big - 1)
    for x, digits in [(big, None), (Fraction(1, big), None), (Fraction(-big, 3), None), (big, 0)]:
        with pytest.raises(ResultTooLongError, match="too long to print"):
            format_rational(x, digits)
    assert issubclass(ResultTooLongError, ValueError)


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        Matrix.identity(2) @ Matrix.identity(3)


def test_transpose_and_symmetry():
    m = Matrix([[1, 2], [2, 5]])
    assert m.T == m
    assert m.is_symmetric()
    assert not Matrix([[1, 2], [3, 4]]).is_symmetric()


def test_kron_identities():
    assert kron(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)
    stacked = kron(Matrix.ones(2, 1), Matrix.identity(2))
    assert stacked == Matrix([[1, 0], [0, 1], [1, 0], [0, 1]])
    assert kron(Matrix([[2]]), Matrix([[1, 1]])) == Matrix([[2, 2]])


def test_kron_mixed_product_rule():
    rng = random.Random(401)
    a = random_matrix(rng, 2, 3)
    b = random_matrix(rng, 3, 2)
    c = random_matrix(rng, 2, 2)
    d = random_matrix(rng, 2, 3)
    assert kron(a @ b, c @ d) == kron(a, c) @ kron(b, d)


def test_stp_reduces_to_product_when_dims_match():
    rng = random.Random(402)
    a = random_matrix(rng, 3, 4)
    b = random_matrix(rng, 4, 2)
    assert stp(a, b) == a @ b


def test_stp_of_basis_columns():
    d1 = Matrix.basis_column(2, 1)
    d2 = Matrix.basis_column(2, 2)
    assert stp(d1, d2) == Matrix.basis_column(4, 2)


def test_stp_column_vector_commutation():
    # x |x| A equals (I_t (x) A) |x| x for a height-t column x
    rng = random.Random(403)
    for _ in range(10):
        t = rng.randint(1, 3)
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        x = random_matrix(rng, t, 1)
        a = random_matrix(rng, m, n)
        assert stp(x, a) == stp(kron(Matrix.identity(t), a), x)


def test_stp_associative():
    rng = random.Random(404)
    for _ in range(10):
        a = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        b = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        c = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        assert stp(stp(a, b), c) == stp(a, stp(b, c))


def test_stp_transpose_reverses_order():
    rng = random.Random(405)
    a = random_matrix(rng, 2, 3)
    b = random_matrix(rng, 2, 2)
    assert stp(a, b).T == stp(b.T, a.T)


def test_solve_identity_returns_rhs():
    rng = random.Random(406)
    b = random_matrix(rng, 3, 2)
    assert solve_linear(Matrix.identity(3), b) == b


def test_solve_detects_inconsistency():
    assert solve_linear(Matrix([[1], [1]]), Matrix([[1], [2]])) is None


def test_solve_reproduces_constructed_solution():
    rng = random.Random(407)
    for _ in range(15):
        m, n, p = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 3)
        a = random_matrix(rng, m, n)
        w = random_matrix(rng, n, p)
        b = a @ w
        x = solve_linear(a, b)
        assert x is not None
        assert a @ x == b


def test_solve_consistency_matches_naive_oracle():
    rng = random.Random(408)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        b = random_matrix(rng, m, 1)
        x = solve_linear(a, b)
        assert (x is not None) == naive_consistent(a, b)
        if x is not None:
            assert a @ x == b


def test_solve_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        solve_linear(Matrix.identity(2), Matrix.identity(3))


def test_solve_zeroes_free_variables():
    # x + y = 2 with y free: the returned solution fixes y = 0
    x = solve_linear(Matrix([[1, 1]]), Matrix([[2]]))
    assert x == Matrix([[2], [0]])


def test_rank_identity_and_zero():
    assert rank(Matrix.identity(4)) == 4
    assert rank(Matrix.zeros(3, 5)) == 0


def test_rank_matches_naive_oracle():
    rng = random.Random(409)
    for _ in range(30):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank(a) == naive_rank(a)


def test_rank_of_gram_matrices():
    rng = random.Random(410)
    for _ in range(10):
        a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r = rank(a)
        assert rank(a.T @ a) == r
        assert rank(a @ a.T) == r


def test_rank_with_rational_entries():
    a = Matrix([["1/2", "1/3"], ["1/4", "1/6"]])
    assert rank(a) == 1


def test_mp_inverse_identity():
    assert mp_inverse(Matrix.identity(3)) == Matrix.identity(3)


def test_mp_inverse_zero_matrix():
    assert mp_inverse(Matrix.zeros(2, 3)) == Matrix.zeros(3, 2)


def test_mp_inverse_is_one_square_solve(monkeypatch):
    # a+ = (a.T @ a)# @ a.T: one solve of the Gram system, no factorization
    rng = random.Random(414)
    a = random_matrix(rng, 5, 2) @ random_matrix(rng, 2, 4)
    assert rank(a) == 2
    shapes = []
    solve = dense.solve_linear

    def recording(lhs, rhs):
        shapes.append(lhs.shape)
        return solve(lhs, rhs)

    monkeypatch.setattr(dense, "solve_linear", recording)
    mp_inverse(a)
    assert shapes == [(4, 4)]


def test_mp_inverse_penrose_axioms():
    rng = random.Random(412)
    shapes = [(6, 4), (4, 6), (5, 5), (3, 1), (1, 3)]
    for m, n in shapes:
        a = random_matrix(rng, m, n)
        p = mp_inverse(a)
        assert a @ p @ a == a
        assert p @ a @ p == p
        assert (a @ p).is_symmetric()
        assert (p @ a).is_symmetric()


def test_mp_inverse_rank_deficient():
    rng = random.Random(413)
    for _ in range(5):
        r = rng.randint(1, 3)
        a = random_matrix(rng, 5, r) @ random_matrix(rng, r, 4)
        p = mp_inverse(a)
        assert a @ p @ a == a
        assert p @ a @ p == p
        assert (a @ p).is_symmetric()
        assert (p @ a).is_symmetric()


def test_mp_inverse_column_space_ordering():
    # with col(B) inside col(A): A A^+ B B^+ = B B^+ = B B^+ A A^+
    rng = random.Random(414)
    a = random_matrix(rng, 5, 4)
    b = a @ random_matrix(rng, 4, 2)
    pa = a @ mp_inverse(a)
    pb = b @ mp_inverse(b)
    assert pa @ pb == pb
    assert pb @ pa == pb


def test_group_inverse_identity():
    assert group_inverse_via_solve(Matrix.identity(3)) == Matrix.identity(3)


def test_group_inverse_of_projection_is_itself():
    n = 4
    p = Matrix.identity(n) - Matrix.ones(n, n) * Fraction(1, n)
    assert p @ p == p and p.is_symmetric()
    assert group_inverse_via_solve(p) == p


def test_group_inverse_axioms():
    rng = random.Random(415)
    for _ in range(10):
        base = random_matrix(rng, 4, 4)
        a = base + base.T  # symmetric, group inverse always exists
        x = group_inverse_via_solve(a)
        assert x is not None
        assert a @ x @ a == a
        assert x @ a @ x == x
        assert a @ x == x @ a


def test_group_inverse_matches_mp_for_symmetric():
    rng = random.Random(416)
    for _ in range(10):
        base = random_matrix(rng, 4, 4)
        a = base + base.T
        assert group_inverse_via_solve(a) == mp_inverse(a)


def test_group_inverse_absent_for_nilpotent():
    assert group_inverse_via_solve(Matrix([[0, 1], [0, 0]])) is None


def test_group_inverse_requires_square():
    with pytest.raises(ValueError):
        group_inverse_via_solve(Matrix.ones(2, 3))


def test_block_composition_helpers():
    a = Matrix.identity(2)
    b = Matrix.ones(2, 1)
    assert hstack([a, b]) == Matrix([[1, 0, 1], [0, 1, 1]])
    assert vstack([a, b.T]) == Matrix([[1, 0], [0, 1], [1, 1]])
    assert block_diag([a, b]) == Matrix(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]]
    )
    with pytest.raises(ValueError):
        hstack([a, Matrix.ones(3, 1)])
    with pytest.raises(ValueError):
        vstack([a, Matrix.ones(1, 3)])


# -- the integer kernels against plain Fraction references -----------------

ENTRIES = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 30))
SIDE = st.integers(1, 6)


@st.composite
def entry_rows(draw, nrows, ncols):
    """Fraction rows: mixed, often coprime denominators, negative entries,
    zeroed rows and columns."""
    row = st.lists(ENTRIES, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    zero_rows = draw(st.sets(st.integers(0, nrows - 1), max_size=1))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=1))
    return [
        [Fraction(0) if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]


def matrices(nrows, ncols):
    return entry_rows(nrows, ncols).map(Matrix)


@st.composite
def low_rank(draw, nrows, ncols):
    """A product of nrows x r and r x ncols factors, rank at most r (0 included)."""
    r = draw(st.sampled_from(range(min(nrows, ncols), -1, -1)))
    if r == 0:
        return Matrix.zeros(nrows, ncols)
    return fraction_product(draw(matrices(nrows, r)), draw(matrices(r, ncols)))


@PROPERTY
@given(st.data())
def test_matmul_equals_fraction_product(data):
    m, n, p = data.draw(SIDE), data.draw(SIDE), data.draw(SIDE)
    a = data.draw(matrices(m, n))
    b = data.draw(matrices(n, p))
    product = a @ b
    assert product == fraction_product(a, b)
    assert all(type(x) is Fraction for row in product.rows_iter() for x in row)


@PROPERTY
@given(st.data())
def test_solve_linear_equals_fraction_back_substitution(data):
    m, n, p = data.draw(SIDE), data.draw(SIDE), data.draw(st.integers(1, 3))
    a = data.draw(low_rank(m, n))
    if data.draw(st.booleans()):
        b = fraction_product(a, data.draw(matrices(n, p)))
    else:
        b = data.draw(matrices(m, p))  # often inconsistent
    x = solve_linear(a, b)
    assert x == fraction_solve(a, b)
    assert (x is not None) == naive_consistent(a, b)
    if x is not None:
        assert fraction_product(a, x) == b
        # a column adding nothing to the rank of those before it is free
        prefixes = ([row[:j] for row in a.numerators] for j in range(1, n + 1))
        ranks = [0] + [naive_rank(Matrix.from_numerators(rows, 1)) for rows in prefixes]
        free = [j for j in range(n) if ranks[j + 1] == ranks[j]]
        rows = list(x.rows_iter())
        assert all(not any(rows[j]) for j in free)


def test_solve_all_zero_system():
    assert solve_linear(Matrix.zeros(2, 3), Matrix.zeros(2, 2)) == Matrix.zeros(3, 2)
    assert solve_linear(Matrix.zeros(2, 3), Matrix([[0], ["1/2"]])) is None


@PROPERTY
@given(st.data())
def test_mp_inverse_satisfies_the_penrose_equations(data):
    m, n = data.draw(SIDE), data.draw(SIDE)
    a = data.draw(low_rank(m, n))
    p = mp_inverse(a)
    # the four Penrose equations determine the inverse uniquely
    ap, pa = fraction_product(a, p), fraction_product(p, a)
    assert fraction_product(ap, a) == a
    assert fraction_product(pa, p) == p
    assert ap.is_symmetric() and pa.is_symmetric()


@PROPERTY
@given(st.data())
def test_is_range_projector_accepts_only_the_product_with_mp_inverse(data):
    m, n = data.draw(SIDE), data.draw(SIDE)
    # full-rank draws, or products of narrower factors (the zero matrix included)
    a = data.draw(st.one_of(matrices(m, n), low_rank(m, n)))
    projector = a @ mp_inverse(a)
    assert is_range_projector(projector, a)
    # the projector is unique, so any symmetric change to it is refused
    corners = {0, m - 1}
    bump = Matrix(
        [[Fraction(1, 7) if {i, j} == corners else 0 for j in range(m)] for i in range(m)]
    )
    assert not is_range_projector(projector + bump, a)


# -- integer-numerator storage against Fraction-entry oracles ---------------

SCALARS = st.one_of(st.integers(-6, 6), ENTRIES)


def assert_canonical(m: Matrix) -> None:
    """Int numerators over a positive denominator sharing no factor with them."""
    flat = [x for row in m.numerators for x in row]
    assert all(type(x) is int for x in flat) and type(m.denominator) is int
    assert m.denominator > 0
    assert math.gcd(m.denominator, *flat) == 1
    assert len(m.numerators) == m.nrows and all(len(row) == m.ncols for row in m.numerators)


def assert_equals_oracle(m: Matrix, expected: list[list[Fraction]]) -> None:
    assert_canonical(m)
    assert list(map(list, m.rows_iter())) == expected
    assert [[m[i, j] for j in range(m.ncols)] for i in range(m.nrows)] == expected
    assert all(type(x) is Fraction for row in m.rows_iter() for x in row)


@PROPERTY
@given(st.data())
def test_entrywise_operations_equal_fraction_oracles(data):
    m, n = data.draw(SIDE), data.draw(SIDE)
    ra, rb = data.draw(entry_rows(m, n)), data.draw(entry_rows(m, n))
    scalar = data.draw(SCALARS)
    a, b = Matrix(ra), Matrix(rb)
    assert_equals_oracle(a, ra)
    assert_equals_oracle(a + b, fraction_sum(ra, rb))
    assert_equals_oracle(a - b, fraction_difference(ra, rb))
    assert_equals_oracle(a - a, fraction_difference(ra, ra))
    assert_equals_oracle(-a, fraction_negation(ra))
    assert_equals_oracle(a * scalar, fraction_scaled(ra, scalar))
    assert_equals_oracle(scalar * a, fraction_scaled(ra, scalar))
    assert_equals_oracle(a.T, fraction_transpose(ra))


@PROPERTY
@given(st.data())
def test_kron_equals_fraction_oracle(data):
    ra = data.draw(entry_rows(data.draw(SIDE), data.draw(SIDE)))
    rb = data.draw(entry_rows(data.draw(SIDE), data.draw(SIDE)))
    assert_equals_oracle(kron(Matrix(ra), Matrix(rb)), fraction_kron(ra, rb))


@PROPERTY
@given(st.data())
def test_stackers_equal_fraction_oracles(data):
    count = data.draw(st.integers(1, 3))
    m, n = data.draw(SIDE), data.draw(SIDE)
    side_by_side = [data.draw(entry_rows(m, data.draw(SIDE))) for _ in range(count)]
    on_top = [data.draw(entry_rows(data.draw(SIDE), n)) for _ in range(count)]
    diagonal = [data.draw(entry_rows(data.draw(SIDE), data.draw(SIDE))) for _ in range(count)]
    assert_equals_oracle(hstack([Matrix(r) for r in side_by_side]), fraction_hstack(side_by_side))
    assert_equals_oracle(vstack([Matrix(r) for r in on_top]), fraction_vstack(on_top))
    assert_equals_oracle(block_diag([Matrix(r) for r in diagonal]), fraction_block_diag(diagonal))


@PROPERTY
@given(st.data())
def test_predicates_and_trace_equal_fraction_oracles(data):
    n = data.draw(SIDE)
    rows = data.draw(entry_rows(n, data.draw(st.sampled_from([n, data.draw(SIDE)]))))
    shape = data.draw(st.sampled_from(["as drawn", "symmetric", "zero"]))
    if shape == "symmetric" and len(rows[0]) == n:
        rows = fraction_sum(rows, fraction_transpose(rows))
    elif shape == "zero":
        rows = [[Fraction(0)] * len(rows[0]) for _ in rows]
    a = Matrix(rows)
    assert a.is_zero() == fraction_is_zero(rows)
    assert a.is_symmetric() == fraction_is_symmetric(rows)
    if len(rows[0]) == n:
        assert a.trace() == fraction_trace(rows)
        assert type(a.trace()) is Fraction
    else:
        with pytest.raises(ValueError):
            a.trace()


@PROPERTY
@given(st.data())
def test_equal_rationals_give_equal_matrices_at_any_scale(data):
    m, n = data.draw(SIDE), data.draw(SIDE)
    rows = data.draw(entry_rows(m, n))
    a = Matrix(rows)
    scale = data.draw(st.integers(1, 10**6)) * data.draw(st.sampled_from([1, -1]))
    scaled = [[x * a.denominator * scale for x in row] for row in rows]
    assert all(x.denominator == 1 for row in scaled for x in row)
    b = Matrix.from_numerators([[int(x) for x in row] for row in scaled], a.denominator * scale)
    assert b == a and hash(b) == hash(a)
    assert (b.denominator, b.numerators) == (a.denominator, a.numerators)
    assert Matrix([[str(x) for x in row] for row in rows]) == a


def test_canonical_form_examples():
    half = Matrix([[Fraction(2, 4)]])
    assert half == Matrix([["1/2"]]) and hash(half) == hash(Matrix([["1/2"]]))
    assert (half.denominator, half.numerators) == (2, ((1,),))
    zero = Matrix([[Fraction(0, 7)] * 2] * 2)
    assert zero == Matrix.zeros(2, 2) and hash(zero) == hash(Matrix.zeros(2, 2))
    assert zero.denominator == 1
    assert Matrix([["1/3", "2/3"]]) * 3 == Matrix([[1, 2]])
    assert (Matrix([["1/3"]]) * 3).denominator == 1
    assert (Matrix([["1/2"]]) * 0).denominator == 1
    assert Matrix.from_numerators([[1, -2]], -3) == Matrix([["-1/3", "2/3"]])
    assert Matrix.from_numerators([[1, -2]], -3).denominator == 3


def test_entries_read_back_as_fractions_with_one_shared_zero():
    m = Matrix([[0, "1/2", 0], [3, 0, "1/2"]])
    zeros = [x for row in m.rows_iter() for x in row if x == 0]
    assert len({id(x) for x in zeros}) == 1
    assert m[0, 0] is m[1, 1] is next(m.rows_iter())[2] is m.column_tuple(0)[0]
    assert list(m.rows_iter()) == [(0, Fraction(1, 2), 0), (3, 0, Fraction(1, 2))]


def test_from_numerators_checks_shape_and_denominator():
    with pytest.raises(ValueError):
        Matrix.from_numerators([[1, 2], [3]], 1)
    with pytest.raises(ValueError):
        Matrix.from_numerators([], 1)
    with pytest.raises(ZeroDivisionError):
        Matrix.from_numerators([[1]], 0)


def test_solve_with_negative_last_pivot_has_positive_denominator():
    a = Matrix([[1, 3], [1, 1]])
    rows, pivots = _bareiss_echelon([list(row) for row in a.numerators], a.ncols)
    assert rows[len(pivots) - 1][pivots[-1]] < 0
    x = solve_linear(a, Matrix([[1], [0]]))
    assert x == Matrix([["-1/2"], ["1/2"]])
    assert_canonical(x)
    assert x == fraction_solve(a, Matrix([[1], [0]]))


def test_bool_scalars_refused():
    with pytest.raises(TypeError):
        Matrix.identity(2) * True
    with pytest.raises(TypeError):
        False * Matrix.identity(2)
    with pytest.raises(TypeError):
        Matrix.identity(2) * 0.5
