"""Structural matrices, the group inverse routes, and the projector bundle."""

from fractions import Fraction
from itertools import chain, combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _helpers import PROPERTY, spaces
from gamedecomp import projectors
from gamedecomp.games import GameSpace
from gamedecomp.linalg import (
    Matrix,
    block_diag,
    group_inverse_via_solve,
    hstack,
    is_range_projector,
    kron,
    mp_inverse,
    rank,
    vstack,
)
from gamedecomp.projectors import (
    PART_KINDS,
    ProjectorSet,
    SubspaceKind,
    apply_group_inverse,
    average,
    axis_means,
    build_B_N,
    build_B_P,
    build_E,
    build_P_N,
    build_e,
    build_e_set,
    build_projectors,
    closed_form_coefficients,
    group_inverse_closed_form,
    group_inverse_solve_route,
    part_matrices,
    subspace_dimension,
)

SMALL_SPACES = [GameSpace(c) for c in [(2, 2), (2, 3), (3, 2), (2, 2, 2)]]


def strategy_residual(space):
    """A = sum of I - e_i/k_i, the matrix whose group inverse is X."""
    total = Matrix.zeros(space.k, space.k)
    for i, count in enumerate(space.strategy_counts, start=1):
        total = total + Matrix.identity(space.k) - build_e(space, i) * Fraction(1, count)
    return total


def test_build_E_shape_and_content():
    space = GameSpace((2, 2))
    assert build_E(space, 1) == kron(Matrix.ones(2, 1), Matrix.identity(2))
    assert build_E(space, 2) == kron(Matrix.identity(2), Matrix.ones(2, 1))
    for sp in SMALL_SPACES:
        for i, count in enumerate(sp.strategy_counts, start=1):
            e_i = build_E(sp, i)
            assert e_i.shape == (sp.k, sp.k // count)
            assert e_i.T @ e_i == count * Matrix.identity(sp.k // count)
    with pytest.raises(ValueError):
        build_E(space, 3)


def test_mp_inverse_of_E_is_scaled_transpose():
    space = GameSpace((2, 3))
    for i, count in enumerate(space.strategy_counts, start=1):
        e_i = build_E(space, i)
        assert mp_inverse(e_i) == e_i.T * Fraction(1, count)


def test_averaging_blocks():
    for space in SMALL_SPACES:
        for i, count in enumerate(space.strategy_counts, start=1):
            e_i = build_E(space, i)
            block = build_e(space, i)
            assert block == e_i @ e_i.T
            assert block.is_symmetric()
            assert block @ block == count * block


def test_e_set_extremes_and_product_form():
    space = GameSpace((2, 3, 2))
    assert build_e_set(space, ()) == Matrix.identity(space.k)
    assert build_e_set(space, (1, 2, 3)) == Matrix.ones(space.k, space.k)
    players = (1, 2, 3)
    for subset in chain.from_iterable(
        combinations(players, size) for size in range(4)
    ):
        product = Matrix.identity(space.k)
        for i in subset:
            product = product @ build_e(space, i)
        assert build_e_set(space, subset) == product


def test_B_N_rank():
    assert rank(build_B_N(GameSpace((2, 2)))) == 4
    assert rank(build_B_N(GameSpace((3, 3)))) == 6
    space = GameSpace((2, 3, 2))
    assert rank(build_B_N(space)) == sum(space.k // c for c in space.strategy_counts)


def test_B_P_rank_and_containment():
    space = GameSpace((2, 2))
    b_p = build_B_P(space)
    assert rank(b_p) == 7
    # the block-diagonal lift columns sit inside B_P's column space
    assert rank(hstack([b_p, build_B_N(space)])) == 7


def test_single_player_space_degenerates():
    space = GameSpace((4,))
    assert build_B_N(space) == build_E(space, 1)
    bundle = build_projectors(space)
    assert bundle.potential == Matrix.identity(4)


def test_P_N_columns_orthogonal_to_B_N():
    space = GameSpace((2, 2, 2))
    assert (build_B_N(space).T @ build_P_N(space)).is_zero()


def test_P_N_rank():
    assert rank(build_P_N(GameSpace((3, 3)))) == 8  # k - 1


def test_P_N_B_N_factorization_through_B_P():
    # [P_N | B_N] equals B_P times the unit lower-triangular elimination factor
    for space in SMALL_SPACES:
        k = space.k
        widths = [k // c for c in space.strategy_counts]
        top = hstack([Matrix.identity(k)] + [Matrix.zeros(k, w) for w in widths])
        rows = [top]
        for i, count in enumerate(space.strategy_counts, start=1):
            blocks = [build_E(space, i).T * Fraction(-1, count)]
            for j, width in enumerate(widths, start=1):
                blocks.append(
                    Matrix.identity(width) if i == j else Matrix.zeros(widths[i - 1], width)
                )
            rows.append(hstack(blocks))
        factor = vstack(rows)
        assert build_B_P(space) @ factor == hstack(
            [build_P_N(space), build_B_N(space)]
        )


def test_closed_form_coefficients_two_players():
    coeffs = closed_form_coefficients(2)
    assert coeffs[frozenset()] == Fraction(1, 2)
    assert coeffs[frozenset((1,))] == Fraction(1, 2)
    assert coeffs[frozenset((2,))] == Fraction(1, 2)
    assert coeffs[frozenset((1, 2))] == Fraction(-3, 2)


def test_closed_form_coefficients_three_players():
    coeffs = closed_form_coefficients(3)
    assert coeffs[frozenset()] == Fraction(1, 3)
    for single in ((1,), (2,), (3,)):
        assert coeffs[frozenset(single)] == Fraction(1, 6)
    for pair in ((1, 2), (1, 3), (2, 3)):
        assert coeffs[frozenset(pair)] == Fraction(1, 3)
    assert coeffs[frozenset((1, 2, 3))] == Fraction(-11, 6)


def test_closed_form_expanded_for_two_players():
    # X = I/2 + e_1/(2 k_1) + e_2/(2 k_2) - 3 e_1 e_2 / (2 k_1 k_2)
    space = GameSpace((2, 3))
    k1, k2 = space.strategy_counts
    expected = (
        Matrix.identity(space.k) * Fraction(1, 2)
        + build_e(space, 1) * Fraction(1, 2 * k1)
        + build_e(space, 2) * Fraction(1, 2 * k2)
        + build_e_set(space, (1, 2)) * Fraction(-3, 2 * k1 * k2)
    )
    assert group_inverse_closed_form(space) == expected


def test_group_inverse_routes_agree():
    for space in SMALL_SPACES:
        closed = group_inverse_closed_form(space)
        assert closed == group_inverse_solve_route(space)
        assert closed == group_inverse_via_solve(strategy_residual(space))


def test_group_inverse_satisfies_group_axioms():
    for space in SMALL_SPACES:
        a = strategy_residual(space)
        x = group_inverse_closed_form(space)
        assert a @ x @ a == a
        assert x @ a @ x == x
        assert a @ x == x @ a


def test_group_inverse_times_P_N_transpose_is_pseudoinverse():
    space = GameSpace((2, 3))
    p_n = build_P_N(space)
    assert group_inverse_closed_form(space) @ p_n.T == mp_inverse(p_n)


def test_projector_bundle_algebra():
    space = GameSpace((3, 2))
    bundle = build_projectors(space)
    parts = (bundle.pure_potential, bundle.nonstrategic, bundle.pure_harmonic)
    identity = Matrix.identity(space.payoff_cells)
    assert parts[0] + parts[1] + parts[2] == identity
    for kind in SubspaceKind:
        p = bundle.projection(kind)
        assert p.is_symmetric()
        assert p @ p == p
        assert p.trace() == subspace_dimension(space, kind)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert (parts[i] @ parts[j]).is_zero()
    assert bundle.potential == parts[0] + parts[1]
    assert bundle.harmonic == identity - parts[0]
    assert ProjectorSet._fields == ("space", *(kind.name.lower() for kind in PART_KINDS))


@PROPERTY
@given(spaces(max_cells=60))
def test_summed_projections_equal_their_own_tables(space):
    # the bundle stores the three parts; potential and harmonic, their sums,
    # equal the matrices written from their own ANOVA tables
    bundle = build_projectors(space)
    counts = [space.strategy_counts[i - 1] for i in projectors._player_bits(space)]
    gathers = projectors._row_gathers(counts, space.n)
    for kind in (SubspaceKind.POTENTIAL, SubspaceKind.HARMONIC):
        tables = projectors._block_tables(space, kind)
        assert bundle.projection(kind) == projectors._densify_blocks(counts, *tables, gathers)
    assert bundle.total() == Matrix.identity(space.payoff_cells)


@pytest.mark.parametrize("counts", [(1,), (1, 3), (3, 1, 1)])
def test_bundle_with_one_strategy_players_matches_the_oracles(counts):
    # (1,) writes 1x1 matrices, whose rows gather a single entry
    space = GameSpace(counts)
    bundle = build_projectors(space)
    identity = Matrix.identity(space.payoff_cells)
    b_p, b_n, p_n = build_B_P(space), build_B_N(space), build_P_N(space)
    assert bundle.potential == b_p @ mp_inverse(b_p)
    assert bundle.nonstrategic == b_n @ mp_inverse(b_n)
    assert bundle.pure_potential == p_n @ mp_inverse(p_n)
    assert bundle.harmonic == identity - bundle.pure_potential
    assert bundle.pure_harmonic == identity - bundle.potential
    assert group_inverse_closed_form(space) == group_inverse_via_solve(strategy_residual(space))


@PROPERTY
@given(spaces(max_cells=60))
def test_is_range_projector_certifies_the_bundle_against_its_generators(space):
    bundle = build_projectors(space)
    true = {
        build_B_P: bundle.potential,
        build_B_N: bundle.nonstrategic,
        build_P_N: bundle.pure_potential,
    }
    nk = space.payoff_cells
    corners = {0, nk - 1}
    bump = Matrix(
        [[Fraction(1, 7) if {i, j} == corners else 0 for j in range(nk)] for i in range(nk)]
    )
    for build, projector in true.items():
        generator = build(space)
        # a projection onto a larger, smaller or other subspace is refused,
        # unless the two subspaces coincide on this space
        for other in true.values():
            assert is_range_projector(other, generator) == (other == projector)
        assert not is_range_projector(projector + bump, generator)


def _five_clauses(bundle):
    """The oracle check in full: three certificates and both complements."""
    space, identity = bundle.space, Matrix.identity(bundle.space.payoff_cells)
    return (
        is_range_projector(bundle.potential, build_B_P(space))
        and is_range_projector(bundle.nonstrategic, build_B_N(space))
        and is_range_projector(bundle.pure_potential, build_P_N(space))
        and bundle.harmonic == identity - bundle.pure_potential
        and bundle.pure_harmonic == identity - bundle.potential
    )


def _three_clauses(bundle):
    """The oracle check as verify makes it: two certificates and the sum identity."""
    space = bundle.space
    return (
        is_range_projector(bundle.potential, build_B_P(space))
        and is_range_projector(bundle.nonstrategic, build_B_N(space))
        and bundle.total() == Matrix.identity(space.payoff_cells)
    )


@st.composite
def perturbed_bundles(draw, bundle):
    """The bundle with one part bumped by +-1/q at an entry (and at its
    mirror, if symmetric), that bump moved between two parts, or two parts
    swapped."""
    nk = bundle.space.payoff_cells
    fields = {kind.name.lower(): bundle.projection(kind) for kind in PART_KINDS}
    a, b = draw(st.permutations(list(fields)))[:2]
    how = draw(st.sampled_from(("bump", "move", "swap")))
    if how == "swap":
        fields[a], fields[b] = fields[b], fields[a]
    else:
        i, j = draw(st.integers(0, nk - 1)), draw(st.integers(0, nk - 1))
        x = Fraction(draw(st.sampled_from((1, -1))), draw(st.integers(1, 9)))
        cells = {(i, j), (j, i)} if draw(st.booleans()) else {(i, j)}
        delta = Matrix([[x if (r, c) in cells else 0 for c in range(nk)] for r in range(nk)])
        fields[a] = fields[a] + delta
        if how == "move":
            fields[b] = fields[b] - delta
    return ProjectorSet(bundle.space, **fields)


@PROPERTY
@given(spaces(max_cells=60), st.data())
def test_two_certificates_and_the_sum_identity_decide_the_oracle_check(space, data):
    # range(B_N) lies in range(B_P), so once potential and nonstrategic are
    # certified, pure potential = their difference projects onto range(P_N);
    # the sum identity then gives both complements
    bundle = build_projectors(space)
    assert _three_clauses(bundle) and _five_clauses(bundle)
    for other in data.draw(st.lists(perturbed_bundles(bundle), min_size=1, max_size=4)):
        assert _three_clauses(other) == _five_clauses(other)


def _verdicts(space):
    """(dense, on the parts) verdicts of idempotency for each part of the
    split, then of each pairwise product of two parts being zero."""
    bundle = build_projectors(space)
    parts = {kind: part_matrices(space, kind) for kind in PART_KINDS}
    out = {}
    for kind, ps in parts.items():
        m = bundle.projection(kind)
        out[kind] = (m @ m == m, all(p @ p == p for p in ps))
    for x, y in permutations(PART_KINDS, 2):
        on_parts = all((a @ b).is_zero() for a, b in zip(parts[x], parts[y]))
        out[x, y] = ((bundle.projection(x) @ bundle.projection(y)).is_zero(), on_parts)
    return out


@PROPERTY
@given(spaces(max_cells=60))
def test_identities_on_the_parts_match_the_dense_products(space):
    verdicts = _verdicts(space)
    assert set(verdicts.values()) == {(True, True)}
    real_tables = projectors._block_tables

    def perturbed(space, kind):
        # twice the pure potential table of block (1, 1) added on the
        # constants, where the true table is 0: 2E is not idempotent
        # and its product with the nonstrategic part, I there, is not zero
        tables, den, layout = real_tables(space, kind)
        if kind is SubspaceKind.PURE_POTENTIAL:
            tables[layout[0][0]][0] += 2 * den
        return tables, den, layout

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projectors, "_block_tables", perturbed)
        verdicts = _verdicts(space)
    assert all(dense == on_parts for dense, on_parts in verdicts.values())
    pp, ns = SubspaceKind.PURE_POTENTIAL, SubspaceKind.NONSTRATEGIC
    assert verdicts[pp] == verdicts[pp, ns] == (False, False)


def test_nonstrategic_projection_is_averaging_blockdiag():
    space = GameSpace((2, 2, 2))
    bundle = build_projectors(space)
    expected = block_diag(
        [
            build_e(space, i) * Fraction(1, count)
            for i, count in enumerate(space.strategy_counts, start=1)
        ]
    )
    assert bundle.nonstrategic == expected


def test_bundle_entries_share_block_values():
    # at most one stored numerator object per block and set of players two
    # profiles differ on
    space = GameSpace((4, 4, 4))
    bundle = build_projectors(space)
    matrices = [bundle.projection(kind) for kind in PART_KINDS]
    objects = {id(x) for m in matrices for row in m.numerators for x in row}
    assert len(objects) <= 3 * space.n**2 * 2**space.n


def test_subspace_dimensions_sum():
    for space in SMALL_SPACES:
        total = sum(
            subspace_dimension(space, kind)
            for kind in (
                SubspaceKind.PURE_POTENTIAL,
                SubspaceKind.NONSTRATEGIC,
                SubspaceKind.PURE_HARMONIC,
            )
        )
        assert total == space.payoff_cells


# payoffs with mixed denominators on one line: zeros, negatives, plain ints
# and pairwise-distinct wide denominators, so a line sum scaled by one
# entry's denominator, or summed without rescaling, comes out wrong
MIXED_PAYOFFS = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**1000)),
)


@PROPERTY
@given(spaces(max_cells=60), st.data())
def test_axis_means_are_the_exact_line_means(space, data):
    row = data.draw(st.lists(MIXED_PAYOFFS, min_size=space.k, max_size=space.k))
    for i, count in enumerate(space.strategy_counts, start=1):
        means = axis_means(space, row, i)
        assert means == [sum(row[line], Fraction(0)) / count for line in space.lines(i)]
        averaged = average(space, row, i)
        assert all(type(x) is Fraction for x in means + averaged)
        for line, mean in zip(space.lines(i), means):
            assert averaged[line] == [mean] * count


def test_row_functions_give_fractions_and_refuse_wrong_rows():
    # exact ints in give Fractions out, not binary floats; a player out of
    # range is refused before its strategy count is read, and a row of the
    # wrong length before any line is, also where X runs no average
    space = GameSpace((2, 2))
    results = [
        (average(space, [1, 2, 3, 4], 1), [2, 3, 2, 3]),
        (axis_means(space, [1, 2, 3, 4], 2), [Fraction(3, 2), Fraction(7, 2)]),
        (apply_group_inverse(space, [1, 2, 3, 4]), [Fraction(n, 2) for n in (-3, -1, 1, 3)]),
    ]
    for result, expected in results:
        assert result == expected and all(type(x) is Fraction for x in result)
    for player in (0, 3):
        with pytest.raises(ValueError, match=r"^player \d is not an integer in 1\.\.2$"):
            axis_means(space, [1, 2, 3, 4], player)
    refused = [
        (lambda: average(space, [1, 2, 3, 4, 5], 1), 5, 4),
        (lambda: axis_means(space, [1, 2, 3], 2), 3, 4),
        (lambda: apply_group_inverse(space, [1, 2, 3, 4, 5]), 5, 4),
        (lambda: apply_group_inverse(GameSpace((1, 1)), [1, 2]), 2, 1),
    ]
    for call, got, k in refused:
        with pytest.raises(ValueError, match=f"^payoff row has {got} entries, expected {k}$"):
            call()
