import random

from hypothesis import given, settings, strategies as st

from ssgraph.intlattice import hnf_basis, lattice_contains, \
    lattice_coordinates, lattice_residue


def test_known_hermite_forms():
    assert hnf_basis([(2, 0), (0, 2), (1, 1)], 2) == ((1, 1), (0, 2))
    assert hnf_basis([(1, -1)], 2) == ((1, -1),)
    assert hnf_basis([], 2) == ()
    assert hnf_basis([(0, 0)], 2) == ()
    assert hnf_basis([(3,), (5,)], 1) == ((1,),)


def test_generator_order_is_irrelevant():
    vectors = [(4, 2), (2, 4), (6, 0)]
    expected = hnf_basis(vectors, 2)
    rng = random.Random(2)
    for _ in range(10):
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        assert hnf_basis(shuffled, 2) == expected


def test_negated_generators_give_same_lattice():
    basis = hnf_basis([(2, -1), (0, 3)], 2)
    flipped = hnf_basis([(-2, 1), (0, -3)], 2)
    assert basis == flipped


def test_coordinates_roundtrip():
    rng = random.Random(4)
    for _ in range(30):
        basis = hnf_basis(
            [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(3)],
            3)
        for _ in range(10):
            coeffs = [rng.randint(-3, 3) for _ in basis]
            z = tuple(
                sum(c * b[i] for c, b in zip(coeffs, basis))
                for i in range(3))
            coords = lattice_coordinates(basis, z)
            assert coords is not None
            rebuilt = tuple(
                sum(c * b[i] for c, b in zip(coords, basis))
                for i in range(3))
            assert rebuilt == z


def test_membership_closed_under_group_operations():
    rng = random.Random(6)
    basis = hnf_basis([(2, 2, 0), (0, 4, -2)], 3)
    members = []
    for _ in range(12):
        coeffs = [rng.randint(-3, 3) for _ in basis]
        members.append(tuple(
            sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(3)))
    for a in members:
        assert lattice_contains(basis, a)
        assert lattice_contains(basis, tuple(-x for x in a))
        for b in members:
            s = tuple(x + y for x, y in zip(a, b))
            assert lattice_contains(basis, s)


def test_non_members_rejected():
    basis = hnf_basis([(1, -1)], 2)
    assert lattice_coordinates(basis, (2, -2)) == (2,)
    assert lattice_coordinates(basis, (1, 0)) is None
    assert not lattice_contains(basis, (0, 1))


def test_empty_basis_contains_only_zero():
    assert lattice_coordinates((), (0, 0)) == ()
    assert lattice_coordinates((), (1, 0)) is None
    assert lattice_contains((), (0, 0, 0))
    assert not lattice_contains((), (0, 1, 0))


@st.composite
def lattice_cases(draw):
    """A Hermite basis in Z^k, k <= 3, a vector z and one coefficient
    per basis row."""
    k = draw(st.integers(1, 3))
    vector = st.tuples(*[st.integers(-6, 6)] * k)
    basis = hnf_basis(draw(st.lists(vector, max_size=3)), k)
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=len(basis),
                           max_size=len(basis)))
    return basis, draw(vector), coeffs


@settings(derandomize=True, max_examples=300, deadline=None)
@given(lattice_cases())
def test_residue_is_the_class_modulo_the_lattice(case):
    basis, z, coeffs = case
    shifted = tuple(x + sum(c * row[i] for c, row in zip(coeffs, basis))
                    for i, x in enumerate(z))
    assert lattice_residue(basis, z) == lattice_residue(basis, shifted)
    assert (not any(lattice_residue(basis, z))) == \
        lattice_contains(basis, z)
