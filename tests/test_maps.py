import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loewner_kit import (
    Affine,
    CAYLEY,
    CAYLEY_INV,
    Composition,
    DiskAutomorphism,
    Domain,
    GenericCallable,
    Identity,
    MeasureSpec,
    Moebius,
    SlitStep,
    build_from_measure,
    cayley,
    cayley_inverse,
    compose,
    conjugate_by_cayley,
    invert_numeric,
    map_from_spec,
    map_to_spec,
    pseudo_hyperbolic,
    sqrt_upper,
)
from loewner_kit.classes import boundary_derivative
from loewner_kit.errors import (
    BoundaryEvaluation,
    DerivativeVanishes,
    InvalidMap,
    NoConvergence,
)
from loewner_kit.maps import slit_root

from conftest import random_halfplane_mobius, sample_disk, sample_half_plane


disk_points = st.complex_numbers(max_magnitude=0.9, allow_infinity=False, allow_nan=False)


class TestCayley:
    def test_origin_to_i(self):
        assert cayley(0.0) == 1j

    def test_half_to_3i(self):
        assert abs(cayley(0.5) - 3j) < 1e-15

    def test_i_to_origin(self):
        assert cayley_inverse(1j) == 0

    def test_3i_to_half(self):
        assert abs(cayley_inverse(3j) - 0.5) < 1e-15

    def test_round_trip_example(self):
        z = 0.3 + 0.2j
        assert abs(cayley_inverse(cayley(z)) - z) < 1e-12
        w = 1 + 2j
        assert abs(cayley(cayley_inverse(w)) - w) < 1e-12

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryEvaluation):
            cayley(1.0 - 1e-16)
        with pytest.raises(BoundaryEvaluation):
            cayley_inverse(1.0 + 0j)

    def test_round_trips_bulk(self, rng):
        z = sample_disk(rng, 1000)
        assert np.max(np.abs(CAYLEY_INV.evaluate(CAYLEY.evaluate(z)) - z)) < 1e-12
        w = sample_half_plane(rng, 1000)
        assert np.max(np.abs(CAYLEY.evaluate(CAYLEY_INV.evaluate(w)) - w)) < 1e-12

    @given(disk_points)
    def test_image_in_half_plane(self, z):
        if abs(z) < 0.9:
            assert cayley(z).imag > 0


class TestNonFinitePointsRejected:
    """A point with a NaN or infinite part is no interior point of either
    domain; the domain checks are written so that NaN fails them."""

    @pytest.mark.parametrize("z", [
        complex(0.1, math.nan), complex(math.nan, 1.0), complex(math.inf, 1.0),
        complex(0.0, math.inf),
    ])
    def test_half_plane(self, z):
        run = SlitStep(np.array([0.0, 0.3]), np.array([0.5, 0.5]), "erase")
        for m in (run, CAYLEY_INV):
            with pytest.raises(BoundaryEvaluation):
                m.evaluate(z)
            with pytest.raises(BoundaryEvaluation):
                m.evaluate(np.array([0.5j, z]))

    @pytest.mark.parametrize("z", [
        complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0),
    ])
    def test_disk(self, z):
        with pytest.raises(BoundaryEvaluation):
            CAYLEY.evaluate(z)
        with pytest.raises(BoundaryEvaluation):
            CAYLEY.derivative(np.array([0.1, z]))


class TestSqrtBranch:
    @given(st.complex_numbers(max_magnitude=1e6, allow_infinity=False, allow_nan=False))
    def test_branch_squares_back(self, u):
        s = complex(sqrt_upper(u))
        assert s.imag >= 0
        assert abs(s * s - u) <= 1e-9 * (1 + abs(u))

    def test_positive_reals_get_positive_root(self):
        assert complex(sqrt_upper(4.0)) == 2.0

    def test_an_underflowed_root_stays_on_the_upper_side(self):
        # Im v < 0 < Re v and the principal root's imaginary part underflows
        # to -0: the root in the closed upper half-plane is -t + 3e-325j,
        # which rounds to -t + 0j, not t - 0j
        root = -math.sqrt(1e63) + 0j
        assert _bits(sqrt_upper(1e63 - 2e-293j)) == _bits(root)
        assert _bits(sqrt_upper(np.array([1e63 - 2e-293j, 4.0]))) == _bits([root, 2.0])
        # the kernel's step from the real side of that v
        assert _bits(slit_root(complex(-1e-68, 1e-225), 1e63)) == _bits(root)


def _bits(x):
    return np.atleast_1d(np.asarray(x, dtype=complex)).view(np.uint64).tolist()


# the four forms a walk hands the kernel: a Python complex, a numpy scalar,
# a 0-d array and a point inside a 1-d array (each rounds u * u its own way)
U_FORMS = (
    complex,
    np.complex128,
    lambda u: np.asarray(u, dtype=complex),
    lambda u: np.array([0.7 + 0.2j, u, -1.5 + 1e-3j]),
)
magnitudes = st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e)
angles = st.floats(-math.pi, math.pi)


class TestSlitRootBits:
    """``slit_root(u, c)`` is ``sqrt_upper(u * u + c)`` bit for bit off the
    cut, where both parts of the root are nonzero (so Im(u^2 + c) != 0 and
    the smaller part does not underflow), for each form of u and both
    signs of c."""

    @staticmethod
    def _check(u, c):
        for form in U_FORMS:
            uf = form(u)
            want = sqrt_upper(uf * uf + c)
            assume(np.all(want.real != 0.0) and np.all(want.imag != 0.0))
            assert _bits(slit_root(uf, c)) == _bits(want)

    @settings(max_examples=400, deadline=None)
    @given(magnitudes, angles, magnitudes, st.sampled_from([1.0, -1.0]))
    def test_matches_the_reference_root(self, r, theta, c, sign):
        self._check(r * complex(math.cos(theta), math.sin(theta)), sign * c)

    @settings(max_examples=300, deadline=None)
    @given(magnitudes, st.floats(-1e-6, 1e-6), st.floats(-1e-6, 1e-6))
    def test_matches_next_to_the_slit_tip(self, c, dx, dy):
        # u near i sqrt(c), where v = u^2 + c nearly cancels to 0
        tip = 1j * math.sqrt(c)
        self._check(tip + complex(dx, dy) * abs(tip), c)

    def test_rule_on_the_cut(self):
        # a real u, or a complex one with Im(u^2) = +0, keeps the
        # nonnegative root of v > 0
        assert slit_root(0.0, 1.0) == 1.0
        root = math.sqrt(1.25)
        assert _bits(slit_root(0.5, 1.0)) == _bits(slit_root(-0.5, 1.0)) == _bits(root)
        # Im(u^2) = -0 takes the root's limit from the upper half-plane
        got = slit_root(np.array([0.5, -0.5], dtype=complex), 1.0)
        assert _bits(got) == _bits([root, -root])
        assert _bits(slit_root(complex(-0.5, 0.0), 1.0)) == _bits(-root)
        assert _bits(slit_root(complex(-0.0, 0.5), 1.0)) == _bits(-math.sqrt(0.75))
        # Im v = -2e-293 < 0 < Re v: the smaller part of the root underflows,
        # and the root stays on the side of lambda it came from
        assert _bits(slit_root(complex(-1e-68, 1e-225), 1e63)) == _bits(-math.sqrt(1e63))


class TestPseudoHyperbolic:
    def test_identity_case(self):
        assert pseudo_hyperbolic(1j, 1j) == 0

    def test_known_value(self):
        assert abs(pseudo_hyperbolic(1j, 2j) - 1 / 3) < 1e-15

    def test_translation_invariance(self):
        assert abs(pseudo_hyperbolic(1 + 1j, 1 + 2j) - 1 / 3) < 1e-15

    def test_symmetry(self, rng):
        for _ in range(50):
            z, w = sample_half_plane(rng, 2)
            assert abs(pseudo_hyperbolic(z, w) - pseudo_hyperbolic(w, z)) < 1e-14

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryEvaluation):
            pseudo_hyperbolic(1.0 + 0j, 1j)

    def test_mobius_invariance(self, rng):
        # invariance under half-plane Moebius maps, 1000 trials
        for _ in range(1000):
            L = random_halfplane_mobius(rng)
            z, w = sample_half_plane(rng, 2)
            lhs = pseudo_hyperbolic(complex(L(z)), complex(L(w)))
            rhs = pseudo_hyperbolic(z, w)
            assert abs(lhs - rhs) < 1e-10


class TestComposition:
    def test_associativity_bit_for_bit(self, rng):
        f = Affine(2.0 + 0.5j, 1.0)
        g = SlitStep(0.3, 0.4, "erase")
        h = Moebius(1.0, 1.0, 0.0, 1.0)
        left = compose(compose(f, g), h)
        right = compose(f, compose(g, h))
        for z in sample_half_plane(rng, 64):
            assert left(z) == right(z)

    def test_chain_rule_matches_factor_product(self, rng):
        g = SlitStep(0.0, 0.5, "erase")
        f = Affine(1.5, 0.25j)
        m = compose(f, g)
        for z in sample_half_plane(rng, 100):
            prod = complex(f.derivative(complex(g(z)))) * complex(g.derivative(z))
            d = complex(m.derivative(z))
            assert abs(d - prod) <= 1e-10 * (1 + abs(prod))

    def test_derivative_against_finite_difference(self, rng):
        mu = MeasureSpec.from_atoms((0.5, 0.3), (-1.0, 0.2))
        maps = [
            compose(SlitStep(0.2, 0.3, "erase"), build_from_measure(mu)),
            compose(Moebius(2.0, 1.0, 0.0, 1.0), SlitStep(-0.5, 0.7, "erase")),
            conjugate_by_cayley(DiskAutomorphism(0.3 + 0.2j)),
        ]
        for m in maps:
            for z in sample_half_plane(rng, 30, y_min=0.3):
                h = 1e-5
                fd = (complex(m(z + h)) - complex(m(z - h))) / (2 * h)
                ex = complex(m.derivative(z))
                assert abs(ex - fd) <= 1e-6 * (1 + abs(ex))

    def test_flatten_is_canonical(self):
        f, g, h = Affine(2.0, 0.0), Affine(1.0, 1j), Affine(3.0, -1.0)
        a = compose(compose(f, g), h)
        b = compose(f, compose(g, h))
        assert isinstance(a, Composition)
        assert a.factors == b.factors

    def test_tail_composition(self):
        # (2z+1) o erase(0, 0.5) o (z+1): exact tail bookkeeping
        m = compose(Affine(2.0, 1.0), SlitStep(0.0, 0.5, "erase"), Affine(1.0, 1.0))
        t = m.tail
        assert (t.a, t.b, t.c) == (2.0, 3.0, -1.0)

    def test_half_plane_codomain_positivity(self, rng):
        m = compose(SlitStep(0.4, 0.6, "erase"), SlitStep(-0.2, 0.3, "erase"))
        assert m.codomain is Domain.HALF_PLANE
        z = sample_half_plane(rng, 500)
        assert np.min(m.evaluate(z).imag) > -1e-12


class TestConjugateByCayley:
    def test_identity_both_ways(self, rng):
        z = sample_disk(rng, 10)
        m = conjugate_by_cayley(Identity(Domain.HALF_PLANE))
        assert m.domain is Domain.DISK
        assert np.max(np.abs(m.evaluate(z) - z)) < 1e-12
        w = sample_half_plane(rng, 10)
        m2 = conjugate_by_cayley(Identity(Domain.DISK))
        assert m2.domain is Domain.HALF_PLANE
        assert np.max(np.abs(m2.evaluate(w) - w)) < 1e-12

    def test_agrees_with_manual_composition(self, rng):
        phi = DiskAutomorphism(0.4 - 0.1j)
        m = conjugate_by_cayley(phi)
        w = sample_half_plane(rng, 50)
        manual = CAYLEY.evaluate(phi.evaluate(CAYLEY_INV.evaluate(w)))
        assert np.max(np.abs(m.evaluate(w) - manual)) < 1e-12

    def test_double_conjugation_cancels(self):
        phi = DiskAutomorphism(0.25)
        back = conjugate_by_cayley(conjugate_by_cayley(phi))
        assert back.factors == (phi,)

    def test_shift_conjugates_to_parabolic_contact(self):
        # w -> w + i becomes a disk self-map fixing 1 with boundary derivative 1
        shift = Affine(1.0, 1j)
        phi = conjugate_by_cayley(shift)
        assert phi.domain is Domain.DISK
        assert abs(boundary_derivative(phi) - 1.0) < 1e-6


class TestSlitRun:
    def test_malformed_run_rejected(self):
        for lam, cap in (([0.0, 1.0], [0.1]), ([], []), ([[0.0]], [[0.1]]), ([0.0, 1.0], [0.1, -0.1])):
            with pytest.raises(InvalidMap):
                SlitStep(lam, cap, "erase")


class TestMoebius:
    def test_degenerate_rejected(self):
        with pytest.raises(InvalidMap):
            Moebius(1.0, 2.0, 2.0, 4.0)

    def test_self_map_declaration_checked(self):
        Moebius(2.0, 1.0, 0.0, 1.0, self_map_of=Domain.HALF_PLANE)  # fine: real coefficients
        with pytest.raises(InvalidMap):
            Moebius(1.0, 1j, 0.0, 1.0, self_map_of=Domain.HALF_PLANE)


class TestInvertNumeric:
    def test_affine(self):
        assert abs(invert_numeric(Affine(2.0, 1.0), 5.0, 0.0) - 2.0) < 1e-12

    def test_slit_step_closed_form(self):
        m = SlitStep(0.0, 0.5, "erase")
        z = invert_numeric(m, 1j * math.sqrt(2), 1j)
        assert abs(z - 1j) < 1e-12

    def test_mobius_exact(self, rng):
        m = Moebius(1.0, 2.0, 0.5, 2.0)
        for z in sample_half_plane(rng, 20):
            w = complex(m(z))
            assert abs(invert_numeric(m, w, 1j) - z) < 1e-12

    def test_newton_on_measure_map(self):
        m = build_from_measure(MeasureSpec.point_mass(0.5))
        z0 = 1.0 + 1.5j
        w = complex(m(z0))
        assert abs(invert_numeric(m, w, 1.0 + 1.0j) - z0) < 1e-10

    def test_derivative_vanishes(self):
        flat = GenericCallable(lambda z: z * z, Domain.HALF_PLANE, Domain.PLANE,
                               dfunc=lambda z: 2 * z, assume_univalent=True)
        with pytest.raises((DerivativeVanishes, NoConvergence)):
            invert_numeric(flat, -1.0 + 0j, 1e-15 + 1e-15j)


class TestSerialization:
    def test_round_trip(self, rng):
        mu = MeasureSpec.from_atoms((0.0, 1.0), (1.0, 0.5))
        m = compose(
            Affine(2.0, 1.0 + 0.5j),
            SlitStep(0.1, 0.2, "grow"),
            build_from_measure(mu),
            conjugate_by_cayley(DiskAutomorphism(0.3)),
        )
        spec = map_to_spec(m)
        text = json.dumps(spec)
        m2 = map_from_spec(json.loads(text))
        z = sample_half_plane(rng, 30)
        assert np.array_equal(m.evaluate(z), m2.evaluate(z))

    def test_complex_values_as_pairs(self):
        spec = map_to_spec(Affine(1.0 + 2.0j, 0.5))
        assert spec["a"] == [1.0, 2.0]
        assert spec["b"] == [0.5, 0.0]

    def test_unknown_kind_rejected(self):
        from loewner_kit.errors import ParseError

        with pytest.raises(ParseError):
            map_from_spec({"kind": "socks"})

    def test_generic_callable_does_not_serialize(self):
        m = GenericCallable(lambda z: z, Domain.DISK, Domain.DISK, assume_univalent=True)
        with pytest.raises(NotImplementedError):
            map_to_spec(m)


class TestElementaryInverses:
    @settings(max_examples=200)
    @given(
        st.floats(-2.0, 2.0),
        st.floats(0.0, 1.5),
        st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
    )
    def test_erase_undoes_grow(self, lam, cap, z):
        w = complex(z.real, abs(z.imag) + 0.01)
        # points exactly on the elementary slit map to the boundary; the
        # identity holds everywhere else
        assume(abs(w.real - lam) > 1e-12 or w.imag > math.sqrt(2 * cap))
        e = SlitStep(lam, cap, "erase")
        g = SlitStep(lam, cap, "grow")
        assert abs(complex(e(complex(g(w)))) - w) < 1e-13 * (1 + abs(w))
