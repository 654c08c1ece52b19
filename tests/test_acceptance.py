"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with -s to see them live); every
assertion is exact, with no numeric tolerance anywhere.
"""
import random
from contextlib import contextmanager

import pytest

from abelianj.assoc import CommAssocAlgebra, square_span
from abelianj.complex_structures import (
    ComplexStructure, abelian_cs_report, is_abelian_cs, is_holomorphic_iso,
    is_integrable,
)
from abelianj.constructions import (
    double_product, equal_products_iso, extract_products, recognize_aff,
    witness_check,
)
from abelianj.hermitian import (
    curvature_norm_sq, d_omega, first_canonical, is_kahler, sectional_curvature,
)
from abelianj.lab import (
    THEOREM_NAMES, kahler_decompose, random_kahler_instance, random_pair,
    random_unimodular, theorem_suite,
)
from abelianj.lie import (
    check_jacobi, commutator_ideal, is_unimodular, pushforward,
)
from abelianj.linalg import Matrix, Subspace, rat, vec
from abelianj import serialize

SUITE_SEED = 20240823
SUITE_TRIALS = 500


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d %s: FAIL" % (num, title), flush=True)
        raise
    print("ACCEPTANCE %d %s: PASS" % (num, title), flush=True)


@pytest.fixture(scope="session")
def suite_report():
    return theorem_suite(SUITE_SEED, SUITE_TRIALS)


def load_triple(fixtures_dir, name):
    return serialize.load_instance(str(fixtures_dir / name)).triple()


def basis(n, i):
    return vec([1 if c == i else 0 for c in range(n)])


def test_criterion_1_fixture_structure(fixtures_dir):
    with criterion(1, "complex affine motions fixture structure"):
        for name in ("aff_c_j1.json", "aff_c_j2.json"):
            t = load_triple(fixtures_dir, name)
            g, j = t.algebra, t.j
            assert check_jacobi(g) is None
            assert (j.matrix @ j.matrix) == Matrix.identity(4).scale(rat(-1))
            assert is_abelian_cs(g, j)
            assert is_integrable(g, j)
            rep = abelian_cs_report(g, j)
            assert rep.center_j_stable
            assert rep.ad_twist
            assert rep.commutator_abelian
            assert rep.j_commutator_abelian_subalgebra
            assert rep.intersection_central
            assert not is_unimodular(g)


def test_criterion_2_double_product_round_trip():
    with criterion(2, "double product splitting round trip"):
        rng = random.Random(8080)
        trials = 0
        for rep in range(14):
            for dim_a in range(1, 7):
                for fam in ("trivial-star", "equal-products", "diagonal-pair"):
                    for disguise in (False, True):
                        dot, star = random_pair(rng, dim_a, fam)
                        dp = double_product(dot, star)
                        g, j, u = dp.algebra, dp.j, dp.u
                        if disguise:
                            p = random_unimodular(rng, g.dim)
                            g = pushforward(g, p)
                            j = ComplexStructure((p @ j.matrix) @ p.inverse())
                            u = u.image(p)
                        assert check_jacobi(g) is None
                        assert is_abelian_cs(g, j)
                        assert witness_check(g, j, u)
                        ext = extract_products(g, j, u)
                        assert is_holomorphic_iso(ext.iso)
                        if not disguise:
                            # same basis, so recovery is exact equality
                            assert ext.dot == dot and ext.star == star
                        trials += 1
        assert trials == 504


def test_criterion_3_product_recognition(fixtures_dir):
    with criterion(3, "equal-pair isomorphism and product recognition"):
        for name in ("prod_real.json", "prod_complex.json",
                     "prod_split_pair.json", "prod_dual_numbers.json"):
            a = serialize.load_algebra(str(fixtures_dir / name))
            pair = equal_products_iso(a)
            assert is_holomorphic_iso(pair)
        t = load_triple(fixtures_dir, "aff_c_j2.json")
        out = recognize_aff(t.algebra, t.j)
        assert out.half == commutator_ideal(t.algebra)
        a = out.algebra
        assert a.m[0][0] == vec((-1, 0))
        assert a.m[0][1] == vec((0, -1))
        assert a.m[1][1] == vec((1, 0))
        # full square span: the product generates the whole half
        assert square_span(a) == Subspace.whole(2)
        # explicit multiplicative identification with the complex line
        cx = CommAssocAlgebra(2, {(0, 0): {0: 1}, (0, 1): {1: 1},
                                  (1, 1): {0: -1}})
        q = Matrix([[-1, 0], [0, 1]])
        for i in range(2):
            for k in range(2):
                assert q.apply(a.m[i][k]) == cx.multiply(q.column(i), q.column(k))
        assert is_holomorphic_iso(out.iso)


def test_criterion_4_exact_curvatures(fixtures_dir):
    with criterion(4, "curved plane decomposition with exact curvatures"):
        t = load_triple(fixtures_dir, "kahler_two_blocks_scaled.json")
        dec = kahler_decompose(t)
        assert dec.n == 2
        assert dec.s == 1
        assert dec.curvatures == (rat(1, 4), rat(1))
        for f in dec.factors:
            b0, b1 = f.plane.basis
            assert sectional_curvature(t.algebra, t.metric, b0, b1) == -f.curvature
        alg, jm, gram = dec.rebuild()
        assert alg == t.algebra
        assert jm == t.j.matrix
        assert gram == t.metric.gram


def test_criterion_5_connection_identities(suite_report):
    with criterion(5, "canonical connection identities"):
        assert suite_report.trials == SUITE_TRIALS
        for name in ("hermitian_connection_identities",
                     "closed_form_matches_cyclic_identity",
                     "twisted_cyclic_under_zero_first_connection"):
            counts = suite_report.theorems[name]
            assert counts["pass"] == SUITE_TRIALS
            assert counts["fail"] == 0


def test_criterion_6_rigidity(fixtures_dir, suite_report):
    with criterion(6, "curvature rigidity has no counterexamples"):
        for name in ("zero_first_connection_forces_abelian",
                     "flat_first_connection_forces_abelian",
                     "nilpotent_nonabelian_first_connection_curved"):
            counts = suite_report.theorems[name]
            assert counts["pass"] == SUITE_TRIALS
            assert counts["fail"] == 0
        assert suite_report.counterexamples == []
        # non-flat witnesses: both fixtures carry nonzero exact curvature
        t = load_triple(fixtures_dir, "aff_c_j1.json")
        assert curvature_norm_sq(t.algebra, first_canonical(t)) == 6
        nil = load_triple(fixtures_dir, "nilpotent_step3.json")
        assert curvature_norm_sq(nil.algebra, first_canonical(nil)) == rat(67, 8)


def test_criterion_7_kahler_decomposition(suite_report):
    with criterion(7, "Kahler decomposition completeness"):
        counts = suite_report.theorems["kahler_decomposition_complete"]
        assert counts["pass"] == SUITE_TRIALS and counts["fail"] == 0
        ran = 0
        for seed in range(200):
            sample = random_kahler_instance(3000 + seed,
                                            max_dim=(4, 6, 8, 10, 12)[seed % 5])
            dec = kahler_decompose(sample.triple)
            assert dec.n == commutator_ideal(sample.triple.algebra).dim
            assert dec.n == sample.factor_count
            ran += 1
        assert ran == 200


def test_criterion_8_closedness_defect(fixtures_dir):
    with criterion(8, "closedness defect of the fundamental form"):
        t = load_triple(fixtures_dir, "aff_c_j1.json")
        assert d_omega(t, basis(4, 0), basis(4, 2), basis(4, 3)) == -2
        assert not is_kahler(t)


def test_all_theorems_have_totals(suite_report):
    for name in THEOREM_NAMES:
        counts = suite_report.theorems[name]
        assert counts["pass"] + counts["fail"] == SUITE_TRIALS
