import random

import pytest

from abelianj import assoc
from abelianj.assoc import (
    CommAssocAlgebra, GenericityError, IrrationalSpectrumError,
    NotSemisimpleError, check_axioms, check_compatibility,
    minimal_polynomial, nilradical, primitive_idempotents, square_span, unit,
)
from abelianj.lie import PreconditionError
from abelianj.linalg import CertificateError, DimensionMismatch, Matrix, Subspace, rat, vec


def real_line():
    return CommAssocAlgebra(1, {(0, 0): {0: 1}})


def complex_plane():
    return CommAssocAlgebra(2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {0: -1}})


def split_pair():
    return CommAssocAlgebra(2, {(0, 0): {0: 1}, (1, 1): {1: 1}})


def dual_numbers():
    return CommAssocAlgebra(2, {(0, 0): {0: 1}, (0, 1): {1: 1}})


def truncated_cubic():
    # t, t^2, t^3 with t^4 = 0: the non-unital three-dimensional model
    return CommAssocAlgebra(3, {(0, 0): {1: 1}, (0, 1): {2: 1}})


def test_ctor_validation():
    with pytest.raises(DimensionMismatch):
        CommAssocAlgebra(2, {(1, 0): {0: 1}})
    with pytest.raises(DimensionMismatch):
        CommAssocAlgebra(2, {(0, 2): {0: 1}})
    with pytest.raises(DimensionMismatch):
        CommAssocAlgebra(2, basis_names=("x",))


def test_multiply_and_left_mult():
    a = complex_plane()
    # (1 + 2i)(3 + i) = 1 + 7i
    assert a.multiply(vec((1, 2)), vec((3, 1))) == vec((1, 7))
    lm = a.left_mult(vec((0, 1)))
    assert lm == Matrix([[0, -1], [1, 0]])
    with pytest.raises(DimensionMismatch):
        a.multiply(vec((1,)), vec((1, 0)))


def test_axioms_pass_on_models():
    for a in (real_line(), complex_plane(), split_pair(), dual_numbers(),
              truncated_cubic(), CommAssocAlgebra.zero(3)):
        assert check_axioms(a) is None


def test_axiom_witness_nonassociative():
    # e1 e1 = e2, e2 e2 = e1 is commutative but not associative
    a = CommAssocAlgebra(2, {(0, 0): {1: 1}, (1, 1): {0: 1}})
    wit = check_axioms(a)
    assert wit is not None
    assert wit.kind == "associativity"


def test_compatibility_families():
    rng = random.Random(7151)
    zero2 = CommAssocAlgebra.zero(2)
    assert check_compatibility(complex_plane(), zero2) is None
    assert check_compatibility(complex_plane(), complex_plane()) is None
    for _ in range(10):
        d1 = CommAssocAlgebra(3, {(i, i): {i: rng.randint(-3, 3)} for i in range(3)})
        d2 = CommAssocAlgebra(3, {(i, i): {i: rng.randint(-3, 3)} for i in range(3)})
        assert check_compatibility(d1, d2) is None


def test_compatibility_witness_and_preconditions():
    # unit times nilpotent fails the mixed identity against the dual numbers
    wit = check_compatibility(dual_numbers(), split_pair())
    assert wit is not None
    assert wit.identity in (1, 2)
    with pytest.raises(PreconditionError):
        check_compatibility(real_line(), complex_plane())
    bad = CommAssocAlgebra(2, {(0, 0): {1: 1}, (1, 1): {0: 1}})
    with pytest.raises(PreconditionError):
        check_compatibility(bad, bad)


def test_square_span():
    assert square_span(complex_plane()) == Subspace.whole(2)
    assert square_span(CommAssocAlgebra.zero(2)).is_zero()
    span = square_span(truncated_cubic())
    assert span.dim == 2
    assert span.contains_vector(vec((0, 1, 0))) and span.contains_vector(vec((0, 0, 1)))


def test_nilradical_and_semisimplicity():
    for a in (real_line(), complex_plane(), split_pair()):
        rep = nilradical(a)
        assert rep.is_semisimple and rep.nilradical.is_zero()
    rep = nilradical(dual_numbers())
    assert not rep.is_semisimple
    assert rep.nilradical.dim == 1 and rep.nilradical.contains_vector(vec((0, 1)))
    # an algebra is nilpotent exactly when it is its own nilradical
    for a, nilpotent in ((truncated_cubic(), True), (dual_numbers(), False),
                         (CommAssocAlgebra.zero(1), True)):
        assert (nilradical(a).nilradical == Subspace.whole(a.dim)) == nilpotent


def test_unit_vectors():
    assert unit(real_line()) == vec((1,))
    assert unit(complex_plane()) == vec((1, 0))
    assert unit(split_pair()) == vec((1, 1))
    assert unit(dual_numbers()) == vec((1, 0))
    assert unit(truncated_cubic()) is None
    assert unit(CommAssocAlgebra.zero(2)) is None


def test_minimal_polynomial():
    # rotation by 90 degrees: t^2 + 1
    assert minimal_polynomial(Matrix([[0, -1], [1, 0]])) == [rat(1), rat(0), rat(1)]
    assert minimal_polynomial(Matrix.identity(3)) == [rat(-1), rat(1)]
    nil = Matrix([[0, 1], [0, 0]])
    assert minimal_polynomial(nil) == [rat(0), rat(0), rat(1)]


def test_primitive_idempotents_exact():
    one = primitive_idempotents(real_line())
    assert one.idempotents == (vec((1,)),)
    assert one.factor_types == ("R",)

    cx = primitive_idempotents(complex_plane())
    assert cx.idempotents == (vec((1, 0)),)
    assert cx.factor_types == ("C",)

    sp = primitive_idempotents(split_pair())
    assert set(sp.idempotents) == {vec((1, 0)), vec((0, 1))}
    assert sp.factor_types == ("R", "R")


def test_primitive_idempotents_reject_nilradical():
    with pytest.raises(NotSemisimpleError):
        primitive_idempotents(dual_numbers())
    with pytest.raises(NotSemisimpleError):
        primitive_idempotents(truncated_cubic())


def test_primitive_idempotents_irrational():
    # t^2 = 2: minimal polynomial factor t^2 - 2 is a real quadratic, and the
    # true idempotents live over Q(sqrt 2), so no rational ones exist
    sqrt2 = CommAssocAlgebra(2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {0: 2}})
    with pytest.raises(IrrationalSpectrumError):
        primitive_idempotents(sqrt2)


def test_primitive_idempotents_three_blocks():
    # R x R x C built directly as a product table
    a = CommAssocAlgebra(4, {(0, 0): {0: 1}, (1, 1): {1: 1},
                             (2, 2): {2: 1}, (2, 3): {3: 1}, (3, 3): {2: -1}})
    out = primitive_idempotents(a)
    assert out.factor_types == ("C", "R", "R")
    assert set(out.idempotents) == {vec((0, 0, 1, 0)), vec((1, 0, 0, 0)),
                                    vec((0, 1, 0, 0))}
    # idempotents are pairwise orthogonal and sum to the unit
    total = vec((0, 0, 0, 0))
    for e in out.idempotents:
        total = tuple(x + y for x, y in zip(total, e))
    assert total == unit(a)


def _quadratic_field(offset, d):
    """Q(sqrt d) on the basis 1, sqrt d at positions offset, offset + 1."""
    o = offset
    return {(o, o): {o: 1}, (o, o + 1): {o + 1: 1}, (o + 1, o + 1): {o: d}}


def _cubic_field(offset, k):
    """Q(c), c^3 = k, on the basis 1, c, c^2 from position offset."""
    o = offset
    return {(o, o): {o: 1}, (o, o + 1): {o + 1: 1}, (o, o + 2): {o + 2: 1},
            (o + 1, o + 1): {o + 2: 1}, (o + 1, o + 2): {o: k}, (o + 2, o + 2): {o + 1: k}}


def test_primitive_idempotents_two_complex_blocks():
    # Q(i) x Q(sqrt -2) x Q: two imaginary quadratic factors and a linear one
    a = CommAssocAlgebra(5, {**_quadratic_field(0, -1), **_quadratic_field(2, -2),
                             (4, 4): {4: 1}})
    out = primitive_idempotents(a)
    assert out.factor_types == ("C", "C", "R")
    assert out.idempotents == (vec((0, 0, 1, 0, 0)), vec((1, 0, 0, 0, 0)),
                               vec((0, 0, 0, 0, 1)))


def test_irrational_spectrum_messages():
    # Q(i) x Q(sqrt 2): the real quadratic factor is named by its degree
    a = CommAssocAlgebra(4, {**_quadratic_field(0, -1), **_quadratic_field(2, 2)})
    with pytest.raises(IrrationalSpectrumError,
                       match="irreducible factor of degree 2 is not linear or an imaginary quadratic"):
        primitive_idempotents(a)
    # Q(cbrt 2) x Q(cbrt 3): the left-over sextic is reducible, so the
    # message names only what is certain about it
    b = CommAssocAlgebra(6, {**_cubic_field(0, 2), **_cubic_field(3, 3)})
    with pytest.raises(IrrationalSpectrumError,
                       match="a factor of degree 6 has no linear or quadratic factor over Q"):
        primitive_idempotents(b)


def test_splitter_rejects_a_repeated_root():
    # (t - 1)^2: every prime sees the double root, and the rejected primes
    # soon outgrow the resultant bound that a squarefree input would obey
    with pytest.raises(CertificateError):
        assoc._split_over_q([rat(1), rat(-2), rat(1)])


def test_generic_element_retry_is_bounded(monkeypatch):
    monkeypatch.setattr(assoc, "_GENERIC_DRAWS", 0)
    with pytest.raises(GenericityError):
        primitive_idempotents(split_pair())


def test_unit_draw_is_redrawn_by_degree(monkeypatch):
    # L_u = I has minimal polynomial t - 1 of degree 1 < 2, so the unit
    # generates only Q and the next draw is taken
    calls, real = [], assoc.minimal_polynomial
    monkeypatch.setattr(assoc, "minimal_polynomial", lambda m: calls.append(m) or real(m))
    monkeypatch.setattr(assoc, "_generic_elements",
                        lambda dim: iter([vec((1, 1)), vec((1, 2)), vec((3, 5))]))
    out = primitive_idempotents(split_pair())
    assert out.idempotents == (vec((0, 1)), vec((1, 0))) and out.factor_types == ("R", "R")
    assert len(calls) == 2


def test_only_non_generic_draws_raise_genericity_error(monkeypatch):
    monkeypatch.setattr(assoc, "_generic_elements", lambda dim: iter([vec((2, 2))] * 5))
    with pytest.raises(GenericityError):
        primitive_idempotents(split_pair())


def test_a_wrong_block_fails_its_certificate(monkeypatch):
    # the kernel of a zero matrix is all of A, not a block of its factor's
    # degree: a certificate names it before u is solved for in the stacked basis
    monkeypatch.setattr(assoc, "_poly_eval_matrix", lambda f, m: Matrix.zeros(m.nrows, m.nrows))
    with pytest.raises(CertificateError, match="factor's degree"):
        primitive_idempotents(split_pair())


def test_seeded_idempotent_round_trip():
    rng = random.Random(90125)
    for _ in range(15):
        n = rng.randint(1, 4)
        entries = [rat(rng.choice((1, 1, 2, 3, -1))) for _ in range(n)]
        a = CommAssocAlgebra(n, {(i, i): {i: entries[i]} for i in range(n)})
        out = primitive_idempotents(a)
        assert len(out.idempotents) == n
        assert out.factor_types == ("R",) * n
        for e in out.idempotents:
            assert a.multiply(e, e) == e
