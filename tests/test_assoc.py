import random

import pytest

from abelianj import assoc
from abelianj.assoc import (
    CommAssocAlgebra, IrrationalSpectrumError, NilradicalReport, check_axioms,
    check_compatibility, minimal_polynomial, nilradical, primitive_idempotents,
    square_span,
)
from abelianj.lie import PreconditionError, pushforward
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
    assert span == Subspace(3, [vec((0, 1, 0)), vec((0, 0, 1))])


def test_nilradical_and_semisimplicity():
    for a in (real_line(), complex_plane(), split_pair()):
        rep = nilradical(a)
        assert rep.is_semisimple and rep.nilradical.is_zero()
    rep = nilradical(dual_numbers())
    assert not rep.is_semisimple
    assert rep.nilradical == Subspace(2, [vec((0, 1))])
    # an algebra is nilpotent exactly when it is its own nilradical
    for a, nilpotent in ((truncated_cubic(), True), (dual_numbers(), False),
                         (CommAssocAlgebra.zero(1), True)):
        assert (nilradical(a).nilradical == Subspace.whole(a.dim)) == nilpotent


def test_minimal_polynomial():
    # rotation by 90 degrees: t^2 + 1
    assert minimal_polynomial(Matrix([[0, -1], [1, 0]])) == [rat(1), rat(0), rat(1)]
    assert minimal_polynomial(Matrix.identity(3)) == [rat(-1), rat(1)]
    nil = Matrix([[0, 1], [0, 0]])
    assert minimal_polynomial(nil) == [rat(0), rat(0), rat(1)]


def test_primitive_idempotents_exact():
    assert primitive_idempotents(real_line()) == (vec((1,)),)
    assert primitive_idempotents(split_pair()) == (vec((0, 1)), vec((1, 0)))
    assert primitive_idempotents(CommAssocAlgebra.zero(0)) == ()
    # Q(i): t^2 + 1 has no rational root, so C is not split over Q
    with pytest.raises(IrrationalSpectrumError, match="a factor of degree 2 has no rational root"):
        primitive_idempotents(complex_plane())


def test_primitive_idempotents_reject_nilradical():
    for a in (dual_numbers(), truncated_cubic()):
        with pytest.raises(PreconditionError, match="^algebra has a nonzero nilradical$"):
            primitive_idempotents(a)


def test_primitive_idempotents_irrational():
    # t^2 = 2: minimal polynomial factor t^2 - 2 is a real quadratic, and the
    # true idempotents live over Q(sqrt 2), so no rational ones exist
    sqrt2 = CommAssocAlgebra(2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {0: 2}})
    with pytest.raises(IrrationalSpectrumError):
        primitive_idempotents(sqrt2)


def test_primitive_idempotents_three_blocks():
    # R x R x R pushed forward by P: its idempotents are the columns of P
    p = Matrix([[1, 1, 1], [0, 1, 1], [0, 0, 1]])
    a = pushforward(CommAssocAlgebra(3, {(i, i): {i: 1} for i in range(3)}), p)
    out = primitive_idempotents(a)
    assert out == (vec((1, 0, 0)), vec((1, 1, 0)), vec((1, 1, 1)))
    # idempotents are pairwise orthogonal and sum to the unit: the sum
    # acts as the identity on each of them, and they span A
    total = vec((0, 0, 0))
    for e in out:
        total = tuple(x + y for x, y in zip(total, e))
    assert all(a.multiply(total, e) == e for e in out)
    # R x R x C built directly as a product table: the complex block's
    # factor t^2 + 1 is left over
    b = CommAssocAlgebra(4, {(0, 0): {0: 1}, (1, 1): {1: 1},
                             (2, 2): {2: 1}, (2, 3): {3: 1}, (3, 3): {2: -1}})
    with pytest.raises(IrrationalSpectrumError, match="a factor of degree 2 has no rational root"):
        primitive_idempotents(b)


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
    # Q(i) x Q(sqrt -2) x Q: the linear factor splits off, and the two
    # imaginary quadratic factors are left over as one quartic
    a = CommAssocAlgebra(5, {**_quadratic_field(0, -1), **_quadratic_field(2, -2),
                             (4, 4): {4: 1}})
    with pytest.raises(IrrationalSpectrumError, match="a factor of degree 4 has no rational root"):
        primitive_idempotents(a)


def test_irrational_spectrum_messages():
    # Q(i) x Q(sqrt 2): both quadratic factors are left over
    a = CommAssocAlgebra(4, {**_quadratic_field(0, -1), **_quadratic_field(2, 2)})
    with pytest.raises(IrrationalSpectrumError,
                       match="irrational spectrum: a factor of degree 4 has no rational root"):
        primitive_idempotents(a)
    # Q(cbrt 2) x Q(cbrt 3): the left-over sextic is reducible, so the
    # message names only what is certain about it
    b = CommAssocAlgebra(6, {**_cubic_field(0, 2), **_cubic_field(3, 3)})
    with pytest.raises(IrrationalSpectrumError,
                       match="a factor of degree 6 has no rational root"):
        primitive_idempotents(b)


def test_splitter_skips_primes_with_a_double_root():
    # t (t - 3) (t^2 + 1): t^2 (t^2 + 1) mod 3 has the double root 0, and
    # t (t - 3) (t - 2) (t - 3) mod 5 the double root 3; mod 7 the roots 0
    # and 3 are simple and t^2 + 1 has none
    p = [rat(0), rat(-3), rat(1), rat(-3), rat(1)]
    f, mod, roots = assoc._padic_roots(p)
    assert f == [0, -3, 1, -3, 1] and mod % 7 == 0 and mod > 2 * 4
    assert sorted(r % 7 for r in roots) == [0, 3]
    assert sorted(assoc._rational_roots(p)) == [0, 3]


def test_splitter_rejects_a_repeated_root():
    # (t - 1)^2: every prime sees the double root, and the rejected primes
    # soon outgrow the resultant bound that a squarefree input would obey
    with pytest.raises(CertificateError):
        assoc._rational_roots([rat(1), rat(-2), rat(1)])


def test_unit_draw_is_redrawn_by_degree(monkeypatch):
    # x_1 = (1, 1) is the unit of Q x Q: L_x = I has minimal polynomial
    # t - 1 of degree 1 < 2, so x_1 generates only Q and x_2 = (1, 2) is drawn
    calls, real = [], assoc.minimal_polynomial
    monkeypatch.setattr(assoc, "minimal_polynomial", lambda m: calls.append(m) or real(m))
    assert primitive_idempotents(split_pair()) == (vec((0, 1)), vec((1, 0)))
    assert calls == [Matrix.identity(2), Matrix([[1, 0], [0, 2]])]


@pytest.mark.parametrize("n, bound", [(2, 2), (3, 7)])
def test_draws_stop_at_the_proven_bound(monkeypatch, n, bound):
    # some x_t, t <= B(n) = n (n - 1)^2 / 2 + 1, generates a semisimple
    # algebra; a minimal polynomial kept below degree n exhausts them all
    a = CommAssocAlgebra(n, {(i, i): {i: 1} for i in range(n)})
    calls = []
    monkeypatch.setattr(assoc, "minimal_polynomial",
                        lambda m: calls.append(m) or [rat(-1), rat(1)])
    with pytest.raises(CertificateError, match="some x_t with t <= B\\(n\\) generates"):
        primitive_idempotents(a)
    assert len(calls) == bound


def test_a_wrong_block_fails_its_certificate(monkeypatch):
    # 1/7 is no eigenvalue of L_x: its eigenline is 0, not one-dimensional
    real = assoc._rational_roots
    monkeypatch.setattr(assoc, "_rational_roots", lambda p: real(p)[:-1] + [rat(1, 7)])
    with pytest.raises(CertificateError, match="each eigenline is one-dimensional"):
        primitive_idempotents(split_pair())


def test_an_eigenline_squaring_to_zero_fails_its_certificate(monkeypatch):
    # the zero algebra Q e, claimed semisimple: L_x = 0 has the eigenline
    # Q e, but e e = 0 has no idempotent multiple
    monkeypatch.setattr(assoc, "nilradical",
                        lambda a: NilradicalReport(Subspace.zero(a.dim), True))
    with pytest.raises(CertificateError, match="no eigenline squares to zero"):
        primitive_idempotents(CommAssocAlgebra.zero(1))


def test_idempotents_are_eigenlines_over_their_squares():
    # e0 e0 = -2 e0 and e1 e1 = (1/3) e1: the idempotents are e0 / -2 and 3 e1
    a = CommAssocAlgebra(2, {(0, 0): {0: -2}, (1, 1): {1: rat(1, 3)}})
    assert primitive_idempotents(a) == (vec((rat(-1, 2), 0)), vec((0, 3)))


def test_seeded_idempotent_round_trip():
    rng = random.Random(90125)
    for _ in range(15):
        n = rng.randint(1, 4)
        entries = [rat(rng.choice((1, 1, 2, 3, -1))) for _ in range(n)]
        a = CommAssocAlgebra(n, {(i, i): {i: entries[i]} for i in range(n)})
        out = primitive_idempotents(a)
        assert len(out) == n
        for e in out:
            assert a.multiply(e, e) == e
