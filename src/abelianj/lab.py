"""Seeded instance generators and end-to-end structure verifiers.

kahler_decompose runs the structural splitting proof as an algorithm: every
numbered step is certified exactly and a failed certificate names the step.
theorem_suite fuzzes the rigidity statements over the generator families and
reports violations, failed certificates among them, as data, never raising.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import serialize
from .assoc import (
    CommAssocAlgebra, IrrationalSpectrumError, check_axioms, nilradical,
    primitive_idempotents,
)
from .complex_structures import (
    ComplexStructure, HolomorphicPair, abelian_cs_report, is_abelian_cs,
    is_holomorphic_iso, j_stable_commutator,
)
from .constructions import _greedy_j_half, _half_products, _shifted, double_product
from .hermitian import (  # curvature: bench/test_bench.py reads lab.curvature
    HermitianTriple, InnerProduct, _is_adjoint, connection_flags, curvature,
    cyclic_metric_identity, first_canonical, is_flat, is_kahler,
    twisted_cyclic_identity,
)
from .lie import (
    LieAlgebra, PreconditionError, commutator_ideal,
    derived_and_central_series, is_unimodular, pushforward,
)
from .linalg import (
    CertificateError, Matrix, SingularMatrix, Subspace, _combine, _dense, _nonzeros, certify,
    rat,
)

FAMILIES = ("trivial-star", "equal-products", "diagonal-pair")


class KahlerFactor(NamedTuple):
    idempotent: tuple       # ambient coordinates of the curved direction
    norm_sq: object         # r^2 = g(e, e)
    curvature: object       # c = 1/r^2; the factor plane has sectional -c
    plane: Subspace         # span{e, Je}


@dataclass(frozen=True)
class KahlerDecomposition:
    factors: tuple
    center: Subspace
    change_of_basis: Matrix     # columns [Je_1, e_1, ..., Je_n, e_n | center pairs]
    model: HermitianTriple      # block model in the new basis

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def s(self) -> int:
        return self.center.dim // 2

    @property
    def curvatures(self) -> tuple:
        return tuple(f.curvature for f in self.factors)

    def rebuild(self):
        """Transport the block model back through change_of_basis; must
        reproduce the input tensors exactly."""
        p = self.change_of_basis
        pinv = p.inverse()
        alg = pushforward(self.model.algebra, p)
        jm = (p @ self.model.j.matrix) @ pinv
        gram = (pinv.transpose() @ self.model.metric.gram) @ pinv
        return alg, jm, gram


def _standard_block_j(n_blocks: int) -> Matrix:
    """J e_{2i} = -e_{2i+1} and J e_{2i+1} = e_{2i} on each block."""
    return Matrix._of_split([s for i in range(n_blocks)
                             for s in ((1, [(2 * i + 1, -1)]), (1, [(2 * i, 1)]))],
                            2 * n_blocks)


def kahler_decompose(t: HermitianTriple) -> KahlerDecomposition:
    """Split a Kähler abelian-J metric Lie algebra into curved planes and a
    flat center.

    Preconditions: J abelian, the fundamental form closed.  The center z is
    the orthogonal complement of the J-closed commutator g' + Jg'.
    Certified: (3) commutator ideal totally real; (4) the product x o y =
    [Jx, y] on it is commutative associative; (5) semisimple with
    self-adjoint multiplications, so the spectrum is real; (6) one primitive
    idempotent per dimension, read off the eigenlines of a rational spectrum
    and certified by primitive_idempotents (an irrational one raises
    IrrationalSpectrumError); (7) planes span{Je, e} that span g with z: P
    square and P^T G P invertible, G the metric and P the change of basis,
    which also gives P^-1; each plane has dim 2, as J^2 = -I has no
    rational eigenvector; (8) one Gram matrix P^T G P that is r^2 on each
    plane and zero off it, and P a holomorphic isomorphism from the block
    model onto (g, J): [Je, e] = e, every other bracket of the columns
    of P zero, P taking the block J to J.  P^-1 = (P^T G P)^-1 P^T G makes
    P^-T (P^T G P) P^-1 = G an identity.  Step 8 proves z central: P maps
    the model's center onto span{h, Jh}, h the halves of z, which
    _greedy_j_half certifies is z.  It proves the cyclic metric identity:
    the model, an orthogonal product of Kähler planes and a flat factor,
    satisfies it, and P carries it to g.
    """
    g, j, metric = t.algebra, t.j, t.metric
    if g.dim == 0:
        raise PreconditionError("dimension must be positive")
    if not is_abelian_cs(g, j):
        raise PreconditionError("complex structure is not abelian")
    if not is_kahler(t):
        raise PreconditionError("fundamental form must be closed")

    gp = commutator_ideal(g)
    gpj = j_stable_commutator(g, j)
    z = gpj.orthogonal_complement(metric)

    certify(3, gpj.dim == 2 * gp.dim, "commutator ideal meets its J-image")
    n = gp.dim

    factors, rs = [], []
    jm = j.matrix
    if n:
        alg = CommAssocAlgebra._of_split(n, _half_products(g, j))
        wit = check_axioms(alg)
        certify(4, wit is None,
                wit and "induced product fails %s at %s" % (wit.kind, (wit.indices,)))

        bm = Matrix._of_split(gp.split(), g.dim)
        ghat = (bm.transpose() @ metric.gram) @ bm
        # the columns of L_a are the products e_a o e_k
        for a, la in enumerate(alg.split()):
            certify(5, _is_adjoint(ghat, la, 1),
                    "left multiplication %d is not self-adjoint" % a)
        certify(5, nilradical(alg).is_semisimple, "induced product has a nonzero nilradical")

        curved = []     # (r^2 = g(e, e), e, split of e) for each idempotent e
        for e in primitive_idempotents(alg):
            s = bm._apply_split(_nonzeros(e))
            v = _dense(s, g.dim)
            curved.append((metric.eval(v, v), v, s))
        # deterministic order: descending norm, then coordinates
        curved.sort(key=lambda c: (-c[0], c[1]))

        rs = [s for _, _, s in curved]
        for r2, v, s in curved:
            plane = Subspace._spanned(g.dim, [s, jm._apply_split(s)])
            factors.append(KahlerFactor(v, r2, 1 / r2, plane))

    # columns Je, e for each idempotent e, then for each vector of one sheet
    # of the center's J-splitting
    halves = rs + _greedy_j_half(j, z).split()
    p = Matrix._of_split([s for h in halves for s in (jm._apply_split(h), h)], g.dim)
    ptg = p.transpose() @ metric.gram
    gm = ptg @ p
    # the planes and the center span g exactly when p is square and p, or P^T G P for
    # G positive definite, is invertible; then p^-1 = gm^-1 P^T G
    try:
        p = Matrix._of_split(p.split(), g.dim, gm.inverse() @ ptg) if p.is_square() else None
    except SingularMatrix:
        p = None
    certify(7, p is not None, "planes and center do not span the algebra")

    model_alg = LieAlgebra(g.dim, {(2 * i, 2 * i + 1): {2 * i + 1: rat(1)}
                                   for i in range(n)})
    model_j = ComplexStructure(_standard_block_j(g.dim // 2))
    # gm is symmetric: its columns 2i, 2i + 1 being r^2 e_2i, r^2 e_2i+1 is
    # every norm and orthogonality claim on factor i
    cols = gm.split()
    for i, f in enumerate(factors):
        num, den = f.norm_sq.numerator, f.norm_sq.denominator
        certify(8, cols[2 * i] == (den, [(2 * i, num)])
                and cols[2 * i + 1] == (den, [(2 * i + 1, num)]),
                "metric is not r^2-diagonal on factor %d" % i)
    certify(8, is_holomorphic_iso(HolomorphicPair(model_alg, model_j, g, j, p)),
            "rebuilt structure differs from the input")
    return KahlerDecomposition(tuple(factors), z, p,
                               HermitianTriple(model_alg, model_j, InnerProduct(gm)))


# ---- seeded generators ----

_SHEAR_SCALARS = (-2, -1, 1, 2)


def random_unimodular(rng, n) -> Matrix:
    """Product of 2n draws of elementary shears; determinant +-1 exactly.
    Right-multiplying by the shear I + s E_ab adds s times column a to
    column b, one integer update of the running product's column splits."""
    cols = [(1, [(i, 1)]) for i in range(n)]
    for _ in range(2 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        s = rng.choice(_SHEAR_SCALARS)
        cols[b] = _combine(1, ((1, cols[b]), (s, cols[a])), n)
    return Matrix._of_split(cols, n)


def _random_block_algebra(rng, dim) -> CommAssocAlgebra:
    """Commutative associative product assembled from scaled split, complex,
    truncated polynomial and zero one-generator blocks, then hidden behind a
    unimodular change of basis."""
    products = {}
    pos = 0
    while pos < dim:
        room = dim - pos
        kinds = ["split", "zero", "trunc"]
        if room >= 2:
            kinds.append("complex")
        kind = rng.choice(kinds)
        if kind == "split":
            lam = rat(rng.choice((-2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))
            products[(pos, pos)] = {pos: lam}
            pos += 1
        elif kind == "zero":
            pos += 1
        elif kind == "complex":
            products[(pos, pos)] = {pos: rat(1)}
            products[(pos, pos + 1)] = {pos + 1: rat(1)}
            products[(pos + 1, pos + 1)] = {pos: rat(-1)}
            pos += 2
        else:
            k = rng.randint(1, min(3, room))
            # basis t, t^2, ..., t^k inside t R[t] / (t^{k+1})
            for a in range(k):
                for b in range(a, k):
                    if a + b + 2 <= k:
                        products[(pos + a, pos + b)] = {pos + a + b + 1: rat(1)}
            pos += k
    return pushforward(CommAssocAlgebra(dim, products), random_unimodular(rng, dim))


def _random_diagonal(rng, dim) -> CommAssocAlgebra:
    return CommAssocAlgebra(dim, {
        (i, i): {i: rat(rng.randint(-3, 3), rng.choice((1, 1, 2)))}
        for i in range(dim)})


def random_pair(rng, dim_a, family):
    """A compatible product pair from one of the three named families;
    double_product decides the compatibility of the pair it is given."""
    if family == "trivial-star":
        pair = _random_block_algebra(rng, dim_a), CommAssocAlgebra(dim_a)
    elif family == "equal-products":
        a = _random_block_algebra(rng, dim_a)
        pair = a, a
    elif family == "diagonal-pair":
        pair = _random_diagonal(rng, dim_a), _random_diagonal(rng, dim_a)
    else:
        raise PreconditionError("unknown family %r" % (family,))
    return pair


def random_hermitian_metric(rng, j: ComplexStructure) -> InnerProduct:
    """J-compatible SPD Gram matrix: symmetrize a random A^T A + D average."""
    n = j.dim
    a = Matrix([[rat(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
    g0 = (a.transpose() @ a) + Matrix(
        [[rat(rng.randint(1, 4)) if r == c else rat(0) for c in range(n)]
         for r in range(n)])
    sym = (g0 + (j.matrix.transpose() @ g0) @ j.matrix).scale(rat(1, 2))
    return InnerProduct(sym)


def random_instance(seed, dim_a, family, disguise=False) -> HermitianTriple:
    """A valid abelian-J instance from a compatible pair, optionally hidden
    behind a random unimodular pushforward, with a compatible metric drawn
    after the algebra and J."""
    if not 1 <= dim_a <= 8:
        raise PreconditionError("half-dimension must be between 1 and 8")
    rng = random.Random(seed)
    dp = double_product(*random_pair(rng, dim_a, family))
    g, j = dp.algebra, dp.j
    if disguise:
        p = random_unimodular(rng, g.dim)
        g = pushforward(g, p)
        j = ComplexStructure((p @ j.matrix) @ p.inverse())
    return HermitianTriple(g, j, random_hermitian_metric(rng, j))


class KahlerSample(NamedTuple):
    triple: HermitianTriple
    factor_count: int
    norm_squares: tuple     # descending, matching the decomposition order


def _random_cayley_isometry(rng, t: HermitianTriple) -> Matrix:
    """G-orthogonal J-commuting change of basis: Cayley transform of a
    random G-skew J-commuting endomorphism."""
    n, jm, gram = t.algebra.dim, t.j.matrix, t.metric.gram
    a = Matrix([[rat(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
    ac = (a - (jm @ a) @ jm).scale(rat(1, 2))
    s = ac - (gram.inverse() @ ac.transpose()) @ gram
    eye = Matrix.identity(n)
    # I + S invertible: S is skew for an SPD form, so -1 is not an eigenvalue
    return (eye - s) @ (eye + s).inverse()


_NORM_CHOICES = (rat(1), rat(2), rat(4), rat(9), rat(1, 4), rat(9, 4))


def random_kahler_instance(seed, max_dim=12) -> KahlerSample:
    """A Kähler abelian-J triple: block model of curved planes plus a flat
    center, disguised by a metric-and-J preserving change of basis (so only
    the brackets get scrambled)."""
    rng = random.Random(seed)
    half = max(1, min(6, max_dim // 2))
    n = rng.randint(0, min(4, half))
    s = rng.randint(0 if n else 1, half - n)
    dim = 2 * (n + s)
    norms = sorted((rng.choice(_NORM_CHOICES) for _ in range(n)), reverse=True)

    g = LieAlgebra(dim, {(2 * i, 2 * i + 1): {2 * i + 1: rat(1)} for i in range(n)})
    j = ComplexStructure(_standard_block_j(n + s))
    # the block metric's columns: r^2 on each curved plane, then the center's
    cols = [(r2.denominator, [(k, r2.numerator)])
            for i, r2 in enumerate(norms) for k in (2 * i, 2 * i + 1)]
    if s:
        h = random_hermitian_metric(rng, ComplexStructure(_standard_block_j(s))).gram
        cols += [_shifted(c, 2 * n) for c in h.split()]
    t = HermitianTriple(g, j, InnerProduct(Matrix._of_split(cols, dim)))
    certify("block model must be Kähler with abelian J", is_abelian_cs(g, j) and is_kahler(t))

    p = _random_cayley_isometry(rng, t)
    return KahlerSample(HermitianTriple(pushforward(g, p), j, t.metric), n, tuple(norms))


# ---- the rigidity trial suite ----

THEOREM_NAMES = (
    "abelian_structure_report",
    "hermitian_connection_identities",
    "closed_form_matches_cyclic_identity",
    "zero_first_connection_forces_abelian",
    "twisted_cyclic_under_zero_first_connection",
    "flat_first_connection_forces_abelian",
    "nilpotent_nonabelian_first_connection_curved",
    "kahler_decomposition_complete",
    "kahler_unimodular_forces_abelian",
)


class TrialReport(NamedTuple):
    seed: int
    trials: int
    theorems: dict          # name -> {"pass": int, "fail": int}
    counterexamples: list   # serialized instances tagged with the violated name


def report_to_dict(rep: TrialReport) -> dict:
    return {"seed": rep.seed, "trials": rep.trials,
            "theorems": {k: dict(v) for k, v in rep.theorems.items()},
            "counterexamples": list(rep.counterexamples)}


def _record(counts, ces, name, ok, triple, certificate=None):
    bucket = counts[name]
    if ok:
        bucket["pass"] += 1
    else:
        bucket["fail"] += 1
        payload = serialize.instance_to_dict(triple.algebra, triple.j, triple.metric)
        payload["violated"] = name
        if certificate is not None:
            payload["certificate"] = certificate
        ces.append(payload)


def _run_trial(triple, expected: Optional[KahlerSample], counts, ces):
    """Record each theorem's verdict on one instance; a failed certificate ends
    the trial as a failure, with its message, of the next theorem in order."""
    recorded = 0
    try:
        for name, ok in _verdicts(triple, expected):
            _record(counts, ces, name, ok, triple)
            recorded += 1
    except CertificateError as exc:
        _record(counts, ces, THEOREM_NAMES[recorded], False, triple, str(exc))


def _verdicts(triple, expected: Optional[KahlerSample]):
    """Yield (theorem, holds) for one instance, in THEOREM_NAMES order."""
    g, j, metric = triple.algebra, triple.j, triple.metric

    yield "abelian_structure_report", abelian_cs_report(g, j).all_hold

    nabla1 = first_canonical(triple)
    flags = connection_flags(g, j, metric, nabla1)
    yield ("hermitian_connection_identities",
           flags.is_metric and flags.is_complex and flags.torsion_type_11)

    kahler = is_kahler(triple)
    yield "closed_form_matches_cyclic_identity", kahler == cyclic_metric_identity(triple)

    gp = commutator_ideal(g)
    if nabla1.is_zero():
        yield "zero_first_connection_forces_abelian", gp.is_zero()
        yield "twisted_cyclic_under_zero_first_connection", twisted_cyclic_identity(triple)
    else:
        yield "zero_first_connection_forces_abelian", True
        yield "twisted_cyclic_under_zero_first_connection", True

    flat1 = is_flat(g, nabla1)
    yield "flat_first_connection_forces_abelian", not flat1 or gp.is_zero()

    series = derived_and_central_series(g)
    if series.is_nilpotent and not gp.is_zero():
        yield "nilpotent_nonabelian_first_connection_curved", not flat1
    else:
        yield "nilpotent_nonabelian_first_connection_curved", True

    if kahler:
        try:
            dec = kahler_decompose(triple)
            ok = dec.n == gp.dim
            if expected is not None:
                ok = (ok and dec.n == expected.factor_count
                      and tuple(f.norm_sq for f in dec.factors) == expected.norm_squares)
        except (CertificateError, IrrationalSpectrumError):
            ok = False
        yield "kahler_decomposition_complete", ok
        yield "kahler_unimodular_forces_abelian", not is_unimodular(g) or gp.is_zero()
    else:
        yield "kahler_decomposition_complete", True
        yield "kahler_unimodular_forces_abelian", True


def theorem_suite(seed, trials, max_dim=12) -> TrialReport:
    """Fuzz the rigidity statements: mixed double-product trials (all three
    families, with and without disguise) interleaved 3:2 with Kähler block
    instances.  Violations become counterexample payloads, never exceptions.
    """
    rng = random.Random(seed)
    counts = {name: {"pass": 0, "fail": 0} for name in THEOREM_NAMES}
    ces = []
    half = max(1, min(6, max_dim // 2))
    for ix in range(trials):
        # min-of-two biases the mix toward small sizes; the top size still occurs
        cap = 1 + min(rng.randrange(half), rng.randrange(half))
        if ix % 5 in (3, 4):
            sample = random_kahler_instance(rng.randrange(2 ** 32), 2 * cap)
            _run_trial(sample.triple, sample, counts, ces)
        else:
            triple = random_instance(
                rng.randrange(2 ** 32), cap,
                FAMILIES[ix % 3], disguise=bool(ix % 2))
            _run_trial(triple, None, counts, ces)
    return TrialReport(seed, trials, counts, ces)
