import cProfile
import hashlib
import json
import pstats
import random
import sys
from itertools import combinations_with_replacement

import pytest

from abelianj.assoc import (
    CommAssocAlgebra, IrrationalSpectrumError,
    check_axioms, check_compatibility,
)
from abelianj.complex_structures import is_abelian_cs, j_stable_commutator
from abelianj.constructions import semidirect_r2_family, standard_complex_structure
from abelianj.hermitian import (
    Connection, HermitianTriple, InnerProduct, is_hermitian, is_kahler, sectional_curvature,
)
from abelianj.lab import (
    THEOREM_NAMES, KahlerDecomposition, kahler_decompose, random_hermitian_metric,
    random_instance, random_kahler_instance, random_pair, random_unimodular,
    report_to_dict, theorem_suite,
)
from abelianj.lie import (
    LieAlgebra, PreconditionError, check_jacobi, is_unimodular, pushforward,
)
from abelianj.linalg import CertificateError, Matrix, Subspace, rat, vec
from abelianj import hermitian, lab, lie, serialize


def load_triple(fixtures_dir, name):
    return serialize.load_instance(str(fixtures_dir / name)).triple()


def test_decompose_scaled_two_blocks(fixtures_dir):
    t = load_triple(fixtures_dir, "kahler_two_blocks_scaled.json")
    dec = kahler_decompose(t)
    assert isinstance(dec, KahlerDecomposition)
    assert dec.n == 2 and dec.s == 1
    assert dec.curvatures == (rat(1, 4), rat(1))
    assert [f.norm_sq for f in dec.factors] == [4, 1]
    assert [f.idempotent for f in dec.factors] == [vec((0, 1, 0, 0, 0, 0)),
                                                   vec((0, 0, 0, 1, 0, 0))]
    assert dec.center == Subspace(6, [vec((0, 0, 0, 0, 1, 0)),
                                      vec((0, 0, 0, 0, 0, 1))])
    # each curved plane has constant sectional curvature -c
    for f in dec.factors:
        b0, b1 = f.plane.basis
        assert sectional_curvature(t.algebra, t.metric, b0, b1) == -f.curvature
    alg, jm, gram = dec.rebuild()
    assert alg == t.algebra
    assert jm == t.j.matrix
    assert gram == t.metric.gram


def test_decompose_model_block_structure(fixtures_dir):
    t = load_triple(fixtures_dir, "kahler_two_blocks_scaled.json")
    dec = kahler_decompose(t)
    model = dec.model
    assert model.algebra == LieAlgebra(6, {(0, 1): {1: 1}, (2, 3): {3: 1}})
    gram = model.metric.gram
    assert [gram.rows[i][i] for i in range(6)] == [4, 4, 1, 1, 1, 1]
    assert all(gram.rows[i][j] == 0 for i in range(6) for j in range(6) if i != j)


def test_decompose_abelian_edge(fixtures_dir):
    t = load_triple(fixtures_dir, "abelian_r4.json")
    dec = kahler_decompose(t)
    assert dec.n == 0 and dec.s == 2
    assert dec.factors == ()
    assert dec.center == Subspace.whole(4)
    alg, jm, gram = dec.rebuild()
    assert alg == t.algebra and jm == t.j.matrix and gram == t.metric.gram


def test_decompose_preconditions(fixtures_dir):
    # aff(C) with J1: abelian J, but the fundamental form is not closed
    with pytest.raises(PreconditionError, match="^fundamental form must be closed$"):
        kahler_decompose(load_triple(fixtures_dir, "aff_c_j1.json"))
    # Heisenberg x R: [Je_0, Je_1] = [e_2, e_3] = 0, while [e_0, e_1] = e_2
    heis = LieAlgebra(4, {(0, 1): {2: 1}})
    t = HermitianTriple(heis, standard_complex_structure(2), InnerProduct.identity(4))
    with pytest.raises(PreconditionError, match="^complex structure is not abelian$"):
        kahler_decompose(t)


def _decompose_with_z(monkeypatch, t, z):
    """The CertificateError of kahler_decompose(t) with the orthogonal
    complement of g' + Jg' it takes as its center replaced by z."""
    monkeypatch.setattr(Subspace, "orthogonal_complement", lambda u, metric: z)
    with pytest.raises(CertificateError) as exc:
        kahler_decompose(t)
    return exc.value


def test_decompose_certifies_a_wrong_center(monkeypatch, fixtures_dir):
    # g' + Jg' = span{e_0, ..., e_3} and the center is span{e_4, e_5};
    # span{e_0 + e_4, J(e_0 + e_4)} is a J-stable complement of g' + Jg' that
    # is not central: a certificate fails, it never comes back as the center
    t = load_triple(fixtures_dir, "kahler_two_blocks_scaled.json")
    v = vec((1, 0, 0, 0, 1, 0))
    wrong = Subspace(6, [v, t.j.apply(v)])
    assert wrong.image(t.j.matrix) == wrong
    assert wrong.sum(j_stable_commutator(t.algebra, t.j)) == Subspace.whole(6)
    assert wrong != lie.center(t.algebra)
    assert _decompose_with_z(monkeypatch, t, wrong).step == 8


def test_decompose_certifies_a_center_one_pair_short(monkeypatch, fixtures_dir):
    # the center span{e_4, e_5} less its one J-pair: the planes alone do not span g
    t = load_triple(fixtures_dir, "kahler_two_blocks_scaled.json")
    assert _decompose_with_z(monkeypatch, t, Subspace(6, [])).step == 7


def test_decompose_reads_no_centralizer_and_one_cyclic_sum(monkeypatch):
    # z is the orthogonal complement, and the cyclic identity is not
    # evaluated: the only cyclic sum is is_kahler's
    t = random_kahler_instance(9, max_dim=8).triple
    calls = {"_annihilator": 0, "_form_cyclic_sums_vanish": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(lie, "_annihilator")
    counted(hermitian, "_form_cyclic_sums_vanish")
    dec = kahler_decompose(t)
    assert calls == {"_annihilator": 0, "_form_cyclic_sums_vanish": 1}
    alg, jm, gram = dec.rebuild()
    assert alg == t.algebra and jm == t.j.matrix and gram == t.metric.gram


def test_decompose_irrational_spectrum():
    # affine algebra of 1 and t with t^2 = 2: Kähler, but the induced
    # product splits only over Q(sqrt 2)
    g = LieAlgebra(4, {(0, 2): {2: 1}, (0, 3): {3: 1},
                       (1, 2): {3: 1}, (1, 3): {2: 2}})
    t = HermitianTriple(g, standard_complex_structure(2),
                        InnerProduct.diagonal([1, 2, 1, 2]))
    assert is_kahler(t)
    with pytest.raises(IrrationalSpectrumError):
        kahler_decompose(t)


def test_decompose_error_carries_step():
    err = CertificateError(4, "induced product fails")
    assert err.step == 4
    assert "step 4" in str(err)


def test_random_unimodular_det():
    rng = random.Random(31)
    for _ in range(20):
        n = 1 + rng.randrange(5)
        m = random_unimodular(rng, n)
        assert m.det() == 1


def test_pushforward_of_a_product_round_trip():
    """pushforward transports a symmetric product table as well, on the
    pairs i <= j, and returns a product algebra."""
    cx = CommAssocAlgebra(2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {0: -1}})
    q = Matrix([[1, 1], [0, 1]])
    moved = pushforward(cx, q)
    assert type(moved) is CommAssocAlgebra
    assert check_axioms(moved) is None
    assert moved != cx
    assert pushforward(moved, q.inverse()) == cx
    assert pushforward(cx, Matrix.identity(2)) == cx


def test_random_pair_family_shapes():
    # random_pair draws compatible pairs, which double_product decides
    rng = random.Random(99)
    dot, star = random_pair(rng, 3, "trivial-star")
    assert star == CommAssocAlgebra.zero(3)
    dot2, star2 = random_pair(rng, 3, "equal-products")
    assert dot2 == star2
    d1, d2 = random_pair(rng, 4, "diagonal-pair")
    for pair in ((dot, star), (dot2, star2), (d1, d2)):
        assert check_compatibility(*pair) is None
    with pytest.raises(PreconditionError):
        random_pair(rng, 2, "no-such-family")


def test_random_instance_validity():
    rng = random.Random(4096)
    for trial in range(12):
        fam = ("trivial-star", "equal-products", "diagonal-pair")[trial % 3]
        t = random_instance(rng.randrange(2 ** 32), 1 + rng.randrange(4),
                            fam, disguise=bool(trial % 2))
        assert isinstance(t, HermitianTriple)
        assert check_jacobi(t.algebra) is None
        assert is_abelian_cs(t.algebra, t.j)
    with pytest.raises(PreconditionError):
        random_instance(1, 0, "trivial-star")
    with pytest.raises(PreconditionError):
        random_instance(1, 9, "trivial-star")


def test_random_hermitian_metric_compatible():
    rng = random.Random(555)
    j = standard_complex_structure(3)
    for _ in range(8):
        metric = random_hermitian_metric(rng, j)
        assert is_hermitian(LieAlgebra.abelian(6), j, metric)


def test_random_kahler_instances_decompose():
    for seed in range(10):
        sample = random_kahler_instance(seed, max_dim=8)
        t = sample.triple
        assert is_abelian_cs(t.algebra, t.j)
        assert is_kahler(t)
        dec = kahler_decompose(t)
        assert dec.n == sample.factor_count
        assert tuple(f.norm_sq for f in dec.factors) == sample.norm_squares
        alg, jm, gram = dec.rebuild()
        assert alg == t.algebra and jm == t.j.matrix and gram == t.metric.gram


def test_kahler_decompose_evaluates_each_norm_once(monkeypatch):
    # every other metric claim is read off the one Gram matrix P^T G P
    calls = []
    evaluate = InnerProduct.eval
    monkeypatch.setattr(InnerProduct, "eval",
                        lambda self, x, y: calls.append(1) or evaluate(self, x, y))
    dec = kahler_decompose(random_kahler_instance(10, max_dim=8).triple)
    assert dec.n == 4 and len(calls) <= dec.n


def test_kahler_decompose_refuses_scaled_idempotents(monkeypatch):
    # doubled idempotents give [Je, e] = 2e: no certificate of step 7 reads
    # the brackets, and the holomorphic isomorphism of step 8 refuses them
    split = lab.primitive_idempotents

    def doubled(alg):
        return tuple(tuple(2 * x for x in e) for e in split(alg))

    monkeypatch.setattr(lab, "primitive_idempotents", doubled)
    with pytest.raises(CertificateError) as caught:
        kahler_decompose(random_kahler_instance(9, max_dim=8).triple)
    assert caught.value.step == 8
    assert caught.value.detail == "rebuilt structure differs from the input"


def test_kahler_decompose_refuses_a_model_j_off_the_input(monkeypatch):
    # with the block J negated the model's brackets still match, but P no
    # longer takes the model's J to the input's: step 8 refuses the map
    t = random_kahler_instance(9, max_dim=8).triple
    block_j = lab._standard_block_j
    monkeypatch.setattr(lab, "_standard_block_j", lambda n: -block_j(n))
    with pytest.raises(CertificateError) as caught:
        kahler_decompose(t)
    assert caught.value.step == 8
    assert caught.value.detail == "rebuilt structure differs from the input"


def _frame_triples(fixtures_dir):
    for seed in range(20):
        yield random_kahler_instance(seed, 12).triple
    for name in ("kahler_two_blocks.json", "kahler_two_blocks_scaled.json"):
        yield load_triple(fixtures_dir, name)


def test_kahler_decompose_hands_on_the_inverse_of_the_frame(fixtures_dir):
    # P^-1 comes from (P^T G P)^-1 P^T G; it must be what eliminating P gives
    for t in _frame_triples(fixtures_dir):
        p = kahler_decompose(t).change_of_basis
        assert p.inverse() == Matrix._of_split(p.split(), p.nrows).inverse()


def test_kahler_decompose_refuses_a_singular_frame(monkeypatch):
    # one idempotent twice repeats the columns Je, e of P: P and P^T G P are
    # singular, and step 7 says the planes and the center do not span g
    split = lab.primitive_idempotents

    def repeated(alg):
        idem = split(alg)
        return idem[:1] + idem[:-1]

    monkeypatch.setattr(lab, "primitive_idempotents", repeated)
    with pytest.raises(CertificateError) as caught:
        kahler_decompose(random_kahler_instance(9, max_dim=8).triple)
    assert caught.value.step == 7
    assert caught.value.detail == "planes and center do not span the algebra"


def test_kahler_decompose_eliminates_only_the_block_gram_matrix(fixtures_dir, monkeypatch):
    # P^-1 is handed on: the one inverse computed by elimination is that of
    # P^T G P, the model's Gram matrix
    eliminated = []
    inverse = Matrix.inverse

    def counted_inverse(m):
        if m._inverse is None:      # neither computed yet nor handed on
            eliminated.append(m)
        return inverse(m)

    triples = list(_frame_triples(fixtures_dir))
    monkeypatch.setattr(Matrix, "inverse", counted_inverse)
    for t in triples:
        eliminated.clear()
        dec = kahler_decompose(t)
        assert len(eliminated) == 1 and eliminated[0] is dec.model.metric.gram


def test_kahler_trial_decides_each_claim_once():
    # the profile counts the evaluations themselves, not the calls to the
    # memo (lie._kept) in front of them
    sample = random_kahler_instance(9, max_dim=8)
    assert sample.factor_count == 3     # so the induced algebra is checked
    counts = {name: {"pass": 0, "fail": 0} for name in THEOREM_NAMES}
    profile = cProfile.Profile()
    profile.runcall(lab._run_trial, sample.triple, sample, counts, [])
    assert all(c == {"pass": 1, "fail": 0} for c in counts.values())
    kept = ("is_abelian_cs", "is_kahler", "cyclic_metric_identity", "check_axioms",
            "nilradical")
    evaluations = {name: stat[1] for (_, _, name), stat in pstats.Stats(profile).stats.items()
                   if name in kept}
    assert evaluations == dict.fromkeys(kept, 1)


def test_kahler_trial_derives_the_center_once(monkeypatch):
    sample = random_kahler_instance(9, max_dim=8)
    g = sample.triple.algebra
    assert sample.factor_count == 3 and g.dim == 8     # curved planes and a center
    calls = []
    annihilator = lie._annihilator

    def counted(alg, u, table):
        calls.append((alg, u))
        return annihilator(alg, u, table)

    monkeypatch.setattr(lie, "_annihilator", counted)
    counts = {name: {"pass": 0, "fail": 0} for name in THEOREM_NAMES}
    lab._run_trial(sample.triple, sample, counts, [])
    assert all(c == {"pass": 1, "fail": 0} for c in counts.values())
    # the center is the centralizer of the whole space; the other one is
    # the centralizer of g' + Jg', a proper ideal here
    assert [u for alg, u in calls if alg is g].count(Subspace.whole(g.dim)) == 1


def test_abelian_report_reads_the_kept_center_as_the_whole_centralizer(monkeypatch):
    # where g' + Jg' is all of g its centralizer is the center, which
    # lie.center has kept: no centralizer of the whole algebra is derived
    # again, and the report is the one pinned here
    calls = []
    annihilator = lie._annihilator

    def counted(alg, u, table):
        calls.append((sys._getframe(1).f_code.co_name, u.dim == alg.dim))
        return annihilator(alg, u, table)

    monkeypatch.setattr(lie, "_annihilator", counted)
    rep = report_to_dict(theorem_suite(20240823, 40))
    assert calls.count(("center_of_subalgebra", True)) == 0
    assert calls.count(("center_of_subalgebra", False)) > 0
    assert calls.count(("center", True)) > 0
    text = json.dumps(rep, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == \
        "b24aff4b9baa9a1b86a5b6efdc39e1ff955099f976743d0c55ef86494634be94"


def test_theorem_suite_small_run():
    rep = theorem_suite(2718, 25)
    assert rep.seed == 2718 and rep.trials == 25
    assert set(rep.theorems) == set(THEOREM_NAMES)
    for name in THEOREM_NAMES:
        counts = rep.theorems[name]
        assert counts["pass"] + counts["fail"] == 25
        assert counts["fail"] == 0
    assert rep.counterexamples == []
    out = report_to_dict(rep)
    text = json.dumps(out)
    assert json.loads(text)["trials"] == 25


def test_theorem_suite_records_failing_first_connection(monkeypatch):
    # a torsion-type test that always fails: every trial records the
    # first canonical verdict as a counterexample, and the suite runs on to
    # the later theorems instead of aborting
    monkeypatch.setattr(hermitian, "_torsion_type_11", lambda g, j, conn: False)
    rep = theorem_suite(20240823, 10, max_dim=8)
    assert rep.theorems["hermitian_connection_identities"] == {"pass": 0, "fail": 10}
    assert [ce["violated"] for ce in rep.counterexamples] == \
        ["hermitian_connection_identities"] * 10
    assert all(sum(rep.theorems[name].values()) == 10 for name in THEOREM_NAMES)


def test_first_connection_flags_certify_metric_once_per_levi_civita(monkeypatch):
    # the first canonical connection is metric by proof: the one metric
    # test of a trial is levi_civita's certificate
    calls = []
    for name in ("levi_civita", "_is_metric"):
        fn = getattr(hermitian, name)
        monkeypatch.setattr(hermitian, name,
                            lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
    rep = theorem_suite(20240823, 10)
    assert rep.counterexamples == []
    assert calls == ["levi_civita", "_is_metric"] * 10


def test_theorem_suite_records_failed_certificate(monkeypatch):
    # a Levi-Civita certificate that fails ends each trial as a failure of
    # the theorem under evaluation, with the message in the payload
    monkeypatch.setattr(hermitian, "_is_metric", lambda conn, metric: False)
    rep = theorem_suite(20240823, 3)
    assert rep.theorems["abelian_structure_report"] == {"pass": 3, "fail": 0}
    assert rep.theorems["hermitian_connection_identities"] == {"pass": 0, "fail": 3}
    assert all(rep.theorems[name] == {"pass": 0, "fail": 0}
               for name in THEOREM_NAMES[2:])
    assert [(ce["violated"], ce["certificate"]) for ce in rep.counterexamples] == \
        [("hermitian_connection_identities", "Levi-Civita solution is not metric")] * 3


def test_theorem_suite_records_a_wrong_center(monkeypatch):
    # a centralizer one vector short: the one verdict that reads a
    # centralizer (the center's J-stability and the centralizer of g' + Jg'
    # in the structure report) records counterexamples, and no other verdict
    # does: the Kahler decomposition takes its center as an orthogonal
    # complement
    annihilator = lie._annihilator

    def short(g, u, table):
        z = annihilator(g, u, table)
        return Subspace._spanned(z.ambient, z.split()[:-1])

    monkeypatch.setattr(lie, "_annihilator", short)
    rep = theorem_suite(20240823, 40)
    violated = [ce["violated"] for ce in rep.counterexamples]
    assert {name: violated.count(name) for name in set(violated)} == \
        {"abelian_structure_report": 20}


_CYCLIC = lab.cyclic_metric_identity      # read before any test patches it


@pytest.mark.parametrize("owner, name, broken, seed, trials, violated", [
    (lab, "twisted_cyclic_identity", lambda t: False, 20240823, 40,
     {"twisted_cyclic_under_zero_first_connection": 14}),
    (lab, "is_unimodular", lambda g: True, 20240823, 40,
     {"kahler_unimodular_forces_abelian": 14}),
    (lab, "is_flat", lambda g, conn: True, 20240823, 40,
     {"flat_first_connection_forces_abelian": 26}),
    # seed 21 draws two nilpotent non-abelian trials in its first ten
    (lab, "is_flat", lambda g, conn: True, 21, 10,
     {"flat_first_connection_forces_abelian": 9,
      "nilpotent_nonabelian_first_connection_curved": 2}),
    (Connection, "is_zero", lambda conn: True, 20240823, 40,
     {"zero_first_connection_forces_abelian": 26,
      "twisted_cyclic_under_zero_first_connection": 26}),
    # the decomposition does not evaluate the cyclic identity
    (lab, "cyclic_metric_identity", lambda t: not _CYCLIC(t), 20240823, 40,
     {"closed_form_matches_cyclic_identity": 40}),
])
def test_theorem_suite_records_a_broken_computation(monkeypatch, owner, name, broken, seed,
                                                   trials, violated):
    # one computation broken: the verdicts that read it record a
    # counterexample on each trial where it decides them, no other verdict does
    monkeypatch.setattr(owner, name, broken)
    rep = theorem_suite(seed, trials)
    names = [ce["violated"] for ce in rep.counterexamples]
    assert {n: names.count(n) for n in set(names)} == violated


# (a, b) of T = a I + b J0 on one complex coordinate; only the block pair
# (1, 2), (-1, -2) has sum a = sum b = 0
_SEMIDIRECT_BLOCKS = ((1, 0), (2, 0), (0, 1), (0, -2), (1, 1), (2, -1), (-1, 3), (1, 2),
                      (-1, -2))


def _semidirect_action(blocks):
    """T on R^{2n} acting on coordinate c as a + bi: T e_c = a e_c + b e_{n+c}
    and T e_{n+c} = a e_{n+c} - b e_c, so T commutes with J0."""
    n = len(blocks)
    t = [[0] * (2 * n) for _ in range(2 * n)]
    for c, (a, b) in enumerate(blocks):
        t[c][c] = t[n + c][n + c] = a
        t[n + c][c], t[c][n + c] = b, -b
    return Matrix(t)


def test_semidirect_family_sweep_reaches_every_verdict():
    # semidirect_r2_family over n = 1, 2 with each block from the fixed
    # list (n = 2 takes each unordered pair once): two compatible metrics
    # per instance, every verdict recorded and none violated
    rng = random.Random(2011)
    counts = {name: {"pass": 0, "fail": 0} for name in THEOREM_NAMES}
    ces, unimodular = [], 0
    instances = [(b,) for b in _SEMIDIRECT_BLOCKS]
    instances += list(combinations_with_replacement(_SEMIDIRECT_BLOCKS, 2))
    for blocks in instances:
        g, j = semidirect_r2_family(len(blocks), _semidirect_action(blocks))
        unimodular += is_unimodular(g)
        for _ in range(2):
            lab._run_trial(HermitianTriple(g, j, random_hermitian_metric(rng, j)),
                           None, counts, ces)
    assert len(instances) == 54
    assert unimodular == 1
    assert ces == []
    assert counts == {name: {"pass": 108, "fail": 0} for name in THEOREM_NAMES}


def test_theorem_suite_deterministic():
    a = report_to_dict(theorem_suite(11, 10))
    b = report_to_dict(theorem_suite(11, 10))
    assert a == b
