import gc
import itertools
import os
import random
import sys
import weakref
from collections import Counter

import pytest

import hermlat
from hermlat import oracle
from hermlat import classify, factorize, isometries
from hermlat.errors import HermlatError, UnsupportedCase, VerificationFailed
from hermlat.etale import EtaleAlgebra
from hermlat.factorize import (
    Factorization,
    factor_unitary,
    map_isotropic,
    map_unit_vector,
    verify_factorization,
)
from hermlat.isometries import EichlerIsometry, Symmetry, matrix_of
from hermlat.lattice import (
    HermitianLattice,
    orthogonal_sum,
    standard_A,
    standard_H,
)
from hermlat.linalg import (
    _dot,
    basis_vector,
    cols_of,
    identity,
    mat_eq,
    mat_from_cols,
    mat_mul,
    mat_vec,
    vec_add,
    vec_eq,
    vec_scale,
)
from hermlat.localfield import LocalField
from hermlat.oracle import random_symmetry, random_unitary
from hermlat.specfile import parse_lattice

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))
from schedule_digest import _generator, exact_key  # noqa: E402
import reach  # noqa: E402
import workloads  # noqa: E402  (perfbench/, put on the path by schedule_digest)


def test_identity_factorization(Q2sqrt2):
    L = standard_A(Q2sqrt2, 0, 1)
    f = factor_unitary(L, identity(Q2sqrt2, 2))
    assert len(f) == 0
    assert not f.contains_eichler
    cert = verify_factorization(L, identity(Q2sqrt2, 2), f)
    assert cert["det_consistent"]


def test_single_symmetry_roundtrip(Q2sqrt2):
    L = orthogonal_sum(standard_H(Q2sqrt2, 0),
                       HermitianLattice(Q2sqrt2, ((Q2sqrt2.from_int(2),),)))
    rng = random.Random(8)
    g = random_symmetry(L, rng)
    phi = matrix_of(L, g)
    f = factor_unitary(L, phi)
    verify_factorization(L, phi, f)


def test_not_an_isometry_rejected(split2):
    L = HermitianLattice(split2, ((split2.one, split2.zero),
                                  (split2.zero, split2.from_int(2))))
    swap = ((split2.zero, split2.one), (split2.one, split2.zero))
    with pytest.raises(HermlatError, match="does not preserve the hermitian form"):
        factor_unitary(L, swap)


def test_verification_catches_tampering(Q2sqrt2):
    L = orthogonal_sum(standard_H(Q2sqrt2, 0),
                       HermitianLattice(Q2sqrt2, ((Q2sqrt2.from_int(2),),)))
    phi, _ = random_unitary(L, 3, 123)
    f = factor_unitary(L, phi)
    assert verify_factorization(L, phi, f)
    bad = list(f.generators)
    for i, g in enumerate(bad):
        if isinstance(g, Symmetry):
            inv = g.inverse()
            if not (inv.sigma - g.sigma).is_zero():
                bad[i] = inv
                break
    else:
        pytest.skip("no asymmetric factor to flip")
    tampered = Factorization(L, bad)
    with pytest.raises(VerificationFailed):
        verify_factorization(L, phi, tampered)


KINDS = [
    ("split2", lambda a: HermitianLattice(
        a, ((a.one, a.zero), (a.zero, a.from_int(2))))),
    ("split3", lambda a: orthogonal_sum(
        standard_H(a, 0), HermitianLattice(a, ((a.from_int(3),),)))),
    ("inert2", lambda a: orthogonal_sum(
        standard_H(a, 0), HermitianLattice(a, ((a.from_int(2),),)))),
    ("inert3", lambda a: HermitianLattice(
        a, ((a.one, a.zero), (a.zero, a.from_int(3))))),
    ("Q3sqrt3", lambda a: HermitianLattice(
        a, ((a.one, a.zero), (a.zero, a.from_int(2))))),
    ("Q2i", lambda a: orthogonal_sum(
        standard_H(a, 0), HermitianLattice(a, ((a.from_int(2),),)))),
    ("Q2sqrt2", lambda a: standard_A(a, 0, 1)),
]


@pytest.mark.parametrize("alg_name,mk", KINDS, ids=[k for k, _ in KINDS])
def test_roundtrip_small(alg_name, mk, request):
    alg = request.getfixturevalue(alg_name)
    L = mk(alg)
    for seed in range(4):
        phi, _ = random_unitary(L, 1 + seed % 4, seed)
        f = factor_unitary(L, phi)
        verify_factorization(L, phi, f)
        if alg.kind in ("split", "inert"):
            assert not f.contains_eichler


LARGE_RANK_FIELDS = [("Q2sqrt2", 2, 0, -2), ("Q3sqrt3", 3, 0, -3), ("inert2", 2, 1, 1)]


@pytest.mark.parametrize("rank", [10, 12])
@pytest.mark.parametrize("p,b,c", [f[1:] for f in LARGE_RANK_FIELDS],
                         ids=[f[0] for f in LARGE_RANK_FIELDS])
def test_large_rank_roundtrip_builds_no_large_power(p, b, c, rank):
    """H(0) ⟂ H(1) ⟂ ... of rank 10 and 12 factors and certifies, and no
    power of p cached by the field exceeds 4*mcap: a zero keeps at most mcap
    digits, so no sum aligns an operand with a power of p from a runaway
    shift."""
    K = LocalField(p)
    alg = EtaleAlgebra.quadratic(K, b, c)
    lat = standard_H(alg, 0)
    for k in range(1, rank // 2):
        lat = orthogonal_sum(lat, standard_H(alg, k))
    phi, _ = random_unitary(lat, 6, 0)
    verify_factorization(lat, phi, factor_unitary(lat, phi))
    assert max(K._ppows) <= 4 * K.mcap
    assert K._masks is None or max(K._masks) <= 4 * K.mcap


def test_hyperbolic_free_raw_output_is_symmetries_only(Q2sqrt2):
    L = standard_A(Q2sqrt2, 0, 1)
    for seed in range(6):
        phi, _ = random_unitary(L, 1 + seed % 5, seed)
        assert all(isinstance(g, Symmetry) for g in factorize._word(L, phi))


def test_map_isotropic(Q2sqrt2, inert2, split2):
    """H(0) ⟂ <2> over a ramified, an inert and a split algebra: at most two
    symmetries of L take u to v, the two basis vectors of H(0)."""
    for alg in (Q2sqrt2, inert2, split2):
        L = orthogonal_sum(standard_H(alg, 0),
                           HermitianLattice(alg, ((alg.from_int(2),),)))
        cols = list(cols_of(identity(alg, 3)))
        u = basis_vector(alg, 3, 0)
        v = basis_vector(alg, 3, 1)
        word = map_isotropic(L, cols, u, v)
        assert 1 <= len(word) <= 2
        assert all(isometries.in_unitary_group(L, g) for g in word)
        img = u
        for g in reversed(word):
            from hermlat.isometries import apply_generator

            img = apply_generator(L, g, img)
        assert all((a - b).is_zero() for a, b in zip(img, v))


def test_map_isotropic_bridges_a_ramified_pair(Q2sqrt2, monkeypatch):
    """H(0) ⟂ H(0) over Q_2(√2) in the basis e1+e2, e2, e3+e4, e4, whose
    columns are not isotropic, and u_from = phi(e1) for seeded unitaries
    phi, where <u_from, e1> falls short of the scale.  ``map_isotropic``
    goes through ``_isotropic_bridge``, which moves a column along u_from
    by the ramified correction rho·Q(x)/<u,x>: the bridge is integral and
    isotropic, its two symmetries lie in U(L), and the word maps u_from
    to e1."""
    from hermlat.isometries import apply_generator

    L = orthogonal_sum(standard_H(Q2sqrt2, 0), standard_H(Q2sqrt2, 0))
    e = [basis_vector(Q2sqrt2, 4, i) for i in range(4)]
    cols = [vec_add(e[0], e[1]), e[1], vec_add(e[2], e[3]), e[3]]
    sums = cols + [vec_add(a, b) for a, b in itertools.combinations(cols, 2)]
    bridges = []
    original = factorize._isotropic_bridge

    def spy(*args):
        y = original(*args)
        bridges.append(y)
        return y

    monkeypatch.setattr(factorize, "_isotropic_bridge", spy)
    for k, s in ((2, 0), (6, 2), (6, 8)):
        u_from = mat_vec(random_unitary(L, k, s)[0], e[0])
        assert not factorize._attains(Q2sqrt2, L.inner(u_from, e[0]), 0)
        bridges.clear()
        word = map_isotropic(L, cols, u_from, e[0])
        assert len(bridges) == 1 and len(word) == 2
        y = bridges[0]
        assert not any(vec_eq(y, x) for x in sums)  # the correction moved it
        assert all(c.is_zero() or Q2sqrt2.vP(c) >= 0 for c in y)
        assert L.q_value(y).is_zero()
        assert all(isometries.in_unitary_group(L, g) for g in word)
        img = u_from
        for g in reversed(word):
            img = apply_generator(L, g, img)
        assert vec_eq(img, e[0])


def test_map_unit_vector(inert2, split2):
    from hermlat.isometries import apply_generator

    for alg in (inert2, split2):
        L = orthogonal_sum(HermitianLattice(alg, ((alg.one,),)),
                           HermitianLattice(alg, ((alg.from_int(2),),)))
        cols = list(cols_of(identity(alg, 2)))
        a = basis_vector(alg, 2, 0)
        phi, _ = random_unitary(L, 3, 5)
        a_img = mat_vec(phi, a)
        word = map_unit_vector(L, cols, a, a_img)
        assert all(isometries.in_unitary_group(L, g) for g in word)
        img = a_img
        for g in reversed(word):
            img = apply_generator(L, g, img)
        assert all((x - y).is_zero() for x, y in zip(img, a))


def test_emit_rejects_a_non_member_from_map_isotropic(inert2, monkeypatch):
    """map_isotropic returns candidates; _Driver.emit is the one membership
    test, so a word of the pair peel with a non-member fails
    there.  The descent stalls on this word, so the pair peel runs."""
    L = orthogonal_sum(standard_H(inert2, 0),
                       HermitianLattice(inert2, ((inert2.from_int(2),),)))
    phi, _ = random_unitary(L, 4, 22)
    original = factorize.map_isotropic
    calls = []

    def broken(*args):
        calls.append(args)
        g, *rest = original(*args)
        return [Symmetry(g.s, g.sigma + inert2.one)] + rest

    monkeypatch.setattr(factorize, "map_isotropic", broken)
    with pytest.raises(UnsupportedCase) as info:
        factor_unitary(L, phi)
    assert calls
    assert info.traceback[-1].name == "emit"


def test_det_consistency_on_factorizations(Q2sqrt2, inert2):
    from hermlat.isometries import det_of
    from hermlat.linalg import mat_det

    for alg in (Q2sqrt2, inert2):
        L = orthogonal_sum(standard_H(alg, 0),
                           HermitianLattice(alg, ((alg.from_int(2),),)))
        for seed in (3, 11):
            phi, _ = random_unitary(L, 3, seed)
            f = factor_unitary(L, phi)
            acc = alg.one
            for g in f:
                acc = acc * det_of(L, g)
            assert (acc - mat_det(phi)).is_zero()


def _catalog_lattice(name):
    with open(hermlat.catalog_path(name)) as fh:
        return parse_lattice(fh.read())


def _zero_mu_word():
    """H(1) ⟂ H(1) over Q_2(i) (q2i-h1h1) and a word on it whose Eichler
    factor reaches the ramified reduction with mu exactly 0: a symmetry
    times a rescaled Eichler isometry drawn by ``hermlat.oracle`` from one
    seeded generator.  The descent stalls after one symmetry, the pair peel
    emits its Eichler factor, and the reduction pass rewrites it."""
    lat = _catalog_lattice("q2i-h1h1.lat")
    rng = random.Random(1161331496)
    phi = identity(lat.alg, lat.n)
    for g in (random_symmetry(lat, rng), oracle.random_eichler(lat, rng)):
        phi = mat_mul(phi, matrix_of(lat, g))
    return lat, phi


def test_eichler_with_zero_mu_factors_into_symmetries(monkeypatch):
    """Case (e) of the ramified reduction must not ask for the valuation
    of mu = 0: an Eichler factor of the pair peel reaches it, and the
    word comes back as nine symmetries that certify."""
    lat, phi = _zero_mu_word()
    zero_mu = []
    reduce_ramified = isometries._reduce_ramified

    def spy(lat_, e, fuel):
        zero_mu.append(e.mu.is_zero())
        return reduce_ramified(lat_, e, fuel)

    monkeypatch.setattr(isometries, "_reduce_ramified", spy)
    f = factor_unitary(lat, phi)
    cert = verify_factorization(lat, phi, f)
    assert cert["det_consistent"] and True in zero_mu
    assert not f.contains_eichler and len(f) == 9


def test_final_product_check_stops_a_wrong_rewrite(monkeypatch):
    """factor_unitary does not multiply its word out; the check of each
    rewrite against its Eichler matrix must still stop a wrong rewrite.
    With the last symmetry of every rewrite dropped, no word comes back."""
    lat, phi = _zero_mu_word()
    assert any(isinstance(g, EichlerIsometry) for g in factorize._word(lat, phi))
    assert not factor_unitary(lat, phi).contains_eichler

    reduce_eichler = isometries._reduce_eichler

    def drop_last(lat, e, fuel):
        out = reduce_eichler(lat, e, fuel)
        return out[:-1] if out else out

    monkeypatch.setattr(isometries, "_reduce_eichler", drop_last)
    with pytest.raises(UnsupportedCase,
                       match="rewrite does not reproduce the Eichler isometry"):
        factor_unitary(lat, phi)


def test_exit_check_stops_an_emit_that_applies_more_than_it_records(monkeypatch):
    """The driver's word is the input because emit records the inverse of
    each generator it applies.  Here emit, after the first peel step, also
    applies the transvection x -> x + <x,v> v, v the second vector of the
    first step's pair: it fixes the orthogonal complement of v, where the
    later steps run, and moves the pair's u.  The later alignments do not
    see it, so the check that the driver ends at the identity must.  The
    lattice is split3, a split kind, which factor_unitary factors by the
    driver."""
    lat = _catalog_lattice("split3.lat")
    phi = random_unitary(lat, 4, 2)[0]
    factor_unitary(lat, phi)
    u, v = lat._plan[0].piece
    gv = lat.gram_conj(v)
    assert not lat.inner(u, v).is_zero()
    settled, moved = [], []
    settle, emit = factorize._settle, factorize._Driver.emit

    def count_settled(*args):
        settled.append(args[2])
        return settle(*args)

    def emit_and_shear(self, g, phi):
        phi = emit(self, g, phi)
        if not settled:
            return phi
        moved.append(g)
        return mat_from_cols([vec_add(x, vec_scale(_dot(x, gv), v))
                              for x in cols_of(phi)])

    monkeypatch.setattr(factorize, "_settle", count_settled)
    monkeypatch.setattr(factorize._Driver, "emit", emit_and_shear)
    with pytest.raises(UnsupportedCase,
                       match="the driver left a map other than the identity"):
        factor_unitary(lat, phi)
    assert moved


def test_one_factor_op_multiplies_its_word_out_once(monkeypatch):
    """factor_unitary plus its certificate compute the word's product once,
    in verify_factorization."""
    lat, phi = _zero_mu_word()
    callers = []
    residual = factorize._residual

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return residual(*args)

    monkeypatch.setattr(factorize, "_residual", spy)
    f = factor_unitary(lat, phi)
    assert callers == []
    verify_factorization(lat, phi, f)
    assert callers == ["verify_factorization"]


def test_membership_is_decided_once_per_generator(monkeypatch):
    """Over a factor op whose Eichler factor is rewritten and its
    certificate, each generator object's membership is computed once; the
    certificate reads the verdicts the factor op reached."""
    lat, phi = _zero_mu_word()
    decided = []
    defect_vanishes = isometries._defect_vanishes

    def spy(g, f):
        decided.append(g)
        return defect_vanishes(g, f)

    monkeypatch.setattr(isometries, "_defect_vanishes", spy)
    f = factor_unitary(lat, phi)
    in_factor_op = len(decided)
    verify_factorization(lat, phi, f)
    assert len(decided) == in_factor_op
    assert len({id(g) for g in decided}) == len(decided)
    assert {id(g) for g in f} <= {id(g) for g in decided}
    assert any(isinstance(g, EichlerIsometry) for g in decided)


def _split_eichler_word():
    """split3 (H(0) ⟂ <3> over Q_3 x Q_3) and a symmetry times a rescaled
    Eichler isometry drawn by ``hermlat.oracle``."""
    lat = _catalog_lattice("split3.lat")
    rng = random.Random("split-eichler-word")
    phi = identity(lat.alg, lat.n)
    for g in (random_symmetry(lat, rng), oracle.random_eichler(lat, rng)):
        phi = mat_mul(phi, matrix_of(lat, g))
    return lat, phi


def test_factor_unitary_multiplies_no_matrices(monkeypatch):
    """The descent, the pair peel and the driver apply each generator, and
    the rewrite check each rewrite, through the generators' update terms, on
    a field kind and on a split one: the only matrix products of one
    factor_unitary are the two of the input check's gram_preserved.  The
    word before the reduction pass (``_word``) holds Eichler factors on
    both, so the rewrite check runs."""
    words = [(*_zero_mu_word(), 9), (*_split_eichler_word(), 7)]
    callers = []

    def spy(a, b):
        frame = sys._getframe(1)
        callers.append((frame.f_code.co_name, frame.f_back.f_code.co_name))
        return mat_mul(a, b)

    for module in vars(hermlat).values():
        if getattr(module, "mat_mul", None) is mat_mul:
            monkeypatch.setattr(module, "mat_mul", spy)
    for lat, phi, length in words:
        callers.clear()
        f = factor_unitary(lat, phi)
        assert callers == [("gram_preserved", "_check_input")] * 2
        assert not f.contains_eichler and len(f) == length
        callers.clear()
        assert any(isinstance(g, EichlerIsometry) for g in factorize._word(lat, phi))
        assert callers == []


@pytest.mark.parametrize("name", ["q2i-h0h0.lat", "f4ram.lat", "split3.lat"])
def test_factoring_builds_no_generator_matrix(name):
    """factor_unitary and its certificate apply and test every generator of
    the word through its update terms: none has its matrix built, and the
    word still multiplies out to phi."""
    lat = _catalog_lattice(name)
    for seed in range(3):
        phi = random_unitary(lat, 4, seed)[0]
        f = factor_unitary(lat, phi)
        verify_factorization(lat, phi, f)
        assert len(f) > 0
        assert all(g._built[0] is lat and g._built[1][0] is None for g in f)
        assert mat_eq(f.matrix(), phi)


# the seeds of each lattice: on inert kinds the descent finishes most
# words, and these are the first seeds of random_unitary(L, 4, seed) at
# which it stalls, so that the pair peel runs
REWRITE_SEEDS = {"split3.lat": range(4), "split2h.lat": range(4),
                 "inert2.lat": (22, 76), "inert3": (67,)}


@pytest.mark.parametrize("name", list(REWRITE_SEEDS))
def test_only_the_reduction_pass_rewrites_eichler_factors(name, inert3, monkeypatch):
    """The pair peel emits its Eichler isometry as it is, and the
    reduction pass rewrites it like every other Eichler factor: every call
    of ``eichler_to_symmetries`` comes from ``_reduction_pass``, and the
    word of symmetries certifies.  ``inert3`` is H(0) ⟂ <3> over Q_3(i)
    (the catalog's inert3.lat, <1> ⟂ <3>, has no hyperbolic pair)."""
    lat = orthogonal_sum(standard_H(inert3, 0),
                         HermitianLattice(inert3, ((inert3.from_int(3),),))) \
        if name == "inert3" else _catalog_lattice(name)
    callers = []
    rewrite = factorize.eichler_to_symmetries

    def spy(lat_, e):
        callers.append(sys._getframe(1).f_code.co_name)
        return rewrite(lat_, e)

    monkeypatch.setattr(factorize, "eichler_to_symmetries", spy)
    for seed in REWRITE_SEEDS[name]:
        phi = random_unitary(lat, 4, seed)[0]
        f = factor_unitary(lat, phi)
        verify_factorization(lat, phi, f)
        assert not f.contains_eichler
    assert callers and set(callers) == {"_reduction_pass"}


def _factor_key(lat, phi):
    fac = factor_unitary(lat, phi)
    cert = verify_factorization(lat, phi, fac)
    return exact_key({"generators": [_generator(lat, g) for g in fac],
                      "residual_precision": cert["residual_precision"],
                      "certificate": cert})


def _split_catalog():
    """(path, lattice) of each split catalog lattice, the kinds that
    factor_unitary factors by the peel driver and its plan."""
    out = []
    for path in hermlat.catalog_files():
        with open(path) as fh:
            lat = parse_lattice(fh.read())
        if lat.alg.kind == EtaleAlgebra.SPLIT:
            out.append((path, lat))
    return out


def test_a_cold_plan_and_a_warm_plan_give_the_same_result(monkeypatch):
    """Each word factors to the same generators and certificate with the
    plan store cleared and with the plan warm, and the spans its steps run
    on are the first steps of the lattice's plan."""
    runs = []
    align_step = factorize._align_step

    def spy(drv, step, phi):
        runs[-1].append(exact_key(step.cols))
        return align_step(drv, step, phi)

    monkeypatch.setattr(factorize, "_align_step", spy)
    lats = _split_catalog()
    assert len(lats) == 4
    for path, lat in lats:
        words = [random_unitary(lat, 4, seed)[0] for seed in (21, 22)]
        cold = []
        for phi in words:
            lat._plan.clear()
            runs.append([])
            cold.append(_factor_key(lat, phi))
        for phi, key in zip(words, cold):
            runs.append([])
            assert _factor_key(lat, phi) == key, path
        plan = [exact_key(step.cols) for step in lat._plan]
        assert all(spans == plan[:len(spans)] for spans in runs), path
        assert any(runs), path
        runs.clear()


def test_a_plan_goes_with_its_lattice():
    """No step of a plan holds its own lattice, so the plan kept on the
    lattice makes no reference cycle: the lattice is freed by its last
    reference, with the cyclic garbage collector off."""
    lat = _catalog_lattice("split3b.lat")
    phi = random_unitary(lat, 4, 3)[0]  # its generators hold the lattice
    factor_unitary(lat, phi)
    assert {"pair", "line"} <= {step.branch for step in lat._plan}
    ref = weakref.ref(lat)
    gc.disable()
    try:
        del lat
        assert ref() is None
    finally:
        gc.enable()


def test_a_second_call_recomputes_no_geometry(monkeypatch):
    """Once the plan of a lattice is complete, factoring another phi on it
    arranges no block and takes no complement of a peeled piece."""
    lat = _catalog_lattice("split3b.lat")
    calls = Counter()
    for name in ("_arrange_first_block", "_complement"):
        def spy(*args, _name=name, _original=getattr(factorize, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(factorize, name, spy)
    factor_unitary(lat, random_unitary(lat, 4, 3)[0])
    assert set(calls) == {"_arrange_first_block", "_complement"}
    assert lat._plan[-1].rest == []  # the plan is complete
    calls.clear()
    factor_unitary(lat, random_unitary(lat, 5, 4)[0])
    assert not calls


@pytest.mark.parametrize("name", ["split3b.lat", "split2h.lat"])
def test_factoring_reads_the_span_the_pair_search_kept(name, monkeypatch):
    """``splits_hyperbolic`` keeps its answer and the standard span it
    arranged on L: a second search returns the same object, and factoring
    on L then arranges no span of the standard basis again."""
    lat = _catalog_lattice(name)
    found = classify.splits_hyperbolic(lat)
    assert classify.splits_hyperbolic(lat) is found
    standard = exact_key(list(cols_of(identity(lat.alg, lat.n))))
    arranged = []
    for module in (classify, factorize):
        def spy(lat_, cols, groups, _original=module._arrange_first_block):
            arranged.append(exact_key(cols))
            return _original(lat_, cols, groups)

        monkeypatch.setattr(module, "_arrange_first_block", spy)
    factor_unitary(lat, random_unitary(lat, 4, 3)[0])
    assert len(lat._plan) > 1
    assert standard not in arranged


def _split_rank5():
    """H(0) ⟂ <1> ⟂ <2> ⟂ <4> over Q_2 x Q_2: a first Jordan block of rank
    3 and two deeper lines."""
    alg = EtaleAlgebra.split(LocalField(2))
    return orthogonal_sum(standard_H(alg, 0), *(HermitianLattice(alg, ((alg.from_int(a),),))
                                                for a in (1, 2, 4)))


def _smith_slot1(lat, y):
    """Slot 1 of y in the Smith basis t_i of L: <t_i, y>.x0 / <t_i, t_i>.x0."""
    return [lat.inner(t, y).x0 / lat.inner(t, t).x0
            for t in cols_of(lat.jordan_split().transform)]


def _eliminated(lat, phi):
    """The word of ``eliminate_split`` for phi, each generator's inverse
    recorded as ``_Driver.emit`` records it, and the phi it leaves."""
    word = []

    def record(g, m):
        word.append(g.inverse())
        return isometries.apply_word(lat, [g], m)

    rest = isometries.eliminate_split(lat, phi, record)
    return Factorization(lat, word), rest


def test_split_elimination_factors_into_at_most_n_symmetries():
    """Every split catalog lattice and a rank-5 one over Q_2, each in four
    seeded GL_n(O) bases: words of k = 1..6 generators of ``hermlat.oracle``
    are eliminated into at most n symmetries that certify.  A symmetry
    whose slot 1 has two Smith coordinates took the non-unit pivot, and
    some draw does.  One with a single coordinate moves one Smith column,
    so rank(phi - I) = 1, and as an input it comes back as itself alone."""
    lattices = [_catalog_lattice(f"{name}.lat")
                for name in ("split2", "split2h", "split3", "split3b")] + [_split_rank5()]
    pivots = 0
    for base in lattices:
        for b in range(4):
            lat = workloads.random_basis_change(base, random.Random(b))
            single = None
            for k in range(1, 7):
                phi = random_unitary(lat, k, 10 * b + k)[0]
                f, rest = _eliminated(lat, phi)
                assert mat_eq(rest, identity(lat.alg, lat.n))
                verify_factorization(lat, phi, f)
                assert all(isinstance(g, Symmetry) for g in f) and len(f) <= lat.n
                for g in f:
                    support = sum(not c.is_zero() for c in _smith_slot1(lat, g.s))
                    assert support in (1, 2)
                    pivots += support == 2
                    single = single or (g if support == 1 else None)
            (g,) = _eliminated(lat, matrix_of(lat, single))[0].generators
            assert vec_eq(g.s, single.s) and (g.sigma - single.sigma).is_zero()
    assert pivots


def test_split_residue_two_eichler_rewrite_eliminates(monkeypatch):
    """H(0) ⟂ <1> over Q_2 x Q_2 and E(u, v, y, mu) with y = (1,-1)·e₂,
    mu = (1, 0): mu is not a unit, and mu - <v,u>/omega = (0, 1) is not one
    either for the only skew twist omega = (1, -1) of the residue field
    F_2.  The rewrite eliminates the Eichler matrix instead, into at most n
    symmetries that reproduce it."""
    alg = EtaleAlgebra.split(LocalField(2))
    K = alg.base
    lat = orthogonal_sum(standard_H(alg, 0), HermitianLattice(alg, ((alg.one,),)))
    e = isometries.make_eichler(lat, basis_vector(alg, 3, 0), basis_vector(alg, 3, 1),
                                vec_scale(alg.element(K.one, -K.one), basis_vector(alg, 3, 2)),
                                alg.element(K.one, K.zero))
    calls = []
    eliminate = isometries.eliminate_split

    def spy(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(isometries, "eliminate_split", spy)
    word = isometries.eichler_to_symmetries(lat, e)
    assert calls
    assert all(isinstance(g, Symmetry) for g in word) and len(word) <= lat.n
    assert mat_eq(isometries.apply_word(lat, word, identity(alg, lat.n)), matrix_of(lat, e))


def _driven(monkeypatch):
    """A list that gets the lattice of every run of the peel driver
    (``factorize._drive``)."""
    calls = []
    original = factorize._drive

    def spy(drv, phi):
        calls.append(drv.lat)
        return original(drv, phi)

    monkeypatch.setattr(factorize, "_drive", spy)
    return calls


def _peeled(monkeypatch):
    """A list that gets, for every pair peel (``factorize._peel_pair``), the
    length of the word emitted before it and the pair's u."""
    calls = []
    original = factorize._peel_pair

    def spy(drv, cols, phi, u, *rest):
        calls.append((len(drv.out), u))
        return original(drv, cols, phi, u, *rest)

    monkeypatch.setattr(factorize, "_peel_pair", spy)
    return calls


def test_a_pair_peel_takes_one_eichler_step(monkeypatch):
    """Inputs ``random_unitary(L, k, s)`` on which the descent stalls:
    q2sqrt2-h0h0, q2i-h1h1, ram3, e5:H(0)+H(1) and inert2, and q2i-h1h1 in
    the basis ``workloads.random_basis_change`` draws from seed 4.  Each
    pair peel emits at most three generators, exactly one of them an
    Eichler isometry: at most two symmetries take phi(u) to u, and the
    Eichler isometry takes phi(v) to v.  Every word certifies."""
    tower = dict(workloads.build("tower"))
    h1h1 = _catalog_lattice("q2i-h1h1.lat")
    inputs = [(_catalog_lattice("q2sqrt2-h0h0.lat"), 6, 5), (h1h1, 3, 8), (h1h1, 2, 7),
              (_catalog_lattice("ram3.lat"), 4, 39), (tower["e5:H(0)+H(1)"], 6, 5),
              (_catalog_lattice("inert2.lat"), 5, 22),
              (workloads.random_basis_change(h1h1, random.Random(4)), 5, 4000)]
    emitted = []
    original = factorize._peel_pair

    def spy(drv, *args):
        start = len(drv.out)
        phi = original(drv, *args)
        emitted.append(drv.out[start:])
        return phi

    monkeypatch.setattr(factorize, "_peel_pair", spy)
    for lat, k, s in inputs:
        phi = random_unitary(lat, k, s)[0]
        emitted.clear()
        f = factor_unitary(lat, phi)
        assert emitted and verify_factorization(lat, phi, f)["det_consistent"]
        for word in emitted:
            assert len(word) <= 3
            assert sum(isinstance(g, EichlerIsometry) for g in word) == 1


def _descent_inputs():
    """[(lattice, phi)]: 24 inputs that the reflection descent finishes.
    Eight out of the catalog, ``phi = random_unitary(L, 1 + s % 6, s)``:
    over Q_2(√2) A(1,1) ⟂ H(4) at s = 4, 8, A(1,1) ⟂ H(5) at s = 4 and
    A(0,0) ⟂ H(4) at s = 1, 7, 8; A(1,2) ⟂ H(4) over the e = 5 tower field
    at s = 5; <1, 3> ⟂ H(2) over Q_3(√3) at s = 1.  Then 16 in other
    bases, whose first Jordan block ``classify`` cannot arrange:
    q2sqrt2-h0h0 and q2i-h1h1 in the bases ``workloads.random_basis_change``
    draws from seeds 0 and 2, ``phi = random_unitary(M, 4, t)`` for
    t = 0..3."""
    q2s = EtaleAlgebra.quadratic(LocalField(2), 0, -2)
    q3s = EtaleAlgebra.quadratic(LocalField(3), 0, -3)
    K5 = LocalField(2, eisenstein_poly=[-2, 0])
    e5 = EtaleAlgebra.quadratic(K5, 0, -K5.uniformizer())
    diag13 = HermitianLattice(q3s, ((q3s.one, q3s.zero), (q3s.zero, q3s.from_int(3))))
    seeded = [(orthogonal_sum(standard_A(q2s, 1, 1), standard_H(q2s, 4)), (4, 8)),
              (orthogonal_sum(standard_A(q2s, 1, 1), standard_H(q2s, 5)), (4,)),
              (orthogonal_sum(standard_A(q2s, 0, 0), standard_H(q2s, 4)), (1, 7, 8)),
              (orthogonal_sum(standard_A(e5, 1, 2), standard_H(e5, 4)), (5,)),
              (orthogonal_sum(diag13, standard_H(q3s, 2)), (1,))]
    out = [(lat, random_unitary(lat, 1 + s % 6, s)[0]) for lat, seeds in seeded for s in seeds]
    for name in ("q2sqrt2-h0h0", "q2i-h1h1"):
        for b in (0, 2):
            lat = workloads.random_basis_change(_catalog_lattice(f"{name}.lat"), random.Random(b))
            out += [(lat, random_unitary(lat, 4, t)[0]) for t in range(4)]
    return out


def test_the_descent_factors_what_the_driver_cannot(monkeypatch):
    """factor_unitary finishes each of the 24 inputs of
    ``_descent_inputs`` by the reflection descent, into 2 to 4 symmetries
    that certify, at residual precision 232 or more, and neither peels a
    pair nor runs the peel driver."""
    inputs = _descent_inputs()
    assert len(inputs) == 24
    driven, peeled = _driven(monkeypatch), _peeled(monkeypatch)
    for lat, phi in inputs:
        f = factor_unitary(lat, phi)
        cert = verify_factorization(lat, phi, f)
        assert all(isinstance(g, Symmetry) for g in f) and 2 <= len(f) <= 4
        assert cert["residual_precision"] >= 232
    assert driven == [] and peeled == []


def _key(lat, word):
    return exact_key([_generator(lat, g) for g in word])


def test_the_driver_factors_what_the_descent_leaves(monkeypatch):
    """The factor operations of the ``ramified`` benchmark schedules at
    seeds 1-3: factor_unitary returns the reflection descent's word, at most
    n symmetries, where the descent ends at the identity, and otherwise that
    word followed by factor_unitary's word for the map the descent left,
    bit for bit.  That second word begins with a pair peel: the descent
    emits nothing on the map it stalled on.  Both shapes occur."""
    lats = workloads.build("ramified")
    shapes = Counter()
    peeled = _peeled(monkeypatch)
    for seed in (1, 2, 3):
        for kind, item in workloads.make_inputs("ramified", lats, seed):
            if kind != "factor":
                continue
            lat, phi = item.lattice, item.phi
            f = factor_unitary(lat, phi)
            drv = factorize._Driver(lat)
            rest = factorize._descend(drv, phi)
            if mat_eq(rest, identity(lat.alg, lat.n)):
                shapes["descent"] += 1
                assert all(isinstance(g, Symmetry) for g in f) and len(f) <= lat.n
                assert _key(lat, f) == _key(lat, drv.out)
            else:
                shapes["descent+pair"] += 1
                peeled.clear()
                after = factor_unitary(lat, rest)
                assert peeled and peeled[0][0] == 0
                assert _key(lat, f) == _key(lat, drv.out + after.generators)
    assert shapes["descent"] and shapes["descent+pair"]


def test_field_kinds_never_run_the_peel_driver(monkeypatch):
    """The factor operations of the ``ramified`` schedules at seeds 1-3 and
    of the ``tower`` schedule at seed 1, and the inputs of
    ``tools/reach.py``'s out-of-catalog list: factor_unitary certifies each
    without running the peel driver, and peels a pair on some."""
    ops = []
    for workload, seeds in (("ramified", (1, 2, 3)), ("tower", (1,))):
        lats = workloads.build(workload)
        ops += [item for seed in seeds
                for kind, item in workloads.make_inputs(workload, lats, seed)
                if kind == "factor"]
    ops += [item for _, item in reach.extra_schedule()[0]]
    assert {item.lattice_name for item in ops} >= set(workloads.TOWER)
    driven, peeled = _driven(monkeypatch), _peeled(monkeypatch)
    for item in ops:
        f = factor_unitary(item.lattice, item.phi)
        verify_factorization(item.lattice, item.phi, f)
    assert driven == [] and peeled


@pytest.mark.parametrize("name,pairs", [("q2sqrt2-h0h0", 2), ("e5:H(0)+H(1)", 2),
                                        ("inert2", 1)])
def test_the_pair_chain_holds_orthogonal_hyperbolic_pairs(name, pairs):
    """Every pair (u, v) of the chain is isotropic with <u,v> = pi^s, for
    s = v_P(<u,v>), and the pairs are mutually orthogonal; the chain is kept
    on L."""
    lat = dict(workloads.build("tower"))[name] if name in workloads.TOWER \
        else _catalog_lattice(f"{name}.lat")
    chain = list(factorize._pair_chain(lat))
    assert len(chain) == pairs and lat._chain[-1] is None
    assert all(x[0] is y[0] for x, y in zip(factorize._pair_chain(lat), chain))
    for u, v, _ in chain:
        assert lat.q_value(u).is_zero() and lat.q_value(v).is_zero()
        uv = lat.inner(u, v)
        assert (uv - lat.alg.uniformizer_pow(lat.alg.vP(uv))).is_zero()
    for (u1, v1, *_), (u2, v2, *_) in itertools.combinations(chain, 2):
        assert all(lat.inner(a, b).is_zero() for a in (u1, v1) for b in (u2, v2))


def test_a_pair_chain_goes_with_its_lattice():
    """No entry of the chain holds its lattice, so the chain kept on the
    lattice makes no reference cycle: once the chain is built, the lattice
    is freed by its last reference, with the cyclic garbage collector
    off."""
    lat = _catalog_lattice("q2sqrt2-h0h0.lat")
    assert len(list(factorize._pair_chain(lat))) == 2
    ref = weakref.ref(lat)
    gc.disable()
    try:
        del lat
        assert ref() is None
    finally:
        gc.enable()


def test_a_descent_that_stalls_again_peels_the_next_pair(monkeypatch):
    """q2sqrt2-h0h0 at ``random_unitary(L, 6, 5)``: the descent stalls, the
    first pair of the chain is peeled, the descent stalls again, and the
    second pair is peeled; the word certifies, and no pair search ran past
    the second pair."""
    lat = _catalog_lattice("q2sqrt2-h0h0.lat")
    phi = random_unitary(lat, 6, 5)[0]
    peeled = _peeled(monkeypatch)
    f = factor_unitary(lat, phi)
    assert len(lat._chain) == 2
    assert [u for _, u in peeled] == [entry[0] for entry in lat._chain]
    assert 0 < peeled[0][0] < peeled[1][0]
    assert verify_factorization(lat, phi, f)["det_consistent"]


def test_every_out_of_catalog_input_certifies():
    """Each input of ``tools/reach.py``'s out-of-catalog list that the
    oracle builds at seeds 0-9 factors through factor_unitary and
    certifies."""
    ops, skipped = reach.extra_schedule()
    assert len(ops) + len(skipped) == 10 * len(reach.out_of_catalog())
    for _, item in ops:
        f = factor_unitary(item.lattice, item.phi)
        assert verify_factorization(item.lattice, item.phi, f)["det_consistent"], \
            (item.lattice_name, item.seed)


def test_a_single_generator_comes_back_short():
    """The 12 field-kind catalog lattices at ``random_unitary(L, 1, s)``,
    s = 0..29: a symmetry comes back as one generator, an Eichler isometry
    as at most three, and every word certifies."""
    lats = [_catalog_lattice(os.path.basename(path)) for path in hermlat.catalog_files()]
    lats = [lat for lat in lats if lat.alg.kind != EtaleAlgebra.SPLIT]
    assert len(lats) == 12
    drawn = Counter()
    for lat in lats:
        for s in range(30):
            phi, (g,) = random_unitary(lat, 1, s)
            f = factor_unitary(lat, phi)
            verify_factorization(lat, phi, f)
            assert len(f) == 1 if isinstance(g, Symmetry) else len(f) <= 3
            drawn[type(g)] += 1
    assert drawn[Symmetry] and drawn[EichlerIsometry]


def test_an_inert_pair_below_the_first_block_is_peeled(inert2, inert3, monkeypatch):
    """Inert lattices whose hyperbolic plane lies deeper than their first
    Jordan block, at ``random_unitary(L, 1 + s % 6, s)`` where the descent
    stalls: the pair peel maps phi(u) to u by bridge vectors x
    with <x, L> inside P^s, and the word certifies."""
    def one(alg):
        return HermitianLattice(alg, ((alg.one,),))

    h1h1 = [orthogonal_sum(standard_H(alg, 1), standard_H(alg, 1), one(alg))
            for alg in (inert2, inert3)]
    inputs = [(orthogonal_sum(one(inert2), standard_H(inert2, 2)), 10), (h1h1[0], 8),
              (h1h1[0], 11), (orthogonal_sum(one(inert3), standard_H(inert3, 1)), 11),
              (h1h1[1], 11)]
    peeled = _peeled(monkeypatch)
    for lat, s in inputs:
        phi = random_unitary(lat, 1 + s % 6, s)[0]
        peeled.clear()
        f = factor_unitary(lat, phi)
        assert peeled and verify_factorization(lat, phi, f)["det_consistent"]


def test_a_pair_search_past_the_pairs_a_word_needs_is_not_run(monkeypatch):
    """Lattices of a hyperbolic plane beside A-planes and lines whose own
    pair search raises (``classify.cross_pair_norm_drop`` and the isotropy
    refinement), at ``random_unitary(L, 1 + s % 6, s)`` where the descent
    stalls: the first pair of the chain finishes each word, which
    certifies, though a search for the next pair raises."""
    q2s = EtaleAlgebra.quadratic(LocalField(2), 0, -2)
    q2i = EtaleAlgebra.quadratic(LocalField(2), 2, 2)

    def line(alg, a):
        return HermitianLattice(alg, ((alg.from_int(a),),))

    inputs = [(orthogonal_sum(standard_H(q2s, 0), standard_A(q2s, 0, 1), standard_A(q2s, 1, 1)),
               (4, 7)),
              (orthogonal_sum(standard_H(q2s, 0), standard_A(q2s, 0, 1), line(q2s, 2)), (1, 4)),
              (orthogonal_sum(standard_H(q2s, 0), standard_A(q2s, 2, 2), line(q2s, 4)), (1, 4)),
              (orthogonal_sum(standard_H(q2i, 0), standard_A(q2i, 1, 1), standard_A(q2i, 2, 1)),
               (2, 7))]
    peeled = _peeled(monkeypatch)
    for lat, seeds in inputs:
        for s in seeds:
            phi = random_unitary(lat, 1 + s % 6, s)[0]
            peeled.clear()
            f = factor_unitary(lat, phi)
            assert len(peeled) == 1 and verify_factorization(lat, phi, f)["det_consistent"]
        with pytest.raises(UnsupportedCase):
            list(factorize._pair_chain(lat))
