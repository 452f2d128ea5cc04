import gc
import random
import weakref

import hermlat
from hermlat import oracle
from hermlat.classify import splits_hyperbolic, standard_span
from hermlat.etale import NONNORM, EtaleAlgebra
from hermlat.isometries import EichlerIsometry, Symmetry, in_unitary_group, matrix_of
from hermlat.lattice import HermitianLattice, orthogonal_sum, standard_H
from hermlat.linalg import mat_eq
from hermlat.specfile import parse_lattice
from hermlat.oracle import (
    enumerate_norm_image,
    enumerate_trace_image,
    norm_image_index,
    random_generator,
    random_unitary,
)


def test_trace_image_agrees_with_closed_form(Q2sqrt2, Q2i, Q3sqrt3):
    for alg in (Q2sqrt2, Q2i, Q3sqrt3):
        for i in (0, 1, 2):
            assert enumerate_trace_image(alg, i, alg.e + 3) == alg.trace_ideal(i)


def test_trace_image_shift_by_two(Q2sqrt2):
    # P^2 = p O shifts the trace ideal by exactly one
    a = enumerate_trace_image(Q2sqrt2, 0, Q2sqrt2.e + 3)
    b = enumerate_trace_image(Q2sqrt2, 2, Q2sqrt2.e + 3)
    assert b == a + 1


def _ramified_catalog_algebras():
    algs = {}
    for path in hermlat.catalog_files():
        with open(path) as fh:
            alg = parse_lattice(fh.read()).alg
        if alg.kind == EtaleAlgebra.RAMIFIED:
            algs.setdefault((alg.base.p, alg.base.q, alg.b.flat(), alg.c.flat()), alg)
    return list(algs.values())


def test_norm_image_index(tower5, inert2, split2):
    catalog = _ramified_catalog_algebras()
    assert {(alg.base.q, alg.e) for alg in catalog} == {(2, 2), (2, 3), (3, 1), (4, 3)}
    for alg in catalog + [tower5]:
        assert norm_image_index(alg, alg.e) == 2
        # the generated subgroup of norm keys is the enumerated image
        assert alg._unit_norm_keys() == enumerate_norm_image(alg, alg.e)[0]
    assert norm_image_index(inert2, 1) == 1
    assert norm_image_index(split2, 1) == 1


def _exact(x):
    return tuple((c.co, c.shift, c.ncap) for c in (x.x0, x.x1))


def _eager_first_hits(alg, k):
    """The first unit of O/P^(2k) for each norm key mod 𝔭^k, the residues
    built level by level as a full table, r * g + lift from the top digit."""
    lifts = [alg.from_K(r) for r in alg.base.residue_lifts()]
    reps, g = [alg.zero], alg.gen()
    for _ in range(2 * k):
        reps = [r * g + lift for r in reps for lift in lifts]
    hits = {}
    for u in reps:
        if u.is_unit():
            hits.setdefault(alg.key_mod_p(u.norm(), k), u)
    return hits


def test_lazy_norm_key_search_is_the_eager_first_hit(Q2sqrt2, Q2i, Q3sqrt3, F4ram):
    for alg in (Q2sqrt2, Q2i, Q3sqrt3, F4ram):
        for k in sorted({1, alg.e - 1, alg.e} - {0}):
            hits = _eager_first_hits(alg, k)
            assert hits
            for target, first in hits.items():
                assert _exact(alg._unit_of_norm_key(k, target)) == _exact(first)


def test_u0_lands_in_nontrivial_coset(Q2sqrt2, Q2i, F4ram, tower5):
    for alg in (Q2sqrt2, Q2i, F4ram, tower5):
        image, units = enumerate_norm_image(alg, max(alg.e, 1))
        u0 = alg.u0()
        key = alg.key_mod_p(alg.base.one + u0, max(alg.e, 1))
        assert key in units and key not in image
        assert alg.norm_class(alg.base.one + u0) == NONNORM


def test_random_generator_membership_and_determinism(Q2sqrt2):
    L = orthogonal_sum(standard_H(Q2sqrt2, 0),
                       HermitianLattice(Q2sqrt2, ((Q2sqrt2.from_int(2),),)))
    g1 = random_generator(L, 42)
    g2 = random_generator(L, 42)
    assert type(g1) is type(g2)
    assert mat_eq(matrix_of(L, g1), matrix_of(L, g2))
    assert in_unitary_group(L, g1)


def test_random_unitary_deterministic(Q2sqrt2):
    L = standard_H(Q2sqrt2, 1)
    m1, gens1 = random_unitary(L, 3, 7)
    m2, gens2 = random_unitary(L, 3, 7)
    assert mat_eq(m1, m2)
    assert len(gens1) == len(gens2) == 3
    assert in_unitary_group(L, m1)


def test_random_unitary_zero_generators(Q2sqrt2):
    from hermlat.linalg import identity

    L = standard_H(Q2sqrt2, 0)
    m, gens = random_unitary(L, 0, 1)
    assert gens == [] and mat_eq(m, identity(Q2sqrt2, 2))


def test_a_kept_pair_lets_a_dropped_lattice_go(Q2sqrt2):
    """The oracle's Eichler draws read the hyperbolic pair that L keeps with
    its standard span; neither keeps L alive, so a dropped L is freed."""
    L = orthogonal_sum(standard_H(Q2sqrt2, 0),
                       HermitianLattice(Q2sqrt2, ((Q2sqrt2.from_int(2),),)))
    pair = splits_hyperbolic(L)
    assert pair is not None and splits_hyperbolic(L) is pair
    assert standard_span(L).pair is pair
    e = oracle.random_eichler(L, random.Random(3))
    assert (e.u, e.v) == pair[:2]
    ref = weakref.ref(L)
    del L, e
    gc.collect()
    assert ref() is None
