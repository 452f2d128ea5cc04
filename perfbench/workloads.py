"""Workload definitions and seeded input generation for the benchmark.

Each workload is a fixed list of lattices, named here so that later catalog
additions do not shift the baselines.  Building a workload gives fresh
fields and algebras, so every build pays the lazy tables again.  Inputs come
from ``hermlat.oracle`` at the workload seed and are generated outside any
timed span.
"""

from __future__ import annotations

import hashlib
import json
import random

import hermlat
# Library functions are called through their modules, so that a traced run
# sees these calls through the bindings it patches.
from hermlat import classify, isometries, lattice, linalg, oracle, specfile
from hermlat.etale import EtaleAlgebra
from hermlat.lattice import HermitianLattice
from hermlat.localfield import LocalField

CATALOG_WORKLOADS = {
    "unramified": ("split2", "split2h", "split3", "inert2", "inert3"),
    "ramified": ("f4ram", "q2i-diag", "q2i-h", "q2i-h0h0", "q2i-h1h1",
                 "q2sqrt2-a01", "q2sqrt2-h0h0", "q2sqrt2-h1h1",
                 "q2sqrt2-sub", "ram3"),
}

TOWER = ("e5:H(0)+H(1)", "e5:A(0,1)", "e5:A(0,2)+<1>", "e5:H(1,2)+H(1)",
         "e7:H(0)+<1>", "e7:H(0)+<1+u0>")

WORKLOADS = ("unramified", "ramified", "tower")

WHY = {
    "unramified": "split and inert algebras over Q_p: the unramified driver, "
                  "free norm classes, decide stops at condition 2",
    "ramified": "the ten ramified catalog lattices: ramified driver, Eichler "
                "reduction, first-block arrangement, four-condition test",
    "tower": "Eisenstein towers with e = 5 and e = 7: nbasis > 1 carries the "
             "load, isotropy_refine dominates, u0 dominates set-up",
}

# Rounds in a pass: factorization inputs and decide pairs per lattice.
# Sized so that, at the seed commit, a ramified pass outlasts the
# measurement time and an unramified one fits several times into it.
INPUTS_PER_LATTICE = {"unramified": 12, "ramified": 5, "tower": 2}

# Generator counts cycle with the lattice and input position, not with the
# seed, so every seed measures the same mix of word lengths.
MAX_GENERATORS = 6
# Every EICHLER_EVERY-th generator of a word is a rescaled Eichler isometry
# (where the lattice has a hyperbolic pair), the rest are symmetries: about
# the share ``oracle.random_generator`` draws, but fixed by the position.
# Whether a word holds Eichler factors changes its cost several-fold, so a
# drawn share would make the timings depend on the seed more than on the
# program.
EICHLER_EVERY = 3


def read_specs(workload):
    """Spec-file texts of a catalog workload, read once before timing."""
    out = []
    for name in CATALOG_WORKLOADS[workload]:
        with open(hermlat.catalog_path(name + ".lat")) as fh:
            out.append((name, fh.read()))
    return out


def _tower_lattices():
    out = []
    K5 = LocalField(2, eisenstein_poly=[-2, 0])
    E5 = EtaleAlgebra.quadratic(K5, 0, -K5.uniformizer())
    one5 = HermitianLattice(E5, ((E5.one,),))
    L = lattice
    out.append(L.orthogonal_sum(L.standard_H(E5, 0), L.standard_H(E5, 1)))
    out.append(L.standard_A(E5, 0, 1))
    out.append(L.orthogonal_sum(L.standard_A(E5, 0, 2), one5))
    out.append(L.orthogonal_sum(L.standard_Hik(E5, 1, 2), L.standard_H(E5, 1)))
    K7 = LocalField(2, eisenstein_poly=[-2, 0, 0])
    E7 = EtaleAlgebra.quadratic(K7, 0, -K7.uniformizer())
    twin = E7.from_K(K7.one + E7.u0())
    out.append(L.orthogonal_sum(L.standard_H(E7, 0), HermitianLattice(E7, ((E7.one,),))))
    out.append(L.orthogonal_sum(L.standard_H(E7, 0), HermitianLattice(E7, ((twin,),))))
    return list(zip(TOWER, out))


def build(workload, specs=None):
    """Build the workload's lattices from scratch and fill the lazy tables
    of their algebras; returns [(name, lattice)].  This is the timed set-up."""
    if workload == "tower":
        lats = _tower_lattices()
    else:
        lats = [(name, specfile.parse_lattice(text))
                for name, text in (specs or read_specs(workload))]
    seen = set()
    for _, lat in lats:
        alg = lat.alg
        if id(alg) in seen:
            continue
        seen.add(id(alg))
        if alg.kind == EtaleAlgebra.RAMIFIED:
            alg.u0()
        alg.rho()
        alg.eta()
    return lats


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


class FactorInput:
    __slots__ = ("lattice_name", "lattice", "k", "seed", "phi")

    def __init__(self, lattice_name, lattice, k, seed, phi):
        self.lattice_name = lattice_name
        self.lattice = lattice
        self.k = k
        self.seed = seed
        self.phi = phi


class DecidePair:
    """(L, M) with the verdict known from how M was built: "basis" (a change
    of basis, isometric) or a twin kind (not isometric)."""

    __slots__ = ("lattice_name", "lattice", "other", "kind", "truth")

    def __init__(self, lattice_name, lattice, other, kind, truth):
        self.lattice_name = lattice_name
        self.lattice = lattice
        self.other = other
        self.kind = kind
        self.truth = truth


def classify_record(lat):
    """What ``hermlat classify`` reports: Jordan type, the standard form of
    each block (ramified kind), and whether L splits a hyperbolic plane."""
    split = lat.jordan_split()
    forms = []
    if lat.alg.kind == EtaleAlgebra.RAMIFIED:
        forms = [classify.modular_standard_form(HermitianLattice(lat.alg, blk.gram))
                 for blk in split.blocks]
    return {"jordan_type": split.jordan_type(), "standard_forms": forms,
            "splits": classify.splits_hyperbolic(lat) is not None}


def _unitriangular(lat, rng, lower):
    alg, n = lat.alg, lat.n
    entries = iter([c for _ in range(n) for c in oracle.random_vector(lat, rng)])
    return tuple(tuple(alg.one if i == j
                       else next(entries) if (i > j) == lower else alg.zero
                       for j in range(n)) for i in range(n))


def random_basis_change(lat, rng):
    """L in a random basis: the Gram of the columns of a product of a lower
    and an upper unitriangular matrix over O, so the change lies in GL_n(O).
    Entries are drawn by ``oracle.random_vector``."""
    t = linalg.mat_mul(_unitriangular(lat, rng, True), _unitriangular(lat, rng, False))
    return HermitianLattice(lat.alg, lattice._gram_of(lat, linalg.cols_of(t)))


def twin(lat, turn):
    """A lattice over the same algebra that differs from L in one invariant:
    its determinant class through the non-norm unit 1 + u0 when L is
    ramified with a rank-1 Jordan block, otherwise its scale or its rank as
    `turn` is even or odd.  Returns (kind, lattice)."""
    alg = lat.alg
    if alg.kind == EtaleAlgebra.RAMIFIED:
        blocks = lat.jordan_split().blocks
        lines = [bi for bi, blk in enumerate(blocks) if blk.rank == 1]
        if lines:
            unit = alg.from_K(alg.base.one + alg.u0())
            grams = [((blk.gram[0][0] * unit,),) if bi == lines[0] else blk.gram
                     for bi, blk in enumerate(blocks)]
            return "det", lattice.orthogonal_sum(*(HermitianLattice(alg, g) for g in grams))
    if turn % 2 == 0:
        return "scale", lat.rescale(alg.base.uniformizer())
    return "rank", lattice.orthogonal_sum(lat, HermitianLattice(alg, ((alg.one,),)))


def random_word(lat, k, first, rng):
    """phi = product of k generators from ``hermlat.oracle``; generator p is
    an Eichler isometry when (first + p) % EICHLER_EVERY == EICHLER_EVERY - 1
    and the lattice has one, else a symmetry.  Like ``oracle.random_unitary``
    with the kinds fixed."""
    phi = linalg.identity(lat.alg, lat.n)
    for p in range(k):
        g = None
        if (first + p) % EICHLER_EVERY == EICHLER_EVERY - 1:
            g = oracle.random_eichler(lat, rng)
        if g is None:
            g = oracle.random_symmetry(lat, rng)
        phi = linalg.mat_mul(phi, isometries.matrix_of(lat, g))
    return phi


def make_inputs(workload, lats, seed):
    """Deterministic pass schedule for one seed: a list of ("factor",
    FactorInput) and ("decide", DecidePair) operations, interleaved so that
    every lattice appears once per round."""
    rng = random.Random(f"{workload}:{seed}")
    rounds = INPUTS_PER_LATTICE[workload]
    schedule = []
    twins = [0] * len(lats)
    for j in range(rounds):
        for i, (name, lat) in enumerate(lats):
            k = 1 + (i + j) % MAX_GENERATORS
            s = rng.randrange(2 ** 31)
            slot = random.Random(s)
            phi = random_word(lat, k, i + j, slot)
            schedule.append(("factor", FactorInput(name, lat, k, s, phi)))
            if (i + j) % 2 == 0:
                kind, other, truth = "basis", lat, True
            else:
                kind, other = twin(lat, (i + twins[i]) % 2)
                twins[i] += 1
                truth = False
            other = random_basis_change(other, slot)
            schedule.append(("decide", DecidePair(name, lat, other, kind, truth)))
    return schedule


# ---------------------------------------------------------------------------
# digest
# ---------------------------------------------------------------------------


def _field_key(x):
    """[e] + the coefficients of p^e * x modulo p^(ceil(N/d) + e), N the
    guaranteed precision and e >= 0 the least exponent that makes p^e * x
    integral, so equal values give equal keys however they are stored."""
    K = x.field
    co, shift = x.flat()
    p = K.p
    while shift < 0 and all(c % p == 0 for c in co):
        co = [c // p for c in co]
        shift += 1
    den = max(0, -shift)
    mod = p ** (-(-K.precision // K.d) + den)
    return [den] + [(c * p ** (shift + den)) % mod for c in co]


def _entry_key(a):
    return [_field_key(a.x0), _field_key(a.x1)]


def _matrix_key(m):
    return [[_entry_key(a) for a in row] for row in m]


def digest(workload, lats, schedule):
    """SHA-256 over the lattices and every generated input, with entries
    reduced to the guaranteed precision, so two runs can be shown to have
    measured the same inputs."""
    doc = {
        "workload": workload,
        "lattices": [[name, _matrix_key(lat.gram)] for name, lat in lats],
        "ops": [],
    }
    for kind, item in schedule:
        if kind == "factor":
            doc["ops"].append(["factor", item.lattice_name, item.k, item.seed,
                               _matrix_key(item.phi)])
        else:
            doc["ops"].append(["decide", item.lattice_name, item.kind, item.truth,
                               _matrix_key(item.other.gram)])
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
