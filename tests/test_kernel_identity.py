"""Golden outputs of the scalar kernel.

For a few catalog lattices, one fixed seeded word of three generators
(symmetries, with the third an Eichler isometry where the lattice has a
hyperbolic pair) is factored and certified.  A SHA-256 over the exact
representation ``(co, shift, ncap)`` of every entry of the input, of every
emitted generator's matrix and of the certificate must stay what it was when
these values were recorded: a change to the field arithmetic that alters any
digit, shift or precision count of a result shows up here.
"""

import hashlib
import json
import random

import pytest

import hermlat
from hermlat import oracle
from hermlat.factorize import factor_unitary, verify_factorization
from hermlat.isometries import EichlerIsometry, matrix_of
from hermlat.linalg import identity, mat_mul
from hermlat.specfile import parse_lattice

K_GENERATORS = 3

# lattice name -> SHA-256 of the run below, recorded before the flat
# one-coordinate kernel replaced the generic element constructor
EXPECTED = {
    "split3":
        "8f55ac0845824eddceeb305761d39f0299508b1ab8a8ec74f9a8696dbc49c5fd",
    "inert3":
        "d52702fee6c6e93fb29854347c00ea1408bc6970e3997ab90d2f0f116a8a01d8",
    "q2i-h":
        "bee6869af19083d03720537a1be7e98b8095b0495f01fef7b389a2504dd1eca4",
    "q2sqrt2-h0h0":
        "8d5f4dbcf4b924d8ef8041de9388ebc0ad1446a9da267ee0d0da8cf6e0358dca",
    "f4ram":
        "537bd9e83b9af70132481e4872619dd87e69d815fef9052e07246c4208ca496c",
}


def _word(lat, rng, k):
    """Product of k generators from ``hermlat.oracle``; generator 2 (mod 3)
    is an Eichler isometry when the lattice has one, the rest symmetries."""
    phi = identity(lat.alg, lat.n)
    for pos in range(k):
        g = oracle.random_eichler(lat, rng) if pos % 3 == 2 else None
        if g is None:
            g = oracle.random_symmetry(lat, rng)
        phi = mat_mul(phi, matrix_of(lat, g))
    return phi


def _field_key(x):
    return [list(x.co), x.shift, x.ncap]


def _matrix_key(m):
    return [[[_field_key(a.x0), _field_key(a.x1)] for a in row] for row in m]


def run_digest(name):
    with open(hermlat.catalog_path(name + ".lat")) as fh:
        lat = parse_lattice(fh.read())
    phi = _word(lat, random.Random(f"kernel-identity:{name}"), K_GENERATORS)
    fac = factor_unitary(lat, phi)
    cert = verify_factorization(lat, phi, fac)
    doc = {
        "input": _matrix_key(phi),
        "generators": [["E" if isinstance(g, EichlerIsometry) else "S",
                        _matrix_key(matrix_of(lat, g))] for g in fac],
        "residual_precision": fac.residual_precision,
        "symmetries_only": fac.symmetries_only,
        "certificate": cert,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_factorization_is_bit_identical(name):
    assert run_digest(name) == EXPECTED[name]
