"""Regenerate the bundled fixture files.

Every fixture is built through the library and emitted canonically, so a
load/emit round trip of any bundled file is byte-identical.  Run from the
repository root:  python3 tools/gen_fixtures.py
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from abelianj.assoc import CommAssocAlgebra
from abelianj.complex_structures import ComplexStructure
from abelianj.constructions import aff_algebra, standard_complex_structure
from abelianj.hermitian import HermitianTriple, InnerProduct, is_kahler
from abelianj.lab import _standard_block_j, kahler_decompose
from abelianj.lie import LieAlgebra, check_jacobi
from abelianj.linalg import Matrix, certify, rat
from abelianj import serialize

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "abelianj", "fixtures")


def write(name, text):
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print("wrote", os.path.relpath(path))


def instance(name, g, j=None, metric=None):
    certify("fixture %s must satisfy Jacobi" % name, check_jacobi(g) is None)
    if j is not None and metric is not None:
        HermitianTriple(g, j, metric)    # validates compatibility
    write(name, serialize.emit(serialize.instance_to_dict(g, j, metric)))


def product(name, a):
    write(name, serialize.emit(serialize.algebra_to_dict(a)))


def main():
    os.makedirs(OUT, exist_ok=True)

    # products: the four one-and-two dimensional unital models, a nilpotent
    # one, and a two-dimensional zero product for pairing
    prod_real = CommAssocAlgebra(1, {(0, 0): {0: 1}})
    prod_complex = CommAssocAlgebra(2, {(0, 0): {0: 1}, (0, 1): {1: 1},
                                        (1, 1): {0: -1}})
    prod_split_pair = CommAssocAlgebra(2, {(0, 0): {0: 1}, (1, 1): {1: 1}})
    prod_dual = CommAssocAlgebra(2, {(0, 0): {0: 1}, (0, 1): {1: 1}})
    prod_nilcubic = CommAssocAlgebra(3, {(0, 0): {1: 1}, (0, 1): {2: 1}},
                                    basis_names=("t", "t2", "t3"))
    product("prod_real.json", prod_real)
    product("prod_complex.json", prod_complex)
    product("prod_split_pair.json", prod_split_pair)
    product("prod_dual_numbers.json", prod_dual)
    product("prod_nilpotent_cubic.json", prod_nilcubic)
    product("prod_zero2.json", CommAssocAlgebra(2))

    # the affine motions of the complex line, both standard complex structures
    aff_c = LieAlgebra(4, {(0, 2): {2: 1}, (0, 3): {3: 1},
                           (1, 2): {3: 1}, (1, 3): {2: -1}})
    # J e1 = -e2, J e2 = e1, J e3 = e4, J e4 = -e3
    j1 = ComplexStructure(Matrix([[0, 1, 0, 0], [-1, 0, 0, 0],
                                  [0, 0, 0, -1], [0, 0, 1, 0]]))
    j2 = standard_complex_structure(2)
    certify("aff_c must be the affine algebra of the complex product",
            aff_algebra(prod_complex).algebra == aff_c)
    instance("aff_c_j1.json", aff_c, j1, InnerProduct.identity(4))
    instance("aff_c_j2.json", aff_c, j2, InnerProduct.identity(4))

    # flat model
    instance("abelian_r4.json", LieAlgebra.abelian(4),
             standard_complex_structure(2), InnerProduct.identity(4))

    # two curved blocks and a flat plane; unit norms and the 4/1 scaling
    blocks = LieAlgebra(6, {(0, 1): {1: 1}, (2, 3): {3: 1}})
    jb = ComplexStructure(_standard_block_j(3))
    t = HermitianTriple(blocks, jb, InnerProduct.identity(6))
    certify("two blocks must decompose into two factors",
            is_kahler(t) and kahler_decompose(t).n == 2)
    instance("kahler_two_blocks.json", blocks, jb, InnerProduct.identity(6))
    scaled = InnerProduct.diagonal([4, 4, 1, 1, 1, 1])
    ts = HermitianTriple(blocks, jb, scaled)
    certify("scaled blocks must have curvatures 1/4 and 1",
            [f.curvature for f in kahler_decompose(ts).factors] == [rat(1, 4), rat(1)])
    instance("kahler_two_blocks_scaled.json", blocks, jb, scaled)

    # six-dimensional three-step nilpotent double product
    nil6 = aff_algebra(prod_nilcubic)
    instance("nilpotent_step3.json", nil6.algebra, nil6.j,
             InnerProduct.identity(6))


if __name__ == "__main__":
    main()
