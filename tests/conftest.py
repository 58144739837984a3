"""Shared fixtures."""

from itertools import product

import numpy as np
import pytest

from sumnet.coding import NetworkCode, TerminalDecoder, build_code
from sumnet.designs import Design, fano
from sumnet.field import FieldMatrix, PrimeField
from sumnet.network import EDGE_HEAD_TO_TERMINAL, build_sum_network


def unitriangular_pair(n: int, p: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """A random lower unitriangular U over GF(p) and its inverse, by forward
    substitution in Python integers."""
    u = [[int(rng.integers(0, p)) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            inv[i] = [(a - u[i][j] * b) % p for a, b in zip(inv[i], inv[j])]
    return np.array(u, dtype=np.int64), np.array(inv, dtype=np.int64)


def rebase_bottlenecks(net, code: NetworkCode, seed: int) -> NetworkCode:
    """The same code with every bottleneck's symbols re-based by a random
    unitriangular U: encoder <- U E, head decoder block <- D U^-1.  The
    code stays correct, but its decoders are dense in large coefficients."""
    f, m, n = code.field, code.params.m, code.params.n
    rng = np.random.default_rng(seed)
    pairs = [unitriangular_pair(n, f.p, rng) for _ in code.encoders]
    encoders = tuple(FieldMatrix(f, u) @ enc for (u, _), enc in zip(pairs, code.encoders))
    decoders = {}
    for t, dec in code.decoders.items():
        blocks, col = [], 0
        for e in dec.in_edges:
            width = n if e.kind == EDGE_HEAD_TO_TERMINAL else m
            block = FieldMatrix(f, dec.matrix.array[:, col : col + width])
            if e.kind == EDGE_HEAD_TO_TERMINAL:
                block = block @ FieldMatrix(f, pairs[e.tail.index][1])
            blocks.append(block.array)
            col += width
        decoders[t] = TerminalDecoder(in_edges=dec.in_edges, matrix=FieldMatrix(f, np.hstack(blocks)))
    return NetworkCode(code.design, f, code.params, encoders, decoders)


@pytest.fixture
def rebased_fano_bigprime():
    """Fano over GF(2^31 - 1) with every bottleneck re-based."""
    net = build_sum_network(fano())
    return net, rebase_bottlenecks(net, build_code(net, PrimeField(2147483647)), seed=5)


def projective_plane(q: int) -> Design:
    """PG(2, q) for prime q, a 2-(q^2+q+1, q+1, 1) design.

    Points and lines are the vectors of GF(q)^3 whose first nonzero
    coordinate is 1; point x lies on line l when x . l = 0.
    """
    vectors = [x for x in product(range(q), repeat=3) if any(x) and next(c for c in x if c) == 1]
    blocks = (
        tuple(i for i, x in enumerate(vectors) if sum(a * b for a, b in zip(x, line)) % q == 0)
        for line in vectors
    )
    return Design(v=len(vectors), k=q + 1, lambda_=1, blocks=tuple(sorted(blocks)))


def affine_plane(q: int) -> Design:
    """AG(2, q) for prime q, a 2-(q^2, q, 1) design: point (x, y) is
    numbered x*q + y, and the lines are y = a*x + c and x = c."""
    sloped = (
        tuple(sorted(x * q + (a * x + c) % q for x in range(q))) for a in range(q) for c in range(q)
    )
    vertical = (tuple(c * q + y for y in range(q)) for c in range(q))
    return Design(v=q * q, k=q, lambda_=1, blocks=tuple(sorted((*sloped, *vertical))))


PLANES = {
    "PG(2,3)": lambda: projective_plane(3),
    "AG(2,3)": lambda: affine_plane(3),
    "AG(2,5)": lambda: affine_plane(5),
}


@pytest.fixture(params=sorted(PLANES))
def plane(request) -> Design:
    """PG(2,3) (k = 4, scalar over GF(3)), AG(2,3) and AG(2,5) (k = 5):
    regimes the Steiner triple systems never reach."""
    return PLANES[request.param]()
