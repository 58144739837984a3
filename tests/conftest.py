"""Shared fixtures."""

import numpy as np
import pytest

from sumnet.coding import NetworkCode, TerminalDecoder, build_code
from sumnet.designs import fano
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
