"""Renaming a design's points or reordering its blocks changes no answer."""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from sumnet.coding import build_code
from sumnet.designs import Design, fano, sts_bose
from sumnet.field import PrimeField
from sumnet.network import build_sum_network, network_export_json, network_from_json, network_validate
from sumnet.verify import block_sum_recoverable, capacity_report, partial_sum_recoverable, transfer_check

from conftest import affine_plane

DESIGNS = {
    "fano": fano,
    "sts9": lambda: sts_bose(9),
    "sts15": lambda: sts_bose(15),
    "AG(2,3)": lambda: affine_plane(3),
}
FIELDS = (2, 3, 5)


def verdicts(d: Design, p: int) -> tuple:
    """The three check verdicts of the design's code over GF(p) and its
    capacity report."""
    f = PrimeField(p)
    net = build_sum_network(d)
    code = build_code(net, f)
    checks = (transfer_check, partial_sum_recoverable, block_sum_recoverable)
    return tuple(check(net, code).ok for check in checks), capacity_report(d, f)


@lru_cache(maxsize=None)
def original_verdicts(name: str, p: int) -> tuple:
    return verdicts(DESIGNS[name](), p)


@st.composite
def relabeled(draw):
    """(name, the named design with its points permuted and its blocks in a
    random order)."""
    name = draw(st.sampled_from(sorted(DESIGNS)))
    d = DESIGNS[name]()
    points = draw(st.permutations(range(d.v)))
    blocks = draw(st.permutations([tuple(points[x] for x in blk) for blk in d.blocks]))
    return name, Design(v=d.v, k=d.k, lambda_=d.lambda_, blocks=tuple(blocks))


@settings(max_examples=25, deadline=None)
@given(relabeled(), st.sampled_from(FIELDS))
def test_relabeling_keeps_verdicts_rates_and_the_network_document(case, p):
    name, d = case
    net = build_sum_network(d)
    report = network_validate(net)
    assert report.ok, report.problems
    assert network_from_json(network_export_json(net)) == net
    assert verdicts(d, p) == original_verdicts(name, p)
