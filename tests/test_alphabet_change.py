import math
from itertools import product

import pytest

from sumnet.alphabet_change import (
    InvalidGammaError,
    TooLargeError,
    decode_sum,
    decode_unicast,
    exhaustive_failure_search,
    extension_params,
    run_counterexample,
    true_sum,
    unicast_control_holds,
)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma,t,nprime,kprime", [(2, 4, 3, 2), (3, 8, 6, 5), (4, 16, 11, 10)])
def test_extension_params(gamma, t, nprime, kprime):
    p = extension_params(gamma)
    assert (p.t, p.nprime, p.kprime) == (t, nprime, kprime)
    # integer characterization agrees with the ceiling form
    assert p.nprime == math.ceil(p.t / math.log2(3))
    assert 3**p.nprime >= 2**p.t > 3 ** (p.nprime - 1)


@pytest.mark.parametrize("gamma", [1, 0, -2, "2"])
def test_gamma_below_two_rejected(gamma):
    with pytest.raises(InvalidGammaError):
        extension_params(gamma)


# ---------------------------------------------------------------------------
# the fixed all-ones demonstration
# ---------------------------------------------------------------------------

def test_all_ones_fails_for_completion_one():
    report = run_counterexample(2)
    assert report.mode == "fixed-input"
    by_completion = {o.two_maps_to: o for o in report.outcomes}
    bad = by_completion[1]
    assert bad.x1 == bad.x2 == (1, 1)
    assert bad.decoded == (1, 1)
    assert bad.expected == (0, 0)
    assert bad.fails
    assert report.any_failure


def test_all_ones_happens_to_match_for_completion_zero():
    report = run_counterexample(2)
    ok = {o.two_maps_to: o for o in report.outcomes}[0]
    assert ok.decoded == (0, 0) == ok.expected
    assert not ok.fails


def test_no_carry_control_input():
    params = extension_params(2)
    ones, zeros = (1, 1), (0, 0)
    for completion in (0, 1):
        assert decode_sum(ones, zeros, params, completion) == (1, 1)


def test_all_ones_fails_for_every_gamma():
    for gamma in (2, 3, 4):
        params = extension_params(gamma)
        ones = (1,) * params.kprime
        assert decode_sum(ones, ones, params, 1) == ones != true_sum(ones, ones)


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------

def test_search_finds_witness_for_completion_one():
    report = exhaustive_failure_search(2)
    assert report.mode == "exhaustive-search"
    bad = {o.two_maps_to: o for o in report.outcomes}[1]
    assert bad.fails and not bad.exhausted
    # re-verify the reported witness independently
    params = extension_params(2)
    assert decode_sum(bad.x1, bad.x2, params, 1) == bad.decoded
    assert true_sum(bad.x1, bad.x2) == bad.expected
    assert bad.decoded != bad.expected


def test_search_reports_exhaustion_for_completion_zero():
    # mapping 2 to 0 agrees with GF(2) addition coordinatewise, so the scan
    # must come back empty-handed and say so
    report = exhaustive_failure_search(2)
    ok = {o.two_maps_to: o for o in report.outcomes}[0]
    assert ok.exhausted and not ok.fails
    assert ok.x1 is None and ok.decoded is None


def test_search_gamma3_same_verdict_structure():
    report = exhaustive_failure_search(3)
    by_completion = {o.two_maps_to: o for o in report.outcomes}
    assert by_completion[1].fails
    assert by_completion[0].exhausted
    assert report.any_failure


def test_search_rejects_large_blocks():
    with pytest.raises(TooLargeError):
        exhaustive_failure_search(5)  # kprime = 20


def test_extension_correct_whenever_no_coordinate_doubles_a_one():
    params = extension_params(2)
    for completion in (0, 1):
        for x1, x2 in product(product((0, 1), repeat=2), repeat=2):
            if any(a == b == 1 for a, b in zip(x1, x2)):
                continue
            assert decode_sum(x1, x2, params, completion) == true_sum(x1, x2)


# ---------------------------------------------------------------------------
# the unicast control case
# ---------------------------------------------------------------------------

def test_unicast_control_all_inputs():
    assert unicast_control_holds(2)
    assert unicast_control_holds(3)


def test_unicast_decode_never_sees_a_two():
    params = extension_params(2)
    for x1 in product((0, 1), repeat=params.kprime):
        assert decode_unicast(x1, params, 0) == x1
        assert decode_unicast(x1, params, 1) == x1


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def test_report_dict_shape():
    data = run_counterexample(2).to_dict()
    assert data["schema"] == "sumnet.counterexample/1"
    assert data["gamma"] == 2 and data["kprime"] == 2
    assert data["any_failure"] is True
    assert len(data["outcomes"]) == 2
    search = exhaustive_failure_search(2).to_dict()
    assert search["outcomes"][0]["exhausted"] is True
