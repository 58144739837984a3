"""Projective and affine planes: k > 3 designs in both code regimes."""

import pytest

from sumnet.cli import main
from sumnet.coding import (
    REGIME_DIVIDES,
    REGIME_NOT_DIVIDES,
    _core,
    build_code,
    code_load,
    code_params_for,
    code_save,
)
from sumnet.designs import design_save, design_verify
from sumnet.field import PrimeField
from sumnet.network import build_sum_network, network_export_json, network_from_json, network_validate
from sumnet.verify import (
    block_sum_recoverable,
    capacity_report,
    partial_sum_recoverable,
    simulate_trials,
    transfer_check,
)

from conftest import PLANES, affine_plane, assert_core_path_agrees, drop_block_correction, projective_plane


def test_plane_parameters():
    assert [(d.v, d.k, d.b, d.r) for d in (projective_plane(3), affine_plane(3), affine_plane(5))] == [
        (13, 4, 13, 4),
        (9, 3, 12, 4),
        (25, 5, 30, 6),
    ]


def test_plane_design_network_and_round_trip(plane):
    assert design_verify(plane).ok
    net = build_sum_network(plane)
    report = network_validate(net)
    assert report.ok, report.problems
    assert network_from_json(network_export_json(net)) == net


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_plane_code_passes_every_check(plane, p):
    f = PrimeField(p)
    net = build_sum_network(plane)
    code = build_code(net, f)
    assert code.params == code_params_for(plane, f)
    for check in (transfer_check, partial_sum_recoverable, block_sum_recoverable):
        result = check(net, code)
        assert result.ok, [x.detail for x in result.failures]
    summary = simulate_trials(net, code, trials=50, seed=p)
    assert summary.ok, [x.detail for x in summary.failures]
    assert capacity_report(plane, f).matches


def test_scalar_regime_over_an_odd_prime():
    # k - 1 = 3 on PG(2,3): GF(3) takes the scalar code, which the triple
    # systems only ever reach over GF(2)
    d = projective_plane(3)
    assert code_params_for(d, PrimeField(3)).regime == REGIME_DIVIDES
    assert code_params_for(d, PrimeField(2)).rate == (12, 24)
    assert code_params_for(affine_plane(5), PrimeField(3)).rate == (25, 55)


@pytest.mark.parametrize(
    "design,p", [(projective_plane(3), 2), (affine_plane(5), 3)], ids=["PG(2,3)-GF(2)", "AG(2,5)-GF(3)"]
)
def test_fractional_core_is_recognised_for_k_above_three(design, p):
    net = build_sum_network(design)
    code = build_code(net, PrimeField(p))
    c, s, w = _core(design, code.params)
    assert code.w == w == code.params.m // design.k > 1
    assert code.core_params.rate == (c, c + s)
    assert_core_path_agrees(net, code, seed=p)
    broken = drop_block_correction(net, code)
    assert broken.w == w
    assert not transfer_check(net, broken).ok
    assert_core_path_agrees(net, broken, seed=p)


@pytest.mark.parametrize(
    "name,p,regime",
    [("PG(2,3)", 2, REGIME_NOT_DIVIDES), ("PG(2,3)", 3, REGIME_DIVIDES), ("AG(2,5)", 3, REGIME_NOT_DIVIDES)],
)
def test_a_plane_code_goes_through_its_files_in_either_regime(tmp_path, capsys, name, p, regime):
    # the design file goes in with --load and the code comes back from its
    # document: it loads equal, saves to the same bytes, and simulates as
    # the code built in process does
    design_path, code_path, again = tmp_path / "design.json", tmp_path / "code.json", tmp_path / "again.json"
    design_save(PLANES[name](), design_path)
    argv = ["--load", str(design_path), "--field", str(p)]
    assert main(["code", *argv, "--save-code", str(code_path)]) == 0
    code = build_code(build_sum_network(PLANES[name]()), PrimeField(p))
    assert code.params.regime == regime
    loaded = code_load(code_path)
    assert loaded == code and loaded.w == code.w
    code_save(loaded, again)
    assert again.read_bytes() == code_path.read_bytes()
    simulate = ["simulate", *argv, "--trials", "200", "--seed", str(p)]
    capsys.readouterr()
    assert main(simulate) == 0
    built = capsys.readouterr().out
    assert main([*simulate, "--code", str(code_path)]) == 0
    assert capsys.readouterr().out == built
