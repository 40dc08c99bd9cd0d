"""One budget policy: every job defaults to errors.DEFAULT_BUDGET and
refuses through errors.charge, with one message shape, exactly one unit
over its modelled cost."""

import inspect
import re

import pytest

from polysieve import _ints, almostprime, charsum, cli, sieve, zpoly
from polysieve.charsum import (MONIC, SmoothWeight, contraction_cost, table_build_cost,
                               table_cost)
from polysieve.errors import DEFAULT_BUDGET, BudgetExceededError, charge

REFUSAL = re.compile(r"(.+) costs (\d+), over budget (-?\d+)")


def assert_refused_over(exc_info, cost):
    what, got, budget = REFUSAL.fullmatch(str(exc_info.value)).groups()
    assert (int(got), int(budget)) == (cost, cost - 1), what


def test_default_is_the_cli_value():
    assert DEFAULT_BUDGET == 2_000_000_000


def test_every_budget_parameter_defaults_to_the_one_budget():
    found = set()
    for module in (_ints, almostprime, charsum, cli, sieve, zpoly):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ != module.__name__ or name.startswith("_"):
                continue
            param = inspect.signature(fn).parameters.get("budget")
            if param is not None:
                assert param.default is DEFAULT_BUDGET, f"{module.__name__}.{name}"
                found.add(f"{module.__name__.split('.')[-1]}.{name}")
    assert found == {"zpoly.square_disc_scan", "almostprime.build_disc_sequence",
                     "almostprime.count_almost_prime", "sieve.count_an_box",
                     "sieve.verify_modified_selberg", "charsum.poisson_check"}
    for _func, defaults, _choices, _help in cli._COMMANDS.values():
        assert defaults.get("budget", DEFAULT_BUDGET) is DEFAULT_BUDGET


@pytest.mark.parametrize("cost, budget, refused", [
    (10, 10, False), (11, 10, True), (0, 0, False), (10 ** 30, None, False),
    (1, -1, True)])
def test_charge(cost, budget, refused):
    if not refused:
        assert charge(cost, budget, "a job") is None
        return
    with pytest.raises(BudgetExceededError) as exc_info:
        charge(cost, budget, "a job")
    assert str(exc_info.value) == f"a job costs {cost}, over budget {budget}"


@pytest.mark.parametrize("n, R, monic", [(3, 2, True), (4, 1, True), (3, 1, False)])
def test_box_scan_refused_one_unit_over(n, R, monic):
    cost = zpoly.box_cost(n, R, monic)[1]
    zpoly.square_disc_scan(n, R, monic, budget=cost)
    with pytest.raises(BudgetExceededError) as exc_info:
        zpoly.square_disc_scan(n, R, monic, budget=cost - 1)
    assert_refused_over(exc_info, cost)


def test_poisson_check_refused_one_unit_over():
    # d = 30 monic n = 3: two contractions and three transformed tables
    cost = 2 * contraction_cost(30, 3) + sum(table_cost(p, 3, MONIC) for p in (2, 3, 5))
    assert cost == 18_975
    charsum.poisson_check(3, MONIC, 30, 4.0, "mobius-half", budget=cost)
    with pytest.raises(BudgetExceededError) as exc_info:
        charsum.poisson_check(3, MONIC, 30, 4.0, "mobius-half", budget=cost - 1)
    assert_refused_over(exc_info, cost)


def test_sieve_check_refused_one_unit_over():
    phi = SmoothWeight.box_calibrated(3)
    radius = phi.lattice_radius(3, 1e-16)
    cost = (sum(contraction_cost(m, 3) for m in sieve.selberg_weights(4).pair_weights)
            + table_build_cost(2, 3) + table_build_cost(3, 3)
            + zpoly.box_cost(3, radius, True)[1])
    sieve.verify_modified_selberg(3, 3, 4, MONIC, phi=phi, budget=cost)
    with pytest.raises(BudgetExceededError) as exc_info:
        sieve.verify_modified_selberg(3, 3, 4, MONIC, phi=phi, budget=cost - 1)
    assert_refused_over(exc_info, cost)


def test_fourier_scan_refused_one_unit_over(tmp_path, capsys):
    cost = table_cost(7, 3, MONIC)
    argv = ["fourier-scan", "--p", "7", "--n", "3", "--out", str(tmp_path / "f.csv")]
    assert cli.main(argv + ["--budget", str(cost)]) == 0
    assert cli.main(argv + ["--budget", str(cost - 1)]) == 3
    err = capsys.readouterr().err
    got = REFUSAL.fullmatch(err.removeprefix("budget refusal: ").rstrip("\n"))
    assert (int(got[2]), int(got[3])) == (cost, cost - 1)


def test_library_admits_what_the_cli_admits():
    # the quartic monic box of height 30 (a square_disc_scan cost of
    # 221,533,456) was refused by the library's old default of 10^8
    cost = zpoly.box_cost(4, 30, True)[1]
    assert cost == 221_533_456 < DEFAULT_BUDGET
    zpoly._disc_blocks(4, 30, True, DEFAULT_BUDGET)  # returns a lazy walk
    # H = 52 is the last monic quartic box inside the one default
    assert zpoly.box_cost(4, 52, True)[1] <= DEFAULT_BUDGET < zpoly.box_cost(4, 53, True)[1]
    with pytest.raises(BudgetExceededError):
        almostprime.count_almost_prime(4, 53)
