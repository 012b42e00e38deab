"""tools.perfgate: the gates' arithmetic and tables, with no timing."""

import ast
from pathlib import Path

import pytest

from tools import perfgate

REFERENCE_IMPLS = Path(__file__).resolve().parents[1] / "reference_impls.py"


def test_bound_from_split():
    assert perfgate.amdahl_bound(2.67, 3.43, 2) == pytest.approx(6.10 / 3.43)
    assert perfgate.amdahl_bound(3.43, 2.67, 4) == pytest.approx(6.10 / 3.43)
    assert perfgate.amdahl_bound(3.0, 3.0, 2) == 2.0


def test_bound_on_one_core():
    assert perfgate.amdahl_bound(2.67, 3.43, 1) == 1.0


@pytest.mark.parametrize(
    "floor",
    [f for f in perfgate.FLOORS.values() if f is not None]
    + [perfgate.POOL_FRACTION * perfgate.amdahl_bound(2.67, 3.43, 2)],
)
def test_ratio_against_its_floor(floor):
    assert not perfgate.passes(floor * (1 - 1e-9), floor)
    assert perfgate.passes(floor, floor)
    assert perfgate.passes(floor * (1 + 1e-9), floor)


def test_ungated_pair_never_fails():
    ungated = [name for name, floor in perfgate.FLOORS.items() if floor is None]
    assert ungated
    for ratio in (0.0, 0.5, 1.0, 100.0):
        assert perfgate.passes(ratio, None)


def test_floors_name_frozen_seed_kernels():
    defined = {
        node.name
        for node in ast.parse(REFERENCE_IMPLS.read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    assert set(perfgate.FLOORS) <= defined


def test_every_pair_has_a_floor_entry_and_runs():
    pairs = perfgate.kernel_pairs()
    assert set(pairs) == set(perfgate.FLOORS)
    for seed_call, shipped_call in (p[1:] for p in pairs.values()):
        seed_call()
        shipped_call()
