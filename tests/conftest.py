"""Fixtures shared by the mesh and CLI tests."""

import pytest

from spikenoc.noc import NocSim


def _starve(sim: NocSim) -> None:
    """Point every input slot's credit return at a throwaway counter, so no
    buffer the mesh fills from now on ever frees up."""
    for router in sim.routers:
        # an edge port has no feeder
        router.up = [up and ([0], [False], 0, up[3]) for up in router.up]


@pytest.fixture
def starve():
    """``starve(sim)`` stops ``sim`` freeing any buffer it fills later."""
    return _starve


@pytest.fixture
def starved_credits(monkeypatch):
    """Wire every mesh so that no buffer it fills ever frees up."""
    wire = NocSim._wire

    def starved_wire(self):
        wire(self)
        _starve(self)

    monkeypatch.setattr(NocSim, "_wire", starved_wire)
