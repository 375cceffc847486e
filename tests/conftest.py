"""Fixtures shared by the mesh and CLI tests."""

import pytest

from spikenoc.noc import NocSim


@pytest.fixture
def starved_credits(monkeypatch):
    """Wire every input slot to return its credits to a throwaway counter,
    so no buffer the mesh fills ever frees up."""
    wire = NocSim._wire

    def starved_wire(self):
        wire(self)
        for router in self.routers:
            # an edge port has no feeder
            router.up = [up and ([0], [False], 0, up[3]) for up in router.up]

    monkeypatch.setattr(NocSim, "_wire", starved_wire)
