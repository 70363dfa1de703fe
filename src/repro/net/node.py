"""Base class shared by switches and hosts."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Port
    from repro.sim.engine import Scheduler

__all__ = ["Node"]


class Node:
    """A network element with numbered ports.

    Subclasses implement :meth:`receive`, invoked by the peer port when a
    packet has fully arrived (store-and-forward).
    """

    is_host = False

    def __init__(self, node_id: int, name: str, scheduler: "Scheduler") -> None:
        self.node_id = node_id
        self.name = name
        self.scheduler = scheduler
        self.ports: list["Port"] = []

    def add_port(self, port: "Port") -> int:
        """Attach ``port`` and return its index."""
        self.ports.append(port)
        return len(self.ports) - 1

    def port_wired(self, port: "Port") -> None:
        """Called when ``port``, one of this node's, is wired to its peer;
        nodes that precompute views of their ports update them here."""

    def receive(self, pkt: Packet, in_port: int) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} ports={len(self.ports)}>"
