"""Logical-to-physical qubit layouts."""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.exceptions import CompilationError

__all__ = ["Layout"]


class Layout:
    """A bijective map from logical (program) qubits to physical qubits.

    The router mutates a working copy as it inserts SWAPs; the final layout
    records where each logical qubit ends up at measurement time, which is
    what determines the readout error each measured bit experiences.
    """

    def __init__(self, mapping: Dict[int, int]) -> None:
        values = list(mapping.values())
        if len(set(values)) != len(values):
            raise CompilationError(f"layout is not injective: {mapping}")
        if any(q < 0 for q in list(mapping.keys()) + values):
            raise CompilationError("layout indices must be non-negative")
        self._logical_to_physical: Dict[int, int] = dict(mapping)
        self._physical_to_logical: Dict[int, int] = {
            p: l for l, p in mapping.items()
        }

    # ------------------------------------------------------------------

    @classmethod
    def trivial(cls, num_qubits: int) -> "Layout":
        """Identity layout on ``num_qubits`` qubits."""
        return cls({q: q for q in range(num_qubits)})

    def copy(self) -> "Layout":
        return Layout(dict(self._logical_to_physical))

    # ------------------------------------------------------------------

    def physical(self, logical: int) -> int:
        """Physical qubit currently hosting ``logical``."""
        try:
            return self._logical_to_physical[logical]
        except KeyError as exc:
            raise CompilationError(f"logical qubit {logical} not in layout") from exc

    def logical(self, physical: int) -> int:
        """Logical qubit currently on ``physical`` (KeyError-safe lookup)."""
        try:
            return self._physical_to_logical[physical]
        except KeyError as exc:
            raise CompilationError(
                f"physical qubit {physical} hosts no logical qubit"
            ) from exc

    @property
    def physical_qubits(self) -> Tuple[int, ...]:
        """All physical qubits in use, sorted."""
        return tuple(sorted(self._physical_to_logical))

    @property
    def logical_qubits(self) -> Tuple[int, ...]:
        return tuple(sorted(self._logical_to_physical))

    def as_dict(self) -> Dict[int, int]:
        """Copy of the logical -> physical mapping."""
        return dict(self._logical_to_physical)

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(sorted(self._logical_to_physical.items()))

    def __len__(self) -> int:
        return len(self._logical_to_physical)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Layout):
            return NotImplemented
        return self._logical_to_physical == other._logical_to_physical

    # ------------------------------------------------------------------

    def apply_swap(self, physical_a: int, physical_b: int) -> None:
        """Exchange the logical occupants of two physical qubits in place.

        Either side may be unoccupied (a SWAP with a free ancilla qubit).
        """
        occupant_a = self._physical_to_logical.pop(physical_a, None)
        occupant_b = self._physical_to_logical.pop(physical_b, None)
        if occupant_a is not None:
            self._physical_to_logical[physical_b] = occupant_a
            self._logical_to_physical[occupant_a] = physical_b
        if occupant_b is not None:
            self._physical_to_logical[physical_a] = occupant_b
            self._logical_to_physical[occupant_b] = physical_a

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{l}->{p}" for l, p in self.items())
        return f"Layout({inner})"
