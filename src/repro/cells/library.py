"""A small standard-cell library assembled from the transistor-level builders."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from ..exceptions import NetlistError
from ..technology.process import Technology, default_technology
from .builders import build_aoi21, build_inverter, build_nand, build_nor, build_oai21
from .cell import Cell

__all__ = ["CellLibrary", "default_library"]


@dataclass
class CellLibrary:
    """A named collection of cells sharing one technology.

    The library behaves like a mapping from cell name to :class:`Cell` and
    additionally knows how to create drive-strength variants on demand.
    """

    name: str
    technology: Technology
    cells: Dict[str, Cell] = field(default_factory=dict)

    def add(self, cell: Cell) -> Cell:
        if cell.name in self.cells:
            raise NetlistError(f"library {self.name!r} already contains a cell named {cell.name!r}")
        if cell.technology is not self.technology:
            # Different Technology objects with identical values are fine, but
            # mixing supplies would silently corrupt characterization.
            if abs(cell.technology.vdd - self.technology.vdd) > 1e-12:
                raise NetlistError(
                    f"cell {cell.name!r} was built for Vdd={cell.technology.vdd} V, "
                    f"library {self.name!r} uses {self.technology.vdd} V"
                )
        self.cells[cell.name] = cell
        return cell

    def __getitem__(self, name: str) -> Cell:
        try:
            return self.cells[name]
        except KeyError as exc:
            raise NetlistError(
                f"no cell named {name!r} in library {self.name!r}; "
                f"available: {sorted(self.cells)}"
            ) from exc

    def __contains__(self, name: str) -> bool:
        return name in self.cells

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells.values())

    def __len__(self) -> int:
        return len(self.cells)

    def names(self) -> List[str]:
        return sorted(self.cells)

    def get(self, name: str, default: Optional[Cell] = None) -> Optional[Cell]:
        return self.cells.get(name, default)

    # ------------------------------------------------------------------
    def cells_with_internal_nodes(self) -> List[Cell]:
        """Cells that have at least one stack node (MCSM is relevant for these)."""
        return [cell for cell in self.cells.values() if cell.internal_nodes]

    def summary(self) -> str:
        lines = [f"Library {self.name!r} ({self.technology.name}, Vdd={self.technology.vdd} V)"]
        for name in self.names():
            cell = self.cells[name]
            lines.append(
                f"  {name}: {cell.num_inputs} input(s), "
                f"{cell.transistor_count()} transistors, "
                f"{len(cell.internal_nodes)} internal node(s)"
            )
        return "\n".join(lines)


def default_library(
    technology: Optional[Technology] = None,
    drive_strengths: Sequence[float] = (1.0,),
    name: str = "repro130",
) -> CellLibrary:
    """Build the default library: INV, NAND2/3, NOR2/3, AOI21, OAI21.

    Parameters
    ----------
    technology:
        Technology to build for; defaults to the generic 130 nm definition.
    drive_strengths:
        Drive variants to generate for every cell type (1.0 -> ``_X1`` ...).
    """
    technology = technology or default_technology()
    library = CellLibrary(name=name, technology=technology)
    generators: List[Callable[[Technology, float], Cell]] = [
        lambda tech, drive: build_inverter(tech, drive),
        lambda tech, drive: build_nand(tech, 2, drive),
        lambda tech, drive: build_nand(tech, 3, drive),
        lambda tech, drive: build_nor(tech, 2, drive),
        lambda tech, drive: build_nor(tech, 3, drive),
        lambda tech, drive: build_aoi21(tech, drive),
        lambda tech, drive: build_oai21(tech, drive),
    ]
    for drive in drive_strengths:
        for generator in generators:
            library.add(generator(technology, drive))
    return library
