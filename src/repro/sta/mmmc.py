"""Multi-mode multi-corner (MMMC) timing: corner sets and merged results.

A process corner is just another characterized library.  A
:class:`CornerSet` bundles every requested corner's cornered technology, cell
library and :class:`~repro.sta.models.TimingModelLibrary` into one object the
engines accept directly (``CSMEngine(..., corners=...)``); the engine then
runs each corner as an ordinary single-corner run, one after another, with
its keys scoped to the corner.

Both engines return one :class:`MulticornerResult`: per-corner result
objects (each exactly what a single-corner run of that corner produces),
plus the cross-corner merges an MMMC flow reports — worst arrival per net
and worst slack against a required time, each annotated with the corner that
sets it.

The standard five-point corner spread keeps the nominal supply
(``vdd_scale == 1.0``): every corner is driven by the design's stimuli and
switching thresholds.  Corners that scale the supply are rejected by the
CSM engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..cells.library import CellLibrary, default_library
from ..exceptions import TimingError
from ..technology.corners import STANDARD_CORNERS, Corner, apply_corner
from ..technology.process import Technology, default_technology

__all__ = [
    "CornerContext",
    "CornerSet",
    "MulticornerResult",
    "required_time",
]

_MISSING = object()


def required_time(
    required: Union[float, Mapping[str, float]],
    net: str,
    default: Optional[float] = None,
) -> float:
    """Resolve one net's required time from a scalar or a per-net mapping.

    These are the merge semantics every slack ranking shares (the MMMC
    ``worst_slacks`` merge and the hybrid engine's endpoint ranking): a
    scalar applies to every net, a mapping is consulted per net.  A mapping
    that lacks ``net`` falls back to ``default`` when one is given and raises
    a descriptive :class:`TimingError` naming the net otherwise.
    """
    if isinstance(required, Mapping):
        bound = required.get(net, _MISSING)
        if bound is _MISSING:
            if default is not None:
                return float(default)
            raise TimingError(
                f"per-net required-time mapping has no entry for net {net!r} "
                "and no default= fallback was given "
                f"(mapping covers {len(required)} net(s))"
            )
        return float(bound)
    return float(required)


@dataclass
class CornerContext:
    """Everything one corner contributes to an MMMC run."""

    name: str
    corner: Corner
    technology: Technology
    library: CellLibrary
    models: "object"  # TimingModelLibrary (kept untyped to avoid an import cycle)


class CornerSet:
    """An ordered, named set of corner contexts for one MMMC run.

    Build one with :meth:`from_names` (the standard five-point corners) or
    directly from prepared :class:`CornerContext` objects.  Order matters:
    corners run in it, and it is the order of every per-corner result map.
    """

    def __init__(self, contexts: Sequence[CornerContext]):
        contexts = list(contexts)
        if not contexts:
            raise TimingError("a CornerSet needs at least one corner")
        names = [context.name for context in contexts]
        if len(set(names)) != len(names):
            raise TimingError(f"corner names must be unique, got {names}")
        self.contexts = contexts
        self._by_name: Dict[str, CornerContext] = {c.name: c for c in contexts}

    @classmethod
    def from_names(
        cls,
        names: Sequence[str],
        technology: Optional[Technology] = None,
        config=None,
        executor=None,
        cache=None,
        use_internal_node: bool = True,
    ) -> "CornerSet":
        """Corner contexts for standard corner names over one base technology.

        Every corner applies its shifts to ``technology`` (the default one
        when omitted), builds the cornered default cell library and wraps it
        in a :class:`~repro.sta.models.TimingModelLibrary` sharing the given
        ``executor``/``cache`` — characterizations of all corners run as one
        content-addressed job population against one store.
        """
        from .models import TimingModelLibrary

        technology = technology if technology is not None else default_technology()
        contexts: List[CornerContext] = []
        for name in names:
            if name not in STANDARD_CORNERS:
                raise TimingError(
                    f"unknown corner {name!r}; available: {sorted(STANDARD_CORNERS)}"
                )
            corner = STANDARD_CORNERS[name]
            cornered = apply_corner(technology, corner)
            library = default_library(cornered)
            kwargs = {} if config is None else {"config": config}
            models = TimingModelLibrary(
                library=library,
                use_internal_node=use_internal_node,
                executor=executor,
                cache=cache,
                **kwargs,
            )
            contexts.append(
                CornerContext(
                    name=name,
                    corner=corner,
                    technology=cornered,
                    library=library,
                    models=models,
                )
            )
        return cls(contexts)

    # ------------------------------------------------------------------
    @property
    def names(self) -> List[str]:
        return [context.name for context in self.contexts]

    @property
    def reference(self) -> CornerContext:
        """The delta-reference corner: ``TT`` when present, else the first."""
        return self._by_name.get("TT", self.contexts[0])

    def __len__(self) -> int:
        return len(self.contexts)

    def __iter__(self) -> Iterator[CornerContext]:
        return iter(self.contexts)

    def __getitem__(self, name: str) -> CornerContext:
        try:
            return self._by_name[name]
        except KeyError:
            raise TimingError(
                f"corner {name!r} is not in this CornerSet ({self.names})"
            ) from None


@dataclass
class MulticornerResult:
    """One MMMC run's per-corner results plus the worst-case merge.

    ``results[name]`` is exactly the result a single-corner run of that
    corner produces (CSM or NLDM); the merges read only its ``nets()`` and
    ``arrival(net)``, which raises :class:`TimingError` for nets that never
    switch.  :attr:`stats` is each corner's own propagation accounting.
    """

    results: Dict[str, Any]
    corner_order: List[str]
    netlist_name: str

    @property
    def stats(self) -> Dict[str, Optional[Dict[str, int]]]:
        return {name: self.results[name].stats for name in self.corner_order}

    def result(self, corner: str):
        try:
            return self.results[corner]
        except KeyError:
            raise TimingError(
                f"no result for corner {corner!r} (have {self.corner_order})"
            ) from None

    def nets(self) -> List[str]:
        """Every net some corner propagated, in first-seen order."""
        seen: Dict[str, None] = {}
        for name in self.corner_order:
            for net in self.results[name].nets():
                seen.setdefault(net, None)
        return list(seen)

    def arrival(self, net: str, corner: Optional[str] = None) -> float:
        """A net's arrival: one corner's, or the worst across all corners."""
        if corner is not None:
            return self.result(corner).arrival(net)
        return self.worst_arrival(net)[1]

    def worst_arrival(self, net: str) -> Tuple[str, float]:
        """``(corner, arrival)`` of the latest arrival across the corners."""
        worst: Optional[Tuple[str, float]] = None
        for name in self.corner_order:
            try:
                arrival = self.results[name].arrival(net)
            except TimingError:
                continue  # never switches at this corner
            if worst is None or arrival > worst[1]:
                worst = (name, arrival)
        if worst is None:
            # Distinguish "you asked about a net no corner knows" from "the
            # net exists but is stable everywhere" — both used to claim the
            # latter, sending users hunting for a stability bug on a typo.
            if net not in self.nets():
                raise TimingError(
                    f"unknown net {net!r}: no corner propagated it "
                    f"(corners: {self.corner_order})"
                )
            raise TimingError(f"net {net!r} never switches at any corner")
        return worst

    def worst_arrivals(
        self, nets: Optional[Sequence[str]] = None
    ) -> Dict[str, Optional[Tuple[str, float]]]:
        """Per-net worst arrival map (``None`` for never-switching nets)."""
        merged: Dict[str, Optional[Tuple[str, float]]] = {}
        for net in nets if nets is not None else self.nets():
            try:
                merged[net] = self.worst_arrival(net)
            except TimingError:
                merged[net] = None
        return merged

    def worst_slacks(
        self,
        required: Union[float, Mapping[str, float]],
        nets: Optional[Sequence[str]] = None,
        default: Optional[float] = None,
    ) -> Dict[str, Optional[Tuple[str, float]]]:
        """The MMMC merge: per net the *minimum* slack over all corners.

        ``required`` is one required time for every net or a per-net mapping;
        slack is ``required - arrival``, so the corner with the latest arrival
        sets it.  A mapping missing a net uses ``default`` when given and
        raises a :class:`TimingError` naming the net otherwise (this used to
        escape as a bare ``KeyError``).  Returns ``net -> (corner, slack)``
        (``None`` when no corner ever switches the net).
        """
        slacks: Dict[str, Optional[Tuple[str, float]]] = {}
        for net, worst in self.worst_arrivals(nets).items():
            if worst is None:
                slacks[net] = None
                continue
            corner, arrival = worst
            slacks[net] = (corner, required_time(required, net, default) - arrival)
        return slacks

    def report(self) -> str:
        lines = [
            f"Multi-corner timing report for {self.netlist_name!r} "
            f"(corners: {', '.join(self.corner_order)})"
        ]
        for net, worst in self.worst_arrivals().items():
            if worst is None:
                lines.append(f"  net {net:<12} never switches at any corner")
            else:
                corner, arrival = worst
                lines.append(
                    f"  net {net:<12} worst arrival {arrival * 1e12:9.2f} ps  ({corner})"
                )
        return "\n".join(lines)
