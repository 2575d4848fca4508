"""Gate-level netlist for the static timing layer.

The STA layer works on a structural netlist of library-cell instances
connected by nets.  It is deliberately small — enough to demonstrate how the
characterized current-source models plug into a waveform-propagating timing
engine and how MIS situations are detected — but it is a real netlist with
validation, fanout queries and topological ordering (via networkx).

Netlists are *editable*: :meth:`GateNetlist.swap_cell` (resize / functional
swap onto pin-compatible cells) and :meth:`GateNetlist.rewire_pin` mutate a
placed design in the way an ECO flow would.  Every mutation bumps
:attr:`GateNetlist.revision`, which is how the timing engines know to drop
their structural caches, and :func:`netlist_fingerprint` renders the design
as a canonical content tree (cell fingerprints + connectivity + wire caps)
for the content-addressed propagation cache — two netlists with equal
fingerprints time identically, however they were built or edited.

The three ECO edits (``swap_cell``, ``rewire_pin``, ``set_wire_capacitance``)
also write an *edit journal*: under the revision each creates, the seed
instances whose timing plan may change.  :meth:`GateNetlist.dirty_since`
turns the journal into the exact dirty region since an earlier revision (or
``None`` when a non-journaled mutation intervened), which is what lets an
engine re-key only that region, and :meth:`GateNetlist.content_digest`
re-renders only the instances the journal names.  Journaled edits also keep
the connectivity snapshot and the levelization current: a swap or a wire cap
leaves both as they are, and an input-pin rewire patches both in place, so
no edit pays for a whole-design rebuild.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

import networkx as nx
import numpy as np

from ..cells.library import CellLibrary
from ..exceptions import TimingError
from ..runtime.jobs import Rendered, canonical_json, cell_fingerprint, content_hash

__all__ = [
    "GateInstance",
    "GateNetlist",
    "NetConnectivity",
    "netlist_fingerprint",
    "swap_partner",
    "eco_swap_candidate",
    "NETLIST_DIGEST_SALT",
    "EDIT_JOURNAL_LIMIT",
]

#: The one salt every consumer digests a netlist revision under (the
#: server's request keys and its ``design_fingerprint`` replies), so
#: :meth:`GateNetlist.content_digest` hashes each revision once however
#: many of them ask.
NETLIST_DIGEST_SALT = "sta-netlist"

#: Revisions the edit journal remembers.  A consumer that last looked
#: further back than this gets "unknown" and rebuilds from scratch.
EDIT_JOURNAL_LIMIT = 1024


@dataclass(frozen=True)
class _Edit:
    """One journaled revision: the instances whose plan may change (the
    dirty region is their downstream closure) — named directly in
    ``seeds`` or as the drivers of the ``driven`` nets — the instance and
    wire-cap net whose digest fragments it invalidates, and the library it
    was made against.

    A net's driver only changes through a mutation the journal does not
    record, which makes every later query "unknown", so resolving
    ``driven`` when the journal is read names the same instances as
    resolving it when the edit was made.
    """

    seeds: FrozenSet[str]
    driven: Tuple[str, ...]
    instance: Optional[str]
    wire_net: Optional[str]
    library: CellLibrary


@dataclass
class _DigestFragments:
    """Rendered entries of one revision's :func:`netlist_fingerprint`
    (valid for :attr:`revision` and :attr:`library`)."""

    revision: int
    library: CellLibrary
    #: instance name -> its ``instances`` entry.
    instances: Dict[str, Rendered]
    #: net -> its ``wire_capacitance`` entry.
    wires: Dict[str, Rendered]
    #: cell name -> (cell object, its :func:`cell_fingerprint`).
    cells: Dict[str, Tuple[Any, Rendered]]


@dataclass
class GateInstance:
    """One placed library cell.

    Attributes
    ----------
    name:
        Instance name, unique in the netlist.
    cell_name:
        Name of the library cell this instance refers to.
    connections:
        Pin name -> net name, covering every input pin and the output pin.
    """

    name: str
    cell_name: str
    connections: Dict[str, str]


@dataclass
class NetConnectivity:
    """One-pass driver/receiver indexes over a :class:`GateNetlist`, CSR-first.

    ``driver_of``/``receivers_of`` on the netlist itself used to rescan every
    instance per query — fine for hand-built designs but quadratic when an
    engine asks for the load of every net of a 10^5-gate netlist.  This
    snapshot is built in a single pass and stored as flat arrays: a dense
    ``net_index`` plus CSR receiver arrays (``receiver_ptr`` and the aligned
    ``receiver_instances``/``receiver_pins``).  There is no dict-of-lists
    receiver map anymore; ``receivers_of`` is a CSR slice, so the whole
    connectivity of a large design is a handful of contiguous arrays.

    :attr:`revision` records the netlist revision the snapshot was built
    from; holders compare it against the live ``netlist.revision`` so an ECO
    edit can never be served stale receiver rows.  Snapshots built outside
    :meth:`of` carry ``-1`` (always stale).  The snapshot a netlist caches
    moves with it: an input-pin rewire patches it in place and stamps it
    with the new revision.
    """

    drivers: Dict[str, GateInstance]
    net_index: Dict[str, int]
    receiver_ptr: Any  # (num_nets + 1,) intp array
    receiver_instances: List[GateInstance]
    receiver_pins: List[str]
    revision: int = -1

    @classmethod
    def of(cls, netlist: "GateNetlist") -> "NetConnectivity":
        drivers: Dict[str, GateInstance] = {}
        sink_nets: List[str] = []
        sink_instances: List[GateInstance] = []
        sink_pins: List[str] = []
        for instance in netlist.instances.values():
            cell = netlist.library[instance.cell_name]
            output_net = instance.connections[cell.output]
            if output_net in drivers:
                raise TimingError(
                    f"net {output_net!r} has multiple drivers: "
                    f"{[drivers[output_net].name, instance.name]}"
                )
            drivers[output_net] = instance
            for pin in cell.inputs:
                sink_nets.append(instance.connections[pin])
                sink_instances.append(instance)
                sink_pins.append(pin)
        # Dense ids in sorted-name order, so two snapshots of equal netlists
        # agree; counting sort keeps per-net receiver order = insertion order.
        nets = sorted(set(drivers).union(sink_nets))
        net_index = {net: i for i, net in enumerate(nets)}
        counts = np.zeros(len(net_index) + 1, dtype=np.intp)
        sink_ids = [net_index[net] for net in sink_nets]
        for n in sink_ids:
            counts[n + 1] += 1
        ptr = np.cumsum(counts)
        cursor = ptr[:-1].copy()
        receiver_instances: List[GateInstance] = [None] * len(sink_ids)  # type: ignore[list-item]
        receiver_pins: List[str] = [""] * len(sink_ids)
        for n, instance, pin in zip(sink_ids, sink_instances, sink_pins):
            slot = int(cursor[n])
            cursor[n] += 1
            receiver_instances[slot] = instance
            receiver_pins[slot] = pin
        return cls(
            drivers=drivers,
            net_index=net_index,
            receiver_ptr=ptr,
            receiver_instances=receiver_instances,
            receiver_pins=receiver_pins,
            revision=netlist.revision,
        )

    def driver_of(self, net: str) -> Optional[GateInstance]:
        return self.drivers.get(net)

    def receivers_of(self, net: str) -> List[Tuple[GateInstance, str]]:
        start, stop = self.receiver_slice(net)
        return list(
            zip(self.receiver_instances[start:stop], self.receiver_pins[start:stop])
        )

    def receiver_slice(self, net: str) -> Tuple[int, int]:
        """``[start, stop)`` bounds of a net's receivers in the CSR arrays."""
        n = self.net_index.get(net)
        if n is None:
            return 0, 0
        ptr = self.receiver_ptr
        return int(ptr[n]), int(ptr[n + 1])


@dataclass
class GateNetlist:
    """A combinational gate-level netlist bound to a cell library.

    :attr:`revision` counts structural mutations (instances added, cells
    swapped, pins rewired, wire caps changed); consumers holding derived
    structures — connectivity indexes, levelizations, propagation fingerprints
    — compare it to decide whether their caches are still valid.
    """

    library: CellLibrary
    name: str = "design"
    instances: Dict[str, GateInstance] = field(default_factory=dict)
    primary_inputs: List[str] = field(default_factory=list)
    primary_outputs: List[str] = field(default_factory=list)
    net_wire_capacitance: Dict[str, float] = field(default_factory=dict)
    revision: int = 0
    _conn_cache: Optional[NetConnectivity] = field(
        default=None, repr=False, compare=False
    )
    #: salt -> (revision, library, digest) memo of :meth:`content_digest`.
    _digest_cache: Dict[str, Tuple[int, CellLibrary, str]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: The edit journal: revision -> what that edit touched, oldest first,
    #: at most :data:`EDIT_JOURNAL_LIMIT` entries.
    _journal: Dict[int, _Edit] = field(default_factory=dict, repr=False, compare=False)
    _fragments: Optional[_DigestFragments] = field(default=None, repr=False, compare=False)
    #: (revision, library, generations, instance name -> generation) memo
    #: of :meth:`topological_generations`.
    _levels_cache: Optional[
        Tuple[int, CellLibrary, List[List[GateInstance]], Dict[str, int]]
    ] = field(default=None, repr=False, compare=False)
    #: (revision, instance name -> insertion position) memo of
    #: :meth:`_positions`.
    _positions_cache: Optional[Tuple[int, Dict[str, int]]] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    def add_primary_input(self, net: str) -> str:
        if net not in self.primary_inputs:
            self.primary_inputs.append(net)
            self.revision += 1
        return net

    def add_primary_output(self, net: str) -> str:
        if net not in self.primary_outputs:
            self.primary_outputs.append(net)
            self.revision += 1
        return net

    def add_instance(
        self, name: str, cell_name: str, connections: Mapping[str, str]
    ) -> GateInstance:
        """Add a cell instance, validating its pin connections."""
        if name in self.instances:
            raise TimingError(f"duplicate instance name {name!r}")
        cell = self.library[cell_name]
        missing = [pin for pin in (*cell.inputs, cell.output) if pin not in connections]
        if missing:
            raise TimingError(f"instance {name!r} ({cell_name}): missing connections for {missing}")
        extra = [pin for pin in connections if pin not in (*cell.inputs, cell.output)]
        if extra:
            raise TimingError(f"instance {name!r} ({cell_name}): unknown pins {extra}")
        instance = GateInstance(name=name, cell_name=cell_name, connections=dict(connections))
        self.instances[name] = instance
        self.revision += 1
        return instance

    def set_wire_capacitance(self, net: str, capacitance: float) -> None:
        if capacitance < 0:
            raise TimingError("wire capacitance must be non-negative")
        self.net_wire_capacitance[net] = capacitance
        # The cap loads the net's driver.
        self._journal_edit((), driven=(net,), wire_net=net, same_structure=True)

    def _journal_edit(
        self,
        seeds: Iterable[str],
        driven: Tuple[str, ...] = (),
        instance: Optional[str] = None,
        wire_net: Optional[str] = None,
        same_structure: bool = False,
    ) -> None:
        """Bump the revision and journal the edit under it.

        ``same_structure`` edits keep the driver/receiver graph (a swap onto
        the same pins, a wire cap), so a connectivity snapshot and a
        levelization current before the edit stay current after it.  No
        journaled edit reorders the instances, so the position index stays
        current too.
        """
        previous = self.revision
        self.revision += 1
        journal = self._journal
        journal[self.revision] = _Edit(
            frozenset(seeds), driven, instance, wire_net, self.library
        )
        while len(journal) > EDIT_JOURNAL_LIMIT:
            del journal[next(iter(journal))]
        positions = self._positions_cache
        if positions is not None and positions[0] == previous:
            self._positions_cache = (self.revision, positions[1])
        if same_structure:
            if self._conn_cache is not None and self._conn_cache.revision == previous:
                self._conn_cache.revision = self.revision
            levels = self._levels_cache
            if levels is not None and levels[0] == previous and levels[1] is self.library:
                self._levels_cache = (self.revision, *levels[1:])

    def _edits_since(self, revision: int) -> Optional[List[_Edit]]:
        """The journaled edits after ``revision``, or ``None`` when any
        revision since was made by a non-journaled mutation (``add_*``, an
        output-pin rewire), has aged out of the journal or was made against
        another library."""
        if revision > self.revision:
            return None
        edits = []
        for number in range(revision + 1, self.revision + 1):
            edit = self._journal.get(number)
            if edit is None or edit.library is not self.library:
                return None
            edits.append(edit)
        return edits

    def dirty_since(self, revision: int) -> Optional[Set[str]]:
        """Every instance whose timing plan may differ from ``revision``'s.

        The union of the journaled edits' seeds since ``revision``, closed
        downstream over the current connectivity: an instance outside it
        has the same cell, connections, load and input content as it had
        then.  ``None`` means unknown (see :meth:`_edits_since`): re-key
        everything.
        """
        edits = self._edits_since(revision)
        if edits is None:
            return None
        if not edits:
            return set()
        connectivity = self.connectivity()
        seeds: Set[str] = set()
        for edit in edits:
            seeds |= edit.seeds
            for net in edit.driven:
                driver = connectivity.driver_of(net)
                if driver is not None:
                    seeds.add(driver.name)
        return self._downstream(seeds, connectivity)

    # ------------------------------------------------------------------
    # Serialization (wire transfer / private per-session copies)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready structural description (library referenced by name
        only — the receiver rebinds against its own :class:`CellLibrary`)."""
        return {
            "name": self.name,
            "primary_inputs": list(self.primary_inputs),
            "primary_outputs": list(self.primary_outputs),
            "instances": [
                [instance.name, instance.cell_name, dict(instance.connections)]
                for instance in self.instances.values()
            ],
            "wire_capacitance": {
                net: cap for net, cap in sorted(self.net_wire_capacitance.items())
            },
        }

    @classmethod
    def from_dict(cls, library: CellLibrary, data: Mapping[str, Any]) -> "GateNetlist":
        """Rebuild a netlist from :meth:`to_dict` output against ``library``.

        Pin connections are validated exactly like hand-built netlists, so a
        malformed payload raises :class:`TimingError` rather than producing a
        half-wired design.
        """
        netlist = cls(library=library, name=str(data.get("name", "design")))
        for net in data.get("primary_inputs", ()):
            netlist.add_primary_input(str(net))
        for name, cell_name, connections in data.get("instances", ()):
            netlist.add_instance(str(name), str(cell_name), dict(connections))
        for net in data.get("primary_outputs", ()):
            netlist.add_primary_output(str(net))
        for net, cap in (data.get("wire_capacitance") or {}).items():
            netlist.set_wire_capacitance(str(net), float(cap))
        return netlist

    def copy(self, name: Optional[str] = None) -> "GateNetlist":
        """A structurally independent duplicate (fresh ``revision`` counter);
        edits to the copy never touch the original — the isolation that keeps
        concurrent server sessions on the same design from conflicting."""
        duplicate = GateNetlist.from_dict(self.library, self.to_dict())
        if name is not None:
            duplicate.name = name
        return duplicate

    # ------------------------------------------------------------------
    # ECO-style edits
    # ------------------------------------------------------------------
    def swap_cell(self, instance_name: str, cell_name: str) -> GateInstance:
        """Replace an instance's cell with a pin-compatible library cell.

        This is the resize / functional-swap edit of an ECO flow: the new
        cell must expose the same input pin names and output pin name, so the
        existing connections stay valid.  Only the timing downstream of the
        instance (and the loads of its input nets' drivers) changes.
        """
        if instance_name not in self.instances:
            raise TimingError(f"no instance named {instance_name!r} in {self.name!r}")
        instance = self.instances[instance_name]
        old_cell = self.library[instance.cell_name]
        new_cell = self.library[cell_name]
        if tuple(new_cell.inputs) != tuple(old_cell.inputs) or new_cell.output != old_cell.output:
            raise TimingError(
                f"cannot swap {instance_name!r} from {instance.cell_name!r} to "
                f"{cell_name!r}: pin interfaces differ "
                f"({(*old_cell.inputs, old_cell.output)} vs {(*new_cell.inputs, new_cell.output)})"
            )
        if instance.cell_name != cell_name:
            instance.cell_name = cell_name
            # The new cell's input capacitances load the drivers of its nets.
            self._journal_edit(
                [instance_name],
                driven=tuple(instance.connections[pin] for pin in old_cell.inputs),
                instance=instance_name,
                same_structure=True,
            )
        return instance

    def rewire_pin(self, instance_name: str, pin: str, net: str) -> GateInstance:
        """Reconnect one pin of an instance to a different net.

        The edit is checked before it is applied, in time proportional to
        the instance's fan-out cone, and a :class:`TimingError` leaves the
        netlist untouched:

        * an input pin may move to a primary input or to a net driven
          outside the instance's fan-out cone (anything else would leave
          the pin undriven or close a combinational loop);
        * the output pin may only rename a net nothing else uses: the old
          net must have no receiver and be no primary port, the new net
          must have no driver, no receiver and be no primary port.

        So the inverse of an accepted rewire is accepted too, which is what
        lets a caller roll a batch of edits back through this method.

        Those checks also prove the edited design is still a well-formed
        DAG, so an accepted input-pin rewire patches a current connectivity
        snapshot and levelization in place (one receiver slot moves between
        two nets; the fan-out cone is re-levelled) instead of leaving them
        to a full rebuild and validation.
        """
        if instance_name not in self.instances:
            raise TimingError(f"no instance named {instance_name!r} in {self.name!r}")
        instance = self.instances[instance_name]
        cell = self.library[instance.cell_name]
        if pin not in (*cell.inputs, cell.output):
            raise TimingError(
                f"instance {instance_name!r} ({instance.cell_name}) has no pin {pin!r}"
            )
        previous = instance.connections[pin]
        if previous == net:
            return instance
        connectivity = self.connectivity()
        edit = f"rewiring {instance_name}.{pin} from {previous!r} to {net!r}"
        if pin == cell.output:
            if connectivity.driver_of(net) is not None or net in self.primary_inputs:
                raise TimingError(f"{edit}: the net is already driven")
            if _read(connectivity, net) or net in self.primary_outputs:
                raise TimingError(f"{edit}: the net already has readers")
            if _read(connectivity, previous) or previous in self.primary_outputs:
                raise TimingError(f"{edit} would leave {previous!r} undriven")
            if previous in self.primary_inputs:
                raise TimingError(f"{edit}: {previous!r} is a primary input")
            instance.connections[pin] = net
            self.revision += 1  # renames a driven net: not journaled
            return instance
        driver = connectivity.driver_of(net)
        if driver is None and net not in self.primary_inputs:
            raise TimingError(f"{edit}: the net has no driver and is not a primary input")
        cone = self._downstream([instance_name], connectivity)
        if driver is not None and driver.name in cone:
            raise TimingError(f"{edit} would close a combinational loop")
        # The pin's capacitance leaves the old driver's load for the new one's.
        seeds = [instance_name]
        for other in (connectivity.driver_of(previous), driver):
            if other is not None:
                seeds.append(other.name)
        levels = self._levels_cache
        relevel = levels is not None and levels[0] == self.revision and levels[1] is self.library
        instance.connections[pin] = net
        self._journal_edit(seeds, instance=instance_name)
        self._move_receiver(connectivity, instance, pin, previous, net)
        if relevel:
            self._relevel(cone, connectivity)
        return instance

    def _move_receiver(
        self,
        connectivity: NetConnectivity,
        instance: GateInstance,
        pin: str,
        old: str,
        new: str,
    ) -> None:
        """Move ``instance.pin``'s receiver slot from net ``old`` to net
        ``new`` in the snapshot, in place, and stamp it with the current
        revision.  The slot lands where a fresh build puts it (receivers in
        instance insertion order, then cell pin order) and a net enters or
        leaves the sorted net index exactly when a fresh build's net set
        changes, so the snapshot equals :meth:`NetConnectivity.of`."""
        instances, pins = connectivity.receiver_instances, connectivity.receiver_pins
        start, stop = connectivity.receiver_slice(old)
        slot = next(
            k for k in range(start, stop) if instances[k] is instance and pins[k] == pin
        )
        del instances[slot], pins[slot]
        connectivity.receiver_ptr[connectivity.net_index[old] + 1 :] -= 1
        if stop - start == 1 and old not in connectivity.drivers:
            _drop_net(connectivity, old)  # a primary input nobody reads now
        if new not in connectivity.net_index:
            _add_net(connectivity, new)  # a primary input nobody read before
        positions = self._positions()
        rank = (positions[instance.name], self.library[instance.cell_name].inputs.index(pin))
        start, stop = connectivity.receiver_slice(new)
        slot = start
        while slot < stop:
            other = instances[slot]
            other_pins = self.library[other.cell_name].inputs
            if (positions[other.name], other_pins.index(pins[slot])) > rank:
                break
            slot += 1
        instances.insert(slot, instance)
        pins.insert(slot, pin)
        connectivity.receiver_ptr[connectivity.net_index[new] + 1 :] += 1
        connectivity.revision = self.revision

    def _relevel(self, cone: Set[str], connectivity: NetConnectivity) -> None:
        """Re-level a rewired instance's fan-out ``cone`` in the memoized
        levelization, in place, and stamp it with the current revision.

        Only the cone's ancestry changed, so every other generation stands.
        The cone's own edges did not change, so its members in their old
        generation order are still a topological order to recompute them
        in.  A member keeps its insertion-order place inside its new level;
        levels the cone emptied can only trail (every member of a level
        above 0 has a fan-in in the level before), so they are dropped."""
        _, library, levels, level_of = self._levels_cache
        positions = self._positions()
        by_position = lambda instance: positions[instance.name]  # noqa: E731
        for name in sorted(cone, key=lambda name: (level_of[name], positions[name])):
            instance = self.instances[name]
            level = 0
            for input_pin in library[instance.cell_name].inputs:
                driver = connectivity.driver_of(instance.connections[input_pin])
                if driver is not None:
                    level = max(level, level_of[driver.name] + 1)
            old = level_of[name]
            if level == old:
                continue
            members = levels[old]
            del members[bisect.bisect_left(members, positions[name], key=by_position)]
            if level == len(levels):
                levels.append([])
            bisect.insort(levels[level], instance, key=by_position)
            level_of[name] = level
        while not levels[-1]:
            levels.pop()
        self._levels_cache = (self.revision, library, levels, level_of)

    def _positions(self) -> Dict[str, int]:
        """Instance name -> insertion position, memoized per revision."""
        cached = self._positions_cache
        if cached is None or cached[0] != self.revision:
            positions = {name: position for position, name in enumerate(self.instances)}
            cached = self._positions_cache = (self.revision, positions)
        return cached[1]

    def _in_order(self, names: Set[str]) -> List[str]:
        """``names`` in insertion order, in time proportional to their count."""
        return sorted(names, key=self._positions().__getitem__)

    def fanout_cone(self, instance_name: str) -> List[str]:
        """The instance and everything downstream of it, in insertion order
        (a breadth-first walk over the CSR receiver index)."""
        if instance_name not in self.instances:
            raise TimingError(f"no instance named {instance_name!r} in {self.name!r}")
        return self._in_order(self._downstream([instance_name], self.connectivity()))

    def fanin_cone(
        self, net: str, connectivity: Optional[NetConnectivity] = None
    ) -> List[str]:
        """Instances transitively driving ``net``, in insertion order.

        The fan-in cone of an endpoint is *closed*: every input net of a cone
        instance is either driven by another cone instance or is a primary
        input, so re-propagating exactly these instances from the
        primary-input stimuli reproduces the endpoint's signal exactly.
        ``connectivity`` accepts a prebuilt snapshot so per-endpoint scans
        don't rebuild the CSR index for every query.
        """
        if connectivity is None:
            connectivity = self.connectivity()
        if not (
            net in connectivity.net_index
            or net in self.primary_inputs
            or net in self.primary_outputs
        ):
            raise TimingError(f"no net named {net!r} in {self.name!r}")
        cone: Set[str] = set()
        visited = {net}
        frontier: Deque[str] = deque([net])
        while frontier:
            driver = connectivity.driver_of(frontier.popleft())
            if driver is None:
                continue  # primary input: the cone boundary
            cone.add(driver.name)
            cell = self.library[driver.cell_name]
            for pin in cell.inputs:
                upstream = driver.connections[pin]
                if upstream not in visited:
                    visited.add(upstream)
                    frontier.append(upstream)
        return self._in_order(cone)

    def affected_region(
        self,
        instance_name: str,
        connectivity: Optional[NetConnectivity] = None,
        graph: Optional["nx.DiGraph"] = None,
    ) -> List[str]:
        """The dirty region of an edit at ``instance_name``, in insertion order.

        An edit at an instance dirties more than its own fan-out cone: a cell
        swap (or a rewire) changes the instance's input capacitances, i.e. the
        *loads* of whatever drives its input nets — so the fan-out cones of
        those drivers are dirty too.  This is the exact upper bound on what an
        incremental re-timing re-integrates after a single-instance edit
        (evaluate it on the pre-edit netlist, and for rewires union it with
        the post-edit region, since old and new driver both change load).

        The fan-out cones come from one breadth-first walk over the CSR
        receiver index.  ``connectivity`` accepts a prebuilt snapshot so
        whole-design candidate scans build it once; ``graph`` is accepted for
        backward compatibility and ignored.
        """
        if instance_name not in self.instances:
            raise TimingError(f"no instance named {instance_name!r} in {self.name!r}")
        if connectivity is None:
            connectivity = self.connectivity()
        instance = self.instances[instance_name]
        cell = self.library[instance.cell_name]
        seeds = [instance_name]
        for pin in cell.inputs:
            driver = connectivity.driver_of(instance.connections[pin])
            if driver is not None:
                seeds.append(driver.name)
        return self._in_order(self._downstream(seeds, connectivity))

    def _downstream(self, seeds: Iterable[str], connectivity: NetConnectivity) -> Set[str]:
        """The seed instances plus everything their outputs reach."""
        reached = set(seeds)
        frontier = deque(reached)
        while frontier:
            instance = self.instances[frontier.popleft()]
            output = instance.connections[self.library[instance.cell_name].output]
            start, stop = connectivity.receiver_slice(output)
            for receiver in connectivity.receiver_instances[start:stop]:
                if receiver.name not in reached:
                    reached.add(receiver.name)
                    frontier.append(receiver.name)
        return reached

    # ------------------------------------------------------------------
    def nets(self) -> Set[str]:
        result: Set[str] = set(self.primary_inputs) | set(self.primary_outputs)
        for instance in self.instances.values():
            result.update(instance.connections.values())
        return result

    def driver_of(self, net: str) -> Optional[GateInstance]:
        """The instance whose output drives ``net`` (None for primary inputs)."""
        return self.connectivity().driver_of(net)

    def receivers_of(self, net: str) -> List[Tuple[GateInstance, str]]:
        """(instance, input pin) pairs whose input connects to ``net``."""
        return self.connectivity().receivers_of(net)

    def fanout_capacitance(self, net: str) -> float:
        """Structural load estimate of a net: receiver gate caps + wire cap."""
        total = self.net_wire_capacitance.get(net, 0.0)
        for instance, pin in self.receivers_of(net):
            cell = self.library[instance.cell_name]
            total += cell.pin_gate_capacitance(pin)
        return total

    def connectivity(self) -> NetConnectivity:
        """Driver/receiver CSR indexes (see :class:`NetConnectivity`).

        Cached per :attr:`revision`: repeated structural queries — every
        ``driver_of``/``receivers_of``/``fanout_capacitance`` call delegates
        here — cost one single-pass build per edit instead of a full rescan
        per query.  Journaled edits keep the snapshot (an input-pin rewire
        patches it in place); any other mutation rebuilds it.
        """
        cached = self._conn_cache
        if cached is None or cached.revision != self.revision:
            cached = NetConnectivity.of(self)
            self._conn_cache = cached
        return cached

    def content_digest(self, salt: str) -> str:
        """``content_hash(salt, netlist_fingerprint(self))``, memoized and
        assembled from rendered entries.

        Cached per :attr:`revision`, :attr:`library` object and salt the way
        :meth:`connectivity` is, so every consumer keying on the same
        revision (a server's ECO reply and the timing request after it)
        hashes the design once.  Reassigning
        :attr:`library` does not bump the revision but changes the cell
        fingerprints, hence the library identity in the memo.

        The fingerprint's instance, wire-cap and cell entries are kept as
        :class:`~repro.runtime.jobs.Rendered` texts, which hash exactly as
        the entries themselves.  After journaled edits only the entries
        they touched are re-rendered; any other mutation re-renders all of
        them from one :func:`netlist_fingerprint`.
        """
        revision, library = self.revision, self.library
        cached = self._digest_cache.get(salt)
        if cached is not None and cached[0] == revision and cached[1] is library:
            return cached[2]
        fragments = self._current_fragments()
        cells: Dict[str, Rendered] = {}
        for name in _cell_names(self):
            cell = library[name]
            entry = fragments.cells.get(name)
            if entry is None or entry[0] is not cell:
                entry = fragments.cells[name] = (cell, _rendered(cell_fingerprint(cell)))
            cells[name] = entry[1]
        tree = _fingerprint_tree(
            self,
            cells,
            [fragments.instances[name] for name in self.instances],
            [fragments.wires[net] for net in sorted(self.net_wire_capacitance)],
        )
        digest = content_hash(salt, tree)
        # Filed under the revision read *before* hashing: an edit racing the
        # fingerprint then bumps the revision past it instead of inheriting it.
        self._digest_cache[salt] = (revision, library, digest)
        return digest

    def _current_fragments(self) -> _DigestFragments:
        """The rendered entries brought up to :attr:`revision`: re-render
        what the journal says changed, or everything when it cannot say."""
        fragments = self._fragments
        edits = None
        if fragments is not None and fragments.library is self.library:
            edits = self._edits_since(fragments.revision)
        if edits is None:
            fingerprint = netlist_fingerprint(self)
            fragments = self._fragments = _DigestFragments(
                revision=self.revision,
                library=self.library,
                instances={entry[0]: _rendered(entry) for entry in fingerprint["instances"]},
                wires={entry[0]: _rendered(entry) for entry in fingerprint["wire_capacitance"]},
                cells={
                    name: (self.library[name], _rendered(tree))
                    for name, tree in fingerprint["cells"].items()
                },
            )
            return fragments
        for edit in edits:
            if edit.instance is not None:
                name = edit.instance
                fragments.instances[name] = _rendered(
                    _instance_entry(name, self.instances[name])
                )
            if edit.wire_net is not None:
                net = edit.wire_net
                fragments.wires[net] = _rendered((net, self.net_wire_capacitance[net]))
        fragments.revision = self.revision
        return fragments

    # ------------------------------------------------------------------
    def _validated_graph(self) -> "nx.DiGraph":
        """One connectivity pass: check well-formedness, return the DAG.

        Shared by :meth:`validate`, :meth:`topological_order` and
        :meth:`topological_generations` so a validated traversal costs a
        single structural scan instead of three.
        """
        connectivity = self.connectivity()
        for net in self.nets():
            if connectivity.driver_of(net) is None and net not in self.primary_inputs:
                raise TimingError(f"net {net!r} has no driver and is not a primary input")
        graph = self._instance_graph(connectivity)
        if not nx.is_directed_acyclic_graph(graph):
            cycle = nx.find_cycle(graph)
            raise TimingError(f"netlist contains a combinational loop: {cycle}")
        return graph

    def validate(self) -> None:
        """Check that the netlist is a well-formed combinational design."""
        self._validated_graph()

    def _instance_graph(self, connectivity: NetConnectivity) -> "nx.DiGraph":
        drivers = connectivity.drivers
        graph = nx.DiGraph()
        graph.add_nodes_from(self.instances)
        for instance in self.instances.values():
            cell = self.library[instance.cell_name]
            for pin in cell.inputs:
                driver = drivers.get(instance.connections[pin])
                if driver is not None:
                    graph.add_edge(driver.name, instance.name)
        return graph

    def instance_graph(self) -> "nx.DiGraph":
        """Directed graph of instance-to-instance dependencies."""
        return self._instance_graph(self.connectivity())

    def topological_order(self) -> List[GateInstance]:
        """Instances in evaluation order (drivers before receivers)."""
        order = nx.topological_sort(self._validated_graph())
        return [self.instances[name] for name in order]

    def topological_generations(self) -> List[List[GateInstance]]:
        """Levelization: lists of instances whose inputs are all resolved by
        the previous levels.  Every instance of a level can be evaluated
        independently — this is the unit of batching for the levelized timing
        engines.  Instance order inside a level follows insertion order, so
        the flattened generations are a valid topological order.

        Memoized per revision and library (a cell swap or a wire cap keeps
        the memo, an input-pin rewire patches it); every call returns fresh
        lists."""
        cached = self._levels_cache
        if cached is None or cached[0] != self.revision or cached[1] is not self.library:
            revision, library = self.revision, self.library
            graph = self._validated_graph()
            levels: List[List[GateInstance]] = []
            level_of: Dict[str, int] = {}
            for generation in nx.topological_generations(graph):
                names = self._in_order(generation)
                level_of.update((name, len(levels)) for name in names)
                levels.append([self.instances[name] for name in names])
            cached = self._levels_cache = (revision, library, levels, level_of)
        return [list(level) for level in cached[2]]

    def depth(self) -> int:
        """Length (in cells) of the longest topological path: the number of
        topological generations (whose memo it shares).  Like them, it
        raises :class:`TimingError` on a malformed design (an undriven net,
        a combinational loop)."""
        return len(self.topological_generations())


def swap_partner(library: CellLibrary, cell_name: str) -> Optional[str]:
    """A different library cell with the same pin interface, or ``None``.

    This is what makes a :meth:`GateNetlist.swap_cell` edit possible at an
    instance: the partner exposes identical input pin names and output pin
    name, so the instance's connections stay valid.
    """
    cell = library[cell_name]
    for other_name in library.names():
        if other_name == cell_name:
            continue
        other = library[other_name]
        if tuple(other.inputs) == tuple(cell.inputs) and other.output == cell.output:
            return other_name
    return None


def eco_swap_candidate(netlist: GateNetlist) -> Optional[Tuple[int, str, str]]:
    """Pick the cheapest single-instance cell swap for smoke tests/benches.

    Scans every instance for a pin-compatible partner cell and returns
    ``(affected_region_size, instance_name, partner_cell)`` minimizing the
    dirty region — the edit whose incremental re-timing should touch the
    least — or ``None`` when no instance has a partner or every region spans
    the whole design.  One connectivity index serves the whole scan.
    """
    connectivity = netlist.connectivity()
    best: Optional[Tuple[int, str, str]] = None
    for name, instance in netlist.instances.items():
        partner = swap_partner(netlist.library, instance.cell_name)
        if partner is None:
            continue
        region = len(netlist.affected_region(name, connectivity=connectivity))
        if region >= len(netlist.instances):
            continue
        if best is None or (region, name) < (best[0], best[1]):
            best = (region, name, partner)
    return best


def netlist_fingerprint(netlist: GateNetlist) -> Dict[str, Any]:
    """Canonical content identity of a gate netlist.

    Covers everything that determines a timing result besides the stimuli
    and the model/engine configuration: the fingerprint of every distinct
    cell type used (transistor topology, geometry, technology — so a
    process-corner or drive-strength change re-times), the instance
    connectivity, the primary ports, and the per-net wire capacitances.
    The netlist's display name is deliberately excluded: a renamed but
    otherwise identical design produces identical waveforms.

    The returned tree is made of primitives and dataclasses, ready for
    :func:`repro.runtime.jobs.content_hash`.
    """
    return _fingerprint_tree(
        netlist,
        {name: cell_fingerprint(netlist.library[name]) for name in _cell_names(netlist)},
        [_instance_entry(name, instance) for name, instance in netlist.instances.items()],
        sorted(netlist.net_wire_capacitance.items()),
    )


def _read(connectivity: NetConnectivity, net: str) -> bool:
    """Whether some instance reads ``net``."""
    start, stop = connectivity.receiver_slice(net)
    return stop > start


def _add_net(connectivity: NetConnectivity, net: str) -> None:
    """Give ``net`` an empty receiver slice at its sorted place."""
    nets = list(connectivity.net_index)
    n = bisect.bisect_left(nets, net)
    nets.insert(n, net)
    ptr = connectivity.receiver_ptr
    connectivity.receiver_ptr = np.insert(ptr, n, ptr[n])
    connectivity.net_index = {name: i for i, name in enumerate(nets)}


def _drop_net(connectivity: NetConnectivity, net: str) -> None:
    """Remove ``net``, whose receiver slice is empty, from the net index."""
    nets = list(connectivity.net_index)
    n = connectivity.net_index[net]
    del nets[n]
    connectivity.receiver_ptr = np.delete(connectivity.receiver_ptr, n)
    connectivity.net_index = {name: i for i, name in enumerate(nets)}


def _fingerprint_tree(
    netlist: GateNetlist, cells: Mapping[str, Any], instances: List[Any], wires: List[Any]
) -> Dict[str, Any]:
    """The layout of :func:`netlist_fingerprint` around its three large
    parts: the fingerprint of each used cell by name, the instance entries
    in insertion order and the ``(net, capacitance)`` entries sorted by
    net — each entry either itself or its :class:`Rendered` text."""
    return {
        "cells": cells,
        "instances": instances,
        "primary_inputs": list(netlist.primary_inputs),
        "primary_outputs": list(netlist.primary_outputs),
        "wire_capacitance": wires,
    }


def _cell_names(netlist: GateNetlist) -> List[str]:
    return sorted({instance.cell_name for instance in netlist.instances.values()})


def _instance_entry(name: str, instance: GateInstance) -> List[Any]:
    return [name, instance.cell_name, sorted(instance.connections.items())]


def _rendered(entry: Any) -> Rendered:
    return Rendered(canonical_json(entry))
