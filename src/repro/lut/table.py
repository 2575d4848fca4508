"""N-dimensional lookup tables with multilinear interpolation.

The paper stores the characterized current sources ``Io(V)`` / ``I_N(V)`` and
the parasitic capacitances as 4-D lookup tables over the node voltages.  This
module provides that data structure: an :class:`NDTable` over a list of
:class:`~repro.lut.grid.Axis` objects, evaluated with multilinear
interpolation and clamped extrapolation (the standard behaviour of
liberty-style characterization tables).

Interpolation is backed by a per-table corner-index cache: the ``2**N``
hypercube corner offsets into the flattened value array are enumerated once
per table, so neither the scalar :meth:`NDTable.evaluate` nor the batched
:meth:`NDTable.evaluate_batch` / :meth:`NDTable.evaluate_many` re-enumerates
corners per query.  The batch entry points take an ``(M, ndim)`` coordinate
array and bracket every axis with one vectorized ``np.searchsorted``;
``evaluate_batch`` (what the waveform integrator in :mod:`repro.csm.simulate`
builds on) agrees with the scalar call to rounding, ``evaluate_many`` (the
NLDM engine's arc evaluation) bitwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import TableError
from .grid import Axis

__all__ = [
    "NDTable",
    "tabulate",
    "contract_leading_shared",
    "contract_leading_spans",
]


class NDTable:
    """A dense N-dimensional table ``f(x_1, ..., x_N)``.

    Parameters
    ----------
    axes:
        Ordered axis definitions; the length of each axis must match the
        corresponding dimension of ``values``.
    values:
        N-dimensional array of samples.
    name:
        Optional label for error messages and reports.
    """

    __slots__ = (
        "axes",
        "values",
        "name",
        "_axis_arrays",
        "_flat_values",
        "_corner_bits",
        "_corner_offsets",
        "_strides",
    )

    def __init__(self, axes: Sequence[Axis], values: np.ndarray, name: str = ""):
        values = np.ascontiguousarray(values, dtype=float)
        if len(axes) == 0:
            raise TableError("a table needs at least one axis")
        if values.ndim != len(axes):
            raise TableError(
                f"table {name!r}: value array has {values.ndim} dimensions "
                f"but {len(axes)} axes were given"
            )
        for dim, axis in enumerate(axes):
            if values.shape[dim] != len(axis):
                raise TableError(
                    f"table {name!r}: axis {axis.name!r} has {len(axis)} points "
                    f"but values dimension {dim} has size {values.shape[dim]}"
                )
        if not np.all(np.isfinite(values)):
            raise TableError(f"table {name!r}: values contain NaN or infinity")
        self.axes = tuple(axes)
        self.values = values
        self.name = name

        # Per-table interpolation cache: the 2**N hypercube corner patterns
        # and their flat offsets into the (row-major) value array, enumerated
        # once here instead of per evaluation.
        ndim = len(self.axes)
        self._axis_arrays = tuple(axis.as_array() for axis in self.axes)
        self._strides = np.array(values.strides, dtype=np.intp) // values.itemsize
        self._flat_values = values.reshape(-1)
        self._corner_bits = np.array(
            list(itertools.product((0, 1), repeat=ndim)), dtype=np.intp
        )
        self._corner_offsets = self._corner_bits @ self._strides

    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(axis.name for axis in self.axes)

    def __repr__(self) -> str:
        dims = " x ".join(f"{axis.name}[{len(axis)}]" for axis in self.axes)
        return f"<NDTable {self.name!r}: {dims}>"

    # ------------------------------------------------------------------
    def evaluate(self, *coordinates: float) -> float:
        """Multilinear interpolation at the given coordinates (positional).

        Uses the precompiled corner-offset cache: the hypercube corner values
        are gathered with one flat fancy index and combined with the corner
        weights, instead of looping over an ``itertools.product`` per call.
        """
        if len(coordinates) != self.ndim:
            raise TableError(
                f"table {self.name!r} expects {self.ndim} coordinates, got {len(coordinates)}"
            )
        base = 0
        fractions = np.empty(self.ndim)
        for dim, (axis, value) in enumerate(zip(self.axes, coordinates)):
            low_index, fraction = axis.bracket(value)
            base += low_index * self._strides[dim]
            fractions[dim] = fraction
        weights = np.where(self._corner_bits, fractions, 1.0 - fractions).prod(axis=1)
        corners = self._flat_values[base + self._corner_offsets]
        return float(weights @ corners)

    def evaluate_batch(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized multilinear interpolation over many coordinate tuples.

        Parameters
        ----------
        coords:
            ``(M, ndim)`` array of query points (an ``(M,)`` array is accepted
            for one-dimensional tables).  Queries outside the axis ranges are
            clamped to the edges, exactly like :meth:`evaluate`.

        Returns
        -------
        ``(M,)`` array of interpolants.  They agree with :meth:`evaluate` to
        rounding, not bitwise: the corner reduction is an ``einsum``, whose
        summation order differs from the scalar dot product (by up to a few
        ulp).  :meth:`evaluate_many` is the bitwise batch twin.
        """
        weights, corners = self._batch_corners(coords)
        return np.einsum("mc,mc->m", weights, corners)

    def evaluate_many(self, coords: np.ndarray) -> np.ndarray:
        """:meth:`evaluate` at many points, bitwise.

        Same bracketing and corner weights as :meth:`evaluate_batch`, but the
        corner reduction is ``np.vecdot``, the same dot product
        :meth:`evaluate` takes per query, so every element equals the scalar
        call exactly.  The NLDM engine's level-batched arc evaluation builds
        on this.
        """
        weights, corners = self._batch_corners(coords)
        return np.vecdot(weights, corners)

    def out_of_range(self, coords: np.ndarray) -> np.ndarray:
        """``(M,)`` mask of the query rows that some axis clamps."""
        coords = np.asarray(coords, dtype=float).reshape(-1, self.ndim)
        outside = np.zeros(coords.shape[0], dtype=bool)
        for dim, points in enumerate(self._axis_arrays):
            outside |= (coords[:, dim] < points[0]) | (coords[:, dim] > points[-1])
        return outside

    def _batch_corners(self, coords: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(M, 2**N)`` corner weights and corner values of many queries."""
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1 and self.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2 or coords.shape[1] != self.ndim:
            raise TableError(
                f"table {self.name!r} expects an (M, {self.ndim}) coordinate array, "
                f"got shape {coords.shape}"
            )
        num_queries = coords.shape[0]
        base = np.zeros(num_queries, dtype=np.intp)
        fractions = np.empty((num_queries, self.ndim))
        for dim, points in enumerate(self._axis_arrays):
            clamped = np.clip(coords[:, dim], points[0], points[-1])
            low = np.searchsorted(points, clamped, side="right") - 1
            np.clip(low, 0, len(points) - 2, out=low)
            span = points[low + 1] - points[low]
            fractions[:, dim] = (clamped - points[low]) / span
            base += low * self._strides[dim]
        # (M, 2**N) corner weights: product over dimensions of frac / 1-frac.
        weights = np.where(
            self._corner_bits[None, :, :], fractions[:, None, :], 1.0 - fractions[:, None, :]
        ).prod(axis=2)
        corners = self._flat_values[base[:, None] + self._corner_offsets[None, :]]
        return weights, corners

    def contract_leading(self, coords: np.ndarray) -> np.ndarray:
        """Interpolate the leading axes away at per-row coordinates.

        ``coords`` is a ``(K, L)`` array with ``1 <= L < ndim``.  For each row
        ``k`` the first ``L`` axes are multilinearly interpolated (with the
        usual clamped extrapolation) at ``coords[k]``, leaving a reduced table
        over the remaining axes.  Returns shape ``(K, *shape[L:])``.

        The CSM integrator uses this to contract the input-pin axes of the
        ``Io``/``I_N`` tables for every time step in one vectorized pass,
        leaving only the recurrent state axes for the sequential loop.
        """
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2:
            raise TableError("contract_leading expects a (K, L) coordinate array")
        num_contracted = coords.shape[1]
        if not 1 <= num_contracted < self.ndim:
            raise TableError(
                f"table {self.name!r}: cannot contract {num_contracted} of "
                f"{self.ndim} axes (need 1 <= L < ndim)"
            )
        lows, fracs, rows = self._contract_weights(coords)
        return self._contract_apply(lows, fracs, rows)

    def __call__(self, *coordinates: float) -> float:
        return self.evaluate(*coordinates)

    def _contract_weights(
        self, coords: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bracket indices and weights for :meth:`contract_leading` queries."""
        num_rows, num_contracted = coords.shape
        lows = np.empty((num_rows, num_contracted), dtype=np.intp)
        fracs = np.empty((num_rows, num_contracted))
        for dim in range(num_contracted):
            points = self._axis_arrays[dim]
            clamped = np.clip(coords[:, dim], points[0], points[-1])
            low = np.searchsorted(points, clamped, side="right") - 1
            np.clip(low, 0, len(points) - 2, out=low)
            fracs[:, dim] = (clamped - points[low]) / (points[low + 1] - points[low])
            lows[:, dim] = low
        return lows, fracs, np.arange(num_rows)

    def _contract_apply(
        self, lows: np.ndarray, fracs: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """Apply precomputed bracket weights (see :meth:`_contract_weights`).

        The ``2**L`` corner blocks (each ``(rows, *tail)``) are gathered
        directly from a block-flattened view and combined axis by axis with
        the same weight arithmetic, in the same order, as a sequential
        one-axis-at-a-time reduction — bitwise the same result, without
        materializing the ``(rows, axis_len, *tail)`` intermediate of the
        first contracted axis (whose off-bracket elements the later axes
        would discard anyway).
        """
        num_rows, num_contracted = lows.shape
        shape = self.values.shape
        tail_shape = shape[num_contracted:]
        tail_ones = (1,) * len(tail_shape)
        strides = [1] * num_contracted
        for dim in range(num_contracted - 2, -1, -1):
            strides[dim] = strides[dim + 1] * shape[dim + 1]
        blocks = self.values.reshape((-1,) + tail_shape)
        base = lows[:, 0] * strides[0]
        for dim in range(1, num_contracted):
            base = base + lows[:, dim] * strides[dim]
        partial = {
            bits: blocks[base + sum(b * s for b, s in zip(bits, strides))]
            for bits in itertools.product((0, 1), repeat=num_contracted)
        }
        for dim in range(num_contracted):
            high_weight = fracs[:, dim].reshape((num_rows,) + tail_ones)
            low_weight = 1.0 - high_weight
            partial = {
                rest: partial[(0,) + rest] * low_weight + partial[(1,) + rest] * high_weight
                for rest in itertools.product((0, 1), repeat=num_contracted - dim - 1)
            }
        return partial[()]

    def evaluate_dict(self, coordinates: Mapping[str, float]) -> float:
        """Interpolate using axis names as keys."""
        try:
            ordered = [coordinates[name] for name in self.axis_names]
        except KeyError as exc:
            raise TableError(
                f"table {self.name!r} requires coordinates {self.axis_names}, "
                f"got {tuple(coordinates)}"
            ) from exc
        return self.evaluate(*ordered)

    def gradient(
        self, *coordinates: float, step: Optional[float] = None
    ) -> Tuple[float, ...]:
        """Central-difference gradient with respect to each coordinate.

        By default the finite-difference step is chosen *per dimension* as a
        small fraction (1e-3) of that axis's span, so tables whose axes live
        at very different scales (volts next to picoseconds or femtofarads)
        are all probed at a sensible resolution.  Pass ``step`` to force one
        explicit step size for every dimension instead.
        """
        grads = []
        for dim, axis in enumerate(self.axes):
            dim_step = step if step is not None else 1e-3 * (axis.upper - axis.lower)
            forward = list(coordinates)
            backward = list(coordinates)
            forward[dim] += dim_step
            backward[dim] -= dim_step
            grads.append((self.evaluate(*forward) - self.evaluate(*backward)) / (2 * dim_step))
        return tuple(grads)

    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "NDTable":
        return NDTable(self.axes, self.values * factor, name=self.name)

    def shifted(self, offset: float) -> "NDTable":
        return NDTable(self.axes, self.values + offset, name=self.name)

    def minimum(self) -> float:
        return float(self.values.min())

    def maximum(self) -> float:
        return float(self.values.max())

    def mean(self) -> float:
        return float(self.values.mean())

    def reduce_mean(self) -> float:
        """Collapse the whole table to its average value.

        The paper stores an *average* capacitance over the characterization
        ramp slopes; this helper provides that reduction.
        """
        return self.mean()

    def slice(self, axis_name: str, value: float) -> "NDTable":
        """Fix one axis at ``value`` (nearest-neighbour) and drop it."""
        if self.ndim == 1:
            raise TableError("cannot slice a one-dimensional table")
        if axis_name not in self.axis_names:
            raise TableError(f"table {self.name!r} has no axis {axis_name!r}")
        dim = self.axis_names.index(axis_name)
        axis = self.axes[dim]
        nearest = int(np.argmin(np.abs(axis.as_array() - value)))
        taken = np.take(self.values, nearest, axis=dim)
        remaining = tuple(a for i, a in enumerate(self.axes) if i != dim)
        return NDTable(remaining, taken, name=f"{self.name}[{axis_name}={axis.points[nearest]:g}]")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serializable representation (used by :mod:`repro.lut.io`)."""
        return {
            "name": self.name,
            "axes": [{"name": a.name, "points": list(a.points)} for a in self.axes],
            "values": self.values.tolist(),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "NDTable":
        axes = [Axis(name=a["name"], points=tuple(a["points"])) for a in data["axes"]]
        return cls(axes, np.asarray(data["values"], dtype=float), name=data.get("name", ""))


def contract_leading_shared(
    tables: Sequence[NDTable], coords: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """:meth:`NDTable.contract_leading` over several same-axes tables.

    The bracket indices and interpolation weights of the contracted axes are
    computed once and applied to every table, which is how the model
    integrator contracts its ``Io``/``I_N`` pair (identical axes, identical
    per-step query points) without paying for the bracketing twice.  All
    tables must share the leading (contracted) axes of the first table.
    """
    if not tables:
        return ()
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2:
        raise TableError("contract_leading_shared expects a (K, L) coordinate array")
    first = tables[0]
    num_contracted = coords.shape[1]
    if not 1 <= num_contracted < first.ndim:
        raise TableError(
            f"table {first.name!r}: cannot contract {num_contracted} of "
            f"{first.ndim} axes (need 1 <= L < ndim)"
        )
    leading = first.axes[:num_contracted]
    for table in tables[1:]:
        if table.ndim != first.ndim or table.axes[:num_contracted] != leading:
            raise TableError(
                "contract_leading_shared requires identical leading axes "
                f"({first.name!r} vs {table.name!r})"
            )
    lows, fracs, rows = first._contract_weights(coords)
    return tuple(table._contract_apply(lows, fracs, rows) for table in tables)


def contract_leading_spans(
    table_groups: Sequence[Tuple[NDTable, ...]],
    coords: np.ndarray,
    spans: Sequence[Tuple[int, int]],
    chunk: Optional[int] = None,
) -> Tuple[np.ndarray, ...]:
    """Shared-bracket :meth:`NDTable.contract_leading` over span-partitioned rows.

    ``coords`` is one ``(K, L)`` query array partitioned into contiguous row
    spans: rows ``spans[g] = (start, stop)`` belong to table group
    ``table_groups[g]`` (a tuple of one or more tables, same arity for every
    group).  All tables of all groups must share value-equal leading axes and
    per-position value shapes, so the bracket indices and weights of a chunk
    of rows are computed *once* (from the first table) and applied to each
    span's own tables.  This is how the MMMC precompute folds the corner
    dimension into one contraction pass: corners of the same cell have
    distinct (corner-scaled) value grids but identical axes, so their lookup
    rows batch through one vectorized bracketing.

    ``chunk`` bounds the per-step temporaries (``None`` processes all rows at
    once).  Chunk boundaries do not affect the result — every operation is
    per-row — and each row's output is bitwise identical to
    ``group[pos].contract_leading(coords[start:stop])``.

    Returns one ``(K, *tail)`` array per table *position* (e.g. the fused
    ``Io`` rows and, for internal-node models, the fused ``I_N`` rows).
    """
    if not table_groups:
        return ()
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2:
        raise TableError("contract_leading_spans expects a (K, L) coordinate array")
    total, num_contracted = coords.shape
    arity = len(table_groups[0])
    if arity == 0:
        raise TableError("contract_leading_spans needs at least one table per group")
    first = table_groups[0][0]
    if not 1 <= num_contracted < first.ndim:
        raise TableError(
            f"table {first.name!r}: cannot contract {num_contracted} of "
            f"{first.ndim} axes (need 1 <= L < ndim)"
        )
    # Bracket indices and weights depend only on the axis *points*; axis
    # names may differ (e.g. per-cell pin labels on one shared voltage grid).
    leading = tuple(axis.points for axis in first.axes[:num_contracted])
    for group in table_groups:
        if len(group) != arity:
            raise TableError(
                "contract_leading_spans requires the same table arity in every group"
            )
        for position, table in enumerate(group):
            if (
                table.ndim != first.ndim
                or tuple(axis.points for axis in table.axes[:num_contracted]) != leading
            ):
                raise TableError(
                    "contract_leading_spans requires value-equal leading axes "
                    f"({first.name!r} vs {table.name!r})"
                )
            reference = table_groups[0][position]
            if table.values.shape[num_contracted:] != reference.values.shape[num_contracted:]:
                raise TableError(
                    "contract_leading_spans requires matching trailing shapes "
                    f"({reference.name!r} vs {table.name!r})"
                )
    if len(spans) != len(table_groups):
        raise TableError("contract_leading_spans needs one span per table group")
    cursor = 0
    for start, stop in spans:
        if start != cursor or stop < start:
            raise TableError(
                f"spans must partition the coordinate rows contiguously, got {spans}"
            )
        cursor = stop
    if cursor != total:
        raise TableError(
            f"spans cover {cursor} rows but coords has {total}"
        )
    outs = tuple(
        np.empty((total,) + table_groups[0][position].values.shape[num_contracted:])
        for position in range(arity)
    )
    # One value array per table position, all groups' blocks stacked end to
    # end, plus a per-row offset selecting the owning group's block range.
    # A chunk then needs ONE gather-and-lerp pass per position instead of one
    # per (group, position): per-chunk overhead stays flat as MMMC fuses more
    # corners into the batch.  Every gather and weight op is per-row, so each
    # row's output is bitwise the per-group ``_contract_apply`` result.
    shape = first.values.shape
    blocks_per_table = 1
    for extent in shape[:num_contracted]:
        blocks_per_table *= extent
    stacked = []
    for position in range(arity):
        views = [
            group[position].values.reshape((-1,) + group[position].values.shape[num_contracted:])
            for group in table_groups
        ]
        stacked.append(views[0] if len(views) == 1 else np.concatenate(views, axis=0))
    row_offsets = np.empty(total, dtype=np.intp)
    for index, (start, stop) in enumerate(spans):
        row_offsets[start:stop] = index * blocks_per_table
    strides = [1] * num_contracted
    for dim in range(num_contracted - 2, -1, -1):
        strides[dim] = strides[dim + 1] * shape[dim + 1]

    step = int(chunk) if chunk else max(total, 1)
    for chunk_start in range(0, total, step):
        chunk_stop = min(chunk_start + step, total)
        lows, fracs, _ = first._contract_weights(coords[chunk_start:chunk_stop])
        num_rows = chunk_stop - chunk_start
        base = lows[:, 0] * strides[0]
        for dim in range(1, num_contracted):
            base = base + lows[:, dim] * strides[dim]
        base = base + row_offsets[chunk_start:chunk_stop]
        for position in range(arity):
            blocks = stacked[position]
            tail_ones = (1,) * (blocks.ndim - 1)
            partial = {
                bits: blocks[base + sum(b * s for b, s in zip(bits, strides))]
                for bits in itertools.product((0, 1), repeat=num_contracted)
            }
            for dim in range(num_contracted):
                high_weight = fracs[:, dim].reshape((num_rows,) + tail_ones)
                low_weight = 1.0 - high_weight
                partial = {
                    rest: partial[(0,) + rest] * low_weight
                    + partial[(1,) + rest] * high_weight
                    for rest in itertools.product((0, 1), repeat=num_contracted - dim - 1)
                }
            outs[position][chunk_start:chunk_stop] = partial[()]
    return outs


def tabulate(
    function: Callable[..., float],
    axes: Sequence[Axis],
    name: str = "",
    vectorized: bool = False,
) -> NDTable:
    """Sample a callable over the cartesian product of the axes.

    ``function`` is called with one positional argument per axis, in axis
    order.  This is the workhorse used by the characterization procedures to
    turn "measure the current at this bias point" routines into tables.

    When ``vectorized`` is true the function is called *once* with one
    broadcastable coordinate array per axis (``np.meshgrid(..., indexing='ij')``
    style) and must return the full value grid — the sampling analogue of
    :meth:`NDTable.evaluate_batch`.
    """
    shape = tuple(len(axis) for axis in axes)
    if vectorized:
        grids = np.meshgrid(*(axis.as_array() for axis in axes), indexing="ij")
        values = np.asarray(function(*grids), dtype=float)
        if values.shape != shape:
            raise TableError(
                f"vectorized tabulate for {name!r}: function returned shape "
                f"{values.shape}, expected {shape}"
            )
        return NDTable(axes, values, name=name)
    values = np.empty(shape, dtype=float)
    for index in itertools.product(*(range(len(axis)) for axis in axes)):
        coords = [axis.points[i] for axis, i in zip(axes, index)]
        values[index] = function(*coords)
    return NDTable(axes, values, name=name)
