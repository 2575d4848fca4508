"""Property-based round-trip tests for the result-store codec (PR 5).

One payload strategy covers every registered payload type — raw arrays
(including zero-length and non-contiguous ones), ``NDTable``, the CSM model
dataclasses, ``NLDMTable``, ``Waveform``, timing results and event tuples —
and the packed store in each of its regimes (inline-only, data-file-only,
mixed).  Whatever goes
in must come out bitwise identical.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.characterization.nldm import NLDMTable
from repro.csm.base import ModelSimulationResult
from repro.csm.models import MCSM, BaselineMISCSM, SISCSM
from repro.lut.grid import Axis
from repro.lut.table import NDTable
from repro.runtime import PackedStore
from repro.runtime.cache import decode_payload, encode_payload
from repro.sta import NLDMTimingResult, TimingEvent, WaveformTimingResult
from repro.sta.mmmc import MulticornerNLDMResult
from repro.waveform import Waveform

_KEYS = (f"{i:064x}" for i in itertools.count())

#: Backend name -> factory(tmp_path) building a store under test.
BACKENDS = {
    "packed": lambda path: PackedStore(path),
    "packed-inline-all": lambda path: PackedStore(path, inline_limit=1 << 30),
    "packed-inline-none": lambda path: PackedStore(path, inline_limit=0),
}


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x7F),
    min_size=0,
    max_size=8,
)


@st.composite
def ndarrays(draw):
    """Arrays over the dtypes the payloads use, in assorted memory layouts:
    contiguous, strided (``[::2]``), transposed, and zero-length."""
    dtype = draw(
        st.sampled_from(
            [np.float64, np.float32, np.int64, np.int32, np.bool_, np.complex128]
        )
    )
    shape = draw(
        st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=3)
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    # np.asarray keeps 0-d shapes as 0-d *arrays* (ufuncs collapse them to
    # numpy scalars, which the codec intentionally normalizes to python).
    array = np.asarray((rng.uniform(-10, 10, size=shape) * 100)).astype(dtype)
    layout = draw(st.sampled_from(["c", "strided", "transposed"]))
    if layout == "strided" and array.ndim >= 1 and array.shape[0] > 1:
        array = array[::2]
    elif layout == "transposed" and array.ndim >= 2:
        array = array.T
    return array


@st.composite
def waveforms(draw):
    samples = draw(st.integers(min_value=2, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    times = np.sort(rng.uniform(0.0, 1e-9, size=samples))
    return Waveform(times, rng.normal(size=samples), name=draw(names))


@st.composite
def ndtables(draw):
    ndim = draw(st.integers(min_value=1, max_value=2))
    axes = []
    shape = []
    for index in range(ndim):
        points = sorted(
            draw(
                st.lists(
                    finite_floats.filter(lambda v: abs(v) < 1e6),
                    min_size=2,
                    max_size=4,
                    unique=True,
                )
            )
        )
        axes.append(Axis(name=f"axis{index}", points=tuple(points)))
        shape.append(len(points))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return NDTable(axes, rng.normal(size=shape), name=draw(names))


capacitances = st.one_of(finite_floats, ndtables())
metadata = st.dictionaries(names, names, max_size=2)


@st.composite
def sis_models(draw):
    return SISCSM(
        cell_name=draw(names),
        pin=draw(names),
        fixed_inputs=draw(st.dictionaries(names, finite_floats, max_size=2)),
        io_table=draw(ndtables()),
        input_cap=draw(capacitances),
        output_cap=draw(capacitances),
        miller_cap=draw(capacitances),
        vdd=draw(finite_floats),
        metadata=draw(metadata),
    )


@st.composite
def mis_models(draw):
    return BaselineMISCSM(
        cell_name=draw(names),
        pin_a="A",
        pin_b="B",
        fixed_inputs=draw(st.dictionaries(names, finite_floats, max_size=2)),
        io_table=draw(ndtables()),
        input_caps={"A": draw(capacitances), "B": draw(capacitances)},
        output_cap=draw(capacitances),
        miller_caps={"A": draw(capacitances), "B": draw(capacitances)},
        vdd=draw(finite_floats),
        include_miller=draw(st.booleans()),
        metadata=draw(metadata),
    )


@st.composite
def mcsm_models(draw):
    return MCSM(
        cell_name=draw(names),
        pin_a="A",
        pin_b="B",
        fixed_inputs=draw(st.dictionaries(names, finite_floats, max_size=2)),
        io_table=draw(ndtables()),
        in_table=draw(ndtables()),
        input_caps={"A": draw(capacitances), "B": draw(capacitances)},
        output_cap=draw(capacitances),
        miller_caps={"A": draw(capacitances), "B": draw(capacitances)},
        internal_cap=draw(capacitances),
        vdd=draw(finite_floats),
        internal_node=draw(names),
        metadata=draw(metadata),
    )


@st.composite
def nldm_tables(draw):
    return NLDMTable(
        cell_name=draw(names),
        pin=draw(names),
        input_rise=draw(st.booleans()),
        output_rise=draw(st.booleans()),
        delay_table=draw(ndtables()),
        slew_table=draw(ndtables()),
        vdd=draw(finite_floats),
        metadata=draw(metadata),
    )


#: Event times including the bit patterns a text round-trip could lose.
event_times = st.one_of(
    finite_floats,
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
)
timing_events = st.builds(
    TimingEvent, net=names, arrival=event_times, slew=event_times, rising=st.booleans()
)


@st.composite
def model_simulation_results(draw):
    return ModelSimulationResult(
        output=draw(waveforms()),
        internal=draw(st.one_of(st.none(), waveforms())),
        inputs=draw(st.dictionaries(names, waveforms(), max_size=2)),
        metadata=draw(metadata),
    )


@st.composite
def waveform_timing_results(draw):
    return WaveformTimingResult(
        waveforms=draw(st.dictionaries(names, waveforms(), max_size=3)),
        model_used=draw(st.dictionaries(names, names, max_size=3)),
        netlist_name=draw(names),
        vdd=draw(finite_floats),
        stats=draw(st.one_of(st.none(), st.dictionaries(names, st.integers(), max_size=3))),
    )


@st.composite
def nldm_timing_results(draw):
    return NLDMTimingResult(
        events=draw(st.dictionaries(names, timing_events, max_size=3)),
        mis_flags=draw(
            st.dictionaries(
                names, st.lists(st.tuples(names, names), max_size=2), max_size=2
            )
        ),
        netlist_name=draw(names),
        stats=draw(st.one_of(st.none(), st.dictionaries(names, st.integers(), max_size=3))),
    )


@st.composite
def multicorner_nldm_results(draw):
    corners = draw(st.lists(names, min_size=1, max_size=2, unique=True))
    return MulticornerNLDMResult(
        results={name: draw(nldm_timing_results()) for name in corners},
        corner_order=corners,
        netlist_name=draw(names),
        stats=draw(st.one_of(st.none(), st.just({name: {"instances": 1} for name in corners}))),
    )


primitives = st.one_of(
    st.none(), st.booleans(), st.integers(), finite_floats, names
)
payloads = st.one_of(
    primitives,
    ndarrays(),
    waveforms(),
    ndtables(),
    sis_models(),
    mis_models(),
    mcsm_models(),
    nldm_tables(),
    timing_events,
    model_simulation_results(),
    waveform_timing_results(),
    nldm_timing_results(),
    multicorner_nldm_results(),
    st.lists(st.one_of(primitives, ndarrays()), max_size=3),
    st.dictionaries(names, st.one_of(primitives, ndarrays(), waveforms()), max_size=3),
    st.tuples(st.one_of(primitives, ndarrays()), st.one_of(primitives, ndarrays())),
)


# ----------------------------------------------------------------------
# Structural equality down to array bits and dtypes
# ----------------------------------------------------------------------
def assert_identical(left, right):
    # The codec normalizes numpy scalars to python scalars by design (so
    # hashes don't depend on the numpy version); accept that on the input.
    if isinstance(right, (np.floating, np.integer, np.bool_)):
        right = right.item()
    assert type(left) is type(right) or (
        dataclasses.is_dataclass(left) and type(left) is type(right)
    ), (type(left), type(right))
    if isinstance(left, np.ndarray):
        assert left.dtype == right.dtype
        assert left.shape == right.shape
        assert np.array_equal(left, right)
        return
    if isinstance(left, Waveform):
        assert left.name == right.name
        assert_identical(left.times, right.times)
        assert_identical(left.values, right.values)
        return
    if isinstance(left, NDTable):
        assert left.name == right.name
        assert tuple(a.name for a in left.axes) == tuple(a.name for a in right.axes)
        assert tuple(a.points for a in left.axes) == tuple(a.points for a in right.axes)
        assert_identical(np.asarray(left.values), np.asarray(right.values))
        return
    if dataclasses.is_dataclass(left) and not isinstance(left, type):
        for field in dataclasses.fields(left):
            assert_identical(getattr(left, field.name), getattr(right, field.name))
        return
    if isinstance(left, dict):
        assert left.keys() == right.keys()
        for key in left:
            assert_identical(left[key], right[key])
        return
    if isinstance(left, (list, tuple)):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            assert_identical(a, b)
        return
    if isinstance(left, float):
        # repr-based codec: exact bit pattern must survive
        assert left == right and repr(left) == repr(right)
        return
    assert left == right


class _Counter:
    """Fresh content key per hypothesis example, stable within one store."""

    def __init__(self):
        self.count = 0

    def next_key(self) -> str:
        self.count += 1
        return f"{self.count:064x}"


@pytest.fixture(params=sorted(BACKENDS))
def backend(request, tmp_path):
    return BACKENDS[request.param](tmp_path / request.param), _Counter()


@given(value=payloads)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_roundtrip_is_bitwise(backend, value):
    store, counter = backend
    key = counter.next_key()
    store.store(key, value)
    hit, loaded = store.lookup(key)
    assert hit
    assert_identical(loaded, value)


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_seeded_fuzz_loop_across_reopen(name, tmp_path):
    """A denser, deterministic sweep: many payloads into one store, then a
    fresh handle (index reload path) must return every one bitwise."""
    rng = np.random.default_rng(1234)
    stored = {}
    store = BACKENDS[name](tmp_path / name)
    for index in range(40):
        shape = tuple(rng.integers(0, 6, size=rng.integers(0, 3)))
        payload = {
            "array": rng.normal(size=shape),
            "strided": rng.normal(size=20)[:: int(rng.integers(2, 4))],
            "scalars": (int(rng.integers(-100, 100)), float(rng.normal()), bool(index % 2)),
            "empty": np.empty((0,)),
        }
        key = f"{index:064x}"
        store.store(key, payload)
        stored[key] = payload
    reopened = BACKENDS[name](tmp_path / name)
    for key, payload in stored.items():
        hit, loaded = reopened.lookup(key)
        assert hit
        assert_identical(loaded, payload)


# ----------------------------------------------------------------------
# The columnar NLDM result form
# ----------------------------------------------------------------------
LEGACY_NLDM_MANIFEST = Path(__file__).parent / "fixtures" / "nldm_result_object_manifest.json"


def _edge_case_nldm_result(stats):
    return NLDMTimingResult(
        events={
            "a": TimingEvent(net="a", arrival=1e-10, slew=6e-11, rising=True),
            "n1": TimingEvent(net="n1", arrival=-0.0, slew=5e-324, rising=False),
            "alias": TimingEvent(
                net="n2",
                arrival=1.2345678901234567e-10,
                slew=2.2250738585072014e-308,
                rising=True,
            ),
        },
        mis_flags={"g1": [("A", "B")], "g2": []},
        netlist_name="legacy",
        stats=stats,
    )


@given(value=st.one_of(nldm_timing_results(), multicorner_nldm_results()))
@settings(max_examples=25, deadline=None)
def test_nldm_results_encode_columnar(value):
    manifest, arrays = encode_payload(value)
    text = json.dumps(manifest)
    assert '"nldm-columns"' in text
    assert '"TimingEvent"' not in text
    assert_identical(decode_payload(json.loads(text), arrays), value)


@pytest.mark.parametrize(
    "value",
    [
        NLDMTimingResult(events={}, mis_flags={}, netlist_name="empty", stats=None),
        _edge_case_nldm_result(stats=None),
        _edge_case_nldm_result(stats={"instances": 2}),
    ],
    ids=["empty", "edge-cases", "with-stats"],
)
def test_columnar_nldm_result_roundtrips_bitwise(backend, value):
    store, counter = backend
    key = counter.next_key()
    store.store(key, value)
    hit, loaded = store.lookup(key)
    assert hit
    assert_identical(loaded, value)


def test_nldm_result_outside_the_columns_falls_back_to_object():
    value = NLDMTimingResult(
        events={"a": TimingEvent(net="a", arrival=1, slew=2e-11, rising=True)},
        mis_flags={"g1": [["A", "B"]]},
        netlist_name="fallback",
    )
    manifest, arrays = encode_payload(value)
    assert manifest["t"] == "object"
    assert_identical(decode_payload(manifest, arrays), value)


def test_legacy_object_manifest_still_decodes():
    manifest = json.loads(LEGACY_NLDM_MANIFEST.read_text())
    assert manifest["t"] == "object" and manifest["cls"] == "NLDMTimingResult"
    expected = _edge_case_nldm_result(stats={"instances": 2, "integrations": 2})
    assert_identical(decode_payload(manifest, {}), expected)
