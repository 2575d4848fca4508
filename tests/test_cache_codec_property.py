"""Property-based round-trip tests for the result-store codec (PR 5).

One payload strategy covers every payload type the store holds — raw arrays
(including zero-length and non-contiguous ones), ``NDTable``, the CSM model
dataclasses, ``NLDMTable``, ``Waveform`` and the CSM level records and row
pointers — and the packed store in each of its
regimes (inline-only, data-file-only, mixed).  Whatever goes in must come out
bitwise identical.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.characterization.nldm import NLDMTable
from repro.csm.models import MCSM, BaselineMISCSM, SISCSM
from repro.lut.grid import Axis
from repro.lut.table import NDTable
from repro.runtime import PackedStore
from repro.waveform import Waveform
from repro.waveform.level_tensor import LevelTensor

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


content_keys = st.integers(min_value=0, max_value=2**256 - 1).map("{:064x}".format)


@st.composite
def level_records(draw):
    """A CSM level record: the level's propagation keys and its tensor."""
    rows = draw(st.integers(min_value=1, max_value=3))
    samples = draw(st.integers(min_value=2, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    tensor = LevelTensor(
        [f"n{row}" for row in range(rows)],
        rng.normal(size=(rows, samples)),
        draw(st.floats(min_value=-1e-9, max_value=1e-9)),
        draw(st.floats(min_value=1e-15, max_value=1e-9)),
    )
    keys = draw(st.lists(content_keys, min_size=rows, max_size=rows))
    return {"keys": keys, "tensor": tensor}


#: A level-row pointer: one instance's row of a level record.
level_rows = st.fixed_dictionaries(
    {
        "t": st.just("level-row"),
        "level": content_keys,
        "row": st.integers(min_value=0, max_value=4096),
    }
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
    level_records(),
    level_rows,
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
    if isinstance(left, LevelTensor):
        assert left.names == right.names
        for name in ("values", "t0", "dt"):
            assert_identical(getattr(left, name), getattr(right, name))
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
