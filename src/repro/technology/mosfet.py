"""EKV-style MOSFET compact model.

The reproduction needs a transistor-level "golden" simulator that plays the
role HSPICE plays in the paper.  For that we use a simplified EKV model
because it is described by a single smooth expression valid in all operating
regions (weak, moderate and strong inversion, conduction in both directions),
which keeps the Newton-Raphson iterations of the circuit simulator well
behaved and still reproduces the physical effects the paper relies on:

* stack (source-degeneration / body) effect through bulk-referenced voltages
  and the slope factor ``n``;
* channel-length modulation;
* gate-overlap (Miller) and junction capacitances.

The interpolation function is ``F(x) = ln(1 + exp(x / 2)) ** 2`` and the
drain current of an NMOS device is::

    Id = Is * (F((Vp - Vsb) / Ut) - F((Vp - Vdb) / Ut)) * (1 + lambda * |Vds|)

with ``Vp = (Vgb - Vt0) / n`` and ``Is = 2 n kp (W / L) Ut**2``.  PMOS devices
use the same equations with all terminal voltages mirrored about the bulk.

All voltages handed to this module are *bulk referenced*; the circuit layer
(:mod:`repro.spice.elements`) converts absolute node voltages before calling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Sequence, Tuple

import numpy as np

__all__ = [
    "MosfetParams",
    "MosfetOperatingPoint",
    "MosfetBank",
    "ekv_interpolation",
    "ekv_interpolation_derivative",
    "evaluate_many",
    "terminal_capacitances",
    "THERMAL_VOLTAGE",
]

#: Thermal voltage kT/q at 300 K, in volts.
THERMAL_VOLTAGE = 0.025852


def _smooth_abs(x: float, epsilon: float = 1e-3) -> float:
    """Smooth approximation of ``abs(x)`` with continuous derivative."""
    return math.sqrt(x * x + epsilon * epsilon)


def _smooth_abs_derivative(x: float, epsilon: float = 1e-3) -> float:
    return x / math.sqrt(x * x + epsilon * epsilon)


def _softplus(x: float) -> float:
    """Numerically safe ``ln(1 + exp(x))``."""
    if x > 40.0:
        return x
    if x < -40.0:
        return math.exp(x)
    return math.log1p(math.exp(x))


def _sigmoid(x: float) -> float:
    """Numerically safe logistic function."""
    if x >= 0:
        z = math.exp(-x)
        return 1.0 / (1.0 + z)
    z = math.exp(x)
    return z / (1.0 + z)


def ekv_interpolation(x: float) -> float:
    """EKV interpolation function ``F(x) = ln(1 + exp(x / 2)) ** 2``.

    ``x`` is a normalized (thermal-voltage scaled) overdrive.  ``F`` tends to
    ``exp(x)`` in weak inversion (``x`` very negative) and to ``(x / 2) ** 2``
    in strong inversion.
    """
    sp = _softplus(x / 2.0)
    return sp * sp


def ekv_interpolation_derivative(x: float) -> float:
    """Derivative ``dF/dx`` of :func:`ekv_interpolation`."""
    return _softplus(x / 2.0) * _sigmoid(x / 2.0)


@dataclass(frozen=True)
class MosfetParams:
    """Parameters of one MOSFET device type (NMOS or PMOS).

    Attributes
    ----------
    polarity:
        ``+1`` for NMOS, ``-1`` for PMOS.
    vt0:
        Zero-bias threshold voltage magnitude in volts (positive number for
        both polarities).
    kp:
        Transconductance parameter ``mu * Cox`` in A/V^2.
    slope_factor:
        EKV slope factor ``n`` (dimensionless, > 1); larger values model a
        stronger body effect.
    channel_length_modulation:
        ``lambda`` in 1/V.
    cox_per_area:
        Gate-oxide capacitance per unit area in F/m^2.
    overlap_cap_per_width:
        Gate-source / gate-drain overlap capacitance per metre of width (F/m).
    junction_cap_per_width:
        Source/drain junction capacitance to bulk per metre of width (F/m).
    default_length:
        Drawn channel length in metres used when a device does not specify one.
    """

    polarity: int
    vt0: float
    kp: float
    slope_factor: float
    channel_length_modulation: float
    cox_per_area: float
    overlap_cap_per_width: float
    junction_cap_per_width: float
    default_length: float
    thermal_voltage: float = THERMAL_VOLTAGE

    def __post_init__(self) -> None:
        if self.polarity not in (+1, -1):
            raise ValueError(f"polarity must be +1 or -1, got {self.polarity}")
        for name in ("vt0", "kp", "slope_factor", "cox_per_area", "default_length"):
            if getattr(self, name) <= 0:
                raise ValueError(f"MosfetParams.{name} must be positive")

    @property
    def is_nmos(self) -> bool:
        return self.polarity > 0

    @property
    def is_pmos(self) -> bool:
        return self.polarity < 0

    def specific_current(self, width: float, length: float) -> float:
        """EKV specific current ``Is = 2 n kp (W/L) Ut**2`` in amperes."""
        ut = self.thermal_voltage
        return 2.0 * self.slope_factor * self.kp * (width / length) * ut * ut

    def scaled(self, vt_shift: float = 0.0, kp_scale: float = 1.0) -> "MosfetParams":
        """Return a copy with shifted threshold and scaled transconductance.

        Used by process corners (fast corners lower ``vt0`` and raise ``kp``).
        """
        return replace(self, vt0=self.vt0 + vt_shift, kp=self.kp * kp_scale)


@dataclass
class MosfetOperatingPoint:
    """Diagnostic operating-point record for one device evaluation."""

    drain_current: float
    pinch_off_voltage: float
    forward_current: float
    reverse_current: float
    gm: float = 0.0
    gds: float = 0.0
    gms: float = 0.0
    region: str = ""
    extras: Dict[str, float] = field(default_factory=dict)


def _bulk_referenced(
    params: MosfetParams, vg: float, vd: float, vs: float, vb: float
) -> Tuple[float, float, float]:
    """Return polarity-normalized, bulk-referenced (vgb, vdb, vsb)."""
    sign = float(params.polarity)
    return sign * (vg - vb), sign * (vd - vb), sign * (vs - vb)


def _assemble_current(
    params: MosfetParams,
    sign: float,
    ut: float,
    vdb: float,
    vsb: float,
    i_f: float,
    i_r: float,
    df: float,
    dr: float,
    i_s: float,
) -> Tuple[float, Dict[str, float]]:
    """Combine normalized forward/reverse currents into terminal current."""
    lam = params.channel_length_modulation
    vds = vdb - vsb
    clm = 1.0 + lam * _smooth_abs(vds)
    dclm_dvds = lam * _smooth_abs_derivative(vds)

    base = i_s * (i_f - i_r)
    current_pol = base * clm  # polarity-normalized drain current

    n = params.slope_factor
    # Partial derivatives of `base` in the polarity-normalized frame:
    #   d i_f / d vgb = df / (n * ut),  d i_f / d vsb = -df / ut
    #   d i_r / d vgb = dr / (n * ut),  d i_r / d vdb = -dr / ut
    dbase_dvg = i_s * (df - dr) / (n * ut)
    dbase_dvs = -i_s * df / ut
    dbase_dvd = i_s * dr / ut

    dcur_dvg = dbase_dvg * clm
    dcur_dvd = dbase_dvd * clm + base * dclm_dvds
    dcur_dvs = dbase_dvs * clm - base * dclm_dvds

    # Bulk derivative from the chain rule: vgb/vdb/vsb all move with -vb.
    dcur_dvb = -(dcur_dvg + dcur_dvd + dcur_dvs)

    # Convert to absolute-voltage derivatives: polarity-normalized voltages are
    # sign * (v_terminal - vb) and the physical drain current is sign *
    # current_pol, so the sign factors cancel for g/d/s derivatives.
    current = sign * current_pol
    derivs = {
        "vg": dcur_dvg,
        "vd": dcur_dvd,
        "vs": dcur_dvs,
        "vb": dcur_dvb,
    }
    return current, derivs


def drain_current_scaled_and_derivatives(
    params: MosfetParams,
    width: float,
    length: float,
    vg: float,
    vd: float,
    vs: float,
    vb: float,
) -> Tuple[float, Dict[str, float]]:
    """Drain current and derivatives for a device of given geometry.

    This is the entry point used by the circuit simulator.  The returned
    current follows the "positive into the drain terminal" convention for
    both polarities.
    """
    ut = params.thermal_voltage
    sign = float(params.polarity)
    vgb, vdb, vsb = _bulk_referenced(params, vg, vd, vs, vb)

    vp = (vgb - params.vt0) / params.slope_factor
    xf = (vp - vsb) / ut
    xr = (vp - vdb) / ut
    i_f = ekv_interpolation(xf)
    i_r = ekv_interpolation(xr)
    df = ekv_interpolation_derivative(xf)
    dr = ekv_interpolation_derivative(xr)
    i_s = params.specific_current(width, length)
    return _assemble_current(params, sign, ut, vdb, vsb, i_f, i_r, df, dr, i_s)


def operating_point(
    params: MosfetParams,
    width: float,
    length: float,
    vg: float,
    vd: float,
    vs: float,
    vb: float,
) -> MosfetOperatingPoint:
    """Compute a diagnostic operating point (current, gm, gds, region)."""
    current, derivs = drain_current_scaled_and_derivatives(
        params, width, length, vg, vd, vs, vb
    )
    ut = params.thermal_voltage
    sign = float(params.polarity)
    vgb, vdb, vsb = _bulk_referenced(params, vg, vd, vs, vb)
    vp = (vgb - params.vt0) / params.slope_factor
    i_f = ekv_interpolation((vp - vsb) / ut)
    i_r = ekv_interpolation((vp - vdb) / ut)
    overdrive = vgb - vsb - params.vt0
    if overdrive < -3 * ut:
        region = "cutoff"
    elif i_r > 0.05 * i_f:
        region = "linear"
    else:
        region = "saturation"
    return MosfetOperatingPoint(
        drain_current=current,
        pinch_off_voltage=vp,
        forward_current=i_f,
        reverse_current=i_r,
        gm=derivs["vg"],
        gds=derivs["vd"],
        gms=-derivs["vs"],
        region=region,
    )


class MosfetBank:
    """A fixed set of MOSFET devices evaluated as whole NumPy arrays.

    The circuit simulator linearizes every device at every Newton iteration;
    doing that one device at a time dominates the transient-analysis profile.
    A bank snapshots the per-device parameters into flat arrays once, after
    which :meth:`evaluate` computes the drain currents and all four terminal
    derivatives of *all* devices with ~20 vectorized operations, for a single
    bias vector or for a whole batch of bias vectors at once.
    """

    __slots__ = (
        "size",
        "_sign",
        "_vt0_over_n",
        "_half_inv_ut",
        "_lam",
        "_inv_n",
        "_i_s",
        "_over_nut",
        "_over_ut",
        "_eps_sq",
    )

    def __init__(self, devices: Sequence[Tuple[MosfetParams, float, float]]):
        """``devices`` is a sequence of ``(params, width, length)`` triples."""
        self.size = len(devices)
        self._sign = np.array([float(p.polarity) for p, _, _ in devices])
        n = np.array([p.slope_factor for p, _, _ in devices])
        ut = np.array([p.thermal_voltage for p, _, _ in devices])
        self._vt0_over_n = np.array([p.vt0 for p, _, _ in devices]) / n
        self._half_inv_ut = 0.5 / ut
        self._inv_n = 1.0 / n
        self._lam = np.array([p.channel_length_modulation for p, _, _ in devices])
        self._i_s = np.array([p.specific_current(w, l) for p, w, l in devices])
        self._over_nut = self._i_s / (n * ut)
        self._over_ut = self._i_s / ut
        self._eps_sq = 1e-3 ** 2  # epsilon of the smooth |Vds| of the scalar path

    def evaluate(
        self, vg: np.ndarray, vd: np.ndarray, vs: np.ndarray, vb: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Currents and derivatives of every device at the given bias.

        Parameters are arrays of shape ``(M,)`` or ``(B, M)`` for a batch of
        ``B`` independent bias points over the same ``M`` devices.

        Returns
        -------
        (current, derivs):
            ``current`` has the input shape; ``derivs`` has shape
            ``(..., 4, M)`` ordered ``vg, vd, vs, vb`` (same quantities as
            :func:`drain_current_scaled_and_derivatives`).  The derivative block is
            laid out so the MNA assembler can flatten it per bias point
            without transposition.
        """
        sign = self._sign
        vgb = sign * (vg - vb)
        vdb = sign * (vd - vb)
        vsb = sign * (vs - vb)

        # Forward (source) and reverse (drain) normalized overdrives are
        # pushed through softplus/sigmoid as one fused (..., 2, M) block:
        # softplus(x) = logaddexp(0, x), sigmoid(x) = (1 + tanh(x/2)) / 2.
        vp = vgb * self._inv_n - self._vt0_over_n
        x = np.empty(vgb.shape[:-1] + (2, vgb.shape[-1]))
        x[..., 0, :] = vp - vsb
        x[..., 1, :] = vp - vdb
        x *= self._half_inv_ut
        sp = np.logaddexp(0.0, x)
        interp = sp * sp
        dinterp = sp * (0.5 * (1.0 + np.tanh(0.5 * x)))
        i_f = interp[..., 0, :]
        i_r = interp[..., 1, :]
        df = dinterp[..., 0, :]
        dr = dinterp[..., 1, :]

        vds = vdb - vsb
        smooth = np.sqrt(vds * vds + self._eps_sq)
        clm = 1.0 + self._lam * smooth
        dclm_dvds = self._lam * (vds / smooth)

        base = self._i_s * (i_f - i_r)
        base_dclm = base * dclm_dvds

        derivs = np.empty(vgb.shape[:-1] + (4, vgb.shape[-1]))
        dvg = derivs[..., 0, :]
        np.multiply(self._over_nut * (df - dr), clm, out=dvg)
        dvd = derivs[..., 1, :]
        np.multiply(self._over_ut * dr, clm, out=dvd)
        dvd += base_dclm
        dvs = derivs[..., 2, :]
        np.multiply(self._over_ut * df, -clm, out=dvs)
        dvs -= base_dclm
        derivs[..., 3, :] = -(dvg + dvd + dvs)

        current = sign * (base * clm)
        return current, derivs


def evaluate_many(
    devices: Sequence[Tuple[MosfetParams, float, float]],
    vg: np.ndarray,
    vd: np.ndarray,
    vs: np.ndarray,
    vb: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """One-shot vectorized evaluation of many devices (see :class:`MosfetBank`).

    Callers that evaluate the same devices repeatedly (the MNA assembler)
    should hold on to a :class:`MosfetBank` instead to amortize the parameter
    gathering.
    """
    return MosfetBank(devices).evaluate(
        np.asarray(vg, dtype=float),
        np.asarray(vd, dtype=float),
        np.asarray(vs, dtype=float),
        np.asarray(vb, dtype=float),
    )


def terminal_capacitances(
    params: MosfetParams, width: float, length: float
) -> Dict[str, float]:
    """Lumped (bias-independent) parasitic capacitances of one device.

    Returns a mapping with keys ``"cgs"``, ``"cgd"``, ``"cgb"``, ``"cdb"``,
    ``"csb"`` in farads.  Half of the intrinsic gate-channel capacitance is
    assigned to each of source and drain, on top of the overlap terms; this is
    the classic Meyer partition and is accurate enough for the Miller and
    stack-charge effects the paper studies.
    """
    if width <= 0 or length <= 0:
        raise ValueError("device width and length must be positive")
    c_intrinsic = params.cox_per_area * width * length
    c_overlap = params.overlap_cap_per_width * width
    c_junction = params.junction_cap_per_width * width
    return {
        "cgs": 0.5 * c_intrinsic + c_overlap,
        "cgd": 0.5 * c_intrinsic + c_overlap,
        "cgb": 0.1 * c_intrinsic,
        "cdb": c_junction,
        "csb": c_junction,
    }
