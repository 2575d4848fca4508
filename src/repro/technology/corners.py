"""Process corners for the synthetic technology.

Corners are modeled the way cell-characterization flows usually treat them:
fast devices have lower threshold voltages and higher mobility, slow devices
the opposite.  The corner set is the usual five-point set (TT, FF, SS, FS,
SF).  Corners are not required for any of the paper's experiments, but the
characterization flow accepts any :class:`~repro.technology.process.Technology`
so corner libraries can be characterized the same way as typical ones;
:class:`repro.sta.mmmc.CornerSet` builds one cornered library per corner for
multi-corner timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .process import Technology

__all__ = ["Corner", "STANDARD_CORNERS", "apply_corner"]


@dataclass(frozen=True)
class Corner:
    """A process corner described by threshold shifts and mobility scales.

    Attributes
    ----------
    name:
        Corner name such as ``"TT"`` or ``"FS"`` (NMOS letter first).
    nmos_vt_shift / pmos_vt_shift:
        Additive threshold-voltage shift in volts (negative = faster).
    nmos_kp_scale / pmos_kp_scale:
        Multiplicative transconductance scale (> 1 = faster).
    vdd_scale:
        Multiplicative supply scale (1.0 for nominal supply).
    """

    name: str
    nmos_vt_shift: float = 0.0
    pmos_vt_shift: float = 0.0
    nmos_kp_scale: float = 1.0
    pmos_kp_scale: float = 1.0
    vdd_scale: float = 1.0


#: The standard five process corners with 130 nm-like spreads.
STANDARD_CORNERS: Dict[str, Corner] = {
    "TT": Corner("TT"),
    "FF": Corner("FF", nmos_vt_shift=-0.04, pmos_vt_shift=-0.04,
                 nmos_kp_scale=1.12, pmos_kp_scale=1.12),
    "SS": Corner("SS", nmos_vt_shift=+0.04, pmos_vt_shift=+0.04,
                 nmos_kp_scale=0.88, pmos_kp_scale=0.88),
    "FS": Corner("FS", nmos_vt_shift=-0.04, pmos_vt_shift=+0.04,
                 nmos_kp_scale=1.12, pmos_kp_scale=0.88),
    "SF": Corner("SF", nmos_vt_shift=+0.04, pmos_vt_shift=-0.04,
                 nmos_kp_scale=0.88, pmos_kp_scale=1.12),
}


def apply_corner(technology: Technology, corner: Corner) -> Technology:
    """Return a new technology with the corner's shifts applied."""
    nmos = technology.nmos.scaled(corner.nmos_vt_shift, corner.nmos_kp_scale)
    pmos = technology.pmos.scaled(corner.pmos_vt_shift, corner.pmos_kp_scale)
    shifted = technology.with_devices(nmos, pmos, suffix=corner.name)
    if corner.vdd_scale != 1.0:
        from dataclasses import replace

        shifted = replace(shifted, vdd=shifted.vdd * corner.vdd_scale)
    return shifted

