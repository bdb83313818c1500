"""EKV-style compact MOSFET model.

This is the reproduction's substitute for the HSPICE/BPTM device models
used by the paper.  The drain-current expression is the classic EKV
interpolation

    I_D = Is * [F((Vgs - Vth) / (n Ut)) - F((Vgs - Vth - n Vds) / (n Ut))]

with ``F(x) = ln(1 + exp(x/2))^2`` and ``Is = 2 n mu_eff Cox (W/L) Ut^2``,
which reduces to the familiar limits:

* deep subthreshold: ``I ~ Is exp((Vgs-Vth)/(n Ut)) (1 - exp(-Vds/Ut))``,
* strong-inversion saturation: ``I ~ (mu_eff Cox / 2n) (W/L) (Vgs-Vth)^2``.

The threshold voltage includes the body effect (``gamma``) and DIBL, the
mobility a first-order vertical-field degradation (``theta``).  Everything
is numpy-vectorised: any terminal voltage or the per-instance threshold
shift ``dvt`` may be an array, enabling Monte-Carlo over millions of
device instances in a single call.

Sign conventions: the public API is terminal-based
(:meth:`MOSFET.current` takes vg, vd, vs, vb) and returns the conventional
drain current — positive flowing drain->source for NMOS with vds > 0, and
positive flowing source->drain for PMOS (i.e. the magnitude of the on
current is positive for both).  Internally PMOS is mapped onto the NMOS
equations by flipping every voltage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import thermal_voltage
from repro.technology.parameters import DeviceParameters

#: Floor for the body-effect square-root argument [V]; limits how far
#: forward body bias can collapse the depletion term.
_PHI_FLOOR = 0.05
#: Reference temperature for the card parameters [K] (27 C).
_T_REF = 300.15

ArrayLike = float | np.ndarray


def _softplus(x: ArrayLike) -> np.ndarray:
    """Numerically stable ln(1 + exp(x))."""
    return np.logaddexp(0.0, x)


def _ekv_f(x: ArrayLike) -> np.ndarray:
    """The EKV interpolation function F(x) = ln(1 + exp(x/2))^2."""
    return np.square(_softplus(np.asarray(x, dtype=float) / 2.0))


@dataclass(frozen=True)
class MOSFET:
    """One MOSFET instance (or a vectorised family of instances).

    Attributes:
        params: the technology card for this polarity.
        width: channel width [m].
        length: channel length [m].
        cox: gate-oxide capacitance per area [F/m^2].
        temperature: junction temperature [K].
        polarity: ``"nmos"`` or ``"pmos"``.
        dvt: threshold shift [V] added to ``params.vth0``; scalar or array
            (inter-die corner + intra-die RDF sample).  Positive ``dvt``
            always *increases* the threshold magnitude.
    """

    params: DeviceParameters
    width: float
    length: float
    cox: float
    temperature: float
    polarity: str = "nmos"
    dvt: ArrayLike = field(default=0.0)

    def __post_init__(self) -> None:
        if self.polarity not in ("nmos", "pmos"):
            raise ValueError(f"bad polarity {self.polarity!r}")
        if self.width <= 0 or self.length <= 0:
            raise ValueError("width and length must be positive")

    @property
    def ut(self) -> float:
        """Thermal voltage [V] at the instance temperature."""
        return thermal_voltage(self.temperature)

    @property
    def sign(self) -> int:
        """+1 for NMOS, -1 for PMOS."""
        return 1 if self.polarity == "nmos" else -1

    def with_dvt(self, dvt: ArrayLike) -> "MOSFET":
        """Return a copy with a different threshold shift (scalar/array)."""
        return MOSFET(
            params=self.params,
            width=self.width,
            length=self.length,
            cox=self.cox,
            temperature=self.temperature,
            polarity=self.polarity,
            dvt=dvt,
        )

    # ------------------------------------------------------------------
    # Threshold and current (normalised, NMOS-convention voltages)
    # ------------------------------------------------------------------
    def threshold(self, vsb: ArrayLike = 0.0, vds: ArrayLike = 0.0) -> np.ndarray:
        """Threshold magnitude [V] vs source-body and drain-source bias.

        ``vsb`` is the *normalised* source-to-body voltage (positive for
        reverse body bias in both polarities); ``vds`` the normalised
        (non-negative) drain-source voltage driving DIBL.  The card's
        ``vth0`` is referenced to 27 C; the threshold falls by
        ``vth_tempco`` per kelvin above that.
        """
        p = self.params
        depletion = np.sqrt(np.maximum(p.phi_s + np.asarray(vsb, dtype=float),
                                       _PHI_FLOOR))
        body = p.gamma * (depletion - np.sqrt(p.phi_s))
        vth0 = p.vth0 - p.vth_tempco * (self.temperature - _T_REF)
        return vth0 + np.asarray(self.dvt, dtype=float) + body - p.dibl * np.asarray(vds, dtype=float)

    def _ids_normalized(
        self, vgs: ArrayLike, vds: ArrayLike, vsb: ArrayLike
    ) -> np.ndarray:
        """Drain current [A] for normalised voltages with vds >= 0."""
        p = self.params
        ut = self.ut
        vgs = np.asarray(vgs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        vth = self.threshold(vsb=vsb, vds=vds)
        overdrive = vgs - vth
        mu_t = p.mobility * (self.temperature / _T_REF) ** (
            -p.mobility_temp_exponent
        )
        mu_eff = mu_t / (1.0 + p.theta * np.maximum(overdrive, 0.0))
        i_spec = 2.0 * p.n_sub * mu_eff * self.cox * (self.width / self.length) * ut * ut
        x_fwd = overdrive / (p.n_sub * ut)
        x_rev = (overdrive - p.n_sub * vds) / (p.n_sub * ut)
        return i_spec * (_ekv_f(x_fwd) - _ekv_f(x_rev))

    # ------------------------------------------------------------------
    # Terminal-based public API
    # ------------------------------------------------------------------
    def current(
        self,
        vg: ArrayLike,
        vd: ArrayLike,
        vs: ArrayLike,
        vb: ArrayLike,
    ) -> np.ndarray:
        """Channel current [A] flowing from the drain *terminal* to the
        source *terminal* (NMOS convention; for PMOS the returned value is
        positive when conventional current flows source->drain, i.e. the
        sign is such that a positive value always means current into the
        ``vd`` terminal for NMOS and out of it for PMOS is consistent with
        ``sign * current``).

        The device is treated as symmetric: if the normalised vds is
        negative, drain and source roles are swapped and the current
        negated, so the function is continuous and odd in vds.  The model
        is evaluated once, on the terminals ordered by voltage (the lower
        one acts as the source).
        """
        s = self.sign
        vg = s * np.asarray(vg, dtype=float)
        vd = s * np.asarray(vd, dtype=float)
        vs = s * np.asarray(vs, dtype=float)
        vb = s * np.asarray(vb, dtype=float)

        vds = vd - vs
        forward = vds >= 0.0
        low = np.where(forward, vs, vd)
        i_d = self._ids_normalized(vg - low, np.abs(vds), low - vb)
        return np.where(forward, i_d, -i_d)

    def on_current(self, vdd: float, vbody: float = 0.0) -> np.ndarray:
        """Saturation on-current [A] at full gate and drain drive.

        ``vbody`` is the *terminal* body voltage relative to the source
        rail (positive = forward body bias for NMOS).
        """
        if self.polarity == "nmos":
            return self.current(vg=vdd, vd=vdd, vs=0.0, vb=vbody)
        return self.current(vg=0.0, vd=0.0, vs=vdd, vb=vdd - vbody)

    def subthreshold_current(
        self, vds: ArrayLike, vsb: ArrayLike = 0.0
    ) -> np.ndarray:
        """Off-state (vgs = 0) channel leakage [A] at normalised biases."""
        return self._ids_normalized(0.0, vds, vsb)
