"""Closed-form radio and energy formulas.

Connectivity in the simulator itself uses the configured communication
radius directly; received_power and comm_range are model utilities kept for
validation and documentation. Energy dissipation follows the first-order
radio model with a squared-distance amplifier term.

Every energy the simulator holds is a whole number of quanta of QUANTUM =
2^-40 J (about 0.9 pJ): each cost is rounded to its nearest quantum where it
is made, and the initial battery once per deployment. Adding QUANTIZER =
2^12 J and taking it away again is that rounding, ties to even, for any
cost below 2^12 J (a larger one lands on a coarser grid of whole quanta).
With every value whole quanta below 2^53 quanta = 8192 J, the bound a
SimConfig holds its budget to on construction, every subtraction from a
battery and every addition to the ledger is exact.
"""
from __future__ import annotations

import math

from .model import EnergyParams, RadioParams

QUANTIZER = 4096.0
QUANTUM = math.ulp(QUANTIZER)  # 2^-40 J


def received_power(radio: RadioParams, d: float) -> float:
    """Two-ray ground received power at distance d:
    P_t * G_t * G_r * h_t^2 * h_r^2 / d^4.
    """
    if d <= 0:
        raise ValueError("distance must be positive (singularity at zero)")
    numerator = (
        radio.tx_power
        * radio.gain_tx
        * radio.gain_rx
        * radio.height_tx**2
        * radio.height_rx**2
    )
    return numerator / d**4


def comm_range(transceiver_constant: float, tx_power: float) -> float:
    """Transmitter coverage diameter 2 * (C_t * P_t)^(1/4).

    The leading factor 2 is taken as given by the model; it is not derived
    from a received-power threshold here.
    """
    if transceiver_constant <= 0 or tx_power <= 0:
        raise ValueError("transceiver constant and power must be positive")
    return 2.0 * (transceiver_constant * tx_power) ** 0.25


def tx_coefficients(energy: EnergyParams, bits: float) -> tuple[float, float]:
    """The transmit cost of `bits` as (E_elec * k, E_amp * k): a hop of l
    meters costs (elec + amp * l**2 + QUANTIZER) - QUANTIZER, bit for bit
    tx_energy. Loops over many hops of one packet size take these once."""
    if bits < 0:
        raise ValueError("bits must be non-negative")
    return energy.elec_energy_per_bit * bits, energy.amp_energy_per_bit_m2 * bits


def tx_energy(energy: EnergyParams, bits: float, dist: float) -> float:
    """Transmit cost for `bits` over `dist` meters,
    E_elec * k + E_amp * k * l^2, in whole quanta.
    """
    if dist < 0:
        raise ValueError("distance must be non-negative")
    elec, amp = tx_coefficients(energy, bits)
    return (elec + amp * dist**2 + QUANTIZER) - QUANTIZER


def rx_energy(energy: EnergyParams, bits: float) -> float:
    """Receive cost for `bits`: electronics only, E_elec * k, in whole
    quanta."""
    if bits < 0:
        raise ValueError("bits must be non-negative")
    return (energy.elec_energy_per_bit * bits + QUANTIZER) - QUANTIZER


def critical_transmission_range(n: int, f: str | float = "loglog") -> float:
    """Dense-network critical transmission range on the unit square,
    sqrt((ln n + f(n)) / (n * pi)), as a fraction of the square edge.

    f selects the divergent correction term: "zero" for f(n) = 0, "loglog"
    for f(n) = ln(ln n) (taken as 0 below n = 3, where it is undefined or
    negative), or any float for a custom constant. Natural logarithms
    throughout.
    """
    if n < 1:
        raise ValueError("node count must be at least 1")
    if isinstance(f, str):
        if f == "zero":
            extra = 0.0
        elif f == "loglog":
            extra = math.log(math.log(n)) if n >= 3 else 0.0
        else:
            raise ValueError(f"unknown f choice {f!r}")
    else:
        extra = float(f)
    return math.sqrt((math.log(n) + extra) / (n * math.pi))


def critical_transmission_range_meters(
    n: int, edge_length: float, f: str | float = "loglog"
) -> float:
    """critical_transmission_range scaled by the square's edge length."""
    if edge_length <= 0:
        raise ValueError("edge length must be positive")
    return edge_length * critical_transmission_range(n, f)
