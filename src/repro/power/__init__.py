"""Power modelling and measurement.

Three layers:

* :class:`~repro.power.model.PowerModel` — what each core state draws
  (Section II physics: ``Pd = C·V²·f``, idle residuals, wakeup cost ω);
* :class:`~repro.power.ledger.EnergyLedger` — exact integration of that
  model over the simulated core timelines, the one integrator; every
  other energy account (attribution, trace, registry) is a
  :class:`~repro.power.ledger.LedgerSink` view of its segments;
* :mod:`~repro.power.instruments` — the paper's two measurement paths
  (PowerTop analogue; shunt-resistor + oscilloscope analogue) with
  realistic noise, layered on the ledger.
"""

from repro.power.attribution import (
    SYSTEM,
    AttributionReport,
    EnergyAttributor,
    OwnerEnergy,
)
from repro.power.instruments import (
    Oscilloscope,
    PowerTop,
    PowerTopReport,
    PowerTopRow,
    ScopeMeasurement,
)
from repro.power.ledger import EnergyBreakdown, EnergyLedger, LedgerSink
from repro.power.model import PowerModel

__all__ = [
    "AttributionReport",
    "EnergyAttributor",
    "EnergyBreakdown",
    "OwnerEnergy",
    "SYSTEM",
    "EnergyLedger",
    "LedgerSink",
    "Oscilloscope",
    "PowerModel",
    "PowerTop",
    "PowerTopReport",
    "PowerTopRow",
    "ScopeMeasurement",
]
