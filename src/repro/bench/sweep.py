"""Composable parameter sweeps over experiment configurations.

A :class:`Sweep` takes a base :class:`~repro.bench.harness.ExperimentConfig`
and a set of axes (parameter name → list of values), runs the cartesian
product, and returns one row per point.  It powers the CLI's ``sweep``
command and is the intended building block for custom studies::

    sweep = Sweep(ExperimentConfig(records=200),
                  axes={"config": [MINOS_B, MINOS_O],
                        "nodes": [2, 4, 8]})
    rows = sweep.run()

Axis values may address:

* any :class:`ExperimentConfig` field (``nodes``, ``write_fraction``,
  ``model``, ``config``, ...);
* the machine knobs ``persist_latency`` (seconds/KB) and
  ``fifo_entries`` (int or None), which rewrite ``machine``.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Any, Dict, Iterable, List, Mapping

from repro.bench.harness import ExperimentConfig, run_experiment
from repro.bench.pool import run_ordered
from repro.core.config import ProtocolConfig, config_by_name
from repro.core.model import DDPModel, model_by_name
from repro.errors import ConfigError

#: Axes that rewrite MachineParams instead of ExperimentConfig fields.
MACHINE_AXES = {
    "persist_latency": lambda machine, v: machine.with_persist_latency(v),
    "fifo_entries": lambda machine, v: machine.with_fifo_entries(v),
}


def _coerce(name: str, value: Any) -> Any:
    """Allow string axis values for models/configs (CLI convenience)."""
    if name == "model" and isinstance(value, str):
        return model_by_name(value)
    if name == "config" and isinstance(value, str):
        return config_by_name(value)
    return value


class Sweep:
    """Cartesian-product experiment sweep."""

    def __init__(self, base: ExperimentConfig,
                 axes: Mapping[str, Iterable[Any]]) -> None:
        if not axes:
            raise ConfigError("a sweep needs at least one axis")
        self.base = base
        self.axes = {name: list(values) for name, values in axes.items()}
        for name, values in self.axes.items():
            if not values:
                raise ConfigError(f"axis {name!r} has no values")
            if name not in MACHINE_AXES and not hasattr(base, name):
                raise ConfigError(f"unknown sweep axis {name!r}")

    def points(self) -> List[Dict[str, Any]]:
        """All axis combinations, as dicts of axis name -> value."""
        names = list(self.axes)
        return [dict(zip(names, combo))
                for combo in itertools.product(*self.axes.values())]

    def config_for(self, point: Mapping[str, Any]) -> ExperimentConfig:
        config = self.base
        machine = config.machine
        for name, value in point.items():
            value = _coerce(name, value)
            if name in MACHINE_AXES:
                machine = MACHINE_AXES[name](machine, value)
            else:
                config = replace(config, **{name: value})
        return replace(config, machine=machine)

    def run(self) -> List[Dict[str, Any]]:
        """Run every point (on the figure-sweep fork pool); returns one
        flat result row per point, in :meth:`points` order."""
        points = self.points()
        results = run_ordered(run_experiment,
                              [self.config_for(point) for point in points])
        rows = []
        for point, result in zip(points, results):
            row: Dict[str, Any] = {}
            for name, value in point.items():
                if isinstance(value, (DDPModel, ProtocolConfig)):
                    row[name] = str(value)
                elif value is None:
                    row[name] = "unlimited"
                else:
                    row[name] = value
            row.update({
                "wlat_us": result.write_latency.mean * 1e6,
                "rlat_us": result.read_latency.mean * 1e6,
                "wtput_kops": result.write_throughput / 1e3,
                "rtput_kops": result.read_throughput / 1e3,
            })
            rows.append(row)
        return rows


def parse_axis(text: str) -> tuple:
    """Parse a CLI axis spec ``name=v1,v2,...`` with numeric coercion."""
    if "=" not in text:
        raise ConfigError(f"axis spec {text!r} is not name=v1,v2,...")
    name, _eq, values_text = text.partition("=")
    values: List[Any] = []
    for token in values_text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(int(token))
        except ValueError:
            try:
                values.append(float(token))
            except ValueError:
                values.append(None if token == "unlimited" else token)
    if not values:
        raise ConfigError(f"axis {name!r} has no values")
    return name.strip(), values
