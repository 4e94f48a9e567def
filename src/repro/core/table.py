"""The sensitivity table: profiler output consumed by the controller.

"The profiler determines the value of the coefficients [...] and
records the coefficients in the sensitivity table.  Saba uses this
table in its controller for bandwidth allocation" (Section 4.1,
Figure 4).

The table maps workload name -> :class:`SensitivityModel` and
round-trips through JSON so profiling results can be shipped to
controllers (the distributed design reads them from a mapping
database; see :mod:`repro.core.distributed`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Union

from repro.errors import ProfilingError
from repro.core.sensitivity import SensitivityModel


class SensitivityTable:
    """Name-keyed store of fitted sensitivity models."""

    def __init__(self, models: Optional[Iterable[SensitivityModel]] = None) -> None:
        self._models: Dict[str, SensitivityModel] = {}
        for model in models or []:
            self.add(model)

    def add(self, model: SensitivityModel, replace: bool = False) -> None:
        """Record a model; refuses silent overwrites unless ``replace``."""
        if model.name in self._models and not replace:
            raise ProfilingError(
                f"model for {model.name!r} already recorded; "
                "pass replace=True to update it"
            )
        self._models[model.name] = model

    def get(self, name: str) -> SensitivityModel:
        try:
            return self._models[name]
        except KeyError:
            raise ProfilingError(
                f"no sensitivity model for {name!r}; profiled workloads: "
                f"{', '.join(sorted(self._models)) or '(none)'}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._models

    def __len__(self) -> int:
        return len(self._models)

    def __iter__(self) -> Iterator[SensitivityModel]:
        return iter(self._models.values())

    def names(self) -> list[str]:
        return sorted(self._models)

    # -- persistence -------------------------------------------------------

    def to_json(self) -> str:
        payload = {}
        for name, m in sorted(self._models.items()):
            entry = {
                "coefficients": list(m.coefficients),
                "fit_domain": list(m.fit_domain),
                "basis": m.basis,
            }
            if m.r_squared is not None:
                entry["r_squared"] = m.r_squared
            payload[name] = entry
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SensitivityTable":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProfilingError(f"malformed sensitivity table: {exc}") from exc
        table = cls()
        for name, entry in payload.items():
            table.add(
                SensitivityModel(
                    name=name,
                    coefficients=tuple(entry["coefficients"]),
                    fit_domain=tuple(entry["fit_domain"]),
                    basis=entry.get("basis", "inverse"),
                    r_squared=entry.get("r_squared"),
                )
            )
        return table

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SensitivityTable":
        return cls.from_json(Path(path).read_text())
