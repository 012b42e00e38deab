"""Versioned, serializable experiment artifacts.

:class:`ExperimentResult` is the one value every experiment returns.
This module promotes it from an in-memory bundle to a durable artifact:
``to_json``/``from_json`` round-trip the full ``data`` payload --
NumPy arrays (dtype- and shape-preserving), ``Protocol``/``Mode``/
``Material`` enum values *and dict keys*, tuple keys, registered
result dataclasses (``AccuracyReport``, ``CarrierEstimate``), and
non-finite floats -- so a saved run is diffable data, and
``python -m repro show artifact.json`` re-renders exactly what the
live run printed.

Serialization is deterministic: the same run (same seed) produces
byte-identical JSON, which the registry contract tests pin.

Encoding uses explicit tags (``{"__kind__": ...}``) instead of pickle:
artifacts stay human-readable, diffable, and safe to load.  An enum
or dataclass type appearing in experiment data must be listed in
``_ENUM_TYPES`` / ``_DATACLASS_TYPES``; unknown types fail encoding
loudly rather than degrade silently.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.atomicio import atomic_write_text

__all__ = [
    "ARTIFACT_TAG",
    "SCHEMA_VERSION",
    "ArtifactError",
    "ExperimentResult",
    "decode",
    "encode",
]

#: Identifies the artifact format; bumped together with SCHEMA_VERSION.
ARTIFACT_TAG = "repro.experiment-result"

#: Version of the on-disk schema this build writes and reads.
SCHEMA_VERSION = 1

_KIND = "__kind__"

#: enum type name -> (module, attribute).  Imported lazily on use.
_ENUM_TYPES: dict[str, tuple[str, str]] = {
    "Protocol": ("repro.phy.protocols", "Protocol"),
    "Mode": ("repro.core.overlay", "Mode"),
    "Material": ("repro.channel.occlusion", "Material"),
}

#: dataclass type name -> (module, attribute).  Imported lazily on use.
_DATACLASS_TYPES: dict[str, tuple[str, str]] = {
    "AccuracyReport": ("repro.core.identification", "AccuracyReport"),
    "CarrierEstimate": ("repro.core.carrier_select", "CarrierEstimate"),
}


class ArtifactError(ValueError):
    """Raised for malformed or unsupported artifact content."""


def _load_type(table: dict[str, tuple[str, str]], type_name: str) -> type:
    try:
        module_name, attr = table[type_name]
    except KeyError:
        raise ArtifactError(
            f"unregistered artifact type {type_name!r}"
        ) from None
    obj: Any = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj  # type: ignore[no-any-return]


def _registered_name_for(value: Any, table: dict[str, tuple[str, str]]) -> str | None:
    """Registered name whose class is exactly ``type(value)``, if any."""
    cls = type(value)
    for type_name, (module_name, attr) in table.items():
        if cls.__name__ == attr.rsplit(".", 1)[-1] and cls.__module__ == module_name:
            return type_name
    return None


def _encode_float(value: float) -> Any:
    if math.isfinite(value):
        return value
    text = "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return {_KIND: "float", "value": text}


def _finitize(value: Any) -> Any:
    """Replace non-finite floats in ``ndarray.tolist()`` output with
    strings (``"nan"``/``"inf"``/``"-inf"``), which NumPy parses back
    transparently when rebuilding the typed array."""
    if isinstance(value, list):
        return [_finitize(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def _encode_ndarray(arr: np.ndarray) -> dict[str, Any]:
    if arr.dtype == object:
        raise ArtifactError("object-dtype arrays are not serializable")
    doc: dict[str, Any] = {
        _KIND: "ndarray",
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
    }
    if np.issubdtype(arr.dtype, np.complexfloating):
        doc["real"] = _finitize(arr.real.tolist())
        doc["imag"] = _finitize(arr.imag.tolist())
    else:
        doc["data"] = _finitize(arr.tolist())
    return doc


def _decode_ndarray(doc: dict[str, Any]) -> np.ndarray:
    dtype = np.dtype(doc["dtype"])
    shape = tuple(doc["shape"])
    if np.issubdtype(dtype, np.complexfloating):
        real = np.array(doc["real"], dtype=np.float64).reshape(shape)
        imag = np.array(doc["imag"], dtype=np.float64).reshape(shape)
        return (real + 1j * imag).astype(dtype)
    return np.array(doc["data"], dtype=dtype).reshape(shape)


def encode(value: Any) -> Any:
    """Encode ``value`` into JSON-compatible, tagged plain data."""
    if value is None or isinstance(value, (bool, str, int)):
        return value
    if isinstance(value, float):
        return _encode_float(value)
    if isinstance(value, complex):
        return {
            _KIND: "complex",
            "real": _encode_float(value.real),
            "imag": _encode_float(value.imag),
        }
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return _encode_float(float(value))
    if isinstance(value, np.complexfloating):
        return encode(complex(value))
    if isinstance(value, np.ndarray):
        return _encode_ndarray(value)
    if isinstance(value, tuple):
        return {_KIND: "tuple", "items": [encode(v) for v in value]}
    if isinstance(value, list):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value) and _KIND not in value:
            return {k: encode(v) for k, v in value.items()}
        return {
            _KIND: "mapping",
            "items": [[encode(k), encode(v)] for k, v in value.items()],
        }
    if isinstance(value, enum.Enum):
        enum_name = _registered_name_for(value, _ENUM_TYPES)
        if enum_name is None:
            raise ArtifactError(
                f"unregistered enum type {type(value).__name__!r}; list "
                f"it in repro.experiments.artifacts._ENUM_TYPES"
            )
        return {_KIND: "enum", "type": enum_name, "name": value.name}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        dc_name = _registered_name_for(value, _DATACLASS_TYPES)
        if dc_name is None:
            raise ArtifactError(
                f"unregistered dataclass type {type(value).__name__!r}; "
                f"list it in repro.experiments.artifacts._DATACLASS_TYPES"
            )
        return {
            _KIND: "dataclass",
            "type": dc_name,
            "fields": {
                f.name: encode(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    raise ArtifactError(
        f"cannot serialize {type(value).__name__!r} in an experiment "
        f"artifact; register the type or store plain data"
    )


def decode(value: Any) -> Any:
    """Inverse of :func:`encode`."""
    if isinstance(value, list):
        return [decode(v) for v in value]
    if not isinstance(value, dict):
        return value
    kind = value.get(_KIND)
    if kind is None:
        return {k: decode(v) for k, v in value.items()}
    if kind == "float":
        return float(value["value"])
    if kind == "complex":
        return complex(decode(value["real"]), decode(value["imag"]))
    if kind == "ndarray":
        return _decode_ndarray(value)
    if kind == "tuple":
        return tuple(decode(v) for v in value["items"])
    if kind == "mapping":
        return {decode(k): decode(v) for k, v in value["items"]}
    if kind == "enum":
        cls = _load_type(_ENUM_TYPES, value["type"])
        return cls[value["name"]]
    if kind == "dataclass":
        cls = _load_type(_DATACLASS_TYPES, value["type"])
        return cls(**{k: decode(v) for k, v in value["fields"].items()})
    raise ArtifactError(f"unknown artifact tag {kind!r}")


@dataclass
class ExperimentResult:
    """A named bundle of series/values -- and a durable artifact.

    ``preset``/``params`` are provenance stamped by the registry when
    the experiment runs through a spec; both survive serialization.
    """

    name: str
    data: dict[str, Any] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    preset: str | None = None
    params: dict[str, Any] | None = None

    def __getitem__(self, key: str) -> Any:
        try:
            return self.data[key]
        except KeyError:
            available = ", ".join(repr(k) for k in self.data) or "<none>"
            raise KeyError(
                f"experiment {self.name!r} has no data key {key!r}; "
                f"available keys: {available}"
            ) from None

    def keys(self) -> tuple[str, ...]:
        return tuple(self.data)

    # -- rendering -----------------------------------------------------
    def render(self) -> str:
        """Paper-style table, driven from the artifact alone."""
        from repro.experiments.registry import get_spec

        return get_spec(self.name).format(self)

    # -- serialization -------------------------------------------------
    def to_json(self) -> str:
        """Deterministic JSON: same run, same bytes."""
        doc = {
            "artifact": ARTIFACT_TAG,
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "preset": self.preset,
            "params": encode(self.params),
            "notes": list(self.notes),
            "data": encode(self.data),
        }
        # No sort_keys: insertion order is deterministic for a seeded
        # run and render() depends on it (tables print in data order).
        return json.dumps(doc, indent=2, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("artifact") != ARTIFACT_TAG:
            raise ArtifactError(
                f"not a {ARTIFACT_TAG} artifact (missing/else 'artifact' tag)"
            )
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ArtifactError(
                f"artifact schema_version {version!r} is not supported by "
                f"this build (expected {SCHEMA_VERSION})"
            )
        try:
            return cls(
                name=doc["name"],
                data=decode(doc["data"]),
                notes=list(doc.get("notes", [])),
                preset=doc.get("preset"),
                params=decode(doc.get("params")),
            )
        except ArtifactError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            # A missing key, an array that does not fit its shape, an
            # unknown dtype, enum member or dataclass field.
            raise ArtifactError(
                f"invalid content ({type(exc).__name__}: {exc})"
            ) from exc

    def save(self, path: str | Path) -> Path:
        """Write the artifact to ``path`` atomically (parents created).

        Goes through :func:`repro.core.atomicio.atomic_write_text`
        (tempfile in the destination directory + ``os.replace``), so a
        crash mid-save -- even ``SIGKILL`` -- can never leave a
        truncated artifact at ``path``; set ``REPRO_FSYNC=1`` to also
        fsync for full crash-consistency.
        """
        return atomic_write_text(path, self.to_json() + "\n")

    def save_in(self, out_dir: str | Path) -> Path:
        """Write to ``out_dir/<name>.json`` (the run-directory layout)."""
        return self.save(Path(out_dir) / f"{self.name}.json")

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentResult":
        """Load from disk; malformed content names the offending path.

        A truncated or otherwise invalid file raises
        :class:`ArtifactError` carrying ``path`` (never a bare
        ``JSONDecodeError``), so a batch loader can report which
        artifact is damaged.  ``FileNotFoundError`` passes through.
        """
        source = Path(path)
        try:
            return cls.from_json(source.read_text())
        except ArtifactError as exc:
            raise ArtifactError(f"artifact {source}: {exc}") from exc
