"""The run-ledger schema check the tests hold every ``metrics.json`` to.

No run reads a ledger back, so the check lives beside its tests:
:func:`load_ledger` reads a written ledger and validates it, and
:func:`validate_metrics` checks a payload in memory.
"""

import json
import math
from pathlib import Path
from typing import Any, Dict

from repro.errors import ConfigurationError
from repro.obs.ledger import LEDGER_SCHEMA, host_facts

#: Top-level keys every ledger payload must carry.
REQUIRED_KEYS = ("schema", "run", "executor", "experiments", "store", "spans")

#: The ``run`` section's memory figures (``repro.obs.ledger.peak_rss_mb``).
PEAK_KEYS = ("peak_rss_mb", "worker_peak_rss_mb")


def load_ledger(path: Path) -> Dict[str, Any]:
    """Read back a metrics.json, validating it against the schema."""
    payload = json.loads(Path(path).read_text())
    validate_metrics(payload)
    return payload


def validate_metrics(payload: Dict[str, Any]) -> None:
    """Raise :class:`ConfigurationError` unless ``payload`` is a valid ledger.

    Checked: schema id, required top-level keys, the optional ``host``
    section (``host_facts()``' keys and types, at least one core), the
    ``run`` section's peak RSS figures where present (non-negative sizes
    in MB), experiment entries with ``name``/``wall_s``, span nodes with
    ``name``/``wall_s`` recursively, and that no float anywhere is
    non-finite (strict-JSON guarantee).
    """
    if not isinstance(payload, dict):
        raise ConfigurationError("metrics payload must be a JSON object")
    missing = [key for key in REQUIRED_KEYS if key not in payload]
    if missing:
        raise ConfigurationError(f"metrics payload missing keys: {missing}")
    if payload["schema"] != LEDGER_SCHEMA:
        raise ConfigurationError(
            f"unknown metrics schema {payload['schema']!r} "
            f"(expected {LEDGER_SCHEMA!r})"
        )
    if "host" in payload:
        _check_host(payload["host"])
    _check_peaks(payload["run"])
    for entry in payload["experiments"]:
        if not isinstance(entry, dict) or "name" not in entry or "wall_s" not in entry:
            raise ConfigurationError(f"malformed experiment entry: {entry!r}")
    _check_spans(payload["spans"])
    _check_finite(payload, path="$")


def _check_host(host: Any) -> None:
    expected = host_facts()
    if not isinstance(host, dict) or any(
        type(host.get(key)) is not type(value) for key, value in expected.items()
    ):
        raise ConfigurationError(f"malformed host section: {host!r}")
    if host["usable_cores"] < 1:
        raise ConfigurationError(f"host.usable_cores must be >= 1: {host!r}")


def _check_peaks(run: Any) -> None:
    if not isinstance(run, dict):
        raise ConfigurationError(f"run section must be an object: {run!r}")
    for key in PEAK_KEYS:
        value = run.get(key, 0.0)
        if type(value) not in (int, float) or value < 0:
            raise ConfigurationError(f"run.{key} must be a size in MB: {value!r}")


def _check_spans(spans: Any) -> None:
    if not isinstance(spans, list):
        raise ConfigurationError("spans must be a list")
    for span in spans:
        if not isinstance(span, dict) or "name" not in span or "wall_s" not in span:
            raise ConfigurationError(f"malformed span node: {span!r}")
        _check_spans(span.get("children", []))


def _check_finite(value: Any, path: str) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigurationError(f"non-finite float at {path}")
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_finite(item, f"{path}[{i}]")
