"""Content-addressed artifact store for experiment results.

Results are keyed by the SHA-256 of ``(experiment name, fully resolved
parameters, schema version)`` — the complete input surface of a run, given
that every harness is a deterministic function of its parameters.  Re-running
an experiment with the same resolved parameters is therefore a cache hit,
which makes ``repro-experiment run all`` resumable (a crashed suite re-serves
the finished experiments instantly) and repeat invocations near-instant.

Artifacts live under ``~/.cache/repro`` by default; override with the
``REPRO_CACHE_DIR`` environment variable or the ``root`` argument.  Each
artifact is one pretty-printed JSON document (the
:meth:`~repro.experiments.reporting.ExperimentResult.to_json` form), so the
cache doubles as a browsable result archive::

    ~/.cache/repro/artifacts/fig14/ab12cd34....json

Loads go through :meth:`ExperimentResult.from_dict`, whose canonical
serialization guarantees a cached result exports byte-identically to the
fresh run that produced it.

The address deliberately contains **no code fingerprint** — harnesses are
assumed deterministic functions of their parameters under the current code.
After changing the simulator or an experiment, run with ``--no-cache`` or
clear the store; each artifact's manifest records the ``repro_version``
that produced it for post-hoc auditing.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from repro.experiments.reporting import (
    SCHEMA_VERSION,
    ExperimentResult,
    jsonify,
)

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro").expanduser()


def cache_key(experiment: str, params: Mapping[str, object],
              schema_version: int = SCHEMA_VERSION) -> str:
    """Content address of a run: experiment + resolved params + schema."""
    payload = json.dumps(
        {"experiment": experiment, "params": jsonify(dict(params)),
         "schema_version": schema_version},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


class ArtifactStore:
    """Filesystem-backed, content-addressed cache of experiment results."""

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = (Path(root).expanduser() if root is not None
                     else default_cache_root()) / "artifacts"
        self.hits = 0
        self.misses = 0

    # -- addressing -----------------------------------------------------------
    def key(self, experiment: str, params: Mapping[str, object]) -> str:
        return cache_key(experiment, params)

    def path(self, experiment: str, params: Mapping[str, object]) -> Path:
        return self.root / experiment / f"{self.key(experiment, params)}.json"

    # -- access ---------------------------------------------------------------
    def load(self, experiment: str,
             params: Mapping[str, object]) -> Optional[ExperimentResult]:
        """The cached result for (experiment, params), or None on a miss.

        An unreadable or schema-incompatible artifact counts as a miss (and
        is left in place for inspection), never an error — the caller just
        recomputes.
        """
        path = self.path(experiment, params)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            result = ExperimentResult.from_json(text)
        except (ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def save(self, result: ExperimentResult) -> Path:
        """Persist ``result`` atomically.

        The manifest must carry a ``cache_key`` (the runner computes it over
        the cache-relevant parameters; ad-hoc callers can use :meth:`key`).
        Deriving a fallback address here from the full parameter dict would
        store artifacts where no load — which keys on the cache-relevant
        subset — ever looks.
        """
        if result.manifest is None or not result.manifest.cache_key:
            raise ValueError(
                "result has no manifest.cache_key; only results addressed "
                "by their cache-relevant parameters (see ArtifactStore.key) "
                "are cacheable")
        manifest = result.manifest
        path = self.root / manifest.experiment / f"{manifest.cache_key}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        # Write-then-rename so concurrent runs never observe a torn file.
        handle = tempfile.NamedTemporaryFile(
            "w", dir=path.parent, suffix=".tmp", delete=False)
        try:
            with handle:
                handle.write(result.to_json())
            os.replace(handle.name, path)
        except BaseException:
            os.unlink(handle.name)
            raise
        return path

    # -- maintenance ----------------------------------------------------------
    def entries(self, experiment: Optional[str] = None) -> List[Path]:
        """Paths of every stored artifact, optionally for one experiment."""
        if not self.root.is_dir():
            return []
        directories = ([self.root / experiment] if experiment is not None
                       else sorted(child for child in self.root.iterdir()
                                   if child.is_dir()))
        paths: List[Path] = []
        for directory in directories:
            if directory.is_dir():
                paths.extend(sorted(directory.glob("*.json")))
        return paths

    def clear(self, experiment: Optional[str] = None) -> int:
        """Delete stored artifacts; returns the number removed."""
        removed = 0
        for path in self.entries(experiment):
            path.unlink()
            removed += 1
        return removed

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stored": len(self.entries())}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArtifactStore({str(self.root)!r})"


def _canonical_dumps(value) -> str:
    """The canonical encoding of an already-jsonified value."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _canonical_json(value) -> str:
    return _canonical_dumps(jsonify(value))


class CheckpointStore:
    """Raw-JSON sibling of :class:`ArtifactStore` for mid-run checkpoints.

    Where the artifact store holds *finished* :class:`ExperimentResult`
    documents, the checkpoint store holds arbitrary JSON payloads produced
    mid-run — completed fleet-shard metrics, capacity-search probe trails —
    keyed by the SHA-256 of their fully resolved parameters under a ``kind``
    namespace::

        <cache root>/checkpoints/fleet_shard/ab12cd34....json

    It shares the cache root (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``)
    and the store semantics: atomic write-then-rename saves, and any
    unreadable, torn, or corrupted entry counts as a plain miss so the
    caller just recomputes.  Each entry embeds a content digest of its
    payload; a checkpoint that decodes as JSON but fails the digest (e.g. a
    flipped byte) is rejected the same way a truncated file is.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = (Path(root).expanduser() if root is not None
                     else default_cache_root()) / "checkpoints"
        self.hits = 0
        self.misses = 0

    # -- addressing -----------------------------------------------------------
    def key(self, params: Mapping[str, object]) -> str:
        """Content address of a checkpoint: its resolved parameters."""
        digest = hashlib.sha256(
            _canonical_json(dict(params)).encode("utf-8"))
        return digest.hexdigest()[:24]

    def path(self, kind: str, params: Mapping[str, object]) -> Path:
        return self.root / kind / f"{self.key(params)}.json"

    # -- access ---------------------------------------------------------------
    def load(self, kind: str, params: Mapping[str, object]):
        """The stored payload for (kind, params), or None on a miss.

        Unreadable files, JSON that does not parse (a torn or truncated
        write), entries without the expected envelope, and payloads whose
        content digest does not match all count as misses — the shard or
        probe simply re-runs.
        """
        path = self.path(kind, params)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            document = json.loads(text)
            payload = document["payload"]
            digest = document["sha256"]
        except (ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        # A decoded payload is JSON-native already: no jsonify walk.
        expected = hashlib.sha256(
            _canonical_dumps(payload).encode("utf-8")).hexdigest()
        if digest != expected:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def save(self, kind: str, params: Mapping[str, object],
             payload) -> Path:
        """Persist ``payload`` atomically under (kind, params).

        ``params`` may hold tuples and non-str keys, as :meth:`key` accepts
        them; ``payload`` must be JSON-native already (str-keyed dicts,
        lists, strings, Python numbers, booleans and None), as
        :meth:`~repro.ssd.metrics.SimulationMetrics.to_state` emits it.  A
        payload whose canonical JSON does not decode back to an equal value
        (one holding a tuple, a non-str key or a NaN) raises
        :class:`TypeError` instead of being saved reshaped.
        """
        canonical = _canonical_dumps(payload)
        if json.loads(canonical) != payload:
            raise TypeError(
                f"{kind} checkpoint payload is not JSON-native: it does not "
                "decode back to an equal value (a tuple, a non-str key or a NaN?)")
        path = self.path(kind, params)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "kind": kind,
            "params": jsonify(dict(params)),
            "payload": payload,
            "sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        }
        handle = tempfile.NamedTemporaryFile(
            "w", dir=path.parent, suffix=".tmp", delete=False)
        try:
            with handle:
                # json.dumps encodes in C; json.dump would stream the same
                # bytes through the pure-Python encoder.
                handle.write(json.dumps(document))
            os.replace(handle.name, path)
        except BaseException:
            os.unlink(handle.name)
            raise
        return path

    # -- maintenance ----------------------------------------------------------
    def entries(self, kind: Optional[str] = None) -> List[Path]:
        """Paths of every stored checkpoint, optionally for one kind."""
        if not self.root.is_dir():
            return []
        directories = ([self.root / kind] if kind is not None
                       else sorted(child for child in self.root.iterdir()
                                   if child.is_dir()))
        paths: List[Path] = []
        for directory in directories:
            if directory.is_dir():
                paths.extend(sorted(directory.glob("*.json")))
        return paths

    def clear(self, kind: Optional[str] = None) -> int:
        """Delete stored checkpoints; returns the number removed."""
        removed = 0
        for path in self.entries(kind):
            path.unlink()
            removed += 1
        return removed

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stored": len(self.entries())}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CheckpointStore({str(self.root)!r})"
