"""Canonical digests: the content-addressing scheme of the store.

Every persisted artifact is keyed by the SHA-256 of a *canonical JSON*
rendering of the parameters that generated it.  Canonical means:

* keys sorted, no whitespace — formatting can never change a digest;
* ``allow_nan=False`` — NaN/Infinity have no canonical JSON form and
  would make digests non-portable across JSON implementations;
* plain data only — anything that does not round-trip through JSON is a
  :class:`~repro.exceptions.ConfigurationError`, because a digest of a
  lossy rendering would alias distinct configurations.

Digests also *derive seeds*: :func:`seed_from_digest` folds a digest
into a :class:`numpy.random.SeedSequence` entropy list, giving every
sweep point an independent seed root that depends only on the point's
own identity — never on its index in the sweep, so inserting a value
into a sweep cannot reshuffle the seeds of existing points (the property
resumable sweeps rely on).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "NUMERICS_VERSION",
    "STORE_FORMAT",
    "canonical_json",
    "digest_hex",
    "digest_words",
    "seed_from_digest",
]

#: Version tag embedded in every digested key and record manifest.  Bump
#: it when the record layout or keying scheme changes incompatibly: old
#: records then simply stop matching (read as absent) instead of being
#: misinterpreted.
STORE_FORMAT = 1

#: Version of the engine's numerics: the bits the counting engine draws
#: from for a given seed.  Sweep-point digests embed it, so results
#: computed under other numerics read as absent instead of mixing with
#: new ones.  Bump it with *any* change that alters engine
#: output bits (join kernel, quadrature nodes, sampling order, ...); the
#: golden-record pins in ``tests/scenario/test_golden_records.py`` fail
#: when the bits change under an unchanged version.  Version 2: the join
#: kernel is Gauss-Legendre quadrature at every k, with nodes from
#: ``scipy.special.roots_legendre``.
NUMERICS_VERSION = 2


def canonical_json(obj: Any) -> str:
    """The canonical JSON rendering of ``obj`` (sorted keys, compact).

    Raises
    ------
    ConfigurationError
        If ``obj`` contains values without an exact JSON form (NaN,
        Infinity, numpy arrays, arbitrary objects...).
    """
    try:
        return json.dumps(
            obj, sort_keys=True, separators=(",", ":"), allow_nan=False, ensure_ascii=True
        )
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"store keys must be canonical-JSON-serializable (plain numbers / "
            f"strings / lists / dicts, no NaN): {exc}"
        ) from exc


def digest_hex(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON rendering of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def digest_words(digest: str) -> tuple[int, ...]:
    """The digest as eight 32-bit words (SeedSequence entropy format)."""
    if len(digest) != 64:
        raise ConfigurationError(
            f"expected a 64-character SHA-256 hex digest, got {len(digest)} characters"
        )
    try:
        return tuple(int(digest[i : i + 8], 16) for i in range(0, 64, 8))
    except ValueError as exc:
        raise ConfigurationError(f"not a hex digest: {digest!r}") from exc


def seed_from_digest(digest: str, root_seed: int | None = None) -> int:
    """A deterministic seed derived from ``digest`` (and a root seed).

    The digest words and the root seed are folded into one
    :class:`numpy.random.SeedSequence`, so the result is independent for
    distinct digests, independent for distinct root seeds, and — unlike
    index-based ``spawn`` derivations — a pure function of the artifact's
    own identity.
    """
    entropy: list[int] = [] if root_seed is None else [int(root_seed)]
    entropy.extend(digest_words(digest))
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])
