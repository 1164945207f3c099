"""Result-payload versioning.

Serialized results — :meth:`~repro.core.jigsaw.JigSawResult.to_dict`
(JigSaw and JigSaw-M alike) and every record the service's
:class:`~repro.service.tier.SegmentedResultStore` journals to disk — carry
a ``"payload_version"`` field so the on-disk format can evolve: a reader
confronted with a record written by a newer library refuses it loudly
instead of misinterpreting it.

Version history:

* **1** — the initial versioned format: distributions as
  ``{codes, probs, num_bits}`` arrays (PR 3's array-native payloads).
  Records written before versioning existed are structurally identical,
  so a *missing* field is accepted and read as version 1.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.exceptions import PayloadError

__all__ = ["PAYLOAD_VERSION", "check_payload_version"]

#: The payload format this library writes (and the newest it reads).
PAYLOAD_VERSION = 1


def check_payload_version(payload: Mapping[str, Any], what: str = "payload") -> int:
    """Validate a payload's ``payload_version``; returns the version read.

    A missing field is accepted as version 1 (the pre-versioning format is
    structurally identical to version 1).  Anything other than a supported
    integer raises :class:`~repro.exceptions.PayloadError` — unknown
    *future* versions in particular must fail here rather than be
    half-parsed downstream.
    """
    version = payload.get("payload_version", PAYLOAD_VERSION)
    if not isinstance(version, int) or isinstance(version, bool):
        raise PayloadError(
            f"{what} has a non-integer payload_version: {version!r}"
        )
    if not 1 <= version <= PAYLOAD_VERSION:
        raise PayloadError(
            f"{what} has payload_version {version}; this library reads "
            f"versions 1..{PAYLOAD_VERSION}"
        )
    return version
