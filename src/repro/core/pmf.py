"""Sparse probability mass functions over measurement outcomes.

A :class:`PMF` stores only *observed* (non-zero) outcomes — the key design
decision behind JigSaw's scalability (paper §7.1): the number of entries is
bounded by the number of trials, not by ``2**n``.

The storage format is **array-native**: a PMF is a pair of aligned numpy
arrays — ``codes`` (int64 outcome codes, sorted ascending) and ``probs``
(float64) — plus the register width.  A PMF is *not* a
``Mapping[str, float]``: it cannot be indexed or iterated by bitstring, so
a per-outcome string loop fails with ``TypeError`` instead of running
slowly.  Strings appear only at explicit edges — ``PMF(dict)`` (from
hardware-style counts) and :meth:`PMF.uniform`, :meth:`PMF.as_dict`,
:meth:`PMF.prob`, :meth:`PMF.restrict` and :meth:`PMF.top` /
:meth:`PMF.mode` — and the hot paths (marginalisation, metrics, sampling,
reconstruction) never materialise one.  Outcome codes use the IBM-order
encoding of :mod:`repro.utils.bits`: bit ``c`` of a code is classical bit
``c``, so ``format(code, "0{n}b")`` prints the bitstring directly.

A :class:`Marginal` pairs a local PMF with the global bit positions it
covers — the paper's "marginal" object ``m = [{outcome: prob}, [i0..ik]]``
(§4.3), produced by one Circuit with Partial Measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.payload import check_payload_version
from repro.exceptions import PayloadError, PMFError
from repro.utils.bits import (
    MAX_CODE_BITS,
    codes_to_strings,
    gather_code_bits,
    group_code_sums,
    strings_to_codes,
)

__all__ = ["PMF", "Marginal", "aligned_probs", "hellinger_pmfs", "require_pmf"]

#: A decoded payload whose probabilities sum to 1 within this distance
#: is kept as given: a normalized PMF sums to 1 only up to rounding, and
#: renormalizing it would move its values by an ulp.
_PAYLOAD_SUM_TOLERANCE = 1e-12


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_real(value: Any) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


class PMF:
    """An immutable sparse PMF over fixed-width bitstrings.

    Backed by aligned ``codes``/``probs`` arrays sorted by outcome code.
    Two PMFs are equal when their width, codes and probabilities are.
    """

    __slots__ = ("_codes", "_probs", "_num_bits")
    __hash__ = None  # type: ignore[assignment]  # equal by value

    def __init__(
        self,
        probabilities: Mapping[str, float],
        num_bits: Optional[int] = None,
        normalize: bool = True,
    ) -> None:
        if not probabilities:
            raise PMFError("a PMF needs at least one outcome")
        keys = list(probabilities)
        widths = {len(key) for key in keys}
        if len(widths) != 1:
            raise PMFError(f"inconsistent outcome widths: {sorted(widths)}")
        width = widths.pop()
        if num_bits is not None and num_bits != width:
            raise PMFError(f"outcomes are {width}-bit but num_bits={num_bits}")
        try:
            codes = strings_to_codes(keys, width)
        except ValueError as exc:
            raise PMFError(str(exc)) from exc
        values = np.fromiter(
            (float(probabilities[key]) for key in keys),
            dtype=np.float64,
            count=len(keys),
        )
        negative = np.flatnonzero(values < 0.0)
        if negative.size:
            index = int(negative[0])
            raise PMFError(
                f"negative probability for {keys[index]!r}: {values[index]}"
            )
        self._init_from_arrays(codes, values, width, normalize, dedupe=False)

    # ------------------------------------------------------------------
    # Array spine
    # ------------------------------------------------------------------

    def _init_from_arrays(
        self,
        codes: np.ndarray,
        probs: np.ndarray,
        num_bits: int,
        normalize: bool,
        dedupe: bool,
    ) -> None:
        """Shared tail of every constructor: sort, drop zeros, freeze.

        Arrays still identical to the inputs after filtering / sorting /
        normalising are copied before freezing, so a caller's writable
        array is never mutated (read-only inputs — e.g. another PMF's
        ``codes`` — are shared as-is).
        """
        in_codes, in_probs = codes, probs
        mask = probs > 0.0
        if not mask.all():
            codes = codes[mask]
            probs = probs[mask]
        if codes.size == 0:
            raise PMFError("all probabilities are zero")
        if codes.size > 1 and np.any(np.diff(codes) <= 0):
            if dedupe:
                codes, probs = group_code_sums(codes, probs)
            else:
                order = np.argsort(codes, kind="stable")
                codes = codes[order]
                probs = probs[order]
        if normalize:
            probs = probs / probs.sum()
            if not probs.all():
                # A mass too small beside the total underflows to zero,
                # and a PMF holds no zero probabilities.
                kept = probs > 0.0
                codes = codes[kept]
                probs = probs[kept]
        if codes is in_codes and codes.flags.writeable:
            codes = codes.copy()
        if probs is in_probs and probs.flags.writeable:
            probs = probs.copy()
        codes.flags.writeable = False
        probs.flags.writeable = False
        self._codes = codes
        self._probs = probs
        self._num_bits = num_bits

    @classmethod
    def from_codes(
        cls,
        codes: np.ndarray,
        probs: np.ndarray,
        num_bits: int,
        normalize: bool = True,
    ) -> "PMF":
        """Array-native constructor: aligned outcome codes + probabilities.

        The data-plane entry point — backends, the sampler, mitigation and
        reconstruction all build PMFs through here without ever touching a
        string.  Codes may arrive unsorted; duplicates are summed; zero
        probabilities are dropped.
        """
        if num_bits < 1 or num_bits > MAX_CODE_BITS:
            raise PMFError(
                f"outcome width must be in 1..{MAX_CODE_BITS}, got {num_bits}"
            )
        codes = np.asarray(codes, dtype=np.int64)
        probs = np.asarray(probs, dtype=np.float64)
        if codes.ndim != 1 or probs.ndim != 1 or codes.shape != probs.shape:
            raise PMFError("codes and probs must be aligned 1-d arrays")
        if codes.size == 0:
            raise PMFError("a PMF needs at least one outcome")
        if np.any(codes < 0) or (
            num_bits < MAX_CODE_BITS and np.any(codes >= (1 << num_bits))
        ):
            raise PMFError(f"outcome code out of range for {num_bits} bits")
        if np.any(probs < 0.0):
            index = int(np.flatnonzero(probs < 0.0)[0])
            raise PMFError(
                f"negative probability for code {int(codes[index])}: "
                f"{probs[index]}"
            )
        pmf = cls.__new__(cls)
        pmf._init_from_arrays(codes, probs, num_bits, normalize, dedupe=True)
        return pmf

    @property
    def codes(self) -> np.ndarray:
        """Outcome codes (int64, sorted ascending, read-only)."""
        return self._codes

    @property
    def probs(self) -> np.ndarray:
        """Probabilities aligned with :attr:`codes` (float64, read-only)."""
        return self._probs

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready serialization: ``{codes, probs, num_bits}`` lists."""
        return {
            "codes": [int(code) for code in self._codes],
            "probs": [float(prob) for prob in self._probs],
            "num_bits": self._num_bits,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "PMF":
        """Rebuild a PMF from :meth:`to_payload` output.

        Accepts an optional ``payload_version`` field (result payloads and
        the service's on-disk store stamp one; see
        :mod:`repro.core.payload`) and refuses unknown future versions.
        Decoded data comes from outside the process (a journal, a file),
        so a payload that is not a mapping, lacks a key, carries a
        non-integer code or width, or a non-finite probability raises
        :class:`~repro.exceptions.PayloadError`.  Probabilities that
        already sum to 1 (up to rounding) are kept bit for bit, so
        ``PMF.from_payload(pmf.to_payload()) == pmf``; any others are
        normalized.
        """
        if not isinstance(payload, Mapping):
            raise PayloadError(
                f"PMF payload must be a mapping, got {type(payload).__name__}"
            )
        check_payload_version(payload, what="PMF payload")
        keys = ("codes", "probs", "num_bits")
        missing = [key for key in keys if key not in payload]
        if missing:
            raise PayloadError(f"PMF payload lacks {', '.join(missing)}")
        codes, probs, num_bits = (
            payload["codes"], payload["probs"], payload["num_bits"]
        )
        if not _is_int(num_bits) or not 1 <= num_bits <= MAX_CODE_BITS:
            raise PayloadError(f"PMF payload has a bad num_bits: {num_bits!r}")
        if not isinstance(codes, list) or not isinstance(probs, list):
            raise PayloadError("PMF payload codes and probs must be lists")
        if not all(_is_int(c) and 0 <= c < 1 << num_bits for c in codes):
            raise PayloadError(
                f"PMF payload has a code that is not a {num_bits}-bit integer"
            )
        if not all(_is_finite_real(p) for p in probs):
            raise PayloadError(
                "PMF payload has a probability that is not a finite number"
            )
        probs = np.asarray(probs, dtype=np.float64)
        with np.errstate(over="ignore"):
            total = probs.sum()
        if not np.isfinite(total):
            raise PayloadError("PMF payload probabilities overflow")
        return cls.from_codes(
            np.asarray(codes, dtype=np.int64),
            probs,
            num_bits,
            normalize=abs(total - 1.0) > _PAYLOAD_SUM_TOLERANCE,
        )

    # ------------------------------------------------------------------
    # Constructors (string edges)
    # ------------------------------------------------------------------

    @classmethod
    def uniform(cls, outcomes: Iterable[str]) -> "PMF":
        """Uniform PMF over the given outcomes."""
        outcomes = list(outcomes)
        return cls({key: 1.0 for key in outcomes})

    # ------------------------------------------------------------------
    # Value protocol
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PMF):
            return NotImplemented
        return (
            self._num_bits == other._num_bits
            and np.array_equal(self._codes, other._codes)
            and np.array_equal(self._probs, other._probs)
        )

    def __len__(self) -> int:
        return len(self._codes)

    def prob(self, key: str) -> float:
        """Probability of bitstring ``key`` (0.0 when unobserved)."""
        if (
            not isinstance(key, str)
            or len(key) != self._num_bits
            or not set(key) <= {"0", "1"}
        ):
            return 0.0
        code = int(key, 2)
        index = int(np.searchsorted(self._codes, code))
        if index < len(self._codes) and self._codes[index] == code:
            return float(self._probs[index])
        return 0.0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_bits(self) -> int:
        return self._num_bits

    @property
    def support_size(self) -> int:
        """Number of observed (non-zero) outcomes — the paper's εT."""
        return len(self._codes)

    def top(self, count: int = 1) -> List[Tuple[str, float]]:
        """The ``count`` most probable outcomes, descending.

        Ties break on the smaller outcome code, which for fixed-width
        bitstrings is exactly the lexicographic order of the keys.
        """
        order = np.lexsort((self._codes, -self._probs))[:count]
        keys = codes_to_strings(self._codes[order], self._num_bits)
        return [
            (key, float(prob)) for key, prob in zip(keys, self._probs[order])
        ]

    def mode(self) -> str:
        """The single most probable outcome."""
        return self.top(1)[0][0]

    def total(self) -> float:
        return float(self._probs.sum())

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def normalized(self) -> "PMF":
        return PMF.from_codes(
            self._codes, self._probs, self._num_bits, normalize=True
        )

    def marginal(self, positions: Sequence[int]) -> "PMF":
        """Marginal PMF over ``positions`` (bit indices, IBM order).

        This is what "deriving the marginals from the global-PMF" means in
        the paper's §1 — the low-fidelity alternative to running a CPM.
        One bit-gather over the codes plus one group-sum; no strings.
        """
        positions = list(positions)
        if not positions:
            raise PMFError("marginal needs at least one position")
        for pos in positions:
            if not 0 <= pos < self._num_bits:
                raise PMFError(f"bit position {pos} out of range")
        if len(set(positions)) != len(positions):
            raise PMFError("duplicate positions in marginal")
        projected = gather_code_bits(self._codes, positions)
        grouped, sums = group_code_sums(projected, self._probs)
        return PMF.from_codes(grouped, sums, len(positions), normalize=True)

    def restrict(self, keys: Iterable[str]) -> "PMF":
        """Renormalised PMF over the intersection with ``keys``."""
        width = self._num_bits
        candidates = [
            key for key in keys if len(key) == width and set(key) <= {"0", "1"}
        ]
        selected = np.empty(0, dtype=np.int64)
        if candidates:
            wanted = strings_to_codes(candidates, width)
            indices = np.searchsorted(self._codes, wanted)
            indices = np.minimum(indices, len(self._codes) - 1)
            selected = np.unique(indices[self._codes[indices] == wanted])
        if selected.size == 0:
            raise PMFError("restriction has empty support")
        return PMF.from_codes(
            self._codes[selected], self._probs[selected], width, normalize=True
        )

    def as_dict(self) -> Dict[str, float]:
        """The bitstring-keyed view, rendered on each call (an edge)."""
        keys = codes_to_strings(self._codes, self._num_bits)
        return {key: float(prob) for key, prob in zip(keys, self._probs)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        preview = ", ".join(f"{k}: {v:.4f}" for k, v in self.top(3))
        return (
            f"PMF(bits={self._num_bits}, support={self.support_size}, "
            f"top=[{preview}])"
        )

    # ------------------------------------------------------------------
    # Pickling (``__slots__`` without ``__dict__``)
    # ------------------------------------------------------------------

    def __reduce__(self):
        return (
            _rebuild_pmf,
            (np.asarray(self._codes), np.asarray(self._probs), self._num_bits),
        )


def _rebuild_pmf(codes: np.ndarray, probs: np.ndarray, num_bits: int) -> PMF:
    """Pickle helper: rebuild without renormalising the stored arrays."""
    return PMF.from_codes(codes, probs, num_bits, normalize=False)


def aligned_probs(p: PMF, q: PMF) -> Tuple[np.ndarray, np.ndarray]:
    """Probabilities of ``p`` and ``q`` over the union of their supports.

    The sorted-support merge primitive behind the vectorised distribution
    metrics: both supports are already sorted, so the union is one sort of
    the concatenation (near-linear on two sorted runs) plus two
    ``searchsorted`` scatters — the cost tracks the observed supports,
    never ``2**n``.  PMFs of different widths raise :class:`PMFError`:
    their codes name different outcomes (code 1 is ``"1"`` in a 1-bit PMF
    but ``"01"`` in a 2-bit one).
    """
    if p.num_bits != q.num_bits:
        raise PMFError(
            f"cannot compare a {p.num_bits}-bit PMF with a "
            f"{q.num_bits}-bit one"
        )
    merged = np.concatenate([p.codes, q.codes])
    merged.sort(kind="stable")
    keep = np.empty(merged.size, dtype=bool)
    keep[0] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    union = merged[keep]
    p_aligned = np.zeros(union.size)
    q_aligned = np.zeros(union.size)
    p_aligned[np.searchsorted(union, p.codes)] = p.probs
    q_aligned[np.searchsorted(union, q.codes)] = q.probs
    return p_aligned, q_aligned


def require_pmf(value: Any, metric: str) -> PMF:
    """``value`` when it is a :class:`PMF`, else :class:`TypeError`.

    Every metric takes PMFs: a string-keyed dict would need a per-outcome
    loop, so it is refused here and converted at the edge with
    ``PMF(counts)`` instead.
    """
    if not isinstance(value, PMF):
        raise TypeError(
            f"{metric} takes a PMF, got {type(value).__name__}; "
            "convert a counts dict with PMF(counts)"
        )
    return value


def hellinger_pmfs(p: PMF, q: PMF) -> float:
    """Hellinger distance between two PMFs via the sorted-support merge.

    The single vectorised implementation behind both
    :func:`repro.metrics.distances.hellinger` and
    :func:`repro.core.reconstruction.hellinger_distance`.  It lives here —
    not in :mod:`repro.metrics` — so the reconstruction layer can share it
    without importing the metrics package (which imports this module).
    """
    p_aligned, q_aligned = aligned_probs(p, q)
    diff = np.sqrt(p_aligned) - np.sqrt(q_aligned)
    return float(np.sqrt(np.dot(diff, diff) / 2.0))


@dataclass(frozen=True)
class Marginal:
    """A local PMF plus the global bit positions it describes.

    ``qubits`` are positions in the global outcome string (for a fully
    measured program the classical bit of qubit ``q`` is ``q``, so these
    are simply the measured qubit indices).  ``pmf`` outcomes are IBM-order
    codes over those positions: bit ``j`` of a code is the value of the
    ``j``-th smallest position.  Equality compares ``qubits`` and ``pmf``
    by value.
    """

    qubits: Tuple[int, ...]
    pmf: PMF

    def __post_init__(self) -> None:
        ordered = tuple(sorted(int(q) for q in self.qubits))
        if len(set(ordered)) != len(ordered):
            raise PMFError("marginal qubits must be distinct")
        object.__setattr__(self, "qubits", ordered)
        if self.pmf.num_bits != len(ordered):
            raise PMFError(
                f"marginal PMF is {self.pmf.num_bits}-bit but covers "
                f"{len(ordered)} qubits"
            )

    @property
    def subset_size(self) -> int:
        return len(self.qubits)
