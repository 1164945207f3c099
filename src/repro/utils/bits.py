"""Bitstring helpers shared across the library.

Convention (matches :mod:`repro.circuits.circuit` and the paper's Figure 6):
bitstrings are written in **IBM order** — classical bit ``c`` sits at string
position ``n - 1 - c``, so bit 0 is the rightmost character.  An integer
``i`` encodes bit ``c`` as ``(i >> c) & 1``; ``format(i, "0{n}b")`` therefore
prints the string directly in IBM order.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "MAX_CODE_BITS",
    "index_to_bitstring",
    "bitstring_to_index",
    "extract_bits",
    "bit_positions",
    "all_bitstrings",
    "hamming_distance",
    "indices_to_bit_array",
    "bit_array_to_indices",
    "bit_array_to_strings",
    "strings_to_codes",
    "codes_to_strings",
    "gather_code_bits",
    "group_code_sums",
]

#: Widest outcome register an ``int64`` outcome code can hold.
MAX_CODE_BITS = 63


def index_to_bitstring(index: int, num_bits: int) -> str:
    """Render integer ``index`` as an ``num_bits``-character bitstring."""
    if index < 0 or index >= (1 << num_bits):
        raise ValueError(f"index {index} out of range for {num_bits} bits")
    return format(index, f"0{num_bits}b")


def bitstring_to_index(bits: str) -> int:
    """Parse a bitstring back to its integer encoding."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"not a bitstring: {bits!r}")
    return int(bits, 2)


def bit_positions(bits: str) -> Tuple[int, ...]:
    """Return the bit indices (IBM order) that are set in ``bits``."""
    n = len(bits)
    return tuple(n - 1 - i for i, c in enumerate(bits) if c == "1")


def extract_bits(bits: str, positions: Sequence[int]) -> str:
    """Project ``bits`` onto ``positions`` (bit indices, IBM order).

    The output string lists the requested bits from the highest position to
    the lowest, i.e. it is itself in IBM order over the sub-register.  For
    example with ``bits="110"`` (Q2=1, Q1=1, Q0=0) and ``positions=(1, 0)``,
    the result is ``"10"`` — exactly the marginal projection used in the
    paper's reconstruction step (Fig. 6, step 1).
    """
    n = len(bits)
    ordered = sorted(positions, reverse=True)
    chars: List[str] = []
    for pos in ordered:
        if pos < 0 or pos >= n:
            raise ValueError(f"bit position {pos} out of range for {n} bits")
        chars.append(bits[n - 1 - pos])
    return "".join(chars)


def all_bitstrings(num_bits: int) -> List[str]:
    """All ``2**num_bits`` bitstrings in ascending integer order."""
    return [index_to_bitstring(i, num_bits) for i in range(1 << num_bits)]


def hamming_distance(a: str, b: str) -> int:
    """Number of differing positions between equal-length bitstrings."""
    if len(a) != len(b):
        raise ValueError("bitstrings must have equal length")
    return sum(1 for x, y in zip(a, b) if x != y)


def indices_to_bit_array(indices: np.ndarray, num_bits: int) -> np.ndarray:
    """Vectorised integer -> bit-matrix conversion.

    Returns an array of shape ``(len(indices), num_bits)`` whose column ``c``
    holds bit ``c`` (so column 0 is the *least* significant bit).
    """
    indices = np.asarray(indices, dtype=np.int64)
    shifts = np.arange(num_bits, dtype=np.int64)
    return ((indices[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def bit_array_to_indices(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`indices_to_bit_array`."""
    bits = np.asarray(bits)
    num_bits = bits.shape[1]
    weights = (1 << np.arange(num_bits, dtype=np.int64))
    return bits.astype(np.int64) @ weights


def bit_array_to_strings(bits: np.ndarray) -> List[str]:
    """Convert a bit matrix (column ``c`` = bit ``c``) to IBM-order strings."""
    bits = np.asarray(bits)
    return codes_to_strings(bit_array_to_indices(bits), bits.shape[1])


def strings_to_codes(keys: Sequence[str], num_bits: int) -> np.ndarray:
    """Vectorised bitstring -> int64 outcome-code conversion (with validation).

    Every key must be exactly ``num_bits`` characters of ``0``/``1`` (IBM
    order); a :class:`ValueError` is raised otherwise.  This is the single
    string-parsing primitive of the data plane — everything past it works
    on integer codes.
    """
    if num_bits < 1 or num_bits > MAX_CODE_BITS:
        raise ValueError(
            f"outcome width must be in 1..{MAX_CODE_BITS}, got {num_bits}"
        )
    keys = list(keys)
    if not keys:
        return np.empty(0, dtype=np.int64)
    try:
        buffer = np.frombuffer("".join(keys).encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError as exc:
        raise ValueError(f"not a bitstring outcome: {exc.object!r}") from exc
    if buffer.size != len(keys) * num_bits:
        raise ValueError(f"outcomes are not all {num_bits}-bit")
    chars = buffer.reshape(len(keys), num_bits)
    invalid = (chars != ord("0")) & (chars != ord("1"))
    if invalid.any():
        bad = keys[int(np.flatnonzero(invalid.any(axis=1))[0])]
        raise ValueError(f"not a bitstring outcome: {bad!r}")
    # The string's leftmost character is the highest bit (IBM order).
    weights = 1 << np.arange(num_bits - 1, -1, -1, dtype=np.int64)
    return (chars == ord("1")).astype(np.int64) @ weights


def codes_to_strings(codes: np.ndarray, num_bits: int) -> List[str]:
    """Vectorised int64 outcome-code -> IBM-order bitstring conversion."""
    if num_bits < 1 or num_bits > MAX_CODE_BITS:
        raise ValueError(
            f"outcome width must be in 1..{MAX_CODE_BITS}, got {num_bits}"
        )
    codes = np.asarray(codes, dtype=np.int64)
    shifts = np.arange(num_bits - 1, -1, -1, dtype=np.int64)
    chars = (((codes[:, None] >> shifts[None, :]) & 1) + ord("0")).astype(
        np.uint8
    )
    text = chars.tobytes().decode("ascii")
    return [text[i : i + num_bits] for i in range(0, len(text), num_bits)]


def group_code_sums(
    codes: np.ndarray, weights: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sum ``weights`` by outcome code; returns sorted unique codes + sums.

    Sort-based grouping (argsort + ``np.add.reduceat``) rather than
    ``np.unique(return_inverse=True)``, which on high-cardinality int64
    data is an order of magnitude slower than a plain sort on current
    numpy.  This is the group-sum primitive behind marginalisation,
    histogram merging, and EDM pooling.
    """
    codes = np.asarray(codes, dtype=np.int64)
    weights = np.asarray(weights)
    if codes.size == 0:
        return codes, weights.astype(np.float64)
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    boundaries = np.flatnonzero(
        np.concatenate(([True], ordered[1:] != ordered[:-1]))
    )
    return ordered[boundaries], np.add.reduceat(weights[order], boundaries)


def gather_code_bits(codes: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Project outcome codes onto ``positions`` (bit indices, ascending).

    Bit ``j`` of each output code is the value of the ``j``-th smallest
    position — the array twin of :func:`extract_bits`, and the projection
    step of the paper's reconstruction (Fig. 6, step 1).
    """
    codes = np.asarray(codes, dtype=np.int64)
    projected = np.zeros(len(codes), dtype=np.int64)
    for j, position in enumerate(sorted(positions)):
        projected |= ((codes >> position) & 1) << j
    return projected
