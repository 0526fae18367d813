"""Systematic erasure coding over encoded chunk frames.

A chunk's wire frame is split into ``k`` equal-size data fragments
(zero-padded so the frame length need not divide by ``k``) and extended
with ``m`` parity fragments.  Any ``k`` of the ``k + m`` fragments
reconstruct the frame exactly, so a fetch can race all sources and keep
whichever ``k`` arrive first: tail latency becomes the k-th order
statistic instead of the slowest single source, and storage overhead is
``(k + m) / k`` instead of the ``1 + r`` of full replication.

Two code paths, numpy and the standard library only:

* ``m == 1`` -- single XOR parity (RAID-5 style), vectorised with
  ``np.bitwise_xor``;
* ``m >= 2`` -- a systematic Reed-Solomon code over GF(256) built from a
  Vandermonde matrix ``V`` (points ``0..n-1``, polynomial ``0x11d``) as
  ``G = V @ inv(V[:k])``.  The top ``k`` rows of ``G`` are the identity
  (data fragments are verbatim frame slices) and *any* ``k`` rows are
  invertible, which is the MDS property the fastest-k-of-n fetch relies
  on.  Decoding needs ``inv(G[held])``, which equals
  ``V[:k] @ inv(V[held])`` -- built from the ``k`` held Vandermonde rows
  alone, ``k x k`` work whatever ``m`` is -- and applies only the rows
  that belong to *lost* data fragments; the ones that arrived are
  verbatim frame slices and are copied.

Multiplying a fragment by a GF(256) scalar is one byte-for-byte lookup
through that scalar's row of a 256 x 256 product table.  How the
arithmetic is carried out is not part of the code: fragments are
bit-identical whichever way the products are formed.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = ["stripe_frame", "reassemble", "fragment_nbytes", "ErasureError"]

#: Largest supported ``k + m`` (GF(256) has 255 nonzero points plus 0).
MAX_FRAGMENTS = 256


class ErasureError(ValueError):
    """Invalid stripe geometry or insufficient fragments to reassemble."""


# -- GF(256) arithmetic tables (polynomial 0x11d, generator 2) ---------------

_EXP = np.zeros(512, dtype=np.uint8)
_LOG = np.zeros(256, dtype=np.int32)
#: ``_MUL[a, b] == a * b`` in GF(256); 64 KB.  Row ``c`` is the whole
#: "multiply by c" map, which is what makes a fragment-wide multiply one
#: table lookup per byte.
_MUL = np.zeros((256, 256), dtype=np.uint8)


def _build_tables() -> None:
    x = 1
    for i in range(255):
        _EXP[i] = x
        _LOG[x] = i
        x <<= 1
        if x & 0x100:
            x ^= 0x11D
    # Duplicate so exp lookups never need an explicit mod 255.
    _EXP[255:510] = _EXP[:255]
    # Row and column 0 stay zero: log(0) does not exist.
    _MUL[1:, 1:] = _EXP[_LOG[1:, None] + _LOG[None, 1:]]


_build_tables()


def _gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return int(_EXP[int(_LOG[a]) + int(_LOG[b])])


def _gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("GF(256) inverse of 0")
    return int(_EXP[255 - int(_LOG[a])])


def _gf_mul_vec(c: int, vec: np.ndarray) -> np.ndarray:
    """Multiply every byte of ``vec`` by the GF scalar ``c``.

    ``bytes.translate`` is the table lookup: it walks the bytes in C and
    allocates the product only, where ``ndarray.take`` first widens the
    ``uint8`` indices to ``intp`` -- eight times the fragment -- and
    runs 3-4x slower for it.  The result is for reading only: it is a
    read-only array, or ``vec`` itself when ``c == 1``.
    """
    if c == 0:
        return np.zeros_like(vec)
    if c == 1:
        return vec
    return np.frombuffer(vec.tobytes().translate(_MUL[c].tobytes()), dtype=np.uint8)


def _gf_dot(coeffs: Sequence[int], rows: Sequence[np.ndarray]) -> np.ndarray:
    """``XOR_j coeffs[j] * rows[j]``: one row of a GF(256) matrix product."""
    acc = np.zeros(len(rows[0]), dtype=np.uint8)
    for c, row in zip(coeffs, rows):
        if c:
            acc ^= _gf_mul_vec(int(c), row)
    return acc


def _gf_matmul(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """GF(256) matrix product ``mat @ rows`` (mat r x k, rows k x width)."""
    return np.stack([_gf_dot(coeffs, rows) for coeffs in mat])


def _gf_inv_matrix(mat: np.ndarray) -> np.ndarray:
    """Invert a k x k GF(256) matrix via Gauss-Jordan elimination."""
    k = mat.shape[0]
    aug = np.concatenate(
        [mat.astype(np.uint8), np.eye(k, dtype=np.uint8)], axis=1
    )
    for col in range(k):
        pivot = next(
            (r for r in range(col, k) if aug[r, col] != 0), None
        )
        if pivot is None:
            raise ErasureError("singular fragment matrix (duplicate rows?)")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        inv = _gf_inv(int(aug[col, col]))
        aug[col] = _gf_mul_vec(inv, aug[col])
        for r in range(k):
            if r != col and aug[r, col] != 0:
                aug[r] ^= _gf_mul_vec(int(aug[r, col]), aug[col])
    return aug[:, k:]


def _vandermonde(points: Sequence[int], k: int) -> np.ndarray:
    """Vandermonde rows ``[1, x, x^2, ..., x^(k-1)]``, one per point."""
    v = np.zeros((len(points), k), dtype=np.uint8)
    for r, x in enumerate(points):
        acc = 1
        for j in range(k):
            v[r, j] = acc
            acc = _gf_mul(acc, x)
    return v


def _generator_matrix(k: int, m: int) -> np.ndarray:
    """Systematic MDS generator: ``G = V @ inv(V[:k])`` for Vandermonde V.

    The plain Vandermonde points ``0..n-1`` are distinct, so every k x k
    submatrix of V is invertible; right-multiplying by ``inv(V[:k])``
    makes the top k rows the identity while preserving that property.
    """
    v = _vandermonde(range(k + m), k)
    top_inv = _gf_inv_matrix(v[:k])
    return _gf_matmul(v, np.ascontiguousarray(top_inv))


_GEN_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _generator(k: int, m: int) -> np.ndarray:
    key = (k, m)
    g = _GEN_CACHE.get(key)
    if g is None:
        g = _GEN_CACHE[key] = _generator_matrix(k, m)
    return g


# -- public API --------------------------------------------------------------


def _check_geometry(k: int, m: int) -> None:
    if k < 1:
        raise ErasureError(f"stripe needs k >= 1 data fragments, got k={k}")
    if m < 0:
        raise ErasureError(f"stripe needs m >= 0 parity fragments, got m={m}")
    if k + m > MAX_FRAGMENTS:
        raise ErasureError(
            f"stripe width k+m={k + m} exceeds GF(256) limit {MAX_FRAGMENTS}"
        )


def fragment_nbytes(frame_nbytes: int, k: int) -> int:
    """Size of each fragment: the frame split k ways, rounded up."""
    if frame_nbytes <= 0:
        raise ErasureError(f"frame must be non-empty, got {frame_nbytes} bytes")
    return -(-frame_nbytes // k)


def stripe_frame(frame: bytes | bytearray | memoryview, k: int, m: int) -> list[bytes]:
    """Split ``frame`` into ``k`` data + ``m`` parity fragments.

    Fragments are equal-size (``ceil(len(frame) / k)``); the last data
    fragment is zero-padded.  Fragment ``i < k`` is the verbatim frame
    slice (systematic code), fragments ``k..k+m-1`` are parity.
    """
    _check_geometry(k, m)
    view = memoryview(frame)
    frame_nbytes = view.nbytes
    frag = fragment_nbytes(frame_nbytes, k)
    data = np.zeros((k, frag), dtype=np.uint8)
    flat = np.frombuffer(view, dtype=np.uint8)
    data.reshape(-1)[:frame_nbytes] = flat
    fragments = [data[i].tobytes() for i in range(k)]
    if m == 0:
        return fragments
    if m == 1:
        fragments.append(np.bitwise_xor.reduce(data, axis=0).tobytes())
        return fragments
    fragments.extend(
        _gf_dot(coeffs, data).tobytes() for coeffs in _generator(k, m)[k:]
    )
    return fragments


def reassemble(
    fragments: Mapping[int, bytes | bytearray | memoryview],
    k: int,
    m: int,
    frame_nbytes: int,
    out: bytearray | memoryview | None = None,
) -> tuple[bytearray | memoryview, bool]:
    """Rebuild the original frame from any ``k`` fragments.

    ``fragments`` maps fragment index (``0..k+m-1``) to its bytes.  At
    least ``k`` distinct indices must be present; extras are ignored
    (the ``k`` lowest indices are preferred, which keeps the common
    all-data case on the pure-copy path).  Returns ``(buffer,
    used_parity)`` where ``buffer`` is ``out`` if given (must hold
    ``frame_nbytes``) else a fresh ``bytearray``, and ``used_parity``
    says whether a GF/XOR decode was needed.
    """
    _check_geometry(k, m)
    if frame_nbytes <= 0:
        raise ErasureError(f"frame must be non-empty, got {frame_nbytes} bytes")
    frag = fragment_nbytes(frame_nbytes, k)
    have = sorted(i for i in fragments if 0 <= i < k + m)
    if len(have) < k:
        raise ErasureError(
            f"need {k} fragments to reassemble, have {len(have)} of {k + m}"
        )
    use = have[:k]
    for i in use:
        if memoryview(fragments[i]).nbytes != frag:
            raise ErasureError(
                f"fragment {i} is {memoryview(fragments[i]).nbytes} bytes, "
                f"expected {frag}"
            )
    if out is None:
        out = bytearray(frame_nbytes)
    dst = memoryview(out)
    if dst.nbytes != frame_nbytes:
        raise ErasureError(
            f"output buffer is {dst.nbytes} bytes, expected {frame_nbytes}"
        )

    # Data fragments are verbatim frame slices (systematic code): the
    # ones that arrived go straight to their place, and only the lost
    # ones are rebuilt -- into one fragment-sized accumulator each, never
    # a second copy of the frame.
    def place(i: int, row) -> None:
        pos = i * frag
        end = min(pos + frag, frame_nbytes)
        if end > pos:  # ragged frames can leave the last fragments all padding
            dst[pos:end] = row[: end - pos]

    for i in use:
        if i < k:
            place(i, memoryview(fragments[i]))
    lost = [i for i in range(k) if i not in use]
    if not lost:
        return out, False

    rows = [np.frombuffer(fragments[i], dtype=np.uint8) for i in use]
    if m == 1:
        # XOR parity: the one missing data fragment is the XOR of the rest.
        decode = np.ones((len(lost), k), dtype=np.uint8)
    else:
        # Held rows -> lost data rows: inv(G[use]) == V[:k] @ inv(V[use]),
        # so only the k held Vandermonde rows are inverted, whatever m is.
        held_inv = np.ascontiguousarray(_gf_inv_matrix(_vandermonde(use, k)))
        decode = _gf_matmul(_vandermonde(lost, k), held_inv)
    for i, coeffs in zip(lost, decode):
        place(i, _gf_dot(coeffs, rows))
    return out, True
