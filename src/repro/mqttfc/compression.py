"""Optional zlib compression for MQTTFC payloads (paper §IV).

Compressed payloads are self-describing: a 1-byte flag (``0`` = raw, ``1`` =
zlib) followed by the (possibly compressed) body, so the receiver never needs
out-of-band knowledge of whether compression was enabled on the sender.
Compression is skipped when the payload is below a configurable threshold or
when compressing did not actually shrink it (dense float weights often barely
compress), in which case the raw flag is used — this matches the paper's
"for larger payloads, a compression mechanism using zlib" wording.

The deflate stream is encoded with the ``Z_HUFFMAN_ONLY`` strategy.  Float32
model weights have almost no repeated byte strings, so deflate's LZ77 match
search finds next to nothing on them yet costs most of the encoder's time;
the savings come from entropy-coding the skewed exponent bytes, which
Huffman-only keeps.  On the scenario registry's payloads it keeps nearly all
of the default strategy's savings (0.928 of the input against 0.925 at
level 6) in well under half the time; ``docs/performance.md`` has the
measurement.  The output is still a standard zlib stream that plain
``zlib.decompress`` inflates, and with Huffman-only the compression level
does not change the bytes, so there is no level to choose.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.mqttfc.serialization import PayloadFrame
from repro.utils.validation import require_positive

__all__ = [
    "CompressionConfig",
    "compress_payload",
    "compress_frame",
    "decompress_payload",
    "CompressionError",
]

_FLAG_RAW = b"\x00"
_FLAG_ZLIB = b"\x01"


class CompressionError(ValueError):
    """Raised when a compressed payload cannot be decoded."""


def _deflate(data: bytes) -> bytes:
    """Huffman-only deflate of ``data`` as a standard zlib stream."""
    encoder = zlib.compressobj(
        zlib.Z_DEFAULT_COMPRESSION, zlib.DEFLATED, zlib.MAX_WBITS, 8, zlib.Z_HUFFMAN_ONLY
    )
    return encoder.compress(data) + encoder.flush()


@dataclass(frozen=True)
class CompressionConfig:
    """Compression policy for an MQTTFC endpoint.

    Attributes
    ----------
    enabled:
        Master switch; when False every payload is sent raw (flag 0).
    min_bytes:
        Payloads smaller than this are never compressed — the zlib header and
        CPU cost outweigh any savings for small coordination messages.
    """

    enabled: bool = True
    min_bytes: int = 1024

    def __post_init__(self) -> None:
        require_positive(self.min_bytes, "min_bytes", strict=False)


def compress_payload(data: bytes, config: CompressionConfig | None = None) -> bytes:
    """Wrap ``data`` with the compression flag, compressing if worthwhile."""
    config = config or CompressionConfig()
    if not config.enabled or len(data) < config.min_bytes:
        return _FLAG_RAW + data
    compressed = _deflate(data)
    if len(compressed) >= len(data):
        return _FLAG_RAW + data
    return _FLAG_ZLIB + compressed


def compress_frame(frame: PayloadFrame, config: CompressionConfig | None = None) -> PayloadFrame:
    """Frame-preserving :func:`compress_payload`.

    When compression is skipped (disabled, below the threshold, or not
    worthwhile) the result is the input frame with the raw flag *prepended as
    a segment* — the model-parameter segments keep aliasing their source
    arrays and nothing is copied.  Only a successful compression materializes
    the frame (zlib needs the contiguous stream anyway) and returns a
    two-segment ``flag + compressed`` frame.  The wire bytes are identical to
    ``compress_payload(frame.tobytes(), config)``.
    """
    config = config or CompressionConfig()
    if not config.enabled or frame.nbytes < config.min_bytes:
        return PayloadFrame([_FLAG_RAW, *frame.segments])
    data = frame.tobytes()
    compressed = _deflate(data)
    if len(compressed) >= len(data):
        return PayloadFrame([_FLAG_RAW, *frame.segments])
    return PayloadFrame([_FLAG_ZLIB, compressed])


def decompress_payload(data: "bytes | memoryview", copy: bool = True) -> "bytes | memoryview":
    """Undo :func:`compress_payload`.

    With ``copy=False`` an uncompressed body comes back as a ``memoryview``
    aliasing ``data`` (no copy); compressed bodies always inflate into fresh
    bytes.
    """
    if len(data) < 1:
        raise CompressionError("empty payload cannot carry a compression flag")
    view = memoryview(data)
    flag, body = bytes(view[:1]), view[1:]
    if flag == _FLAG_RAW:
        return bytes(body) if copy else body
    if flag == _FLAG_ZLIB:
        try:
            return zlib.decompress(body)
        except zlib.error as exc:
            raise CompressionError(f"corrupt zlib payload: {exc}") from exc
    raise CompressionError(f"unknown compression flag byte {flag!r}")
