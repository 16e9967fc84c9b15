"""Tests for MQTTFC compression and payload batching."""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mqttfc.batching import BatchAssembler, BatchChunk, BatchEncoder, BatchReassemblyError
from repro.mqttfc.compression import (
    CompressionConfig,
    CompressionError,
    compress_frame,
    compress_payload,
    decompress_payload,
)
from repro.mqttfc.serialization import PayloadFrame


class TestCompression:
    def test_roundtrip_compressible(self):
        data = b"abc" * 10_000
        wrapped = compress_payload(data, CompressionConfig(enabled=True))
        assert len(wrapped) < len(data)
        assert decompress_payload(wrapped) == data

    def test_small_payload_not_compressed(self):
        data = b"tiny"
        wrapped = compress_payload(data, CompressionConfig(enabled=True, min_bytes=1024))
        assert wrapped[0:1] == b"\x00"
        assert decompress_payload(wrapped) == data

    def test_disabled_compression(self):
        data = b"abc" * 10_000
        wrapped = compress_payload(data, CompressionConfig(enabled=False))
        assert wrapped[0:1] == b"\x00"
        assert len(wrapped) == len(data) + 1

    def test_incompressible_payload_falls_back_to_raw(self):
        data = np.random.default_rng(0).bytes(20_000)
        wrapped = compress_payload(data, CompressionConfig(enabled=True))
        assert decompress_payload(wrapped) == data
        assert len(wrapped) <= len(data) + 1

    def test_empty_payload_roundtrip(self):
        assert decompress_payload(compress_payload(b"")) == b""

    def test_unknown_flag_rejected(self):
        with pytest.raises(CompressionError):
            decompress_payload(b"\x07abc")

    def test_corrupt_zlib_body_rejected(self):
        with pytest.raises(CompressionError):
            decompress_payload(b"\x01notzlib")

    def test_empty_buffer_rejected(self):
        with pytest.raises(CompressionError):
            decompress_payload(b"")

    @given(st.binary(max_size=5000))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, data):
        wrapped = compress_payload(data, CompressionConfig(enabled=True, min_bytes=1))
        assert decompress_payload(wrapped) == data


def _float32_frame(num_values: int, seed: int = 0) -> PayloadFrame:
    weights = np.random.default_rng(seed).normal(0.0, 0.1, size=num_values).astype(np.float32)
    return PayloadFrame([b"header", memoryview(weights).cast("B")])


class TestFloat32Weights:
    @pytest.mark.parametrize(
        "num_values, below_min_bytes", [(16, True), (254, True), (255, False), (20_000, False)]
    )
    def test_frame_and_payload_paths_agree(self, num_values, below_min_bytes):
        frame = _float32_frame(num_values)
        config = CompressionConfig()
        assert (frame.nbytes < config.min_bytes) == below_min_bytes
        assert compress_frame(frame, config).tobytes() == compress_payload(frame.tobytes(), config)

    @pytest.mark.parametrize("num_values", [1024, 8192, 65_536])
    def test_random_weights_of_4kib_or_more_are_kept_as_a_zlib_stream(self, num_values):
        data = _float32_frame(num_values, seed=num_values).tobytes()
        assert len(data) >= 4096
        wrapped = compress_payload(data)
        assert wrapped[:1] == b"\x01"
        assert len(wrapped) < len(data)
        assert zlib.decompress(wrapped[1:]) == data


class TestBatchEncoder:
    def test_single_chunk_for_small_payload(self):
        encoder = BatchEncoder(chunk_bytes=1024)
        chunks = encoder.split(b"hello")
        assert len(chunks) == 1
        assert chunks[0].count == 1
        assert chunks[0].data == b"hello"

    def test_multi_chunk_split_sizes(self):
        encoder = BatchEncoder(chunk_bytes=100)
        payload = bytes(range(256)) * 2  # 512 bytes
        chunks = encoder.split(payload)
        assert len(chunks) == 6
        assert all(len(c.data) == 100 for c in chunks[:-1])
        assert len(chunks[-1].data) == 12
        assert all(c.count == 6 for c in chunks)
        assert {c.index for c in chunks} == set(range(6))

    def test_empty_payload_still_one_chunk(self):
        chunks = BatchEncoder().split(b"")
        assert len(chunks) == 1
        assert chunks[0].total_length == 0

    def test_batch_ids_unique(self):
        encoder = BatchEncoder()
        ids = {encoder.next_batch_id() for _ in range(100)}
        assert len(ids) == 100

    def test_long_batch_id_rejected(self):
        with pytest.raises(ValueError):
            BatchEncoder().split(b"x", batch_id="x" * 17)

    def test_chunk_wire_roundtrip(self):
        chunk = BatchEncoder(chunk_bytes=8).split(b"0123456789", batch_id="b1")[1]
        parsed = BatchChunk.from_bytes(chunk.to_bytes())
        assert parsed == chunk


class TestBatchAssembler:
    def _chunks(self, payload=b"payload-bytes" * 50, chunk_bytes=64, batch_id=None):
        return BatchEncoder(chunk_bytes=chunk_bytes).split(payload, batch_id=batch_id), payload

    def test_in_order_reassembly(self):
        chunks, payload = self._chunks()
        assembler = BatchAssembler()
        results = [assembler.add("sender", c.to_bytes()) for c in chunks]
        assert results[-1] == payload
        assert all(r is None for r in results[:-1])
        assert assembler.completed_batches == 1
        assert assembler.open_batches() == 0

    def test_out_of_order_reassembly(self):
        chunks, payload = self._chunks()
        assembler = BatchAssembler()
        result = None
        for chunk in reversed(chunks):
            result = assembler.add_chunk("sender", chunk) or result
        assert result == payload

    def test_duplicate_chunks_tolerated(self):
        chunks, payload = self._chunks()
        assembler = BatchAssembler()
        assembler.add_chunk("sender", chunks[0])
        assembler.add_chunk("sender", chunks[0])  # duplicate
        for chunk in chunks[1:]:
            result = assembler.add_chunk("sender", chunk)
        assert result == payload
        assert assembler.duplicate_chunks == 1

    def test_single_chunk_completion_is_zero_copy(self):
        # A batch that fits in one chunk must come back as a view into the
        # received wire payload — no gather copy on the receive path.
        payload = bytes(np.arange(2048, dtype=np.uint8).tobytes())
        chunks = BatchEncoder(chunk_bytes=1 << 20).split(payload)
        assert len(chunks) == 1
        wire = chunks[0].to_bytes()
        out = BatchAssembler().add("s", memoryview(wire))
        assert isinstance(out, memoryview)
        assert np.shares_memory(
            np.frombuffer(out, dtype=np.uint8), np.frombuffer(wire, dtype=np.uint8)
        )
        assert out == payload

    def test_multi_chunk_completion_gathers_once_read_only(self):
        chunks, payload = self._chunks()
        assembler = BatchAssembler()
        out = None
        for chunk in chunks:
            out = assembler.add("s", memoryview(chunk.to_bytes())) or out
        assert isinstance(out, memoryview)
        assert out.readonly
        assert out == payload

    def test_interleaved_senders_kept_separate(self):
        chunks_a, payload_a = self._chunks(payload=b"A" * 300, batch_id="ba")
        chunks_b, payload_b = self._chunks(payload=b"B" * 300, batch_id="bb")
        assembler = BatchAssembler()
        result_a = result_b = None
        for ca, cb in zip(chunks_a, chunks_b):
            result_a = assembler.add_chunk("alice", ca) or result_a
            result_b = assembler.add_chunk("bob", cb) or result_b
        assert result_a == payload_a
        assert result_b == payload_b

    def test_corrupted_data_detected_by_crc(self):
        chunks, _ = self._chunks()
        bad = BatchChunk(
            batch_id=chunks[0].batch_id,
            index=chunks[0].index,
            count=chunks[0].count,
            total_length=chunks[0].total_length,
            crc32=chunks[0].crc32,
            data=b"X" * len(chunks[0].data),
        )
        assembler = BatchAssembler()
        assembler.add_chunk("sender", bad)
        with pytest.raises(BatchReassemblyError, match="CRC"):
            for chunk in chunks[1:]:
                assembler.add_chunk("sender", chunk)

    def test_inconsistent_metadata_rejected(self):
        chunks, _ = self._chunks()
        assembler = BatchAssembler()
        assembler.add_chunk("sender", chunks[0])
        tampered = BatchChunk(
            batch_id=chunks[1].batch_id,
            index=chunks[1].index,
            count=chunks[1].count + 1,
            total_length=chunks[1].total_length,
            crc32=chunks[1].crc32,
            data=chunks[1].data,
        )
        with pytest.raises(BatchReassemblyError, match="inconsistent"):
            assembler.add_chunk("sender", tampered)

    def test_invalid_index_rejected(self):
        with pytest.raises(BatchReassemblyError):
            BatchAssembler().add_chunk(
                "s", BatchChunk(batch_id="b", index=5, count=3, total_length=0, crc32=0, data=b"")
            )

    def test_not_a_chunk_rejected(self):
        with pytest.raises(BatchReassemblyError):
            BatchAssembler().add("s", b"random bytes that are not a chunk")

    def test_discard_partial_batch(self):
        chunks, _ = self._chunks(batch_id="gone")
        assembler = BatchAssembler()
        assembler.add_chunk("sender", chunks[0])
        assert assembler.discard("sender", "gone")
        assert assembler.open_batches() == 0
        assert not assembler.discard("sender", "gone")

    def test_open_batch_limit(self):
        assembler = BatchAssembler(max_open_batches=2)
        encoder = BatchEncoder(chunk_bytes=4)
        for i in range(2):
            assembler.add_chunk("s", encoder.split(b"0123456789", batch_id=f"b{i}")[0])
        with pytest.raises(BatchReassemblyError, match="too many open batches"):
            assembler.add_chunk("s", encoder.split(b"0123456789", batch_id="b99")[0])

    @given(st.binary(min_size=0, max_size=3000), st.integers(min_value=1, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, payload, chunk_bytes):
        chunks = BatchEncoder(chunk_bytes=chunk_bytes).split(payload)
        assembler = BatchAssembler()
        result = None
        for chunk in chunks:
            out = assembler.add("s", chunk.to_bytes())
            if out is not None:
                result = out
        assert result == payload
