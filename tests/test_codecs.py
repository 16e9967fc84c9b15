"""Tests for the pluggable update-codec stage (``repro.mqttfc.codecs``).

Covers spec parsing, **exact** round-trips for the lossless paths under
seeded fuzzing (``delta`` via its bitwise escape hatch, ``topk`` at k=n,
``fp16`` on fp16-representable inputs) across dtypes and shapes including
scalars and empty tensors, analytic error bounds for the lossy quantizers,
wire discipline (read-only decodes, immutable wire dicts, spec/ref
mismatch errors), the endpoint stats-reset drift audit, and the codec
determinism contract: traced-vs-untraced scenario runs, 1-vs-4-worker
grids with ``update_codec`` set, and the committed golden signatures.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.core.client import SDFLMQClient
from repro.core.errors import SDFLMQError
from repro.mqtt.client import MQTTClient
from repro.mqttfc.codecs import (
    CODEC_WIRE_KEY,
    DEFAULT_TOPK_DENSITY,
    CodecError,
    CodecStats,
    available_codecs,
    is_encoded_state,
    make_update_codec,
    parse_codec_spec,
)
from repro.mqttfc.rfc import FleetControlEndpoint
from repro.mqttfc.serialization import decode_payload, encode_payload
from repro.runtime.scheduler import EventScheduler
from repro.scenarios import ScenarioRunner, SweepSpec

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SESSION = "session_codec_test"

#: Shapes every fuzz loop cycles through: scalars, vectors, matrices,
#: higher-rank tensors and empties (both flavors).
FUZZ_SHAPES = ((), (1,), (7,), (64,), (3, 4), (2, 3, 5), (0,), (4, 0, 2))


def _assert_bit_identical(decoded: np.ndarray, original: np.ndarray) -> None:
    """Bit-for-bit equality: catches NaN payloads and signed zeros too."""
    assert decoded.dtype == original.dtype
    assert decoded.shape == original.shape
    assert decoded.tobytes() == original.tobytes()


def _fuzz_float(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    """A float tensor mixing magnitudes with specials (NaN, ±inf, -0.0)."""
    array = np.asarray(
        rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4), dtype=dtype
    )
    flat = array.reshape(-1)
    if flat.size >= 4:
        specials = np.array([np.nan, np.inf, -np.inf, -0.0], dtype=dtype)
        where = rng.choice(flat.size, size=len(specials), replace=False)
        flat[where] = specials
    return array


def _round_trip(spec: str, state: dict, observe: dict | None = None, rounds=(0,)):
    """Encode with one codec instance and decode with an independent one."""
    encoder = make_update_codec(spec)
    decoder = make_update_codec(spec)
    if observe is not None:
        for round_index in rounds:
            encoder.observe_global(SESSION, observe, round_index)
            decoder.observe_global(SESSION, observe, round_index)
    encoded = encoder.encode_state(SESSION, state)
    return encoder, decoder, encoded, decoder.decode_state(SESSION, encoded)


class TestParseCodecSpec:
    @pytest.mark.parametrize("spec", [None, "", "none", "off", "  NONE  "])
    def test_disabled_specs_mean_no_codec(self, spec):
        assert parse_codec_spec(spec) is None
        assert make_update_codec(spec) is None

    def test_available_codecs_lists_every_stage(self):
        assert available_codecs() == ("delta", "topk", "fp16", "int8")

    @pytest.mark.parametrize(
        "spec, canonical",
        [
            ("int8", "int8"),
            ("FP16", "fp16"),
            ("delta + int8", "delta+int8"),
            ("topk=0.25", "topk=0.25"),
            (f"topk={DEFAULT_TOPK_DENSITY}", "topk"),
            ("delta+topk=0.5+fp16+int8", "delta+topk=0.5+fp16+int8"),
        ],
    )
    def test_canonical_spec(self, spec, canonical):
        parsed, stages = parse_codec_spec(spec)
        assert parsed == canonical
        assert make_update_codec(spec).spec == canonical
        assert [s.rank for s in stages] == sorted(s.rank for s in stages)

    @pytest.mark.parametrize(
        "spec, match",
        [
            ("gzip", "unknown update codec stage"),
            ("int8=3", "takes no parameter"),
            ("fp16+fp16", "duplicate codec stage"),
            ("int8+delta", "must compose in order"),
            ("fp16+topk", "must compose in order"),
            ("topk=0", "density must be in"),
            ("topk=1.5", "density must be in"),
            ("topk=abc", "bad topk density"),
        ],
    )
    def test_invalid_specs_raise(self, spec, match):
        with pytest.raises(CodecError, match=match):
            parse_codec_spec(spec)


class TestLosslessRoundTrips:
    """The paths the module promises are exact really are, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_delta_without_reference_is_bit_exact(self, dtype):
        rng = np.random.default_rng(101)
        for shape in FUZZ_SHAPES:
            state = {"w": _fuzz_float(rng, shape, dtype)}
            _, _, _, decoded = _round_trip("delta", state)
            _assert_bit_identical(decoded["w"], state["w"])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_delta_against_observed_global_is_bit_exact(self, dtype):
        rng = np.random.default_rng(202)
        for shape in FUZZ_SHAPES:
            ref = {"w": _fuzz_float(rng, shape, dtype)}
            state = {"w": _fuzz_float(rng, shape, dtype)}
            _, _, encoded, decoded = _round_trip("delta", state, observe=ref)
            assert encoded["ref_round"] == 0
            _assert_bit_identical(decoded["w"], state["w"])

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8])
    def test_delta_on_integer_tensors_is_bit_exact(self, dtype):
        rng = np.random.default_rng(303)
        for shape in FUZZ_SHAPES:
            ref = {"w": np.asarray(rng.integers(-100, 100, size=shape), dtype=dtype)}
            state = {"w": np.asarray(rng.integers(-100, 100, size=shape), dtype=dtype)}
            _, _, _, decoded = _round_trip("delta", state, observe=ref)
            _assert_bit_identical(decoded["w"], state["w"])

    def test_delta_escape_hatch_fires_and_stays_exact(self):
        # Unrelated float32 reference: many deltas need more than 24
        # mantissa bits, so the encoder must ship escapes — and the decode
        # must still be bit-identical.
        rng = np.random.default_rng(404)
        ref = {"w": (rng.standard_normal(512) * 1e6).astype(np.float32)}
        state = {"w": rng.standard_normal(512).astype(np.float32)}
        encoder, _, encoded, decoded = _round_trip("delta", state, observe=ref)
        (entry,) = encoded["tensors"]
        assert entry["esc_idx"].size > 0
        assert encoder.stats.escape_values == entry["esc_idx"].size
        _assert_bit_identical(decoded["w"], state["w"])

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_topk_full_density_is_bit_exact(self, dtype):
        rng = np.random.default_rng(505)
        for shape in FUZZ_SHAPES:
            state = {"w": _fuzz_float(rng, shape, dtype)}
            _, _, _, decoded = _round_trip("topk=1.0", state)
            _assert_bit_identical(decoded["w"], state["w"])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fp16_on_representable_inputs_is_bit_exact(self, dtype):
        rng = np.random.default_rng(606)
        for shape in FUZZ_SHAPES:
            # Half-precision values widened to dtype: the cast back is exact.
            representable = np.asarray(
                rng.standard_normal(shape), dtype=np.float16
            ).astype(dtype)
            _, _, _, decoded = _round_trip("fp16", state := {"w": representable})
            _assert_bit_identical(decoded["w"], state["w"])

    def test_full_pipeline_handles_empty_and_scalar_tensors(self):
        rng = np.random.default_rng(707)
        state = {
            "scalar": np.array(rng.standard_normal(), np.float32),
            "empty": np.empty((0,), np.float32),
            "empty3d": np.empty((4, 0, 2), np.float32),
            "vector": rng.standard_normal(9).astype(np.float32),
        }
        for spec in ("delta", "topk", "fp16", "int8", "delta+topk+fp16+int8"):
            _, _, _, decoded = _round_trip(spec, state)
            for name, original in state.items():
                assert decoded[name].shape == original.shape
                assert decoded[name].dtype == original.dtype


class TestTopKSelection:
    def test_keeps_the_largest_magnitudes(self):
        values = np.array([0.1, -5.0, 0.2, 4.0, -0.3, 3.0, 0.0, -2.0], np.float32)
        _, _, _, decoded = _round_trip("topk=0.5", {"w": values})
        expected = np.where(np.abs(values) >= 2.0, values, np.float32(0.0))
        np.testing.assert_array_equal(decoded["w"], expected)

    def test_density_controls_survivor_count(self):
        rng = np.random.default_rng(808)
        values = rng.standard_normal(100).astype(np.float32)
        for density, expected_k in ((0.1, 10), (0.25, 25), (0.999, 100), (1e-9, 1)):
            codec = make_update_codec(f"topk={density}")
            encoded = codec.encode_state(SESSION, {"w": values})
            (entry,) = encoded["tensors"]
            assert entry["data"].size == expected_k
            assert entry["topk_idx"].size == expected_k


class TestQuantizationBounds:
    def test_int8_error_bounded_by_half_scale(self):
        rng = np.random.default_rng(909)
        eps = float(np.finfo(np.float32).eps)
        for magnitude in (1.0, 1e-3, 1e3):
            original = (rng.standard_normal(2048) * magnitude).astype(np.float32)
            _, _, encoded, decoded = _round_trip("int8", {"w": original})
            (entry,) = encoded["tensors"]
            scale, zero = entry["scale"], entry["zero"]
            assert entry["data"].dtype == np.uint8
            # Quantization contributes <= scale/2; the float32 scale/zero
            # rounding and the f32 dequant arithmetic contribute a few ulps
            # on magnitudes up to |zero| + 255*scale.
            atol = 0.5 * scale + 8.0 * eps * (abs(zero) + 255.0 * scale)
            error = np.abs(decoded["w"].astype(np.float64) - original.astype(np.float64))
            assert float(error.max()) <= atol

    def test_int8_constant_tensor_is_exact(self):
        original = np.full((33,), np.float32(3.25))
        _, _, encoded, decoded = _round_trip("int8", {"w": original})
        (entry,) = encoded["tensors"]
        assert entry["scale"] == 1.0  # degenerate range falls back to unit scale
        np.testing.assert_array_equal(decoded["w"], original)

    def test_int8_nonfinite_tensor_ships_raw_and_exact(self):
        original = np.array([1.0, np.nan, -np.inf, 2.5], np.float32)
        _, _, encoded, decoded = _round_trip("int8", {"w": original})
        (entry,) = encoded["tensors"]
        assert entry.get("rawq") is True
        assert entry["data"].dtype == np.float32
        _assert_bit_identical(decoded["w"], original)

    def test_fp16_error_bounded_by_half_ulp(self):
        rng = np.random.default_rng(1010)
        original = (rng.standard_normal(2048) * 100.0).astype(np.float32)
        _, _, _, decoded = _round_trip("fp16", {"w": original})
        error = np.abs(decoded["w"].astype(np.float64) - original.astype(np.float64))
        # Round-to-nearest half precision: rel error <= 2^-11 for normals,
        # absolute error <= 2^-25 in the subnormal range.
        bound = np.maximum(np.abs(original.astype(np.float64)) * 2.0**-11, 2.0**-24)
        assert bool(np.all(error <= bound))

    def test_composed_delta_int8_keeps_escapes_exact(self):
        # The escape sidecar must bypass the quantizer: elements the delta
        # stage shipped raw come back bit-identical even under int8.
        rng = np.random.default_rng(1111)
        ref = {"w": (rng.standard_normal(256) * 1e6).astype(np.float32)}
        state = {"w": rng.standard_normal(256).astype(np.float32)}
        encoder, _, encoded, decoded = _round_trip("delta+int8", state, observe=ref)
        (entry,) = encoded["tensors"]
        idx = np.asarray(entry["esc_idx"])
        assert idx.size > 0
        _assert_bit_identical(decoded["w"][idx], state["w"][idx])


class TestWireDiscipline:
    def _state(self):
        rng = np.random.default_rng(1212)
        return {
            "dense.weight": rng.standard_normal((16, 8)).astype(np.float32),
            "dense.bias": rng.standard_normal(8).astype(np.float64),
            "head.scale": rng.standard_normal(4).astype(np.float16),
        }

    @pytest.mark.parametrize("spec", ["fp16", "int8", "delta+topk=0.5+fp16+int8"])
    def test_encoded_state_survives_the_frame_path(self, spec):
        state = self._state()
        encoder = make_update_codec(spec)
        decoder = make_update_codec(spec)
        encoder.observe_global(SESSION, state, 0)
        decoder.observe_global(SESSION, state, 0)
        encoded = encoder.encode_state(SESSION, state)
        raw = encode_payload({"state": encoded, "sender": "client_001"})
        received = decode_payload(raw, copy_arrays=False)["state"]
        assert is_encoded_state(received)
        decoded = decoder.decode_state(SESSION, received)
        for name, original in state.items():
            view = decoded[name]
            assert not view.flags.writeable
            assert view.dtype == original.dtype
            assert view.shape == original.shape

    def test_decode_returns_read_only_arrays(self):
        _, _, _, decoded = _round_trip("int8", self._state())
        for view in decoded.values():
            assert not view.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                view.reshape(-1)[...] = 0

    def test_decode_does_not_mutate_the_wire_dict(self):
        state = self._state()
        encoder = make_update_codec("delta+int8")
        decoder = make_update_codec("delta+int8")
        encoded = encoder.encode_state(SESSION, state)
        first = decoder.decode_state(SESSION, encoded)
        # Sidecar keys must still be on the wire entries: a second decode
        # of the very same dict (e.g. a replayed chunk) must succeed.
        second = decoder.decode_state(SESSION, encoded)
        for name in state:
            _assert_bit_identical(second[name], first[name])

    def test_spec_mismatch_raises(self):
        encoded = make_update_codec("fp16").encode_state(SESSION, self._state())
        with pytest.raises(CodecError, match="codec mismatch"):
            make_update_codec("int8").decode_state(SESSION, encoded)

    def test_missing_delta_reference_raises(self):
        state = self._state()
        encoder = make_update_codec("delta")
        encoder.observe_global(SESSION, state, 5)
        encoded = encoder.encode_state(SESSION, state)
        assert encoded["ref_round"] == 5
        fresh = make_update_codec("delta")
        with pytest.raises(CodecError, match="no delta reference"):
            fresh.decode_state(SESSION, encoded)

    def test_non_ndarray_leaf_rejected(self):
        with pytest.raises(CodecError, match="ndarray leaves"):
            make_update_codec("fp16").encode_state(SESSION, {"w": [1.0, 2.0]})

    def test_is_encoded_state_never_confuses_plain_states(self):
        assert not is_encoded_state({"dense.weight": np.zeros(3)})
        assert not is_encoded_state({CODEC_WIRE_KEY: 7})
        assert not is_encoded_state(np.zeros(3))
        encoded = make_update_codec("fp16").encode_state(
            SESSION, {"w": np.zeros(3, np.float32)}
        )
        assert is_encoded_state(encoded)

    def test_client_without_codec_rejects_encoded_updates(self, broker):
        client = SDFLMQClient("client_plain", broker=broker)
        encoded = make_update_codec("int8").encode_state(
            SESSION, {"w": np.zeros(4, np.float32)}
        )
        with pytest.raises(SDFLMQError, match="no.*update codec installed"):
            client._handle_receive_model(
                SESSION, {"state": encoded, "sender": "client_other"}
            )


class TestStatsReset:
    """Satellite: every codec/endpoint counter must zero on ``reset_stats``.

    Mirrors the broker cache-counter fix — the audit iterates the dataclass
    fields, so a counter added later without reset support fails here.
    """

    def _rig(self, broker):
        pump = EventScheduler()

        def make(client_id):
            mqtt = MQTTClient(client_id)
            mqtt.connect(broker)
            endpoint = FleetControlEndpoint(mqtt, update_codec="delta+int8")
            endpoint.start()
            pump.register(mqtt)
            return endpoint

        return make("server"), make("caller"), pump

    def test_reset_zeroes_every_endpoint_and_codec_counter(self, broker):
        server, caller, pump = self._rig(broker)
        server.register("ping", lambda: "pong")
        call = caller.call("server", "ping")
        pump.run_until_idle()
        assert call.result() == "pong"

        codec = caller.update_codec
        state = {"w": np.random.default_rng(5).standard_normal(32).astype(np.float32)}
        codec.observe_global(SESSION, state, 0)
        codec.decode_state(SESSION, codec.encode_state(SESSION, state))
        assert caller.stats.calls_sent > 0
        assert codec.stats.updates_encoded == 1
        assert codec.stats.updates_decoded == 1
        assert codec.stats.bytes_in > 0

        arena_buffers = len(codec.arena)
        assert arena_buffers > 0
        for endpoint in (server, caller):
            endpoint.reset_stats()
            for field in dataclasses.fields(endpoint.stats):
                assert getattr(endpoint.stats, field.name) == 0, field.name
            for field in dataclasses.fields(endpoint.update_codec.stats):
                assert getattr(endpoint.update_codec.stats, field.name) == 0, field.name

        # Reset clears counters only: scratch buffers and delta references
        # survive, so the next round still encodes against round 0.
        assert caller.update_codec is codec
        assert len(codec.arena) == arena_buffers
        encoded = codec.encode_state(SESSION, state)
        assert encoded["ref_round"] == 0

    def test_every_codec_stats_field_starts_at_zero(self):
        assert all(
            getattr(CodecStats(), field.name) == 0
            for field in dataclasses.fields(CodecStats)
        )


class TestCodecDeterminism:
    """Scenario/grid determinism with codecs enabled, pinned to goldens."""

    def _golden_scenarios(self):
        path = os.path.join(REPO_ROOT, "tests", "data", "codec_scenario_signatures.txt")
        with open(path, "r", encoding="utf-8") as handle:
            rows = [line.split() for line in handle.read().splitlines() if line]
        return {(name, int(seed)): signature for name, seed, signature in rows}

    def test_traced_and_untraced_runs_match_the_golden(self, tmp_path):
        golden = self._golden_scenarios()
        runner = ScenarioRunner()
        plain = runner.run("degraded-wan-int8")
        traced = runner.run("degraded-wan-int8", trace_dir=tmp_path / "trace")
        assert traced.signature == plain.signature
        assert plain.signature == golden[("degraded-wan-int8", plain.seed)]

    def test_codec_changes_the_wire_but_not_the_codecless_baseline(self):
        runner = ScenarioRunner()
        with_codec = runner.run("degraded-wan-int8")
        without = runner.run("degraded-wan")
        assert with_codec.signature != without.signature
        assert with_codec.total_traffic_bytes < without.total_traffic_bytes

    def test_codec_grid_1_and_4_workers_match_the_golden(self):
        spec_path = os.path.join(REPO_ROOT, "tests", "data", "grid_codec.json")
        golden_path = os.path.join(
            REPO_ROOT, "tests", "data", "grid_codec_signatures.txt"
        )
        with open(spec_path, "r", encoding="utf-8") as handle:
            sweep = SweepSpec.from_dict(json.load(handle))
        runner = ScenarioRunner()
        serial = runner.run_grid(sweep, workers=1)
        parallel = runner.run_grid(sweep, workers=4)
        assert serial.signatures() == parallel.signatures()
        produced = "".join(f"{c.index:03d}  {c.signature}\n" for c in serial.cells)
        with open(golden_path, "r", encoding="utf-8") as handle:
            assert handle.read() == produced
        # The codec axis must bite: per-seed, every codec's delivery trace
        # (and therefore signature) is distinct.
        by_seed = {}
        for cell in serial.cells:
            by_seed.setdefault(cell.coordinates["seed"], []).append(cell.signature)
        for seed, signatures in by_seed.items():
            assert len(set(signatures)) == len(signatures), seed
