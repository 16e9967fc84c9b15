"""Heterogeneous edge-device profiles and their round-to-round drift.

A :class:`DeviceProfile` captures the static capability of one simulated edge
device; :class:`DeviceStats` is the dynamic snapshot a client reports to the
coordinator after each round (the reproduction's stand-in for the psutil /
tracemalloc numbers the paper collects).  :class:`DeviceFleet` builds a
heterogeneous population from named tiers and can *drift* the dynamic state
between rounds, which is what makes per-round role rearrangement worthwhile.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro.mqtt.network import LinkProfile
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import require_in_range, require_positive

__all__ = ["DeviceProfile", "DeviceStats", "DeviceFleet", "DEVICE_TIERS"]


@dataclass(frozen=True)
class DeviceProfile:
    """Static capability description of one simulated device.

    Attributes
    ----------
    device_id:
        Identifier, matching the FL client id that runs on the device.
    tier:
        Human-readable tier name (``"server"``, ``"laptop"``, ``"rpi"``, ...).
    compute_speed:
        Relative compute throughput; 1.0 is the reference device.  Training
        and aggregation times scale inversely with this.
    memory_bytes:
        RAM available to the FL process (parameters + buffered peer models).
    bandwidth_bps:
        Network bandwidth (bytes/second) of the device's broker link.
    latency_s:
        One-way network latency to the broker.
    availability:
        Probability the device is responsive in a given round (1.0 = always).
    """

    device_id: str
    tier: str = "laptop"
    compute_speed: float = 1.0
    memory_bytes: int = 512 * 1024 * 1024
    bandwidth_bps: float = 12.5e6
    latency_s: float = 0.005
    availability: float = 1.0

    def __post_init__(self) -> None:
        require_positive(self.compute_speed, "compute_speed")
        require_positive(self.memory_bytes, "memory_bytes")
        require_positive(self.bandwidth_bps, "bandwidth_bps")
        require_positive(self.latency_s, "latency_s", strict=False)
        require_in_range(self.availability, "availability", 0.0, 1.0)

    def link_profile(self) -> LinkProfile:
        """The MQTT link profile implied by this device's network capability."""
        return LinkProfile(latency_s=self.latency_s, bandwidth_bps=self.bandwidth_bps)


@dataclass
class DeviceStats:
    """Dynamic per-round snapshot a client reports to the coordinator.

    Field names intentionally mirror what SDFLMQ collects with psutil (§IV):
    available memory, CPU load, bandwidth estimate — plus the round the
    snapshot belongs to.
    """

    device_id: str
    round_index: int = 0
    available_memory_bytes: int = 512 * 1024 * 1024
    cpu_load: float = 0.0
    bandwidth_bps: float = 12.5e6
    battery_level: float = 1.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-serializable representation (sent inside MQTTFC payloads)."""
        return {
            "device_id": self.device_id,
            "round_index": int(self.round_index),
            "available_memory_bytes": int(self.available_memory_bytes),
            "cpu_load": float(self.cpu_load),
            "bandwidth_bps": float(self.bandwidth_bps),
            "battery_level": float(self.battery_level),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "DeviceStats":
        """Inverse of :meth:`as_dict`."""
        return cls(
            device_id=str(data["device_id"]),
            round_index=int(data.get("round_index", 0)),
            available_memory_bytes=int(data.get("available_memory_bytes", 0)),
            cpu_load=float(data.get("cpu_load", 0.0)),
            bandwidth_bps=float(data.get("bandwidth_bps", 0.0)),
            battery_level=float(data.get("battery_level", 1.0)),
        )


#: Named device tiers used to compose heterogeneous fleets.  Numbers are
#: loosely calibrated to "edge server", "laptop", "smartphone" and
#: "Raspberry-Pi-class" devices; the absolute values matter less than their
#: ratios, which drive who should host aggregation.
DEVICE_TIERS: Dict[str, Dict[str, float]] = {
    "server": {
        "compute_speed": 4.0,
        "memory_bytes": 8 * 1024**3,
        "bandwidth_bps": 125e6,
        "latency_s": 0.002,
    },
    "laptop": {
        "compute_speed": 1.0,
        "memory_bytes": 2 * 1024**3,
        "bandwidth_bps": 12.5e6,
        "latency_s": 0.005,
    },
    "phone": {
        "compute_speed": 0.4,
        "memory_bytes": 512 * 1024**2,
        "bandwidth_bps": 6.25e6,
        "latency_s": 0.015,
    },
    "rpi": {
        "compute_speed": 0.15,
        "memory_bytes": 128 * 1024**2,
        "bandwidth_bps": 3.125e6,
        "latency_s": 0.010,
    },
}


class DeviceFleet:
    """A heterogeneous population of simulated devices.

    Parameters
    ----------
    profiles:
        The static device profiles, keyed by device id.
    seed:
        Seed for the dynamic drift stream.
    """

    def __init__(self, profiles: List[DeviceProfile], seed: int = 0) -> None:
        if not profiles:
            raise ValueError("a device fleet needs at least one device")
        ids = [p.device_id for p in profiles]
        if len(set(ids)) != len(ids):
            raise ValueError("device ids must be unique within a fleet")
        self._profiles: Dict[str, DeviceProfile] = {p.device_id: p for p in profiles}
        self._seeds = SeedSequenceFactory(seed)
        self._stats: Dict[str, DeviceStats] = {
            p.device_id: DeviceStats(
                device_id=p.device_id,
                available_memory_bytes=p.memory_bytes,
                bandwidth_bps=p.bandwidth_bps,
            )
            for p in profiles
        }

    # ------------------------------------------------------------ factories

    @classmethod
    def homogeneous(
        cls, num_devices: int, tier: str = "laptop", prefix: str = "client", seed: int = 0
    ) -> "DeviceFleet":
        """A fleet where every device has identical (tier-default) capability."""
        require_positive(num_devices, "num_devices")
        if tier not in DEVICE_TIERS:
            raise ValueError(f"unknown tier {tier!r}; options: {sorted(DEVICE_TIERS)}")
        spec = DEVICE_TIERS[tier]
        profiles = [
            DeviceProfile(
                device_id=f"{prefix}_{index:03d}",
                tier=tier,
                compute_speed=spec["compute_speed"],
                memory_bytes=int(spec["memory_bytes"]),
                bandwidth_bps=spec["bandwidth_bps"],
                latency_s=spec["latency_s"],
            )
            for index in range(num_devices)
        ]
        return cls(profiles, seed=seed)

    @classmethod
    def heterogeneous(
        cls,
        num_devices: int,
        tier_mix: Optional[Dict[str, float]] = None,
        prefix: str = "client",
        seed: int = 0,
        jitter: float = 0.15,
    ) -> "DeviceFleet":
        """A fleet with devices drawn from a tier mix plus per-device jitter.

        ``tier_mix`` maps tier name to sampling weight; the default mix skews
        toward constrained devices, matching the paper's motivating IoT
        scenario where no powerful central unit exists.
        """
        require_positive(num_devices, "num_devices")
        require_in_range(jitter, "jitter", 0.0, 1.0)
        tier_mix = tier_mix or {"laptop": 0.35, "phone": 0.40, "rpi": 0.20, "server": 0.05}
        unknown = set(tier_mix) - set(DEVICE_TIERS)
        if unknown:
            raise ValueError(f"unknown tiers in mix: {sorted(unknown)}")
        seeds = SeedSequenceFactory(seed)
        rng = seeds.generator("fleet-composition")
        tiers = list(tier_mix)
        weights = np.array([tier_mix[t] for t in tiers], dtype=np.float64)
        weights = weights / weights.sum()
        profiles: List[DeviceProfile] = []
        for index in range(num_devices):
            tier = str(rng.choice(tiers, p=weights))
            spec = DEVICE_TIERS[tier]
            scale = 1.0 + float(rng.uniform(-jitter, jitter))
            profiles.append(
                DeviceProfile(
                    device_id=f"{prefix}_{index:03d}",
                    tier=tier,
                    compute_speed=spec["compute_speed"] * scale,
                    memory_bytes=int(spec["memory_bytes"] * scale),
                    bandwidth_bps=spec["bandwidth_bps"] * scale,
                    latency_s=spec["latency_s"],
                )
            )
        return cls(profiles, seed=seeds.seed("fleet-drift"))

    # -------------------------------------------------------------- accessors

    def __len__(self) -> int:
        return len(self._profiles)

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._profiles

    @property
    def device_ids(self) -> List[str]:
        """All device ids (sorted for deterministic iteration)."""
        return sorted(self._profiles)

    def profile(self, device_id: str) -> DeviceProfile:
        """Static profile for ``device_id``."""
        return self._profiles[device_id]

    def stats(self, device_id: str) -> DeviceStats:
        """Latest dynamic stats snapshot for ``device_id``."""
        return self._stats[device_id]

    # ----------------------------------------------------------------- drift

    def drift(self, round_index: int, memory_pressure: float = 0.3) -> Dict[str, DeviceStats]:
        """Advance the dynamic state of every device by one round.

        Each round a device's available memory fluctuates (co-located
        workloads come and go), its CPU load changes, and its effective
        bandwidth wiggles.  ``memory_pressure`` scales how much memory other
        workloads may steal (0 = none, 1 = potentially all).

        Returns the new stats snapshots keyed by device id.
        """
        require_in_range(memory_pressure, "memory_pressure", 0.0, 1.0)
        rng = self._seeds.generator("drift", round_index)
        for device_id in self.device_ids:
            profile = self._profiles[device_id]
            stolen_fraction = float(rng.uniform(0.0, memory_pressure))
            available = int(profile.memory_bytes * (1.0 - stolen_fraction))
            cpu_load = float(np.clip(rng.beta(2.0, 5.0), 0.0, 1.0))
            bandwidth = profile.bandwidth_bps * float(rng.uniform(0.7, 1.0))
            self._stats[device_id] = DeviceStats(
                device_id=device_id,
                round_index=round_index,
                available_memory_bytes=available,
                cpu_load=cpu_load,
                bandwidth_bps=bandwidth,
                battery_level=float(np.clip(1.0 - 0.01 * round_index * rng.uniform(0.5, 1.5), 0.0, 1.0)),
            )
        return dict(self._stats)

    def set_stats(self, stats: DeviceStats) -> None:
        """Overwrite one device's dynamic stats (used by failure-injection tests)."""
        if stats.device_id not in self._profiles:
            raise KeyError(f"unknown device id {stats.device_id!r}")
        self._stats[stats.device_id] = stats

    def scale_memory(self, device_id: str, factor: float) -> DeviceProfile:
        """Permanently rescale a device's memory capacity (scenario helper)."""
        require_positive(factor, "factor")
        profile = self._profiles[device_id]
        updated = replace(profile, memory_bytes=max(1, int(profile.memory_bytes * factor)))
        self._profiles[device_id] = updated
        current = self._stats[device_id]
        current.available_memory_bytes = min(current.available_memory_bytes, updated.memory_bytes)
        return updated
