"""Compile a declarative :class:`ScenarioSpec` into a wired experiment.

The compiler is the bridge between the description layer and the runtime:
it translates the spec into an :class:`~repro.runtime.experiment.ExperimentConfig`,
builds and sets up the :class:`~repro.runtime.experiment.FLExperiment`
(brokers, bridges, fleet, datasets, session establishment), then layers the
scenario dynamics on top:

* steady-state network conditions (``NetworkSpec``) rewrite every client's
  tier-derived link profile,
* ``leave`` churn events become timed crash actions on the event scheduler,
* ``join``/``reconnect`` churn events are queued for round-boundary
  admission (the coordinator folds newcomers into the topology between
  rounds), and
* the fault plan is bound through :class:`~repro.scenarios.faults.FaultInjector`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.mqtt.network import LinkProfile
from repro.runtime.experiment import ExperimentConfig, FLExperiment
from repro.scenarios.faults import FaultInjector
from repro.scenarios.spec import ScenarioSpec
from repro.sim.events import ChurnEvent, ChurnSchedule

__all__ = [
    "CompiledScenario",
    "build_experiment_config",
    "compile_scenario",
]


def build_experiment_config(spec: ScenarioSpec) -> ExperimentConfig:
    """Translate a scenario spec into the experiment harness configuration."""
    fleet, topology, training = spec.fleet, spec.topology, spec.training
    return ExperimentConfig(
        name=spec.name,
        num_clients=fleet.num_clients,
        fl_rounds=training.rounds,
        local_epochs=training.local_epochs,
        batch_size=training.batch_size,
        learning_rate=training.learning_rate,
        dataset_samples=training.dataset_samples,
        client_data_fraction=training.client_data_fraction,
        partition=training.partition,
        dirichlet_alpha=training.dirichlet_alpha,
        clustering_policy=topology.clustering,
        aggregator_fraction=topology.aggregator_fraction,
        aggregation=training.aggregation,
        role_policy=topology.role_policy,
        rebalance_every_round=topology.rebalance_every_round,
        device_tier=fleet.tier,
        tier_mix=dict(fleet.tier_mix) if fleet.tier_mix is not None else None,
        memory_pressure=fleet.memory_pressure,
        compression_enabled=training.compression_enabled,
        update_codec=training.update_codec,
        num_regions=topology.regions,
        train_for_real=training.train_for_real,
        seed=spec.seed,
        session_id=f"scenario_{spec.name.replace('-', '_')}",
        initial_clients=fleet.initial_clients,
        round_deadline_s=training.round_deadline_s,
        record_delivery_trace=True,
    )


@dataclass
class CompiledScenario:
    """A spec wired into a ready-to-run experiment."""

    spec: ScenarioSpec
    experiment: FLExperiment
    injector: FaultInjector
    churn_schedule: ChurnSchedule
    #: join/reconnect churn events awaiting round-boundary admission.
    pending_admissions: List[ChurnEvent] = field(default_factory=list)

    def due_admissions(self, now: float) -> List[str]:
        """Clients due to be (re)admitted at a round boundary at time ``now``.

        Merges the spec's ``join``/``reconnect`` churn events with the fault
        plan's post-crash rejoins, ordered by (due time, client id).
        """
        due: List[Tuple[float, str]] = []
        remaining: List[ChurnEvent] = []
        for event in self.pending_admissions:
            if event.time <= now:
                due.append((event.time, event.client_id))
            else:
                remaining.append(event)
        self.pending_admissions = remaining
        for client_id in self.injector.due_rejoins(now):
            due.append((now, client_id))
        return [client_id for _, client_id in sorted(due)]


def compile_scenario(spec: ScenarioSpec) -> CompiledScenario:
    """Build, set up and instrument the experiment a spec describes.

    The returned :class:`CompiledScenario` is ready to drive manually when a
    test needs finer control than :class:`~repro.scenarios.runner.ScenarioRunner`:

    >>> from repro.scenarios import compile_scenario, get_scenario
    >>> compiled = compile_scenario(get_scenario("baseline"))  # doctest: +SKIP
    >>> compiled.experiment.scheduler.run_until_time(1.0)      # doctest: +SKIP
    >>> compiled.experiment.run_round(0)                       # doctest: +SKIP
    """
    experiment = FLExperiment(build_experiment_config(spec))
    experiment.setup()

    # Steady-state network conditions: rewrite every client's link in place.
    if not spec.network.is_default:
        network = spec.network
        for client_id in experiment.fleet.device_ids:
            base = experiment.fleet.profile(client_id).link_profile()
            experiment.network.set_link(
                client_id,
                LinkProfile(
                    latency_s=base.latency_s * network.effective_latency_scale,
                    bandwidth_bps=base.bandwidth_bps * network.effective_bandwidth_scale,
                    jitter_s=base.jitter_s + network.jitter_s,
                    loss_rate=network.loss_rate,
                ),
            )

    # Timed departures run on the scheduler.  Arrivals depend on the fleet's
    # admission policy: ``round_boundary`` (default) queues them until the
    # coordinator can fold them into the topology between rounds, while
    # ``mid_round`` turns them into timed actions that admit the joiner
    # inside the running round — the coordinator re-issues the grown
    # aggregators' expected-contribution counts on the ADMIT transition and
    # the harness triggers the joiner's first upload once its role lands.
    mid_round = spec.fleet.admission == "mid_round"
    departures = ChurnSchedule([e for e in spec.churn if e.action == "leave"])
    departures.bind(
        experiment.scheduler,
        {"leave": lambda event: experiment.crash_client(event.client_id)},
        event_log=experiment.event_log,
    )
    arrivals = [e for e in spec.churn if e.action in ("join", "reconnect")]
    if mid_round:
        admissions: List[ChurnEvent] = []
        ChurnSchedule(arrivals).bind(
            experiment.scheduler,
            {
                "join": lambda event: experiment.admit_client_mid_round(event.client_id),
                "reconnect": lambda event: experiment.admit_client_mid_round(event.client_id),
            },
            event_log=experiment.event_log,
        )
    else:
        admissions = sorted(arrivals, key=lambda e: (e.time, e.client_id))

    injector = FaultInjector(experiment, spec.faults, mid_round_admission=mid_round)
    injector.bind()

    return CompiledScenario(
        spec=spec,
        experiment=experiment,
        injector=injector,
        churn_schedule=departures,
        pending_admissions=list(admissions),
    )
