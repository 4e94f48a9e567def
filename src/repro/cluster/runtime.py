"""Co-run executor: run placed jobs concurrently on the fluid fabric.

Each job executes its stage sequence bulk-synchronously: all instances
compute, release their shuffle flows after the stage's overlap window,
and a barrier separates stages (both the compute timer and every
shuffle flow of the stage must finish).  Jobs interleave freely on the
shared fabric, contending for bandwidth under whatever policy is
installed.

Connections are created through a :class:`ConnectionAPI`, which is the
seam where the Saba library plugs in: the default
:class:`DirectConnections` just starts flows, while
:class:`repro.core.library.SabaLibrary` additionally tags flows with
the application's priority level and notifies the controller on every
create/destroy (Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Protocol, Sequence

from repro.errors import SimulationError
from repro.obs.events import (
    JOB_FINISHED,
    JOB_STARTED,
    STAGE_FINISHED,
    STAGE_STARTED,
    Observer,
)
from repro.cluster.jobs import Job, JobResult
from repro.simnet.fabric import FabricPolicy, FluidFabric
from repro.simnet.flows import Flow
from repro.simnet.telemetry import UtilizationRecorder
from repro.simnet.topology import Topology
from repro.workloads.model import Stage


class ConnectionAPI(Protocol):
    """How jobs open network connections."""

    def create(
        self,
        job_id: str,
        src: str,
        dst: str,
        size: float,
        on_complete: Callable[[Flow], None],
        coflow: Optional[str] = None,
        rate_cap: Optional[float] = None,
        aux_rate: float = 0.0,
    ) -> Flow:
        """Open a connection and start its flow on the fabric.

        ``coflow`` tags the flow's stage-shuffle group (one coflow per
        job stage), which coflow-aware policies such as Sincronia use.
        ``rate_cap`` carries the application-limited sending rate, and
        ``aux_rate`` the non-network drain rate.
        """

    def job_started(self, job: Job) -> None:
        """A job is about to launch (registration hook)."""

    def job_finished(self, job: Job) -> None:
        """A job completed all stages (deregistration hook)."""


class DirectConnections:
    """Plain connections: no registration, no PL tagging."""

    def __init__(self, fabric: FluidFabric) -> None:
        self._fabric = fabric

    def create(
        self,
        job_id: str,
        src: str,
        dst: str,
        size: float,
        on_complete: Callable[[Flow], None],
        coflow: Optional[str] = None,
        rate_cap: Optional[float] = None,
        aux_rate: float = 0.0,
    ) -> Flow:
        flow = Flow(src=src, dst=dst, size=size, app=job_id, coflow=coflow,
                    rate_cap=rate_cap, aux_rate=aux_rate)
        return self._fabric.start_flow(flow, on_complete=on_complete)

    def job_started(self, job: Job) -> None:  # noqa: D102
        pass

    def job_finished(self, job: Job) -> None:  # noqa: D102
        pass


@dataclass(frozen=True)
class PolicySetup:
    """One policy-session: fabric policy + connection layer + handle.

    Replaces the bare ``(policy, connections_factory)`` tuples the
    experiment harnesses used to pass around.  ``controller`` is an
    optional handle to the control-plane object behind the
    connections factory (the :class:`SabaController` or distributed
    group), so callers can inspect controller state after a run
    without re-plumbing it through every harness.  ``pipeline`` is
    the controller's shared :class:`repro.core.pipeline.
    AllocationPipeline`, exposed so harnesses can read allocation
    stats (signature skips, coalesce flushes) or force
    ``flush_pending()`` without reaching into frontend internals.

    For online-estimation sessions (``make_policy("saba-online")``)
    three more handles travel along: ``provider`` (the
    :class:`repro.online.provider.ModelProvider` the controller reads
    models through), ``estimator`` (the
    :class:`repro.online.estimator.OnlineSensitivityEstimator` behind
    it, reusable across consecutive runs), and ``sampler`` (the
    :class:`repro.online.sampler.StageSampler`; the harness must
    register its jobs with it and attach it to the run's observer).

    Executors consume a setup directly::

        setup = make_policy("saba", table)
        results = CoRunExecutor(topology, policy=setup).run(jobs)
    """

    policy: Optional[FabricPolicy]
    connections_factory: Optional[
        Callable[[FluidFabric], ConnectionAPI]
    ] = None
    controller: Optional[object] = None
    pipeline: Optional[object] = None
    provider: Optional[object] = None
    estimator: Optional[object] = None
    sampler: Optional[object] = None


class _JobExecution:
    """Drives one job's stage sequence on the fabric.

    Two execution modes, selected by ``spec.barrier``:

    * barrier (BSP, Spark/Flink style): all instances run stage k in
      lockstep; a global barrier (compute timer + every shuffle flow of
      the stage) separates stages.
    * per-instance: each instance advances through its own stage
      sequence independently; the job completes when the last instance
      finishes (the paper's synthetic simulator workloads).
    """

    def __init__(
        self,
        fabric: FluidFabric,
        job: Job,
        connections: ConnectionAPI,
        on_done: Callable[[Job, float, float], None],
        recorder: Optional[UtilizationRecorder] = None,
    ) -> None:
        self._fabric = fabric
        self._job = job
        self._connections = connections
        self._on_done = on_done
        self._recorder = recorder
        self._stage_index = -1
        self._start_time: Optional[float] = None
        self._compute_pending = False
        self._flows_pending = 0
        self._flows_released = False
        self._instances_running = 0

    def start(self, at_time: float) -> None:
        self._fabric.sim.schedule_at(at_time, self._launch)

    # -- internals -------------------------------------------------------

    def _launch(self) -> None:
        self._start_time = self._fabric.sim.now
        obs = self._fabric.observer
        if obs.enabled:
            obs.metrics.counter("cluster.jobs_started").inc()
            obs.emit(
                JOB_STARTED, self._start_time, job=self._job.job_id,
                workload=self._job.workload,
                n_instances=self._job.spec.n_instances,
                stages=len(self._job.spec.stages),
            )
        self._connections.job_started(self._job)
        if self._job.spec.barrier:
            self._begin_stage(0)
        else:
            self._instances_running = self._job.spec.n_instances
            for i in range(self._job.spec.n_instances):
                _InstanceExecution(self, i).begin(0)

    def _instance_finished(self) -> None:
        self._instances_running -= 1
        if self._instances_running == 0:
            self._finish()

    def _begin_stage(self, index: int) -> None:
        spec = self._job.spec
        if index >= len(spec.stages):
            self._finish()
            return
        self._stage_index = index
        stage = spec.stages[index]
        now = self._fabric.sim.now
        obs = self._fabric.observer
        if obs.enabled:
            obs.emit(
                STAGE_STARTED, now, job=self._job.job_id, stage=index,
                compute_time=stage.compute_time,
                comm_bytes=stage.comm_bytes,
            )
        self._flows_pending = 0
        self._flows_released = False
        has_comm = stage.comm_bytes > 0 and spec.n_instances > 1
        self._compute_pending = stage.compute_time > 0
        if self._compute_pending:
            self._mark_cpu(True)
            self._fabric.sim.schedule(stage.compute_time, self._compute_done)
        if has_comm:
            release = stage.flow_release_offset()
            if release > 0:
                self._fabric.sim.schedule(
                    release, lambda: self._release_flows(stage)
                )
            else:
                self._release_flows(stage)
        else:
            self._flows_released = True
        if not self._compute_pending:
            self._maybe_advance()

    def _mark_cpu(self, busy: bool) -> None:
        if self._recorder is None:
            return
        now = self._fabric.sim.now
        for server in self._job.placement:
            self._recorder.cpu_busy(server, now, busy)

    def _compute_done(self) -> None:
        self._compute_pending = False
        self._mark_cpu(False)
        self._maybe_advance()

    def _release_flows(self, stage: Stage) -> None:
        spec = self._job.spec
        placement = self._job.placement
        fanout = spec.effective_fanout()
        per_peer = stage.comm_bytes / fanout
        if per_peer <= 0.0:  # sub-normal volumes underflow the split
            self._flows_released = True
            self._maybe_advance()
            return
        per_flow_cap = (
            stage.rate_cap / fanout if stage.rate_cap is not None else None
        )
        per_flow_aux = stage.aux_rate / fanout
        coflow = f"{self._job.job_id}#s{self._stage_index}"
        created = 0
        for i in range(spec.n_instances):
            src = placement[i]
            for peer in spec.peers_of(i):
                dst = placement[peer]
                if src == dst:
                    continue
                self._connections.create(
                    self._job.job_id, src, dst, per_peer, self._flow_done,
                    coflow=coflow, rate_cap=per_flow_cap,
                    aux_rate=per_flow_aux,
                )
                created += 1
        self._flows_pending = created
        self._flows_released = True
        if created == 0:
            self._maybe_advance()

    def _flow_done(self, flow: Flow) -> None:
        self._flows_pending -= 1
        if self._flows_pending < 0:
            raise SimulationError(
                f"job {self._job.job_id}: more completions than flows"
            )
        self._maybe_advance()

    def _maybe_advance(self) -> None:
        if self._compute_pending:
            return
        if not self._flows_released or self._flows_pending > 0:
            return
        obs = self._fabric.observer
        if obs.enabled and self._stage_index >= 0:
            obs.emit(
                STAGE_FINISHED, self._fabric.sim.now,
                job=self._job.job_id, stage=self._stage_index,
            )
        self._begin_stage(self._stage_index + 1)

    def _finish(self) -> None:
        assert self._start_time is not None
        self._connections.job_finished(self._job)
        now = self._fabric.sim.now
        obs = self._fabric.observer
        if obs.enabled:
            obs.metrics.counter("cluster.jobs_finished").inc()
            obs.metrics.histogram("cluster.job_seconds").observe(
                now - self._start_time
            )
            obs.emit(
                JOB_FINISHED, now, job=self._job.job_id,
                workload=self._job.workload,
                duration=now - self._start_time,
            )
        self._on_done(self._job, self._start_time, now)


class _InstanceExecution:
    """One instance's independent stage loop (non-barrier jobs)."""

    def __init__(self, parent: _JobExecution, instance: int) -> None:
        self._parent = parent
        self._instance = instance
        self._server = parent._job.placement[instance]
        self._stage_index = -1
        self._compute_pending = False
        self._flows_pending = 0
        self._flows_released = False

    def begin(self, index: int) -> None:
        parent = self._parent
        spec = parent._job.spec
        if index >= len(spec.stages):
            parent._instance_finished()
            return
        self._stage_index = index
        stage = spec.stages[index]
        self._flows_pending = 0
        self._flows_released = False
        has_comm = stage.comm_bytes > 0 and spec.n_instances > 1
        self._compute_pending = stage.compute_time > 0
        sim = parent._fabric.sim
        obs = parent._fabric.observer
        if obs.enabled:
            obs.emit(
                STAGE_STARTED, sim.now, job=parent._job.job_id,
                instance=self._instance, stage=index,
                compute_time=stage.compute_time,
                comm_bytes=stage.comm_bytes,
            )
        if self._compute_pending:
            self._mark_cpu(True)
            sim.schedule(stage.compute_time, self._compute_done)
        if has_comm:
            release = stage.flow_release_offset()
            if release > 0:
                sim.schedule(release, lambda: self._release_flows(stage))
            else:
                self._release_flows(stage)
        else:
            self._flows_released = True
        if not self._compute_pending:
            self._maybe_advance()

    def _mark_cpu(self, busy: bool) -> None:
        recorder = self._parent._recorder
        if recorder is not None:
            recorder.cpu_busy(self._server, self._parent._fabric.sim.now,
                              busy)

    def _compute_done(self) -> None:
        self._compute_pending = False
        self._mark_cpu(False)
        self._maybe_advance()

    def _release_flows(self, stage: Stage) -> None:
        parent = self._parent
        spec = parent._job.spec
        placement = parent._job.placement
        fanout = spec.effective_fanout()
        per_peer = stage.comm_bytes / fanout
        if per_peer <= 0.0:  # sub-normal volumes underflow the split
            self._flows_released = True
            self._maybe_advance()
            return
        per_flow_cap = (
            stage.rate_cap / fanout if stage.rate_cap is not None else None
        )
        per_flow_aux = stage.aux_rate / fanout
        coflow = (
            f"{parent._job.job_id}#i{self._instance}s{self._stage_index}"
        )
        created = 0
        for peer in spec.peers_of(self._instance):
            dst = placement[peer]
            if self._server == dst:
                continue
            parent._connections.create(
                parent._job.job_id, self._server, dst, per_peer,
                self._flow_done, coflow=coflow, rate_cap=per_flow_cap,
                aux_rate=per_flow_aux,
            )
            created += 1
        self._flows_pending = created
        self._flows_released = True
        if created == 0:
            self._maybe_advance()

    def _flow_done(self, flow: Flow) -> None:
        self._flows_pending -= 1
        if self._flows_pending < 0:
            raise SimulationError(
                f"job {self._parent._job.job_id} instance "
                f"{self._instance}: more completions than flows"
            )
        self._maybe_advance()

    def _maybe_advance(self) -> None:
        if self._compute_pending:
            return
        if not self._flows_released or self._flows_pending > 0:
            return
        obs = self._parent._fabric.observer
        if obs.enabled and self._stage_index >= 0:
            obs.emit(
                STAGE_FINISHED, self._parent._fabric.sim.now,
                job=self._parent._job.job_id, instance=self._instance,
                stage=self._stage_index,
            )
        self.begin(self._stage_index + 1)


class CoRunExecutor:
    """Execute a set of jobs concurrently under an allocation policy."""

    def __init__(
        self,
        topology: Topology,
        policy: Optional[object] = None,
        connections_factory: Optional[
            Callable[[FluidFabric], ConnectionAPI]
        ] = None,
        recorder: Optional[UtilizationRecorder] = None,
        completion_quantum: float = 0.0,
        observer: Optional[Observer] = None,
        faults: Optional[object] = None,
        incremental: bool = True,
        validate: bool = False,
    ) -> None:
        """``policy`` is either a bare :class:`FabricPolicy` or a
        :class:`PolicySetup` bundling the policy with its connections
        factory (passing ``connections_factory`` alongside a setup is
        an error -- the setup already carries one).

        ``completion_quantum`` batches near-simultaneous flow
        completions (see :class:`FluidFabric`); large co-run
        experiments set it a few orders of magnitude below stage
        durations.  ``observer`` (:mod:`repro.obs`) sees the whole
        run: job/stage lifecycle, flow events, engine counters.

        ``incremental`` and ``validate`` pass straight through to
        :class:`FluidFabric` (the defaults match the fabric's); scenario
        construction (:func:`repro.experiments.common.build_scenario`)
        and the storm fuzzer vary ``incremental`` to cross-check full
        against component-scoped solving.

        ``faults`` is an optional
        :class:`repro.faults.FaultInjector`; it is bound to this
        executor's simulated clock before the connection layer is
        built, so fault windows and the control plane share one
        timeline."""
        if isinstance(policy, PolicySetup):
            if connections_factory is not None:
                raise ValueError(
                    "pass connections_factory inside the PolicySetup, "
                    "not alongside it"
                )
            connections_factory = policy.connections_factory
            policy = policy.policy
        self.topology = topology
        self.fabric = FluidFabric(
            topology, recorder=recorder,
            completion_quantum=completion_quantum,
            observer=observer,
            incremental=incremental,
            validate=validate,
        )
        self.observer = self.fabric.observer
        self.recorder = recorder
        if faults is not None:
            faults.bind(self.fabric.sim)
        if policy is not None:
            self.fabric.set_policy(policy)
        if connections_factory is None:
            self.connections: ConnectionAPI = DirectConnections(self.fabric)
        else:
            self.connections = connections_factory(self.fabric)

    def run(
        self,
        jobs: Sequence[Job],
        start_times: Optional[Sequence[float]] = None,
        max_time: Optional[float] = None,
    ) -> Dict[str, JobResult]:
        """Run all jobs to completion; returns results keyed by job id.

        Raises :class:`SimulationError` if ``max_time`` elapses with
        jobs still unfinished (a deadlock guard for tests).
        """
        if start_times is None:
            start_times = [0.0] * len(jobs)
        if len(start_times) != len(jobs):
            raise ValueError("start_times and jobs length mismatch")
        seen = set()
        for job in jobs:
            if job.job_id in seen:
                raise ValueError(f"duplicate job id {job.job_id!r}")
            seen.add(job.job_id)
        results: Dict[str, JobResult] = {}

        def on_done(job: Job, start: float, end: float) -> None:
            results[job.job_id] = JobResult(
                job_id=job.job_id,
                workload=job.workload,
                start_time=start,
                end_time=end,
            )

        for job, t0 in zip(jobs, start_times):
            _JobExecution(
                self.fabric, job, self.connections, on_done, self.recorder
            ).start(t0)
        self.fabric.run(until=max_time)
        if len(results) != len(jobs):
            missing = [j.job_id for j in jobs if j.job_id not in results]
            raise SimulationError(
                f"{len(missing)} job(s) did not finish: {missing[:5]}"
            )
        return results
