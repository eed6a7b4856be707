"""The benchmark's workloads: seeded inputs, one driver each, checks.

Every workload turns ``--seed`` into its inputs (the program receives
only those), builds a fresh driver per repetition, runs it to the end
and checks the outputs outside the timed region:

* ``sim-abilene-bookahead`` and ``sim-waxman-faults`` drive
  :class:`repro.Simulation` through its public ``controller()``
  generator (closed loop in virtual time: epoch ``k + 1`` starts when
  epoch ``k`` has committed);
* ``serve-journaled-abilene`` drives :class:`repro.ReservationService`
  through ``submit()`` and ``tick()`` (open loop in virtual time: each
  epoch's burst is submitted whether or not earlier requests were
  decided).

See ``perfbench/README.md`` for why each workload was chosen and which
layers it loads.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro import ReservationService, Simulation, serialization
from repro.experiments.setup import abilene_network
from repro.faults import FaultSchedule
from repro.network.waxman import waxman_network
from repro.service.requests import (
    REASON_OVERLOAD,
    REASON_STALE,
    Accepted,
    Negotiated,
    Rejected,
)
from repro.workload import WorkloadConfig
from repro.workload.jobs import Job, JobSet

#: Outcome classes of one service submission, in report order.
OUTCOMES = ("accept", "negotiate", "reject", "shed_door", "shed_batch")
#: The first three are decided by the solver; sheds are O(1) refusals.
DECIDED = OUTCOMES[:3]


@dataclass
class Rep:
    """What one repetition of a workload measured and checked."""

    wall_s: float = 0.0
    epoch_s: list = field(default_factory=list)
    #: Solver-decided response times (sim: per job, serve: per request).
    response_s: list = field(default_factory=list)
    #: serve only: response times per outcome class.
    outcome_s: dict = field(default_factory=lambda: {o: [] for o in OUTCOMES})
    attempted: int = 0
    failed: int = 0
    #: Hard check failures (raised, checker, response count, resume).
    problems: list = field(default_factory=list)
    lost: int = 0
    deadline_rate: float = 0.0
    delivered_frac: float = 0.0
    digest: str = ""
    queue_depth_max: int = 0
    journal_bytes: int = 0


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _seeds(seed: int, n: int) -> list[int]:
    """``n`` independent integer seeds derived from the benchmark seed."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


def stratified(rng, low: float, high: float, n: int) -> np.ndarray:
    """``n`` uniform draws on ``[low, high)``, one from each of ``n``
    equal strata, in random order: every seed draws the same spread."""
    return rng.permutation(low + (high - low) * (np.arange(n) + rng.uniform(size=n)) / n)


def balanced(rng, options: list, n: int) -> list:
    """``n`` draws from ``options``, each drawn ``n // len(options)``
    times plus a random distinct remainder, in random order."""
    full, rest = divmod(n, len(options))
    picks = np.concatenate([np.tile(np.arange(len(options)), full),
                            rng.choice(len(options), size=rest, replace=False)])
    return [options[i] for i in rng.permutation(picks)]


def booked_stream(network, seed, num_jobs, rate, lead_slices, config) -> JobSet:
    """A stratified stream of book-ahead reservations.

    Arrival ``k`` falls uniformly in ``[k, k + 1) / rate``; sizes are
    stratified over the config's range; window lengths, start slack
    and ordered node pairs are each used equally often.  The seed only
    draws within those strata and shuffles them, so every seed offers
    the same load with the same mix.  Each window starts at the first
    slice after arrival plus slack, shifted ``lead_slices`` further.
    """
    rng = np.random.default_rng(seed)
    nodes = network.nodes
    pairs = [(s, d) for s in nodes for d in nodes if s != d]
    arrivals = (np.arange(num_jobs) + rng.uniform(size=num_jobs)) / rate
    sizes = stratified(rng, config.size_low, config.size_high, num_jobs)
    spans = balanced(rng, list(range(config.window_slices_low,
                                     config.window_slices_high + 1)), num_jobs)
    slacks = balanced(rng, list(range(config.start_slack_slices + 1)), num_jobs)
    ods = balanced(rng, pairs, num_jobs)
    jobs = []
    for k, arrival in enumerate(arrivals):
        start = int(np.ceil(arrival - 1e-12)) + slacks[k] + lead_slices
        jobs.append(Job(id=f"job-{k}", source=ods[k][0], dest=ods[k][1],
                        size=float(sizes[k]), start=float(start),
                        end=float(start + spans[k]), arrival=float(arrival)))
    return JobSet(jobs)


# ----------------------------------------------------------------------
# Simulation workloads
# ----------------------------------------------------------------------
class SimWorkload:
    """A :class:`Simulation` run over a book-ahead stream."""

    loop = "closed"

    def run(self, driver: Simulation, inputs: dict, tracer=None) -> Rep:
        rep = Rep()
        jobs = inputs["jobs"]
        undecided = sorted(jobs, key=lambda j: (j.arrival, str(j.id)))
        deciding: list = []
        result = None
        start = time.perf_counter()
        kernel, steps = driver.controller(jobs)
        segment = start
        if tracer:
            tracer.epoch = 0
        span = tracer.open("sim.epoch") if tracer else None
        try:
            message = next(steps)
            while True:
                if message[0] == "decide":
                    while undecided and undecided[0].arrival <= kernel.now + 1e-9:
                        deciding.append(undecided.pop(0))
                else:
                    now = time.perf_counter()
                    if tracer:
                        tracer.close(span)
                        tracer.epoch += 1
                    rep.epoch_s.append(now - segment)
                    rep.response_s.extend([now - segment] * len(deciding))
                    deciding.clear()
                    segment = now
                    span = tracer.open("sim.epoch") if tracer else None
                message = steps.send(None)
        except StopIteration as stop:
            result = stop.value
        except Exception as exc:  # counted as a failed epoch, never swallowed
            rep.problems.append(f"epoch {len(rep.epoch_s)} raised {exc!r}")
        finally:
            if tracer:
                tracer.close(span)
        rep.wall_s = time.perf_counter() - start
        rep.attempted = len(rep.epoch_s) + (1 if rep.problems else 0)
        rep.failed = len(rep.problems)
        if result is not None:
            self._check(result, rep)
        return rep

    @staticmethod
    def _check(result, rep: Rep) -> None:
        """The deterministic output digest and the quality metrics.

        Checker violations never reach here: ``verify_epochs=True``
        makes the epoch raise, which :meth:`run` counts as a failure.
        """
        dump = serialization.simulation_to_dict(result)
        for event in dump["events"]:
            event.pop("solve_seconds", None)  # wall clock, not output
        rep.digest = _digest(dump)
        admitted = [r for r in result.records if r.status not in ("rejected", "pending")]
        rep.deadline_rate = float(result.deadline_rate)
        size = sum(r.job.size for r in admitted)
        rep.delivered_frac = sum(r.job.size - r.remaining for r in admitted) / size


class SimAbileneBookahead(SimWorkload):
    name = "sim-abilene-bookahead"
    num_jobs = 240
    rate = 1.0  # arrivals per slice
    lead_slices = 12
    config = WorkloadConfig(size_low=30.0, size_high=120.0, window_slices_low=4,
                            window_slices_high=10, start_slack_slices=2)
    #: Layers (span names) the traced run must see called.
    required = ("sim.epoch", "control.kernel", "core.schedule", "core.stage1",
                "core.stage2", "core.lpdar", "engine.path_sets",
                "engine.structure", "lp.wrapper", "lp.highs_run",
                "verify.check")

    def network(self):
        return abilene_network()

    def inputs(self, network, seed):
        jobs = booked_stream(network, seed, self.num_jobs, self.rate,
                             self.lead_slices, self.config)
        return {"jobs": jobs}

    def driver(self, network, inputs, workdir, rep, telemetry=None):
        return Simulation(network, policy="reduce", verify_epochs=True,
                          telemetry=telemetry)


class SimWaxmanFaults(SimWorkload):
    name = "sim-waxman-faults"
    num_nodes = 100
    #: The backbone is fixed; the seed draws jobs and faults on it.
    topology_seed = 1009
    num_jobs = 120
    rate = 1.0
    lead_slices = 6
    mtbf = 400.0  # per link pair, in slices
    mttr = 5.0
    #: RET stretches absolute end times by (1 + b); capping b at 1 keeps
    #: late-epoch probe LPs bounded instead of growing with the clock.
    ret_b_max = 1.0
    config = WorkloadConfig(size_low=30.0, size_high=120.0, window_slices_low=4,
                            window_slices_high=8, start_slack_slices=2)
    required = ("sim.epoch", "control.kernel", "core.schedule", "core.stage1",
                "core.stage2", "core.lpdar", "core.ret", "engine.path_sets",
                "engine.structure", "engine.cached_solve", "lp.wrapper",
                "lp.highs_run", "verify.check", "recovery.journal_append")

    def network(self):
        return waxman_network(self.num_nodes, seed=self.topology_seed)

    def inputs(self, network, seed):
        job_seed, fault_seed = _seeds(seed, 2)
        jobs = booked_stream(network, job_seed, self.num_jobs, self.rate,
                             self.lead_slices, self.config)
        faults = FaultSchedule.random(network, horizon=jobs.max_end(),
                                      mtbf=self.mtbf, mttr=self.mttr,
                                      seed=fault_seed)
        return {"jobs": jobs, "faults": faults}

    def driver(self, network, inputs, workdir, rep, telemetry=None):
        journal = workdir / f"{self.name}-{rep}.jsonl"
        journal.unlink(missing_ok=True)
        return Simulation(network, policy="extend", ret_b_max=self.ret_b_max,
                          verify_epochs=True, fault_schedule=inputs["faults"],
                          journal=journal, telemetry=telemetry)

    def run(self, driver, inputs, tracer=None):
        rep = super().run(driver, inputs, tracer)
        rep.journal_bytes = driver.journal_path.stat().st_size
        return rep


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
class ServeJournaledAbilene:
    """:class:`ReservationService` with its write-ahead journal on."""

    name = "serve-journaled-abilene"
    loop = "open"
    epochs = 300
    per_epoch = 30  # offered requests per epoch (open loop)
    queue_limit = 12
    rate = 3.0  # token-bucket admissions per epoch
    size_low, size_high = 20.0, 120.0
    window_low, window_high = 4, 10  # slices
    start_slack = 3  # slices
    ret_b_max = 1.0  # counter-offers at most double the requested end
    required = ("service.submit", "service.tick", "control.kernel",
                "core.schedule", "core.stage1", "core.stage2", "core.lpdar",
                "core.ret", "core.admission", "engine.path_sets",
                "engine.structure", "engine.cached_solve", "lp.wrapper",
                "lp.highs_run", "recovery.journal_append")

    def network(self):
        return abilene_network()

    def inputs(self, network, seed):
        # One stratified column per position in the burst (see
        # booked_stream): whichever prefix of each burst gets past the
        # door, the requests it admits have the same spread every seed.
        rng = np.random.default_rng(seed)
        nodes = network.nodes
        pairs = [(s, d) for s in nodes for d in nodes if s != d]
        n = self.epochs
        columns = [
            (balanced(rng, pairs, n),
             stratified(rng, self.size_low, self.size_high, n),
             balanced(rng, list(range(self.window_low, self.window_high + 1)), n),
             balanced(rng, list(range(self.start_slack + 1)), n))
            for _ in range(self.per_epoch)
        ]
        bursts = []
        for epoch in range(n):
            burst = []
            for position, (ods, sizes, spans, slacks) in enumerate(columns):
                start = float(epoch + slacks[epoch])
                burst.append({
                    "id": f"r{epoch * self.per_epoch + position}",
                    "source": ods[epoch][0],
                    "dest": ods[epoch][1],
                    "size": float(sizes[epoch]),
                    "start": start,
                    "end": start + spans[epoch],
                    "arrival": float(epoch),
                })
            bursts.append(burst)
        return {"bursts": bursts}

    def driver(self, network, inputs, workdir, rep, telemetry=None):
        journal = workdir / f"{self.name}-{rep}.jsonl"
        journal.unlink(missing_ok=True)
        return ReservationService(network, queue_limit=self.queue_limit,
                                  rate=self.rate, ret_b_max=self.ret_b_max,
                                  journal=journal, telemetry=telemetry)

    def run(self, service, inputs, tracer=None) -> Rep:
        rep = Rep()
        submitted: dict[str, str | None] = {}  # id -> outcome, None: no response
        responses: dict[str, int] = {}  # id -> times it was in tick()'s decisions
        start = time.perf_counter()
        try:
            asyncio.run(self._drive(service, inputs["bursts"], rep, submitted,
                                    responses, tracer))
        except Exception as exc:  # every undecided submission then fails
            rep.problems.append(f"tick raised {exc!r}")
        rep.wall_s = time.perf_counter() - start
        service.close()
        self._check(service, rep, submitted, responses)
        return rep

    async def _drive(self, service, bursts, rep, submitted, responses, tracer):
        pending: dict[str, tuple] = {}
        epoch = 0
        while epoch < len(bursts) or not service.idle:
            if tracer:
                tracer.epoch = epoch
            for request in bursts[epoch] if epoch < len(bursts) else ():
                sent = time.perf_counter()
                handle = service.submit(request)
                if handle.done:
                    submitted[request["id"]] = "shed_door"
                    rep.outcome_s["shed_door"].append(time.perf_counter() - sent)
                else:
                    pending[request["id"]] = (sent, handle)
            rep.queue_depth_max = max(rep.queue_depth_max, service.queue_depth)
            began = time.perf_counter()
            decisions = await service.tick()
            ended = time.perf_counter()
            rep.epoch_s.append(ended - began)
            decided = set()
            for decision in decisions:
                key = str(decision.request_id)
                responses[key] = responses.get(key, 0) + 1
                decided.add(key)
            for key in [k for k, (_, h) in pending.items() if h.done]:
                sent, handle = pending.pop(key)
                outcome = self._outcome(handle.decision, key in decided)
                submitted[key] = outcome
                rep.outcome_s[outcome].append(ended - sent)
            epoch += 1
        submitted.update(dict.fromkeys(pending))

    @staticmethod
    def _outcome(decision, solver_decided: bool) -> str:
        if isinstance(decision, Accepted):
            return "accept"
        if isinstance(decision, Negotiated):
            return "negotiate"
        if isinstance(decision, Rejected) and not solver_decided and \
                decision.reason in (REASON_OVERLOAD, REASON_STALE):
            return "shed_batch"
        return "reject"

    def _check(self, service, rep, submitted, responses) -> None:
        """Exactly one response each, lost acceptances, quality, digest."""
        rep.attempted = len(submitted)
        completed = {key.split("~v", 1)[0]
                     for key, res in service.book.reservations.items()
                     if res.status == "completed"}
        delivered: dict[str, float] = {}
        for key, res in service.book.reservations.items():
            origin = key.split("~v", 1)[0]
            delivered[origin] = delivered.get(origin, 0.0) + res.job.size - res.remaining
        accepted, volume, got = 0, 0.0, 0.0
        for key, outcome in submitted.items():
            count = responses.get(key, 0) + (outcome in ("shed_door", "shed_batch"))
            if outcome is None or count != 1:
                rep.problems.append(f"{key}: {count} responses")
                rep.failed += 1
            elif outcome == "accept":
                accepted += 1
                volume += service.book.reservations[key].job.size
                got += delivered[key]
                if key not in completed:
                    rep.lost += 1
                    rep.failed += 1
        rep.deadline_rate = (accepted - rep.lost) / accepted if accepted else 0.0
        rep.delivered_frac = got / volume if volume else 0.0
        for outcome in DECIDED:
            rep.response_s.extend(rep.outcome_s[outcome])
        rep.digest = service.book.digest()
        rep.journal_bytes = service.journal_path.stat().st_size

    def check_resume(self, service, rep: Rep) -> None:
        """Replaying the finished journal must rebuild the same book."""
        resumed = ReservationService.resume(str(service.journal_path))
        try:
            if resumed.book.digest() != rep.digest:
                rep.problems.append("journal replay rebuilt a different book")
                rep.failed += 1
        finally:
            resumed.close()


WORKLOADS = {
    w.name: w for w in (SimAbileneBookahead(), SimWaxmanFaults(),
                        ServeJournaledAbilene())
}
