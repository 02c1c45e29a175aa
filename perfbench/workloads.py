"""The benchmark workloads, driven through the public API.

``BENCHMARK.json`` gates ``rpc_tcp`` and ``fed_relay``; ``pilot`` and
``mpi16`` run through the same harness but are not gated (see README).

Each workload is a closed loop on one load thread with at most two client
connections.  Its inputs come from ``random.Random(seed)`` alone.  A
workload object builds its world in :meth:`build` (daemons up, sessions
attached, one warm-up pass), runs whole rounds of operations in
:meth:`run_round`, and answers :meth:`problems` from the outputs it
recorded (see :mod:`checks`).  An *op* is defined per workload:

* ``pilot``     — one monitored ``foo <n> <t>`` job: submit, paradynd
  attached, application exit observed by the tool.
* ``mpi16``     — one monitored 16-rank ``mpi_ring`` job, same path.
* ``rpc_tcp``   — one ``put`` or ``get`` call over TCP.
* ``fed_relay`` — one event: put on host A, notification on host B,
  blocking get on host B that misses locally.
"""

from __future__ import annotations

import contextlib
import random
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable

import checks
import traffic

_clock = time.perf_counter

_DIGITS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"


def _value(serial: int, size: int) -> str:
    """A ``size``-byte value: the last ``size`` base-62 digits of ``serial``.

    Successive serials give different values at every size, so a get that
    returns an older value of its attribute shows, unless that value is a
    multiple of 62**size puts old (62 at one byte, 238k at three).
    """
    digits = []
    for _ in range(size):
        serial, digit = divmod(serial, 62)
        digits.append(_DIGITS[digit])
    return "".join(reversed(digits))


def _value_sizes(rng: random.Random, count: int) -> list[int]:
    """``count`` put value sizes drawn from the pilot's own put values."""
    mix = traffic.load()["put_value_bytes"]
    return rng.choices([int(n) for n in mix], weights=list(mix.values()), k=count)


def _seconds() -> array:
    # 8 bytes per sample: a list of floats would hold 32, and a long run's
    # samples would then be a visible share of the process's rss_mb
    return array("d")


@dataclass
class Sample:
    """What the timed loop records; one entry per completed op."""

    latencies: array = field(default_factory=_seconds)
    launches: array = field(default_factory=_seconds)
    failed: int = 0
    #: harness-timed layer figures (seconds), read by the traced run
    relay: array = field(default_factory=_seconds)
    miss_get: array = field(default_factory=_seconds)

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed


class Workload:
    name = ""
    #: set-ups per run; ``setup_s`` is their median
    setup_repeats = 5
    #: a Parador scenario (resource manager, TDP, tool daemons, sim)
    parador = False
    #: true when each op is one client call with nothing else in flight,
    #: so the traced run can split calls into their seams
    one_call_in_flight = False

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        #: replaced by the traced run so session set-up is not counted as op work
        self.pause: Callable[[], Any] = contextlib.nullcontext
        self.on_op: Callable[[], None] = lambda: None
        self._problems: list[str] = []

    def build(self) -> None:
        raise NotImplementedError

    def run_round(self, sample: Sample) -> None:
        raise NotImplementedError

    def problems(self) -> list[str]:
        return list(self._problems)

    def counters(self) -> dict[str, float]:
        """Program-kept counters the traced run turns into per-op figures."""
        return {}

    def teardown(self) -> None:
        raise NotImplementedError


# -- Parador pilot and MPI universe -------------------------------------------------

def _mpi_submit_text(scenario, ranks: int, laps: int) -> str:
    return (
        f"universe = MPI\nexecutable = mpi_ring\n"
        f"arguments = {laps}\nmachine_count = {ranks}\n"
        f"output = outfile\n+SuspendJobAtExec = True\n"
        f'+ToolDaemonCmd = "paradynd"\n'
        f'+ToolDaemonArgs = "-zunix -l3 -m{scenario.submit_host} '
        f'-p{scenario.port1} -P{scenario.port2} -a%pid"\n'
        f"queue\n"
    )


class _ScenarioWorkload(Workload):
    parador = True
    hosts: list[str] = []

    def build(self) -> None:
        from repro.parador.run import ParadorScenario

        self.scenario = ParadorScenario(execute_hosts=list(self.hosts))
        self._daemons = 0
        self.warm_up()

    def warm_up(self) -> None:
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        return {"sim.slices": self.scenario.cluster.scheduler.slices_executed}

    def teardown(self) -> None:
        self.scenario.stop()

    def _last_seq(self) -> int:
        # sequence numbers start at 1 and are never reused
        return len(self.scenario.trace)

    def _events(self) -> list[tuple[str, str, dict]]:
        """Every trace event so far; the one with sequence number k is at k-1."""
        return [(e.actor, e.action, e.details) for e in self.scenario.trace.events()]


class Pilot(_ScenarioWorkload):
    """Monitored vanilla ``foo`` jobs, one at a time on one execute host.

    A round runs the 16 seeded jobs in turn on one pool, checks them, and
    replaces the pool with a fresh one.  A pool keeps every finished job
    (trace events, job records, tool sessions), so one pool for the whole
    run would make ``rss_mb`` follow the number of jobs, that is, the
    throughput.
    """

    name = "pilot"
    hosts = ["node1"]

    def __init__(self, seed: int):
        super().__init__(seed)
        # rounds n in 2..4, round cost t in 0.01..0.09 virtual seconds
        self.inputs = [
            (self.rng.randint(2, 4), self.rng.randint(1, 9) / 100) for _ in range(16)
        ]
        #: scheduler slices of the pools already replaced
        self._slices = 0

    def warm_up(self) -> None:
        job, session = self._job(2, 0.01)
        found = self._verify(2, 0.01, job, session, self._events())
        if found:
            raise RuntimeError(f"pilot warm-up job wrong: {found}")

    def _job(self, rounds: int, cost: float):
        from repro.condor.job import JobStatus

        run = self.scenario.submit_monitored("foo", f"{rounds} {cost}")
        if run.job.wait_terminal(timeout=60.0) is not JobStatus.COMPLETED:
            raise RuntimeError(f"pilot job ended {run.job.status}")
        run.session.wait_state("exited", timeout=60.0)
        return run.job, run.session

    def run_round(self, sample: Sample) -> None:
        from repro.condor.job import JobStatus
        from repro.parador.run import ParadorScenario

        jobs = []
        for rounds, cost in self.inputs:
            self.on_op()
            seq = self._last_seq()
            start = _clock()
            run = self.scenario.submit_monitored("foo", f"{rounds} {cost}")
            attached = _clock()
            status = run.job.wait_terminal(timeout=60.0)
            run.session.wait_state("exited", timeout=60.0)
            done = _clock()
            if status is not JobStatus.COMPLETED:
                self._problems.append(f"pilot job {run.job.job_id} ended {status}")
            sample.latencies.append(done - start)
            sample.launches.append(attached - start)
            jobs.append((rounds, cost, run, seq, self._last_seq()))
        events = self._events()
        for rounds, cost, run, seq, until in jobs:
            self._problems += self._verify(
                rounds, cost, run.job, run.session, events[seq:until])
        with self.pause():
            self._slices += self.scenario.cluster.scheduler.slices_executed
            self.scenario.stop()
            self.scenario = ParadorScenario(execute_hosts=list(self.hosts))

    def counters(self) -> dict[str, float]:
        return {"sim.slices": self._slices + self.scenario.cluster.scheduler.slices_executed}

    def _verify(self, rounds, cost, job, session, events) -> list[str]:
        deadline = _clock() + 10.0
        want = len(checks.expected_foo_stdout(rounds))
        while len(job.stdout_lines) < want and _clock() < deadline:
            time.sleep(0.01)
        return checks.check_pilot_job(
            rounds, cost,
            tool_cpu=session.latest("proc_cpu"),
            stdout=list(job.stdout_lines),
            rm_exit=job.exit_code,
            tool_exit=session.exit_code,
            events=events,
        )



class Mpi16(_ScenarioWorkload):
    """Monitored 16-rank ``mpi_ring`` jobs: one paradynd per rank."""

    name = "mpi16"
    ranks = 16
    hosts = [f"node{i}" for i in range(16)]
    setup_repeats = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        self.inputs = [self.rng.randint(1, 3) for _ in range(16)]
        self._jobs: list[tuple[int, Any, list]] = []
        self._next = 0

    def warm_up(self) -> None:
        # A small job through the same path (MPI universe, per-rank
        # paradynd attach) warms every code path without a full launch.
        job, sessions = self._submit(2, 1)
        self._finish(job, sessions)
        found = checks.check_mpi_job(
            2, 1, sessions=[(s.host, s.pid) for s in sessions],
            rm_exit=job.exit_code, stdout=self._stdout(job, 1),
        )
        if found:
            raise RuntimeError(f"mpi warm-up job wrong: {found}")

    def _submit(self, ranks: int, laps: int):
        job = self.scenario.pool.submit_file(_mpi_submit_text(self.scenario, ranks, laps))[0]
        self._daemons += ranks
        sessions = self.scenario.frontend.wait_for_daemons(self._daemons, timeout=120.0)
        return job, sessions[-ranks:]

    def _finish(self, job, sessions) -> None:
        from repro.condor.job import JobStatus

        status = job.wait_terminal(timeout=120.0)
        for session in sessions:
            session.wait_state("exited", timeout=60.0)
        if status is not JobStatus.COMPLETED:
            self._problems.append(f"mpi job {job.job_id} ended {status}")

    @staticmethod
    def _stdout(job, lines: int) -> list[str]:
        deadline = _clock() + 10.0
        while len(job.stdout_lines) < lines and _clock() < deadline:
            time.sleep(0.01)
        return list(job.stdout_lines)

    def run_round(self, sample: Sample) -> None:
        laps = self.inputs[self._next % len(self.inputs)]
        self._next += 1
        self.on_op()
        start = _clock()
        job, sessions = self._submit(self.ranks, laps)
        launched = _clock()
        self._finish(job, sessions)
        done = _clock()
        sample.latencies.append(done - start)
        sample.launches.append(launched - start)
        self._jobs.append((laps, job, sessions))

    def problems(self) -> list[str]:
        found = list(self._problems)
        for laps, job, sessions in self._jobs:
            found += checks.check_mpi_job(
                self.ranks, laps,
                sessions=[(s.host, s.pid) for s in sessions],
                rm_exit=job.exit_code,
                stdout=self._stdout(job, 1),
            )
        return found


# -- attribute space over TCP -----------------------------------------------------

class RpcTcp(Workload):
    """Single-op puts and gets from one client to one CASS over TCP.

    The traffic has the shape of the pilot's own (``traffic.json``): a
    working set the size of a job's context, put values drawn from the
    pilot's put value lengths, and sessions as long as the pilot's.  A
    round opens a fresh session (dial, negotiate ``tdpb1``, attach) —
    its duration is the round's launch sample — then alternates a put and
    a get over the working set until the session has made the pilot's
    number of calls, and closes the session.
    """

    name = "rpc_tcp"
    one_call_in_flight = True

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        mix = traffic.load()
        self.keys = mix["attributes_per_context"]
        self.key_names = [f"ws.{i:03d}" for i in range(self.keys)]
        # the calls of a session, less its attach and its detach
        ops = mix["calls_per_session"] - 2
        # one round: (put?, key, value size), the same every round
        self.plan = [
            (i % 2 == 0, rng.randrange(self.keys), size)
            for i, size in enumerate(_value_sizes(rng, ops))
        ]
        self.model: dict[str, str] = {}
        self._serial = 0

    def build(self) -> None:
        from repro.attrspace.server import AttributeSpaceServer, ServerRole
        from repro.transport.tcp import TcpTransport

        self.transport = TcpTransport()
        self.server = AttributeSpaceServer(self.transport, "cass-host", role=ServerRole.CASS)
        # The holder keeps the context alive while load sessions come and
        # go (the last member's detach destroys a context), as the
        # resource manager's session does for a job's context.
        self.holder = self._connect("holder")
        # warm-up pass: fill the working set, then read it back once
        for key, size in zip(self.key_names, _value_sizes(self.rng, self.keys)):
            value = self._next_value(size)
            self.holder.put(key, value)
            self.model[key] = value
        for key in self.key_names:
            self._problems += checks.check_get(
                key, self.holder.get(key, timeout=10.0), self.model)

    def _connect(self, member: str):
        from repro.attrspace.client import AttributeSpaceClient

        return AttributeSpaceClient.connect(
            self.transport, "client-host", self.server.endpoint,
            context="bench", member=member,
        )

    def _next_value(self, size: int) -> str:
        self._serial += 1
        return _value(self._serial, size)

    def run_round(self, sample: Sample) -> None:
        from repro import errors

        with self.pause():
            start = _clock()
            client = self._connect("load")
            sample.launches.append(_clock() - start)
        try:
            for is_put, key_no, size in self.plan:
                key = self.key_names[key_no]
                value = self._next_value(size) if is_put else None
                self.on_op()
                start = _clock()
                try:
                    if is_put:
                        client.put(key, value)
                    else:
                        got = client.get(key, timeout=10.0)
                except errors.TdpError:
                    sample.failed += 1
                    continue
                sample.latencies.append(_clock() - start)
                if is_put:
                    self.model[key] = value
                else:
                    self._problems += checks.check_get(key, got, self.model)
        finally:
            with self.pause():
                client.close()

    def teardown(self) -> None:
        self.holder.close()
        self.server.stop()


class FedRelay(Workload):
    """Writer on LASS host A, reader on LASS host B, one CASS upstream.

    The writer's session lives for the whole run.  Each round dials a
    fresh reader session through host B's LASS and subscribes it to
    ``ev.*``; the LASS aggregates that into one upstream subscription,
    and the time until it is live at the CASS is the round's launch
    sample.  Each event then puts ``data.<k>`` and ``ev.<k>`` on host A,
    waits for the reader's notification on host B, and does a blocking
    get of ``data.<k>`` there, which misses the local cache and is
    forwarded upstream.
    """

    name = "fed_relay"
    setup_repeats = 7
    subscribed_hosts = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        self.tag = f"{rng.getrandbits(32):08x}"
        # a round fills a working set the size of a job's context with
        # (data, event) pairs, value sizes drawn from the pilot's puts
        events = traffic.load()["attributes_per_context"] // 2
        sizes = _value_sizes(rng, 2 * events)
        self.plan = list(zip(sizes[:events], sizes[events:]))
        self._serial = 0
        self._events = 0
        #: this round's notifications as the reader's callback saw them
        self._delivered: list[tuple[str, str]] = []
        self._arrivals: list[float] = []

    def build(self) -> None:
        from repro.attrspace.client import AttributeSpaceClient
        from repro.attrspace.lass import LassServer
        from repro.attrspace.server import AttributeSpaceServer, ServerRole
        from repro.transport.tcp import TcpTransport

        self.transport = TcpTransport()
        self.cass = AttributeSpaceServer(self.transport, "cass-host", role=ServerRole.CASS)
        self.lass_a = LassServer(self.transport, "host-a", upstream=self.cass.endpoint)
        self.lass_b = LassServer(self.transport, "host-b", upstream=self.cass.endpoint)
        self._egress_start = self.cass.stats["notifications"].value
        self.writer = AttributeSpaceClient.connect(
            self.transport, "host-a", self.lass_a.endpoint, context="bench", member="writer",
        )
        # warm-up pass: one round
        self._round_events(Sample(), self.plan, warm=True)

    def _notified(self, notification, _arg) -> None:
        self._arrivals.append(_clock())
        self._delivered.append((notification.attribute, notification.value))

    def run_round(self, sample: Sample) -> None:
        self._round_events(sample, self.plan)

    def _round_events(self, sample: Sample, plan, warm: bool = False) -> None:
        from repro import errors
        from repro.attrspace.client import AttributeSpaceClient

        with self.pause():
            start = _clock()
            reader = AttributeSpaceClient.connect(
                self.transport, "host-b", self.lass_b.endpoint,
                context="bench", member="reader",
            )
            reader.subscribe("ev.*", self._notified)
            self.lass_b.federation.settle(timeout=10.0)
            launch = _clock() - start
        if not warm:
            sample.launches.append(launch)
        sent: list[tuple[str, str]] = []
        self._delivered, self._arrivals = [], []
        try:
            for i, (data_size, ev_size) in enumerate(plan):
                # The same keys every round with new values: the stores
                # stay one round big, a stale value shows, and host B
                # still misses because its context (and cache) dies with
                # each round's reader.
                key = f"{self.tag}.{i}"
                self._serial += 2
                data = _value(self._serial - 1, data_size)
                event = _value(self._serial, ev_size)
                self.on_op()
                start = _clock()
                try:
                    self.writer.put(f"data.{key}", data)
                    put_at = _clock()
                    self.writer.put(f"ev.{key}", event)
                    sent.append((f"ev.{key}", event))
                    while len(self._delivered) < len(sent):
                        if not reader.wait_event(timeout=10.0):
                            raise errors.GetTimeoutError(f"event ev.{key} not delivered")
                        reader.service_events()
                    got_at = _clock()
                    got = reader.get(f"data.{key}", timeout=10.0)
                except errors.TdpError:
                    sample.failed += 1
                    continue
                done = _clock()
                sample.latencies.append(done - start)
                sample.relay.append(self._arrivals[len(sent) - 1] - put_at)
                sample.miss_get.append(done - got_at)
                self._problems += checks.check_get(key, got, {key: data})
            reader.service_events()
            self._problems += checks.check_relay_events(sent, self._delivered)
            self._events += len(sent)
        finally:
            with self.pause():
                reader.close()
                # let host B's LASS finish tearing the context down, so
                # the next round's launch starts from the same state
                self.lass_b.federation.settle(timeout=10.0)

    def problems(self) -> list[str]:
        egress = self.cass.stats["notifications"].value - self._egress_start
        return list(self._problems) + checks.check_egress(
            egress, self._events, self.subscribed_hosts
        )

    def counters(self) -> dict[str, float]:
        out = {"cass.egress": self.cass.stats["notifications"].value}
        for key in ("forwards", "forwarded_gets"):
            out[f"federation.{key}"] = sum(
                lass.federation.counters[key].value for lass in (self.lass_a, self.lass_b)
            )
        return out

    def teardown(self) -> None:
        self.writer.close()
        self.lass_a.stop()
        self.lass_b.stop()
        self.cass.stop()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Pilot, Mpi16, RpcTcp, FedRelay)
}
