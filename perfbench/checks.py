"""Correctness checks for the benchmark workloads.

Every check works from what the harness itself chose and recorded — the
seeded inputs, the values it put, the notifications its callback saw —
and from the outputs a user of the system would read (job stdout, exit
codes, the tool's CPU figure, the scenario trace).  None of them calls
back into the program to ask whether the program was right.

Each function returns a list of problems; an empty list means the
output is correct.  ``perfbench/tests/test_checks.py`` feeds each check
corrupted outputs to show that it rejects them.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

#: Virtual seconds the simulated kernel charges per system call.  The
#: tool's CPU figure for ``foo`` exceeds the program's computed work by
#: this charge times the number of calls the program made.
SYSCALL_CHARGE = 1e-6


def foo_syscall_bound(rounds: int) -> int:
    """Generous upper bound on the system calls ``foo <rounds> <t>`` makes.

    Each round enters three functions and computes and prints once, and
    the prologue and epilogue add a handful more: about eight per round
    plus sixteen.  The bound is twice that, and its charge is still below
    one hundredth of a round's CPU, so a lost or duplicated round shows.
    """
    return 16 * rounds + 32


def expected_foo_cpu(rounds: int, round_cost: float) -> float:
    """CPU of ``foo <rounds> <round_cost>``: 0.02 s init, 0.02 s finish."""
    return 0.04 + rounds * round_cost


def expected_foo_stdout(rounds: int) -> list[str]:
    return [f"round {i} done" for i in range(rounds)] + ["all rounds complete"]


#: Figure 6 of the paper, as (actor, action, required details) steps that
#: must appear in this order among one job's trace events.
FIG6_STEPS: tuple[tuple[str, str, Mapping[str, str]], ...] = (
    ("starter", "tdp_init", {}),
    ("starter", "tdp_create_process", {"target": "AP", "mode": "paused"}),
    ("starter", "tdp_create_process", {"target": "RT", "mode": "run"}),
    ("starter", "tdp_put", {"attribute": "pid"}),
    ("paradynd", "tdp_get_returned", {"attribute": "pid"}),
    ("paradynd", "tdp_attach", {}),
    ("paradynd", "tdp_continue_process", {}),
)


def _matches(event: tuple[str, str, Mapping], step: tuple[str, str, Mapping]) -> bool:
    actor, action, details = event
    want_actor, want_action, want = step
    if actor != want_actor or action != want_action:
        return False
    return all(str(details.get(k)) == v for k, v in want.items())


def check_fig6_order(events: Sequence[tuple[str, str, Mapping]]) -> list[str]:
    """The four-step launch of Figure 6 happened in order.

    ``events`` are one job's (actor, action, details) trace records in
    recording order.  Besides the step order, paradynd must have issued
    its blocking get for the pid before that get returned.
    """
    position = 0
    for event in events:
        if position < len(FIG6_STEPS) and _matches(event, FIG6_STEPS[position]):
            position += 1
    problems = []
    if position < len(FIG6_STEPS):
        actor, action, details = FIG6_STEPS[position]
        problems.append(
            f"Fig 6 order broken: step {position + 1} ({actor} {action} {dict(details)}) "
            "missing or out of order"
        )
    issued = next(
        (i for i, e in enumerate(events) if e[0] == "paradynd" and e[1] == "tdp_get"),
        None,
    )
    returned = next(
        (i for i, e in enumerate(events)
         if e[0] == "paradynd" and e[1] == "tdp_get_returned"),
        None,
    )
    if issued is None or returned is None or issued > returned:
        problems.append("paradynd's blocking get was not issued before it returned")
    return problems


def check_pilot_job(
    rounds: int,
    round_cost: float,
    *,
    tool_cpu: float | None,
    stdout: Sequence[str],
    rm_exit: int | None,
    tool_exit: int | None,
    events: Sequence[tuple[str, str, Mapping]],
) -> list[str]:
    """One monitored ``foo`` job of the pilot workload."""
    problems = []
    expected = expected_foo_cpu(rounds, round_cost)
    slack = SYSCALL_CHARGE * foo_syscall_bound(rounds)
    if tool_cpu is None or not (expected - 1e-9 <= tool_cpu <= expected + slack):
        problems.append(
            f"tool CPU {tool_cpu!r} != 0.04 + {rounds}*{round_cost} = {expected:.6f} "
            f"(+ at most {slack:.6f} syscall charge)"
        )
    want = expected_foo_stdout(rounds)
    if list(stdout) != want:
        problems.append(f"stdout {list(stdout)!r} != {want!r}")
    if rm_exit != 0:
        problems.append(f"exit code seen by the resource manager: {rm_exit!r}")
    if tool_exit != 0:
        problems.append(f"exit code seen by the tool: {tool_exit!r}")
    problems.extend(check_fig6_order(events))
    return problems


def check_mpi_job(
    ranks: int,
    laps: int,
    *,
    sessions: Iterable[tuple[str, int]],
    rm_exit: int | None,
    stdout: Sequence[str],
) -> list[str]:
    """One monitored ``mpi_ring`` job: a tool per rank, the token's lap count."""
    problems = []
    distinct = set(sessions)
    if len(distinct) != ranks:
        problems.append(f"{len(distinct)} distinct (host, pid) tool sessions, want {ranks}")
    if rm_exit != 0:
        problems.append(f"job exit code {rm_exit!r}")
    want = [f"token={laps * ranks}"]
    if list(stdout) != want:
        problems.append(f"rank 0 printed {list(stdout)!r}, want {want!r}")
    return problems


def check_get(attribute: str, got: str, model: Mapping[str, str]) -> list[str]:
    """A get returned exactly what the harness last put, byte for byte."""
    want = model.get(attribute)
    if got != want:
        return [f"get {attribute!r} returned {_short(got)}, last put was {_short(want)}"]
    return []


def check_relay_events(
    sent: Sequence[tuple[str, str]],
    delivered: Sequence[tuple[str, str]],
) -> list[str]:
    """Each event reached the reader exactly once, in put order, with its value."""
    if list(delivered) == list(sent):
        return []
    seen: dict[tuple[str, str], int] = {}
    for item in delivered:
        seen[item] = seen.get(item, 0) + 1
    put = set(sent)
    dropped = [s for s in sent if s not in seen]
    duplicated = [d for d, count in seen.items() if count > 1]
    extra = [d for d in seen if d not in put]
    problems = []
    if dropped:
        problems.append(f"{len(dropped)} events never delivered, first {dropped[0]!r}")
    if duplicated:
        problems.append(f"{len(duplicated)} events delivered twice, first {duplicated[0]!r}")
    if extra:
        problems.append(f"{len(extra)} deliveries of events never put, first {extra[0]!r}")
    if not problems:
        problems.append("events delivered out of put order")
    return problems


def check_egress(frames: int, events: int, subscribed_hosts: int) -> list[str]:
    """The CASS sent one notification frame per event per subscribed host."""
    if frames != events * subscribed_hosts:
        return [
            f"CASS egress {frames} frames != {events} events x "
            f"{subscribed_hosts} subscribed hosts"
        ]
    return []


def _short(value: str | None) -> str:
    if value is None:
        return "None"
    if len(value) <= 24:
        return repr(value)
    return f"{value[:12]!r}...({len(value)} chars)"
