"""Self-test of the benchmark: each correctness check rejects corrupted output.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402

FIG6_EVENTS = [
    ("starter", "tdp_init", {"context": "1.0"}),
    ("starter", "tdp_create_process", {"target": "AP", "mode": "paused"}),
    ("starter", "tdp_create_process", {"target": "RT", "mode": "run"}),
    ("paradynd", "tdp_init", {}),
    ("paradynd", "tdp_get", {"attribute": "pid", "blocking": True}),
    ("starter", "tdp_put", {"attribute": "pid", "value": "7"}),
    ("paradynd", "tdp_get_returned", {"attribute": "pid", "value": 7}),
    ("paradynd", "tdp_attach", {"pid": 7}),
    ("paradynd", "tdp_continue_process", {"pid": 7, "until": "main"}),
]


def pilot_output(**overrides):
    rounds, cost = 3, 0.05
    output = {
        "tool_cpu": checks.expected_foo_cpu(rounds, cost) + 39 * checks.SYSCALL_CHARGE,
        "stdout": checks.expected_foo_stdout(rounds),
        "rm_exit": 0,
        "tool_exit": 0,
        "events": list(FIG6_EVENTS),
    }
    output.update(overrides)
    return checks.check_pilot_job(rounds, cost, **output)


class TestPilot:
    def test_accepts_a_correct_job(self):
        assert pilot_output() == []

    @pytest.mark.parametrize("cpu", [
        0.04 + 2 * 0.05,            # a round lost
        0.04 + 4 * 0.05,            # a round counted twice
        0.04 + 3 * 0.05 + 0.001,    # more than the syscall charge over
        0.04 + 3 * 0.05 - 0.001,    # under the computed work
        None,                       # the tool reported nothing
    ])
    def test_rejects_a_wrong_cpu_figure(self, cpu):
        assert any("tool CPU" in p for p in pilot_output(tool_cpu=cpu))

    def test_rejects_missing_or_extra_stdout(self):
        lines = checks.expected_foo_stdout(3)
        assert pilot_output(stdout=lines[:-1])
        assert pilot_output(stdout=lines + lines[-1:])
        assert pilot_output(stdout=[lines[1], lines[0]] + lines[2:])

    def test_rejects_a_nonzero_exit_on_either_side(self):
        assert pilot_output(rm_exit=1)
        assert pilot_output(tool_exit=None)

    def test_rejects_attach_before_the_pid_rendezvous(self):
        events = list(FIG6_EVENTS)
        attach = events.pop(7)
        events.insert(5, attach)
        assert any("Fig 6" in p for p in pilot_output(events=events))

    def test_rejects_a_get_that_returned_before_it_was_issued(self):
        events = [e for e in FIG6_EVENTS if e[1] != "tdp_get"]
        events.append(("paradynd", "tdp_get", {"attribute": "pid"}))
        assert checks.check_fig6_order(events)

    def test_rejects_an_application_created_running(self):
        events = list(FIG6_EVENTS)
        events[1] = ("starter", "tdp_create_process", {"target": "AP", "mode": "run"})
        assert checks.check_fig6_order(events)


class TestMpi:
    sessions = [(f"node{i}", 100 + i) for i in range(16)]

    def test_accepts_a_correct_job(self):
        assert checks.check_mpi_job(
            16, 2, sessions=self.sessions, rm_exit=0, stdout=["token=32"]) == []

    def test_rejects_a_wrong_token(self):
        assert checks.check_mpi_job(
            16, 2, sessions=self.sessions, rm_exit=0, stdout=["token=31"])
        assert checks.check_mpi_job(
            16, 2, sessions=self.sessions, rm_exit=0, stdout=[])

    def test_rejects_a_rank_without_its_own_tool(self):
        sessions = self.sessions[:-1] + [self.sessions[0]]
        assert checks.check_mpi_job(16, 2, sessions=sessions, rm_exit=0, stdout=["token=32"])

    def test_rejects_a_failed_job(self):
        assert checks.check_mpi_job(
            16, 2, sessions=self.sessions, rm_exit=3, stdout=["token=32"])


class TestRpc:
    def test_accepts_the_last_value_put(self):
        assert checks.check_get("k", "v2", {"k": "v2"}) == []

    def test_rejects_a_stale_value(self):
        assert checks.check_get("k", "v1", {"k": "v2"})

    def test_rejects_a_value_differing_in_one_byte(self):
        value = "7:12:" + "x" * 2043
        assert checks.check_get("k", value[:-1] + "y", {"k": value})


class TestRelay:
    sent = [(f"ev.{i}", f"value-{i}") for i in range(5)]

    def test_accepts_each_event_once_in_order(self):
        assert checks.check_relay_events(self.sent, list(self.sent)) == []

    def test_rejects_a_dropped_delivery(self):
        assert any("never delivered" in p
                   for p in checks.check_relay_events(self.sent, self.sent[:2] + self.sent[3:]))

    def test_rejects_a_duplicated_delivery(self):
        delivered = self.sent[:3] + self.sent[2:]
        assert any("twice" in p for p in checks.check_relay_events(self.sent, delivered))

    def test_rejects_a_reordered_delivery(self):
        delivered = [self.sent[1], self.sent[0]] + self.sent[2:]
        assert checks.check_relay_events(self.sent, delivered) == [
            "events delivered out of put order"]

    def test_rejects_a_delivery_with_the_wrong_value(self):
        delivered = list(self.sent)
        delivered[4] = ("ev.4", "value-3")
        assert checks.check_relay_events(self.sent, delivered)

    def test_egress_must_be_one_frame_per_event_per_host(self):
        assert checks.check_egress(48, 48, 1) == []
        assert checks.check_egress(96, 48, 1)
        assert checks.check_egress(47, 48, 1)


class TestSeamCheck:
    """The traced run's seam split flags calls that do not follow an RPC."""

    CALLER, SERVER, RECEIVER = 1, 2, 3

    def seams(self, top):
        spans = [probes.Span("client.call", self.CALLER, 0, 0, 100, 0, None, 1)]
        spans += [probes.Span(name, tid, 1 if tid == self.CALLER else 0,
                              start, start + 10, 10, None, 1)
                  for name, tid, start in top]
        probes.RECORDER.reset()
        probes.RECORDER.spans = spans
        try:
            return probes.rpc_seams(self.CALLER)
        finally:
            probes.RECORDER.reset()

    def test_accepts_an_rpc_in_sequence(self):
        seams = self.seams([("codec.encode", self.CALLER, 5), ("framing.feed", self.SERVER, 20),
                            ("server.dispatch", self.SERVER, 30),
                            ("framing.feed", self.RECEIVER, 60)])
        assert seams["misordered"] == 0
        # 100 ns call: 40 ns covered, frame build 5, hops 5 + 20, wake-up 30
        assert seams["covered"] + seams["frame_build"] + seams["hop"] + seams["wakeup"] \
            + seams["unattributed"] == pytest.approx(seams["call"])

    def test_flags_a_missing_server_dispatch(self):
        seams = self.seams([("codec.encode", self.CALLER, 5), ("framing.feed", self.SERVER, 20),
                            ("framing.feed", self.RECEIVER, 60)])
        assert seams["misordered"] == 1

    def test_flags_a_reply_fed_on_the_server_thread(self):
        seams = self.seams([("codec.encode", self.CALLER, 5), ("framing.feed", self.SERVER, 20),
                            ("server.dispatch", self.SERVER, 30),
                            ("framing.feed", self.SERVER, 60)])
        assert seams["misordered"] == 1


class TestHarness:
    def test_benchmark_json_names_what_the_harness_prints(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER

    @pytest.mark.parametrize("name", run.REFUSED_ENV)
    def test_refuses_to_measure_with_program_settings_changed(self, name, monkeypatch, capsys):
        monkeypatch.setenv(name, "1")
        code = run.main(["--workload", "rpc_tcp", "--seed", "1", "--seconds", "1"])
        assert code == 2
        assert capsys.readouterr().out == ""
