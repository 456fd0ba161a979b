"""CLI tests for ``repro serve`` and ``repro bench-load``.

``serve`` is driven end to end through ``main()`` with a stdin substitute:
JSON-lines round-trips, per-line domain errors, and the malformed-request
paths that must exit non-zero with a stderr diagnostic.
"""

from __future__ import annotations

import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import main

GRAPH_ARGS = ["--dataset", "wiki", "--scale", "0.02"]

REPO_ROOT = Path(__file__).resolve().parents[2]


def _spawn_serve(*extra_args, stdout=subprocess.PIPE):
    """Spawn ``repro serve`` as a real subprocess (signal/pipe tests)."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "--seed", "7", "serve", *GRAPH_ARGS,
         *extra_args],
        stdin=subprocess.PIPE, stdout=stdout, stderr=subprocess.PIPE,
        env=env, cwd=REPO_ROOT, text=True,
    )


def _serve(monkeypatch, capsys, lines, extra_args=(), seed="7"):
    """Run ``repro serve`` over the given request lines; return (code, out, err)."""
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(line + "\n" for line in lines)))
    code = main(["--seed", seed, "serve", *GRAPH_ARGS, *extra_args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _valid_requests():
    return [
        json.dumps({"op": "pmax", "source": 0, "target": 50, "epsilon": 0.3,
                    "confidence_n": 100.0, "max_samples": 20000}),
        json.dumps({"op": "evaluate", "source": 0, "target": 50,
                    "invitation": [1, 2, 3, 50], "num_samples": 300}),
        json.dumps({"op": "maximize", "source": 0, "target": 50,
                    "budget": 3, "num_realizations": 500}),
    ]


class TestServeRoundTrip:
    def test_answers_one_json_line_per_request(self, monkeypatch, capsys):
        code, out, err = _serve(monkeypatch, capsys, _valid_requests())
        assert code == 0
        replies = [json.loads(line) for line in out.strip().splitlines()]
        assert [reply["op"] for reply in replies] == ["pmax", "evaluate", "maximize"]
        assert all(reply["ok"] for reply in replies)
        assert replies[0]["result"]["num_samples"] > 0
        assert replies[1]["result"]["num_samples"] == 300
        assert len(replies[2]["result"]["invitation"]) <= 3

    def test_repeated_requests_get_identical_answers(self, monkeypatch, capsys):
        request = _valid_requests()[0]
        code, out, _ = _serve(monkeypatch, capsys, [request, request, request])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert len(set(lines)) == 1  # byte-identical reply lines

    def test_blank_lines_are_skipped(self, monkeypatch, capsys):
        code, out, _ = _serve(monkeypatch, capsys, ["", _valid_requests()[1], "   "])
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    def test_stats_op_reports_reconciling_counters(self, monkeypatch, capsys):
        requests = _valid_requests()
        code, out, _ = _serve(
            monkeypatch, capsys, [*requests, requests[0], json.dumps({"op": "stats"})]
        )
        assert code == 0
        stats = json.loads(out.strip().splitlines()[-1])
        assert stats["ok"] and stats["op"] == "stats"
        counters = stats["result"]
        assert counters["requests"] == (
            counters["executed"] + counters["coalesced"] + counters["rejected"]
        )
        assert counters["requests"] == 4
        assert 0.0 <= counters["pool_hit_rate"] <= 1.0
        assert "coalesce_rate" in counters

    def test_domain_errors_are_reported_per_line_and_serving_continues(
        self, monkeypatch, capsys
    ):
        unknown_node = json.dumps({"op": "pmax", "source": 0, "target": 999_999})
        code, out, _ = _serve(monkeypatch, capsys, [unknown_node, _valid_requests()[1]])
        assert code == 0
        first, second = (json.loads(line) for line in out.strip().splitlines())
        assert first["ok"] is False and "999999" in first["error"]
        assert second["ok"] is True

    def test_admission_rejections_are_per_line_responses(self, monkeypatch, capsys):
        over_budget = json.dumps(
            {"op": "evaluate", "source": 0, "target": 50, "num_samples": 5000}
        )
        code, out, _ = _serve(
            monkeypatch, capsys, [over_budget, _valid_requests()[1]],
            extra_args=["--max-query-samples", "1000"],
        )
        assert code == 0
        first, second = (json.loads(line) for line in out.strip().splitlines())
        assert first["ok"] is False and "budget" in first["error"]
        assert second["ok"] is True


class TestServeMalformedRequests:
    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("not json", "invalid JSON"),
            ("[1, 2, 3]", "expected a JSON object"),
            ('{"source": 0, "target": 50}', "unknown op"),
            ('{"op": "frobnicate"}', "unknown op"),
            ('{"op": "pmax", "source": 0, "target": 50, "epsilon": -1.0}', "epsilon"),
            ('{"op": "pmax", "bogus_field": 1}', "bogus_field"),
        ],
    )
    def test_malformed_request_exits_nonzero_with_diagnostic(
        self, monkeypatch, capsys, line, fragment
    ):
        code, _, err = _serve(monkeypatch, capsys, [line])
        assert code == 1
        assert "malformed request on line 1" in err
        assert fragment in err

    def test_lines_before_the_malformed_one_are_served(self, monkeypatch, capsys):
        code, out, err = _serve(monkeypatch, capsys, [_valid_requests()[1], "not json"])
        assert code == 1
        assert json.loads(out.strip().splitlines()[0])["ok"] is True
        assert "line 2" in err


class TestServeWorkersParity:
    def test_workers_auto_matches_explicit_count(self, monkeypatch, capsys):
        """The pool's chunk streams are worker-count independent, so serve
        output is byte-identical for --workers auto, an explicit count, and
        the single-stream default."""
        outputs = []
        for extra in ([], ["--workers", "1"], ["--workers", "auto"]):
            code, out, _ = _serve(monkeypatch, capsys, _valid_requests(), extra_args=extra)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]


class TestServeLifecycle:
    """Regression tests for the serve loop's exits: a downstream reader
    closing stdout mid-stream (EPIPE) and Ctrl-C must both end the process
    cleanly -- no traceback, no half-written line, a stderr diagnostic."""

    def test_downstream_reader_closing_stdout_exits_clean(self):
        """Pipe serve through a reader that stops after one line (head -1):
        the BrokenPipeError must be caught, not crash the process."""
        requests = [json.dumps({"op": "evaluate", "source": 0, "target": 50,
                                "num_samples": 100})]
        # The remaining requests are distinct (never coalesced/cached), so
        # the writes keep coming long after the reader has gone away.
        requests += [
            json.dumps({"op": "pmax", "source": 0, "target": 50, "epsilon": 0.3,
                        "confidence_n": 100.0, "max_samples": 20_000 + n})
            for n in range(20)
        ]
        script = (
            f"set -o pipefail; {sys.executable} -m repro --seed 7 serve "
            + " ".join(GRAPH_ARGS) + " | head -1"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        completed = subprocess.run(
            ["bash", "-c", script], input="".join(line + "\n" for line in requests),
            capture_output=True, env=env, cwd=REPO_ROOT, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "Traceback" not in completed.stderr
        assert "stdout closed by the downstream reader" in completed.stderr
        # head got exactly the one complete line it asked for.
        lines = completed.stdout.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["ok"] is True

    def test_sigint_drains_and_exits_130(self):
        # --max-in-flight 1 shrinks the pipelining window to one, so the
        # reply is drained (written) as soon as the request completes --
        # the test can then interrupt a provably idle, mid-session loop.
        proc = _spawn_serve("--max-in-flight", "1")
        try:
            proc.stdin.write(json.dumps(
                {"op": "evaluate", "source": 0, "target": 50, "num_samples": 100}
            ) + "\n")
            proc.stdin.flush()
            reply = proc.stdout.readline()  # the request was fully served
            assert json.loads(reply)["ok"] is True
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert proc.returncode == 130
        assert "Traceback" not in stderr
        assert "interrupted; drained in-flight requests" in stderr

    def test_listen_mode_serves_tcp_and_sigint_closes_cleanly(self):
        """End to end over a real socket: --listen binds an ephemeral port,
        answers a JSON-lines query, and Ctrl-C shuts down with the stats
        report instead of a traceback."""
        proc = _spawn_serve("--listen", "127.0.0.1:0", stdout=subprocess.DEVNULL)
        try:
            banner = proc.stderr.readline()
            assert "listening on" in banner, banner
            port = int(banner.split()[2].rsplit(":", 1)[1])
            with socket.create_connection(("127.0.0.1", port), timeout=60) as conn:
                conn.sendall((json.dumps(
                    {"op": "evaluate", "source": 0, "target": 50,
                     "num_samples": 100, "tenant": "acme", "id": 1}
                ) + "\n").encode("utf-8"))
                reply = json.loads(conn.makefile().readline())
            assert reply["ok"] is True and reply["id"] == 1
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert "Traceback" not in stderr
        assert "server closed cleanly" in stderr
        assert "acme" in stderr  # the shutdown report names the tenant

    def test_tenancy_flags_require_listen(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code = main(["serve", *GRAPH_ARGS, "--tenant-burst", "1000"])
        captured = capsys.readouterr()
        assert code == 1
        assert "--tenant-burst requires --listen" in captured.err

    def test_listen_on_bound_port_exits_with_one_line_diagnostic(self):
        """Binding a port something else holds must produce a single stderr
        line and the dedicated exit code -- not an asyncio traceback."""
        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            proc = _spawn_serve("--listen", f"127.0.0.1:{port}")
            try:
                _, stderr = proc.communicate(timeout=120)
            finally:
                proc.kill()
        assert proc.returncode == 2
        assert "Traceback" not in stderr
        lines = [line for line in stderr.splitlines() if line.strip()]
        assert len(lines) == 1, stderr
        assert "already in use" in lines[0] and str(port) in lines[0]


class TestServeListenWithWorkers:
    """``serve --workers 2 --listen``: every tenant samples through the one
    worker pool the server forks at start-up.  Two connections drive four
    tenants for a dozen rounds concurrently; each round grows every key by
    two pool chunks, so every answer is a real two-chunk worker dispatch.
    A hang here fails on the timeouts instead of blocking the suite."""

    ROUNDS = 12
    TENANTS = ("acme", "globex", "initech", "umbrella")

    def _drive(self, port: int, target: int, replies: list) -> None:
        with socket.create_connection(("127.0.0.1", port), timeout=60) as conn:
            stream = conn.makefile("rw")
            for round_index in range(self.ROUNDS):
                for tenant in self.TENANTS:
                    stream.write(json.dumps(
                        {"op": "evaluate", "source": 0, "target": target,
                         "num_samples": 2048 * (round_index + 1), "tenant": tenant}
                    ) + "\n")
                stream.flush()
                replies.extend(json.loads(stream.readline()) for _ in self.TENANTS)

    def test_two_connections_four_tenants_then_sigint(self):
        proc = _spawn_serve("--workers", "2", "--listen", "127.0.0.1:0",
                            stdout=subprocess.DEVNULL)
        try:
            banner = proc.stderr.readline()
            assert "listening on" in banner, banner
            port = int(banner.split()[2].rsplit(":", 1)[1])
            replies: dict = {50: [], 60: []}
            clients = [
                threading.Thread(target=self._drive, args=(port, target, answers))
                for target, answers in replies.items()
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=240)
            assert not any(client.is_alive() for client in clients), "serve hung"
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=120)
        finally:
            proc.kill()
        for answers in replies.values():
            assert len(answers) == self.ROUNDS * len(self.TENANTS)
            assert all(answer["ok"] for answer in answers)
        assert proc.returncode == 0, stderr
        assert "Traceback" not in stderr
        for tenant in self.TENANTS:
            assert tenant in stderr  # the shutdown report names every tenant


class TestServeFaultInjection:
    def test_fault_rate_flags_require_fault_seed(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code = main(["serve", *GRAPH_ARGS, "--fault-kill-rate", "0.5"])
        captured = capsys.readouterr()
        assert code == 1
        assert "--fault-kill-rate requires --fault-seed" in captured.err

    def test_faulted_serve_output_is_byte_identical(self, monkeypatch, capsys):
        """A chaos soak run (worker kills + slow chunks) answers every query
        byte-identically to the fault-free serve loop."""
        code, baseline, _ = _serve(monkeypatch, capsys, _valid_requests())
        assert code == 0
        code, faulted, _ = _serve(
            monkeypatch, capsys, _valid_requests(),
            extra_args=["--workers", "2", "--fault-seed", "3",
                        "--fault-kill-rate", "0.3", "--fault-slow-rate", "0.2"],
        )
        assert code == 0
        assert faulted == baseline


class TestBenchLoadCommand:
    def test_round_trip_writes_report(self, capsys, tmp_path):
        output = tmp_path / "bench" / "BENCH_service.json"
        code = main([
            "--seed", "7", "bench-load", "--dataset", "wiki", "--scale", "0.05",
            "--hot-pairs", "1", "--clients", "6", "--rounds", "2",
            "--output", str(output),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "coalesce speedup" in stdout
        report = json.loads(output.read_text(encoding="utf-8"))
        assert report["benchmark"] == "service_load"
        assert report["bit_identical"] is True
        assert report["results"]["coalesce"]["coalesce_speedup"] > 0

    def test_min_speedup_gate_failure_exits_nonzero(self, capsys):
        code = main([
            "--seed", "7", "bench-load", "--dataset", "wiki", "--scale", "0.05",
            "--hot-pairs", "1", "--clients", "4", "--rounds", "2",
            "--min-speedup", "1000",
        ])
        assert code == 1
        assert "below required" in capsys.readouterr().err

    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["bench-load"])
        assert args.clients == 48
        assert args.rounds == 16
        assert args.hot_pairs == 2
        assert args.min_speedup is None
        serve_args = build_parser().parse_args(["serve"])
        assert serve_args.coalesce is True
        assert serve_args.max_in_flight is None
        assert build_parser().parse_args(["serve", "--no-coalesce"]).coalesce is False
