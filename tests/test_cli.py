"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.graph import metrics
from repro.graph.datasets import load_dataset
from repro.graph.metrics import compute_stats
from repro.graph.io import write_edge_list


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_experiment_requires_known_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["raf"])
        assert args.dataset == "wiki"
        assert args.alpha == 0.1
        assert args.seed == 2019
        assert args.engine == "python"

    def test_engine_flag_accepted(self):
        args = build_parser().parse_args(["raf", "--engine", "auto"])
        assert args.engine == "auto"
        args = build_parser().parse_args(["maximize", "--budget", "3", "--engine", "python"])
        assert args.engine == "python"
        args = build_parser().parse_args(["experiment", "fig3", "--engine", "python"])
        assert args.engine == "python"

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["raf", "--engine", "fortran"])

    def test_workers_flag_accepted(self):
        args = build_parser().parse_args(["raf", "--workers", "4"])
        assert args.workers == 4
        args = build_parser().parse_args(["raf", "--workers", "auto"])
        assert args.workers == "auto"
        args = build_parser().parse_args(["matrix", "--workers", "2"])
        assert args.workers == 2
        assert build_parser().parse_args(["raf"]).workers is None

    def test_invalid_workers_rejected(self):
        for value in ("0", "-1", "many"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["raf", "--workers", value])

    @pytest.mark.parametrize("command", [["raf"], ["maximize", "--budget", "3"]])
    @pytest.mark.parametrize("flag", [["--pool"], ["--no-pool"], ["--pool-budget", "100"]])
    def test_pool_flags_are_matrix_only(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(command + flag)
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        args = build_parser().parse_args(["matrix"] + flag)
        assert args.pool is (flag != ["--no-pool"])

    def test_matrix_defaults(self):
        args = build_parser().parse_args(["matrix"])
        assert args.datasets == "wiki,hepth"
        assert args.algorithms == "raf,hd"
        assert args.output == "matrix-records"
        assert not args.fresh


class TestDatasetsCommand:
    def test_prints_table1(self, capsys):
        assert main(["datasets", "--scale", "0.005"]) == 0
        output = capsys.readouterr().out
        assert "Table I" in output
        for name in ("wiki", "hepth", "hepph", "youtube"):
            assert name in output


class TestRafCommand:
    def test_auto_pair_run(self, capsys):
        code = main([
            "--seed", "3", "raf", "--dataset", "wiki", "--scale", "0.04",
            "--alpha", "0.2", "--realizations", "1500", "--eval-samples", "200",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "auto-selected pair" in output
        assert "RAF invitation set" in output
        assert "pmax estimate" in output

    def test_auto_engine_run(self, capsys):
        code = main([
            "--seed", "3", "raf", "--dataset", "wiki", "--scale", "0.04",
            "--alpha", "0.2", "--realizations", "800", "--eval-samples", "100",
            "--engine", "auto",
        ])
        assert code == 0
        assert "RAF invitation set" in capsys.readouterr().out

    def test_explicit_pair_with_baselines(self, capsys):
        graph = load_dataset("wiki", scale=0.04, rng=3)
        # Find a valid non-adjacent pair deterministically.
        nodes = graph.node_list()
        source = nodes[0]
        target = next(n for n in reversed(nodes) if n != source and not graph.has_edge(source, n))
        code = main([
            "--seed", "3", "raf", "--dataset", "wiki", "--scale", "0.04",
            "--source", str(source), "--target", str(target),
            "--realizations", "1200", "--eval-samples", "150", "--compare-baselines",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "Baselines at the same budget" in output
        assert "HD" in output and "SP" in output

    def test_header_needs_no_components(self, capsys, monkeypatch):
        """The header prints n, m and the average degree, never a BFS."""
        stats = compute_stats(load_dataset("wiki", scale=0.04, rng=3))
        expected = (
            f"graph: {stats.num_nodes} users, {stats.num_edges} friendships, "
            f"avg degree {stats.avg_degree:.2f}"
        )

        def refuse(graph):
            raise AssertionError("the raf header must not count components")

        monkeypatch.setattr(metrics, "connected_components", refuse)
        code = main([
            "--seed", "3", "raf", "--dataset", "wiki", "--scale", "0.04",
            "--alpha", "0.2", "--realizations", "800", "--eval-samples", "100",
        ])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == expected

    def test_source_without_target_is_an_error(self, capsys):
        code = main(["raf", "--dataset", "wiki", "--scale", "0.04", "--source", "1"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_pair_reports_error(self, capsys):
        code = main([
            "raf", "--dataset", "wiki", "--scale", "0.04",
            "--source", "1", "--target", "1", "--realizations", "500",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestVmaxAndMaximize:
    def test_vmax_command(self, capsys):
        code = main([
            "--seed", "3", "vmax", "--dataset", "wiki", "--scale", "0.04",
        ])
        assert code == 0
        assert "|Vmax| =" in capsys.readouterr().out

    def test_maximize_command(self, capsys):
        code = main([
            "--seed", "3", "maximize", "--dataset", "wiki", "--scale", "0.04",
            "--budget", "8", "--realizations", "1200",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "budgeted invitation set" in output
        assert "fraction of pmax" in output


class TestMatrixCommand:
    _ARGS = [
        "--seed", "7", "matrix", "--datasets", "wiki", "--algorithms", "raf,hd",
        "--budgets", "3", "--scale", "0.03", "--realizations", "400",
        "--eval-samples", "120",
    ]

    def test_runs_grid_and_resumes(self, capsys, tmp_path):
        out = tmp_path / "records"
        assert main(self._ARGS + ["--output", str(out)]) == 0
        output = capsys.readouterr().out
        assert "Scenario matrix" in output
        assert "2 computed" in output
        assert len(list(out.glob("*.json"))) == 2

        # A second invocation resumes from the recorded cells.
        assert main(self._ARGS + ["--output", str(out)]) == 0
        assert "2 resumed" in capsys.readouterr().out

    def test_workers_flag_runs(self, capsys, tmp_path):
        out = tmp_path / "records"
        assert main(self._ARGS + ["--output", str(out), "--workers", "2"]) == 0
        assert "Scenario matrix" in capsys.readouterr().out

    def test_no_pool_runs_and_writes_the_pooled_records(self, capsys, tmp_path):
        pooled, unpooled = tmp_path / "pooled", tmp_path / "unpooled"
        assert main(self._ARGS + ["--output", str(pooled)]) == 0
        assert main(self._ARGS + ["--output", str(unpooled), "--no-pool"]) == 0
        assert "2 computed" in capsys.readouterr().out
        records = sorted(path.name for path in pooled.glob("*.json"))
        assert records == sorted(path.name for path in unpooled.glob("*.json"))
        assert len(records) == 2
        for name in records:
            assert (pooled / name).read_bytes() == (unpooled / name).read_bytes()

    def test_bad_budgets_reported(self, capsys, tmp_path):
        code = main(["matrix", "--budgets", "three", "--output", str(tmp_path / "r")])
        assert code == 1
        assert "comma-separated integers" in capsys.readouterr().err


class TestExperimentCommand:
    def test_table1(self, capsys):
        assert main(["experiment", "table1", "--scale", "0.005", "--pairs", "1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_fig3_single_dataset(self, capsys):
        code = main([
            "--seed", "11", "experiment", "fig3", "--dataset", "wiki", "--scale", "0.04",
            "--pairs", "1", "--realizations", "800", "--eval-samples", "100",
        ])
        assert code == 0
        assert "Fig. 3" in capsys.readouterr().out

    def test_table2_single_dataset(self, capsys):
        code = main([
            "--seed", "11", "experiment", "table2", "--dataset", "wiki", "--scale", "0.04",
            "--pairs", "1", "--realizations", "800", "--eval-samples", "100",
        ])
        assert code == 0
        assert "Table II" in capsys.readouterr().out

    def test_fig6_single_dataset(self, capsys):
        code = main([
            "--seed", "11", "experiment", "fig6", "--dataset", "wiki", "--scale", "0.04",
            "--pairs", "1", "--realizations", "600", "--eval-samples", "100",
        ])
        assert code == 0
        assert "Fig. 6" in capsys.readouterr().out

    def test_edge_list_input(self, capsys, tmp_path):
        graph = load_dataset("wiki", scale=0.04, rng=13, weighted=False)
        path = tmp_path / "custom.txt"
        write_edge_list(graph, path)
        code = main([
            "--seed", "11", "experiment", "fig3", "--edge-list", str(path),
            "--pairs", "1", "--realizations", "800", "--eval-samples", "100",
        ])
        assert code == 0
        assert "Fig. 3" in capsys.readouterr().out
