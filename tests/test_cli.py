"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(argv, stdin_text=""):
    stdout = io.StringIO()
    stdin = io.StringIO(stdin_text)
    exit_code = main(argv, stdin=stdin, stdout=stdout)
    return exit_code, stdout.getvalue()


class TestSketchCommand:
    def test_sketch_from_stdin(self):
        values = "\n".join(str(float(v)) for v in range(1, 101))
        exit_code, output = run_cli(["sketch", "--quantiles", "0.5,0.99"], values)
        assert exit_code == 0
        assert "count" in output
        assert "100" in output
        assert "p50" in output
        assert "p99" in output

    def test_sketch_from_file(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("1.0\n2.0\n# a comment\n\n3.0\n")
        exit_code, output = run_cli(["sketch", str(path)])
        assert exit_code == 0
        assert "count" in output
        assert " 3" in output

    def test_sketch_empty_input_fails(self):
        exit_code, output = run_cli(["sketch"], "")
        assert exit_code == 1
        assert "no values" in output

    def test_sketch_bad_number_reports_error(self):
        exit_code, output = run_cli(["sketch"], "1.0\nnot-a-number\n")
        assert exit_code == 2
        assert "error" in output

    def test_sketch_custom_accuracy(self):
        values = "\n".join(str(float(v)) for v in range(1, 1001))
        exit_code, output = run_cli(
            ["sketch", "--relative-accuracy", "0.05", "--quantiles", "0.5"], values
        )
        assert exit_code == 0
        assert "p50" in output

    def test_invalid_quantile_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["sketch", "--quantiles", "1.5"], "1.0\n")


class TestGenerateCommand:
    def test_generate_pareto(self):
        exit_code, output = run_cli(["generate", "pareto", "--size", "50", "--seed", "1"])
        assert exit_code == 0
        lines = [line for line in output.splitlines() if line]
        assert len(lines) == 50
        assert all(float(line) >= 1.0 for line in lines)

    def test_generate_deterministic(self):
        _, first = run_cli(["generate", "span", "--size", "20", "--seed", "3"])
        _, second = run_cli(["generate", "span", "--size", "20", "--seed", "3"])
        assert first == second

    def test_generate_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["generate", "mystery"])

    def test_generate_pipes_into_sketch(self):
        _, generated = run_cli(["generate", "power", "--size", "500", "--seed", "0"])
        exit_code, output = run_cli(["sketch", "--quantiles", "0.5"], generated)
        assert exit_code == 0
        assert "500" in output


class TestEvaluateCommand:
    def test_evaluate_power(self):
        exit_code, output = run_cli(
            ["evaluate", "power", "--size", "2000", "--quantiles", "0.5,0.99"]
        )
        assert exit_code == 0
        assert "relative error" in output
        assert "rank error" in output
        assert "DDSketch" in output
        assert "GKArray" in output


class TestBoundsCommand:
    def test_bounds_output(self):
        exit_code, output = run_cli(["bounds", "--size", "100000"])
        assert exit_code == 0
        assert "exponential(1)" in output
        assert "pareto(1, 1)" in output

    def test_bounds_respects_alpha(self):
        _, loose = run_cli(["bounds", "--size", "100000", "--relative-accuracy", "0.05"])
        _, tight = run_cli(["bounds", "--size", "100000", "--relative-accuracy", "0.01"])
        assert loose != tight


class TestVersionCommand:
    def test_version_reports_package_kernel_and_compression(self):
        import repro

        exit_code, output = run_cli(["version"])
        assert exit_code == 0
        assert repro.__version__ in output
        assert "kernel backend" in output and "numpy" in output
        assert "frame compression" in output and "zlib" in output
        assert "native" not in output


class TestParser:
    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parser_help_lists_commands(self):
        parser = build_parser()
        help_text = parser.format_help()
        for command in ("sketch", "generate", "evaluate", "bounds"):
            assert command in help_text


class TestSimulateCommand:
    def test_simulate_sharded_runs_and_reports(self):
        exit_code, output = run_cli(
            [
                "simulate",
                "--hosts", "2",
                "--intervals", "2",
                "--requests-per-interval", "400",
                "--series-cardinality", "4",
                "--shards", "3",
                "--workers", "2",
            ]
        )
        assert exit_code == 0
        assert "shards = 3" in output
        assert "tag-filtered p99 per endpoint" in output

    def test_simulate_rejects_invalid_shards(self):
        exit_code, output = run_cli(
            ["simulate", "--hosts", "1", "--intervals", "1", "--shards", "0"]
        )
        assert exit_code == 2
        assert "error" in output

    def test_series_cardinality_help_names_frame_v3(self):
        """The CLI help and the architecture guide must agree on the frame
        name and version byte (pinned again in test_docs_examples)."""
        parser = build_parser()
        help_text = parser.format_help()
        # argparse wraps help, so check the simulate subparser directly.
        for action in parser._subparsers._group_actions[0].choices["simulate"]._actions:
            if "--series-cardinality" in action.option_strings:
                assert "frame v3" in action.help
                assert "0x03" in action.help
                break
        else:  # pragma: no cover
            pytest.fail("--series-cardinality option not found")


class TestServiceCommands:
    def test_parser_help_lists_service_commands(self):
        help_text = build_parser().format_help()
        for command in ("serve", "push", "load-gen"):
            assert command in help_text

    def test_push_against_a_running_server(self, tmp_path):
        from repro.service import ServiceClient, serve_in_thread

        with serve_in_thread(data_dir=tmp_path) as handle:
            _, port = handle.address
            exit_code, output = run_cli(
                ["push", "--port", str(port), "--metric", "cli.latency",
                 "--tag", "env=prod", "--agent-host", "cli-test"],
                "1.0\n2.0\n3.0\n",
            )
            assert exit_code == 0
            assert "pushed 3 value(s)" in output
            assert "seq " in output and "[duplicate]" not in output
            with ServiceClient(*handle.address) as client:
                stats = client.stats()
                assert stats["total_count"] == 3.0
                values = client.query_quantiles(
                    "cli.latency", [0.5], tags={"env": "prod"}
                )["values"]
                assert values[0] > 0

    def test_push_twice_never_collides_on_dedup(self, tmp_path):
        # Two CLI incarnations share the default producer identity but seed
        # sequences from the wall clock, so the second run's (different)
        # values must land instead of being silently deduplicated away.
        from repro.service import ServiceClient, serve_in_thread

        with serve_in_thread(data_dir=tmp_path) as handle:
            port = str(handle.address[1])
            for payload in ("1.0\n2.0\n", "3.0\n"):
                exit_code, output = run_cli(["push", "--port", port], payload)
                assert exit_code == 0
                assert "[duplicate]" not in output
            with ServiceClient(*handle.address) as client:
                assert client.stats()["total_count"] == 3.0

    def test_push_spools_offline_and_replays_when_back(self, tmp_path):
        # Against a dead server the frame is parked in the durable spool;
        # the next run against a live server replays it before its own push.
        from repro.service import ServiceClient, serve_in_thread
        from _service_testkit import free_port

        spool_dir = str(tmp_path / "spool")
        dead_port = str(free_port())
        exit_code, output = run_cli(
            ["push", "--port", dead_port, "--retries", "0", "--deadline", "2.0",
             "--spool-dir", spool_dir],
            "1.0\n2.0\n",
        )
        assert exit_code == 0
        assert "spooled for replay" in output
        with serve_in_thread(data_dir=tmp_path / "server") as handle:
            exit_code, output = run_cli(
                ["push", "--port", str(handle.address[1]), "--spool-dir", spool_dir],
                "3.0\n",
            )
            assert exit_code == 0
            assert "replayed 1 spooled frame(s)" in output
            assert "pushed 1 value(s)" in output
            with ServiceClient(*handle.address) as client:
                stats = client.stats()
                assert stats["total_count"] == 3.0
                assert stats["frames_applied"] == 2

    def test_push_empty_input_fails(self, tmp_path):
        from repro.service import serve_in_thread

        with serve_in_thread() as handle:
            exit_code, output = run_cli(["push", "--port", str(handle.address[1])], "")
            assert exit_code == 1
            assert "no values" in output

    def test_push_rejects_malformed_tag(self, tmp_path):
        from repro.service import serve_in_thread

        with serve_in_thread() as handle:
            with pytest.raises((SystemExit, Exception)):
                run_cli(
                    ["push", "--port", str(handle.address[1]), "--tag", "not-a-pair"],
                    "1.0\n",
                )

    def test_serve_max_frames_accepts_then_exits(self, tmp_path):
        import re
        import threading

        from repro.service import ServiceClient
        from _service_testkit import make_frame

        stdout = io.StringIO()
        listening = threading.Event()

        class _Stream:
            """Forwards writes to the StringIO and flags the listen line."""

            def write(self, text):
                stdout.write(text)
                if "listening on" in text:
                    listening.set()
                return len(text)

            def flush(self):
                pass

        result = {}

        def _serve():
            result["code"] = main(
                ["serve", "--data-dir", str(tmp_path), "--max-frames", "2"],
                stdin=io.StringIO(),
                stdout=_Stream(),
            )

        thread = threading.Thread(target=_serve, daemon=True)
        thread.start()
        assert listening.wait(timeout=30)
        match = re.search(r"listening on ([\d.]+):(\d+)", stdout.getvalue())
        assert match is not None
        with ServiceClient(match.group(1), int(match.group(2))) as client:
            client.push_frame(make_frame([1.0]), host="h")
            client.push_frame(make_frame([2.0]), host="h")
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert result["code"] == 0
        output = stdout.getvalue()
        assert "recovered 0 record(s)" in output
        assert "served 2 frame(s)" in output

    def test_load_gen_writes_the_artifact(self, tmp_path):
        import json

        from repro.evaluation.artifacts import validate_bench_artifact

        output_path = tmp_path / "BENCH_service.json"
        exit_code, output = run_cli(
            ["load-gen", "--agents", "4", "--series", "2", "--intervals", "2",
             "--values", "100", "--push-threads", "2", "--output", str(output_path)],
        )
        assert exit_code == 0
        assert "values/sec" in output
        assert f"wrote {output_path}" in output
        document = json.loads(output_path.read_text(encoding="utf-8"))
        validate_bench_artifact(document)
        assert document["metrics"]["service_loadgen"]["reference_match"] is True


class TestQueryCommand:
    @pytest.fixture()
    def served_population(self):
        from repro.service import ServiceClient, serve_in_thread

        with serve_in_thread() as handle:
            host, port = handle.address
            with ServiceClient(host, port) as client:
                for index, scale in enumerate((1.0, 1.0, 1.0, 100.0)):
                    frame = _make_query_frame(
                        [scale * value for value in (1.0, 2.0, 5.0)],
                        endpoint=f"/e{index}",
                    )
                    client.push_frame(frame, host=f"agent-{index}")
            yield port

    def test_parser_help_lists_query(self):
        assert "query" in build_parser().format_help()

    def test_quantile_mode(self, served_population):
        exit_code, output = run_cli(
            ["query", "--port", str(served_population), "--metric", "cli.lat",
             "--quantiles", "0.5,0.99", "--tag-filter", "endpoint=/e0"],
        )
        assert exit_code == 0
        assert "cli.lat p50 =" in output
        assert "cli.lat p99 =" in output

    def test_threshold_mode(self, served_population):
        exit_code, output = run_cli(
            ["query", "--port", str(served_population), "--metric", "cli.lat",
             "--quantiles", "0.99", "--threshold", "50"],
        )
        assert exit_code == 0
        assert "1 of 4 series" in output
        assert "cli.lat{endpoint=/e3}" in output
        assert "prune rate" in output

    def test_below_threshold_mode(self, served_population):
        exit_code, output = run_cli(
            ["query", "--port", str(served_population), "--metric", "cli.lat",
             "--quantiles", "0.5", "--threshold", "50", "--below"],
        )
        assert exit_code == 0
        assert "3 of 4 series" in output

    def test_bad_quantiles_rejected(self, served_population):
        exit_code, output = run_cli(
            ["query", "--port", str(served_population), "--metric", "cli.lat",
             "--quantiles", "abc"],
        )
        assert exit_code == 2
        assert "comma-separated" in output


def _make_query_frame(values, endpoint):
    from repro import SketchRegistry

    registry = SketchRegistry()
    sketch = registry.sketch("cli.lat", {"endpoint": endpoint})
    for value in values:
        sketch.add(value)
    return registry.to_frame()
