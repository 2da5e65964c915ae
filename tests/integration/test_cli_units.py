"""Unit tests for CLI plumbing that needs no trained model."""


import pytest

from repro.cli import _collect_files, build_parser


class TestParser:
    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "--out", "m"])
        assert args.out == "m"
        assert args.k_benign == 11
        assert args.k_malicious == 10

    def test_scan_threshold(self):
        args = build_parser().parse_args(["scan", "--model", "m", "--threshold", "0.8", "a.js"])
        assert args.threshold == 0.8
        assert args.paths == ["a.js"]

    def test_scan_engine_defaults(self):
        args = build_parser().parse_args(["scan", "--model", "m", "a.js"])
        assert args.workers == 1
        assert args.cache_dir is None
        assert args.format == "text"

    def test_scan_engine_flags(self):
        args = build_parser().parse_args(
            ["scan", "--model", "m", "--workers", "4", "--cache-dir", "/tmp/c",
             "--format", "json", "a.js"]
        )
        assert args.workers == 4
        assert args.cache_dir == "/tmp/c"
        assert args.format == "json"

    def test_scan_format_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scan", "--model", "m", "--format", "xml", "a.js"])

    def test_explain_top(self):
        args = build_parser().parse_args(["explain", "--model", "m", "--top", "9"])
        assert args.top == 9
        assert args.format == "text"

    def test_explain_json_format(self):
        args = build_parser().parse_args(["explain", "--model", "m", "--format", "json"])
        assert args.format == "json"

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scan_accepts_stdin_dash(self):
        args = build_parser().parse_args(["scan", "--model", "m", "-"])
        assert args.paths == ["-"]

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--model", "m"])
        assert args.host == "127.0.0.1"
        assert args.port == 8077
        assert args.workers == 1
        assert args.max_batch == 8
        assert not hasattr(args, "max_wait_ms")
        assert args.queue_limit == 64
        assert args.cache_dir is None
        assert args.threshold == 0.5
        assert args.request_timeout_s == 30.0
        assert args.shards == 1

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--model", "m", "--host", "0.0.0.0", "--port", "0",
             "--workers", "2", "--max-batch", "16",
             "--queue-limit", "128", "--cache-dir", "/tmp/c",
             "--threshold", "0.7", "--request-timeout-s", "10"]
        )
        assert args.host == "0.0.0.0"
        assert args.port == 0
        assert args.workers == 2
        assert args.max_batch == 16
        assert args.queue_limit == 128
        assert args.cache_dir == "/tmp/c"
        assert args.threshold == 0.7
        assert args.request_timeout_s == 10.0

    def test_max_wait_ms_rejected_on_serve_and_cluster(self, capsys):
        # The flush timer is gone (micro-batches dispatch when the scanner
        # is idle), and so is the flag that used to be parsed and ignored.
        for command in ("serve", "cluster"):
            with pytest.raises(SystemExit) as caught:
                build_parser().parse_args([command, "--model", "m", "--max-wait-ms", "5"])
            assert caught.value.code == 2
            assert "unrecognized arguments: --max-wait-ms" in capsys.readouterr().err

    def test_serve_request_timeout_deprecated_alias(self, capsys):
        # The pre-rename spelling is a usage error; only --request-timeout-s remains.
        with pytest.raises(SystemExit) as caught:
            build_parser().parse_args(["serve", "--model", "m", "--request-timeout", "7"])
        assert caught.value.code == 2
        assert "unrecognized arguments: --request-timeout 7" in capsys.readouterr().err

    def test_serve_request_timeout_alias_hidden_from_help(self):
        serve = build_parser()._subparsers._group_actions[0].choices["serve"]
        options = {option for action in serve._actions for option in action.option_strings}
        assert "--request-timeout" not in options
        assert "--request-timeout-s" in options

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--model", "m", "--shards", "2", "--workers", "3", "--max-batch", "5",
             "--queue-limit", "9", "--threshold", "0.7", "--request-timeout-s", "120",
             "--timeout-s", "5", "--max-rss-mb", "512", "--quarantine-dir", "/tmp/q",
             "--breaker-threshold", "7", "--breaker-reset-s", "12.5",
             "--max-body-bytes", "4096", "--trace-capacity", "64", "--trace-slow-ms", "80",
             "--deobfuscate"],
            ["cluster", "--model", "m", "--workers", "3", "--max-batch", "5",
             "--queue-limit", "9", "--threshold", "0.7", "--request-timeout-s", "120"],
        ],
        ids=["serve", "cluster"],
    )
    def test_shards_inherit_the_daemon_flags_their_command_accepted(self, argv):
        from repro.cli import _shard_flags

        parser = build_parser()
        args = parser.parse_args(argv)
        shard = parser.parse_args(["serve", "--model", "m"] + _shard_flags(args))
        # Set per shard by the supervisor, or consumed by the router itself.
        not_forwarded = {"model", "host", "port", "shards", "cache_dir", "trace_sample_rate",
                         "log_level", "log_format", "fn", "command"}
        shared = (set(vars(args)) & set(vars(shard))) - not_forwarded
        assert {"workers", "request_timeout_s"} <= shared
        assert {dest: getattr(shard, dest) for dest in shared} == \
               {dest: getattr(args, dest) for dest in shared}

    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster", "--model", "m"])
        assert args.shards == 2
        assert args.port == 8076
        assert args.vnodes == 64
        assert args.request_timeout_s == 30.0
        assert args.cache_dir is None

    def test_serve_model_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])


class TestCollectFiles:
    def test_directory_globs_js(self, tmp_path):
        (tmp_path / "a.js").write_text("var a = 1;")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.js").write_text("var b = 2;")
        (tmp_path / "c.txt").write_text("not js")
        files = _collect_files([str(tmp_path)])
        assert {f.name for f in files} == {"a.js", "b.js"}

    def test_explicit_file_kept(self, tmp_path):
        target = tmp_path / "one.js"
        target.write_text("1;")
        assert _collect_files([str(target)]) == [target]

    def test_missing_path_warns_and_skips(self, tmp_path, capsys):
        files = _collect_files([str(tmp_path / "ghost.js")])
        assert files == []
        assert "not found" in capsys.readouterr().err

    def test_sorted_deterministic(self, tmp_path):
        for name in ("z.js", "a.js", "m.js"):
            (tmp_path / name).write_text(";")
        files = _collect_files([str(tmp_path)])
        assert [f.name for f in files] == ["a.js", "m.js", "z.js"]
