"""Command-line surface: subcommand wiring, report meta, exit codes, and
state snapshot flags."""

import argparse
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ovq import cli, engine, load_state, load_streams, save_streams
from ovq.bench import MIXER_KINDS, VERIFY_SIZES
from ovq.cli import _MIXER_FLAGS, _ablation_flag, _parse_ablation, build_parser, main
from ovq.engine import ABLATIONS, FAULTS
from ovq.tasks import GENERATORS, IGNORE, TokenStream


def _strict_json(text: str):
    """Parse a report, refusing the NaN and Infinity that JSON lacks."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "ovq.cli", *args], capture_output=True, text=True, **kw
    )


class TestGen:
    def test_writes_streams(self, tmp_path):
        out = tmp_path / "s.jsonl"
        res = run_cli(
            "gen", "--task", "basic_icr", "--num-pairs", "8", "--key-len", "2",
            "--val-len", "2", "--num-queries", "2", "--count", "3", "--out", str(out),
        )
        assert res.returncode == 0
        streams = load_streams(out)
        assert len(streams) == 3
        assert {s.meta["seed"] for s in streams} == {0, 1, 2}

    def test_binary_format(self, tmp_path):
        out = tmp_path / "s.bin"
        res = run_cli(
            "gen", "--task", "icl", "--num-functions", "4", "--num-examples", "6",
            "--io-len", "3", "--format", "bin", "--out", str(out),
        )
        assert res.returncode == 0
        assert len(load_streams(out)) == 1

    def test_count_below_one_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        assert main(["gen", "--task", "icl", "--count", "0", "--out", str(out)]) == 2
        assert "--count" in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    @pytest.fixture()
    def stream_file(self, tmp_path):
        out = tmp_path / "s.jsonl"
        res = run_cli(
            "gen", "--task", "basic_icr", "--num-pairs", "10", "--key-len", "2",
            "--val-len", "2", "--num-queries", "2", "--out", str(out),
        )
        assert res.returncode == 0
        return out

    def test_json_report_echoes_defaults(self, stream_file):
        res = run_cli(
            "run", "--stream", str(stream_file), "--mixer", "full-attention",
            "--dim", "32", "--format", "json",
        )
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        meta = doc["meta"]
        assert meta["beta"] == 16.0 and meta["chunk_len"] == 128 and meta["n_max"] == 2048
        assert doc["rows"][0]["untrained_probe"] is True

    def test_save_and_load_state(self, stream_file, tmp_path):
        snap = tmp_path / "state.bin"
        res = run_cli(
            "run", "--stream", str(stream_file), "--mixer", "ovq", "--dim", "32",
            "--n-max", "64", "--chunk-len", "16", "--save-state", str(snap),
            "--format", "json", "--out", str(tmp_path / "r.json"),
        )
        assert res.returncode == 0, res.stderr
        state = load_state(snap)
        assert state.tokens_seen > 0
        res = run_cli(
            "run", "--stream", str(stream_file), "--mixer", "ovq", "--dim", "32",
            "--load-state", str(snap), "--format", "json", "--out", str(tmp_path / "r2.json"),
        )
        assert res.returncode == 0, res.stderr

    def test_narrow_embeddings_warn_on_every_run_path(self, stream_file, tmp_path):
        # Snapshot runs used to score an 8-wide table without the warning.
        snap, warning = tmp_path / "state.bin", "UserWarning: embedding dim below 16"
        argv = ["run", "--stream", str(stream_file), "--dim", "8", "--n-max", "64"]
        for extra in ([], ["--save-state", str(snap)], ["--load-state", str(snap)]):
            res = run_cli(*argv, *extra, "--out", str(tmp_path / "r.csv"))
            assert res.returncode == 0 and warning in res.stderr, (extra, res.stderr)
            assert res.stderr.count(warning) == 1

    def _save_snapshot(self, stream_file, tmp_path):
        snap = tmp_path / "state.bin"
        code = main([
            "run", "--stream", str(stream_file), "--dim", "32", "--n-max", "128",
            "--chunk-len", "64", "--save-state", str(snap), "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 0
        return snap

    @pytest.mark.parametrize("flag,value", [
        ("--chunk-len", "16"), ("--n-max", "999"), ("--beta", "2"), ("--dim", "16"),
        ("--seed", "3"), ("--ablation", "rand-assign"),
    ])
    def test_load_state_rejects_a_contradicting_flag(
        self, stream_file, tmp_path, capsys, flag, value
    ):
        snap = self._save_snapshot(stream_file, tmp_path)
        code = main([
            "run", "--stream", str(stream_file), "--load-state", str(snap), flag, value,
            "--out", str(tmp_path / "r2.csv"),
        ])
        assert code == 2
        assert flag in capsys.readouterr().err

    def test_load_state_meta_reports_the_snapshot_config(self, stream_file, tmp_path, capsys):
        snap = self._save_snapshot(stream_file, tmp_path)
        code = main([
            "run", "--stream", str(stream_file), "--load-state", str(snap), "--chunk-len", "64",
            "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        meta = doc["meta"]
        assert (meta["chunk_len"], meta["n_max"], meta["dim"]) == (64, 128, 32)
        assert doc["rows"][0]["mixer"] == "ovq(n_max=128,L=64)"

    def test_state_flags_rejected_for_other_mixers(self, stream_file, tmp_path):
        res = run_cli(
            "run", "--stream", str(stream_file), "--mixer", "full-attention",
            "--save-state", str(tmp_path / "x.bin"),
        )
        assert res.returncode == 2

    @pytest.mark.parametrize("mixer", ["full-attention", "ovq", "vq-fixed", "linear-baseline"])
    # The float max is finite, but beta * q.k overflows there for every mixer.
    @pytest.mark.parametrize("beta", ["inf", "nan", "-3", "1.7976931348623157e308"])
    def test_beta_not_finite_and_nonnegative_is_config_error(
        self, stream_file, tmp_path, capsys, mixer, beta
    ):
        code = main([
            "run", "--stream", str(stream_file), "--mixer", mixer, "--dim", "32",
            f"--beta={beta}", "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2
        assert "beta" in capsys.readouterr().err

    def test_undecodable_stream_exits_two_naming_the_line(self, stream_file, tmp_path, capsys):
        raw = stream_file.read_bytes()
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(raw[:10] + b"\xff\xfe" + raw[12:])
        assert main(["run", "--stream", str(bad), "--dim", "32"]) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("tokens", 99999), ("targets", 99999), ("tokens", -5)])
    def test_out_of_range_id_exits_two(self, tmp_path, capsys, field, value):
        path = tmp_path / "s.jsonl"
        assert main([
            "gen", "--task", "basic_icr", "--num-pairs", "10", "--key-len", "2", "--val-len", "2",
            "--num-queries", "2", "--vocab-size", "50", "--out", str(path),
        ]) == 0
        rec = json.loads(path.read_text())
        rec[field][-1] = value
        path.write_text(json.dumps(rec) + "\n")
        assert main(["run", "--stream", str(path), "--dim", "32"]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_vocab_size_too_wide_for_u32_exits_two(self, tmp_path, capsys):
        path = tmp_path / "s.jsonl"
        assert main([
            "gen", "--task", "basic_icr", "--num-pairs", "10", "--key-len", "2", "--val-len", "2",
            "--num-queries", "2", "--vocab-size", "50", "--out", str(path),
        ]) == 0
        rec = json.loads(path.read_text())
        rec["vocab_size"] = 10**30
        path.write_text(json.dumps(rec) + "\n")
        assert main(["run", "--stream", str(path), "--dim", "32"]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "vocab_size" in err

    def test_stream_meta_that_is_not_an_object_exits_two(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        rec = {"tokens": [1, 2, 3, 4], "targets": [-1, -1, 2, 3], "vocab_size": 50, "meta": 5}
        path.write_text(json.dumps(rec) + "\n")
        argv = ["run", "--stream", str(path), "--dim", "16", "--n-max", "4", "--chunk-len", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "meta" in err

    def test_vq_fixed_on_a_stream_shorter_than_n_max_names_the_flag(self, stream_file, capsys):
        assert main(["run", "--stream", str(stream_file), "--mixer", "vq-fixed", "--dim", "32"]) == 2
        err = capsys.readouterr().err
        assert "vq-fixed" in err and "--n-max 2048" in err

    def test_missing_stream_is_config_error(self):
        res = run_cli("run", "--stream", "/nonexistent/stream.jsonl")
        assert res.returncode == 2

    def test_binary_stream_runs_like_its_jsonl_twin(self, tmp_path, capsys):
        gen = [
            "gen", "--task", "basic_icr", "--num-pairs", "10", "--key-len", "2",
            "--val-len", "2", "--num-queries", "2", "--count", "2",
        ]
        reports = []
        for fmt in ("jsonl", "bin"):
            path = tmp_path / f"s.{fmt}"
            assert main([*gen, "--format", fmt, "--out", str(path)]) == 0
            capsys.readouterr()
            argv = ["run", "--stream", str(path), "--dim", "32", "--n-max", "64"]
            assert main([*argv, "--chunk-len", "16", "--format", "json"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        jsonl, binary = reports
        assert binary["rows"] == jsonl["rows"]
        assert {**binary["meta"], "stream": ""} == {**jsonl["meta"], "stream": ""}

    def test_stream_format_is_an_unknown_flag(self, stream_file, capsys):
        argv = ["run", "--stream", str(stream_file), "--stream-format", "jsonl"]
        assert _exit_code(argv) == 2
        assert "unrecognized arguments: --stream-format" in capsys.readouterr().err


class TestMultiStreamRun:
    """A plain ``run`` gives each stream of the file a fresh engine state;
    with --save-state or --load-state all streams share one state."""

    ENGINE = ["--dim", "32", "--n-max", "64", "--chunk-len", "32", "--format", "json"]

    @pytest.fixture()
    def three_streams(self, tmp_path, capsys):
        path = tmp_path / "three.jsonl"
        assert main([
            "gen", "--task", "basic_icr", "--num-pairs", "60", "--key-len", "2",
            "--val-len", "2", "--num-queries", "2", "--count", "3", "--out", str(path),
        ]) == 0
        capsys.readouterr()
        return path

    def _rows(self, capsys, argv):
        assert main(["run", *self.ENGINE, *argv]) == 0
        return json.loads(capsys.readouterr().out)["rows"]

    def test_plain_run_gives_each_stream_a_fresh_state(self, three_streams, tmp_path, capsys):
        rows = self._rows(capsys, ["--stream", str(three_streams)])
        for i, stream in enumerate(load_streams(three_streams)):
            one = tmp_path / f"one{i}.jsonl"
            save_streams([stream], one)
            assert self._rows(capsys, ["--stream", str(one)]) == [rows[i]]

    def test_snapshot_run_streams_every_stream_through_one_state(
        self, three_streams, tmp_path, capsys
    ):
        snap = tmp_path / "shared.bin"
        self._rows(capsys, ["--stream", str(three_streams), "--save-state", str(snap)])
        assert load_state(snap).tokens_seen == sum(len(s) for s in load_streams(three_streams))


class TestStreamWithoutTargets:
    """A stream whose targets are all IGNORE has nothing to score. It used
    to exit 0 with accuracy NaN (a bare ``NaN`` in JSON reports, which is
    not JSON); now it exits 2 naming the stream before any mixer runs."""

    @pytest.fixture()
    def untargeted(self, tiny_stream, tmp_path):
        path = tmp_path / "untargeted.jsonl"
        scored = load_streams(tiny_stream)[0]
        blank = TokenStream(np.arange(40) % 8, np.full(40, IGNORE), vocab_size=8)
        save_streams([scored, blank], path)
        return path

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("mixer", sorted(_MIXER_FLAGS))
    def test_exits_two_naming_the_stream_before_any_mixer(
        self, untargeted, tmp_path, capsys, monkeypatch, mixer, fmt
    ):
        monkeypatch.setattr(cli, "token_task_eval", _no_work)
        out = tmp_path / "report"
        argv = ["run", "--stream", str(untargeted), *_TINY_RUN, "--mixer", mixer]
        assert main([*argv, "--format", fmt, "--out", str(out)]) == 2
        assert "stream 1 has no target positions" in capsys.readouterr().err
        assert not out.exists()

    def test_snapshot_run_exits_two_and_writes_no_snapshot(
        self, untargeted, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "stream_chunks", _no_work)
        snap = tmp_path / "x.bin"
        argv = ["run", "--stream", str(untargeted), *_TINY_RUN, "--save-state", str(snap)]
        assert main([*argv, "--format", "json"]) == 2
        assert "stream 1 has no target positions" in capsys.readouterr().err
        assert not snap.exists()


class TestStreamIdsNotOneDimensional:
    """A JSON-lines record whose ids are a number or a nested list used to
    reach ``run``: a bare ``TypeError`` traceback for a number, and for a
    matrix an exit 2 blaming q or a chunk shape. Now the loader names the
    line."""

    @pytest.mark.parametrize("ids", [5, [[1, 2], [3, 4]]], ids=["0d", "2d"])
    @pytest.mark.parametrize("snapshot", [False, True])
    def test_run_exits_two_naming_the_line(self, tmp_path, capsys, ids, snapshot):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"tokens": ids, "targets": ids, "vocab_size": 8}) + "\n")
        argv = ["run", "--stream", str(path), *_TINY_RUN, "--out", str(tmp_path / "r.csv")]
        if snapshot:
            argv += ["--save-state", str(tmp_path / "s.bin")]
        assert main(argv) == 2
        assert "line 1: bad stream record: tokens and targets must be 1-D" in capsys.readouterr().err


@pytest.mark.parametrize("ids", [[1.5, 2, 3], ["1", "2", "3"]], ids=["fraction", "strings"])
def test_run_refuses_stream_ids_that_are_not_integers(tmp_path, capsys, ids):
    # They used to load as [1, 2, 3], and run exited 0.
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"tokens": ids, "targets": [IGNORE, 2, 3], "vocab_size": 8}) + "\n")
    assert main(["run", "--stream", str(path), *_TINY_RUN, "--out", str(tmp_path / "r.csv")]) == 2
    assert "line 1: bad stream record: tokens must be integers" in capsys.readouterr().err


class TestBench:
    def test_state_size_csv(self):
        res = run_cli(
            "bench", "--bench", "state-size", "--mixers", "full-attention,ovq,linear-baseline",
            "--T", "1024,65536", "--n-max-grid", "2048", "--dim", "128",
        )
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0].startswith("# schema: ovq-state-report-v2")
        assert lines[2] == "mixer,T,n_max,state_scalars"
        assert "16777216" in res.stdout

    def test_state_size_json_is_strict(self, capsys):
        # State rows used to carry recall placeholders, accuracy NaN among
        # them, which json.dumps writes as a bare NaN.
        argv = ["bench", "--bench", "state-size", "--mixers", "ovq", "--T", "64"]
        assert main([*argv, "--n-max-grid", "8", "--format", "json"]) == 0
        doc = _strict_json(capsys.readouterr().out)
        assert doc["schema"] == "ovq-state-report-v2"
        # growth_count(64, 8) = 7 components of 2 * 64 + 1 scalars each
        assert doc["rows"] == [
            {"mixer": "ovq(n_max=8,L=128)", "T": 64, "n_max": 8, "state_scalars": 7 * 129}
        ]

    def test_state_size_at_a_huge_context_returns_at_once(self):
        # The component count used to replay the schedule chunk by chunk:
        # 2**43 chunks here, so this never returned.
        try:
            res = run_cli(
                "bench", "--bench", "state-size", "--mixers", "ovq", "--T", str(2**50), timeout=30
            )
        except subprocess.TimeoutExpired:
            pytest.fail("state-size at T = 2**50 did not return within 30 s")
        assert res.returncode == 0
        # growth_count(2**50, 2048) = 2047 components of 2 * 64 + 1 scalars each
        assert res.stdout.splitlines()[-1] == f'"ovq(n_max=2048,L=128)",{2**50},2048,{2047 * 129}'

    def test_linear_growth_state_size_at_the_largest_capacity_returns_at_once(self):
        # Under linear_growth the count used to replay one chunk at a time
        # until the cap: 2**32 - 1 one-token chunks here, over an hour.
        top = 2**32 - 1
        try:
            res = run_cli(
                "bench", "--bench", "state-size", "--mixers", "ovq", "--ablation", "linear-growth",
                "--n-max-grid", str(top), "--chunk-len", "1", "--T", str(top), timeout=30,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("linear-growth state-size at n_max = T = 2**32 - 1 did not return in 30 s")
        assert res.returncode == 0
        # One row a chunk, per = round(n_max / planned chunks) = 1: all n_max rows fill.
        assert res.stdout.splitlines()[-1] == f'"ovq(n_max={top},L=1)",{top},{top},{top * 129}'

    def test_recall_grid_json(self):
        res = run_cli(
            "bench", "--bench", "recall", "--mixers", "full-attention,linear-baseline",
            "--T", "128", "--probes", "16", "--seeds", "2", "--format", "json",
        )
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert len(doc["rows"]) == 4
        full_rows = [r for r in doc["rows"] if r["mixer"] == "full_attention"]
        assert all(r["top1_accuracy"] == 1.0 for r in full_rows)

    def test_unknown_mixer_is_config_error(self):
        res = run_cli("bench", "--mixers", "bogus", "--T", "64")
        assert res.returncode == 2

    @pytest.mark.parametrize("mixer", ["full-attention", "ovq"])
    @pytest.mark.parametrize("grid", ["0", "64,-1", ","])
    def test_context_length_below_one_is_config_error(self, mixer, grid):
        res = run_cli("bench", "--mixers", mixer, "--T", grid)
        assert res.returncode == 2
        assert "--T" in res.stderr
        assert "Traceback" not in res.stderr

    def test_empty_capacity_grid_is_config_error(self):
        res = run_cli("bench", "--mixers", "vq-fixed", "--T", "64", "--n-max-grid", ",")
        assert res.returncode == 2
        assert "--n-max-grid" in res.stderr

    @pytest.mark.parametrize("mixer", ["full-attention", "ovq", "vq-fixed", "linear-baseline"])
    def test_recall_arrays_larger_than_memory_exit_two(self, tmp_path, capsys, mixer):
        # Keys and codebook at T = 2**50, d = 8 take about 144 PB: refused
        # before anything is allocated, and no report is written.
        out = tmp_path / "r.json"
        argv = ["bench", "--bench", "recall", "--mixers", mixer, "--T", str(2**50), "--dim", "8"]
        assert main([*argv, "--n-max-grid", "4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "T 1125899906842624 and d 8" in err and "Traceback" not in err
        assert not out.exists()

    def test_state_size_accepts_a_context_length_beyond_memory(self, capsys):
        argv = ["bench", "--bench", "state-size", "--T", str(2**50), "--dim", "8"]
        assert main([*argv, "--mixers", "full-attention,linear-baseline", "--format", "json"]) == 0
        assert [r["T"] for r in json.loads(capsys.readouterr().out)["rows"]] == [2**50] * 2

    @pytest.mark.parametrize("mixers", ["", " , "])
    def test_empty_mixer_list_is_config_error(self, capsys, mixers):
        code = main(["bench", "--mixers", mixers, "--T", "64", "--probes", "8"])
        assert code == 2
        assert "--mixers" in capsys.readouterr().err

    @pytest.mark.parametrize("mixer", ["full-attention", "ovq", "vq-fixed", "linear-baseline"])
    @pytest.mark.parametrize("beta", ["nan", "inf", "-3", "1.7976931348623157e308"])
    def test_beta_not_finite_and_nonnegative_is_config_error(self, capsys, mixer, beta):
        code = main(["bench", "--mixers", mixer, "--T", "64", "--probes", "8", f"--beta={beta}"])
        assert code == 2
        assert "beta" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--probes", "--seeds"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_count_below_one_is_config_error(self, capsys, flag, value):
        code = main(["bench", "--mixers", "full-attention", "--T", "64", f"{flag}={value}"])
        assert code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["16", "128,16"])
    def test_probes_above_the_smallest_context_is_config_error(self, capsys, grid):
        code = main(["bench", "--mixers", "full-attention", "--T", grid, "--probes", "64"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--probes 64" in err and "16" in err

    def test_vq_fixed_recall_below_its_capacity_names_the_flag(self, capsys):
        argv = ["bench", "--mixers", "vq-fixed", "--T", "64,256", "--probes", "8", "--dim", "8"]
        assert main([*argv, "--n-max-grid", "128"]) == 2
        err = capsys.readouterr().err
        assert "vq-fixed" in err and "--n-max-grid 128" in err and "--T 64" in err
        assert main([*argv, "--n-max-grid", "64", "--format", "json"]) == 0

    def test_n_max_is_not_a_bench_flag(self, capsys):
        # bench takes its capacities from --n-max-grid only.
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--mixers", "ovq", "--T", "256", "--probes", "8", "--n-max", "16"])
        assert exc.value.code == 2
        assert "--n-max" in capsys.readouterr().err

    def test_recall_meta_and_rows_carry_the_capacity_that_ran(self, capsys):
        code = main([
            "bench", "--mixers", "ovq", "--T", "64", "--probes", "8", "--n-max-grid", "16",
            "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "n_max" not in doc["meta"] and doc["meta"]["n_max_grid"] == "16"
        assert [r["n_max"] for r in doc["rows"]] == [16]

    def test_state_size_ignores_probes(self):
        argv = ["bench", "--bench", "state-size", "--mixers", "full-attention", "--T", "16"]
        assert main([*argv, "--probes", "64"]) == 0

    def test_bad_ablation_is_config_error(self, tmp_path):
        out = tmp_path / "s.jsonl"
        run_cli("gen", "--task", "icl", "--num-functions", "2", "--num-examples", "2", "--out", str(out))
        res = run_cli("run", "--stream", str(out), "--mixer", "ovq", "--ablation", "sideways")
        assert res.returncode == 2


class TestLinearGrowthAblation:
    @pytest.fixture()
    def stream_file(self, tmp_path):
        out = tmp_path / "s.jsonl"
        assert main([
            "gen", "--task", "basic_icr", "--num-pairs", "10", "--key-len", "2",
            "--val-len", "2", "--num-queries", "2", "--count", "2", "--out", str(out),
        ]) == 0
        return out

    def test_run_with_saved_state(self, stream_file, tmp_path):
        snap = tmp_path / "lg.bin"
        code = main([
            "run", "--stream", str(stream_file), "--dim", "32", "--n-max", "64",
            "--chunk-len", "16", "--ablation", "linear-growth", "--save-state", str(snap),
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 0
        state = load_state(snap)
        # Planned over both streams, each ending in a short chunk.
        assert state.config.planned_chunks == state.chunks_seen == 10

    @pytest.mark.parametrize("bench", ["recall", "state-size"])
    def test_bench(self, bench, tmp_path):
        code = main([
            "bench", "--bench", bench, "--mixers", "ovq", "--T", "256", "--n-max-grid", "64",
            "--dim", "32", "--ablation", "linear-growth", "--out", str(tmp_path / "b.csv"),
        ])
        assert code == 0


def _choices(subcommand: str, flag: str) -> list[str]:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(next(a for a in sub.choices[subcommand]._actions if flag in a.option_strings).choices)


class TestNameTables:
    """The CLI spells the library's names with dashes and adds none of its own."""

    def test_inject_fault_accepts_exactly_the_engine_faults(self):
        assert set(_choices("verify", "--inject-fault")) == {f.replace("_", "-") for f in FAULTS}

    def test_mixer_accepts_exactly_the_mixer_kinds(self):
        assert set(_choices("run", "--mixer")) == {k.replace("_", "-") for k in MIXER_KINDS}

    def test_verify_scale_offers_the_verify_sizes_in_order(self):
        assert _choices("verify", "--scale") == list(VERIFY_SIZES) == ["small", "default", "large"]

    @pytest.mark.parametrize("kind", MIXER_KINDS)
    def test_mixers_accepts_each_kind_dash_spelled(self, capsys, kind):
        argv = ["bench", "--bench", "state-size", "--T", "8", "--dim", "4", "--format", "json"]
        assert main([*argv, "--mixers", kind.replace("_", "-")]) == 0
        assert json.loads(capsys.readouterr().out)["rows"][0]["mixer"].startswith(kind)
        if "_" in kind:
            assert main([*argv, "--mixers", kind]) == 2

    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_every_ablation_round_trips_through_its_flag(self, ablation):
        rate = 0.3 if ablation == "constant_lr" else None
        assert _parse_ablation(_ablation_flag(ablation, rate)) == (ablation, rate)


class TestVerify:
    def test_clean_exit_zero(self, tmp_path):
        res = run_cli("verify", "--scale", "small", "--out", str(tmp_path / "v.json"))
        assert res.returncode == 0
        doc = json.loads((tmp_path / "v.json").read_text())
        assert doc["all_passed"] is True

    def test_fault_exit_one_and_names_check(self, tmp_path):
        res = run_cli(
            "verify", "--scale", "small", "--inject-fault", "count-skip",
            "--out", str(tmp_path / "v.json"),
        )
        assert res.returncode == 1
        assert "count_conservation" in res.stderr


@pytest.fixture(scope="module")
def tiny_stream(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny") / "s.jsonl"
    assert main([
        "gen", "--task", "basic_icr", "--num-pairs", "4", "--key-len", "2", "--val-len", "2",
        "--num-queries", "2", "--vocab-size", "8", "--out", str(out),
    ]) == 0
    return out


# Engine flags that keep ``run`` on the tiny stream fast.
_TINY_RUN = ["--dim", "4", "--n-max", "4", "--chunk-len", "4"]


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejected a flag value
        return exc.code


# Every seed flag, on a command that would otherwise run.
_SEED_CASES = [
    pytest.param("--seed", ["gen", "--task", "icl", "--out", "{out}"], id="gen"),
    pytest.param(
        "--seed", ["run", "--stream", "{stream}", "--ablation", "rand-assign"],
        id="run-rand-assign",
    ),
    pytest.param("--seed", ["run", "--stream", "{stream}"], id="run"),
    pytest.param("--embedding-seed", ["run", "--stream", "{stream}"], id="run-embedding-seed"),
    pytest.param(
        "--seed", ["bench", "--mixers", "full-attention", "--T", "16", "--probes", "4"],
        id="bench",
    ),
    pytest.param("--seed", ["verify", "--scale", "small"], id="verify"),
]


class TestNegativeSeeds:
    """numpy seeds its generators from integers >= 0; a negative seed flag
    is a configuration error that names the flag and the range."""

    bad_seed = "-1"
    message = "seed must be in [0, 9223372036854775807], got -1"

    @pytest.mark.parametrize("flag,argv", _SEED_CASES)
    def test_exits_two_naming_the_flag(self, tiny_stream, tmp_path, capsys, flag, argv):
        out = tmp_path / "o"
        argv = [a.format(stream=tiny_stream, out=out) for a in argv]
        assert _exit_code([*argv, flag, self.bad_seed]) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {self.message}" in err and "Traceback" not in err
        assert not out.exists()


class TestSeedsWiderThanTheSnapshotField(TestNegativeSeeds):
    """A snapshot stores the seed as a signed 64-bit integer, so every seed
    flag takes values up to 2**63 - 1 and rejects larger ones up front."""

    bad_seed = str(2**63)
    message = f"seed must be in [0, 9223372036854775807], got {2**63}"

    def test_save_state_run_exits_two_before_any_work(self, tiny_stream, tmp_path, capsys):
        big = tmp_path / "big.bin"
        argv = ["run", "--stream", str(tiny_stream), *_TINY_RUN, "--save-state", str(big)]
        assert _exit_code([*argv, "--seed", str(2**63)]) == 2
        assert "argument --seed:" in capsys.readouterr().err
        assert not big.exists()

    def test_the_largest_seed_round_trips_through_a_snapshot(self, tiny_stream, tmp_path):
        path = tmp_path / "max.bin"
        argv = ["run", "--stream", str(tiny_stream), *_TINY_RUN, "--ablation", "rand-assign"]
        assert main([*argv, "--seed", str(2**63 - 1), "--save-state", str(path)]) == 0
        assert load_state(path).config.seed == 2**63 - 1


class TestPathErrors:
    """A path that cannot be opened as asked is a configuration error that
    names the path, not a traceback."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["gen", "--task", "icl", "--out", "{dir}"], id="gen-out"),
        pytest.param(["run", "--stream", "{dir}"], id="run-stream"),
        pytest.param(["run", "--stream", "{stream}", "--out", "{dir}"], id="run-out"),
        pytest.param(["run", "--stream", "{stream}", "--save-state", "{dir}"], id="run-save-state"),
        pytest.param(["run", "--stream", "{stream}", "--load-state", "{dir}"], id="run-load-state"),
    ])
    def test_a_directory_exits_two_naming_it(self, tiny_stream, tmp_path, capsys, argv):
        argv = [a.format(stream=tiny_stream, dir=tmp_path) for a in argv]
        if argv[0] == "run":
            argv += _TINY_RUN
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        assert str(tmp_path) in err and "Traceback" not in err


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the output paths were checked")


class TestOutputsCheckedFirst:
    """Every output path (--out, and run's --save-state) is checked before
    any stream is read or any work runs: a directory, or a file in a
    missing directory, exits 2 naming the path and writes nothing."""

    @pytest.mark.parametrize("old", [None, b"keep"], ids=["absent", "present"])
    def test_bad_out_leaves_the_snapshot_path_as_it_was(self, tiny_stream, tmp_path, capsys, old):
        snap, out = tmp_path / "x.bin", tmp_path / "nodir" / "o.csv"
        if old is not None:
            snap.write_bytes(old)
        argv = ["run", "--stream", str(tiny_stream), *_TINY_RUN, "--save-state", str(snap)]
        assert main([*argv, "--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err
        assert (snap.read_bytes() if snap.exists() else None) == old

    @pytest.mark.parametrize("fmt", ["jsonl", "bin"])
    def test_gen_out_dash_exits_two_and_writes_no_file(self, tmp_path, capsys, monkeypatch, fmt):
        # '-' is standard output for reports only; gen writes a stream file.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setitem(cli.GENERATORS, "icl", _no_work)
        assert main(["gen", "--task", "icl", "--format", fmt, "--out", "-"]) == 2
        assert "--out" in capsys.readouterr().err
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize("bad", ["missing", "directory"])
    @pytest.mark.parametrize("argv,work", [
        pytest.param(["gen", "--task", "icl", "--out", "{bad}"], "GENERATORS", id="gen-out"),
        pytest.param(
            ["run", "--stream", "{stream}", "--out", "{bad}"], "load_streams", id="run-out"
        ),
        pytest.param(
            ["run", "--stream", "{stream}", "--save-state", "{bad}"], "load_streams",
            id="run-save-state",
        ),
        pytest.param(
            ["bench", "--mixers", "ovq", "--T", "8", "--probes", "2", "--out", "{bad}"],
            "recall_benchmark", id="bench-out",
        ),
        pytest.param(
            ["verify", "--scale", "small", "--out", "{bad}"], "verify_all", id="verify-out"
        ),
    ])
    def test_exits_two_naming_the_path_before_any_work(
        self, tiny_stream, tmp_path, capsys, monkeypatch, argv, work, bad
    ):
        if work == "GENERATORS":
            monkeypatch.setitem(cli.GENERATORS, "icl", _no_work)
        else:
            monkeypatch.setattr(cli, work, _no_work)
        path = tmp_path / "missing" / "o" if bad == "missing" else tmp_path
        assert main([a.format(stream=tiny_stream, bad=path) for a in argv]) == 2
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()


class TestVocabTooLargeToEmbed:
    """Embedding tables larger than physical memory exit 2 naming vocab_size
    and --dim before anything is allocated. The u32-max vocab at --dim 64
    asks for about 4.4 TB."""

    @pytest.mark.parametrize("mixer", [
        ["--mixer", "full-attention"], ["--mixer", "ovq"], ["--mixer", "vq-fixed"],
        ["--mixer", "linear-baseline"], ["--mixer", "ovq", "--save-state", "{snap}"],
    ], ids=["full-attention", "ovq", "vq-fixed", "linear-baseline", "ovq-save-state"])
    def test_exits_two_naming_vocab_size_and_dim(self, tmp_path, capsys, mixer):
        path, snap = tmp_path / "huge.jsonl", tmp_path / "x.bin"
        rec = {"tokens": list(range(8)), "targets": [-1] * 7 + [3], "vocab_size": 2**32 - 132}
        path.write_text(json.dumps(rec) + "\n")
        argv = ["run", "--stream", str(path), "--dim", "64", "--n-max", "4", "--chunk-len", "4"]
        assert main([*argv, *[a.format(snap=snap) for a in mixer]]) == 2
        err = capsys.readouterr().err
        assert "vocab_size 4294967164" in err and "--dim 64" in err and "Traceback" not in err
        assert not snap.exists()


class TestEngineSizesTheSnapshotCannotHold:
    """An engine size the snapshot header or the machine cannot hold exits
    2 naming it before any stream runs: a chunk_len above the header's u32,
    or rows larger than physical memory (about 281 TB at the u32-max n_max
    with --dim 4096)."""

    @pytest.mark.parametrize("flags,named", [
        (["--chunk-len", str(2**32), "--dim", "4", "--n-max", "4"], "chunk_len"),
        (["--n-max", str(2**32 - 1), "--dim", "4096"], "n_max 4294967295 and d 4096"),
    ], ids=["chunk-len", "rows"])
    @pytest.mark.parametrize("save", [False, True], ids=["run", "save-state"])
    def test_exits_two_before_any_stream_runs(
        self, tiny_stream, tmp_path, capsys, monkeypatch, flags, named, save
    ):
        for module in (cli, engine):
            monkeypatch.setattr(module, "stream_chunks", _no_work)
        snap = tmp_path / "s.bin"
        argv = ["run", "--stream", str(tiny_stream), *flags]
        assert main([*argv, *(["--save-state", str(snap)] if save else [])]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not snap.exists()

    def test_head_width_above_the_u32_field_exits_two(
        self, tiny_stream, tmp_path, capsys, monkeypatch
    ):
        for module in (cli, engine):
            monkeypatch.setattr(module, "stream_chunks", _no_work)
        snap = tmp_path / "s.bin"
        argv = ["run", "--stream", str(tiny_stream), "--save-state", str(snap), "--n-max", "1"]
        assert main([*argv, "--dim", str(2**32)]) == 2
        err = capsys.readouterr().err
        assert "d must be in [1, 4294967295], got 4294967296" in err and "Traceback" not in err
        assert not snap.exists()


# Every integer flag of each subcommand, at a tiny value that runs. The
# property overrides some of them from a range with negatives. --T and
# --n-max-grid take one-value grids. ``run`` reads one fixed tiny stream,
# so no drawn vocab is ever embedded.
_SEED_FLAGS = ("--seed", "--embedding-seed")
_INT_FLAGS = {
    "gen": {
        "--count": 1, "--seed": 0, "--vocab-size": 8, "--num-pairs": 2, "--key-len": 2,
        "--val-len": 1, "--num-queries": 1, "--num-keys": 1, "--copies": 2,
        "--num-functions": 1, "--num-examples": 2, "--io-len": 1,
    },
    "run": {"--seed": 0, "--embedding-seed": 0, "--chunk-len": 4, "--dim": 4, "--n-max": 4},
    "bench": {
        "--seed": 0, "--chunk-len": 4, "--dim": 4, "--probes": 2, "--seeds": 1, "--T": 8,
        "--n-max-grid": 4,
    },
    "verify": {"--seed": 0},
}


@st.composite
def cli_argvs(draw, sub):
    if sub == "gen":
        argv = ["--task", draw(st.sampled_from(sorted(GENERATORS)))]
    elif sub == "verify":
        argv = ["--scale", "small"]
    else:
        argv = [
            "--mixer" if sub == "run" else "--mixers", draw(st.sampled_from(sorted(_MIXER_FLAGS))),
            "--ablation", draw(st.sampled_from(["none", "rand-assign"])),
            "--format", draw(st.sampled_from(["csv", "json"])),
        ]
        if sub == "bench":
            argv += ["--bench", draw(st.sampled_from(["recall", "state-size"]))]
    values = {
        flag: draw(st.integers(-2, 3)) if draw(st.booleans()) else base
        for flag, base in _INT_FLAGS[sub].items()
    }
    for flag, value in values.items():
        argv += [flag, str(value)]
    negative_seed = any(values.get(flag, 0) < 0 for flag in _SEED_FLAGS)
    return argv, negative_seed


@pytest.mark.parametrize("sub", sorted(_INT_FLAGS))
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_generated_integer_flags_exit_cleanly(tiny_stream, sub, data):
    """Any subcommand with any small integer flag values exits 0 or 2, and
    1 only for ``verify``; a negative seed is always 2. A JSON report
    written on 0 or 1 is strict JSON."""
    argv, negative_seed = data.draw(cli_argvs(sub))
    path = tiny_stream.with_name(f"{sub}.out")
    out = ["--out", str(path)]
    if sub == "run":
        out += ["--stream", str(tiny_stream)]
    code = _exit_code([sub, *argv, *out])
    assert code in ((0, 1, 2) if sub == "verify" else (0, 2))
    if negative_seed:
        assert code == 2
    if code in (0, 1) and (sub == "verify" or "json" in argv):
        _strict_json(path.read_text())


@pytest.fixture(scope="module")
def tiny_snapshot(tiny_stream):
    out = tiny_stream.with_name("tiny.bin")
    argv = ["run", "--stream", str(tiny_stream), *_TINY_RUN, "--save-state", str(out)]
    assert main([*argv, "--out", str(tiny_stream.with_name("tiny.csv"))]) == 0
    return out


_PATH_KINDS = ("valid", "missing", "directory")


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(kinds=st.tuples(*[st.sampled_from(_PATH_KINDS)] * 4))
@example(kinds=("valid",) * 4)
def test_generated_path_flags_exit_cleanly(tiny_stream, tiny_snapshot, kinds):
    """``run`` with each path flag a valid path, a missing one or a
    directory exits 0 when every path is valid and 2 otherwise."""
    root = tiny_stream.parent
    paths = {
        # flag: (valid, missing)
        "--stream": (tiny_stream, root / "missing.jsonl"),
        "--load-state": (tiny_snapshot, root / "missing.bin"),
        "--out": (root / "paths.csv", root / "missing" / "paths.csv"),
        "--save-state": (root / "paths.bin", root / "missing" / "paths.bin"),
    }
    argv = ["run", *_TINY_RUN]
    for (flag, (valid, missing)), kind in zip(paths.items(), kinds):
        argv += [flag, str({"valid": valid, "missing": missing, "directory": root}[kind])]
    assert _exit_code(argv) == (0 if set(kinds) == {"valid"} else 2)


# Odd spellings of the float, ablation and grid flags. ``None`` keeps the
# tiny value that runs.
_ODD_VALUES = {
    "--beta": [None, "nan", "inf", "-1", "0", "1e308"],
    "--ablation": [
        None, "const-lr=0", "const-lr=1.5", "const-lr=nan", "const-lr=", "const-lr=1e-300"
    ],
    "--T": [None, "", "1,,2", "-1", "8,-2"],
    "--n-max-grid": [None, "", "1,,2", "-1", "4,-2"],
}
_ODD_BASE = {
    "run": {"--chunk-len": "4", "--dim": "4", "--n-max": "4"},
    "bench": {"--chunk-len": "4", "--dim": "4", "--probes": "2", "--T": "8", "--n-max-grid": "4"},
}


@pytest.mark.parametrize("sub", sorted(_ODD_BASE))
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_generated_float_ablation_and_grid_flags_exit_cleanly(tiny_stream, sub, data):
    """``run`` and ``bench`` with a non-finite, negative or huge --beta, an
    odd const-lr rate, or an empty, gapped or negative grid exit 0 or 2,
    and a JSON report written on 0 is strict JSON."""
    flags = dict(_ODD_BASE[sub])
    for flag, values in _ODD_VALUES.items():
        if flag in ("--beta", "--ablation") or flag in flags:
            value = data.draw(st.sampled_from(values), label=flag)
            if value is not None:
                flags[flag] = value
    if sub == "run":
        argv = ["run", "--stream", str(tiny_stream), "--mixer"]
    else:
        kind = data.draw(st.sampled_from(["recall", "state-size"]))
        argv = ["bench", "--bench", kind, "--mixers"]
    argv.append(data.draw(st.sampled_from(sorted(_MIXER_FLAGS))))
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    fmt = data.draw(st.sampled_from(["csv", "json"]), label="--format")
    out = tiny_stream.with_name(f"{sub}-odd.out")
    code = _exit_code([*argv, "--format", fmt, "--out", str(out)])
    assert code in (0, 2)
    if code == 0 and fmt == "json":
        _strict_json(out.read_text())
