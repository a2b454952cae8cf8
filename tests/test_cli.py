"""Command-line surface: subcommand wiring, report meta, exit codes, and
state snapshot flags."""

import argparse
import json
import subprocess
import sys

import pytest

from ovq import load_state, load_streams
from ovq.bench import MIXER_KINDS
from ovq.cli import _ablation_flag, _parse_ablation, build_parser, main
from ovq.engine import ABLATIONS, FAULTS


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
        assert len(load_streams(out, fmt="bin")) == 1

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
    @pytest.mark.parametrize("beta", ["inf", "nan", "-3"])
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

    def test_missing_stream_is_config_error(self):
        res = run_cli("run", "--stream", "/nonexistent/stream.jsonl")
        assert res.returncode == 2


class TestBench:
    def test_state_size_csv(self):
        res = run_cli(
            "bench", "--bench", "state-size", "--mixers", "full-attention,ovq,linear-baseline",
            "--T", "1024,65536", "--n-max-grid", "2048", "--dim", "128",
        )
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0].startswith("# schema: ovq-state-report-v1")
        assert "16777216" in res.stdout

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
    @pytest.mark.parametrize("beta", ["nan", "inf", "-3"])
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


def _choices(subcommand: str, flag: str) -> set[str]:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return set(next(a for a in sub.choices[subcommand]._actions if flag in a.option_strings).choices)


class TestNameTables:
    """The CLI spells the library's names with dashes and adds none of its own."""

    def test_inject_fault_accepts_exactly_the_engine_faults(self):
        assert _choices("verify", "--inject-fault") == {f.replace("_", "-") for f in FAULTS}

    def test_mixer_accepts_exactly_the_mixer_kinds(self):
        assert _choices("run", "--mixer") == {k.replace("_", "-") for k in MIXER_KINDS}

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
