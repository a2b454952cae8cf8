"""Command-line interface.

Subcommands: ``gen`` writes task streams, ``run`` evaluates one mixer over
a stream file, ``bench`` sweeps a benchmark grid, ``verify`` runs the
equivalence suite. Exit codes: 0 success, 1 verification failure,
2 configuration error. Every report carries a meta block echoing the
resolved defaults.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .bench import (
    MIXER_KINDS,
    MixerSpec,
    RECALL_SCHEMA,
    STATE_SCHEMA,
    TASK_SCHEMA,
    recall_benchmark,
    rows_to_csv,
    rows_to_json,
    score_task,
    state_size_sweep,
    token_embeddings,
    token_task_eval,
    verify_all,
)
from .engine import FAULTS, OvqConfig, OvqState, stream_chunks, with_planned_chunks
from .errors import ConfigurationError, GenerationError, ParseError
from .state_io import load_state, save_state
from .tasks import GENERATORS, SpecialTokens, load_streams, save_streams

# Flags spell the library's names with dashes.
_FAULT_FLAGS = {n.replace("_", "-"): n for n in FAULTS}
_MIXER_FLAGS = {n.replace("_", "-"): n for n in MIXER_KINDS}
_ABLATION_FLAGS = {"none": "none", "rand-assign": "random_assign", "linear-growth": "linear_growth"}

# The ``gen`` flags each task's generator takes, besides --vocab-size and --seed.
_GEN_ARGS = {
    "basic_icr": ("num_pairs", "key_len", "val_len", "num_queries"),
    "positional_icr": ("num_keys", "copies", "key_len", "val_len"),
    "icl": ("num_functions", "num_examples", "io_len"),
}


class _StoreTyped(argparse.Action):
    """Store the value and record that the flag was typed, so a loaded
    snapshot can tell given flags from defaults."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.typed = getattr(namespace, "typed", ()) + (self.dest,)


def _parse_ablation(text: str) -> tuple[str, float | None]:
    if text in _ABLATION_FLAGS:
        return _ABLATION_FLAGS[text], None
    if text.startswith("const-lr="):
        try:
            return "constant_lr", float(text.split("=", 1)[1])
        except ValueError as exc:
            raise ConfigurationError(f"bad constant learning rate in {text!r}") from exc
    raise ConfigurationError(
        f"unknown ablation {text!r}; expected none, rand-assign, linear-growth, or const-lr=R"
    )


def _ovq_config(args, n_max: int) -> OvqConfig:
    ablation, rate = _parse_ablation(args.ablation)
    kwargs = dict(
        n_max=n_max,
        chunk_len=args.chunk_len,
        beta=args.beta,
        ablation=ablation,
        seed=args.seed,
    )
    if rate is not None:
        kwargs["constant_lr_rate"] = rate
    return OvqConfig(**kwargs)


def _mixer_spec(args, kind: str, n_max: int) -> MixerSpec:
    if kind == "ovq":
        return MixerSpec(kind="ovq", beta=args.beta, d=args.dim, ovq=_ovq_config(args, n_max))
    if kind == "vq_fixed":
        return MixerSpec(kind="vq_fixed", beta=args.beta, d=args.dim, vq_n=n_max)
    return MixerSpec(kind=kind, beta=args.beta, d=args.dim)


def _ablation_flag(ablation: str, rate: float | None) -> str:
    if ablation == "constant_lr":
        return f"const-lr={rate!r}"
    return {v: k for k, v in _ABLATION_FLAGS.items()}[ablation]


def _adopt_snapshot(args, state: OvqState) -> None:
    """Make the engine flags describe the loaded snapshot, which is what
    runs: a typed flag must agree with it, an untyped one takes its value."""
    cfg = state.config
    ran = {
        "chunk_len": cfg.chunk_len,
        "n_max": cfg.n_max,
        "beta": cfg.beta,
        "dim": state.d,
        "seed": cfg.seed,
        "ablation": _ablation_flag(cfg.ablation, cfg.constant_lr_rate),
    }
    args.ablation = _ablation_flag(*_parse_ablation(args.ablation))
    for dest, value in ran.items():
        given = getattr(args, dest)
        if dest in getattr(args, "typed", ()) and given != value:
            flag = "--" + dest.replace("_", "-")
            raise ConfigurationError(f"{flag} {given} contradicts the loaded state ({value})")
        setattr(args, dest, value)


def _meta(args, extra: dict | None = None) -> dict:
    meta = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "typed")}
    meta["version"] = __version__
    if extra:
        meta.update(extra)
    return meta


def _emit_rows(args, rows, schema: str, extra: dict) -> None:
    meta = _meta(args, {"schema": schema, **extra})
    to_text = rows_to_csv if args.format == "csv" else rows_to_json
    _emit(to_text(rows, schema, meta), args.out)


def _emit(text: str, out_path: str | None) -> None:
    if out_path in (None, "-"):
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)


def _int_grid(text: str, flag: str) -> list[int]:
    """A comma-separated grid of sizes: one or more integers, each >= 1."""
    try:
        grid = [int(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise ConfigurationError(f"{flag}: bad integer grid {text!r}") from exc
    if not grid or min(grid) < 1:
        raise ConfigurationError(f"{flag} needs one or more values >= 1, got {text!r}")
    return grid


def _check_count(value: int, flag: str) -> None:
    if value < 1:
        raise ConfigurationError(f"{flag} needs a value >= 1, got {value}")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_gen(args) -> int:
    _check_count(args.count, "--count")
    params = {name: getattr(args, name) for name in ("vocab_size", *_GEN_ARGS[args.task])}
    generator = GENERATORS[args.task]
    streams = [generator(seed=args.seed + i, **params) for i in range(args.count)]
    save_streams(streams, args.out, fmt=args.format)
    print(f"wrote {len(streams)} {args.task} stream(s) to {args.out} ({args.format})")
    return 0


def _run_with_snapshots(args, streams) -> list[dict]:
    """Stream instances sequentially through one persistent engine state,
    loaded from a snapshot when asked, and score predictions at the target
    positions. The loaded snapshot's own configuration drives the engine."""
    vocabs = {s.vocab_size for s in streams}
    if len(vocabs) != 1:
        raise ConfigurationError("state snapshots need a uniform vocab across streams")
    sp = SpecialTokens(vocabs.pop())

    if args.load_state:
        state = load_state(args.load_state)
        _adopt_snapshot(args, state)
    else:
        config = with_planned_chunks(_ovq_config(args, args.n_max), [len(s) for s in streams])
        state = OvqState.fresh(config, args.dim)
    label = MixerSpec(kind="ovq", beta=state.config.beta, d=state.d, ovq=state.config).label

    qk_table, v_table = token_embeddings(sp.total_vocab, args.dim, args.embedding_seed)
    rows = []
    for stream in streams:
        x = qk_table[stream.tokens]
        out, _ = stream_chunks(state, x, v_table[stream.tokens], q=x)
        rows.append(score_task(stream, out, v_table, label, state.scalars_stored()))
    if args.save_state:
        save_state(state, args.save_state)
        print(f"saved engine state to {args.save_state}", file=sys.stderr)
    return rows


def _cmd_run(args) -> int:
    streams = load_streams(args.stream, fmt=args.stream_format)
    kind = _MIXER_FLAGS[args.mixer]
    if (args.save_state or args.load_state) and kind != "ovq":
        raise ConfigurationError("--save-state/--load-state only apply to the ovq mixer")

    if kind == "ovq" and (args.save_state or args.load_state):
        rows = _run_with_snapshots(args, streams)
    else:
        mixer = _mixer_spec(args, kind, args.n_max)
        rows = [
            token_task_eval(mixer, stream, embedding_seed=args.embedding_seed)
            for stream in streams
        ]

    _emit_rows(args, rows, TASK_SCHEMA, {"untrained_probe": True})
    return 0


def _cmd_bench(args) -> int:
    t_grid = _int_grid(args.T, "--T")
    n_max_grid = _int_grid(args.n_max_grid, "--n-max-grid")
    _check_count(args.probes, "--probes")
    _check_count(args.seeds, "--seeds")
    if args.bench == "recall" and args.probes > min(t_grid):
        raise ConfigurationError(
            f"--probes {args.probes} exceeds the smallest --T {min(t_grid)}; "
            "each recall probe needs its own earlier key"
        )
    mixers = []
    for m in [x.strip() for x in args.mixers.split(",") if x.strip()]:
        if m not in _MIXER_FLAGS:
            raise ConfigurationError(f"unknown mixer {m!r}; choose from {sorted(_MIXER_FLAGS)}")
        # ovq sweeps the capacity grid; vq-fixed takes its first value, and
        # the other mixers have no capacity.
        kind = _MIXER_FLAGS[m]
        capacities = n_max_grid if kind == "ovq" else n_max_grid[:1]
        mixers.extend(_mixer_spec(args, kind, n) for n in capacities)

    rows = []
    if args.bench == "state-size":
        rows = state_size_sweep(mixers, t_grid)
        schema = STATE_SCHEMA
    else:
        for mixer in mixers:
            for T in t_grid:
                for s in range(args.seeds):
                    rows.append(recall_benchmark(mixer, T, args.probes, args.seed + s))
        rows.sort(key=lambda r: (r.mixer, r.T, r.seed))
        schema = RECALL_SCHEMA

    _emit_rows(args, rows, schema, {})
    return 0


def _cmd_verify(args) -> int:
    report = verify_all(seed=args.seed, sizes=args.scale, fault=_FAULT_FLAGS[args.inject_fault])
    report["meta"].update(_meta(args))
    _emit(json.dumps(report, indent=2, sort_keys=True), args.out)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if failed:
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"all {len(report['checks'])} checks passed", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ovq",
        description="Online vector-quantized attention benchmarks and verification.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0, action=_StoreTyped, help="base random seed")
        p.add_argument(
            "--chunk-len", type=int, default=128, action=_StoreTyped, help="engine chunk length"
        )
        p.add_argument(
            "--beta", type=float, default=16.0, action=_StoreTyped, help="attention logit scale"
        )
        p.add_argument(
            "--dim", type=int, default=64, action=_StoreTyped, help="head / embedding dimension"
        )
        p.add_argument(
            "--ablation",
            default="none",
            action=_StoreTyped,
            help="none, rand-assign, linear-growth, or const-lr=R",
        )
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="report format"
        )
        p.add_argument("--out", default="-", help="output path, '-' for stdout")

    g = sub.add_parser(
        "gen", help="generate task streams", formatter_class=argparse.ArgumentDefaultsHelpFormatter
    )
    g.add_argument("--task", choices=sorted(GENERATORS), required=True)
    g.add_argument("--count", type=int, default=1, help="number of instances")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output file")
    g.add_argument("--format", choices=("jsonl", "bin"), default="jsonl")
    g.add_argument("--vocab-size", type=int, default=10000)
    g.add_argument("--num-pairs", type=int, default=220)
    g.add_argument("--key-len", type=int, default=8)
    g.add_argument("--val-len", type=int, default=8)
    g.add_argument("--num-queries", type=int, default=6)
    g.add_argument("--num-keys", type=int, default=55)
    g.add_argument("--copies", type=int, default=4)
    g.add_argument("--num-functions", type=int, default=16)
    g.add_argument("--num-examples", type=int, default=80)
    g.add_argument("--io-len", type=int, default=12)
    g.set_defaults(func=_cmd_gen)

    r = sub.add_parser(
        "run",
        help="evaluate one mixer over a stream file",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    r.add_argument("--stream", required=True, help="stream file from gen")
    r.add_argument("--stream-format", choices=("jsonl", "bin"), default="jsonl")
    r.add_argument("--mixer", choices=sorted(_MIXER_FLAGS), default="ovq")
    r.add_argument("--embedding-seed", type=int, default=0)
    r.add_argument("--save-state", default=None, help="write final engine state here")
    r.add_argument("--load-state", default=None, help="start from this engine state")
    r.add_argument(
        "--n-max", type=int, default=2048, action=_StoreTyped, help="dictionary capacity"
    )
    add_common(r)
    r.set_defaults(func=_cmd_run)

    # No prefix matching, or ``--n-max`` would silently mean --n-max-grid.
    b = sub.add_parser(
        "bench",
        help="sweep a benchmark grid",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        allow_abbrev=False,
    )
    b.add_argument("--bench", choices=("recall", "state-size"), default="recall")
    b.add_argument("--mixers", default="full-attention,ovq,linear-baseline")
    b.add_argument("--T", default="256,1024", help="comma-separated context lengths")
    b.add_argument(
        "--n-max-grid", default="2048", help="comma-separated dictionary capacities for ovq"
    )
    b.add_argument("--probes", type=int, default=64, help="probe queries per run")
    b.add_argument("--seeds", type=int, default=1, help="seeds per grid point")
    add_common(b)
    b.set_defaults(func=_cmd_bench)

    v = sub.add_parser(
        "verify",
        help="run the equivalence and invariant suite",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--scale", choices=("small", "default", "large"), default="default")
    v.add_argument(
        "--inject-fault",
        choices=sorted(_FAULT_FLAGS),
        default="none",
        help="deliberately break one engine step to prove the suite catches it",
    )
    v.add_argument("--out", default="-", help="JSON report path, '-' for stdout")
    v.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigurationError, GenerationError, ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
