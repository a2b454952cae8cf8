"""Streaming online-clustered attention layer.

State is a pair of centroid matrices (key side, value side) plus integer
assignment counts. Each chunk is processed in two phases, prediction first:

1. predict: every chunk row attends, in one softmax over two blocks, to
   the frozen dictionary (always visible, biased by log counts) and to the
   raw in-chunk keys and values under a causal mask;
2. absorb: the schedule decides how many chunk keys seed brand-new
   centroids (lowest similarity to the existing dictionary wins), and the
   rest are folded into their nearest centroid with a running-mean step.

Dictionary capacity follows a plateauing schedule, floor(t * N / (t + N))
components after t tokens, so growth is fast early and asymptotes to the
hard cap N. Counts are kept as integers; their sum always equals the
number of tokens absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, InvalidStateError
from .reference import AttentionOutput, HeadSequence, check_beta, check_unit_rows

ABLATIONS = ("none", "random_assign", "linear_growth", "constant_lr")
FAULTS = ("none", "count_skip", "mask_off_by_one", "growth_over_alloc")
DTYPES = {"float64": np.float64, "float32": np.float32}
# Seeds must fit the snapshot header's signed 64-bit field.
SEED_MAX = 2**63 - 1


@dataclass(frozen=True)
class OvqConfig:
    """Layer configuration.

    ``beta`` defaults to 8.0, chosen so exp(beta * cos) spans roughly three
    orders of magnitude over the [0.5, 1.0] similarity band; it is a
    tunable, not a calibrated constant. ``planned_chunks`` is only needed
    by the linear_growth ablation, which spreads the centroid budget evenly
    and therefore must know the expected chunk count up front. ``seed``,
    which only the random_assign ablation reads, must lie in [0, SEED_MAX].
    ``_fault`` is a verification-harness hook that deliberately breaks one
    internal step; leave it at "none" for real use.
    """

    n_max: int
    chunk_len: int = 128
    beta: float = 8.0
    ablation: str = "none"
    constant_lr_rate: float = 0.25
    seed: int = 0
    planned_chunks: int | None = None
    dtype: str = "float64"
    _fault: str = "none"

    def __post_init__(self):
        if self.n_max < 1:
            raise ConfigurationError(f"n_max must be >= 1, got {self.n_max}")
        if self.chunk_len < 1:
            raise ConfigurationError(f"chunk_len must be >= 1, got {self.chunk_len}")
        check_beta(self.beta)
        if self.ablation not in ABLATIONS:
            raise ConfigurationError(f"unknown ablation {self.ablation!r}")
        if self.ablation == "constant_lr" and not (0.0 < self.constant_lr_rate <= 1.0):
            raise ConfigurationError(
                f"constant learning rate must be in (0, 1], got {self.constant_lr_rate}"
            )
        if not 0 <= self.seed <= SEED_MAX:
            raise ConfigurationError(f"seed must be in [0, 2**63 - 1], got {self.seed}")
        if self.planned_chunks is not None and self.planned_chunks < 1:
            raise ConfigurationError("planned_chunks must be >= 1 when given")
        if self.dtype not in DTYPES:
            raise ConfigurationError(f"dtype must be one of {sorted(DTYPES)}")
        if self._fault not in FAULTS:
            raise ConfigurationError(f"unknown fault {self._fault!r}")


@dataclass
class OvqState:
    """Mutable per-head streaming state. Single writer: chunks must be fed
    in sequence order by one owner. Rows at index >= n_active are zeros."""

    config: OvqConfig
    d: int
    means_k: np.ndarray   # [n_max, d]
    means_v: np.ndarray   # [n_max, d]
    counts: np.ndarray    # [n_max] int64
    n_active: int = 0
    tokens_seen: int = 0
    chunks_seen: int = 0

    @classmethod
    def fresh(cls, config: OvqConfig, d: int) -> "OvqState":
        if d < 1:
            raise ConfigurationError(f"d must be >= 1, got {d}")
        dt = DTYPES[config.dtype]
        return cls(
            config=config,
            d=d,
            means_k=np.zeros((config.n_max, d), dtype=dt),
            means_v=np.zeros((config.n_max, d), dtype=dt),
            counts=np.zeros(config.n_max, dtype=np.int64),
        )

    def scalars_stored(self) -> int:
        """Live state scalars: two centroid rows plus one count per
        active component."""
        return self.n_active * (2 * self.d + 1)


@dataclass(frozen=True)
class ChunkUpdateRecord:
    """What one absorbed chunk did to the state."""

    assignments: np.ndarray              # [L] centroid index per token
    new_centroid_positions: np.ndarray   # chunk positions that seeded centroids
    learning_rates: np.ndarray           # [L]; 1.0 for seeding tokens


def growth_count(t: int, n_max: int) -> int:
    """Dictionary capacity after t tokens: floor(t * n_max / (t + n_max)).

    Exact integer arithmetic; monotone nondecreasing in t and bounded by
    n_max.
    """
    if t < 0:
        raise ConfigurationError(f"t must be >= 0, got {t}")
    if n_max < 1:
        raise ConfigurationError(f"n_max must be >= 1, got {n_max}")
    return (t * n_max) // (t + n_max)


def new_centroid_budget(tokens_before: int, lc: int, chunk_index: int, config: OvqConfig) -> int:
    """The schedule's step across chunk ``chunk_index`` (1-based) of ``lc``
    tokens after ``tokens_before``: capacity growth between those token
    counts, so a short last chunk gets only its share. Under the
    linear_growth ablation the cap is instead spread evenly over
    ``config.planned_chunks``. ``_chunk_budget`` realizes it per chunk."""
    if chunk_index < 1:
        raise ConfigurationError(f"chunk_index must be >= 1, got {chunk_index}")
    if config.ablation == "linear_growth":
        if config.planned_chunks is None:
            raise ConfigurationError(
                "linear_growth needs planned_chunks (the expected chunk count)"
            )
        per = int(round(config.n_max / config.planned_chunks))
        return min(per * chunk_index, config.n_max) - min(per * (chunk_index - 1), config.n_max)
    n_max = config.n_max
    return growth_count(tokens_before + lc, n_max) - growth_count(tokens_before, n_max)


def with_planned_chunks(config: OvqConfig, stream_lengths) -> OvqConfig:
    """The configuration for streams of ``stream_lengths`` tokens fed one
    after another from a fresh state: under linear_growth an unset
    ``planned_chunks`` becomes the number of chunks those streams make."""
    if config.ablation != "linear_growth" or config.planned_chunks is not None:
        return config
    planned = sum(math.ceil(n / config.chunk_len) for n in stream_lengths)
    return replace(config, planned_chunks=max(1, planned))


def planned_active_components(total_tokens: int, config: OvqConfig) -> int:
    """Active component count after streaming ``total_tokens`` tokens in
    chunks of ``config.chunk_len`` (last chunk may be short). Mirrors the
    engine's realized growth, including the first-chunk bootstrap."""
    if total_tokens < 0:
        raise ConfigurationError("total_tokens must be >= 0")
    config = with_planned_chunks(config, [total_tokens])
    active = 0
    tokens = 0
    chunk_index = 0
    while tokens < total_tokens:
        lc = min(config.chunk_len, total_tokens - tokens)
        chunk_index += 1
        n_new = _chunk_budget(tokens, lc, chunk_index, active, config)
        active += n_new
        tokens += lc
    return active


def _chunk_budget(
    tokens_before: int, lc: int, chunk_index: int, n_active: int, config: OvqConfig
) -> int:
    """Centroids the engine seeds for one chunk: the ``new_centroid_budget``
    step, then the bootstrap seed and the fault hook, clamped to the
    chunk's tokens and the free rows."""
    n_new = new_centroid_budget(tokens_before, lc, chunk_index, config)
    # A nonempty chunk facing an empty dictionary must seed at least one
    # centroid, otherwise its tokens have nowhere to go. This only fires
    # when the schedule rounds the first step to zero (tiny chunks or
    # n_max == 1).
    if n_active == 0 and n_new == 0 and lc >= 1:
        n_new = 1
    if config._fault == "growth_over_alloc":
        n_new += 1
    return max(0, min(n_new, lc, config.n_max - n_active))


def select_new_centroids(
    k_chunk: np.ndarray,
    state: OvqState,
    n_new: int,
    *,
    best_sim: np.ndarray | None = None,
) -> np.ndarray:
    """Pick which chunk positions seed new centroids.

    Default rule: the ``n_new`` keys whose best dot product against the
    existing dictionary is smallest (ties to the lower position), so the
    seeded centroids are spread away from what is already covered. With an
    empty dictionary the chunk bootstraps itself greedily: position 0
    seeds, then the position least similar to anything seeded so far is
    taken, repeating until the budget is filled. The random_assign
    ablation replaces all of this with a uniform sample seeded by the
    config seed and the chunk's index, so a reloaded snapshot draws what
    an uninterrupted stream would have drawn. ``best_sim`` is each
    position's largest dot product against the active dictionary rows when
    the caller already holds it.
    """
    lc = k_chunk.shape[0]
    if n_new > lc:
        raise ConfigurationError(f"cannot select {n_new} centroids from {lc} positions")
    if n_new <= 0:
        return np.empty(0, dtype=np.int64)

    if state.config.ablation == "random_assign":
        rng = np.random.default_rng([state.config.seed, state.chunks_seen + 1])
        return np.sort(rng.choice(lc, size=n_new, replace=False)).astype(np.int64)

    if state.n_active == 0:
        selected = [0]
        if n_new > 1:
            best = k_chunk @ k_chunk[0]
            best[0] = np.inf
            for _ in range(n_new - 1):
                pick = int(np.argmin(best))
                selected.append(pick)
                sims = k_chunk @ k_chunk[pick]
                best = np.maximum(best, sims)
                best[pick] = np.inf
        return np.array(sorted(selected), dtype=np.int64)

    if best_sim is None:
        best_sim = np.max(_dictionary_sims(state, k_chunk), axis=1)
    order = np.argsort(best_sim, kind="stable")
    return np.sort(order[:n_new]).astype(np.int64)


def update_dictionary(
    state: OvqState,
    k_chunk: np.ndarray,
    v_chunk: np.ndarray,
    assignments: np.ndarray,
    new_centroid_positions: np.ndarray,
) -> ChunkUpdateRecord:
    """Fold one chunk into the state.

    Seeding tokens are installed verbatim as new rows with count 1. Every
    other token increments its centroid's count, and the centroid row
    moves by lr * (token - row) where lr = 1 / (count after this chunk's
    increments). All merge deltas for one centroid are taken against the
    same pre-merge row, which makes the result the exact running mean of
    everything the centroid has absorbed. The deltas are added in rank
    passes: every target's first delta, then every target's second, and
    so on, so each row receives its additions one at a time in chunk
    order. The constant_lr ablation takes lr = rate / m for a centroid
    that m of the chunk's tokens merge into, so the row moves that fixed
    fraction of the way to their mean (mini-batch k-means with a constant
    step); with m = 1 that is the rate itself. Rows the chunk never
    touches are left bitwise unchanged.

    This is the checked entry point for callers that choose their own
    assignments and seeds: it rejects, before any state change, chunk and
    assignment shapes that disagree, the chunks ``absorb_chunk`` rejects
    (outside 1..chunk_len tokens, non-unit keys, non-finite values),
    growth past n_max, repeated or out-of-chunk seed positions,
    assignments outside the grown dictionary and seeds that do not point
    at the fresh rows. ``absorb_chunk`` and ``ovq_forward_chunk`` build
    valid assignments themselves and merge without these checks.
    """
    cfg = state.config
    dt = DTYPES[cfg.dtype]
    k_chunk, v_chunk = np.asarray(k_chunk, dtype=dt), np.asarray(v_chunk, dtype=dt)
    lc = k_chunk.shape[0]
    shapes = (k_chunk.shape, v_chunk.shape, np.shape(assignments))
    if shapes != ((lc, state.d), (lc, state.d), (lc,)):
        raise ConfigurationError(
            f"update needs [L, {state.d}] k and v chunks and L assignments, got shapes {shapes}"
        )
    _validate_chunk(state, None, k_chunk, v_chunk)
    positions = np.asarray(new_centroid_positions)
    n_new = len(positions)
    grown = state.n_active + n_new

    if grown > cfg.n_max:
        raise InvalidStateError("new centroids would exceed n_max")
    if n_new != len(np.unique(positions)):
        raise InvalidStateError("new centroid positions must be distinct")
    outside = positions[(positions < 0) | (positions >= lc)]
    if len(outside):
        raise InvalidStateError(
            f"new centroid position {outside[0]} is outside the chunk positions [0, {lc})"
        )
    if lc and not 0 <= int(np.min(assignments)) <= int(np.max(assignments)) < grown:
        raise InvalidStateError("assignment index outside the grown dictionary")
    if n_new:
        positions = positions[np.argsort(assignments[positions])]
        if not np.array_equal(assignments[positions], np.arange(state.n_active, grown)):
            raise InvalidStateError("seeding tokens must point at the fresh indices")

    lrs = _merge(state, k_chunk, v_chunk, assignments, positions)
    return ChunkUpdateRecord(
        assignments=assignments.copy(),
        new_centroid_positions=np.asarray(new_centroid_positions, dtype=np.int64),
        learning_rates=lrs,
    )


def _merge(state: OvqState, k_chunk, v_chunk, assignments, seeds) -> np.ndarray:
    """The dictionary update behind ``update_dictionary``, for inputs that
    are valid by construction: ``seeds`` lists the seeding chunk positions
    in the order of the fresh rows they take. Advances the token and chunk
    counters and returns the [L] learning rates, 1.0 for seeding tokens."""
    cfg = state.config
    lc = len(assignments)
    state.tokens_seen += lc
    state.chunks_seen += 1
    n_new = len(seeds)
    if n_new:
        fresh = slice(state.n_active, state.n_active + n_new)
        state.means_k[fresh] = k_chunk[seeds]
        state.means_v[fresh] = v_chunk[seeds]
        state.counts[fresh] = 1
        state.n_active += n_new
        merging = np.ones(lc, dtype=bool)
        merging[seeds] = False
        targets, k_chunk, v_chunk = assignments[merging], k_chunk[merging], v_chunk[merging]
    else:
        targets = assignments
    if not len(targets):  # every token seeded, or the chunk is empty
        return np.ones(lc)

    per_target = np.bincount(targets, minlength=state.n_active)
    counts = state.counts[: state.n_active]
    if cfg._fault == "count_skip":
        counts = counts.copy()  # the rates still see the increments; the state does not
    counts += per_target
    if cfg.ablation == "constant_lr":
        rates = cfg.constant_lr_rate / per_target[targets]
    else:
        rates = 1.0 / counts[targets]

    lr_col = rates.astype(state.means_k.dtype, copy=False)[:, None]
    most = int(per_target.max())
    passes = None if most == 1 else _rank_passes(targets, most)
    for means, x in ((state.means_k, k_chunk), (state.means_v, v_chunk)):
        rows = means[targets]
        delta = x - rows
        delta *= lr_col
        if passes is None:
            rows += delta
            means[targets] = rows
        else:
            for p, rows_p in passes:
                means[rows_p] += delta[p]

    if not n_new:
        return rates
    lrs = np.ones(lc)
    lrs[merging] = rates
    return lrs


def _rank_passes(targets: np.ndarray, n_passes: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(indices into ``targets``, their targets) grouped by occurrence:
    pass r holds the r-th occurrence of every target that has one, so no
    pass repeats a target, and a target's occurrences fall in passes 0, 1,
    ... in their chunk order. ``n_passes`` is the largest multiplicity."""
    order = np.argsort(targets, kind="stable")
    ranked = targets[order]
    rank = np.arange(len(ranked)) - np.searchsorted(ranked, ranked)
    passes = [order[rank == r] for r in range(n_passes)]
    return [(p, targets[p]) for p in passes]


def _dictionary_sims(state: OvqState, x: np.ndarray) -> np.ndarray:
    """x . D_k^T against the active dictionary rows."""
    return x @ state.means_k[: state.n_active].T


def _dictionary_logits(beta: float, sims, counts) -> np.ndarray:
    """beta * sims + log counts, where sims = q . D_k^T, in the dtype of
    sims; a row with count 0 gets -inf, so it never receives weight."""
    out = np.multiply(sims, beta)
    with np.errstate(divide="ignore"):
        out += np.log(counts.astype(np.float64)).astype(out.dtype, copy=False)
    return out


def _softmax_block(logits: np.ndarray, row_max, values) -> tuple[np.ndarray, np.ndarray]:
    """Exponentiate one column block of a row softmax against ``row_max``,
    in place, and return its weighted values and its weight row sums."""
    logits -= row_max
    np.exp(logits, out=logits)
    return logits @ values, np.sum(logits, axis=1, keepdims=True)


def count_readout(beta: float, queries, means_k, counts, means_v) -> np.ndarray:
    """softmax(beta * q . D_k^T + log counts) . D_v over the rows whose
    count is nonzero: the mixture readout of a count-weighted dictionary."""
    logits = _dictionary_logits(beta, queries @ means_k.T, counts)
    out, total = _softmax_block(logits, np.max(logits, axis=1, keepdims=True), means_v)
    return out / total


def _predict_chunk(state: OvqState, q_chunk, k_chunk, v_chunk, sims) -> np.ndarray:
    """softmax([beta q.D_k^T + log counts | causal beta q.k^T]) . [D_v; v]
    as two blocks exponentiated against one row max, the summed values
    divided by the summed row sums. ``sims`` is k_chunk . D_k^T and stands
    in for q . D_k^T when the query chunk equals the key chunk."""
    cfg = state.config
    q_sims = sims if np.array_equal(q_chunk, k_chunk) else _dictionary_sims(state, q_chunk)
    dict_logits = _dictionary_logits(cfg.beta, q_sims, state.counts[: state.n_active])
    visible = np.tri(len(q_chunk), k=1 if cfg._fault == "mask_off_by_one" else 0, dtype=bool)
    chunk_logits = np.where(visible, cfg.beta * (q_chunk @ k_chunk.T), -np.inf)
    # With an empty dictionary the in-chunk block alone sets the row max.
    row_max = np.max(chunk_logits, axis=1, keepdims=True)
    np.maximum(row_max, np.max(dict_logits, axis=1, keepdims=True, initial=-np.inf), out=row_max)
    out, total = _softmax_block(chunk_logits, row_max, v_chunk)
    dict_out, dict_total = _softmax_block(dict_logits, row_max, state.means_v[: state.n_active])
    return (out + dict_out) / (total + dict_total)


def _check_chunk_len(state: OvqState, lc: int) -> None:
    if not 1 <= lc <= state.config.chunk_len:
        raise ConfigurationError(f"chunk of {lc} tokens is outside 1..{state.config.chunk_len}")


def _validate_chunk(state: OvqState, q_chunk, k_chunk, v_chunk):
    """[L, d] arrays with 1 <= L <= chunk_len, finite, with unit-norm query
    and key rows; ``q_chunk`` is None for an absorb-only chunk."""
    lc = k_chunk.shape[0]
    _check_chunk_len(state, lc)
    for name, m in (("q", q_chunk), ("k", k_chunk), ("v", v_chunk)):
        if m is None:
            continue
        if m.shape != (lc, state.d):
            raise ConfigurationError(f"{name} chunk must be [{lc}, {state.d}], got {m.shape}")
        if name != "v":
            check_unit_rows(m, f"{name} chunk")
        elif not np.isfinite(m).all():
            raise ConfigurationError("v chunk has non-finite entries")


def absorb_chunk(state: OvqState, k_chunk, v_chunk) -> ChunkUpdateRecord:
    """State update alone (seed selection, assignment, dictionary merge),
    without computing predictions. Used when only the final memory matters."""
    dt = DTYPES[state.config.dtype]
    k_chunk = np.asarray(k_chunk, dtype=dt)
    v_chunk = np.asarray(v_chunk, dtype=dt)
    _validate_chunk(state, None, k_chunk, v_chunk)
    return _absorb(state, k_chunk, v_chunk, _dictionary_sims(state, k_chunk))


def _absorb(state: OvqState, k_chunk, v_chunk, sims) -> ChunkUpdateRecord:
    """The absorb step shared by ``absorb_chunk`` and ``ovq_forward_chunk``,
    on a chunk they have converted and validated. ``sims`` is the
    key–dictionary product ``k_chunk @ means_k[:n_active].T`` against the
    pre-update dictionary; seed selection and assignment both read it."""
    cfg = state.config
    lc = k_chunk.shape[0]
    n_new = _chunk_budget(state.tokens_seen, lc, state.chunks_seen + 1, state.n_active, cfg)
    best_sim = None
    if state.n_active > 0:
        assignments = np.argmax(sims, axis=1)
        if n_new > 0:
            # A row's max is its value at its argmax: one reduction serves both.
            best_sim = sims[np.arange(lc), assignments]
    else:
        assignments = np.zeros(lc, dtype=np.int64)
    new_pos = select_new_centroids(k_chunk, state, n_new, best_sim=best_sim)
    if len(new_pos):
        assignments[new_pos] = state.n_active + np.arange(len(new_pos))
    if state.n_active == 0:
        # Bootstrap: the freshly seeded rows are the only possible homes
        # for the rest of the first chunk.
        if not len(new_pos):
            raise InvalidStateError("empty dictionary with no centroid budget")
        others = np.setdiff1d(np.arange(lc), new_pos, assume_unique=False)
        if len(others):
            assignments[others] = np.argmax(k_chunk[others] @ k_chunk[new_pos].T, axis=1)

    # The seeds are sorted, so they take the fresh rows in their own order.
    lrs = _merge(state, k_chunk, v_chunk, assignments, new_pos)
    return ChunkUpdateRecord(
        assignments=assignments, new_centroid_positions=new_pos, learning_rates=lrs
    )


def ovq_forward_chunk(
    state: OvqState, q_chunk, k_chunk, v_chunk
) -> tuple[np.ndarray, ChunkUpdateRecord]:
    """Predict this chunk's outputs from the current state, then absorb the
    chunk. Prediction strictly precedes the update, so outputs for a chunk
    never depend on its own dictionary contribution, and outputs for a
    prefix never change when more chunks follow."""
    dt = DTYPES[state.config.dtype]
    q_chunk = np.asarray(q_chunk, dtype=dt)
    k_chunk = np.asarray(k_chunk, dtype=dt)
    v_chunk = np.asarray(v_chunk, dtype=dt)
    _validate_chunk(state, q_chunk, k_chunk, v_chunk)
    sims = _dictionary_sims(state, k_chunk)
    out = _predict_chunk(state, q_chunk, k_chunk, v_chunk, sims)
    return out, _absorb(state, k_chunk, v_chunk, sims)


def dictionary_readout(state: OvqState, queries: np.ndarray) -> np.ndarray:
    """Predict from the stored dictionary alone (no in-flight chunk):
    softmax(beta * q . D_k^T + log counts) over active rows times the value
    means. This is how probes query a finished stream."""
    if state.n_active == 0:
        raise InvalidStateError("readout from an empty dictionary")
    queries = np.atleast_2d(np.asarray(queries, dtype=DTYPES[state.config.dtype]))
    if queries.ndim != 2 or queries.shape[1] != state.d:
        raise ConfigurationError(f"queries must be [n, {state.d}], got {queries.shape}")
    check_unit_rows(queries, "queries")
    na = state.n_active
    return count_readout(
        state.config.beta, queries, state.means_k[:na], state.counts[:na], state.means_v[:na]
    )


def stream_chunks(state: OvqState, k, v, q=None) -> tuple[np.ndarray | None, list[tuple[int, int]]]:
    """Feed a stream through ``state`` in chunks of ``config.chunk_len``
    (the last chunk may be short). With queries every chunk is predicted
    and then absorbed; without, it is only absorbed.

    Returns the [T, d] outputs in the state's dtype (None without queries)
    and a trace of (tokens seen, live state scalars) at every chunk
    boundary. Each chunk writes its rows into one array allocated up front,
    so the outputs are never held twice.
    """
    if len(k) < 1 or len(v) != len(k) or (q is not None and len(q) != len(k)):
        raise ConfigurationError("stream needs one or more tokens and equally long q/k/v")
    step = state.config.chunk_len
    out = None if q is None else np.empty((len(k), state.d), dtype=DTYPES[state.config.dtype])
    trace: list[tuple[int, int]] = []
    for start in range(0, len(k), step):
        chunk = slice(start, start + step)
        if q is None:
            absorb_chunk(state, k[chunk], v[chunk])
        else:
            out[chunk] = ovq_forward_chunk(state, q[chunk], k[chunk], v[chunk])[0]
        trace.append((state.tokens_seen, state.scalars_stored()))
    return out, trace


def ovq_forward_sequence(
    config: OvqConfig, seq: HeadSequence
) -> tuple[AttentionOutput, OvqState, list[tuple[int, int]]]:
    """Stream a whole sequence chunk by chunk from a fresh state.

    Returns the [T, d] outputs, the final state, and a trace of
    (tokens seen, live state scalars) at every chunk boundary. The
    sequence's beta must be the config's, which is the one predict uses.
    """
    if seq.beta != config.beta:
        raise ConfigurationError(
            f"sequence beta {seq.beta} differs from config beta {config.beta}"
        )
    state = OvqState.fresh(with_planned_chunks(config, [seq.T]), seq.d)
    out, trace = stream_chunks(state, seq.k, seq.v, q=seq.q)
    return AttentionOutput(out), state, trace
