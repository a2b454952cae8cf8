"""Streaming online-clustered attention layer.

State is a pair of centroid matrices (key side, value side) plus integer
assignment counts. Each chunk is predicted from the state it arrives to,
then absorbed into it:

1. predict: every chunk row attends, in one softmax over two blocks, to
   the frozen dictionary (always visible, biased by log counts) and to the
   raw in-chunk keys and values under a causal mask, shifted by a static
   bound on every logit (``_logit_shift``) or, where that bound is too
   large for the dtype, by the row max;
2. absorb: the schedule decides how many chunk keys seed brand-new
   centroids (lowest similarity to the existing dictionary wins), and the
   rest are folded into their nearest centroid with a running-mean step.

Every chunk runs one step on checked rows: take absorb's one decision
(``select_new_centroids``: the budget, the assignments and the seeds);
with queries, predict turns the key-dictionary product (or the query
product, when the queries differ from the keys) into dictionary weights
in place; the merge runs last, so predict sees the old dictionary.
Every entry checks rows by one rule (``_checked_rows``): the chunk entries
judge each chunk as a one-chunk stream of at most ``chunk_len`` tokens;
``stream_chunks`` its whole stream once, before the first chunk.

The decision is the float64 key product's row argmax and the stable order
of its row maxima. When predict does not reuse that product, a float64
state above a measured size first screens the keys in float32 against a
float32 [d, n_max] copy of its key rows, the mirror (n_max d 4 bytes,
built on first use, kept in step by the merge, never stored in
snapshots), and keeps the screen's answer only where rounding bounds
prove it the float64 product's: every float32 runner-up more than
2 (e32 + e64) behind its best, and on a seeding chunk the seeding and the
next best similarity, one float64 dot per key, more than 4 e64 apart
(``_dot_error_bound``). Every other chunk runs the float64 product, so
decisions are bitwise the product's either way.

Dictionary capacity follows a plateauing schedule, floor(t * N / (t + N))
components after t tokens, so growth is fast early and asymptotes to the
hard cap N. Counts are kept as integers; their sum always equals the
number of tokens absorbed.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, InvalidStateError
from .reference import (
    KEY_ROW_NORM_MAX,
    UNIT_NORM_ATOL,
    _QUERY_TILE,
    AttentionOutput,
    HeadSequence,
    check_beta,
    check_head_rows,
    check_unit_rows,
    checked_int,
)

ABLATIONS = ("none", "random_assign", "linear_growth", "constant_lr")
FAULTS = ("none", "count_skip", "mask_off_by_one", "growth_over_alloc")
DTYPES = {"float64": np.float64, "float32": np.float32}
_ROW_TYPES = tuple(DTYPES.values())  # row dtypes judged as given
# Seeds must fit the snapshot header's signed 64-bit field.
SEED_MAX = 2**63 - 1
# OvqConfig's integer fields and the ranges the snapshot header holds.
_INT_FIELDS = (
    ("n_max", 1, 2**32 - 1),
    ("chunk_len", 1, 2**32 - 1),
    ("seed", 0, SEED_MAX),
    ("planned_chunks", 1, SEED_MAX),
)
# The head width d, which the header stores as u32.
D_RANGE = (1, 2**32 - 1)


@dataclass(frozen=True)
class OvqConfig:
    """Layer configuration.

    ``beta`` defaults to 8.0, chosen so exp(beta * cos) spans roughly three
    orders of magnitude over the [0.5, 1.0] similarity band; it is a
    tunable, not a calibrated constant. ``planned_chunks`` is only needed
    by the linear_growth ablation, which spreads the centroid budget evenly
    and therefore must know the expected chunk count up front. ``seed`` is
    read only by the random_assign ablation. Each integer field must be an
    integer within the snapshot header field that stores it (``_INT_FIELDS``).
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
        for name, low, high in _INT_FIELDS:
            value = getattr(self, name)
            if value is not None or name != "planned_chunks":
                object.__setattr__(self, name, checked_int(name, value, low, high))
        if self.ablation not in ABLATIONS:
            raise ConfigurationError(f"unknown ablation {self.ablation!r}")
        if self.ablation == "constant_lr" and not (0.0 < self.constant_lr_rate <= 1.0):
            raise ConfigurationError(
                f"constant learning rate must be in (0, 1], got {self.constant_lr_rate}"
            )
        if self.dtype not in DTYPES:
            raise ConfigurationError(f"dtype must be one of {sorted(DTYPES)}")
        check_beta(self.beta, DTYPES[self.dtype])
        if self._fault not in FAULTS:
            raise ConfigurationError(f"unknown fault {self._fault!r}")


def require_physical_memory(need: int, what: str) -> None:
    """Refuse, before anything is allocated, ``need`` bytes that exceed the
    machine's physical memory; ``what`` names the inputs that ask for them."""
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > ram:
        raise ConfigurationError(
            f"{what} take {need} bytes, more than the {ram} bytes of physical memory"
        )


@dataclass
class _KeyMirror:
    """A float64 state's key rows as float32 columns, [d, n_max], for the
    key screen (``_screened_argmax``). ``rows`` and ``counters`` are the
    state's key array and (n_active, tokens_seen, chunks_seen) when the
    first n_active columns last matched its rows."""

    cols: np.ndarray
    rows: np.ndarray | None = None
    counters: tuple = ()

    def in_step(self, state: "OvqState") -> bool:
        return self.rows is state.means_k and self.counters == _counters(state)


@dataclass
class OvqState:
    """Mutable per-head streaming state. Single writer: chunks must be fed
    in sequence order by one owner. Rows at index >= n_active are zeros.

    A float64 state may also hold a private float32 copy of its key rows,
    the mirror (``_key_mirror``): built on first use by the key screen,
    updated by ``_merge``, rebuilt when the counters or the key array are
    not those it last matched, and never stored in snapshots. Code that
    writes rows other than through ``_merge`` must change ``n_active``, a
    counter or the array itself, or the mirror is stale."""

    config: OvqConfig
    d: int
    means_k: np.ndarray   # [n_max, d]
    means_v: np.ndarray   # [n_max, d]
    counts: np.ndarray    # [n_max] int64
    n_active: int = 0
    tokens_seen: int = 0
    chunks_seen: int = 0
    _mirror: _KeyMirror | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def fresh(cls, config: OvqConfig, d: int) -> "OvqState":
        """An empty state; the head width ``d`` must be an integer in
        ``D_RANGE``, the range the snapshot header holds. The memory rule
        counts the rows and, for float64, the float32 key mirror the state
        may build."""
        d = checked_int("d", d, *D_RANGE)
        dt = DTYPES[config.dtype]
        need = 2 * config.n_max * d * np.dtype(dt).itemsize
        what = f"the {config.dtype} rows"
        if dt == np.float64:
            need += config.n_max * d * np.dtype(np.float32).itemsize
            what += " and float32 key mirror"
        require_physical_memory(need, f"{what} for n_max {config.n_max} and d {d}")
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
    """Dictionary capacity after t tokens: floor(t * n_max / (t + n_max)),
    in exact integers; nondecreasing in t and always below n_max."""
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
    """Active components the schedule plans after ``total_tokens`` tokens in
    chunks of ``config.chunk_len``, in closed form (``_fault`` is not planned):
    the steps telescope to ``growth_count``, plus the bootstrap seed if the
    first step is 0. Under linear_growth, C chunks take ``per`` rows for q
    chunks, then r, then 0, each clamped to its tokens (``last`` in chunk C)."""
    t, step, n_max = total_tokens, config.chunk_len, config.n_max
    if t < 0:
        raise ConfigurationError("total_tokens must be >= 0")
    if config.ablation != "linear_growth":
        return growth_count(t, n_max) + (t > 0 and growth_count(min(step, t), n_max) == 0)
    per = int(round(n_max / with_planned_chunks(config, [t]).planned_chunks))
    if not per or not t:
        return int(t > 0)  # only the bootstrap seed
    c, last, (q, r) = -(-t // step), (t - 1) % step + 1, divmod(n_max, per)
    final = min(min(per * c, n_max) - min(per * (c - 1), n_max), last)
    return min(per, step) * min(c - 1, q) + (c - 1 > q) * min(r, step) + final


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


# The key screen runs where the float64 key product has at least
# SCREEN_MIN_ROW entries per key (n_active d) and SCREEN_MIN_PRODUCT in all
# (L n_active d). Its float32 product costs about half the float64 one, but
# it adds a conversion, an argmax, a masked row max and L column writes to
# the mirror in each merge, which cost more than that half on small
# products. Measured per absorb-only chunk with one BLAS thread (2-core
# x86-64, OpenBLAS 0.3.31; screen time over today's, full dictionary): at
# n d = 2^14 it took 1.05-1.25x for L >= 8 and about 1.5x for L = 1; at
# 2^15, 0.70-1.12x; at 2^16, 0.65-0.99x for L >= 4, but 1.08-1.93x for
# L = 1 and 0.39-1.23x for L = 2; at 2^17, 0.47-0.88x for L >= 2 and
# 0.95-1.08x for L = 1; at 2^18, 0.27-0.77x for every L from 1 to 128.
SCREEN_MIN_ROW = 2**16
SCREEN_MIN_PRODUCT = 2**18


def _dot_error_bound(d: int, dtype) -> float:
    """A bound on |fl(k . m) - k . m| for a d-entry dot product taken in
    ``dtype`` after rounding both rows to it, where k is a checked key
    (norm at most 1 + UNIT_NORM_ATOL) and m a key row (norm at most
    KEY_ROW_NORM_MAX): gamma_{d+2} = (d+2)u / (1 - (d+2)u) times both norms,
    with u the unit roundoff; two of the d + 2 roundings are the
    conversions, d the products and sums in any order, fused or not
    (Higham 2002, section 3.1, and Cauchy-Schwarz on sum |k_i m_i|). Plus
    8 d times the smallest subnormal for what underflow adds in the
    conversions and the products. inf where (d + 2)u >= 1/2. The norm
    limits are those the checks apply; the factor 1 + 2^-20 covers the
    rounding of the checks' own norms, relative (d + 2) 2^-53 at most for
    any d in D_RANGE."""
    info = np.finfo(dtype)
    nu = (d + 2) * float(info.eps) / 2
    if nu >= 0.5:
        return math.inf
    norms = (1.0 + UNIT_NORM_ATOL) * KEY_ROW_NORM_MAX * (1.0 + 2.0**-20)
    return nu / (1.0 - nu) * norms + 8 * d * float(info.smallest_subnormal)


@functools.lru_cache(maxsize=64)
def _screen_margins(d: int) -> tuple[float, float]:
    """The key screen's two margins at head width d: 2 (e32 + e64) for a
    float32 argmax, 4 e64 between the seeding and the next best similarity."""
    e64 = _dot_error_bound(d, np.float64)
    return 2 * (_dot_error_bound(d, np.float32) + e64), 4 * e64


def _counters(state: OvqState) -> tuple:
    return state.n_active, state.tokens_seen, state.chunks_seen


def _key_mirror(state: OvqState) -> np.ndarray:
    """The float64 state's float32 [d, n_max] key columns, the first
    n_active of which match its rows: allocated on first use (the n_max d
    float32 ``OvqState.fresh`` counts) and refilled when not in step."""
    mirror = state._mirror
    if mirror is None:
        mirror = state._mirror = _KeyMirror(np.zeros((state.d, state.config.n_max), np.float32))
    if not mirror.in_step(state):
        n = state.n_active
        mirror.cols[:, :n] = state.means_k[:n].T
        mirror.rows, mirror.counters = state.means_k, _counters(state)
    return mirror.cols


def _screened_argmax(state: OvqState, k_chunk, ranked: int):
    """The float64 key product's row argmax, found from the float32 mirror,
    or None where that is not provably the float64 answer or the screen
    does not run (not float64, or a product below ``SCREEN_MIN_ROW`` or
    ``SCREEN_MIN_PRODUCT``). With e32 and e64 the ``_dot_error_bound``s,
    every float32 and float64 similarity is within e of the exact one, so
    a key whose float32 runner-up trails its best by more than
    2 (e32 + e64) has that best as its unique float64 argmax. Where the
    chunk seeds its ``ranked`` least-covered keys, the best similarities are
    taken again, one float64 dot per key, and the ranked-th and next
    smallest must differ by more than 4 e64: each dot is within 2 e64 of
    the product's entry, so both pick the same keys. Returns (assignments,
    best similarities or None when ``ranked`` is 0)."""
    n, d = state.n_active, state.d
    row = n * d
    if state.means_k.dtype != np.float64 or row < SCREEN_MIN_ROW:
        return None
    if len(k_chunk) * row < SCREEN_MIN_PRODUCT:
        return None
    sims = k_chunk.astype(np.float32) @ _key_mirror(state)[:, :n]
    rows = np.arange(len(k_chunk))
    assignments = np.argmax(sims, axis=1)
    best = sims[rows, assignments].astype(np.float64)
    sims[rows, assignments] = -np.inf  # the masked row max is the runner-up
    argmax_margin, rank_margin = _screen_margins(d)
    if not (best - sims.max(axis=1) > argmax_margin).all():
        return None
    if not ranked:
        return assignments, None
    best = np.einsum("ij,ij->i", k_chunk, state.means_k[assignments])
    if ranked < len(best):
        low = np.partition(best, (ranked - 1, ranked))
        if not low[ranked] - low[ranked - 1] > rank_margin:
            return None
    return assignments, best


def select_new_centroids(state: OvqState, k_chunk, sims) -> tuple[np.ndarray, np.ndarray]:
    """Absorb's decision for a checked chunk, leaving the state's rows and
    counts alone: the [L] assignments and the sorted seeding positions,
    which take the fresh rows in their own order. ``sims`` is
    ``k_chunk @ means_k[:n_active].T``, or None for this call to find what
    it needs.

    The chunk seeds ``_chunk_budget`` centroids; every other key goes to
    its nearest centroid. The keys whose best dot product against the
    dictionary is smallest seed (ties to the lower position), so new
    centroids spread away from what is covered. An empty dictionary
    bootstraps greedily: position 0 seeds, then the position least similar
    to every seed so far, until the budget is filled; the other keys go to
    their most similar seed. The random_assign ablation seeds a uniform
    sample drawn from the config seed and the chunk's index, so a reloaded
    snapshot draws what an uninterrupted stream would have drawn.

    Without ``sims``, a float64 state first screens the keys in float32
    against its key mirror (``_screened_argmax``: the product's row argmax
    and seeds only where rounding bounds prove them the float64 product's)
    and computes the float64 product only where the screen does not run
    or cannot decide, so every decision is the product's, bitwise. The
    mirror costs n_max d float32 bytes, allocated on the first screened
    chunk."""
    cfg = state.config
    lc = k_chunk.shape[0]
    n_new = _chunk_budget(state.tokens_seen, lc, state.chunks_seen + 1, state.n_active, cfg)
    # Seeds ranked by best similarity need those similarities.
    ranked = n_new if state.n_active and cfg.ablation != "random_assign" else 0
    screened = None if sims is not None else _screened_argmax(state, k_chunk, ranked)
    if screened is not None:
        assignments, best = screened
    elif state.n_active:
        if sims is None:
            sims = _dictionary_sims(state, k_chunk)
        assignments = np.argmax(sims, axis=1)
        # A row's max is its value at its argmax: one gather serves both.
        best = sims[np.arange(lc), assignments] if ranked else None
    else:
        assignments = np.zeros(lc, dtype=np.int64)
    if n_new == 0:
        return assignments, np.empty(0, dtype=np.int64)

    if cfg.ablation == "random_assign":
        rng = np.random.default_rng([cfg.seed, state.chunks_seen + 1])
        seeds = np.sort(rng.choice(lc, size=n_new, replace=False)).astype(np.int64)
    elif state.n_active == 0:
        selected = [0]
        if n_new > 1:
            best = k_chunk @ k_chunk[0]
            best[0] = np.inf
            for _ in range(n_new - 1):
                pick = int(np.argmin(best))
                selected.append(pick)
                best = np.maximum(best, k_chunk @ k_chunk[pick])
                best[pick] = np.inf
        seeds = np.array(sorted(selected), dtype=np.int64)
    else:
        seeds = np.sort(np.argsort(best, kind="stable")[:n_new]).astype(np.int64)
    assignments[seeds] = state.n_active + np.arange(n_new)
    if state.n_active == 0:
        others = np.ones(lc, dtype=bool)
        others[seeds] = False
        assignments[others] = np.argmax(k_chunk[others] @ k_chunk[seeds].T, axis=1)
    return assignments, seeds


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
    everything the centroid has absorbed. All deltas land through one
    unbuffered add, so each row receives its deltas one at a time in chunk
    order. The constant_lr ablation takes lr = rate / m for a centroid that
    m of the chunk's tokens merge into, so the row moves that fixed fraction
    of the way to their mean (mini-batch k-means with a constant step); with
    m = 1 that is the rate itself. Rows the chunk never touches are left
    bitwise unchanged.

    This is the checked entry point for callers that choose their own
    assignments and seeds: it rejects, before any state change, the chunks
    ``absorb_chunk`` rejects, assignments that are not one per chunk row,
    growth past n_max, repeated or out-of-chunk seed positions, assignments
    that are not integers or fall outside the grown dictionary, and seeds
    that do not point at the fresh rows. The chunk entries build valid
    assignments and skip these checks.
    """
    _, k_chunk, v_chunk, _ = _checked_rows(state, None, k_chunk, v_chunk)
    lc = len(k_chunk)
    assignments = np.asarray(assignments)
    if assignments.shape != (lc,):
        raise ConfigurationError(f"update needs {lc} assignments, got shape {assignments.shape}")
    if not np.issubdtype(assignments.dtype, np.integer):
        raise ConfigurationError(f"assignments must be integers, got {assignments.dtype}")
    positions = np.asarray(new_centroid_positions)
    n_new = len(positions)
    grown = state.n_active + n_new

    if grown > state.config.n_max:
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

    k_chunk, v_chunk = (np.asarray(m, dtype=DTYPES[state.config.dtype]) for m in (k_chunk, v_chunk))
    # Range-checked, so int64 holds them; a narrower flat index would wrap.
    lrs = _merge(state, k_chunk, v_chunk, assignments.astype(np.int64, copy=False), positions)
    seeds = np.asarray(new_centroid_positions, dtype=np.int64)
    return ChunkUpdateRecord(assignments.copy(), seeds, lrs)


def _merge(state: OvqState, k_chunk, v_chunk, assignments, seeds) -> np.ndarray:
    """The dictionary update behind every chunk entry, for inputs valid by
    construction: ``seeds`` lists the seeding chunk positions in the order of
    the fresh rows they take. Deltas land by one ``np.add.at`` on each row
    array's flat view (see ``update_dictionary``). A key mirror in step with
    the rows gets the touched rows as columns and stays in step. Advances
    the token and chunk counters and returns the [L] learning rates, 1.0
    for seeding tokens."""
    for name in ("means_k", "means_v"):
        if not getattr(state, name).flags.c_contiguous:
            raise InvalidStateError(f"{name} must be C-contiguous for the merge's flat view")
    mirror = state._mirror
    if mirror is not None and not mirror.in_step(state):
        mirror = None  # rebuilt on its next use
    cfg = state.config
    lc = len(assignments)
    state.tokens_seen += lc
    state.chunks_seen += 1
    n_new = len(seeds)
    # Without seeds every token merges, and the full slice copies nothing.
    merging = np.ones(lc, dtype=bool) if n_new else slice(None)
    if n_new:
        fresh = slice(state.n_active, state.n_active + n_new)
        state.means_k[fresh] = k_chunk[seeds]
        state.means_v[fresh] = v_chunk[seeds]
        state.counts[fresh] = 1
        state.n_active += n_new
        merging[seeds] = False
    targets, k_chunk, v_chunk = assignments[merging], k_chunk[merging], v_chunk[merging]
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
    # numpy's fast path for add.at takes 1-D indices and values.
    flat = (targets[:, None] * state.d + np.arange(state.d)).ravel()
    for means, x in ((state.means_k, k_chunk), (state.means_v, v_chunk)):
        delta = x - means[targets]
        delta *= lr_col
        np.add.at(means.reshape(-1), flat, delta.ravel())
    if mirror is not None:
        mirror.cols[:, assignments] = state.means_k[assignments].T
        mirror.counters = _counters(state)
    if not n_new:
        return rates
    lrs = np.ones(lc)
    lrs[merging] = rates
    return lrs


def _dictionary_sims(state: OvqState, x: np.ndarray) -> np.ndarray:
    """x . D_k^T against the active dictionary rows."""
    return x @ state.means_k[: state.n_active].T


def _logit_shift(beta: float, counts, dtype) -> float | None:
    """A static shift s for a count-biased softmax in ``dtype``, or None.

    Query rows have norm at most 1 + UNIT_NORM_ATOL and key rows (dictionary
    and in-chunk) at most KEY_ROW_NORM_MAX, so no logit beta * q.k + log
    count exceeds s = beta (1 + UNIT_NORM_ATOL) KEY_ROW_NORM_MAX + log(max
    count), and every row holds one at or above -s: its in-chunk diagonal,
    or a row of count >= 1. Shifted by s, no weight exceeds 1 and each row
    keeps one of at least exp(-2s). When 2s - ln(eps) < -ln(tiny), every
    weight within eps of that one is a normal number, so the row max adds
    nothing. Otherwise (beta near the float max, or float32 with s past
    about 35.7) this returns None and callers shift by the row max."""
    s = beta * (1.0 + UNIT_NORM_ATOL) * KEY_ROW_NORM_MAX + math.log(int(counts.max(initial=1)))
    info = np.finfo(dtype)
    return s if 2 * s - math.log(info.eps) < -math.log(info.tiny) else None


def _count_bias(counts, shift, dtype) -> np.ndarray:
    """log counts - shift as an [n] row in ``dtype``, added to beta * q . D_k^T
    to make the dictionary logits; a row with count 0 gets -inf, so it never
    receives weight. The static ``shift`` (None for none) is folded in here."""
    with np.errstate(divide="ignore"):
        bias = np.log(counts.astype(np.float64))
    if shift is not None:
        bias -= shift
    return bias.astype(dtype, copy=False)


def _subtract_row_max(*blocks) -> None:
    """Shift the column blocks of one row softmax by their shared row max,
    in place: the fallback when ``_logit_shift`` gives no static shift."""
    row_max = np.max([b.max(axis=1, initial=-np.inf) for b in blocks], axis=0)[:, None]
    # A difference that overflows is -inf, and exp gives 0, its true weight.
    with np.errstate(over="ignore"):
        for b in blocks:
            b -= row_max


def _softmax_block(logits: np.ndarray, values, visible=None) -> tuple[np.ndarray, np.ndarray]:
    """Exponentiate one shifted column block of a row softmax in place, and
    return its weighted values and its weight row sums. The shift, static
    or the row max, is the caller's, and every block of a row takes the
    same one. A 0/1 ``visible`` block multiplies the weights after the exp."""
    np.exp(logits, out=logits)
    if visible is not None:
        logits *= visible
    return logits @ values, logits.sum(axis=1, keepdims=True)


def count_readout(beta: float, queries, means_k, counts, means_v) -> np.ndarray:
    """softmax(beta * q . D_k^T + log counts) . D_v over the rows whose
    count is nonzero: the mixture readout of a count-weighted dictionary.
    Shifted like predict: by ``_logit_shift``'s bound, which takes unit
    queries and key rows within KEY_ROW_NORM_MAX, else by the row max.
    The [queries, d] outputs are scored in tiles of B = _QUERY_TILE query
    rows that share one logit buffer, so at most B n logits are held; a
    call of at most B queries is one tile."""
    dtype = np.result_type(queries, means_k)
    shift = _logit_shift(beta, counts, dtype)
    bias = _count_bias(counts, shift, dtype)
    out = np.empty((len(queries), means_v.shape[1]), dtype=np.result_type(dtype, means_v))
    buffer = np.empty((min(len(queries), _QUERY_TILE), len(means_k)), dtype=dtype)
    for start in range(0, len(queries), _QUERY_TILE):
        tile = slice(start, start + _QUERY_TILE)
        q = queries[tile]
        logits = np.matmul(q, means_k.T, out=buffer[: len(q)])
        logits *= beta
        logits += bias
        if shift is None:
            _subtract_row_max(logits)
        weighted, total = _softmax_block(logits, means_v)
        np.divide(weighted, total, out=out[tile])
    return out


def _predict_chunk(state: OvqState, q_chunk, k_chunk, v_chunk, sims) -> np.ndarray:
    """softmax([beta q.D_k^T + log counts | causal beta q.k^T]) . [D_v; v]
    as two blocks exponentiated after one shift, the summed values divided
    by the summed row sums. The static shift of ``_logit_shift`` is folded
    into the [n] log counts and subtracted from the [L, L] in-chunk block,
    so the [L, n] block takes one multiply, one add and one exp, and the
    in-chunk block is masked after its exp; without one, hidden in-chunk
    logits are -inf and both blocks take their shared row max. ``sims`` is
    q_chunk . D_k^T, and this overwrites it with the dictionary weights."""
    cfg = state.config
    counts = state.counts[: state.n_active]
    shift = _logit_shift(cfg.beta, counts, sims.dtype)
    dict_logits = np.multiply(sims, cfg.beta, out=sims)
    dict_logits += _count_bias(counts, shift, sims.dtype)
    chunk_logits = q_chunk @ k_chunk.T
    chunk_logits *= cfg.beta
    # Row i sees column j <= i (j <= i + 1 under the fault). Past the static
    # shift every logit is <= 0, so a hidden column's exp is finite and its
    # weight, zeroed after the exp, is the 0 exp(-inf) would give.
    visible = np.tri(len(q_chunk), k=int(cfg._fault == "mask_off_by_one"), dtype=chunk_logits.dtype)
    if shift is None:
        chunk_logits[visible == 0] = -np.inf  # kept out of the row max
        _subtract_row_max(chunk_logits, dict_logits)
    else:
        chunk_logits -= shift
    out, total = _softmax_block(chunk_logits, v_chunk, visible)
    dict_out, dict_total = _softmax_block(dict_logits, state.means_v[: state.n_active])
    return (out + dict_out) / (total + dict_total)


def _float_rows(m, dt) -> np.ndarray:
    """``m`` as an array to judge: float32 and float64 as given, any other
    dtype converted to the state dtype ``dt``."""
    m = np.asarray(m)
    return m if m.dtype.type in _ROW_TYPES else m.astype(dt)


def _checked_rows(state: OvqState, q, k, v, stream: bool = False) -> tuple:
    """The one row rule of every entry that takes a head's rows, for a
    stream or a chunk, whose errors name "k stream", "k chunk" and so on:
    q (None for none), k and v are [T, d] arrays of equally many rows, T at
    least 1 and for a chunk at most chunk_len, judged by ``check_head_rows``,
    with v within the state dtype's range. Returns q, k and v as arrays
    (``_float_rows``) and whether q equals k. float32 and float64 rows are
    judged as given, with float64 norms, and keep their dtype, so a float64
    state holds exactly the rows judged, and a stream is converted chunk by
    chunk (``_chunk_step``) and never held converted."""
    dt, what = DTYPES[state.config.dtype], " stream" if stream else " chunk"
    arrays = []
    for name, m in zip("qkv", (q, k, v)):
        if m is not None:
            m = _float_rows(m, dt)
            if m.ndim != 2 or m.shape[1] != state.d:
                raise ConfigurationError(
                    f"{name}{what} must be [T, {state.d}], got a {m.ndim}-d {m.shape} array"
                )
        arrays.append(m)
    q, k, v = arrays
    t, most = len(k), len(k) if stream else state.config.chunk_len
    if not 1 <= t <= most or len(v) != t or (q is not None and len(q) != t):
        limit = "one or more" if stream else f"1 to {most}"
        raise ConfigurationError(f"{what[1:]} needs {limit} tokens and equally long q/k/v")
    q_is_k = check_head_rows(q, k, v, what)
    if dt is np.float32 and v.dtype.type is np.float64:
        with np.errstate(over="ignore"):
            if not np.isfinite(np.array([v.min(), v.max()], dtype=dt)).all():
                row = int(np.argmin(np.isfinite(v.astype(dt)).all(axis=1)))
                raise ConfigurationError(
                    f"v{what} has entries outside the {dt.__name__} range in row {row}"
                )
    return q, k, v, q_is_k


def _chunk_step(state: OvqState, q_chunk, k_chunk, v_chunk, q_is_k: bool):
    """The one chunk step behind every chunk entry, for [L, d] rows already
    checked (``q_chunk`` None for absorb alone, and ``q_is_k`` whether q
    equals k): convert the rows to the state dtype, decide
    (``select_new_centroids``, handed the key–dictionary product when
    predict reuses it, that is when q is k), predict when there are
    queries, then merge. Returns the [L, d] outputs (None without queries)
    and the chunk's record."""
    dt = DTYPES[state.config.dtype]
    # q is converted on its own even when it equals k: given k's own
    # buffer, predict's q.k^T takes numpy's a.a^T path, whose last bits
    # differ from the general product's.
    q_chunk, k_chunk, v_chunk = [
        None if m is None else np.asarray(m, dtype=dt) for m in (q_chunk, k_chunk, v_chunk)
    ]
    sims = _dictionary_sims(state, k_chunk) if q_is_k else None
    assignments, seeds = select_new_centroids(state, k_chunk, sims)
    out = None
    if q_chunk is not None:
        if not q_is_k:
            sims = _dictionary_sims(state, q_chunk)
        out = _predict_chunk(state, q_chunk, k_chunk, v_chunk, sims)
    del sims  # spent: the merge runs without the chunk's largest array
    lrs = _merge(state, k_chunk, v_chunk, assignments, seeds)
    return out, ChunkUpdateRecord(assignments, seeds, lrs)


def absorb_chunk(state: OvqState, k_chunk, v_chunk) -> ChunkUpdateRecord:
    """State update alone (seed selection, assignment, dictionary merge),
    without computing predictions: the chunk step of ``ovq_forward_chunk``
    with no queries, after the chunk is checked as a one-chunk stream of at
    most ``chunk_len`` tokens. Used when only the final memory matters."""
    return _chunk_step(state, *_checked_rows(state, None, k_chunk, v_chunk))[1]


def ovq_forward_chunk(
    state: OvqState, q_chunk, k_chunk, v_chunk
) -> tuple[np.ndarray, ChunkUpdateRecord]:
    """Predict this chunk's outputs from the current state, then absorb the
    chunk. Prediction strictly precedes the update, so outputs for a chunk
    never depend on its own dictionary contribution, and outputs for a
    prefix never change when more chunks follow.

    This is ``absorb_chunk``'s step with queries, after the same check. It
    holds one [L, n_active] array: predict overwrites the key–dictionary
    product once absorb's decisions are read from it, or the query product
    that replaces it."""
    return _chunk_step(state, *_checked_rows(state, q_chunk, k_chunk, v_chunk))


def dictionary_readout(state: OvqState, queries: np.ndarray) -> np.ndarray:
    """Predict from the stored dictionary alone (no in-flight chunk):
    softmax(beta * q . D_k^T + log counts) over active rows times the value
    means. This is how probes query a finished stream. The probes are
    judged as ``stream_chunks`` judges queries: as given when float32 or
    float64, else converted to the state dtype first."""
    if state.n_active == 0:
        raise InvalidStateError("readout from an empty dictionary")
    dt = DTYPES[state.config.dtype]
    queries = np.atleast_2d(_float_rows(queries, dt))
    if queries.ndim != 2 or queries.shape[1] != state.d:
        raise ConfigurationError(f"queries must be [n, {state.d}], got {queries.shape}")
    check_unit_rows(queries, "queries")
    queries = queries.astype(dt, copy=False)
    na = state.n_active
    return count_readout(
        state.config.beta, queries, state.means_k[:na], state.counts[:na], state.means_v[:na]
    )


def stream_chunks(state: OvqState, k, v, q=None) -> np.ndarray | None:
    """Feed a stream through ``state`` in chunks of ``config.chunk_len``
    (the last chunk may be short). With queries every chunk is predicted
    and then absorbed; without, it is only absorbed.

    Returns the [T, d] outputs in the state's dtype, None without queries.
    The stream is checked once, by the one row rule (``_checked_rows``),
    before its first chunk, so a refused stream leaves ``state`` unchanged;
    its chunks then run the chunk step unchecked. Each chunk writes its rows
    into one array allocated up front, so the outputs are never held
    twice. What the stream did to the dictionary is read from ``state``.
    """
    q, k, v, q_is_k = _checked_rows(state, q, k, v, stream=True)
    step = state.config.chunk_len
    out = None if q is None else np.empty((len(k), state.d), dtype=DTYPES[state.config.dtype])
    for start in range(0, len(k), step):
        chunk = slice(start, start + step)
        rows = [None if m is None else m[chunk] for m in (q, k, v)]
        chunk_out = _chunk_step(state, *rows, q_is_k)[0]
        if out is not None:
            out[chunk] = chunk_out
    return out


def ovq_forward_sequence(config: OvqConfig, seq: HeadSequence) -> tuple[AttentionOutput, OvqState]:
    """Stream a whole sequence chunk by chunk from a fresh state.

    Returns the [T, d] outputs and the final state. The sequence's beta
    must be the config's, which is the one predict uses.
    """
    if seq.beta != config.beta:
        raise ConfigurationError(
            f"sequence beta {seq.beta} differs from config beta {config.beta}"
        )
    state = OvqState.fresh(with_planned_chunks(config, [seq.T]), seq.d)
    return AttentionOutput(stream_chunks(state, seq.k, seq.v, q=seq.q)), state
