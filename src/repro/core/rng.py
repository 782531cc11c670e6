"""Deterministic, independently-seeded random streams.

Every stochastic component of the library (request synthesis, network
jitter, shard-to-server mapping, ...) draws from its own named substream so
that experiments are reproducible and components can be re-seeded without
perturbing one another.  Substreams are derived by hashing the root seed
together with a tuple of string/int keys.

Determinism contract
====================

The library guarantees byte-identical results for identical inputs --
across runs, across serial/parallel sweeps, and across kernels.  Three
rules make that hold:

1. **Every random draw comes from a named substream.**  A component
   never shares a generator with another component; it derives its own
   via ``substream(root_seed, *keys)``, where the key path names the
   component and its position, e.g.::

       substream(seed, "requests", model.name, table, comp)  # synthesis
       substream(seed, "fabric")                             # net jitter
       substream(seed, "clock-skew", *cluster_key)           # skew
       substream(seed, "chaos", "network", *cluster_key)     # spikes
       substream(seed, "chaos", "clock-skew", *cluster_key)  # replicas
       substream(seed, "chaos", "correlated", *cluster_key)  # stagger
       substream(seed, "resilience", *cluster_key)           # backoff

   Key paths are namespaced feature-first (``"chaos"``, ``"resilience"``)
   then by draw site, then by the cluster identity (``*cluster_key``),
   so every path is spelled at exactly one call site -- the whole-repo
   DET006 registry rejects two sites sharing one fully-constant path.

   Because the seed is a pure function of ``(root_seed, keys)`` -- a
   SHA-256 digest, never Python's salted ``hash()`` -- the stream is
   stable across platforms, Python versions, and process boundaries.
   That is what lets a parallel sweep fork one process per
   configuration and still match the serial sweep byte for byte: no
   draw depends on *which process* or *in which order* a configuration
   runs.  Per-table substreams are also what let
   :meth:`~repro.requests.generator.RequestGenerator.generate_batch` and
   :meth:`~repro.requests.generator.RequestGenerator.table_totals` draw
   their tables on concurrent threads: every stream is created in the
   calling thread before the fan-out, and each is then owned by exactly
   one task, so no draw depends on *which thread* draws it either.

2. **Draw order within a substream is part of the schedule.**  Code
   draws from a substream in a deterministic order fixed by the replay
   (request ids ascending, simulation-event order, ...), never from
   under an iteration whose order can vary.

   *Canonical event ordering.*  "Simulation-event order" is itself
   pinned: the one DES (:class:`repro.simulation.engine.Engine`)
   dispatches events in ``(time, sequence)`` order, where ``sequence``
   is the global scheduling counter, and a free-unit resource grant
   continues the acquiring process inline, at the acquire's own
   position (see the module docstring of
   :mod:`repro.simulation.engine`; ``tests/test_engine.py`` pins the
   rules).  Every other replay path must preserve that order bit for
   bit.

   *Vectorized equivalence.*  The ``vectorized`` kernel is the extreme
   case: it replays every chaos-free request that arrives at an idle
   cluster with no event loop at all, so the canonical order has to be
   *reconstructed* rather than followed.  That is legal under this rule
   because for such a request every draw position is a pure function of
   the precomputed plans: no other request is in flight, its shard
   RPCs complete in a global time order the
   evaluator reproduces with an explicit heap, fabric jitter is drawn
   from its substream in bulk (a ``normal(size=N)`` draw consumes the
   bit stream exactly like ``N`` scalar draws) and dealt out in that
   same completion order, and every accumulator is reduced with the
   same left-associated sequential adds the chained yields perform --
   cumulative per-shard adds, never ``np.sum``, whose pairwise-tree
   reduction reassociates floats.  Same bits, same order, no loop;
   pinned against the batched kernel in
   ``tests/test_kernel_equivalence.py``.

   *Exact sparse Poisson.*  The same rule lets a sampler replace
   numpy's own draw loop so long as it consumes the bit stream
   identically.  One walk, :func:`_knuth_walk`, does that for rates in
   ``(0, _SPARSE_RATE)``: it reads the raw 64-bit outputs numpy's Knuth
   loop would turn into uniforms, classifies them against an exact
   integer threshold, and yields only the nonzero draws, leaving the
   stream where numpy leaves it.  It has two consumers, and neither
   builds ``Generator.poisson``'s dense array:
   :func:`poisson_nonzero` hands on its ``(index, count)`` pairs, from
   which ``generate_batch`` builds each ITEM-scoped draw's item index
   per id, and :func:`poisson_total` sums them for the pooling sample
   of ``table_totals``.  USER-scoped counts and the scalar ``generate``
   stay on ``Generator.poisson``, and the scalar path is the oracle the
   bulk path is pinned against
   (``tests/test_fastpath_determinism.py``), next to the sampler's own
   twin-stream pins in ``tests/test_rng_and_types.py``.

3. **Optional features get their own substreams so that switching them
   off restores the exact base stream.**  The chaos layer
   (:mod:`repro.chaos`) is the sharpest case: fault times are explicit
   simulation times (no draws), and the only chaos randomness --
   network-spike jitter, clock skew for healed/replica servers,
   correlated-crash stagger -- comes from dedicated
   ``substream(seed, "chaos", ...)`` streams.  Running with
   ``chaos=None`` or with an *empty* :class:`FaultSchedule` therefore
   consumes zero draws from every pre-existing substream, and the
   replay is byte-identical to one without the chaos layer at all
   (regression-tested).  Had chaos shared, say, the fabric jitter
   stream, merely enabling the feature would shift every subsequent
   draw and perturb the healthy baseline it is meant to be compared
   against.

   The resilience layer (:mod:`repro.resilience`) follows the same
   clause: the only policy randomness -- backoff jitter stretching each
   retry delay -- draws from the dedicated
   ``substream(seed, "resilience", *cluster_key)`` stream, in
   simulation-event order (rule 2).  A ``resilience=None`` config or an
   *empty* :class:`~repro.resilience.ResiliencePolicy` installs no
   runtime and consumes zero draws, so the no-policy replay is
   byte-identical to one predating the layer (regression-tested in
   ``tests/test_resilience.py``), and hedged/retried replays stay
   byte-identical across serial and parallel sweeps because the stream
   is a pure function of ``(seed, cluster identity)``.

Static enforcement (``repro lint``)
-----------------------------------

The three rules above are enforced *statically* by :mod:`repro.lint`:
``python -m repro lint src`` (run by CI and by the self-lint test in
``tests/test_lint.py``) rejects the known ways of breaking them before
a sweep can silently diverge:

========  rule 1: every draw from a named substream
DET001    stdlib ``random`` / ``np.random`` global-state functions
DET002    unseeded ``np.random.default_rng()`` or bit generators
          constructed outside :func:`substream`
DET005    builtin salted ``hash()`` where a seed or key could flow
          (:func:`derive_seed` is the sanctioned derivation)
DET006    two call sites spelling the same fully-constant key path
          (they would share one stream; whole-repo registry)
========  rule 2: draw order is part of the schedule
DET004    draws or :func:`substream` derivation inside iteration over
          sets, un-``sorted`` dict views, or directory listings
========  rule 3: nothing outside the seed may leak in
DET003    wall-clock reads (``time.time``, ``perf_counter``,
          ``datetime.now``) in replayed code
DET007    ``os.environ`` reads inside ``repro.simulation`` /
          ``repro.serving`` / ``repro.chaos``
========  ===========================================================

Exceptions are auditable, never silent: a path-scoped allowlist entry
(:data:`repro.lint.config.DEFAULT_ALLOWLIST`) or an inline
``# detlint: disable=DETnnn -- <reason>`` comment whose reason clause
is mandatory.  See ``repro lint --help``.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1

#: Rates below this go through :func:`_knuth_walk`.  The walk costs
#: Python time per exceedance, and on 8192 draws it breaks even with
#: numpy near 0.01 (2-vCPU Xeon, numpy 2.4, medians of 400: 0.10 vs
#: 0.14 ms at 0.005, 0.15 vs 0.14 ms at 0.01, 0.18 vs 0.15 ms at
#: 0.0125), so rates at or above this stay on numpy.  Every
#: item-scoped rate in DRM1-3 is <= 0.0061.
_SPARSE_RATE = 0.01

#: Raw outputs per :func:`_knuth_walk` refill: bounds its scratch at
#: 256 KiB.  Fewer, larger refills mean fewer GIL hand-offs when tables
#: are drawn on threads: DRM1's 1000-request pooling sample took
#: 0.22 / 0.18 / 0.17 s at 8192 / 32768 / 65536 (medians of 21 runs,
#: 2 threads, 2-vCPU Xeon), so doubling past this buys little.
_UNIFORM_BUFFER = 32768

#: ``next_double()`` scale: a uniform is ``(raw >> 11) * _DOUBLE_UNIT``.
_DOUBLE_UNIT = 2.0**-53


def derive_seed(root_seed: int, *keys: object) -> int:
    """Derive a stable 64-bit seed from ``root_seed`` and a key path.

    The same ``(root_seed, *keys)`` always maps to the same seed on every
    platform and Python version (no reliance on ``hash()``).
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(root_seed)).encode("utf-8"))
    for key in keys:
        hasher.update(b"\x1f")
        hasher.update(repr(key).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "little") & _MASK64


def substream(root_seed: int, *keys: object) -> np.random.Generator:
    """Return a ``numpy`` generator for the named substream."""
    return np.random.default_rng(derive_seed(root_seed, *keys))


def _knuth_walk(
    rng: np.random.Generator, lam: float, size: int
) -> Iterator[tuple[int, int]]:
    """``(index, count)`` of every nonzero draw of ``rng.poisson(lam, size)``.

    For ``0 < lam < 10`` numpy draws by Knuth's multiplication method:
    multiply ``next_double()`` uniforms until the product is
    ``<= exp(-lam)``; the count of factors before that is the draw.  A
    draw is 0 and consumes exactly one uniform iff its first uniform is
    ``<= exp(-lam)`` -- over 99% of draws at sparse-feature rates.  The
    walk fills raw 64-bit outputs in bulk, finds the rare exceedances
    with one integer compare and walks only those in Python, on the
    same double products numpy forms.  ``next_double()`` is
    ``(raw >> 11) * 2**-53``, so a uniform exceeds ``exp(-lam)`` iff
    ``raw >= (floor(exp(-lam) * 2**53) + 1) << 11``: both sides of the
    float compare are exact multiples of ``2**-53``.  Each refill asks
    for at most one output per draw still owed, so it never reads past
    where numpy would stop; a draw that runs off the end of a buffer
    finishes on scalar raw reads.
    """
    limit = math.exp(-lam)
    cut = math.floor(limit * 2.0**53) + 1
    # At cut == 2**53 no 53-bit mantissa exceeds the limit (and the
    # shifted threshold would overflow 64 bits).
    threshold = np.uint64(cut << 11) if cut < 2**53 else None
    fill = rng.bit_generator.random_raw
    pos = 0  # next draw
    while pos < size:
        raw = fill(min(size - pos, _UNIFORM_BUFFER))
        n = len(raw)
        start = 0  # buffer index of the next draw's first uniform
        hits = [] if threshold is None else np.flatnonzero(raw >= threshold).tolist()
        for i in hits:
            if i < start:
                continue  # already consumed as a later factor of a draw
            pos += i - start  # the zero draws in between
            product = (raw.item(i) >> 11) * _DOUBLE_UNIT
            count = 0
            i += 1
            while product > limit:
                count += 1
                bits = raw.item(i) if i < n else fill()
                product *= (bits >> 11) * _DOUBLE_UNIT
                i += 1
            yield pos, count
            pos += 1
            start = i
        pos += max(n - start, 0)


def poisson_nonzero(
    rng: np.random.Generator, lam: float, size: int
) -> Iterator[tuple[int, int]]:
    """``(index, count)`` of every nonzero draw of ``rng.poisson(lam, size=size)``.

    Yields ascending indices and, once exhausted, leaves
    ``rng.bit_generator.state`` exactly where numpy leaves it: for
    ``0 < lam < _SPARSE_RATE`` it is :func:`_knuth_walk`.  Any other
    ``lam`` (zero, numpy's PTRS regime at ``lam >= 10``, negative or NaN
    rates) draws ``rng.poisson`` itself, at the call and with numpy's
    errors, and yields its nonzero entries.
    """
    if 0.0 < lam < _SPARSE_RATE:
        return _knuth_walk(rng, lam, size)
    draw = rng.poisson(lam, size=size)
    index = np.flatnonzero(draw)
    return zip(index.tolist(), draw[index].tolist())


def poisson_total(rng: np.random.Generator, lam: float, size: int) -> int:
    """``int(rng.poisson(lam, size=size).sum())`` without the array.

    Leaves ``rng.bit_generator.state`` where that draw leaves it.  For
    ``0 < lam < _SPARSE_RATE`` it sums :func:`_knuth_walk`'s counts;
    otherwise it sums ``rng.poisson`` in draws of at most
    ``_UNIFORM_BUFFER`` (consecutive draws of ``a`` and ``b`` counts
    consume a stream exactly like one of ``a + b``), raising numpy's
    error for an invalid ``lam`` even at ``size == 0``.
    """
    if 0.0 < lam < _SPARSE_RATE:
        return sum(count for _, count in _knuth_walk(rng, lam, size))
    total, remaining = 0, size
    while True:
        chunk = min(remaining, _UNIFORM_BUFFER)
        total += int(rng.poisson(lam, size=chunk).sum())
        remaining -= chunk
        if remaining == 0:
            return total
