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
   :meth:`~repro.requests.generator.RequestGenerator.table_totals` draw
   its tables on concurrent threads: every stream is created in the
   calling thread before the fan-out, and each is then owned by exactly
   one task, so no draw depends on *which thread* draws it either.

2. **Draw order within a substream is part of the schedule.**  Code
   draws from a substream in a deterministic order fixed by the replay
   (request ids ascending, simulation-event order, ...), never from
   under an iteration whose order can vary.

   *Canonical event ordering.*  "Simulation-event order" is itself
   pinned: every DES kernel dispatches events in ``(time, sequence)``
   order, where ``sequence`` is the global scheduling counter (see the
   module docstring of :mod:`repro.simulation.engine`).  Selectable
   kernels (``ServingConfig.kernel``) may only reorder *within* a
   timestamp in ways that provably cannot move a draw or a recorded
   float: both DES kernels drive the same serving generators, and the
   batched kernel's synchronous resource grants only run pure
   computation earlier within the same instant.  Anything beyond that
   must preserve the reference order bit for bit -- regression-pinned
   across every paper configuration in
   ``tests/test_kernel_equivalence.py``.

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
   pinned alongside the batched kernel in
   ``tests/test_kernel_equivalence.py``.

   *Exact sparse Poisson.*  The same rule lets a sampler replace
   numpy's own draw loop so long as it consumes the bit stream
   identically.  :func:`poisson` is that sampler for rates in
   ``(0, _SPARSE_RATE)``: it returns ``Generator.poisson``'s array and
   leaves the stream where numpy leaves it, by filling the uniforms
   numpy's Knuth loop would read and walking only the rare draws that
   read more than one.  The two item-scoped bulk draws of
   :mod:`repro.requests.generator` -- the per-item counts of
   ``generate_batch`` and the pooling sample of ``table_totals`` -- go
   through it; USER-scoped counts and the scalar ``generate`` stay on
   ``Generator.poisson``, and the scalar path is the oracle the bulk
   path is pinned against (``tests/test_fastpath_determinism.py``),
   next to the sampler's own twin-stream pins in
   ``tests/test_rng_and_types.py``.

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

import numpy as np

_MASK64 = (1 << 64) - 1

#: Rates below this go through :func:`poisson`'s exceedance walk.  The
#: walk costs Python time per exceedance, and on an 8192-draw chunk it
#: breaks even with numpy near 0.013 (2-vCPU Xeon, numpy 2.4: 0.12 vs
#: 0.15 ms at 0.01, 0.18 vs 0.14 ms at 0.02), so rates at or above this
#: stay on numpy.  Every item-scoped rate in DRM1-3 is <= 0.0061.
_SPARSE_RATE = 0.01

#: Uniforms per :func:`poisson` refill: bounds its scratch at 256 KiB.
#: Fewer, larger refills mean fewer GIL hand-offs when ``table_totals``
#: draws tables on threads: DRM1's 1000-request pooling sample took
#: 0.32 / 0.20 / 0.30 s at 8192 / 32768 / 65536 (medians of 21 runs,
#: 2 threads, 2-vCPU Xeon).
_UNIFORM_BUFFER = 32768


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


def poisson(rng: np.random.Generator, lam: float, size: int) -> np.ndarray:
    """``rng.poisson(lam, size=size)``, bit for bit, faster at tiny ``lam``.

    Returns the same int64 array and leaves ``rng.bit_generator.state``
    exactly where numpy leaves it.  For ``0 < lam < 10`` numpy draws by
    Knuth's multiplication method: multiply ``next_double()`` uniforms
    until the product is ``<= exp(-lam)``; the count of factors before
    that is the draw.  ``Generator.random`` fills from the same
    ``next_double()``, so a draw is 0 and consumes exactly one uniform
    iff its first uniform is ``<= exp(-lam)`` -- over 99% of draws at
    sparse-feature rates.  This fills uniforms in bulk, finds the rare
    exceedances with one vectorized compare, and walks only those in
    Python.  Each refill asks for at most one uniform per draw still
    owed, so it never reads past where numpy would stop; a draw that
    runs off the end of a buffer finishes on scalar ``rng.random()``.

    Outside ``0 < lam < _SPARSE_RATE`` (zero, numpy's PTRS regime at
    ``lam >= 10``, negative or NaN rates) this is ``rng.poisson``
    itself, errors included.
    """
    if not 0.0 < lam < _SPARSE_RATE:
        return rng.poisson(lam, size=size)
    limit = math.exp(-lam)
    out = np.zeros(size, dtype=np.int64)
    pos = 0  # next draw to fill
    while pos < size:
        uniforms = rng.random(min(size - pos, _UNIFORM_BUFFER))
        n = len(uniforms)
        start = 0  # buffer index of the next draw's first uniform
        for i in np.flatnonzero(uniforms > limit).tolist():
            if i < start:
                continue  # already consumed as a later factor of a draw
            pos += i - start  # the zero draws in between
            product = float(uniforms[i])
            count = 0
            i += 1
            while product > limit:
                count += 1
                product *= float(uniforms[i]) if i < n else rng.random()
                i += 1
            out[pos] = count
            pos += 1
            start = i
        pos += max(n - start, 0)
    return out
