"""The Translation & Protection Unit (TPU).

This is the dark box of Figure 3 whose behaviour Section IV-C reverse
engineers, and the physical origin of the *offset effect* (Key Finding
4) in our model.  The unit is shared by every inbound one-sided request
on the responder NIC, which makes it a volatile channel: while two
clients' requests are interleaved in its pipeline, each client's
latency depends on the other's addresses.

Modelled structure:

* a **single-issue pipeline** — requests serialize through the unit, so
  slow requests inflate the queueing delay of everyone behind them;
* **banks** interleaved at 64 B line granularity (``tpu_banks`` banks,
  so bank = (offset // 64) % banks repeats every
  ``banks * 64 = 2048 B`` — the paper's 2048 B periodicity);
* a single-segment **descriptor prefetch buffer** of 2 KB — switching
  segments between consecutive requests costs a refill (the *relative*
  offset effect of Figure 8);
* **alignment fix-ups** — addresses not 8 B-aligned pay a shift/merge
  penalty, 8 B- but not 64 B-aligned addresses a smaller one (the
  stable drops at 8 B and 64 B multiples in Figures 6–7);
* an **MPT context register** — consecutive requests to different MRs
  reload the MR context (the inter-MR effect of Figure 5);
* **MPT/MTT caches** — set-associative LRU; misses fetch from host ICM
  over PCIe.  These caches are what Pythia attacks; Ragnar's effects
  above survive even with 100 % cache hit rates.
"""

from __future__ import annotations

import dataclasses
import math
import zlib
from typing import Hashable, Optional, Sequence

import numpy as np

from repro.rnic.caches import SetAssocCache
from repro.rnic.spec import RNICSpec


def mr_cache_id(mr_key: Hashable) -> int:
    """Deterministic integer identity of an MR key for cache indexing.

    Integer rkeys stand for themselves (they are small sequential
    counters, so consecutive registrations stride the cache sets the
    same way regardless of the counter's absolute base); every other
    key type hashes through CRC-32, which — unlike ``hash(str)`` — is
    not salted per process.  Process-independence matters twice: replay
    audits compare trace digests across runs, and the parallel
    experiment runner must produce byte-identical output from worker
    processes.  Eviction-set construction (``repro.baselines.pythia``)
    relies on this function matching the cache keys ``admit()`` uses.
    """
    if type(mr_key) is int:
        return mr_key
    if isinstance(mr_key, str):
        return zlib.crc32(mr_key.encode("utf-8"))
    return zlib.crc32(repr(mr_key).encode("utf-8"))


@dataclasses.dataclass
class TranslationStats:
    """Aggregate counters exposed for tests and Grain-III telemetry."""

    requests: int = 0
    mr_switches: int = 0
    segment_misses: int = 0
    unaligned8: int = 0
    unaligned64: int = 0
    bank_wait_ns: float = 0.0
    busy_ns: float = 0.0


@dataclasses.dataclass(frozen=True)
class TranslationBreakdown:
    """Per-request latency decomposition (for tests/inspection)."""

    bank_wait: float
    base: float
    alignment: float
    segment: float
    wave: float
    mr_switch: float
    line_lock: float
    cache_miss: float
    jitter: float

    @property
    def service(self) -> float:
        return (
            self.base
            + self.alignment
            + self.segment
            + self.wave
            + self.mr_switch
            + self.line_lock
            + self.cache_miss
            + self.jitter
        )

    @property
    def total(self) -> float:
        return self.bank_wait + self.service


class TranslationUnit:
    """Stateful service-time model of the TPU.

    ``admit()`` runs once per inbound one-sided request — it is the
    single hottest model method in the repo — so the class is slotted,
    the frozen spec's scalars are cached as instance floats, bank
    occupancy lives in a plain Python list (scalar indexing, no NumPy
    boxing), and MR keys are normalized to ints via
    :func:`mr_cache_id` before touching the MPT/MTT caches.  That
    pins the cache set mapping: raw string keys would go through
    Python's per-process randomized ``hash()``, which would break
    byte-identical replay across worker processes (``--jobs N``).
    :meth:`admit_chain` admits a whole closed-loop request chain (the
    Figure 13 trace synthesizer's shape) with the same results.
    """

    __slots__ = (
        "spec", "rng", "mpt_cache", "mtt_cache", "stats",
        "_bank_busy", "_pipe_busy", "_last_mr", "_last_seg_mr",
        "_last_seg_idx", "_last_line_mr", "_last_line_idx", "_mr_ids",
        "_nbanks", "_line_bytes", "_seg_bytes", "_base_ns",
        "_mr_switch_ns", "_seg_miss_ns", "_line_lock_ns", "_sub8_ns",
        "_sub64_ns", "_mpt_miss_ns", "_mtt_miss_ns", "_bank_hold_ns",
        "_wave_half", "_two_pi", "_jitter_sigma", "_jitter_floor",
        "_spike_prob", "_spike_ns",
    )

    def __init__(self, spec: RNICSpec, rng: Optional[np.random.Generator] = None) -> None:
        self.spec = spec
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.mpt_cache = SetAssocCache(spec.mpt_cache_entries, spec.mpt_cache_ways)
        self.mtt_cache = SetAssocCache(spec.mtt_cache_entries, spec.mtt_cache_ways)
        self._bank_busy = [0.0] * spec.tpu_banks
        self._pipe_busy = 0.0
        self._last_mr: Optional[int] = None
        self._last_seg_mr: Optional[int] = None
        self._last_seg_idx = -1
        self._last_line_mr: Optional[int] = None
        self._last_line_idx = -1
        self._mr_ids: dict[Hashable, int] = {}
        self.stats = TranslationStats()
        # Cached copies of the frozen spec's hot scalars.
        self._nbanks = spec.tpu_banks
        self._line_bytes = spec.tpu_line_bytes
        self._seg_bytes = spec.tpu_segment_bytes
        self._base_ns = spec.tpu_base_ns
        self._mr_switch_ns = spec.tpu_mr_switch_ns
        self._seg_miss_ns = spec.tpu_segment_miss_ns
        self._line_lock_ns = spec.tpu_same_line_lock_ns
        self._sub8_ns = spec.tpu_sub8_penalty_ns
        self._sub64_ns = spec.tpu_sub64_penalty_ns
        self._mpt_miss_ns = spec.mpt_miss_ns
        self._mtt_miss_ns = spec.mtt_miss_ns
        self._bank_hold_ns = spec.tpu_bank_busy_ns
        self._wave_half = spec.tpu_segment_wave_ns * 0.5
        self._two_pi = 2.0 * math.pi
        self._jitter_sigma = spec.jitter_frac * spec.tpu_base_ns
        self._jitter_floor = -0.5 * spec.tpu_base_ns
        self._spike_prob = spec.spike_prob
        self._spike_ns = spec.spike_ns

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def bank_of(self, offset: int) -> int:
        """Bank index of the 64 B line containing ``offset``."""
        return (offset // self.spec.tpu_line_bytes) % self.spec.tpu_banks

    def segment_of(self, offset: int) -> int:
        """2 KB descriptor-segment index of ``offset``."""
        return offset // self.spec.tpu_segment_bytes

    def lines_touched(self, offset: int, size: int) -> range:
        first = offset // self.spec.tpu_line_bytes
        last = (offset + max(size, 1) - 1) // self.spec.tpu_line_bytes
        return range(first, last + 1)

    # ------------------------------------------------------------------
    # Latency components
    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    # The unit itself
    # ------------------------------------------------------------------
    def admit(
        self,
        now: float,
        mr_key: Hashable,
        offset: int,
        size: int,
        want_breakdown: bool = False,
    ) -> tuple[float, Optional[TranslationBreakdown]]:
        """Process one request arriving at ``now``.

        Returns ``(finish_time, breakdown)``; ``breakdown`` is None
        unless requested.  State (pipeline, banks, history registers,
        caches) is updated.
        """
        stats = self.stats
        stats.requests += 1

        # bank availability over the touched lines
        line_bytes = self._line_bytes
        nbanks = self._nbanks
        first_line = offset // line_bytes
        if size > 1:
            last_line = (offset + size - 1) // line_bytes
        else:
            last_line = first_line
        bank_busy = self._bank_busy
        if first_line == last_line:
            banks = None
            first_bank = first_line % nbanks
            bank_ready = bank_busy[first_bank]
        else:
            banks = [line % nbanks
                     for line in range(first_line, last_line + 1)]
            first_bank = banks[0]
            bank_ready = max(bank_busy[b] for b in banks)
        pipe_busy = self._pipe_busy
        issue_ready = now if now > pipe_busy else pipe_busy
        start = bank_ready if bank_ready > issue_ready else issue_ready
        bank_wait = start - issue_ready
        stats.bank_wait_ns += bank_wait

        # cache lookups (MR keys normalized to ints — see mr_cache_id)
        if type(mr_key) is int:
            mr_id = mr_key
        else:
            mr_ids = self._mr_ids
            mr_id = mr_ids.get(mr_key)
            if mr_id is None:
                mr_id = mr_ids[mr_key] = mr_cache_id(mr_key)
        cache_miss = 0.0
        if not self.mpt_cache.access(mr_id):
            cache_miss += self._mpt_miss_ns
        segment = offset // self._seg_bytes
        if not self.mtt_cache.access((mr_id, segment)):
            cache_miss += self._mtt_miss_ns

        # history-dependent components
        mr_switch = 0.0
        if self._last_mr is not None and mr_id != self._last_mr:
            mr_switch = self._mr_switch_ns
            stats.mr_switches += 1
        self._last_mr = mr_id

        segment_pen = 0.0
        if self._last_seg_mr is not None and (
                mr_id != self._last_seg_mr or segment != self._last_seg_idx):
            segment_pen = self._seg_miss_ns
            stats.segment_misses += 1
        self._last_seg_mr = mr_id
        self._last_seg_idx = segment

        line_lock = 0.0
        if mr_id == self._last_line_mr and first_line == self._last_line_idx:
            line_lock = self._line_lock_ns
        self._last_line_mr = mr_id
        self._last_line_idx = first_line

        # service components, in the fixed order the digest audits pin
        if offset % 8:
            stats.unaligned8 += 1
            alignment = self._sub8_ns
        elif offset % line_bytes:
            stats.unaligned64 += 1
            alignment = self._sub64_ns
        else:
            alignment = 0.0

        pos = (offset % self._seg_bytes) / self._seg_bytes
        wave = self._wave_half * (1.0 - math.cos(self._two_pi * pos))

        rng = self.rng
        jitter = float(rng.normal(0.0, self._jitter_sigma))
        if rng.random() < self._spike_prob:
            jitter += float(rng.exponential(self._spike_ns))
        if jitter < self._jitter_floor:
            jitter = self._jitter_floor

        service = (self._base_ns + alignment + segment_pen + wave
                   + mr_switch + line_lock + cache_miss + jitter)
        finish = start + service
        stats.busy_ns += service

        # the pipeline frees up before the banks do: bank occupancy
        # (descriptor writeback) extends past issue
        self._pipe_busy = finish
        busy_until = finish + self._bank_hold_ns
        if banks is None:
            if bank_busy[first_bank] < busy_until:
                bank_busy[first_bank] = busy_until
        else:
            for bank in banks:
                if bank_busy[bank] < busy_until:
                    bank_busy[bank] = busy_until

        if want_breakdown:
            return finish, TranslationBreakdown(
                bank_wait=bank_wait,
                base=self._base_ns,
                alignment=alignment,
                segment=segment_pen,
                wave=wave,
                mr_switch=mr_switch,
                line_lock=line_lock,
                cache_miss=cache_miss,
                jitter=jitter,
            )
        return finish, None

    def admit_chain(
        self,
        now: float,
        mr_keys: Sequence[Hashable],
        offsets: Sequence[int],
        sizes: Sequence[int],
        gaps: Sequence[float],
    ) -> np.ndarray:
        """Admit a closed-loop chain of requests; returns the finish times.

        Request ``j`` arrives ``gaps[j]`` ns after request ``j - 1``
        finishes (request 0 arrives ``gaps[0]`` ns after ``now``).  The
        unit ends in exactly the state — stats, caches, history
        registers, bank and pipeline occupancy, ``rng`` — that ``n``
        :meth:`admit` calls at those arrival times leave, and each
        finish time is the same float.  The timing-free service terms
        are computed over the whole chain; only the jitter draws (in
        admit order) and the pipeline/bank recurrence run per request.
        """
        n = len(offsets)
        if not len(mr_keys) == len(sizes) == len(gaps) == n:
            raise ValueError("chain columns must have equal lengths")
        if n == 0:
            return np.empty(0)

        # MR keys normalized as admit() does (mr_cache_id once per
        # distinct key), then coded densely for the NumPy passes.
        memo = self._mr_ids
        ids = [key if type(key) is int
               else memo[key] if key in memo
               else memo.setdefault(key, mr_cache_id(key))
               for key in mr_keys]
        id_values, mr_code = np.unique(np.array(ids), return_inverse=True)
        distinct_ids = id_values.tolist()

        offset = np.asarray(offsets, dtype=np.int64)
        size = np.asarray(sizes, dtype=np.int64)
        line_bytes, seg_bytes, nbanks = (self._line_bytes, self._seg_bytes,
                                         self._nbanks)
        first_line = offset // line_bytes
        spans = np.where(size > 1, (offset + size - 1) // line_bytes,
                         first_line) - first_line
        segment = offset // seg_bytes

        # cache misses: replay every access that can change a set
        cache_miss = np.zeros(n)
        self._replay(self.mpt_cache, distinct_ids, mr_code, cache_miss,
                     self._mpt_miss_ns)
        seg_values, seg_code = np.unique(segment, return_inverse=True)
        distinct_segs = seg_values.tolist()
        nsegs = len(distinct_segs)
        pairs, pair_code = np.unique(mr_code * nsegs + seg_code,
                                     return_inverse=True)
        self._replay(self.mtt_cache,
                     [(distinct_ids[pair // nsegs], distinct_segs[pair % nsegs])
                      for pair in pairs.tolist()],
                     pair_code, cache_miss, self._mtt_miss_ns)

        # history registers: request j sees request j - 1's values, and
        # request 0 the values the unit holds now
        def changed(values: np.ndarray) -> np.ndarray:
            out = np.zeros(n, dtype=bool)
            np.not_equal(values[1:], values[:-1], out=out[1:])
            return out

        first_id = ids[0]
        mr_changed = changed(mr_code)
        switched = mr_changed.copy()
        switched[0] = self._last_mr is not None and first_id != self._last_mr
        seg_missed = mr_changed | changed(segment)
        seg_missed[0] = self._last_seg_mr is not None and (
            first_id != self._last_seg_mr
            or int(segment[0]) != self._last_seg_idx)
        locked = ~(mr_changed | changed(first_line))
        locked[0] = (first_id == self._last_line_mr
                     and int(first_line[0]) == self._last_line_idx)
        sub8 = (offset % 8) != 0
        sub64 = ~sub8 & ((offset % line_bytes) != 0)
        alignment = np.where(sub8, self._sub8_ns,
                             np.where(sub64, self._sub64_ns, 0.0))

        # the wave through a math.cos table over the distinct in-segment
        # positions, so every value is admit()'s scalar expression
        # (np.cos may round differently)
        positions, position_of = np.unique(offset % seg_bytes,
                                           return_inverse=True)
        wave_half, two_pi = self._wave_half, self._two_pi
        wave = np.array([
            wave_half * (1.0 - math.cos(two_pi * (pos / seg_bytes)))
            for pos in positions.tolist()])[position_of]

        # every service term but jitter, summed in admit()'s order
        fixed = (self._base_ns + alignment
                 + np.where(seg_missed, self._seg_miss_ns, 0.0) + wave
                 + np.where(switched, self._mr_switch_ns, 0.0)
                 + np.where(locked, self._line_lock_ns, 0.0) + cache_miss)

        # the banks past the first that a line-crossing request holds
        # (nbanks - 1 of them cover every bank, so spans are capped)
        first_bank = first_line % nbanks
        spans = np.minimum(spans, nbanks - 1)
        max_span = int(spans.max())
        more_banks = np.empty((nbanks, max_span + 1), dtype=object)
        for bank in range(nbanks):
            for span in range(max_span + 1):
                more_banks[bank, span] = tuple(
                    (bank + k) % nbanks for k in range(1, span + 1))

        # jitter and the pipeline/bank recurrence, in plain floats.
        # Generator.normal(0.0, sigma) is 0.0 + sigma * standard_normal()
        # on the same stream; the latter skips normal()'s argument
        # broadcasting, a third of each draw's cost.
        standard_normal, random, exponential = (
            self.rng.standard_normal, self.rng.random, self.rng.exponential)
        sigma, spike_prob, spike_ns = (self._jitter_sigma, self._spike_prob,
                                       self._spike_ns)
        floor, hold = self._jitter_floor, self._bank_hold_ns
        bank_busy = self._bank_busy
        pipe_busy = self._pipe_busy
        stats = self.stats
        bank_wait_ns, busy_ns = stats.bank_wait_ns, stats.busy_ns
        finishes = []
        finish = now
        for bank, more, gap, service in zip(
                first_bank.tolist(), more_banks[first_bank, spans].tolist(),
                np.asarray(gaps, dtype=np.float64).tolist(), fixed.tolist()):
            jitter = 0.0 + sigma * standard_normal()
            if random() < spike_prob:
                jitter += exponential(spike_ns)
            if jitter < floor:
                jitter = floor
            service += jitter
            arrival = finish + gap
            issue_ready = arrival if arrival > pipe_busy else pipe_busy
            bank_ready = bank_busy[bank]
            for other in more:
                if bank_busy[other] > bank_ready:
                    bank_ready = bank_busy[other]
            start = bank_ready if bank_ready > issue_ready else issue_ready
            bank_wait_ns += start - issue_ready
            finish = start + service
            busy_ns += service
            busy_until = finish + hold
            if bank_busy[bank] < busy_until:
                bank_busy[bank] = busy_until
            for other in more:
                if bank_busy[other] < busy_until:
                    bank_busy[other] = busy_until
            pipe_busy = finish
            finishes.append(finish)

        self._pipe_busy = pipe_busy
        self._last_mr = self._last_seg_mr = self._last_line_mr = ids[-1]
        self._last_seg_idx = int(segment[-1])
        self._last_line_idx = int(first_line[-1])
        stats.requests += n
        stats.mr_switches += int(switched.sum())
        stats.segment_misses += int(seg_missed.sum())
        stats.unaligned8 += int(sub8.sum())
        stats.unaligned64 += int(sub64.sum())
        stats.bank_wait_ns, stats.busy_ns = bank_wait_ns, busy_ns
        return np.asarray(finishes)

    @staticmethod
    def _replay(cache: SetAssocCache, keys: list, codes: np.ndarray,
                cache_miss: np.ndarray, miss_ns: float) -> None:
        """Run a chain's accesses (``keys[codes[j]]``) through ``cache``,
        adding ``miss_ns`` to ``cache_miss`` per miss.  An access whose
        set was last touched by the same key is an MRU re-hit that
        changes nothing but the hit counter, so only the others go
        through :meth:`SetAssocCache.access`."""
        # set indices in the narrowest dtype, where the stable sort
        # below is a radix sort
        sets = np.array([cache.set_index(key) for key in keys],
                        dtype=np.min_scalar_type(cache.sets))[codes]
        order = np.argsort(sets, kind="stable")
        sorted_sets, sorted_codes = sets[order], codes[order]
        rehit = np.zeros(len(codes), dtype=bool)
        rehit[order[1:]] = ((sorted_sets[1:] == sorted_sets[:-1])
                            & (sorted_codes[1:] == sorted_codes[:-1]))
        replay = np.flatnonzero(~rehit)
        access = cache.access
        for j, code in zip(replay.tolist(), codes[replay].tolist()):
            if not access(keys[code]):
                cache_miss[j] += miss_ns
        cache.hits += len(codes) - len(replay)

    def reset_history(self) -> None:
        """Clear history registers and bank occupancy (not the caches)."""
        self._bank_busy = [0.0] * self._nbanks
        self._pipe_busy = 0.0
        self._last_mr = None
        self._last_seg_mr = None
        self._last_seg_idx = -1
        self._last_line_mr = None
        self._last_line_idx = -1
