"""Snooping on disaggregated memory with the Grain-IV offset effect
(Section VI-B, Figure 13).

Setup: a 1 KB shared file in the memory server; the victim repeatedly
reads one 64 B record from the *Candidate Set* (17 offsets, 0–1024 B);
the attacker measures ULI while reading each address of the
*Observation Set* (257 offsets, 0–1024 B at 4 B steps) N times.  The
victim's in-flight requests occupy the translation unit's bank and line
for its record, so the attacker's ULI is elevated exactly where the
observation offset collides with the victim's — the average ULIs form a
trace whose bump position encodes the secret address.

Two capture paths:

* :func:`capture_trace_sim` — the full discrete-event pipeline with a
  real Sherman victim (used for Figure 13(a) demo traces and to
  validate the fast path);
* :class:`TraceSynthesizer` — drives the *same* ``TranslationUnit``
  model directly, without the rest of the pipeline: each trace's
  interleaved victim, ambient and attacker requests are admitted as one
  closed-loop chain (:meth:`TranslationUnit.admit_chain`).  Used to
  build the 6720-trace classifier dataset.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import multiprocessing
from typing import Optional

import numpy as np

from repro.apps.sherman import ShermanClient, ShermanMemoryServer
from repro.covert.lockstep import PipelinedReader
from repro.host.cluster import Cluster
from repro.rnic.spec import RNICSpec, cx5
from repro.rnic.translation import TranslationUnit
from repro.telemetry.uli import ProbeTarget

#: Candidate Set: 17 offsets, 0 B to 1024 B (the victim's secret).
CANDIDATE_OFFSETS = tuple(range(0, 1025, 64))
#: Observation Set: 257 samples, 0 B to 1024 B.
OBSERVATION_OFFSETS = tuple(range(0, 1025, 4))

assert len(CANDIDATE_OFFSETS) == 17
assert len(OBSERVATION_OFFSETS) == 257


@dataclasses.dataclass(frozen=True)
class SnoopConfig:
    """Attack parameters (Section VI-B's setup)."""

    read_size: int = 64            # both parties use 64 B RDMA Reads
    probes_per_point: int = 5      # N measurements per observation offset
    file_size: int = 1024          # the shared file
    #: Fraction of probe slots in which the victim's request is actually
    #: in flight (its access loop has think time); < 1 blurs the traces
    #: the way a real victim does.  Calibrated with ambient_rate so the
    #: ResNet lands near the paper's 95.6 % (see EXPERIMENTS.md).
    victim_duty: float = 0.4
    #: Probability of an unrelated tenant's request interleaving.
    ambient_rate: float = 0.25
    #: Spacing of the observation set in bytes.  The paper samples every
    #: 4 B (257 points over 0-1024 B); coarser sets trade attack time
    #: for trace resolution (see ``bench_ablation_observation_density``).
    observation_step: int = 4

    def __post_init__(self) -> None:
        if self.probes_per_point <= 0:
            raise ValueError("need at least one probe per point")
        if not 0.0 < self.victim_duty <= 1.0:
            raise ValueError("victim duty must be in (0, 1]")
        if not 0.0 <= self.ambient_rate < 1.0:
            raise ValueError("ambient rate must be in [0, 1)")
        if self.observation_step <= 0 or 1024 % self.observation_step:
            raise ValueError("observation step must divide 1024")

    @property
    def observation_offsets(self) -> tuple[int, ...]:
        return tuple(range(0, 1025, self.observation_step))


class TraceSynthesizer:
    """Fast trace generation at the translation-unit level.

    Lays out each trace's victim, ambient and attacker requests as one
    closed-loop chain and admits it into a fresh
    :class:`TranslationUnit` with :meth:`~TranslationUnit.admit_chain` —
    the same stateful model the full pipeline uses, so bank conflicts,
    line locks, alignment penalties and jitter all behave identically;
    only the (trace-invariant) constant pipeline stages are omitted.
    """

    def __init__(self, spec: Optional[RNICSpec] = None,
                 config: Optional[SnoopConfig] = None,
                 seed: int = 0) -> None:
        self.spec = spec if spec is not None else cx5()
        self.config = config if config is not None else SnoopConfig()
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def trace(self, victim_offset: int, file_base: int = 0,
              rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """One 257-dimensional attacker trace for a victim reading
        ``file_base + victim_offset``.

        ``rng`` defaults to the synthesizer's own sequential stream;
        dataset builds pass per-trace streams instead (see
        :meth:`labelled_traces`) so traces are independent of generation
        order.
        """
        if victim_offset not in CANDIDATE_OFFSETS:
            raise ValueError(
                f"victim offset {victim_offset} not in the candidate set"
            )
        if rng is None:
            rng = self.rng
        cfg = self.config
        unit = TranslationUnit(
            self.spec,
            rng=np.random.default_rng(rng.integers(2**63)),
        )
        # One scalar pass over the trace stream draws, per probe and in
        # request order, whether the victim's request is in flight and
        # which line (-1: none) an ambient tenant's request reads.
        random, integers = rng.random, rng.integers
        duty, ambient_rate = cfg.victim_duty, cfg.ambient_rate
        offsets = np.repeat(np.asarray(cfg.observation_offsets),
                            cfg.probes_per_point)
        victim_draws, stray_draws = [], []
        for _ in range(len(offsets)):
            victim_draws.append(random() < duty)
            stray_draws.append(int(integers(0, 32768))
                               if random() < ambient_rate else -1)
        victim_in = np.array(victim_draws)
        strays = np.array(stray_draws)
        ambient_in = strays >= 0

        # The closed-loop chain: per probe, the victim's and the ambient
        # request (when drawn) enter back to back, then the attacker's
        # probe after its pacing gap.
        probe_at = np.cumsum(1 + victim_in + ambient_in) - 1
        victim_at = (probe_at - ambient_in - 1)[victim_in]
        ambient_at = probe_at[ambient_in] - 1
        addresses = np.empty(probe_at[-1] + 1, dtype=np.int64)
        addresses[probe_at] = file_base + offsets
        addresses[victim_at] = file_base + victim_offset
        addresses[ambient_at] = 64 * strays[ambient_in]
        keys = ["shared-file"] * len(addresses)
        for index in ambient_at.tolist():
            keys[index] = "ambient-mr"
        gaps = np.zeros(len(addresses))
        gaps[probe_at] = 50.0  # attacker pacing between its own requests
        finishes = unit.admit_chain(0.0, keys, addresses,
                                    np.full(len(addresses), cfg.read_size), gaps)
        arrivals = gaps  # request j arrives gaps[j] after j - 1 finishes
        arrivals[1:] += finishes[:-1]
        samples = finishes[probe_at] - arrivals[probe_at]
        return samples.reshape(-1, cfg.probes_per_point).mean(axis=1)

    def _trace_rng(self, label: int, repeat: int) -> np.random.Generator:
        """The stream for one (class, repeat) trace.  Keyed on the tuple
        rather than drawn from a shared sequence, so any partitioning of
        the dataset across workers reproduces the serial build exactly."""
        return np.random.default_rng(
            np.random.SeedSequence((self.seed, label, repeat))
        )

    def class_traces(self, label: int, per_class: int,
                     file_base: int = 0) -> np.ndarray:
        """All ``per_class`` traces for one candidate-set label."""
        offset = CANDIDATE_OFFSETS[label]
        return np.stack([
            self.trace(offset, file_base=file_base,
                       rng=self._trace_rng(label, repeat))
            for repeat in range(per_class)
        ])

    def labelled_traces(
        self, per_class: int, file_base: int = 0, jobs: int = 1,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``per_class`` traces for every candidate; returns (X, y) with
        X of shape (17*per_class, len(observation_offsets)).

        ``jobs > 1`` synthesizes the candidate classes on a process
        pool.  Each trace draws from its own ``(seed, label, repeat)``
        stream, so the parallel dataset is byte-identical to the serial
        one.
        """
        if per_class <= 0:
            raise ValueError("per_class must be positive")
        if jobs < 1:
            raise ValueError("jobs must be positive")
        labels = range(len(CANDIDATE_OFFSETS))
        if jobs == 1:
            per_label = [
                self.class_traces(label, per_class, file_base=file_base)
                for label in labels
            ]
        else:
            context = multiprocessing.get_context("spawn")
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(jobs, len(CANDIDATE_OFFSETS)),
                mp_context=context,
            ) as pool:
                futures = [
                    pool.submit(_synthesize_class, self.spec, self.config,
                                self.seed, label, per_class, file_base)
                    for label in labels
                ]
                per_label = [future.result() for future in futures]
        xs = np.concatenate(per_label)
        ys = np.repeat(np.arange(len(CANDIDATE_OFFSETS)), per_class)
        return xs, ys


def _synthesize_class(spec: RNICSpec, config: SnoopConfig, seed: int,
                      label: int, per_class: int, file_base: int) -> np.ndarray:
    """Pool worker: one candidate class's traces.  Module-level so the
    spawn start method can pickle it by qualified name."""
    synthesizer = TraceSynthesizer(spec=spec, config=config, seed=seed)
    return synthesizer.class_traces(label, per_class, file_base=file_base)


def capture_trace_sim(
    victim_offset: int,
    spec: Optional[RNICSpec] = None,
    config: Optional[SnoopConfig] = None,
    seed: int = 0,
) -> np.ndarray:
    """Full-pipeline trace capture against a live Sherman deployment.

    Builds MS + victim CS + attacker CS; seeds a Sherman tree whose
    first leaf is the shared 1 KB file; the victim hammers its record
    with :meth:`ShermanClient.read_entry_at`-equivalent 64 B reads via a
    pipelined reader while the attacker sweeps the observation set.
    """
    if victim_offset not in CANDIDATE_OFFSETS:
        raise ValueError(f"victim offset {victim_offset} not a candidate")
    spec = spec if spec is not None else cx5()
    config = config if config is not None else SnoopConfig()
    with Cluster(seed=seed) as cluster:
        ms = cluster.add_host("ms", spec=spec)
        victim_host = cluster.add_host("victim-cs", spec=spec)
        attacker_host = cluster.add_host("attacker-cs", spec=spec)

        server = ShermanMemoryServer(ms)
        setup_conn = cluster.connect(victim_host, server.host)
        setup_client = ShermanClient(setup_conn, server, client_id=1)
        for key in range(1, 16):  # fill the first leaf: the "file index"
            setup_client.insert(key, b"record")
        file_node, _ = setup_client.locate_entry(1)

        victim_conn = cluster.connect(victim_host, server.host, max_send_wr=2)
        attacker_conn = cluster.connect(attacker_host, server.host, max_send_wr=2)
        rng = cluster.sim.random.stream("snoop.victim")

        victim_target = ProbeTarget(server.mr, file_node + victim_offset,
                                    config.read_size)
        victim = PipelinedReader(victim_conn, lambda: victim_target, depth=2)
        victim.start()

        offsets = config.observation_offsets
        trace = np.empty(len(offsets))
        for index, obs_offset in enumerate(offsets):
            # keep two probes in flight so the attacker's requests stay
            # interleaved with the victim's in the shared translation unit
            for _ in range(2):
                attacker_conn.post_read(server.mr, file_node + obs_offset,
                                        config.read_size)
            ulis = []
            while len(ulis) < config.probes_per_point:
                wc = attacker_conn.await_completions(1)[0]
                if not wc.ok:
                    raise RuntimeError(f"probe failed: {wc.status}")
                ulis.append(wc.unit_latency_increase)
                attacker_conn.post_read(server.mr, file_node + obs_offset,
                                        config.read_size)
            # drain the tail probes before moving to the next offset
            attacker_conn.await_completions(2)
            trace[index] = float(np.mean(ulis))
        victim.stop()
    return trace
