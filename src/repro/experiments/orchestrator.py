"""Multiprocess sweep orchestrator: the paper's parameter grids across cores.

Every figure of the paper is a parameter sweep — (scheme × range size) at a
fixed network size for Figures 5/6, (scheme × network size) at a fixed range
size for Figures 7/8, PIRA at both for the section 4.3.2 bounds — and each
of those drivers is a :class:`SweepSpec` preset run through
:func:`run_sweep`, plus a projection of the records it returns.  This
module shards such a grid into **independent jobs** and runs them
in-process or on a :class:`concurrent.futures.ProcessPoolExecutor`:

* **Job independence.**  Each job rebuilds its own overlay, publishes its
  own values and runs its own query batch; nothing is shared between
  workers, so there is no cross-process simulator state to synchronise.
* **Deterministic per-job seeds.**  A job's seed is derived with
  :func:`repro.sim.rng.derive_seed` from the sweep seed and the job's
  coordinates ``(scheme, network_size, range_size, replica)``, so any job
  can be re-run in isolation and yields the same row regardless of which
  worker executed it, in which order, or whether it ran in-process.
* **Byte-identical merges.**  Jobs are expanded in a canonical order and
  results are collected with order-preserving ``Executor.map``; records are
  serialised canonically (:func:`repro.analysis.store.canonical_line`), so
  a parallel sweep writes **the same bytes** as a serial one —
  ``tests/unit/test_orchestrator.py`` pins this down.
* **Streaming persistence.**  Finished rows stream into a
  :class:`repro.analysis.store.ResultStore` (JSONL) which the analysis
  layer reads back to regenerate tables, CSV series and charts without
  re-simulating anything.

Example
-------
Run a small grid over two schemes on four workers and print the table::

    from repro.experiments.common import ExperimentConfig
    from repro.experiments.orchestrator import SweepSpec, run_sweep

    spec = SweepSpec.from_config(ExperimentConfig.quick(), schemes=("armada", "dcf-can"))
    outcome = run_sweep(spec, workers=4)
    print(outcome.format())
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.store import ResultStore
from repro.analysis.tables import format_records
from repro.experiments.common import ExperimentConfig, build_and_load, make_values, run_scheme_queries
from repro.rangequery.armada_scheme import ArmadaScheme
from repro.rangequery.base import AttributeSpace, RangeQueryScheme
from repro.rangequery.dcf_can import DcfCanScheme
from repro.rangequery.pht import PhtScheme
from repro.rangequery.scrap import ScrapScheme
from repro.rangequery.skipgraph_scheme import SkipGraphScheme
from repro.rangequery.squid import SquidScheme
from repro.sim.rng import derive_seed


def _make_armada(space: AttributeSpace, config: ExperimentConfig) -> RangeQueryScheme:
    return ArmadaScheme(space=space, object_id_length=config.object_id_length)


def _make_dcf_can(space: AttributeSpace, config: ExperimentConfig) -> RangeQueryScheme:
    return DcfCanScheme(space=space)


def _make_pht(space: AttributeSpace, config: ExperimentConfig) -> RangeQueryScheme:
    return PhtScheme(space=space)


def _make_squid(space: AttributeSpace, config: ExperimentConfig) -> RangeQueryScheme:
    return SquidScheme(space=space)


def _make_scrap(space: AttributeSpace, config: ExperimentConfig) -> RangeQueryScheme:
    return ScrapScheme(space=space)


def _make_skipgraph(space: AttributeSpace, config: ExperimentConfig) -> RangeQueryScheme:
    return SkipGraphScheme(space=space)


#: CLI-friendly scheme name -> factory.  Factories are module-level (not
#: lambdas) so jobs stay picklable under every multiprocessing start method.
SCHEME_FACTORIES: Dict[str, Callable[[AttributeSpace, ExperimentConfig], RangeQueryScheme]] = {
    "armada": _make_armada,
    "dcf-can": _make_dcf_can,
    "pht": _make_pht,
    "squid": _make_squid,
    "scrap": _make_scrap,
    "skipgraph": _make_skipgraph,
}

#: schemes swept when the caller does not choose any
DEFAULT_SCHEMES: Tuple[str, ...] = ("armada", "dcf-can")


@dataclass(frozen=True)
class SweepJob:
    """One independent experiment point of a sweep grid.

    ``seed`` is the fully derived per-job seed: two jobs with the same
    coordinates always carry the same seed, and jobs with different
    coordinates carry independent ones.
    """

    scheme: str
    network_size: int
    range_size: float
    replica: int
    seed: int
    config: ExperimentConfig

    def key(self) -> Tuple[str, int, float, int]:
        """Canonical sort/identity key of the job inside its sweep."""
        return (self.scheme, self.network_size, self.range_size, self.replica)


@dataclass(frozen=True)
class SweepSpec:
    """The full description of a sweep grid.

    The grid is the cross product ``schemes × network_sizes × range_sizes ×
    replicas``; each point becomes one :class:`SweepJob`.  ``replicas`` re-runs
    every point with an independent seed, which is how confidence intervals
    are obtained without changing the grid.
    """

    config: ExperimentConfig
    schemes: Tuple[str, ...] = DEFAULT_SCHEMES
    network_sizes: Tuple[int, ...] = ()
    range_sizes: Tuple[float, ...] = ()
    replicas: int = 1

    def __post_init__(self) -> None:
        unknown = [name for name in self.schemes if name not in SCHEME_FACTORIES]
        if unknown:
            raise ValueError(
                f"unknown scheme(s) {unknown!r}; available: {sorted(SCHEME_FACTORIES)}"
            )
        if not self.schemes:
            raise ValueError("a sweep needs at least one scheme")
        if not self.network_sizes or not self.range_sizes:
            raise ValueError(
                "a sweep needs at least one network size and one range size; "
                "use SweepSpec.from_config() for the config-derived defaults"
            )
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        # the grid's axes obey the config's own rules
        self.config.with_overrides(network_sizes=self.network_sizes, range_sizes=self.range_sizes)

    @classmethod
    def from_config(
        cls,
        config: ExperimentConfig,
        schemes: Sequence[str] = DEFAULT_SCHEMES,
        network_sizes: Optional[Sequence[int]] = None,
        range_sizes: Optional[Sequence[float]] = None,
        replicas: int = 1,
    ) -> "SweepSpec":
        """A spec defaulting to the config's fixed network size and range sizes.

        Without overrides this reproduces the Figure 5/6 axis (range sizes at
        the config's ``peers``); pass ``network_sizes`` to add the Figure 7/8
        axis, producing the full cross product.
        """
        return cls(
            config=config,
            schemes=tuple(schemes),
            network_sizes=tuple(network_sizes) if network_sizes is not None else (config.peers,),
            range_sizes=(
                tuple(float(size) for size in range_sizes)
                if range_sizes is not None
                else tuple(float(size) for size in config.range_sizes)
            ),
            replicas=replicas,
        )

    def jobs(self) -> List[SweepJob]:
        """Expand the grid into jobs, in canonical (sorted-key) order."""
        result: List[SweepJob] = []
        for scheme in self.schemes:
            for raw_network_size in self.network_sizes:
                for raw_range_size in self.range_sizes:
                    for replica in range(self.replicas):
                        # Normalise the coordinates *before* deriving the
                        # seed, so equal canonical coordinates always carry
                        # equal seeds no matter how the spec was built
                        # (e.g. range size given as 10 vs 10.0).
                        network_size = int(raw_network_size)
                        range_size = float(raw_range_size)
                        seed = derive_seed(
                            self.config.seed, "sweep", scheme, network_size, range_size, replica
                        )
                        result.append(
                            SweepJob(
                                scheme=scheme,
                                network_size=network_size,
                                range_size=range_size,
                                replica=replica,
                                seed=seed,
                                config=self.config,
                            )
                        )
        result.sort(key=SweepJob.key)
        return result


def run_job(job: SweepJob) -> Dict[str, Any]:
    """Run one sweep job to completion and return its flat record.

    This is the unit of work shipped to pool workers, so it is a
    module-level function (picklable) and entirely self-contained: it
    builds the overlay, publishes the values and runs the query batch from
    nothing but the job description.  Records are JSON-compatible scalars
    only, ready for :class:`~repro.analysis.store.ResultStore`.
    """
    config = job.config.with_overrides(peers=job.network_size, seed=job.seed)
    factory = SCHEME_FACTORIES[job.scheme]
    space = config.space
    values = make_values(config)
    scheme = build_and_load(lambda: factory(space, config), config, job.network_size, values)
    row = run_scheme_queries(scheme, config, job.range_size, x_value=job.range_size).as_dict()
    record: Dict[str, Any] = {
        "sweep_scheme": job.scheme,
        "network_size": job.network_size,
        "range_size": job.range_size,
        "replica": job.replica,
        "job_seed": job.seed,
    }
    row.pop("x", None)  # the explicit axes above replace the ambiguous x
    record.update(row)
    return record


@dataclass
class SweepOutcome:
    """All records of one sweep run, in canonical job order."""

    spec: SweepSpec
    records: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def jobs(self) -> int:
        """Number of completed experiment points."""
        return len(self.records)

    def lines(self) -> List[str]:
        """Canonical JSONL lines (what a :class:`ResultStore` persists)."""
        from repro.analysis.store import canonical_line

        return [canonical_line(record) for record in self.records]

    def format(self) -> str:
        """Aligned table of every record, for the terminal."""
        columns = [
            "sweep_scheme",
            "network_size",
            "range_size",
            "replica",
            "avg_delay",
            "avg_messages",
            "avg_destinations",
            "mesg_ratio",
            "incre_ratio",
            "queries",
        ]
        title = (
            f"Sweep: {len(self.records)} points "
            f"({' × '.join(self.spec.schemes)}; seed {self.spec.config.seed})"
        )
        return format_records(self.records, columns=columns, title=title)


def run_jobs(
    jobs: Sequence[Any],
    runner: Callable[[Any], Dict[str, Any]],
    workers: int = 1,
    store: Optional[ResultStore] = None,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> List[Dict[str, Any]]:
    """Run independent experiment jobs, serially or on a process pool.

    This is the shared fan-out engine behind every grid experiment
    (:func:`run_sweep`, the faults sweep in
    :mod:`repro.experiments.faults`, …).  ``workers <= 1`` runs the jobs
    in-process, in the given order — the serial reference path.
    ``workers > 1`` fans the same jobs out to a
    :class:`~concurrent.futures.ProcessPoolExecutor`; ``Executor.map``
    preserves job order, so the merged records (and the bytes written to
    ``store``) are identical to the serial path's.  ``runner`` must be a
    picklable module-level function and jobs must be self-contained.

    ``progress`` (if given) is called with each record as it is merged, in
    job order; records also stream into ``store`` in that order.
    """
    merged: List[Dict[str, Any]] = []

    def _collect(records: Iterable[Dict[str, Any]]) -> None:
        for record in records:
            merged.append(record)
            if store is not None:
                store.append(record)
            if progress is not None:
                progress(record)

    if workers <= 1 or len(jobs) <= 1:
        _collect(runner(job) for job in jobs)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            _collect(pool.map(runner, jobs, chunksize=1))
    return merged


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> SweepOutcome:
    """Run every job of ``spec`` through :func:`run_jobs` (canonical order)."""
    outcome = SweepOutcome(spec=spec)
    outcome.records = run_jobs(
        spec.jobs(), run_job, workers=workers, store=store, progress=progress
    )
    return outcome
