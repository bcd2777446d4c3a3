"""Synthetic Sequence Read Archive (SRA).

The paper downloads public SRA datasets with sra-toolkit.  Offline, we
synthesise them: an :class:`SRAArchive` deterministically generates a
genome and read set per accession, so any workload segment can
"download" its input by accession exactly as the paper's startup
scripts do — same accession, same bytes, every time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.bio.fastq import FastqRecord, simulate_reads, write_fastq
from repro.bio.seq import random_genome
from repro.errors import BioError
from repro.sim.rng import RandomStreams


@dataclass(frozen=True)
class SRADataset:
    """One materialised accession.

    Attributes:
        accession: Accession id, e.g. ``"SRR000042"``.
        genome: The underlying genome the reads were simulated from.
        reads: The simulated reads.
    """

    accession: str
    genome: str
    reads: List[FastqRecord]

    def to_fastq(self) -> str:
        """FASTQ text for the dataset (what fasterq-dump would emit)."""
        return write_fastq(self.reads)


class SRAArchive:
    """Deterministic accession-to-dataset generator with a cache.

    Args:
        seed: Master seed; two archives with the same seed serve
            byte-identical datasets per accession.
        genome_length: Genome size per accession.
        reads_per_accession: Read count per accession.
        read_length: Read length in bases.
    """

    def __init__(
        self,
        seed: int = 0,
        genome_length: int = 2000,
        reads_per_accession: int = 200,
        read_length: int = 100,
    ) -> None:
        if genome_length < read_length:
            raise BioError(
                f"genome length {genome_length} must be >= read length {read_length}"
            )
        self._streams = RandomStreams(seed)
        self._genome_length = genome_length
        self._reads_per_accession = reads_per_accession
        self._read_length = read_length
        self._cache: Dict[str, SRADataset] = {}

    def fetch(self, accession: str) -> SRADataset:
        """Materialise (or return the cached) dataset for *accession*.

        Raises:
            BioError: On an empty accession id.
        """
        if not accession:
            raise BioError("accession id must be non-empty")
        cached = self._cache.get(accession)
        if cached is not None:
            return cached
        genome_rng = self._streams.get(f"sra:genome:{accession}")
        reads_rng = self._streams.get(f"sra:reads:{accession}")
        genome = random_genome(self._genome_length, rng=genome_rng)
        reads = simulate_reads(
            genome,
            n_reads=self._reads_per_accession,
            read_length=self._read_length,
            rng=reads_rng,
            name_prefix=accession,
        )
        dataset = SRADataset(accession=accession, genome=genome, reads=reads)
        self._cache[accession] = dataset
        return dataset

    def fetch_run_list(self, project: str, n_runs: int) -> List[SRADataset]:
        """Materialise ``n_runs`` accessions under a project prefix.

        Accessions are ``{project}_{index:04d}``, mirroring how the
        paper segments its 1 GB FastQC dataset into per-file units the
        checkpoint workload tracks.
        """
        if n_runs < 1:
            raise BioError(f"a project needs at least one run, got {n_runs}")
        return [self.fetch(f"{project}_{index:04d}") for index in range(n_runs)]

    @property
    def cached_accessions(self) -> List[str]:
        """Accessions served so far, sorted."""
        return sorted(self._cache)
