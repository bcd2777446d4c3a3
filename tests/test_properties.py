"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio.consensus import apply_variants
from repro.bio.diversity import bray_curtis, shannon_index, simpson_index
from repro.bio.fasta import FastaRecord, parse_fasta, write_fasta
from repro.bio.fastq import FastqRecord, parse_fastq, write_fastq
from repro.bio.seq import gc_content, hamming_distance, reverse_complement
from repro.bio.trim import trim_quality
from repro.bio.vcf import Variant, parse_vcf, write_vcf
from repro.cloud.interruptions import interruption_probability
from repro.cloud.market import diurnal_factor
from repro.cloud.provider import CloudProvider
from repro.core.fleet import DynamoCheckpointBackend
from repro.sim.clock import DAY
from repro.sim.events import EventQueue

dna = st.text(alphabet="ACGT", min_size=1, max_size=200)
dna_nonempty = st.text(alphabet="ACGT", min_size=1, max_size=100)


class TestSequenceProperties:
    @given(dna)
    def test_reverse_complement_is_involution(self, sequence):
        assert reverse_complement(reverse_complement(sequence)) == sequence

    @given(dna)
    def test_reverse_complement_preserves_gc(self, sequence):
        assert gc_content(reverse_complement(sequence)) == pytest.approx(
            gc_content(sequence)
        )

    @given(dna, dna)
    def test_hamming_is_metric_on_equal_lengths(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert hamming_distance(a, a) == 0
        assert 0 <= hamming_distance(a, b) <= n

    @given(st.lists(st.tuples(st.text("abcdefgh", min_size=1, max_size=8), dna_nonempty),
                    min_size=1, max_size=10, unique_by=lambda t: t[0]))
    def test_fasta_roundtrip(self, pairs):
        records = [FastaRecord(name, "", seq) for name, seq in pairs]
        assert parse_fasta(write_fasta(records)) == records

    @given(st.lists(
        st.tuples(
            st.text("rxyz0123456789", min_size=1, max_size=10),
            dna_nonempty,
        ),
        min_size=1,
        max_size=8,
    ))
    def test_fastq_roundtrip(self, pairs):
        records = [
            FastqRecord(name, seq, tuple([30] * len(seq))) for name, seq in pairs
        ]
        assert parse_fastq(write_fastq(records)) == records

    @given(st.lists(st.integers(min_value=0, max_value=41), min_size=1, max_size=80),
           st.integers(min_value=0, max_value=41))
    def test_quality_trim_never_lengthens(self, qualities, cutoff):
        sequence = "A" * len(qualities)
        read = FastqRecord("r", sequence, tuple(qualities))
        trimmed = trim_quality([read], quality_cutoff=cutoff, min_length=0)
        if trimmed:
            survivor = trimmed[0]
            assert len(survivor) <= len(read)
            assert survivor.sequence == sequence[: len(survivor)]
            assert survivor.qualities == tuple(qualities[: len(survivor)])


class TestVcfProperties:
    @given(st.lists(
        st.tuples(st.integers(min_value=1, max_value=500),
                  st.sampled_from("ACGT"), st.sampled_from("ACGT")),
        min_size=0, max_size=20, unique_by=lambda t: t[0],
    ))
    def test_vcf_roundtrip(self, triples):
        variants = [Variant("c", pos, ref, alt) for pos, ref, alt in triples]
        parsed = parse_vcf(write_vcf(variants))
        assert [(v.pos, v.ref, v.alt) for v in parsed] == [
            (v.pos, v.ref, v.alt) for v in sorted(variants, key=lambda v: v.pos)
        ]

    @given(dna.filter(lambda s: len(s) >= 20),
           st.sets(st.integers(min_value=1, max_value=20), max_size=8))
    def test_snp_application_preserves_length(self, reference, positions):
        variants = []
        for pos in positions:
            ref_base = reference[pos - 1]
            alt = "A" if ref_base != "A" else "C"
            variants.append(Variant("c", pos, ref_base, alt))
        mutated = apply_variants(reference, variants)
        assert len(mutated) == len(reference)
        assert hamming_distance(reference, mutated) == len(variants)


class TestDiversityProperties:
    counts = st.dictionaries(
        st.text("abcdef", min_size=1, max_size=3),
        st.integers(min_value=0, max_value=100),
        min_size=1,
        max_size=10,
    )

    @given(counts)
    def test_shannon_bounds(self, sample):
        n_features = sum(1 for v in sample.values() if v > 0)
        value = shannon_index(sample)
        assert value >= 0
        if n_features > 0:
            assert value <= math.log(n_features) + 1e-9

    @given(counts)
    def test_simpson_bounds(self, sample):
        assert 0 <= simpson_index(sample) < 1

    @given(counts, counts)
    def test_bray_curtis_symmetric_bounded(self, a, b):
        if sum(a.values()) + sum(b.values()) == 0:
            return
        d = bray_curtis(a, b)
        assert 0 <= d <= 1
        assert d == pytest.approx(bray_curtis(b, a))

    @given(counts.filter(lambda c: sum(c.values()) > 0))
    def test_bray_curtis_identity(self, a):
        assert bray_curtis(a, a) == pytest.approx(0.0)


class TestSimProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=50))
    def test_event_queue_pops_sorted(self, times):
        queue = EventQueue()
        for time in times:
            queue.push(time, lambda: None)
        popped = []
        while queue:
            popped.append(queue.pop().time)
        assert popped == sorted(times)

    @given(st.floats(min_value=0, max_value=100, allow_nan=False),
           st.floats(min_value=0, max_value=DAY * 10, allow_nan=False))
    def test_interruption_probability_is_probability(self, hazard, dt):
        p = interruption_probability(hazard, dt)
        assert 0.0 <= p <= 1.0

    @given(st.floats(min_value=0, max_value=10 * DAY, allow_nan=False),
           st.floats(min_value=0, max_value=24, allow_nan=False))
    def test_diurnal_factor_non_negative_and_periodic(self, now, peak):
        factor = diurnal_factor(now, peak)
        assert factor >= 0
        assert factor == pytest.approx(diurnal_factor(now + DAY, peak), abs=1e-6)

    @given(st.floats(min_value=0, max_value=24, allow_nan=False))
    @settings(max_examples=20)
    def test_diurnal_factor_daily_mean_is_one(self, peak):
        samples = [diurnal_factor(t * DAY / 1000, peak) for t in range(1000)]
        assert np.mean(samples) == pytest.approx(1.0, abs=0.01)


class TestAlignmentProperties:
    @given(st.integers(min_value=0, max_value=140), st.data())
    @settings(max_examples=30)
    def test_exact_read_recovers_position(self, start, data):
        from repro.bio.align import align_read
        from repro.bio.seq import random_genome

        genome = random_genome(200, np.random.default_rng(5))
        length = data.draw(st.integers(min_value=8, max_value=40))
        start = min(start, len(genome) - length)
        read = genome[start : start + length]
        alignment = align_read(genome, read)
        assert alignment.identity() == 1.0
        assert alignment.cigar == f"{length}M"
        # Repeats can yield other perfect placements, but the aligned
        # window must reproduce the read exactly.
        assert genome[alignment.ref_start : alignment.ref_end] == read

    @given(dna.filter(lambda s: len(s) >= 10))
    @settings(max_examples=30)
    def test_identity_bounds(self, genome):
        from repro.bio.align import align_read

        read = genome[: max(4, len(genome) // 2)]
        alignment = align_read(genome, read)
        assert 0.0 <= alignment.identity() <= 1.0
        assert alignment.score <= 2 * len(read)


class TestPhyloProperties:
    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=100))
    @settings(max_examples=20)
    def test_nj_preserves_taxa_and_nonnegative_branches(self, n, seed):
        from repro.bio.phylo import neighbor_joining

        rng = np.random.default_rng(seed)
        raw = rng.random((n, n))
        matrix = (raw + raw.T) / 2
        np.fill_diagonal(matrix, 0.0)
        names = [f"t{i}" for i in range(n)]
        tree = neighbor_joining(names, matrix)
        assert sorted(tree.leaves()) == names
        assert tree.total_branch_length() >= 0

        def check(node):
            for child, length in node.children:
                assert length >= 0
                check(child)

        check(tree)


class TestCheckpointProperties:
    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=30))
    def test_checkpoint_progress_is_monotone(self, saves):
        backend = DynamoCheckpointBackend(CloudProvider(seed=0), "results")
        expected = None
        for value in saves:
            advanced = backend.save_progress("w", value)
            if expected is None:
                # The very first save always lands.
                assert advanced
                expected = value
            elif value > expected:
                assert advanced
                expected = value
            else:
                assert not advanced
            assert backend.load_progress("w") == expected
