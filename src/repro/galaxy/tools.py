"""Tools and the ToolShed.

A :class:`Tool` wraps a Python callable ``runner(params) -> outputs``
with identity and versioning; the :class:`ToolShed` is the installable
registry (the paper installs tools through the Galaxy Admin feature).
:func:`default_toolshed` ships the bioinformatics tools the paper's
workloads need, each wrapping the real miniature implementation in
:mod:`repro.bio`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.bio import dada as dada_module
from repro.bio.consensus import reconstruct_genome
from repro.bio.demux import demultiplex
from repro.bio.diversity import shannon_index, simpson_index
from repro.bio.fasta import parse_fasta, write_fasta
from repro.bio.fastq import parse_fastq, write_fastq
from repro.bio.lineage import classify_batch, default_lineage_signatures
from repro.bio.phylo import kmer_distance_matrix, neighbor_joining
from repro.bio.qc import fastqc, multiqc
from repro.bio.trim import trim_adapters, trim_quality
from repro.bio.vcf import parse_vcf
from repro.errors import GalaxyError, ToolNotInstalledError

ToolRunner = Callable[[Dict[str, Any]], Dict[str, Any]]


@dataclass(frozen=True)
class Tool:
    """An installable Galaxy tool.

    Attributes:
        tool_id: Stable identifier, e.g. ``"fastqc"``.
        name: Display name.
        version: Semantic-ish version string.
        description: One-line purpose.
        runner: ``runner(params) -> outputs`` implementing the tool.
        requirements: Names of tool_ids this tool's outputs feed from
            conventionally (documentation only; the workflow DAG is the
            real dependency source).
    """

    tool_id: str
    name: str
    version: str
    description: str
    runner: ToolRunner
    requirements: tuple = ()

    def run(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Execute the tool, wrapping failures in :class:`GalaxyError`."""
        try:
            return self.runner(params)
        except GalaxyError:
            raise
        except Exception as exc:
            raise GalaxyError(
                f"tool {self.tool_id!r} failed: {exc.__class__.__name__}: {exc}"
            ) from exc


class ToolShed:
    """Registry of installable tools."""

    def __init__(self) -> None:
        self._tools: Dict[str, Tool] = {}

    def install(self, tool: Tool) -> None:
        """Install (or upgrade) a tool."""
        self._tools[tool.tool_id] = tool

    def get(self, tool_id: str) -> Tool:
        """Return an installed tool.

        Raises:
            ToolNotInstalledError: When the tool is missing.
        """
        tool = self._tools.get(tool_id)
        if tool is None:
            installed = ", ".join(sorted(self._tools)) or "<none>"
            raise ToolNotInstalledError(
                f"tool {tool_id!r} is not installed; installed tools: {installed}"
            )
        return tool

    def __contains__(self, tool_id: str) -> bool:
        return tool_id in self._tools

    def installed(self) -> List[str]:
        """Installed tool ids, sorted."""
        return sorted(self._tools)


# ---------------------------------------------------------------------------
# Built-in tool runners (thin wrappers over repro.bio)
# ---------------------------------------------------------------------------

def _run_fastqc(params: Dict[str, Any]) -> Dict[str, Any]:
    reads = parse_fastq(params["fastq"])
    report = fastqc(reads, name=params.get("name", "sample"))
    return {"report": report}


def _run_multiqc(params: Dict[str, Any]) -> Dict[str, Any]:
    reports = list(params.get("reports") or [])
    # Workflow wiring delivers reports as individual ``report_<i>``
    # params (Galaxy's collection inputs, flattened).
    reports.extend(
        value for key, value in sorted(params.items()) if key.startswith("report_")
    )
    return {"summary": multiqc(reports)}


def _run_cutadapt(params: Dict[str, Any]) -> Dict[str, Any]:
    reads = parse_fastq(params["fastq"])
    if params.get("adapter"):
        reads = trim_adapters(
            reads, params["adapter"], min_length=int(params.get("min_length", 20))
        )
    reads = trim_quality(
        reads,
        quality_cutoff=int(params.get("quality_cutoff", 20)),
        min_length=int(params.get("min_length", 20)),
    )
    return {"fastq": write_fastq(reads), "n_reads": len(reads)}


def _run_demux(params: Dict[str, Any]) -> Dict[str, Any]:
    reads = parse_fastq(params["fastq"])
    assigned, unassigned = demultiplex(reads, params["barcodes"])
    return {
        "samples": {sample: write_fastq(sample_reads) for sample, sample_reads in assigned.items()},
        "n_unassigned": len(unassigned),
    }


def _run_dada2(params: Dict[str, Any]) -> Dict[str, Any]:
    per_sample = {
        sample: dada_module.denoise(parse_fastq(fastq_text))
        for sample, fastq_text in params["samples"].items()
    }
    return {
        "feature_table": dada_module.feature_table(per_sample),
        "n_asvs": {sample: result.n_asvs for sample, result in per_sample.items()},
    }


def _run_phylogeny(params: Dict[str, Any]) -> Dict[str, Any]:
    table = params["feature_table"]
    sequences = {asv: asv for counts in table.values() for asv in counts}
    if len(sequences) < 2:
        return {"newick": ";", "n_taxa": len(sequences)}
    names, matrix = kmer_distance_matrix(sequences, k=int(params.get("k", 4)))
    tree = neighbor_joining(names, matrix)
    return {"newick": tree.to_newick(), "n_taxa": len(names)}


def _run_diversity(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.bio.diversity import beta_diversity_matrix

    table = params["feature_table"]
    outputs: Dict[str, Any] = {
        "alpha": {
            sample: {
                "shannon": shannon_index(counts),
                "simpson": simpson_index(counts),
            }
            for sample, counts in table.items()
        }
    }
    non_empty = {
        sample: counts
        for sample, counts in table.items()
        if sum(counts.values()) > 0
    }
    if len(non_empty) >= 2:
        samples, matrix = beta_diversity_matrix(non_empty)
        outputs["beta"] = {
            "samples": samples,
            "bray_curtis": [[float(x) for x in row] for row in matrix],
        }
    return outputs


def _run_vcf_consensus(params: Dict[str, Any]) -> Dict[str, Any]:
    reference = parse_fasta(params["reference_fasta"])[0]
    variants = parse_vcf(params["vcf"])
    genome = reconstruct_genome(
        reference, variants, isolate_name=params.get("isolate", "isolate")
    )
    return {"fasta": write_fasta([genome]), "n_variants": len(variants)}


def _run_pangolin(params: Dict[str, Any]) -> Dict[str, Any]:
    genomes = parse_fasta(params["fasta"])
    signatures = params.get("signatures")
    if signatures is None:
        signatures = default_lineage_signatures(len(genomes[0].sequence))
    calls = classify_batch(genomes, signatures)
    return {"calls": calls, "lineages": [call.lineage for call in calls]}


def _run_variant_caller(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.bio.variants import build_pileup, call_variants
    from repro.bio.vcf import write_vcf

    reference = parse_fasta(params["reference_fasta"])[0]
    reads = parse_fastq(params["fastq"])
    pileup = build_pileup(
        reference.sequence, reads, reference_name=reference.identifier
    )
    variants = call_variants(reference.sequence, pileup)
    return {
        "vcf": write_vcf(variants, reference_name=reference.identifier),
        "n_variants": len(variants),
        "n_reads_used": pileup.n_reads_used,
    }


def _run_sleep(params: Dict[str, Any]) -> Dict[str, Any]:
    # The paper pads workloads with sleep intervals for uniform
    # duration; in simulation the duration lives on the workflow step,
    # so the runner is a pass-through.
    return {"slept": params.get("seconds", 0)}


def default_toolshed() -> ToolShed:
    """Return a shed with the paper's tool suite installed."""
    shed = ToolShed()
    tools = [
        Tool("fastqc", "FastQC", "0.12.1", "Per-file read quality control", _run_fastqc),
        Tool("multiqc", "MultiQC", "1.14", "Aggregate QC reports", _run_multiqc, ("fastqc",)),
        Tool("cutadapt", "Cutadapt", "4.4", "Adapter and quality trimming", _run_cutadapt),
        Tool("demux", "Demultiplexer", "1.0", "Barcode demultiplexing", _run_demux),
        Tool("dada2", "DADA2 denoise", "1.26", "ASV inference", _run_dada2, ("demux",)),
        Tool(
            "phylogeny",
            "Phylogenetic tree",
            "1.0",
            "Neighbour-joining tree from ASVs",
            _run_phylogeny,
            ("dada2",),
        ),
        Tool(
            "diversity",
            "Diversity metrics",
            "1.0",
            "Alpha diversity per sample",
            _run_diversity,
            ("dada2",),
        ),
        Tool(
            "vcf_consensus",
            "VCF consensus builder",
            "1.0",
            "Apply VCF variants to a reference genome",
            _run_vcf_consensus,
        ),
        Tool(
            "pangolin",
            "Pangolin lineage caller",
            "4.3",
            "Signature-based lineage assignment",
            _run_pangolin,
            ("vcf_consensus",),
        ),
        Tool(
            "variant_caller",
            "Pileup variant caller",
            "1.0",
            "Align reads and call SNPs against a reference",
            _run_variant_caller,
        ),
        Tool("sleep", "Sleep interval", "1.0", "Duration padding step", _run_sleep),
    ]
    for tool in tools:
        shed.install(tool)
    return shed
