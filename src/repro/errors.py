"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError` so
that callers can catch library failures with a single ``except`` clause
while still being able to discriminate the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event simulation kernel."""


class SchedulingError(SimulationError):
    """Raised when an event is scheduled into the past or after shutdown."""


class CloudError(ReproError):
    """Base class for errors raised by the simulated cloud provider."""


class UnknownRegionError(CloudError):
    """Raised when a region name is not present in the region catalog."""


class UnknownInstanceTypeError(CloudError):
    """Raised when an instance type is not present in the catalog."""


class InstanceNotFoundError(CloudError):
    """Raised when an instance id does not refer to a live instance."""


class CapacityError(CloudError):
    """Raised when a spot market cannot satisfy a launch request."""


class SpotRequestError(CloudError):
    """Raised for invalid spot-request operations."""


class ServiceError(CloudError):
    """Base class for simulated AWS service errors (S3, DynamoDB, ...)."""


class NoSuchBucketError(ServiceError):
    """Raised by the simulated S3 when a bucket does not exist."""


class NoSuchKeyError(ServiceError):
    """Raised by the simulated S3 when an object key does not exist."""


class NoSuchTableError(ServiceError):
    """Raised by the simulated DynamoDB when a table does not exist."""


class ConditionalCheckFailedError(ServiceError):
    """Raised when a DynamoDB conditional write fails its condition."""


class ThrottlingError(ServiceError):
    """Raised when a simulated service throttles a request (retryable)."""


class ServiceUnavailableError(ServiceError):
    """Raised when a simulated service transiently rejects a request."""


class RequestLimitExceededError(SpotRequestError):
    """Raised when the EC2 request API transiently rejects a spot request."""


class ChaosError(ReproError):
    """Raised for invalid chaos campaign specifications."""


class LambdaError(ServiceError):
    """Raised when a simulated Lambda invocation fails."""


class StateMachineError(ServiceError):
    """Raised when a Step Functions execution exhausts its retries."""


class GalaxyError(ReproError):
    """Base class for errors raised by the Galaxy workflow substrate."""


class WorkflowValidationError(GalaxyError):
    """Raised when a workflow definition is not a valid DAG."""


class ToolNotInstalledError(GalaxyError):
    """Raised when a workflow step references a tool missing from the shed."""


class JobError(GalaxyError):
    """Raised when a Galaxy job fails or is operated on in a bad state."""


class BioError(ReproError):
    """Base class for errors raised by the bioinformatics toolkit."""


class SequenceFormatError(BioError):
    """Raised when FASTA/FASTQ/VCF content cannot be parsed."""


class WorkloadError(ReproError):
    """Raised for invalid workload definitions or state transitions."""


class DagValidationError(WorkloadError):
    """Raised for invalid step graphs (cycles, unknown deps, bad stages)."""


class StrategyError(ReproError):
    """Raised when a placement strategy cannot produce an allocation."""


class NoFeasibleRegionError(StrategyError):
    """Raised when no region satisfies a strategy's constraints."""


class ExperimentError(ReproError):
    """Raised when an experiment driver is misconfigured."""
