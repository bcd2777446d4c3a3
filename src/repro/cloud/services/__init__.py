"""Simulated AWS services with boto3-flavoured APIs.

Each service is an in-process substrate wired into the simulation
engine: EC2 (spot lifecycle and interruptions), S3, DynamoDB, Lambda,
CloudWatch (metrics and scheduled rules), EventBridge and Step
Functions.  They reproduce the *timing semantics* the paper's
control plane depends on — two-minute interruption notices, periodic
metric collection, 15-minute open-request sweeps, and retry policies.
"""

from repro.cloud.services.cloudwatch import CloudWatchService
from repro.cloud.services.dynamodb import DynamoDBService
from repro.cloud.services.ec2 import (
    EC2Service,
    Instance,
    InstanceLifecycle,
    InstanceState,
    SpotRequest,
    SpotRequestState,
)
from repro.cloud.services.eventbridge import EventBridgeService
from repro.cloud.services.lambda_ import LambdaService
from repro.cloud.services.s3 import S3Service
from repro.cloud.services.stepfunctions import StepFunctionsService

__all__ = [
    "CloudWatchService",
    "DynamoDBService",
    "EC2Service",
    "EventBridgeService",
    "Instance",
    "InstanceLifecycle",
    "InstanceState",
    "LambdaService",
    "S3Service",
    "SpotRequest",
    "SpotRequestState",
    "StepFunctionsService",
]
