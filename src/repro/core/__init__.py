"""Core abstractions: oracles, schemes/algorithms, task runners, separation."""

from .audit import AuditFailure, AuditMismatch, AuditReport, replay_audit
from .construction import TreeConstructionResult, run_tree_construction, verify_parent_outputs
from .election import FOLLOWER, LEADER, ElectionResult, run_election
from .gossip import GOSSIP_KIND, GossipResult, rumor_of, run_gossip
from .oracle import AdviceMap, advice_from_json, advice_to_json, FullMapOracle, NullOracle, Oracle, TruncatingOracle
from .scheme import Algorithm, FunctionalAlgorithm, FunctionalScheme, History, sends
from .separation import SeparationPoint, separation_point, separation_profile
from .tasks import TASKS, TaskResult, default_message_limit, run_broadcast, run_task, run_wakeup, simulate_pair

__all__ = [
    "LEADER",
    "FOLLOWER",
    "ElectionResult",
    "run_election",
    "AuditFailure",
    "AuditReport",
    "AuditMismatch",
    "replay_audit",
    "TreeConstructionResult",
    "run_tree_construction",
    "verify_parent_outputs",
    "GOSSIP_KIND",
    "GossipResult",
    "rumor_of",
    "run_gossip",
    "Oracle",
    "AdviceMap",
    "advice_to_json",
    "advice_from_json",
    "NullOracle",
    "FullMapOracle",
    "TruncatingOracle",
    "Algorithm",
    "History",
    "FunctionalScheme",
    "FunctionalAlgorithm",
    "sends",
    "TASKS",
    "TaskResult",
    "run_task",
    "run_broadcast",
    "run_wakeup",
    "simulate_pair",
    "default_message_limit",
    "SeparationPoint",
    "separation_point",
    "separation_profile",
]
