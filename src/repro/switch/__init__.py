"""Programmable-switch substrate: pipeline, tables, registers, multicast."""

from .alu import (
    compare_eq_constant,
    compare_lt_via_underflow,
    identity_hash,
    saturating_increment,
    sub_with_underflow,
    tofino_min,
)
from .forwarding import L3ForwardProgram
from .multicast import MulticastCopy, MulticastEngine
from .pipeline import IngressVerdict, Switch, SwitchProgram, VerdictKind
from .registers import Register, RegisterAccessError, RegisterAction, RegisterWindow
from .resources import (
    PipelineLayout,
    ResourceBudget,
    ResourceError,
    SwitchResourceError,
    TOFINO1_STAGES,
    p4ce_layout,
)
from .tables import ActionEntry, ExactMatchTable, TableFullError

__all__ = [
    "ActionEntry",
    "ExactMatchTable",
    "IngressVerdict",
    "L3ForwardProgram",
    "MulticastCopy",
    "MulticastEngine",
    "PipelineLayout",
    "Register",
    "RegisterAccessError",
    "RegisterAction",
    "RegisterWindow",
    "ResourceBudget",
    "ResourceError",
    "Switch",
    "SwitchResourceError",
    "TOFINO1_STAGES",
    "SwitchProgram",
    "TableFullError",
    "VerdictKind",
    "compare_eq_constant",
    "compare_lt_via_underflow",
    "identity_hash",
    "p4ce_layout",
    "saturating_increment",
    "sub_with_underflow",
    "tofino_min",
]
