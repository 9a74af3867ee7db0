"""Technology-mapping framework: the mapped netlist, the node life cycle of
Section 2, logic cones and their ordering, the shared dynamic-programming
covering engine, the MIS 2.1-style baseline mapper, and the cut-based
covering backend (priority cuts, NPN matching, LUT mode, fusion)."""

from repro.map.netlist import MappedNetwork, MappedNode, MappedNodeKind, Net
from repro.map.lifecycle import LifecycleTracker, NodeState
from repro.map.cones import exit_line_matrix, logic_cones, order_cones
from repro.map.base import BaseMapper, MapResult, NoMatchError
from repro.map.mis import MisAreaMapper, MisDelayMapper
from repro.map.blif_io import parse_mapped_blif, write_mapped_blif
from repro.map.cuts import (
    CutMapper,
    CutMapResult,
    FusionMapper,
    MapperSpec,
    MapperSpecError,
    parse_mapper_spec,
)

__all__ = [
    "CutMapper",
    "CutMapResult",
    "FusionMapper",
    "MapperSpec",
    "MapperSpecError",
    "parse_mapper_spec",
    "parse_mapped_blif",
    "write_mapped_blif",
    "MappedNetwork",
    "MappedNode",
    "MappedNodeKind",
    "Net",
    "LifecycleTracker",
    "NodeState",
    "logic_cones",
    "exit_line_matrix",
    "order_cones",
    "BaseMapper",
    "MapResult",
    "NoMatchError",
    "MisAreaMapper",
    "MisDelayMapper",
]
