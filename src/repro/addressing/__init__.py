"""NIRA-style hierarchical addressing (paper §2.3).

Each core switch owns an address prefix, subdivided down every (core, agg,
tor) chain by sorted position, so every host holds one address per chain
reaching its ToR: the bit fields ``base | core index | agg port | tor port |
host index``, decoded by slicing the fields and indexing the sorted
positions. An end-to-end path is then *encoded in the source and
destination addresses alone*: the source address names the uphill segment,
the destination address names the downhill segment, and both must be drawn
from the tree of the same core. Shifting a flow to another path is just
re-encapsulating with a different address pair — switch tables never change.
"""

from repro.addressing.codec import PathCodec
from repro.addressing.encapsulation import (
    EncapsulatedPacket,
    EncapsulationModule,
    Packet,
)
from repro.addressing.hierarchy import HierarchicalAddressing
from repro.addressing.idmap import IdMapper
from repro.addressing.prefix import Prefix, format_address

__all__ = [
    "EncapsulatedPacket",
    "EncapsulationModule",
    "HierarchicalAddressing",
    "IdMapper",
    "Packet",
    "PathCodec",
    "Prefix",
    "format_address",
]
