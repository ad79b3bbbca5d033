"""Hierarchical prefix allocation over a multi-rooted tree (paper §2.3).

Allocation is positional: each level hands its ``i``-th sorted child
subdivision ``i`` of its own prefix, so an address is the bit fields
``base | core index | agg port | tor port | host index`` of the sorted
positions along its downhill chain ``(core, agg, tor)``. Only these
position tables are kept (they grow with switch ports plus hosts, not
hosts x cores); decoding slices the fields and indexes the tables.

The paper fixes 6 bits per level (supporting p <= 16 fat-trees under
``10.0.0.0/8``); we default to 6 bits but auto-widen per level when the
topology needs more branches. When no base prefix is given and the
default ``10.0.0.0/8`` cannot fit the widened hierarchy (p=64 fat-trees
need 27 subdivision bits), the default base itself auto-shortens to the
longest prefix that can — topologies that fit under /8 keep their exact
historical addresses. An explicitly passed base is never adjusted;
:class:`AddressingError` is raised if the hierarchy cannot fit under it.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.errors import AddressingError
from repro.topology.multirooted import Chain, MultiRootedTopology
from repro.addressing.prefix import Prefix


def _bits_needed(count: int, minimum: int) -> int:
    bits = minimum
    while (1 << bits) < count:
        bits += 1
    return bits


class HierarchicalAddressing:
    """Prefix allocation and host multi-address assignment for a topology."""

    def __init__(
        self, topology: MultiRootedTopology, base: Prefix = None, bits_per_level: int = 6
    ) -> None:
        self.topology = topology
        self._cores = sorted(topology.cores())
        self._core_index = {core: i for i, core in enumerate(self._cores)}
        # Sorted children of each core and agg switch; each (parent, child) link's position.
        self._down = {s: sorted(topology.down_neighbors(s)) for s in self._cores + topology.aggs()}
        self._port = {(s, kid): i for s, kids in self._down.items() for i, kid in enumerate(kids)}
        self._hosts = {tor: sorted(topology.hosts_of_tor(tor)) for tor in topology.tors()}
        self._host_index = {h: (t, i) for t, hs in self._hosts.items() for i, h in enumerate(hs)}
        max_aggs = max(len(self._down[c]) for c in self._cores)
        max_tors = max(len(self._down[a]) for a in topology.aggs())
        max_hosts = max(len(hosts) for hosts in self._hosts.values())
        self.core_bits = _bits_needed(len(self._cores), bits_per_level)
        self.agg_bits = _bits_needed(max_aggs, bits_per_level)
        self.tor_bits = _bits_needed(max_tors, bits_per_level)
        level_bits = self.core_bits + self.agg_bits + self.tor_bits
        if base is None:
            base = self._default_base(level_bits, _bits_needed(max_hosts, 1))
        self.base = base
        host_bits = 32 - self.base.length - level_bits
        if host_bits < 1 or (1 << host_bits) < max_hosts:
            raise AddressingError(
                "address space exhausted: "
                f"base /{self.base.length} + {self.core_bits}+{self.agg_bits}+{self.tor_bits} "
                f"level bits leave {host_bits} host bits for {max_hosts} hosts per ToR"
            )
        self.host_bits = host_bits
        self._agg_shift = host_bits + self.tor_bits
        self._core_shift = self._agg_shift + self.agg_bits

    @staticmethod
    def _default_base(level_bits: int, min_host_bits: int) -> Prefix:
        """The paper's ``10.0.0.0/8``, auto-shortened only when it must be.

        Topologies whose hierarchy fits in 24 bits keep the historical /8
        (and thus their exact historical addresses); larger ones (p=64
        fat-trees) get the longest base prefix that still leaves room, so
        the level subdivision stays identical and only the base shrinks.
        """
        length = min(8, 32 - level_bits - min_host_bits)
        if length < 0:
            raise AddressingError(
                f"hierarchy needs {level_bits} level bits + {min_host_bits} host "
                "bits: does not fit in a 32-bit address space"
            )
        ten = 10 << 24
        value = (ten >> (32 - length)) << (32 - length) if length else 0
        return Prefix(value, length)

    # -- positions: (core index, agg port, tor port) and host index -----------

    def _prefix(self, *positions: int) -> Prefix:
        prefix = self.base
        for index, bits in zip(positions, (self.core_bits, self.agg_bits, self.tor_bits)):
            prefix = prefix.subdivide(index, bits)
        return prefix

    def _chain_positions(self, chain: Chain) -> Tuple[int, int, int]:
        try:
            core, agg, tor = chain
            return self._core_index[core], self._port[core, agg], self._port[agg, tor]
        except (KeyError, ValueError):
            raise AddressingError(f"no such downhill chain {chain!r}") from None

    def _locate(self, host: str) -> Tuple[str, int]:
        try:
            return self._host_index[host]
        except KeyError:
            raise AddressingError(f"{host!r} is not an addressed host") from None

    # -- queries ---------------------------------------------------------------

    def core_prefix(self, core: str) -> Prefix:
        """The prefix owned by a core switch (root of one tree)."""
        if core not in self._core_index:
            raise AddressingError(f"{core!r} is not a core switch")
        return self._prefix(self._core_index[core])

    def agg_prefix(self, core: str, agg: str) -> Prefix:
        """The prefix core ``core`` allocated to aggregation switch ``agg``."""
        if core not in self._core_index or (core, agg) not in self._port:
            raise AddressingError(f"no allocation from {core!r} to {agg!r}")
        return self._prefix(self._core_index[core], self._port[core, agg])

    def chain_prefix(self, chain: Chain) -> Prefix:
        """The ToR-level prefix of a downhill chain (core, agg, tor)."""
        return self._prefix(*self._chain_positions(chain))

    def addresses_of(self, host: str) -> Dict[Chain, int]:
        """All addresses of ``host`` by chain, in allocation order (core, then agg port)."""
        tor, _ = self._locate(host)
        up = self.topology.up_neighbors
        chains = [(core, agg, tor) for agg in up(tor) for core in up(agg)]
        chains.sort(key=self._chain_positions)
        return {chain: self.address_of(host, chain) for chain in chains}

    def address_of(self, host: str, chain: Chain) -> int:
        """The host's address on one specific downhill chain."""
        tor, host_index = self._locate(host)
        if len(chain) != 3 or chain[2] != tor:
            raise AddressingError(
                f"host {host!r} has no address on chain {chain!r}: its "
                f"{len(self.addresses_of(host))} chains all end at ToR {tor!r}"
            )
        core_index, agg_port, tor_port = self._chain_positions(chain)
        fields = core_index << self._core_shift | agg_port << self._agg_shift
        return self.base.value | fields | tor_port << self.host_bits | host_index

    def owner_of(self, addr: int) -> Tuple[str, Chain]:
        """Reverse lookup: which (host, chain) does an address belong to."""
        try:
            if not (0 <= addr < 1 << 32 and self.base.contains_address(addr)):
                raise IndexError
            core = self._cores[addr >> self._core_shift & ((1 << self.core_bits) - 1)]
            agg = self._down[core][addr >> self._agg_shift & ((1 << self.agg_bits) - 1)]
            tor = self._down[agg][addr >> self.host_bits & ((1 << self.tor_bits) - 1)]
            host = self._hosts[tor][addr & ((1 << self.host_bits) - 1)]
        except IndexError:
            raise AddressingError(f"unallocated address {addr}") from None
        return host, (core, agg, tor)

    def num_addresses_per_host(self, host: str) -> int:
        """How many locator addresses the host holds (one per chain)."""
        return len(self.addresses_of(host))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = ",".join(map(str, (self.core_bits, self.agg_bits, self.tor_bits, self.host_bits)))
        return f"HierarchicalAddressing(base={self.base}, bits=({bits}))"
