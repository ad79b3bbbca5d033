"""Closed-form addressing against an eager reference allocator.

:class:`EagerAllocator` is the original table-building allocator: it walks
every ``(core, agg, tor, host)`` with :meth:`Prefix.subdivide` and stores
every prefix and address. It lives here, as a test oracle only.
:class:`HierarchicalAddressing` computes the same values from sorted
positions; these tests assert that the two agree value for value and in
``addresses_of`` order, and that every other address raises.
"""

from typing import Dict, Tuple

import pytest

from repro.addressing import HierarchicalAddressing
from repro.addressing.prefix import Prefix
from repro.common.errors import AddressingError
from repro.topology import ClosNetwork, FatTree, ThreeTier
from repro.topology.custom import TopologySpec, build_custom
from repro.topology.multirooted import Chain


class EagerAllocator:
    """Every prefix and address of a topology, allocated by a full walk."""

    def __init__(self, addressing: HierarchicalAddressing) -> None:
        topo = addressing.topology
        self.core_prefix: Dict[str, Prefix] = {}
        self.agg_prefix: Dict[Tuple[str, str], Prefix] = {}
        self.chain_prefix: Dict[Chain, Prefix] = {}
        self.host_addresses: Dict[str, Dict[Chain, int]] = {}
        self.owner: Dict[int, Tuple[str, Chain]] = {}
        for core_index, core in enumerate(sorted(topo.cores())):
            core_pfx = addressing.base.subdivide(core_index, addressing.core_bits)
            self.core_prefix[core] = core_pfx
            for agg_port, agg in enumerate(sorted(topo.down_neighbors(core))):
                agg_pfx = core_pfx.subdivide(agg_port, addressing.agg_bits)
                self.agg_prefix[(core, agg)] = agg_pfx
                for tor_port, tor in enumerate(sorted(topo.down_neighbors(agg))):
                    chain = (core, agg, tor)
                    chain_pfx = agg_pfx.subdivide(tor_port, addressing.tor_bits)
                    self.chain_prefix[chain] = chain_pfx
                    for host_index, host in enumerate(sorted(topo.hosts_of_tor(tor))):
                        addr = chain_pfx.address(host_index)
                        self.host_addresses.setdefault(host, {})[chain] = addr
                        self.owner[addr] = (host, chain)


def irregular_custom():
    """Uneven fan-outs, partial core wiring, names that sort apart from
    their declaration order, and ToRs with 1-3 hosts."""
    return build_custom(TopologySpec(
        cores=["c1", "c0", "c10"],
        aggs={"a2": 0, "a0": 0, "a1": 1, "a10": 1},
        tors={"t3": 0, "t1": 0, "t2": 1, "t0": 1, "t9": 1},
        hosts={"h9": "t3", "h1": "t3", "h0": "t3", "h2": "t1",
               "h5": "t2", "h4": "t0", "h3": "t0", "h6": "t9"},
        core_agg_links=[("c1", "a2"), ("c1", "a1"), ("c0", "a0"), ("c0", "a10"),
                        ("c0", "a1"), ("c10", "a2")],
        agg_tor_links=[("a2", "t3"), ("a2", "t1"), ("a0", "t1"), ("a1", "t2"),
                       ("a1", "t0"), ("a1", "t9"), ("a10", "t0")],
    ))


# (topology, constructor kwargs, expected (base, core/agg/tor/host bits)).
# The expected widths and bases are the allocator's historical values.
CASES = {
    "fattree4": (lambda: FatTree(p=4), {}, ("10.0.0.0/8", 6, 6, 6, 6)),
    "fattree8": (lambda: FatTree(p=8), {}, ("10.0.0.0/8", 6, 6, 6, 6)),
    "clos44": (lambda: ClosNetwork(d_i=4, d_a=4, hosts_per_tor=2), {},
               ("10.0.0.0/8", 6, 6, 6, 6)),
    "threetier": (
        lambda: ThreeTier(num_cores=4, num_pods=2, aggs_per_pod=2, access_per_pod=6,
                          hosts_per_access=5),
        {}, ("10.0.0.0/8", 6, 6, 6, 6),
    ),
    "custom": (irregular_custom, {}, ("10.0.0.0/8", 6, 6, 6, 6)),
    "bits2": (lambda: FatTree(p=4), {"bits_per_level": 2}, ("10.0.0.0/8", 2, 2, 2, 18)),
    "bits10_short_base": (lambda: FatTree(p=4), {"bits_per_level": 10},
                          ("0.0.0.0/1", 10, 10, 10, 1)),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def pair(request):
    build, kwargs, expected = CASES[request.param]
    addressing = HierarchicalAddressing(build(), **kwargs)
    return addressing, EagerAllocator(addressing), expected


class TestAgainstEagerAllocator:
    def test_widths_and_base(self, pair):
        addressing, _, expected = pair
        widths = (addressing.core_bits, addressing.agg_bits, addressing.tor_bits,
                  addressing.host_bits)
        assert (str(addressing.base),) + widths == expected

    def test_addresses_of_values_and_order(self, pair):
        addressing, oracle, _ = pair
        assert sorted(oracle.host_addresses) == sorted(addressing.topology.hosts())
        for host, expected in oracle.host_addresses.items():
            assert list(addressing.addresses_of(host).items()) == list(expected.items())
            assert addressing.num_addresses_per_host(host) == len(expected)

    def test_address_of_and_owner_of(self, pair):
        addressing, oracle, _ = pair
        for addr, (host, chain) in oracle.owner.items():
            assert addressing.address_of(host, chain) == addr
            assert addressing.owner_of(addr) == (host, chain)

    def test_prefixes(self, pair):
        addressing, oracle, _ = pair
        for core, prefix in oracle.core_prefix.items():
            assert addressing.core_prefix(core) == prefix
        for (core, agg), prefix in oracle.agg_prefix.items():
            assert addressing.agg_prefix(core, agg) == prefix
        for chain, prefix in oracle.chain_prefix.items():
            assert addressing.chain_prefix(chain) == prefix

    def test_every_non_allocation_raises(self, pair):
        addressing, oracle, _ = pair
        topo = addressing.topology
        switches = topo.cores() + topo.aggs() + topo.tors()
        for a in switches:
            if a not in oracle.core_prefix:
                with pytest.raises(AddressingError):
                    addressing.core_prefix(a)
            for b in switches:
                if (a, b) not in oracle.agg_prefix:
                    with pytest.raises(AddressingError):
                        addressing.agg_prefix(a, b)
        for chain in [(c, a, t) for c in topo.cores() for a in topo.aggs() for t in topo.tors()]:
            if chain not in oracle.chain_prefix:
                with pytest.raises(AddressingError):
                    addressing.chain_prefix(chain)
                with pytest.raises(AddressingError):
                    addressing.address_of(topo.hosts_of_tor(chain[2])[0], chain)
        for host in sorted(oracle.host_addresses)[:8]:
            for chain in oracle.chain_prefix:
                if chain not in oracle.host_addresses[host]:
                    with pytest.raises(AddressingError):
                        addressing.address_of(host, chain)
        for not_a_host in ("ghost", topo.tors()[0]):
            with pytest.raises(AddressingError):
                addressing.addresses_of(not_a_host)
        for malformed in (("c", "a"), ("c", "a", "t", "x")):
            with pytest.raises(AddressingError):
                addressing.chain_prefix(malformed)


class TestExhaustiveSweep:
    """Every address of a small explicit base: 256 slots, 64 allocated."""

    def test_owner_of_every_address(self):
        base = Prefix.parse("10.1.2.0/24")
        addressing = HierarchicalAddressing(FatTree(p=4), base=base, bits_per_level=1)
        assert (addressing.core_bits, addressing.agg_bits, addressing.tor_bits,
                addressing.host_bits) == (2, 2, 1, 3)
        oracle = EagerAllocator(addressing)
        assert len(oracle.owner) == 64
        for addr in range(base.value, base.value + 256):
            if addr in oracle.owner:
                assert addressing.owner_of(addr) == oracle.owner[addr]
            else:
                with pytest.raises(AddressingError):
                    addressing.owner_of(addr)
        allocated = next(iter(oracle.owner))
        for outside in (base.value - 1, base.value + 256, -1, -allocated, 1 << 32,
                        (1 << 32) + allocated, (1 << 40) | allocated):
            with pytest.raises(AddressingError):
                addressing.owner_of(outside)
