"""Tests for the LPM trie and the RIB archive."""

import datetime

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nettypes.ip import IPV4_MAX, Prefix, ip_to_int
from repro.routing import asns
from repro.routing.rib import RibArchive, RibEntry, RibSnapshot
from repro.routing.trie import PrefixTrie

addresses = st.integers(min_value=0, max_value=IPV4_MAX)


def prefix_strategy():
    return st.tuples(addresses, st.integers(min_value=0, max_value=32)).map(
        lambda pair: Prefix(pair[0] & Prefix(0, pair[1]).mask(), pair[1])
    )


class TestPrefixTrie:
    def test_basic_lookup(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "big")
        trie.insert(Prefix.parse("10.1.0.0/16"), "small")
        assert trie.lookup(ip_to_int("10.1.2.3")) == "small"
        assert trie.lookup(ip_to_int("10.2.2.3")) == "big"
        assert trie.lookup(ip_to_int("11.0.0.1")) is None

    def test_longest_match_wins_regardless_of_insert_order(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.1.0.0/16"), "small")
        trie.insert(Prefix.parse("10.0.0.0/8"), "big")
        assert trie.lookup(ip_to_int("10.1.9.9")) == "small"

    def test_default_route(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("0.0.0.0/0"), "default")
        assert trie.lookup(0) == "default"
        assert trie.lookup(IPV4_MAX) == "default"

    def test_replace_value(self):
        trie = PrefixTrie()
        prefix = Prefix.parse("10.0.0.0/8")
        trie.insert(prefix, 1)
        trie.insert(prefix, 2)
        assert trie.lookup(ip_to_int("10.0.0.1")) == 2
        assert len(trie) == 1

    def test_host_route(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("1.2.3.4/32"), "host")
        assert trie.lookup(ip_to_int("1.2.3.4")) == "host"
        assert trie.lookup(ip_to_int("1.2.3.5")) is None

    def test_lookup_with_prefix(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "x")
        matched = trie.lookup_with_prefix(ip_to_int("10.9.9.9"))
        assert matched == (Prefix.parse("10.0.0.0/8"), "x")
        assert trie.lookup_with_prefix(ip_to_int("11.0.0.0")) is None

    def test_items_roundtrip(self):
        trie = PrefixTrie()
        entries = {
            Prefix.parse("10.0.0.0/8"): 1,
            Prefix.parse("192.168.0.0/16"): 2,
            Prefix.parse("0.0.0.0/0"): 3,
        }
        for prefix, value in entries.items():
            trie.insert(prefix, value)
        assert dict(trie.items()) == entries

    @given(st.lists(prefix_strategy(), min_size=1, max_size=20), addresses)
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_lpm(self, prefixes, address):
        """Trie lookup must equal brute-force longest-prefix match."""
        trie = PrefixTrie()
        table = {}
        for index, prefix in enumerate(prefixes):
            trie.insert(prefix, index)
            table[prefix] = index  # later duplicates replace, as in the trie
        best = None
        best_len = -1
        for prefix, value in table.items():
            if prefix.contains(address) and prefix.length > best_len:
                best, best_len = value, prefix.length
        assert trie.lookup(address) == best


class TestRib:
    def _snapshot(self, month=(2015, 6)):
        return RibSnapshot(
            month,
            [
                RibEntry(Prefix.parse("31.13.64.0/19"), asns.FACEBOOK.number),
                RibEntry(Prefix.parse("23.192.0.0/20"), asns.AKAMAI.number),
            ],
        )

    def test_origin_lookup(self):
        snapshot = self._snapshot()
        assert snapshot.origin_of(ip_to_int("31.13.70.1")) == asns.FACEBOOK
        assert snapshot.origin_of(ip_to_int("8.8.8.8")) is None
        assert len(snapshot) == 2

    def test_archive_exact_month(self):
        archive = RibArchive()
        archive.add(self._snapshot((2015, 6)))
        found = archive.snapshot_for(datetime.date(2015, 6, 15))
        assert found is not None and found.month == (2015, 6)

    def test_archive_falls_back_to_earlier_month(self):
        archive = RibArchive()
        archive.add(self._snapshot((2015, 6)))
        found = archive.snapshot_for(datetime.date(2015, 9, 1))
        assert found is not None and found.month == (2015, 6)

    def test_archive_no_earlier_snapshot(self):
        archive = RibArchive()
        archive.add(self._snapshot((2015, 6)))
        assert archive.snapshot_for(datetime.date(2014, 1, 1)) is None

    def test_origin_of_defaults_to_other(self):
        archive = RibArchive()
        archive.add(self._snapshot((2015, 6)))
        origin = archive.origin_of(ip_to_int("8.8.8.8"), datetime.date(2015, 7, 1))
        assert origin == asns.OTHER
        # Before any snapshot: also OTHER, never a crash.
        origin = archive.origin_of(ip_to_int("31.13.70.1"), datetime.date(2013, 1, 1))
        assert origin == asns.OTHER


def routed_tables():
    """RIB tables with what a flattening has to get right: prefixes nested
    in one another, prefixes adjacent to one another, host routes, and a
    prefix announced twice — each derived from a random base prefix."""

    def family(base: Prefix):
        members = [base]
        if base.length < 32:
            half = base.length + 1
            members.append(Prefix(base.network, half))  # nested, same start
            members.append(Prefix(base.last() & Prefix(0, half).mask(), half))
            members.append(Prefix(base.last(), 32))  # /32 at the far edge
        if base.last() < IPV4_MAX:
            members.append(Prefix(base.last() + 1, 32))  # adjacent host route
        return members

    prefixes = st.lists(prefix_strategy(), min_size=0, max_size=8).map(
        lambda bases: [member for base in bases for member in family(base)]
    )
    return prefixes.flatmap(
        lambda members: st.permutations(members + members[:2]).flatmap(
            lambda order: st.lists(
                st.integers(min_value=0, max_value=5),
                min_size=len(order),
                max_size=len(order),
            ).map(lambda origins: [RibEntry(p, o) for p, o in zip(order, origins)])
        )
    )


class TestArrayLookup:
    """``origins_of`` is one ``searchsorted``; the trie is its oracle."""

    @staticmethod
    def probes(entries, extra):
        edges = [
            address
            for entry in entries
            for address in (
                entry.prefix.first() - 1,
                entry.prefix.first(),
                entry.prefix.last(),
                entry.prefix.last() + 1,
            )
            if 0 <= address <= IPV4_MAX
        ]
        return np.array(edges + extra + [0, IPV4_MAX], dtype=np.int64)

    @given(routed_tables(), st.lists(addresses, max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_snapshot_matches_the_trie(self, entries, extra):
        snapshot = RibSnapshot((2016, 1), entries)
        probes = self.probes(entries, extra)
        expected = [
            origin.number if (origin := snapshot.origin_of(int(address))) else 0
            for address in probes
        ]
        assert snapshot.origins_of(probes).tolist() == expected

    @given(routed_tables(), st.lists(addresses, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_archive_matches_scalar_origin_of(self, entries, extra):
        archive = RibArchive()
        archive.add(RibSnapshot((2016, 1), entries))
        probes = self.probes(entries, extra)
        for day in (datetime.date(2015, 12, 31), datetime.date(2016, 3, 1)):
            assert archive.origins_of(probes, day).tolist() == [
                archive.origin_of(int(address), day).number for address in probes
            ]

    def test_flattened_on_first_lookup_not_on_construction(self):
        snapshot = RibSnapshot(
            (2016, 1), [RibEntry(Prefix.parse("10.0.0.0/8"), asns.AKAMAI.number)]
        )
        assert snapshot._flat is None
        assert snapshot.origin_of(ip_to_int("10.1.2.3")) == asns.AKAMAI  # scalar: trie
        assert snapshot._flat is None
        empty = np.empty(0, dtype=np.int64)
        assert snapshot.origins_of(empty).size == 0 and snapshot._flat is not None
        assert snapshot.origins_of(
            np.array([ip_to_int("10.1.2.3"), ip_to_int("11.0.0.0")])
        ).tolist() == [asns.AKAMAI.number, 0]


class TestAsnCatalog:
    def test_known_numbers(self):
        assert asns.by_number(32934) == asns.FACEBOOK
        assert asns.by_number(15169).name == "GOOGLE"

    def test_unknown_number_gets_generic_name(self):
        unknown = asns.by_number(65000)
        assert unknown.name == "AS65000"
        assert unknown.number == 65000

    def test_by_name(self):
        assert asns.by_name("akamai") == asns.AKAMAI
        assert asns.by_name("NOPE") is None

    def test_catalog_is_unique(self):
        numbers = [system.number for system in asns.all_known()]
        assert len(numbers) == len(set(numbers))
