"""The hot-path enums hash by identity, in C, and still key lookups."""

import pytest

from repro.interconnect.message import TransferKind
from repro.memory.hierarchy import HitLevel
from repro.wires import WireClass
from repro.workloads.trace import OpClass

ENUMS = (WireClass, TransferKind, OpClass, HitLevel)


@pytest.mark.parametrize("enum_cls", ENUMS, ids=lambda e: e.__name__)
class TestIdentityHash:
    def test_hash_is_object_hash(self, enum_cls):
        assert enum_cls.__hash__ is object.__hash__
        for member in enum_cls:
            assert hash(member) == object.__hash__(member)

    def test_enum_keyed_dict_and_frozenset_look_up_by_member(self, enum_cls):
        members = list(enum_cls)
        table = {member: index for index, member in enumerate(members)}
        for index, member in enumerate(members):
            assert table[member] == index
            assert table[enum_cls(member.value)] == index
            assert table[enum_cls[member.name]] == index
        first = frozenset(members[:1])
        assert members[0] in first
        assert all(member not in first for member in members[1:])
        assert frozenset(members) == frozenset(reversed(members))
