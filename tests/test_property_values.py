"""Property tests for the two immutable value types on the check path.

* :class:`LabelPair` is hash-consed like :class:`Label`: construction,
  ``copy``, ``deepcopy`` and pickling all land on the canonical instance
  while ``label_interning`` is on; with it off, or past the table bound,
  pairs are distinct objects that still compare and hash by value.
* :class:`CapabilitySet` is checked against a reference model kept here:
  a frozenset of ``(tag, kind)`` pairs.  Every query and algebra
  operation, iteration order, ``repr``, ``__reduce__``, the lamwire
  ``T_CAPSET`` bytes and the persisted capability-file bytes must agree
  with what the model implies.
"""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    Capability,
    CapabilitySet,
    CapType,
    Label,
    LabelPair,
    Tag,
    fastpath,
)
from repro.core import labels as labels_module
from repro.osim import lamwire
from repro.osim.persistence import encode_capabilities

#: One Tag object per value, as the allocator hands them out.
TAG_POOL = [Tag(i, f"t{i}") for i in (1, 2, 3, 5, 127, 128, 300, 70000)]

tag_lists = st.lists(st.sampled_from(TAG_POOL), max_size=5)
labels = tag_lists.map(Label)
cap_kinds = st.sampled_from([CapType.PLUS, CapType.MINUS])
models = st.frozensets(st.tuples(st.sampled_from(TAG_POOL), cap_kinds), max_size=10)


# -- LabelPair ---------------------------------------------------------------


class TestCanonicalLabelPair:
    @given(labels, labels)
    def test_constructor_returns_the_canonical_pair(self, s, i):
        pair = LabelPair(s, i)
        assert LabelPair(s, i) is pair
        assert LabelPair(Label(s.tags()), Label(i.tags())) is pair

    @given(labels, labels)
    def test_copy_deepcopy_and_pickle_return_the_canonical_pair(self, s, i):
        pair = LabelPair(s, i)
        assert copy.copy(pair) is pair
        assert copy.deepcopy(pair) is pair
        assert pickle.loads(pickle.dumps(pair)) is pair
        # The copy protocol never touches the shared empty pair.
        assert LabelPair.EMPTY.secrecy is Label.EMPTY
        assert LabelPair.EMPTY.integrity is Label.EMPTY
        assert LabelPair.EMPTY.is_empty

    @given(labels, labels)
    def test_is_empty_matches_the_components(self, s, i):
        assert LabelPair(s, i).is_empty == (s.is_empty and i.is_empty)

    @given(labels, labels)
    def test_interning_off_gives_distinct_equal_pairs(self, s, i):
        with fastpath.configured(label_interning=False):
            a = LabelPair(Label(s.tags()), Label(i.tags()))
            b = LabelPair(Label(s.tags()), Label(i.tags()))
            assert a is not b
            assert a == b and hash(a) == hash(b)
            assert a.is_empty == b.is_empty
            assert copy.deepcopy(a) == a
            assert pickle.loads(pickle.dumps(a)) == a

    @given(labels, labels)
    def test_clear_caches_keeps_empty_canonical_and_values_equal(self, s, i):
        old = LabelPair(s, i)
        fastpath.clear_caches()
        assert LabelPair() is LabelPair.EMPTY
        assert LabelPair(Label(), Label()) is LabelPair.EMPTY
        new = LabelPair(Label(s.tags()), Label(i.tags()))
        assert new == old and old == new
        assert hash(new) == hash(old)
        assert LabelPair(new.secrecy, new.integrity) is new

    def test_construction_works_past_the_table_bound(self, monkeypatch):
        monkeypatch.setattr(labels_module, "_INTERN_BOUND", 3)
        fastpath.clear_caches()
        made = [LabelPair(Label.of(Tag(n)), Label.of(Tag(n + 1)))
                for n in range(1, 20)]
        again = [LabelPair(Label.of(Tag(n)), Label.of(Tag(n + 1)))
                 for n in range(1, 20)]
        assert made == again
        assert [hash(p) for p in made] == [hash(p) for p in again]
        assert len(labels_module._PAIR_INTERN) <= 3
        assert LabelPair() is LabelPair.EMPTY

    @pytest.mark.parametrize("name", ["secrecy", "integrity", "is_empty", "_hash"])
    def test_pairs_are_immutable(self, name):
        with pytest.raises(AttributeError):
            setattr(LabelPair(Label.of(TAG_POOL[0])), name, None)


# -- CapabilitySet against the reference model ------------------------------


def _caps(model) -> list[Capability]:
    """The model's capabilities in ``Capability.sort_key`` order."""
    ordered = sorted(model, key=lambda tk: (tk[0], tk[1].value))
    return [Capability(tag, kind) for tag, kind in ordered]


def _build(model) -> CapabilitySet:
    return CapabilitySet(Capability(tag, kind) for tag, kind in model)


def _model(caps: CapabilitySet) -> frozenset:
    return frozenset((cap.tag, cap.kind) for cap in caps)


def _has(model, tag, kind) -> bool:
    return (tag, kind) in model


def _uvarint(n: int) -> bytes:
    out = bytearray()
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


def _wire_frame(model) -> bytes:
    body = bytearray([lamwire.T_CAPSET])
    body += _uvarint(len(model))
    for cap in _caps(model):
        name = cap.tag.name.encode("utf-8")
        body += _uvarint(cap.tag.value) + _uvarint(len(name)) + name
        body += b"+" if cap.kind is CapType.PLUS else b"-"
    return lamwire.HEADER.pack(len(body)) + bytes(body)


def _capfile(model) -> bytes:
    return b"".join(
        cap.tag.value.to_bytes(8, "big")
        + (b"+" if cap.kind is CapType.PLUS else b"-")
        for cap in _caps(model)
    )


class TestCapabilitySetModel:
    @given(models, st.sampled_from(TAG_POOL), tag_lists)
    def test_queries(self, model, tag, tags):
        caps = _build(model)
        label = Label(tags)
        assert caps.can_add(tag) == _has(model, tag, CapType.PLUS)
        assert caps.can_remove(tag) == _has(model, tag, CapType.MINUS)
        assert caps.can_add_all(label) == all(
            _has(model, t, CapType.PLUS) for t in label)
        assert caps.can_remove_all(label) == all(
            _has(model, t, CapType.MINUS) for t in label)
        assert caps.plus_tags() == Label(
            t for t, k in model if k is CapType.PLUS)
        assert caps.minus_tags() == Label(
            t for t, k in model if k is CapType.MINUS)
        assert caps.plus_tags() is caps.plus_tags()
        assert len(caps) == len(model)
        for kind in (CapType.PLUS, CapType.MINUS):
            assert (Capability(tag, kind) in caps) == _has(model, tag, kind)
        assert "not a capability" not in caps

    @given(models, st.booleans())
    def test_plus_tags_outlive_a_cache_flush(self, model, interning):
        # plus_tags() is kept on the set, so it may outlive the intern
        # table that made it canonical; it must still equal Cp+ by value.
        with fastpath.configured(label_interning=interning):
            caps = _build(model)
            caps.plus_tags()
            fastpath.clear_caches()
            expected = Label(t for t, k in model if k is CapType.PLUS)
            assert caps.plus_tags() == expected
            assert hash(caps.plus_tags()) == hash(expected)
            assert expected.is_subset_of(caps.plus_tags())

    @given(models, models)
    def test_relations(self, a, b):
        x, y = _build(a), _build(b)
        assert x.is_subset_of(y) == (a <= b)
        assert (x == y) == (a == b)
        if a == b:
            assert hash(x) == hash(y)

    @given(models, models, st.sampled_from(TAG_POOL),
           st.sampled_from(list(CapType)))
    def test_algebra(self, a, b, tag, kind):
        x, y = _build(a), _build(b)
        assert _model(x.union(y)) == a | b
        assert _model(x.intersection(y)) == a & b
        assert _model(x.without_all(y)) == a - b
        kinds = ((CapType.PLUS, CapType.MINUS) if kind is CapType.BOTH
                 else (kind,))
        assert _model(x.without(tag, kind)) == a - {(tag, k) for k in kinds}
        if kind is not CapType.BOTH:
            grown = x.with_capability(Capability(tag, kind))
            assert _model(grown) == a | {(tag, kind)}
            if (tag, kind) in a:
                assert grown is x
        if b <= a:
            assert x.union(y) is x

    @given(st.lists(st.sampled_from(TAG_POOL), max_size=5))
    def test_factories(self, tags):
        plus = frozenset((t, CapType.PLUS) for t in tags)
        minus = frozenset((t, CapType.MINUS) for t in tags)
        assert _model(CapabilitySet.plus(*tags)) == plus
        assert _model(CapabilitySet.minus(*tags)) == minus
        assert _model(CapabilitySet.dual(*tags)) == plus | minus

    @given(models)
    def test_order_repr_and_reduce(self, model):
        caps = _build(model)
        expected = _caps(model)
        assert list(caps) == expected
        assert repr(caps) == "C(" + ",".join(
            f"{c.tag}{c.kind.value}" for c in expected) + ")"
        assert caps.__reduce__() == (CapabilitySet, (tuple(expected),))
        assert pickle.loads(pickle.dumps(caps)) == caps
        assert copy.deepcopy(caps) == caps

    @given(models)
    def test_wire_and_file_bytes(self, model):
        caps = _build(model)
        frame = lamwire.BinaryWireCodec().encode(caps)
        assert frame == _wire_frame(model)
        decoded, rest = lamwire.BinaryWireCodec().decode(frame)
        assert decoded == caps and rest == b""
        assert encode_capabilities(caps) == _capfile(model)

    def test_rejects_non_capabilities(self):
        with pytest.raises(TypeError):
            CapabilitySet([TAG_POOL[0]])
