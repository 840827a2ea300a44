"""Unit tests for Principal state machine and SimThread frame mechanics."""

import pytest

from repro.core import (
    Capability,
    CapabilityViolation,
    CapabilitySet,
    CapType,
    Label,
    LabelChangeViolation,
    LabelPair,
    LabelType,
    Principal,
    Tag,
)
from repro.osim.task import Task
from repro.runtime.threads import RegionFrame, SimThread

A, B = Tag(21, "a"), Tag(22, "b")


class TestPrincipal:
    def test_checked_label_change(self):
        p = Principal("p", caps=CapabilitySet.dual(A))
        p.set_label(LabelType.SECRECY, Label.of(A))
        assert p.secrecy == Label.of(A)
        p.set_label(LabelType.SECRECY, Label.EMPTY)

    def test_checked_change_denied(self):
        p = Principal("p")
        with pytest.raises(LabelChangeViolation) as err:
            p.set_label(LabelType.SECRECY, Label.of(A))
        assert str(err.value) == (
            "label change {} -> {a} adds tags {a} without the plus "
            "capability (p secrecy)"
        )

    def test_unchecked_setter_for_trusted_callers(self):
        p = Principal("p")
        p.set_labels_unchecked(LabelPair(Label.of(A), Label.of(B)))
        assert p.labels == LabelPair(Label.of(A), Label.of(B))

    def test_grant_and_drop(self):
        p = Principal("p")
        p.grant(CapabilitySet.dual(A))
        assert p.capabilities.can_add(A)
        p.drop_capability(A, CapType.BOTH)
        assert not p.capabilities.can_add(A)

    def test_require_capability(self):
        p = Principal("p", caps=CapabilitySet.plus(A))
        p.require_capability(A, CapType.PLUS)
        with pytest.raises(CapabilityViolation):
            p.require_capability(A, CapType.MINUS)
        with pytest.raises(CapabilityViolation):
            p.require_capability(A, CapType.BOTH)

    def test_holds(self):
        p = Principal("p", caps=CapabilitySet.minus(B))
        assert p.holds(Capability(B, CapType.MINUS))
        assert not p.holds(Capability(B, CapType.PLUS))


def make_thread(caps=CapabilitySet.EMPTY) -> SimThread:
    task = Task(1, "t", caps=caps)
    return SimThread(task)


class TestSimThreadFrames:
    def test_labels_empty_outside_regions(self):
        thread = make_thread()
        assert thread.labels.is_empty
        assert not thread.in_region

    def test_innermost_frame_wins(self):
        thread = make_thread()
        thread.frames.append(RegionFrame(LabelPair(Label.of(A)), CapabilitySet.EMPTY))
        thread.frames.append(RegionFrame(LabelPair(Label.of(B)), CapabilitySet.dual(B)))
        assert thread.labels.secrecy == Label.of(B)
        assert thread.capabilities == CapabilitySet.dual(B)
        assert thread.depth == 2

    def test_capabilities_fall_back_to_kernel_set(self):
        thread = make_thread(CapabilitySet.dual(A))
        assert thread.capabilities == CapabilitySet.dual(A)

    def test_gain_propagates_through_stack_and_snapshots(self):
        thread = make_thread()
        frame = RegionFrame(LabelPair.EMPTY, CapabilitySet.EMPTY)
        frame.saved_kernel_caps = CapabilitySet.EMPTY
        thread.frames.append(frame)
        thread.gain_capabilities(CapabilitySet.dual(A))
        assert thread.task.capabilities.can_add(A)
        assert frame.caps.can_add(A)
        assert frame.saved_kernel_caps.can_add(A)

    def test_scoped_drop_only_touches_top_frame(self):
        thread = make_thread(CapabilitySet.dual(A))
        outer = RegionFrame(LabelPair.EMPTY, CapabilitySet.dual(A))
        inner = RegionFrame(LabelPair.EMPTY, CapabilitySet.dual(A))
        thread.frames.extend([outer, inner])
        thread.drop_capability_scoped(A, CapType.MINUS)
        assert not inner.caps.can_remove(A)
        assert outer.caps.can_remove(A)
        assert thread.task.capabilities.can_remove(A)

    def test_scoped_drop_outside_region_rejected(self):
        thread = make_thread(CapabilitySet.dual(A))
        with pytest.raises(RuntimeError):
            thread.drop_capability_scoped(A, CapType.MINUS)

    def test_global_drop_touches_everything(self):
        thread = make_thread(CapabilitySet.dual(A))
        frame = RegionFrame(LabelPair.EMPTY, CapabilitySet.dual(A))
        frame.saved_kernel_caps = CapabilitySet.dual(A)
        thread.frames.append(frame)
        thread.drop_capability_global(A, CapType.BOTH)
        assert not thread.task.capabilities.can_add(A)
        assert not frame.caps.can_add(A)
        assert not frame.saved_kernel_caps.can_add(A)
