"""Security regions: entry rules, nesting, catch semantics, label
save/restore, the lazy VM↔OS sync, and capability scoping (Section 4.3/4.4)."""

import pytest

from repro.core import (
    CapabilitySet,
    CapType,
    Label,
    LabelPair,
    LabelChangeViolation,
    RegionViolation,
)
from repro.runtime import LaminarAPI, LaminarVM


@pytest.fixture
def setup(vm):
    api = LaminarAPI(vm)
    a = api.create_and_add_capability("a")
    b = api.create_and_add_capability("b")
    return vm, api, a, b


class TestEntryRules:
    def test_entry_with_plus_cap(self, setup):
        vm, api, a, b = setup
        with vm.region(secrecy=Label.of(a), caps=CapabilitySet.plus(a)):
            assert vm.current_thread.labels.secrecy == Label.of(a)

    def test_entry_without_cap_denied(self, setup):
        vm, api, a, b = setup
        thread = vm.create_thread(name="weak", caps_subset=CapabilitySet.EMPTY)
        with vm.running(thread):
            with pytest.raises(RegionViolation):
                with vm.region(secrecy=Label.of(a)):
                    pass

    def test_region_caps_exceeding_thread_denied(self, setup):
        vm, api, a, b = setup
        thread = vm.create_thread(name="limited", caps_subset=CapabilitySet.plus(a))
        with vm.running(thread):
            with pytest.raises(RegionViolation):
                with vm.region(caps=CapabilitySet.dual(a)):
                    pass

    def test_nested_entry_inherits_labels(self, setup):
        vm, api, a, b = setup
        caps = CapabilitySet.plus(a, b)
        with vm.region(secrecy=Label.of(a), caps=caps):
            # inner region keeps a (already held) and adds b via b+
            with vm.region(secrecy=Label.of(a, b), caps=caps):
                assert vm.current_thread.labels.secrecy == Label.of(a, b)
            assert vm.current_thread.labels.secrecy == Label.of(a)

    def test_nested_label_lowering_requires_minus(self, setup):
        vm, api, a, b = setup
        caps = CapabilitySet.plus(a, b)  # no minus caps
        outcome = {}
        with vm.region(secrecy=Label.of(a, b), caps=caps,
                       catch=lambda e: outcome.update(err=e)):
            with vm.region(secrecy=Label.of(b), caps=caps):
                outcome["entered"] = True
        assert "entered" not in outcome
        assert isinstance(outcome["err"], LabelChangeViolation)

    def test_nested_label_lowering_with_minus(self, setup):
        vm, api, a, b = setup
        caps = CapabilitySet.plus(a, b).union(CapabilitySet.minus(a))
        with vm.region(secrecy=Label.of(a, b), caps=caps):
            with vm.region(secrecy=Label.of(b), caps=caps):
                assert vm.current_thread.labels.secrecy == Label.of(b)


class TestRefusalMessages:
    """The exact text of a refused label change: the context strings are
    built only when the change is refused, and must read as before."""

    def test_region_entry_dropping_integrity(self, setup):
        vm, api, a, b = setup
        caps = CapabilitySet.plus(a, b)  # no minus caps
        outcome = {}
        with vm.region(integrity=Label.of(b), caps=caps,
                       catch=lambda e: outcome.update(err=e)):
            # Adds secrecy a (allowed by a+), drops integrity b (no b-).
            with vm.region(secrecy=Label.of(a), caps=caps, name="inner"):
                outcome["entered"] = True
        assert "entered" not in outcome
        assert type(outcome["err"]) is LabelChangeViolation
        assert str(outcome["err"]) == (
            "label change {b} -> {} drops tags {b} without the minus "
            "capability (integrity inner)"
        )

    def test_copy_and_label(self, setup):
        vm, api, a, b = setup
        errors = []
        with vm.region(secrecy=Label.of(a), caps=CapabilitySet.plus(a),
                       catch=errors.append):
            vm.copy_and_label(vm.alloc({"v": 1}))  # declassify without a-
        with vm.region(secrecy=Label.of(a), caps=CapabilitySet.plus(a),
                       catch=errors.append):
            vm.copy_and_label(  # endorse without b+
                vm.alloc({"v": 1}), secrecy=Label.of(a), integrity=Label.of(b)
            )
        assert [type(e) for e in errors] == [LabelChangeViolation] * 2
        assert [str(e) for e in errors] == [
            "label change {a} -> {} drops tags {a} without the minus "
            "capability (secrecy copyAndLabel)",
            "label change {} -> {b} adds tags {b} without the plus "
            "capability (integrity copyAndLabel)",
        ]


class TestExitRestoration:
    def test_labels_empty_outside_regions(self, setup):
        vm, api, a, b = setup
        with vm.region(secrecy=Label.of(a), caps=CapabilitySet.plus(a)):
            pass
        assert vm.current_thread.labels.is_empty

    def test_exit_without_minus_cap_still_restores(self, setup):
        vm, api, a, b = setup
        # Thread enters with only a+: cannot declassify itself, but the
        # region exit must still drop the label (the TCB mechanism).
        thread = vm.create_thread(name="t", caps_subset=CapabilitySet.plus(a))
        with vm.running(thread):
            with vm.region(secrecy=Label.of(a), caps=CapabilitySet.plus(a)):
                assert thread.labels.secrecy == Label.of(a)
            assert thread.labels.is_empty

    def test_region_cannot_change_own_labels(self, setup):
        vm, api, a, b = setup
        from repro.core import LaminarUsageError

        with vm.region(secrecy=Label.of(a), caps=CapabilitySet.dual(a)):
            frame_labels = vm.current_thread.labels
            # no API exists to mutate the region label; the only way to a
            # different label is a nested region
            assert frame_labels.secrecy == Label.of(a)


class TestCatchSemantics:
    def test_catch_runs_with_region_labels(self, setup):
        vm, api, a, b = setup
        seen = {}

        def catch(exc):
            seen["labels"] = vm.current_thread.labels
            seen["exc"] = exc

        with vm.region(secrecy=Label.of(a), caps=CapabilitySet.plus(a),
                       catch=catch):
            raise ValueError("boom")
        assert seen["labels"].secrecy == Label.of(a)
        assert isinstance(seen["exc"], ValueError)

    def test_all_exceptions_suppressed(self, setup):
        vm, api, a, b = setup
        with vm.region():
            raise RuntimeError("not visible outside")
        # control continues after the region — reaching here is the test

    def test_exception_in_catch_suppressed(self, setup):
        vm, api, a, b = setup

        def bad_catch(exc):
            raise RuntimeError("catch also failed")

        with vm.region(catch=bad_catch) as region:
            raise ValueError("original")
        assert isinstance(region.suppressed, ValueError)

    def test_suppression_hides_termination_mode(self, setup):
        """Fig. 5: code after the region cannot distinguish an execution
        where the region threw from one where it didn't."""
        vm, api, a, b = setup

        def run(secret: bool) -> str:
            low = "false"
            with vm.region(secrecy=Label.of(a), caps=CapabilitySet.plus(a)):
                if secret:
                    raise ValueError("implicit flow attempt")
            return low  # unchanged on both paths

        assert run(True) == run(False)

    def test_keyboard_interrupt_not_swallowed(self, setup):
        vm, api, a, b = setup
        with pytest.raises(KeyboardInterrupt):
            with vm.region():
                raise KeyboardInterrupt

    def test_stats_count_exceptions(self, setup):
        vm, api, a, b = setup
        before = vm.stats.region_exceptions
        with vm.region():
            raise ValueError
        assert vm.stats.region_exceptions == before + 1


class TestKernelSync:
    def test_no_syscall_no_sync(self, setup):
        vm, api, a, b = setup
        before = vm.stats.kernel_syncs
        with vm.region(secrecy=Label.of(a), caps=CapabilitySet.plus(a)):
            pass  # no syscalls
        assert vm.stats.kernel_syncs == before
        assert vm.current_thread.task.labels.is_empty

    def test_first_syscall_syncs_once(self, setup):
        vm, api, a, b = setup
        before = vm.stats.kernel_syncs
        with vm.region(secrecy=Label.of(a), caps=CapabilitySet.dual(a)):
            fd = api.create_file_labeled("/tmp/sync1", LabelPair(Label.of(a)))
            assert vm.current_thread.task.labels.secrecy == Label.of(a)
            api.write(fd, b"x")
            api.close(fd)
        assert vm.stats.kernel_syncs == before + 1
        assert vm.current_thread.task.labels.is_empty

    def test_restore_happens_only_if_synced(self, setup):
        vm, api, a, b = setup
        before = vm.stats.kernel_restores
        with vm.region(secrecy=Label.of(a), caps=CapabilitySet.plus(a)):
            pass
        assert vm.stats.kernel_restores == before

    def test_nested_sync_restores_outer_kernel_state(self, setup):
        vm, api, a, b = setup
        caps = CapabilitySet.dual(a, b)
        with vm.region(secrecy=Label.of(a), caps=caps):
            vm.syscall("stat", "/tmp")  # sync outer
            assert vm.current_thread.task.labels.secrecy == Label.of(a)
            with vm.region(secrecy=Label.of(a, b), caps=caps):
                vm.syscall("stat", "/tmp")  # sync inner
                assert vm.current_thread.task.labels.secrecy == Label.of(a, b)
            assert vm.current_thread.task.labels.secrecy == Label.of(a)
        assert vm.current_thread.task.labels.is_empty


class TestCapabilityScoping:
    def test_gains_inside_region_persist_after_exit(self, setup):
        vm, api, a, b = setup
        with vm.region(caps=vm.current_thread.capabilities):
            fresh = api.create_and_add_capability("fresh")
        assert vm.current_thread.capabilities.can_add(fresh)
        assert vm.current_thread.capabilities.can_remove(fresh)

    def test_scoped_drop_restored_at_exit(self, setup):
        vm, api, a, b = setup
        caps = CapabilitySet.dual(a)
        with vm.region(caps=caps):
            api.remove_capability(CapType.MINUS, a, global_=False)
            assert not vm.current_thread.capabilities.can_remove(a)
        assert vm.current_thread.capabilities.can_remove(a)

    def test_global_drop_survives_exit(self, setup):
        vm, api, a, b = setup
        caps = CapabilitySet.dual(a)
        with vm.region(caps=caps):
            api.remove_capability(CapType.MINUS, a, global_=True)
        assert not vm.current_thread.capabilities.can_remove(a)

    def test_global_drop_not_resurrected_by_kernel_restore(self, setup):
        vm, api, a, b = setup
        caps = CapabilitySet.dual(a)
        with vm.region(caps=caps):
            vm.syscall("stat", "/tmp")  # force kernel sync + snapshot
            api.remove_capability(CapType.MINUS, a, global_=True)
        assert not vm.current_thread.task.capabilities.can_remove(a)

    def test_region_capability_narrowing(self, setup):
        vm, api, a, b = setup
        with vm.region(caps=CapabilitySet.plus(a)):
            assert not vm.current_thread.capabilities.can_remove(a)
            assert not vm.current_thread.capabilities.can_add(b)
        assert vm.current_thread.capabilities.can_remove(a)


class TestThreadCreation:
    def test_create_thread_inside_region_rejected(self, setup):
        vm, api, a, b = setup
        from repro.core import LaminarUsageError

        seen = {}
        with vm.region(catch=lambda e: seen.update(err=e)):
            vm.create_thread("nested")
        assert isinstance(seen["err"], LaminarUsageError)

    def test_child_capability_subset(self, setup):
        vm, api, a, b = setup
        child = vm.create_thread("child", caps_subset=CapabilitySet.plus(a))
        assert child.capabilities == CapabilitySet.plus(a)
