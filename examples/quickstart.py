#!/usr/bin/env python3
"""Quickstart: the paper's introductory calendar story, end to end.

Alice and Bob want to schedule a meeting while keeping their calendars
mostly secret (Sections 1 and 3.3):

1. each puts a secrecy tag on their calendar file;
2. a scheduling thread taints itself with both tags to read both files —
   and from that moment cannot write to the network or any unlabeled sink;
3. the thread computes a common slot and *declassifies only that slot*
   using the one minus-capability Alice chose to share.

Run with::

    python examples/quickstart.py
"""

from repro import (
    CapabilitySet,
    IFCViolation,
    Kernel,
    Label,
    LabelPair,
    LaminarAPI,
    LaminarVM,
    SyscallError,
)


def main() -> None:
    kernel = Kernel()
    vm = LaminarVM(kernel)
    api = LaminarAPI(vm)

    # -- Alice and Bob label their calendars -------------------------------------
    alice_tag = api.create_and_add_capability("alice")
    bob_tag = api.create_and_add_capability("bob")
    print(f"allocated tags: {alice_tag}, {bob_tag}")

    for user, tag, busy in (
        ("alice", alice_tag, "mon9 mon10 tue14"),
        ("bob", bob_tag, "mon9 tue14 wed11"),
    ):
        pair = LabelPair(Label.of(tag))
        fd = api.create_file_labeled(f"/tmp/{user}.cal", pair)
        with vm.region(secrecy=pair.secrecy, caps=CapabilitySet.dual(tag),
                       name=f"populate-{user}"):
            api.write(fd, busy.encode())
        api.close(fd)
        print(f"/tmp/{user}.cal labeled {pair!r}")

    # -- a scheduler thread with limited capabilities ----------------------------
    # It may *read* both calendars (both plus capabilities) but declassify
    # only through alice's minus capability, which she granted.
    sched_caps = CapabilitySet.plus(alice_tag, bob_tag).union(
        CapabilitySet.minus(alice_tag)
    )
    scheduler = vm.create_thread(name="scheduler", caps_subset=sched_caps)

    with vm.running(scheduler):
        with vm.region(secrecy=Label.of(alice_tag, bob_tag), caps=sched_caps,
                       name="schedule"):
            fd_a = api.open("/tmp/alice.cal", "r")
            busy_a = set(api.read(fd_a).decode().split())
            api.close(fd_a)
            fd_b = api.open("/tmp/bob.cal", "r")
            busy_b = set(api.read(fd_b).decode().split())
            api.close(fd_b)

            # Tainted with both tags: the network is now unreachable.
            try:
                api.transmit(b"calendars: " + ",".join(busy_a | busy_b).encode())
                raise AssertionError("secret data escaped!")
            except SyscallError as exc:
                print(f"network write while tainted correctly denied: {exc}")

            free = sorted({"mon9", "mon10", "tue14", "wed11", "thu15"}
                          - busy_a - busy_b)
            slot = vm.alloc({"when": free[0]}, name="slot")
            print(f"common free slot found (still secret): labels {slot.labels!r}")

            # Declassify ONLY the chosen slot.  The scheduler holds alice-,
            # so it can lower alice's tag; bob's tag would block an attempt
            # to fully declassify — demonstrate both.
            with vm.region(secrecy=Label.of(bob_tag), caps=sched_caps,
                           name="declassify"):
                try:
                    api.copy_and_label(slot)  # -> {} needs bob- too
                except IFCViolation as exc:
                    print(f"full declassification denied (no bob-): "
                          f"{type(exc).__name__}")
                for_bob = api.copy_and_label(slot, secrecy=Label.of(bob_tag))
                print(f"slot declassified to {for_bob.labels!r}: "
                      f"bob may read it")

    print("\nOutside all regions the thread is untainted again:",
          scheduler.labels)
    # Its work done, the thread ends; no peer is told, and its tid now
    # answers exactly like one that was never allocated.
    vm.exit_thread(scheduler)
    print(f"scheduler thread ended (tid {scheduler.tid} reaped)")
    print("quickstart complete.")


if __name__ == "__main__":
    main()
