"""Calendar (Section 7.3): multi-user meeting scheduling over labeled files.

Modeled on the paper's k5nCal retrofit: every user's calendar data — both
the ``.ics`` file on disk and the in-memory data structures parsed from it
— carries the user's secrecy tag.  All functions that touch calendar data
are wrapped in security regions, including the scheduler that finds common
meeting times.  The paper's experiment:

    "Our experiments measure the time to schedule a meeting, which
    includes reading the labeled calendars of Bob and Alice, finding a
    common meeting date, and then writing the date to another labeled
    file that Alice can read.  The scheduling code is executed in a
    thread that has the capability to read data for both Alice and Bob,
    but can only declassify Bob's data.  The output file is protected by
    the label of Alice.  Our experiment schedules 1,000 meetings."

The ``.ics`` wire format here is one busy slot per line (``DAY HH``), which
round-trips through the labeled filesystem like the paper's files round-trip
through ext3 xattrs.

The unmodified variant lets any code read any user's calendar (the paper
disabled exactly this "view other users' calendars" feature).
"""

from __future__ import annotations

import random
from typing import Optional

from ..core import CapabilitySet, IFCViolation, Label, LabelPair, Tag
from ..osim.kernel import Kernel
from ..runtime.api import LaminarAPI
from ..runtime.barriers import BarrierMode
from ..runtime.vm import LaminarVM

DAYS = ("mon", "tue", "wed", "thu", "fri")
HOURS = tuple(range(8, 18))


def random_busy_slots(rng: random.Random, load: float = 0.55) -> set[tuple[str, int]]:
    """A user's busy slots over the work week."""
    return {
        (day, hour)
        for day in DAYS
        for hour in HOURS
        if rng.random() < load
    }


def encode_ics(slots: set[tuple[str, int]]) -> bytes:
    lines = [f"{day} {hour:02d}" for day, hour in sorted(slots)]
    return ("\n".join(lines) + "\n").encode() if lines else b""


def decode_ics(blob: bytes) -> set[tuple[str, int]]:
    slots = set()
    for line in blob.decode().splitlines():
        line = line.strip()
        if not line:
            continue
        day, hour = line.split()
        slots.add((day, int(hour)))
    return slots


def first_common_slot(
    busy_a: set[tuple[str, int]], busy_b: set[tuple[str, int]]
) -> Optional[tuple[str, int]]:
    for day in DAYS:
        for hour in HOURS:
            slot = (day, hour)
            if slot not in busy_a and slot not in busy_b:
                return slot
    return None


class UnmodifiedCalendar:
    """The original multi-user desktop calendar on an unmodified OS: plain
    ``.ics`` files, world-readable — the scheduler (or any user) can view
    anyone's calendar.  Runs on the same simulated kernel as the Laminar
    variant (with the Null security module), so the Fig. 9 comparison
    divides out the common substrate the way the paper's does."""

    def __init__(self, seed: int = 23, kernel: Optional[Kernel] = None) -> None:
        from ..osim.lsm import NullSecurityModule

        self.rng = random.Random(seed)
        self.kernel = kernel if kernel is not None else Kernel(NullSecurityModule())
        self.task = self.kernel.spawn_task("calendar")
        self.kernel.sys_mkdir(self.task, "/tmp/cal")

    def add_user(self, user: str) -> None:
        fd = self.kernel.sys_creat(self.task, f"/tmp/cal/{user}.ics")
        self.kernel.sys_write(self.task, fd, encode_ics(random_busy_slots(self.rng)))
        self.kernel.sys_close(self.task, fd)

    def _read_ics(self, path: str) -> set[tuple[str, int]]:
        fd = self.kernel.sys_open(self.task, path, "r")
        slots = decode_ics(self.kernel.sys_read(self.task, fd))
        self.kernel.sys_close(self.task, fd)
        return slots

    def view_calendar(self, viewer: str, owner: str) -> set[tuple[str, int]]:
        # No checks at all: the feature the paper disabled.
        return self._read_ics(f"/tmp/cal/{owner}.ics")

    def schedule_meeting(self, alice: str, bob: str) -> Optional[tuple[str, int]]:
        busy_a = self._read_ics(f"/tmp/cal/{alice}.ics")
        busy_b = self._read_ics(f"/tmp/cal/{bob}.ics")
        slot = first_common_slot(busy_a, busy_b)
        if slot is not None:
            out = f"/tmp/cal/meeting-{alice}-{bob}.out"
            try:
                fd = self.kernel.sys_creat(self.task, out)
            except Exception:
                fd = self.kernel.sys_open(self.task, out, "w")
            day, hour = slot
            self.kernel.sys_write(self.task, fd, f"{day} {hour:02d}\n".encode())
            self.kernel.sys_close(self.task, fd)
        return slot

    def read_meetings(self, user: str) -> list[tuple[str, int]]:
        slots: list[tuple[str, int]] = []
        for name in list(self.kernel.fs.resolve("/tmp/cal").children):
            if name.startswith(f"meeting-{user}-") and name.endswith(".out"):
                slots.extend(sorted(self._read_ics(f"/tmp/cal/{name}")))
        return slots


class LaminarCalendar:
    """The retrofitted calendar on labeled files and security regions."""

    def __init__(
        self,
        seed: int = 23,
        kernel: Optional[Kernel] = None,
        mode: BarrierMode = BarrierMode.STATIC,
    ) -> None:
        self.rng = random.Random(seed)
        self.kernel = kernel if kernel is not None else Kernel()
        self.vm = LaminarVM(self.kernel, mode=mode, name="calendar")
        self.api = LaminarAPI(self.vm)
        self.tags: dict[str, Tag] = {}
        self.user_caps: dict[str, CapabilitySet] = {}
        #: One kernel thread per user; policy enforcement rests on each
        #: thread holding only its own capabilities.
        self.user_threads: dict[str, object] = {}
        #: Scheduler threads by (alice, bob), least recently used first;
        #: at most one per user (see :meth:`schedule_meeting`).
        self._scheduler_threads: dict[tuple[str, str], object] = {}
        self.vm.syscall("mkdir", "/tmp/cal")

    # -- user management ------------------------------------------------------------

    def add_user(self, user: str) -> None:
        """Allocate the user's tag, create the labeled ``.ics`` file (while
        still unlabeled — the pre-create discipline of Section 5.2), and
        populate it inside a region."""
        tag = self.api.create_and_add_capability(user)
        self.tags[user] = tag
        self.user_caps[user] = CapabilitySet.dual(tag)
        self.user_threads[user] = self.vm.create_thread(
            name=user, caps_subset=self.user_caps[user]
        )
        pair = LabelPair(Label.of(tag))
        fd = self.api.create_file_labeled(f"/tmp/cal/{user}.ics", pair)
        slots = random_busy_slots(self.rng)
        with self.vm.region(secrecy=pair.secrecy, caps=self.user_caps[user],
                            name=f"populate-{user}"):
            self.api.write(fd, encode_ics(slots))
        self.api.close(fd)

    # -- the feature the paper disabled ------------------------------------------------

    def view_calendar(self, viewer: str, owner: str) -> set[tuple[str, int]]:
        """Only the owner (whose capabilities include her own tag) can view
        her calendar; anyone else fails at region entry or at open."""
        caps = self.user_caps[viewer]
        pair = LabelPair(Label.of(self.tags[owner]))
        out: dict[str, set] = {}
        with self.vm.running(self.user_threads[viewer]):
            with self.vm.region(secrecy=pair.secrecy, caps=caps,
                                name=f"view-{viewer}"):
                fd = self.api.open(f"/tmp/cal/{owner}.ics", "r")
                out["slots"] = decode_ics(self.api.read(fd))
                self.api.close(fd)
        if "slots" not in out:
            raise IFCViolation(f"{viewer} may not view {owner}'s calendar")
        return out["slots"]

    # -- scheduling --------------------------------------------------------------------

    def scheduler_caps(self, alice: str, bob: str) -> CapabilitySet:
        """The paper's scheduler thread: may read both calendars (both plus
        capabilities) but declassify only Bob's (only ``bob-``)."""
        return CapabilitySet.plus(self.tags[alice], self.tags[bob]).union(
            CapabilitySet.minus(self.tags[bob])
        )

    def schedule_meeting(self, alice: str, bob: str) -> Optional[tuple[str, int]]:
        """Read both labeled calendars, find a common slot, write it to an
        output file labeled for Alice.

        The scheduling region is tainted ``{S(a, b)}``; the result file
        carries ``{S(a)}``, so moving the slot there requires dropping
        ``b`` — which the scheduler can do (it holds ``b-``) — while ``a``
        never leaves Alice's label.

        The scheduler thread is kept for the pair's next meeting, but the
        calendar keeps at most one per user: a new pair beyond that ends
        the least recently used one.  Not one thread per meeting, because
        a thread's create and exit cost more than the meeting itself.
        """
        a_tag, b_tag = self.tags[alice], self.tags[bob]
        caps = self.scheduler_caps(alice, bob)
        key = (alice, bob)
        threads = self._scheduler_threads
        sched_thread = threads.pop(key, None)
        if sched_thread is None:
            if len(threads) >= len(self.tags):
                self.vm.exit_thread(threads.pop(next(iter(threads))))
            sched_thread = self.vm.create_thread(
                name=f"sched-{alice}-{bob}", caps_subset=caps
            )
        threads[key] = sched_thread
        both = Label.of(a_tag, b_tag)
        alice_pair = LabelPair(Label.of(a_tag))
        # Pre-create the output file before tainting (Section 5.2).
        out_path = f"/tmp/cal/meeting-{alice}-{bob}.out"
        scheduled: dict[str, tuple[str, int]] = {}
        with self.vm.running(sched_thread):
            try:
                out_fd = self.api.create_file_labeled(out_path, alice_pair)
            except Exception:
                out_fd = self.api.open(out_path, "w")
            with self.vm.region(secrecy=both, caps=caps, name="schedule"):
                fd_a = self.api.open(f"/tmp/cal/{alice}.ics", "r")
                busy_a = decode_ics(self.api.read(fd_a))
                self.api.close(fd_a)
                fd_b = self.api.open(f"/tmp/cal/{bob}.ics", "r")
                busy_b = decode_ics(self.api.read(fd_b))
                self.api.close(fd_b)
                slot = first_common_slot(busy_a, busy_b)
                if slot is not None:
                    proposal = self.vm.alloc(
                        {"day": slot[0], "hour": slot[1]}, name="proposal"
                    )
                    # Nested region at {S(a)}: entering drops b (needs b-).
                    with self.vm.region(
                        secrecy=Label.of(a_tag), caps=caps, name="emit"
                    ):
                        for_alice = self.api.copy_and_label(
                            proposal, secrecy=Label.of(a_tag)
                        )
                        day = for_alice.get("day")
                        hour = for_alice.get("hour")
                        self.api.write(out_fd, f"{day} {hour:02d}\n".encode())
                        scheduled["slot"] = (day, hour)
            self.api.close(out_fd)
        return scheduled.get("slot")

    def read_meetings(self, user: str) -> list[tuple[str, int]]:
        """A user reads her own meeting proposals (tainting with her tag)."""
        pair = LabelPair(Label.of(self.tags[user]))
        out: dict[str, list] = {}
        with self.vm.running(self.user_threads[user]):
            with self.vm.region(secrecy=pair.secrecy, caps=self.user_caps[user],
                                name=f"inbox-{user}"):
                slots: list[tuple[str, int]] = []
                for name in list(self.kernel.fs.resolve("/tmp/cal").children):
                    if name.startswith(f"meeting-{user}-") and name.endswith(".out"):
                        fd = self.api.open(f"/tmp/cal/{name}", "r")
                        slots.extend(sorted(decode_ics(self.api.read(fd))))
                        self.api.close(fd)
                out["slots"] = slots
        return out.get("slots", [])
