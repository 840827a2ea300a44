"""The lockset + happens-before label-race detector (repro.analysis.races)."""

from pathlib import Path

from repro.analysis import detect_races
from repro.jit.parser import parse_program


def races_of(source: str):
    return detect_races(parse_program(source))


class TestFixtures:
    def test_label_race_fixture_is_lam007(self):
        report = races_of(Path("tests/fixtures/label_race.ir").read_text())
        assert "LAM007" in {d.code for d in report.diagnostics}
        assert report.implicated

    def test_region_write_race_fixture_is_lam008(self):
        report = races_of(Path("tests/fixtures/region_write_race.ir").read_text())
        codes = {d.code for d in report.diagnostics}
        assert "LAM008" in codes
        assert "LAM007" not in codes


class TestHappensBefore:
    def test_join_before_access_is_not_a_race(self):
        report = races_of("""
        class Cell { val }
        method snoop(c) {
        entry:
          getfield v, c, val
          print v
          ret
        }
        region method tally(c) secrecy(pay) {
        entry:
          getfield x, c, val
          ret
        }
        method main() {
        entry:
          new c, Cell
          const s, 7
          putfield c, val, s
          spawn h, snoop, c
          join h
          call _, tally, c
          ret
        }
        """)
        assert report.diagnostics == []
        assert not report.implicated

    def test_access_while_pending_is_a_race(self):
        report = races_of("""
        class Cell { val }
        method snoop(c) {
        entry:
          getfield v, c, val
          print v
          ret
        }
        region method tally(c) secrecy(pay) {
        entry:
          getfield x, c, val
          const y, 1
          ret
        }
        method main() {
        entry:
          new c, Cell
          const s, 7
          putfield c, val, s
          spawn h, snoop, c
          call _, tally, c
          join h
          ret
        }
        """)
        # Read/read on c.val is not a conflict, but main's putfield
        # races with... nothing (putfield happens before spawn), and
        # snoop never writes.  The label contexts differ (snoop is
        # label-free, tally governed by pay) but with no write there is
        # no race at all.
        assert report.diagnostics == []

    def test_write_while_pending_differing_contexts_is_lam007(self):
        report = races_of("""
        class Cell { val }
        method scrub(c) {
        entry:
          const z, 0
          putfield c, val, z
          ret
        }
        region method tally(c) secrecy(pay) {
        entry:
          getfield x, c, val
          ret
        }
        method main() {
        entry:
          new c, Cell
          const s, 7
          putfield c, val, s
          spawn h, scrub, c
          call _, tally, c
          join h
          ret
        }
        """)
        codes = {d.code for d in report.diagnostics}
        assert "LAM007" in codes
        assert {"scrub", "tally"} <= set(report.implicated)

    def test_spawn_in_loop_is_self_concurrent(self):
        report = races_of("""
        class Cell { val }
        method bump(c) {
        entry:
          getfield v, c, val
          const one, 1
          binop w, add, v, one
          putfield c, val, w
          ret
        }
        method main() {
        entry:
          new c, Cell
          const i, 0
          const n, 3
          jmp head
        head:
          binop go, lt, i, n
          br go, body, done
        body:
          spawn h, bump, c
          const one, 1
          binop i, add, i, one
          jmp head
        done:
          ret
        }
        """)
        # Two unjoined bump instances race with each other; both label
        # contexts are empty, so this is a plain data race, not a label
        # race — no LAM007/LAM008 diagnostic, but still implicated.
        assert {d.code for d in report.diagnostics} <= {"LAM007", "LAM008"}
        assert report.plain_races
        assert "bump" in report.implicated


class TestLocksets:
    RACY = """
    class Cell { val }
    method scrub(c) {
    entry:
      const z, 0
      putfield c, val, z
      ret
    }
    region method tally(c) secrecy(pay) {
    entry:
      getfield x, c, val
      ret
    }
    method main() {
    entry:
      new c, Cell
      const s, 7
      putfield c, val, s
      spawn h, scrub, c
      call _, tally, c
      join h
      ret
    }
    """

    LOCKED = """
    class Cell { val }
    method scrub(c) {
    entry:
      lock c
      const z, 0
      putfield c, val, z
      unlock c
      ret
    }
    region method tally(c) secrecy(pay) {
    entry:
      lock c
      getfield x, c, val
      unlock c
      ret
    }
    method main() {
    entry:
      new c, Cell
      const s, 7
      putfield c, val, s
      spawn h, scrub, c
      call _, tally, c
      join h
      ret
    }
    """

    def test_common_lock_suppresses_the_race(self):
        assert races_of(self.RACY).diagnostics
        report = races_of(self.LOCKED)
        assert report.diagnostics == []
        assert not report.implicated

    def test_disjoint_locks_do_not_suppress(self):
        # Heap objids are conflated by canonical(), so use a static-named
        # lock on one side — statics stay exact — against the cell lock
        # on the other: provably disjoint, so the race survives.
        report = races_of("""
        class Cell { val }
        method scrub(c) {
        entry:
          getstatic g, G
          lock g
          const z, 0
          putfield c, val, z
          unlock g
          ret
        }
        region method tally(c) secrecy(pay) {
        entry:
          lock c
          getfield x, c, val
          unlock c
          ret
        }
        method main() {
        entry:
          new c, Cell
          const s, 7
          putfield c, val, s
          spawn h, scrub, c
          call _, tally, c
          join h
          ret
        }
        """)
        assert "LAM007" in {d.code for d in report.diagnostics}


class TestImplicatedMap:
    def test_implicated_carries_human_notes(self):
        report = races_of(Path("tests/fixtures/label_race.ir").read_text())
        for method, notes in report.implicated.items():
            assert notes, method
            assert all(isinstance(n, str) for n in notes)
