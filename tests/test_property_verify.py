"""Property-based soundness sweep for the certifier (lamverify).

Hypothesis generates random labeled region programs and checks the
certifier's central soundness claim via the two-run secret-swap oracle:

* **Certified noninterference**: when ``main`` is certified, swapping
  the secret constant produces byte-identical observables (result,
  output, statics, audit) under the interpreter, the table-driven JIT,
  and tier-2 — both for the plain build and with certified barrier
  elimination enabled.
* **Elimination transparency**: ``optimize_barriers="certified"`` never
  changes observables, even on programs the certifier rejects (their
  barriers simply stay).
* **Negative control**: the planted-leak shape is uncertified, draws
  LAM007, and the oracle *does* distinguish the swapped secrets — so a
  certifier bug that certified it would be caught, not vacuous.
"""

from __future__ import annotations

from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.analysis import run_verify, swap_check
from repro.analysis.secretswap import (
    MODES,
    SECRET_PLACEHOLDER,
    collect_observables,
)
from repro.jit.parser import parse_program

BINOPS = ["add", "sub", "mul", "bxor", "band", "bor"]


@st.composite
def certified_swap_template(draw) -> str:
    """A template whose ``main`` should certify: the secret is stored in
    a shared cell and consumed only inside a straight-line secrecy
    region that writes derived values into a *fresh* object.  No thread
    is ever spawned, and only public constants reach print/ret."""
    tally_body = ["  getfield x, c, val", "  new t, Total"]
    reg = "x"
    for i in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(BINOPS))
        tally_body.append(f"  const k{i}, {draw(st.integers(1, 9))}")
        tally_body.append(f"  binop x{i}, {op}, {reg}, k{i}")
        reg = f"x{i}"
    tally_body.append(f"  putfield t, sum, {reg}")

    main_tail: list[str] = []
    for i in range(draw(st.integers(0, 3))):
        main_tail.append(f"  const p{i}, {draw(st.integers(0, 99))}")
        main_tail.append(f"  print p{i}")
    ok = draw(st.integers(0, 9))

    return "\n".join(
        [
            "class Cell { val }",
            "class Total { sum }",
            "",
            "region method tally(c) secrecy(pay) {",
            "entry:",
            *tally_body,
            "  ret",
            "}",
            "",
            "method main() {",
            "entry:",
            "  new c, Cell",
            f"  const s, {SECRET_PLACEHOLDER}",
            "  putfield c, val, s",
            "  call _, tally, c",
            *main_tail,
            f"  const ok, {ok}",
            "  ret ok",
            "}",
        ]
    )


@st.composite
def region_program(draw) -> str:
    """A region program that may or may not certify — reads and writes
    of the unlabeled parameter mix with fresh-object traffic, so some
    draws violate IFC (open obligations, runtime exceptions) and some
    are clean.  Used to check elimination transparency on both."""
    body: list[str] = ["  new f, Total", "  const k, 7"]
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(
            st.sampled_from(["read_param", "write_param", "fresh", "math"])
        )
        if kind == "read_param":
            body.append("  getfield t, c, val")
        elif kind == "write_param":
            body.append("  putfield c, val, k")
        elif kind == "fresh":
            body += ["  putfield f, sum, k", "  getfield k, f, sum"]
        else:
            op = draw(st.sampled_from(BINOPS))
            body.append(f"  binop k, {op}, k, k")
    attr = draw(st.sampled_from(["secrecy(pay)", "integrity(pay)"]))
    return "\n".join(
        [
            "class Cell { val }",
            "class Total { sum }",
            "",
            f"region method work(c) {attr} {{",
            "entry:",
            *body,
            "  ret",
            "}",
            "",
            "method main() {",
            "entry:",
            "  new c, Cell",
            f"  const v, {draw(st.integers(0, 50))}",
            "  putfield c, val, v",
            "  call _, work, c",
            "  getfield out, c, val",
            "  print out",
            "  ret out",
            "}",
        ]
    )


PLANTED_LEAK_TEMPLATE = (
    Path("tests/fixtures/planted_leak.ir")
    .read_text()
    .replace("const secret, 7777", f"const secret, {SECRET_PLACEHOLDER}")
)


class TestCertifiedNoninterference:
    @settings(max_examples=15, deadline=None)
    @given(certified_swap_template(), st.integers(0, 10_000), st.integers(0, 10_000))
    def test_certified_main_is_swap_indistinguishable(self, template, a, b):
        program = parse_program(template.replace(SECRET_PLACEHOLDER, "0"))
        report = run_verify(program)
        assert "main" in report.certified(), (
            f"strategy drift: main no longer certifies on:\n{template}"
        )
        assert not report.errors
        divergences = swap_check(template, a, b)
        assert divergences == {}, (
            f"certified program distinguishable:\n{divergences}\n{template}"
        )

    @settings(max_examples=10, deadline=None)
    @given(certified_swap_template(), st.integers(0, 10_000))
    def test_certified_elimination_preserves_indistinguishability(
        self, template, a
    ):
        divergences = swap_check(
            template, a, a + 1, optimize_barriers="certified"
        )
        assert divergences == {}, (
            f"certified-elim build distinguishable:\n{divergences}\n{template}"
        )


class TestEliminationTransparency:
    @settings(max_examples=20, deadline=None)
    @given(region_program())
    def test_certified_elim_never_changes_observables(self, source):
        for mode in MODES:
            plain = collect_observables(source, mode=mode)
            elim = collect_observables(
                source, mode=mode, optimize_barriers="certified"
            )
            assert plain.diff(elim) == [], (
                f"certified elimination changed {mode} observables on:\n"
                f"{source}"
            )


class TestNegativeControl:
    def test_planted_leak_is_rejected_and_distinguishable(self):
        program = parse_program(
            PLANTED_LEAK_TEMPLATE.replace(SECRET_PLACEHOLDER, "7777")
        )
        report = run_verify(program)
        assert "LAM007" in report.codes
        assert report.certified() == frozenset()
        # The oracle really can see the leak: the snooped print carries
        # the secret, so the two runs diverge (at least in output).
        divergences = swap_check(
            PLANTED_LEAK_TEMPLATE, 1111, 2222, modes=("interp",)
        )
        assert divergences, "oracle failed to distinguish a genuine leak"
        assert any("output" in d for d in divergences["interp"])
