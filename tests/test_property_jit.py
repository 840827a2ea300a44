"""Property-based differential testing of the mini-JIT.

Hypothesis generates random (but well-formed) IR programs — straight-line
arithmetic, field traffic on a generated class, array traffic, and
branches — and checks the compiler's central meta-properties:

* **Config equivalence**: baseline, static, and dynamic configurations
  compute identical results on barrier-clean programs.
* **Optimization soundness**: barrier elimination, inlining, copy
  propagation, and cloning preserve results and never *increase* the
  number of executed barriers.
* **Round trip**: disassemble ∘ parse is the identity on barrier-free
  programs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import vanilla_kernel
from repro.jit import (
    Compiler,
    Interpreter,
    JITConfig,
    count_barriers,
    parse_program,
)
from repro.jit.disasm import disassemble
from repro.runtime import LaminarVM

REGISTERS = ["r0", "r1", "r2", "r3"]
FIELDS = ("fa", "fb")
BINOPS = ["add", "sub", "mul", "bxor", "band", "bor"]


@st.composite
def straightline_body(draw) -> list[str]:
    """A block of instructions keeping every register and the heap cell
    initialized before use."""
    lines = [f"const {r}, {draw(st.integers(-50, 50))}" for r in REGISTERS]
    lines.append("new obj, Gen")
    lines.append("const sz, 4")
    lines.append("newarray arr, sz")
    count = draw(st.integers(1, 12))
    for _ in range(count):
        kind = draw(st.sampled_from(["binop", "put", "get", "astore", "aload", "mov"]))
        dst = draw(st.sampled_from(REGISTERS))
        src = draw(st.sampled_from(REGISTERS))
        if kind == "binop":
            op = draw(st.sampled_from(BINOPS))
            lines.append(f"binop {dst}, {op}, {src}, {draw(st.sampled_from(REGISTERS))}")
        elif kind == "put":
            field = draw(st.sampled_from(FIELDS))
            lines.append(f"putfield obj, {field}, {src}")
        elif kind == "get":
            field = draw(st.sampled_from(FIELDS))
            lines.append(f"getfield {dst}, obj, {field}")
        elif kind == "astore":
            lines.append("const idx, " + str(draw(st.integers(0, 3))))
            lines.append(f"astore arr, idx, {src}")
        elif kind == "aload":
            lines.append("const idx, " + str(draw(st.integers(0, 3))))
            lines.append(f"aload {dst}, arr, idx")
        else:
            lines.append(f"mov {dst}, {src}")
    return lines


@st.composite
def random_program(draw) -> str:
    """Either a straight-line main, or a branchy one with a join, plus an
    optional small helper method that main calls."""
    body = draw(straightline_body())
    branchy = draw(st.booleans())
    helper = draw(st.booleans())
    parts = ["class Gen { fa, fb }"]
    if helper:
        parts.append(
            "method helper(o) {\nentry:\n"
            "  getfield h, o, fa\n"
            "  binop h, add, h, h\n"
            "  putfield o, fb, h\n"
            "  ret h\n}"
        )
    main_lines = ["method main() {", "entry:"]
    main_lines += [f"  {line}" for line in body]
    if helper:
        main_lines.append("  call r0, helper, obj")
    if branchy:
        main_lines += [
            "  binop cond, lt, r0, r1",
            "  br cond, left, right",
            "left:",
            "  getfield r2, obj, fa",
            "  jmp join",
            "right:",
            "  getfield r3, obj, fb",
            "  jmp join",
            "join:",
        ]
    main_lines += [
        "  binop out, add, r0, r1",
        "  binop out, bxor, out, r2",
        "  binop out, add, out, r3",
        "  getfield t, obj, fa",
        "  binop out, add, out, t",
        "  getfield t, obj, fb",
        "  binop out, bxor, out, t",
        "  ret out",
        "}",
    ]
    parts.append("\n".join(main_lines))
    return "\n\n".join(parts)


def _run(program) -> tuple[object, int]:
    vm = LaminarVM(vanilla_kernel())
    interp = Interpreter(program, vm)
    return interp.run("main"), vm.barriers.stats.total


class TestConfigEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(random_program())
    def test_all_configs_agree(self, source):
        results = set()
        for config in JITConfig:
            program, _ = Compiler(config).compile(source)
            results.add(_run(program)[0])
        assert len(results) == 1, f"configs disagree on:\n{source}"

    @settings(max_examples=40, deadline=None)
    @given(random_program())
    def test_cloning_preserves_results(self, source):
        plain, _ = Compiler(JITConfig.STATIC, clone=False).compile(source)
        cloned, _ = Compiler(JITConfig.STATIC, clone=True).compile(source)
        assert _run(plain)[0] == _run(cloned)[0]


class TestOptimizationSoundness:
    @settings(max_examples=40, deadline=None)
    @given(random_program())
    def test_elimination_preserves_results_and_reduces_checks(self, source):
        unopt, _ = Compiler(
            JITConfig.DYNAMIC, optimize_barriers=False, inline=False
        ).compile(source)
        opt, _ = Compiler(
            JITConfig.DYNAMIC, optimize_barriers=True, inline=False
        ).compile(source)
        r_unopt, barriers_unopt = _run(unopt)
        r_opt, barriers_opt = _run(opt)
        assert r_unopt == r_opt, f"elimination changed semantics on:\n{source}"
        assert barriers_opt <= barriers_unopt

    @settings(max_examples=40, deadline=None)
    @given(random_program())
    def test_inlining_preserves_results(self, source):
        plain, _ = Compiler(JITConfig.BASELINE, inline=False).compile(source)
        inlined, _ = Compiler(JITConfig.BASELINE, inline=True).compile(source)
        assert _run(plain)[0] == _run(inlined)[0], (
            f"inlining changed semantics on:\n{source}"
        )

    @settings(max_examples=30, deadline=None)
    @given(random_program())
    def test_static_barrier_counts_match_dynamic(self, source):
        """Insertion is context-independent: the same accesses get
        barriers under both strategies (flavor aside), so the *static*
        barrier count matches."""
        static, _ = Compiler(
            JITConfig.STATIC, clone=False, inline=False,
            optimize_barriers=False,
        ).compile(source)
        dynamic, _ = Compiler(
            JITConfig.DYNAMIC, inline=False, optimize_barriers=False
        ).compile(source)
        assert count_barriers(static) == count_barriers(dynamic)


@st.composite
def region_program(draw, regions: int = 1) -> str:
    """A program with a security region, a shared helper, and (maybe) a
    catch handler — the shapes where unsound barrier elimination would be
    *observable*: a removed check skips an IFC violation, the region body
    runs further than it should, and the printed output diverges.

    With ``regions=2`` a second region method under its own tag shares
    the helper, and each region calls it first, so the helper runs under
    three label shapes (out of region and in each region), like
    battleship's ``fire``."""
    parts = [
        "class Gen { fa, fb }",
        "method helper(o) {\nentry:\n"
        "  getfield h, o, fa\n"
        "  binop h, add, h, h\n"
        "  putfield o, fb, h\n"
        "  ret h\n}",
        "method onfail() {\nentry:\n  const m, -77\n  print m\n  ret\n}",
    ]
    calls = []
    for n, tag in enumerate(("s", "u")[:regions]):
        attrs = [f"secrecy({tag})", f"integrity({tag})"]
        if regions == 1:
            attrs.append("")
        name = "work" if n == 0 else f"work{n + 1}"
        calls.append(f"  call _, {name}, b\n")
        attr = draw(st.sampled_from(attrs))
        parts.append(_region_method(draw, name, attr, shared=regions > 1))
    parts.append(
        "method main() {\nentry:\n"
        "  new b, Gen\n"
        "  const v, 3\n"
        "  putfield b, fa, v\n"
        "  call r, helper, b\n"
        + "".join(calls)
        + "  getfield t, b, fb\n"
        "  print t\n"
        "  ret r\n}"
    )
    return "\n\n".join(parts)


def _region_method(draw, name: str, attr: str, shared: bool) -> str:
    catch = draw(st.booleans())
    header = f"region method {name}(b) {attr}" + (
        " catch(onfail)" if catch else ""
    )
    body: list[str] = ["  new f, Gen", "  const k, 7", "  putfield f, fa, k"]
    if shared:
        body.append("  call h, helper, f")
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(
            st.sampled_from(
                ["read_param", "write_param", "fresh", "print", "helper"]
            )
        )
        if kind == "read_param":
            # Throws under integrity governance (unlabeled source).
            body += ["  getfield t, b, fa", "  print t"]
        elif kind == "write_param":
            # Throws under secrecy governance (unlabeled target).
            body.append("  putfield b, fb, k")
        elif kind == "fresh":
            # Always fine: the fresh object inherits the region's labels.
            body += ["  getfield t, f, fa", "  putfield f, fb, t"]
        elif kind == "print":
            body += [f"  const p, {draw(st.integers(0, 9))}", "  print p"]
        else:
            body.append("  call h, helper, f")
    return header + " {\nentry:\n" + "\n".join(body) + "\n  ret\n}"


def _observe(program) -> tuple[object, list, str | None]:
    """Result, printed output, and escaped-exception type of a run."""
    from repro.core import CapabilitySet

    vm = LaminarVM(vanilla_kernel())
    if program.tags:
        vm.current_thread.gain_capabilities(
            CapabilitySet.dual(*program.tags.values())
        )
    interp = Interpreter(program, vm)
    try:
        result = interp.run("main")
        exc = None
    except Exception as error:  # noqa: BLE001 - differential capture
        result = None
        exc = type(error).__name__
    return result, list(interp.output), exc


ELIM_MODES = (False, True, "interprocedural")


class TestEliminationEquivalence:
    """ISSUE acceptance property: for random IR programs, interpreter
    results and security-exception behavior are identical with and
    without barrier elimination — including the interprocedural pass."""

    @settings(max_examples=40, deadline=None)
    @given(random_program())
    def test_plain_programs_agree_across_modes(self, source):
        observations = []
        executed = []
        for mode in ELIM_MODES:
            program, _ = Compiler(
                JITConfig.DYNAMIC, optimize_barriers=mode, inline=False
            ).compile(source)
            vm = LaminarVM(vanilla_kernel())
            interp = Interpreter(program, vm)
            observations.append((interp.run("main"), list(interp.output)))
            executed.append(vm.barriers.stats.total)
        assert observations[0] == observations[1] == observations[2], (
            f"elimination changed semantics on:\n{source}"
        )
        # Each stronger pass removes checks, never adds them.
        assert executed[2] <= executed[1] <= executed[0]

    @settings(max_examples=40, deadline=None)
    @given(region_program())
    def test_region_programs_agree_across_modes(self, source):
        observations = []
        for mode in ELIM_MODES:
            program, _ = Compiler(
                JITConfig.DYNAMIC, optimize_barriers=mode, inline=False
            ).compile(source)
            observations.append(_observe(program))
        assert observations[0] == observations[1] == observations[2], (
            f"elimination changed observable security behavior on:\n{source}"
        )

    @settings(max_examples=20, deadline=None)
    @given(region_program())
    def test_region_programs_agree_with_inlining(self, source):
        baseline = None
        for mode in ELIM_MODES:
            program, _ = Compiler(
                JITConfig.DYNAMIC, optimize_barriers=mode, inline=True
            ).compile(source)
            seen = _observe(program)
            if baseline is None:
                baseline = seen
            assert seen == baseline, (
                f"inline + elimination changed behavior on:\n{source}"
            )


class TestDisassemblerRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(random_program())
    def test_parse_disassemble_parse_fixpoint(self, source):
        program = parse_program(source)
        text = disassemble(program)
        reparsed = parse_program(text)
        assert disassemble(reparsed) == text
        assert _run(program)[0] == _run(reparsed)[0]
