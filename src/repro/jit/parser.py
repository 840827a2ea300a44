"""A small text assembler for the mini-JIT IR.

The workload programs (:mod:`repro.bench.workloads`) are written in this
format, which keeps them auditable and lets the parser itself be tested.

Grammar (line-oriented)::

    # comment                                 -- whole-line or trailing
    class Name { field, field, ... }
    [region] method name(param, param) {
    label:
        opcode operand, operand, ...
    }

Operands are registers (bare identifiers), integer/float literals, quoted
strings, ``true``/``false``/``null``, or ``_`` for "no destination" in
``call``.  Field names, class names, method names, and block labels are
bare identifiers in their respective positions.
"""

from __future__ import annotations

import re
from typing import Any

from ..core import CapabilitySet, Label, Tag
from .ir import (
    BINARY_OPS,
    Instr,
    Method,
    Opcode,
    Program,
    RegionSpec,
    UNARY_OPS,
)


class IRSyntaxError(ValueError):
    """The assembler text is malformed."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_CLASS_RE = re.compile(rf"^class\s+({_IDENT})\s*\{{(.*)\}}\s*$")
_METHOD_RE = re.compile(
    rf"^(region\s+|declassifier\s+)?method\s+({_IDENT})\s*\(([^)]*)\)\s*"
    rf"(.*?)\{{\s*$"
)
#: Region attributes between the parameter list and the opening brace:
#: ``secrecy(a, b)``, ``integrity(c)``, ``catch(handler)``.
_ATTR_RE = re.compile(r"(secrecy|integrity|catch)\s*\(([^)]*)\)")
#: First tag value handed out by the parser's per-program namespace; high
#: enough to stay clear of kernel-allocated and well-known test tags.
_TAG_BASE = 20_000_001
_LABEL_RE = re.compile(rf"^({_IDENT})\s*:\s*$")
_STRING_RE = re.compile(r'^"((?:[^"\\]|\\.)*)"$')

_KEYWORD_LITERALS = {"true": True, "false": False, "null": None}


def _strip_comment(line: str) -> str:
    """Remove a trailing ``#`` comment, respecting string literals."""
    out = []
    in_string = False
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == '"' and (i == 0 or line[i - 1] != "\\"):
            in_string = not in_string
        if ch == "#" and not in_string:
            break
        out.append(ch)
        i += 1
    return "".join(out)


def _split_operands(text: str, lineno: int) -> list[str]:
    """Split on commas outside string literals."""
    parts: list[str] = []
    current: list[str] = []
    in_string = False
    for ch in text:
        if ch == '"' and (not current or current[-1] != "\\"):
            in_string = not in_string
        if ch == "," and not in_string:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    if in_string:
        raise IRSyntaxError(lineno, "unterminated string literal")
    return parts


def parse_value(token: str, lineno: int) -> Any:
    """Parse a literal operand token into a Python value."""
    if token in _KEYWORD_LITERALS:
        return _KEYWORD_LITERALS[token]
    string = _STRING_RE.match(token)
    if string:
        return string.group(1).replace('\\"', '"').replace("\\\\", "\\")
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    raise IRSyntaxError(lineno, f"not a literal: {token!r}")


def _is_register(token: str) -> bool:
    return re.fullmatch(_IDENT, token) is not None and token not in _KEYWORD_LITERALS


def _reg(token: str, lineno: int, what: str) -> str:
    if not _is_register(token):
        raise IRSyntaxError(lineno, f"{what} must be a register, got {token!r}")
    return token


def _parse_instr(opname: str, args: list[str], lineno: int) -> Instr:
    try:
        op = Opcode(opname)
    except ValueError:
        raise IRSyntaxError(lineno, f"unknown opcode {opname!r}") from None

    def need(n: int) -> None:
        if len(args) != n:
            raise IRSyntaxError(
                lineno, f"{opname} takes {n} operands, got {len(args)}"
            )

    if op is Opcode.CONST:
        need(2)
        return Instr(op, (_reg(args[0], lineno, "dst"), parse_value(args[1], lineno)))
    if op is Opcode.MOV:
        need(2)
        return Instr(op, (_reg(args[0], lineno, "dst"), _reg(args[1], lineno, "src")))
    if op is Opcode.BINOP:
        need(4)
        if args[1] not in BINARY_OPS:
            raise IRSyntaxError(lineno, f"unknown binary op {args[1]!r}")
        return Instr(
            op,
            (
                _reg(args[0], lineno, "dst"),
                args[1],
                _reg(args[2], lineno, "lhs"),
                _reg(args[3], lineno, "rhs"),
            ),
        )
    if op is Opcode.UNOP:
        need(3)
        if args[1] not in UNARY_OPS:
            raise IRSyntaxError(lineno, f"unknown unary op {args[1]!r}")
        return Instr(
            op, (_reg(args[0], lineno, "dst"), args[1], _reg(args[2], lineno, "src"))
        )
    if op is Opcode.NEW:
        need(2)
        return Instr(op, (_reg(args[0], lineno, "dst"), args[1]))
    if op is Opcode.NEWARRAY:
        need(2)
        return Instr(op, (_reg(args[0], lineno, "dst"), _reg(args[1], lineno, "size")))
    if op is Opcode.GETFIELD:
        need(3)
        return Instr(
            op,
            (_reg(args[0], lineno, "dst"), _reg(args[1], lineno, "obj"), args[2]),
        )
    if op is Opcode.PUTFIELD:
        need(3)
        return Instr(
            op,
            (_reg(args[0], lineno, "obj"), args[1], _reg(args[2], lineno, "src")),
        )
    if op is Opcode.ALOAD:
        need(3)
        return Instr(
            op,
            (
                _reg(args[0], lineno, "dst"),
                _reg(args[1], lineno, "arr"),
                _reg(args[2], lineno, "idx"),
            ),
        )
    if op is Opcode.ASTORE:
        need(3)
        return Instr(
            op,
            (
                _reg(args[0], lineno, "arr"),
                _reg(args[1], lineno, "idx"),
                _reg(args[2], lineno, "src"),
            ),
        )
    if op is Opcode.ARRAYLEN:
        need(2)
        return Instr(op, (_reg(args[0], lineno, "dst"), _reg(args[1], lineno, "arr")))
    if op is Opcode.GETSTATIC:
        need(2)
        return Instr(op, (_reg(args[0], lineno, "dst"), args[1]))
    if op is Opcode.PUTSTATIC:
        need(2)
        return Instr(op, (args[0], _reg(args[1], lineno, "src")))
    if op is Opcode.CALL:
        if len(args) < 2:
            raise IRSyntaxError(lineno, "call needs a destination and a method")
        dst = None if args[0] == "_" else _reg(args[0], lineno, "dst")
        callee = args[1]
        call_args = tuple(_reg(a, lineno, "arg") for a in args[2:])
        return Instr(op, (dst, callee, *call_args))
    if op is Opcode.RET:
        if len(args) > 1:
            raise IRSyntaxError(lineno, "ret takes at most one operand")
        value = _reg(args[0], lineno, "src") if args else None
        return Instr(op, (value,))
    if op is Opcode.JMP:
        need(1)
        return Instr(op, (args[0],))
    if op is Opcode.BR:
        need(3)
        return Instr(op, (_reg(args[0], lineno, "cond"), args[1], args[2]))
    if op is Opcode.PRINT:
        need(1)
        return Instr(op, (_reg(args[0], lineno, "src"),))
    if op is Opcode.SPAWN:
        if len(args) < 2:
            raise IRSyntaxError(lineno, "spawn needs a handle and a method")
        dst = _reg(args[0], lineno, "handle")
        callee = args[1]
        spawn_args = tuple(_reg(a, lineno, "arg") for a in args[2:])
        return Instr(op, (dst, callee, *spawn_args))
    if op is Opcode.JOIN:
        need(1)
        return Instr(op, (_reg(args[0], lineno, "handle"),))
    if op in (Opcode.LOCK, Opcode.UNLOCK):
        need(1)
        return Instr(op, (_reg(args[0], lineno, "obj"),))
    raise IRSyntaxError(
        lineno, f"{opname!r} is compiler-internal and cannot be written by hand"
    )


def _program_tag(program: Program, name: str) -> Tag:
    """Resolve a tag name to a Tag in the program's own namespace (values
    are assigned sequentially in first-appearance order, so the mapping is
    deterministic for a given source)."""
    tag = program.tags.get(name)
    if tag is None:
        tag = Tag(_TAG_BASE + len(program.tags), name)
        program.tags[name] = tag
    return tag


def _parse_region_attrs(program: Program, text: str, lineno: int) -> RegionSpec:
    """Parse ``secrecy(...) integrity(...) catch(...)`` region attributes.

    Declared tags receive dual capabilities in the region's capability set
    (the region must be able to acquire its own labels); the embedder is
    expected to grant the entry thread the same capabilities (``lamc run``
    does this for every tag in :attr:`Program.tags`)."""
    consumed = _ATTR_RE.sub("", text).strip()
    if consumed:
        raise IRSyntaxError(lineno, f"malformed region attributes: {text!r}")
    seen: set[str] = set()
    secrecy = Label.EMPTY
    integrity = Label.EMPTY
    catch: str | None = None
    all_tags: list[Tag] = []
    for attr_match in _ATTR_RE.finditer(text):
        kind, body = attr_match.group(1), attr_match.group(2)
        if kind in seen:
            raise IRSyntaxError(lineno, f"duplicate region attribute {kind!r}")
        seen.add(kind)
        names = [n.strip() for n in body.split(",") if n.strip()]
        for n in names:
            if not re.fullmatch(_IDENT, n):
                raise IRSyntaxError(
                    lineno, f"bad name {n!r} in region attribute {kind!r}"
                )
        if kind == "catch":
            if len(names) != 1:
                raise IRSyntaxError(
                    lineno, "catch attribute takes exactly one method name"
                )
            catch = names[0]
            continue
        tags = [_program_tag(program, n) for n in names]
        all_tags.extend(tags)
        if kind == "secrecy":
            secrecy = Label(tags)
        else:
            integrity = Label(tags)
    caps = CapabilitySet.dual(*all_tags) if all_tags else CapabilitySet.EMPTY
    return RegionSpec(
        secrecy=secrecy, integrity=integrity, caps=caps, catch=catch
    )


def parse_program(text: str) -> Program:
    """Assemble ``text`` into a :class:`Program`.

    All methods are normalized (every block ends in a terminator) and
    cross-references (branch targets, callees, class names) are validated.
    """
    program = Program()
    method: Method | None = None
    block = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        class_match = _CLASS_RE.match(line)
        if class_match:
            if method is not None:
                raise IRSyntaxError(lineno, "class declaration inside a method")
            name = class_match.group(1)
            fields = tuple(
                f.strip() for f in class_match.group(2).split(",") if f.strip()
            )
            program.declare_class(name, fields)
            continue
        method_match = _METHOD_RE.match(line)
        if method_match:
            if method is not None:
                raise IRSyntaxError(lineno, "nested method declaration")
            qualifier = (method_match.group(1) or "").strip()
            is_region = qualifier == "region"
            is_declassifier = qualifier == "declassifier"
            name = method_match.group(2)
            params = tuple(
                p.strip() for p in method_match.group(3).split(",") if p.strip()
            )
            method = Method(
                name,
                params,
                is_region=is_region,
                is_declassifier=is_declassifier,
            )
            attrs = method_match.group(4).strip()
            if attrs:
                if not is_region:
                    raise IRSyntaxError(
                        lineno,
                        f"method {name!r}: region attributes on a "
                        f"non-region method",
                    )
                method.region_spec = _parse_region_attrs(
                    program, attrs, lineno
                )
            block = None
            continue
        if line == "}":
            if method is None:
                raise IRSyntaxError(lineno, "unmatched '}'")
            if not method.blocks:
                raise IRSyntaxError(lineno, f"method {method.name!r} has no blocks")
            method.normalize()
            program.add_method(method)
            method = None
            block = None
            continue
        if method is None:
            raise IRSyntaxError(lineno, f"statement outside a method: {line!r}")
        label_match = _LABEL_RE.match(line)
        if label_match:
            block = method.add_block(label_match.group(1))
            continue
        if block is None:
            block = method.add_block("entry")
        opname, _, rest = line.partition(" ")
        args = _split_operands(rest, lineno) if rest.strip() else []
        block.instrs.append(_parse_instr(opname, args, lineno))
    if method is not None:
        raise IRSyntaxError(0, f"method {method.name!r} missing closing '}}'")
    _validate(program)
    return program


def _validate(program: Program) -> None:
    for method in program.methods.values():
        spec = method.region_spec
        if spec is not None and spec.catch is not None:
            handler = program.methods.get(spec.catch)
            if handler is None:
                raise IRSyntaxError(
                    0,
                    f"{method.name}: catch handler {spec.catch!r} is not a "
                    f"method in this program",
                )
            if handler.is_region or handler.params:
                raise IRSyntaxError(
                    0,
                    f"{method.name}: catch handler {spec.catch!r} must be a "
                    f"zero-parameter non-region method",
                )
        for block in method.blocks.values():
            for target in block.successors():
                if target not in method.blocks:
                    raise IRSyntaxError(
                        0,
                        f"{method.name}/{block.label}: branch to unknown "
                        f"block {target!r}",
                    )
            for instr in block.instrs:
                if instr.op is Opcode.NEW and instr.operands[1] not in program.classes:
                    raise IRSyntaxError(
                        0,
                        f"{method.name}: new of undeclared class "
                        f"{instr.operands[1]!r}",
                    )
                if instr.op is Opcode.SPAWN:
                    callee = program.methods.get(instr.operands[1])
                    if callee is None:
                        raise IRSyntaxError(
                            0,
                            f"{method.name}: spawn of unknown method "
                            f"{instr.operands[1]!r}",
                        )
                    if callee.is_region:
                        raise IRSyntaxError(
                            0,
                            f"{method.name}: spawn of region method "
                            f"{callee.name!r} (threads start outside "
                            f"regions; the thread body may *call* one)",
                        )
                    if len(callee.params) != len(instr.operands) - 2:
                        raise IRSyntaxError(
                            0,
                            f"{method.name}: spawn of {callee.name!r} with "
                            f"{len(instr.operands) - 2} args, expected "
                            f"{len(callee.params)}",
                        )
