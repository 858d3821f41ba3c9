"""``awk`` processor — a POSIX-awk-subset interpreter (reference
inventory row ``awk``, ``⟨upstream: internal/impl/awk/processor.go⟩``;
the upstream embeds goawk and runs the program once per message).

Scope (the classic one-liner surface): ``pattern { action }`` rules
with ``BEGIN``/``END`` blocks, ``$0``/``$N``/``$(expr)`` field refs,
``NF``/``NR``/``FS``/``OFS`` builtins, regex patterns (``/re/`` and
``~``/``!~``), comparison/arithmetic/concatenation/logical operators,
``print``/``printf`` (with partial-line buffering so consecutive
``printf`` fragments join across records, like a real stream),
``next``, ``if``/``else``, variable and ``a[key]``
associative-array assignment with ``++``/``--``/``+=`` (so
``!seen[$0]++`` dedup works), and the string functions ``length
substr index toupper tolower int sub gsub split sprintf``.  Not
implemented (fails loud at parse): ``getline``, output redirection,
user functions, field assignment (except ``$0``), ``for``/``while``
loops.

Execution model — the honest scale adjudication: a program is
classified STATELESS (only field refs, regexes, per-row prints) or
STATEFUL (uses ``NR``, ``END``, arrays, or assigns a variable that
outlives a row).  Stateless programs run as a parallel
``map_batches`` stage, one compiled program per task.  Stateful
programs are inherently one sequential pass — exactly what ``awk``
itself is — and run as an ordered driver-side stream over
``iter_batches`` (bounded memory: only printed lines accumulate per
chunk, shipped into the object store as they are produced, the same
edge pattern as :mod:`rayflow.ops.net`).  Use ``mapping`` /
``group_agg`` for anything that should scale; this op exists for
compatibility, same as the upstream's.
"""

from __future__ import annotations

import math
import re
from typing import Any

import pyarrow as pa

from rayflow.ops import register_op

# --------------------------------------------------------------------------
# lexer
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n+)
  | (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+)
  | (?P<str>"(?:\\.|[^"\\])*")
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>\+\+|--|\+=|-=|\*=|/=|%=|\^=|==|!=|<=|>=|&&|\|\||!~|[-+*/%^<>=!~$(){}\[\];,?:])
""", re.VERBOSE)


def _lex(src: str) -> list[tuple[str, str]]:
    """Tokenize; ``/`` is regex when an operand is expected, division
    otherwise (the standard awk lexer rule)."""
    toks: list[tuple[str, str]] = []
    i, n = 0, len(src)
    operand_ok = True                   # True → '/' starts a regex
    while i < n:
        if src[i] == "/" and operand_ok:
            j = i + 1
            buf = []
            while j < n and src[j] != "/":
                if src[j] == "\\" and j + 1 < n:
                    buf.append(src[j:j + 2])
                    j += 2
                    continue
                buf.append(src[j])
                j += 1
            if j >= n:
                raise ValueError("awk: unterminated regex literal")
            toks.append(("regex", "".join(buf)))
            i = j + 1
            operand_ok = False
            continue
        m = _TOKEN_RE.match(src, i)
        if not m:
            if src[i] == "/":           # division
                toks.append(("op", "/"))
                i += 1
                operand_ok = True
                continue
            raise ValueError(f"awk: bad character {src[i]!r} at {i}")
        i = m.end()
        kind = m.lastgroup
        if kind in ("ws", "comment"):
            continue
        text = m.group()
        if kind == "nl":
            toks.append(("nl", "\n"))
            operand_ok = True
        elif kind == "num":
            toks.append(("num", text))
            operand_ok = False
        elif kind == "str":
            toks.append(("str", text[1:-1].encode().decode("unicode_escape")))
            operand_ok = False
        elif kind == "name":
            toks.append(("name", text))
            operand_ok = text in ("print", "printf", "if", "else",
                                  "next", "in", "BEGIN", "END")
        else:
            toks.append(("op", text))
            operand_ok = text not in (")", "]", "++", "--")
    toks.append(("eof", ""))
    return toks


# --------------------------------------------------------------------------
# parser → tuple AST
# --------------------------------------------------------------------------

_FUNCS = {"length", "substr", "index", "toupper", "tolower", "int",
          "sub", "gsub", "split", "sprintf"}
_UNSUPPORTED = {"getline", "function", "while", "for", "do",
                "delete", "exit", "close", "system"}


class _Parser:
    def __init__(self, toks: list[tuple[str, str]]):
        self.toks = toks
        self.i = 0

    def peek(self) -> tuple[str, str]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def eat(self, kind: str, text: str | None = None) -> str:
        k, v = self.next()
        if k != kind or (text is not None and v != text):
            raise ValueError(f"awk: expected {text or kind}, got {v!r}")
        return v

    def skip_nl(self):
        while self.peek()[0] == "nl" or self.peek() == ("op", ";"):
            self.next()

    # ---- program -----------------------------------------------------
    def program(self):
        rules = []          # (pattern|None|'BEGIN'|'END', stmts)
        self.skip_nl()
        while self.peek()[0] != "eof":
            k, v = self.peek()
            if k == "name" and v in ("BEGIN", "END"):
                self.next()
                rules.append((v, self.block()))
            elif self.peek() == ("op", "{"):
                rules.append((None, self.block()))
            else:
                pat = self.expr()
                if self.peek() == ("op", "{"):
                    rules.append((("expr", pat), self.block()))
                else:                    # pattern-only rule → print $0
                    rules.append((("expr", pat),
                                  [("print", [("field", ("num", 0.0))])]))
            self.skip_nl()
        return rules

    def block(self):
        self.eat("op", "{")
        stmts = []
        self.skip_nl()
        while self.peek() != ("op", "}"):
            stmts.append(self.stmt())
            self.skip_nl()
        self.eat("op", "}")
        return stmts

    def stmt(self):
        k, v = self.peek()
        if k == "name" and v in _UNSUPPORTED:
            raise ValueError(f"awk: {v!r} is not supported (scope in "
                             "rayflow/ops/awk.py docstring)")
        if k == "name" and v == "print":
            self.next()
            args = []
            if self.peek()[0] not in ("nl", "eof") and \
                    self.peek() not in (("op", ";"), ("op", "}")):
                args.append(self.expr())
                while self.peek() == ("op", ","):
                    self.next()
                    args.append(self.expr())
            if not args:
                args = [("field", ("num", 0.0))]
            return ("print", args)
        if k == "name" and v == "printf":
            self.next()
            paren = self.peek() == ("op", "(")
            if paren:
                self.next()
            args = [self.expr()]
            while self.peek() == ("op", ","):
                self.next()
                args.append(self.expr())
            if paren:
                self.eat("op", ")")
            return ("printf", args)
        if k == "name" and v == "next":
            self.next()
            return ("next",)
        if k == "name" and v == "if":
            self.next()
            self.eat("op", "(")
            cond = self.expr()
            self.eat("op", ")")
            self.skip_nl()
            then = self.stmt()
            els = None
            save = self.i
            self.skip_nl()
            if self.peek() == ("name", "else"):
                self.next()
                self.skip_nl()
                els = self.stmt()
            else:
                self.i = save
            return ("if", cond, then, els)
        if self.peek() == ("op", "{"):
            return ("blk", self.block())
        return ("exprstmt", self.expr())

    # ---- expressions (precedence climbing) ----------------------------
    def expr(self):
        return self.assign()

    def assign(self):
        left = self.ternary()
        k, v = self.peek()
        if k == "op" and v in ("=", "+=", "-=", "*=", "/=", "%=", "^="):
            if left[0] not in ("var", "sub",):
                raise ValueError("awk: assignment to a non-variable")
            self.next()
            return ("assign", v, left, self.assign())
        return left

    def ternary(self):
        c = self.or_()
        if self.peek() == ("op", "?"):
            self.next()
            a = self.assign()
            self.eat("op", ":")
            b = self.assign()
            return ("if_e", c, a, b)
        return c

    def or_(self):
        l = self.and_()
        while self.peek() == ("op", "||"):
            self.next()
            l = ("or", l, self.and_())
        return l

    def and_(self):
        l = self.match_()
        while self.peek() == ("op", "&&"):
            self.next()
            l = ("and", l, self.match_())
        return l

    def match_(self):
        l = self.cmp()
        while self.peek() in (("op", "~"), ("op", "!~")):
            _, op = self.next()
            l = ("match", op, l, self.cmp())
        return l

    def cmp(self):
        l = self.concat()
        k, v = self.peek()
        if k == "op" and v in ("<", "<=", ">", ">=", "==", "!="):
            self.next()
            return ("cmp", v, l, self.concat())
        return l

    _CONCAT_STOP = {("op", x) for x in
                    (")", "]", "}", ";", ",", "?", ":", "<", "<=", ">",
                     ">=", "==", "!=", "~", "!~", "&&", "||", "=", "+=",
                     "-=", "*=", "/=", "%=", "^=")}

    def concat(self):
        l = self.add()
        while True:
            k, v = self.peek()
            if k in ("nl", "eof") or (k, v) in self._CONCAT_STOP \
                    or (k == "name" and v in ("else", "in")):
                return l
            # an operand begins here → string concatenation
            if k in ("num", "str", "regex") or k == "name" \
                    or (k == "op" and v in ("$", "(", "!", "++", "--")):
                l = ("cat", l, self.add())
            else:
                return l

    def add(self):
        l = self.mul()
        while self.peek() in (("op", "+"), ("op", "-")):
            _, op = self.next()
            l = ("arith", op, l, self.mul())
        return l

    def mul(self):
        l = self.unary()
        while self.peek() in (("op", "*"), ("op", "/"), ("op", "%")):
            _, op = self.next()
            l = ("arith", op, l, self.unary())
        return l

    def unary(self):
        k, v = self.peek()
        if (k, v) == ("op", "!"):
            self.next()
            return ("not", self.unary())
        if (k, v) == ("op", "-"):
            self.next()
            return ("neg", self.unary())
        if (k, v) == ("op", "+"):
            self.next()
            return self.unary()
        if (k, v) in (("op", "++"), ("op", "--")):
            self.next()
            tgt = self.unary()
            return ("incr", v, tgt, True)        # prefix
        return self.power()

    def power(self):
        l = self.postfix()
        if self.peek() == ("op", "^"):
            self.next()
            return ("arith", "^", l, self.unary())   # right assoc
        return l

    def postfix(self):
        e = self.primary()
        k, v = self.peek()
        if (k, v) in (("op", "++"), ("op", "--")) and \
                e[0] in ("var", "sub"):
            self.next()
            return ("incr", v, e, False)         # postfix
        return e

    def primary(self):
        k, v = self.next()
        if k == "num":
            return ("num", float(v))
        if k == "str":
            return ("lit", v)
        if k == "regex":
            # stays a regex node: the interpreter evaluates a bare
            # /re/ in boolean context as $0 ~ /re/, and sub/gsub/split
            # and ~/!~ consume it as a pattern literal
            return ("re", v)
        if (k, v) == ("op", "$"):
            return ("field", self.postfix())
        if (k, v) == ("op", "("):
            e = self.expr()
            self.eat("op", ")")
            return e
        if k == "name":
            if v in _UNSUPPORTED:
                raise ValueError(f"awk: {v!r} is not supported")
            if self.peek() == ("op", "(") and v in _FUNCS:
                self.next()
                args = []
                if self.peek() != ("op", ")"):
                    args.append(self.expr())
                    while self.peek() == ("op", ","):
                        self.next()
                        args.append(self.expr())
                self.eat("op", ")")
                return ("call", v, args)
            if self.peek() == ("op", "["):
                self.next()
                idx = [self.expr()]
                while self.peek() == ("op", ","):
                    self.next()
                    idx.append(self.expr())
                self.eat("op", "]")
                return ("sub", v, idx)
            return ("var", v)
        raise ValueError(f"awk: unexpected token {v!r}")


# --------------------------------------------------------------------------
# interpreter
# --------------------------------------------------------------------------

def _to_num(v: Any) -> float:
    if v is None:
        return 0.0
    if isinstance(v, float):
        return v
    m = re.match(r"\s*[-+]?(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+)", str(v))
    return float(m.group()) if m else 0.0


def _is_numstr(v: Any) -> bool:
    if isinstance(v, float):
        return True
    if v is None or v == "":
        return False
    try:
        float(str(v).strip())
        return True
    except ValueError:
        return False


def _to_str(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return f"{v:.6g}"                        # OFMT
    return str(v)


def _truth(v: Any) -> bool:
    if v is None:
        return False
    if isinstance(v, float):
        return v != 0.0
    return str(v) != ""


class _Next(Exception):
    pass


def _sprintf(fmt: str, vals: list) -> str:
    """awk (s)printf: coerce each arg to the type its %-spec wants."""
    coerced = []
    for spec, v in zip(re.findall(r"%[-+ #0-9.]*[a-zA-Z]", fmt), vals):
        coerced.append(int(_to_num(v)) if spec[-1] in "dioxXc"
                       else _to_num(v) if spec[-1] in "eEfgG"
                       else _to_str(v))
    return fmt % tuple(coerced)

class _AwkProgram:
    """Compiled program + per-run state.  Row state (``$0`` and the
    field list) lives on ``self`` so ``sub``/``gsub`` on ``$0`` can
    mutate the current record, like real awk."""

    def __init__(self, src: str):
        self.rules = _Parser(_lex(src)).program()
        self.stateful = self._detect_stateful()

    def _detect_stateful(self) -> bool:
        hit = [any(p in ("BEGIN", "END") for p, _ in self.rules)]

        def walk(node):
            if not isinstance(node, tuple):
                return
            if node[0] == "var" and node[1] == "NR":
                hit[0] = True
            if node[0] == "sub":                 # arrays persist
                hit[0] = True
            if node[0] in ("assign", "incr") and node[2][0] == "var" \
                    and node[2][1] not in ("FS", "OFS"):
                hit[0] = True
            for x in node:
                if isinstance(x, tuple):
                    walk(x)
                elif isinstance(x, list):
                    for y in x:
                        walk(y)

        for _p, stmts in self.rules:
            walk(("blk", stmts))
            if _p not in (None, "BEGIN", "END"):
                walk(_p[1])
        return hit[0]

    # ---- run ----------------------------------------------------------
    def start(self):
        self.vars: dict[str, Any] = {"FS": " ", "OFS": " ", "NR": 0.0}
        self.arrays: dict[str, dict] = {}
        self.out: list[str] = []
        self._partial = ""              # printf text awaiting a newline
        self._line = ""
        self._fields: list[str] = []
        for p, stmts in self.rules:
            if p == "BEGIN":
                self._exec_block(stmts)

    def _set_line(self, line: str) -> None:
        self._line = line
        fs = _to_str(self.vars.get("FS", " "))
        self._fields = line.split() if fs == " " \
            else (line.split(fs) if line else [])

    def feed(self, line: str) -> None:
        self.vars["NR"] = self.vars.get("NR", 0.0) + 1.0
        self._set_line(line)
        try:
            for p, stmts in self.rules:
                if p in ("BEGIN", "END"):
                    continue
                if p is None or _truth(self._eval(p[1])):
                    self._exec_block(stmts)
        except _Next:
            pass

    def finish(self) -> list[str]:
        self._set_line("")
        for p, stmts in self.rules:
            if p == "END":
                self._exec_block(stmts)
        if self._partial:               # printf tail without newline
            self.out.append(self._partial)
            self._partial = ""
        out, self.out = self.out, []
        return out

    def _emit(self, text: str) -> None:
        """Append raw output text; only COMPLETE lines land in
        ``self.out`` (the op drains it mid-stream), a trailing
        unterminated printf fragment carries in ``self._partial``."""
        *lines, self._partial = (self._partial + text).split("\n")
        self.out.extend(lines)

    # ---- execution ----------------------------------------------------
    def _exec_block(self, stmts):
        for s in stmts:
            self._exec(s)

    def _exec(self, s):
        op = s[0]
        if op == "print":
            ofs = _to_str(self.vars.get("OFS", " "))
            self._emit(ofs.join(
                _to_str(self._eval(a)) for a in s[1]) + "\n")
        elif op == "printf":
            vals = [self._eval(a) for a in s[1]]
            self._emit(_sprintf(_to_str(vals[0]), vals[1:]))
        elif op == "next":
            raise _Next()
        elif op == "if":
            if _truth(self._eval(s[1])):
                self._exec(s[2])
            elif s[3] is not None:
                self._exec(s[3])
        elif op == "blk":
            self._exec_block(s[1])
        elif op == "exprstmt":
            self._eval(s[1])
        else:
            raise ValueError(f"awk: bad stmt {op}")

    def _lval_get(self, t):
        if t[0] == "var":
            return self.vars.get(t[1], None)
        if t[0] == "field":
            i = int(_to_num(self._eval(t[1])))
            if i == 0:
                return self._line
            return self._fields[i - 1] if 1 <= i <= len(self._fields) \
                else ""
        name, idx = t[1], t[2]
        key = "\x1c".join(_to_str(self._eval(i)) for i in idx)
        return self.arrays.setdefault(name, {}).get(key, None)

    def _lval_set(self, t, val):
        if t[0] == "var":
            self.vars[t[1]] = val
        elif t[0] == "field":
            i = int(_to_num(self._eval(t[1])))
            if i != 0:
                raise ValueError("awk: only $0 assignment is supported "
                                 "(field rebuild is out of scope)")
            self._set_line(_to_str(val))
        else:
            name, idx = t[1], t[2]
            key = "\x1c".join(_to_str(self._eval(i)) for i in idx)
            self.arrays.setdefault(name, {})[key] = val

    def _eval(self, e) -> Any:
        op = e[0]
        if op == "num":
            return e[1]
        if op == "lit":
            return e[1]
        if op == "re":
            # bare /re/ in expression context ⇒ $0 ~ /re/
            return 1.0 if re.search(e[1], self._line) else 0.0
        if op == "var":
            if e[1] == "NF":
                return float(len(self._fields))
            return self.vars.get(e[1], None)
        if op in ("sub", "field"):
            return self._lval_get(e)
        if op == "assign":
            sym, tgt, rhs = e[1], e[2], e[3]
            val = self._eval(rhs)
            if sym != "=":
                cur = _to_num(self._lval_get(tgt))
                x = _to_num(val)
                if sym == "+=":
                    val = cur + x
                elif sym == "-=":
                    val = cur - x
                elif sym == "*=":
                    val = cur * x
                elif sym == "^=":
                    try:
                        val = float(cur ** x)
                    except ZeroDivisionError:
                        val = float("inf")
                elif x == 0.0:
                    raise ValueError("awk: division by zero")
                elif sym == "/=":
                    val = cur / x
                else:                            # %=
                    val = float(math.fmod(cur, x))
            self._lval_set(tgt, val)
            return val
        if op == "incr":
            old = _to_num(self._lval_get(e[2]))
            new = old + (1.0 if e[1] == "++" else -1.0)
            self._lval_set(e[2], new)
            return new if e[3] else old
        if op == "if_e":
            return self._eval(e[2] if _truth(self._eval(e[1])) else e[3])
        if op == "or":
            return 1.0 if (_truth(self._eval(e[1]))
                           or _truth(self._eval(e[2]))) else 0.0
        if op == "and":
            return 1.0 if (_truth(self._eval(e[1]))
                           and _truth(self._eval(e[2]))) else 0.0
        if op == "not":
            return 0.0 if _truth(self._eval(e[1])) else 1.0
        if op == "neg":
            return -_to_num(self._eval(e[1]))
        if op == "match":
            pat = e[3][1] if e[3][0] == "re" else _to_str(self._eval(e[3]))
            got = re.search(pat, _to_str(self._eval(e[2])))
            ok = got is not None
            return 1.0 if (ok if e[1] == "~" else not ok) else 0.0
        if op == "cmp":
            a = self._eval(e[2])
            b = self._eval(e[3])
            if _is_numstr(a) and _is_numstr(b):
                a, b = _to_num(a), _to_num(b)
            else:
                a, b = _to_str(a), _to_str(b)
            r = {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
                 "==": a == b, "!=": a != b}[e[1]]
            return 1.0 if r else 0.0
        if op == "cat":
            return _to_str(self._eval(e[1])) + _to_str(self._eval(e[2]))
        if op == "arith":
            a = _to_num(self._eval(e[2]))
            b = _to_num(self._eval(e[3]))
            if e[1] == "^":
                try:
                    return float(a ** b)
                except ZeroDivisionError:        # 0^-n → inf, like awk
                    return float("inf")
            if b == 0.0 and e[1] in ("/", "%"):
                raise ValueError("awk: division by zero")
            if e[1] == "%":
                return float(math.fmod(a, b))    # awk % is C fmod
            if e[1] == "+":
                return a + b
            if e[1] == "-":
                return a - b
            if e[1] == "*":
                return a * b
            return a / b
        if op == "call":
            return self._call(e[1], e[2])
        raise ValueError(f"awk: bad expr {op}")

    def _call(self, name, args):
        if name in ("sub", "gsub"):
            pat = args[0][1] if args[0][0] == "re" \
                else _to_str(self._eval(args[0]))
            rep = _to_str(self._eval(args[1]))
            tgt = args[2] if len(args) > 2 else ("field", ("num", 0.0))
            if tgt[0] not in ("var", "sub", "field"):
                raise ValueError("awk: sub/gsub target must be a "
                                 "variable or $0")
            cur = _to_str(self._lval_get(tgt))
            new, n = re.subn(pat, rep.replace("&", r"\g<0>"), cur,
                             count=0 if name == "gsub" else 1)
            self._lval_set(tgt, new)
            return float(n)
        if name == "split":
            s = _to_str(self._eval(args[0]))
            if args[1][0] != "var":
                raise ValueError("awk: split target must be an array "
                                 "name")
            fs = _to_str(self._eval(args[2])) if len(args) > 2 \
                else _to_str(self.vars.get("FS", " "))
            parts = s.split() if fs == " " \
                else (s.split(fs) if s else [])
            self.arrays[args[1][1]] = {
                _to_str(float(i + 1)): p for i, p in enumerate(parts)}
            return float(len(parts))
        ev = [self._eval(a) for a in args]
        if name == "length":
            return float(len(_to_str(ev[0]) if ev else self._line))
        if name == "substr":
            s = _to_str(ev[0])
            m = int(_to_num(ev[1]))
            start = max(m, 1) - 1
            if len(ev) > 2:
                cnt = int(_to_num(ev[2])) + min(m - 1, 0)
                return s[start:start + max(cnt, 0)]
            return s[start:]
        if name == "index":
            return float(_to_str(ev[0]).find(_to_str(ev[1])) + 1)
        if name == "toupper":
            return _to_str(ev[0]).upper()
        if name == "tolower":
            return _to_str(ev[0]).lower()
        if name == "int":
            return float(int(_to_num(ev[0])))
        if name == "sprintf":
            return _sprintf(_to_str(ev[0]), ev[1:])
        raise ValueError(f"awk: unknown function {name}")


# --------------------------------------------------------------------------
# the op
# --------------------------------------------------------------------------

def run_awk(program: str, lines: list[str]) -> list[str]:
    """One-shot helper: run ``program`` over ``lines``, return printed
    lines (the `blobl`-style CLI surface for awk)."""
    pg = _AwkProgram(program)
    pg.start()
    for ln in lines:
        pg.feed(ln)
    return pg.finish()


@register_op("awk")
def build_awk(*, program: str, column: str = "text", out: str = "text",
              fs: str | None = None):
    """``awk`` processor: run ``program`` over each row's ``column``
    string; every ``print`` emits one output row in ``out`` (rows that
    print nothing emit nothing — flat_map semantics, like awk's own
    stdout).  Stateless programs parallelize across Arrow batches;
    programs using ``NR``/``END``/arrays/persistent variables run as
    ONE ordered sequential pass (that is what awk is) — use
    ``mapping``/``group_agg`` for anything that should scale."""
    compiled = _AwkProgram(program)     # parse errors fail at build

    def apply(ds):
        if not compiled.stateful:
            def fn(t: pa.Table) -> pa.Table:
                pg = _AwkProgram(program)
                pg.start()
                if fs is not None:
                    pg.vars["FS"] = fs
                for v in t.column(column).to_pylist():
                    pg.feed("" if v is None else str(v))
                outs = pg.finish()
                return pa.table({out: pa.array(outs, pa.string())})

            return ds.map_batches(fn, batch_format="pyarrow")

        # stateful: one ordered pass, streamed in bounded chunks
        def source_pass(ds_in):
            import ray.data as rd

            pg = _AwkProgram(program)
            pg.start()
            if fs is not None:
                pg.vars["FS"] = fs
            parts = []
            for t in ds_in.iter_batches(batch_format="pyarrow",
                                        batch_size=8192):
                for v in t.column(column).to_pylist():
                    pg.feed("" if v is None else str(v))
                if pg.out:
                    chunk, pg.out = pg.out, []
                    parts.append(rd.from_arrow(
                        pa.table({out: pa.array(chunk, pa.string())})))
            tail = pg.finish()
            if tail or not parts:
                parts.append(rd.from_arrow(
                    pa.table({out: pa.array(tail, pa.string())})))
            res = parts[0]
            for p in parts[1:]:
                res = res.union(p)
            return res

        return source_pass(ds)

    return apply
