"""Lattice spec files: a small sectioned text format.

    [field]
    p = 2
    precision = 64
    # optional tower steps:
    unramified_poly = 1, 1        # x^2 + x + 1
    eisenstein_poly = -2, 0       # t^2 - 2 (coefficients low to high)

    [algebra]
    kind = ramified               # split | inert | ramified
    poly = -2, 0                  # x^2 + 0*x - 2 (omitted for split)

    [gram]
    0, pi
    conj(pi), 0

Gram entries are arithmetic expressions over integers and the generators
`t` (uniformizer of K), `w` (unramified generator of K) and `pi` (generator
of E); `conj(...)` is available, `/` must be exact.  Parse errors carry line
numbers.  Matrix files for `factor` use the same expression language, one
row per line.
"""

from __future__ import annotations

import ast

from .errors import HermlatError, SpecFileError
from .etale import EtaleAlgebra
from .lattice import HermitianLattice
from .localfield import LocalField


def _parse_sections(text):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections[current] = []
            continue
        if current is None:
            raise SpecFileError("content before the first section", lineno)
        sections[current].append((lineno, line))
    return sections


def _kv(entries, section):
    out = {}
    for lineno, line in entries:
        if "=" not in line:
            raise SpecFileError(f"expected key = value in [{section}]", lineno)
        key, val = line.split("=", 1)
        out[key.strip().lower()] = (lineno, val.strip())
    return out


def _int_list(val, lineno):
    try:
        return [int(x.strip()) for x in val.split(",") if x.strip()]
    except ValueError:
        raise SpecFileError("expected a comma-separated integer list", lineno)


class _ExprEval(ast.NodeVisitor):
    """Evaluate arithmetic expressions over algebra elements.

    Allowed: integers, the names t/w/pi, + - * / and unary minus, integer
    powers, and conj(...)."""

    def __init__(self, alg, lineno):
        self.alg = alg
        self.lineno = lineno

    def err(self, msg):
        return SpecFileError(msg, self.lineno)

    def visit(self, node):
        if isinstance(node, ast.Expression):
            return self.visit(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int):
                return self.alg.from_int(node.value)
            raise self.err(f"unsupported literal {node.value!r}")
        if isinstance(node, ast.Name):
            return self._name(node.id)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -self.visit(node.operand)
        if isinstance(node, ast.BinOp):
            op = node.op
            if isinstance(op, ast.Pow):
                base = self.visit(node.left)
                if not isinstance(node.right, ast.Constant) or \
                        not isinstance(node.right.value, int):
                    raise self.err("exponent must be an integer literal")
                return base ** node.right.value
            left = self.visit(node.left)
            right = self.visit(node.right)
            if isinstance(op, ast.Add):
                return left + right
            if isinstance(op, ast.Sub):
                return left - right
            if isinstance(op, ast.Mult):
                return left * right
            if isinstance(op, ast.Div):
                return left / right
            raise self.err("unsupported operator")
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "conj" \
                    and len(node.args) == 1:
                return self.visit(node.args[0]).conj()
            raise self.err("only conj(...) calls are allowed")
        raise self.err(f"unsupported syntax: {ast.dump(node)[:40]}")

    def _name(self, name):
        alg = self.alg
        K = alg.base
        if name == "t":
            return alg.from_K(K.uniformizer())
        if name == "w":
            return alg.from_K(K.gen_unramified())
        if name == "pi":
            if alg.kind == EtaleAlgebra.SPLIT:
                raise self.err("pi is not defined for the split kind")
            return alg.gen()
        raise self.err(f"unknown name {name!r}")


def parse_element(alg, text, lineno=None):
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as ex:
        raise SpecFileError(f"bad expression: {ex.msg}", lineno)
    try:
        return _ExprEval(alg, lineno).visit(tree)
    except HermlatError:
        raise
    except RecursionError:
        raise SpecFileError("expression too deep", lineno)


def _split_row(line, lineno):
    parts = []
    depth = 0
    cur = []
    for ch in line:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur).strip())
    if any(not p for p in parts):
        raise SpecFileError("empty entry in matrix row", lineno)
    return parts


def parse_lattice(text, precision=None, algebra=None):
    """Parse a lattice spec document into a HermitianLattice.

    When `algebra` is given, the document's field/algebra sections must
    describe the same structure and the existing object is reused, so that
    two parsed lattices can be compared element-wise."""
    sections = _parse_sections(text)
    if "field" not in sections:
        raise SpecFileError("missing [field] section")
    fld = _kv(sections["field"], "field")
    if "p" not in fld:
        raise SpecFileError("missing p in [field]")
    p = int(fld["p"][1])
    prec = precision if precision is not None else \
        int(fld["precision"][1]) if "precision" in fld else 64
    guard = int(fld["guard"][1]) if "guard" in fld else 16
    upoly = _int_list(*reversed(fld["unramified_poly"])) \
        if "unramified_poly" in fld else None
    epoly = _int_list(*reversed(fld["eisenstein_poly"])) \
        if "eisenstein_poly" in fld else None

    if "algebra" not in sections:
        raise SpecFileError("missing [algebra] section")
    aset = _kv(sections["algebra"], "algebra")
    if "kind" not in aset:
        raise SpecFileError("missing kind in [algebra]")
    kind = aset["kind"][1].lower()
    poly = None
    if kind != "split":
        if "poly" not in aset:
            raise SpecFileError("missing poly in [algebra]")
        lineno, val = aset["poly"]
        poly = _int_list(val, lineno)
        if len(poly) != 2:
            raise SpecFileError("algebra poly needs exactly c, b (low to high)",
                                lineno)

    if algebra is not None:
        K = algebra.base
        evecs = tuple((c,) + (0,) * (K.f - 1) for c in epoly or ())
        if K.p != p or (upoly or None) != (list(K._upoly) if K.f > 1 else None) \
                or evecs != K._epoly:
            raise SpecFileError("field data does not match the first lattice")
        if algebra.kind != kind:
            raise SpecFileError("algebra kind does not match the first lattice")
        if poly is not None:
            if not (algebra.c - K.from_int(poly[0])).is_zero() or \
                    not (algebra.b - K.from_int(poly[1])).is_zero():
                raise SpecFileError(
                    "algebra polynomial does not match the first lattice")
        alg = algebra
    else:
        K = LocalField(p, unramified_poly=upoly, eisenstein_poly=epoly,
                       precision=prec, guard=guard)
        if kind == "split":
            alg = EtaleAlgebra.split(K)
        else:
            alg = EtaleAlgebra.quadratic(K, poly[1], poly[0])
            if alg.kind != kind:
                raise SpecFileError(
                    f"declared kind {kind!r} but the polynomial is {alg.kind}")

    if "gram" not in sections:
        raise SpecFileError("missing [gram] section")
    rows = []
    for lineno, line in sections["gram"]:
        entries = [parse_element(alg, txt, lineno)
                   for txt in _split_row(line, lineno)]
        rows.append(tuple(entries))
    if any(len(r) != len(rows) for r in rows):
        raise SpecFileError("Gram matrix is not square")
    return HermitianLattice(alg, rows)


def parse_matrix(alg, text):
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append(tuple(parse_element(alg, txt, lineno)
                          for txt in _split_row(line, lineno)))
    if not rows or any(len(r) != len(rows) for r in rows):
        raise SpecFileError("matrix is not square")
    return tuple(rows)


def serialize_lattice(lat, field_spec):
    """Round-trippable spec text for a lattice (field data passed through)."""
    lines = list(field_spec)
    lines.append("[gram]")
    for row in lat.gram:
        lines.append(", ".join(element_str(e) for e in row))
    return "\n".join(lines) + "\n"


def element_str(e):
    """Expression-language rendering of an algebra element."""
    alg = e.alg
    if alg.kind == EtaleAlgebra.SPLIT:
        if not e.is_in_K():
            raise HermlatError(
                "split elements outside the base field have no expression form")
        return _field_str(e.x0)
    parts = []
    x0 = _field_str(e.x0)
    if x0 != "0":
        parts.append(x0)
    x1 = _field_str(e.x1)
    if x1 != "0":
        parts.append(f"({x1})*pi")
    return " + ".join(parts) if parts else "0"


def _field_str(x):
    """Expression-language rendering of a K-element (exact round trip)."""
    if x.is_zero():
        return "0"
    fld = x.field
    terms = []
    for k, c in enumerate(x.co):
        if not c:
            continue
        a, b = k % fld.f, k // fld.f
        factors = []
        half = fld.p ** x.ncap // 2
        cs = c if c <= half else c - fld.p ** x.ncap
        if cs != 1 or (a == 0 and b == 0):
            factors.append(str(cs))
        if a == 1:
            factors.append("w")
        elif a > 1:
            factors.append(f"w**{a}")
        if b == 1:
            factors.append("t")
        elif b > 1:
            factors.append(f"t**{b}")
        terms.append("*".join(factors))
    body = " + ".join(terms)
    if x.shift > 0:
        return f"{fld.p}**{x.shift}*({body})"
    if x.shift < 0:
        return f"({body})/{fld.p}**{-x.shift}"
    return body
