"""Problem-spec files: a line-oriented `section.key = value` format.

Grammar (locked by the parser tests)::

    file     := line*
    line     := comment | blank | assignment
    comment  := "#" ...
    assignment := dotted_key "=" value
    dotted_key := name ("." name)*
    value    := rest of line, stripped; lists are whitespace-separated

Known keys are validated per problem kind.  Every symbol referenced in the
equation block must be declared under ``symbols.``; derivative tokens are
``y``, ``Dy``, ``D2y``, ... for the dependent variable named ``y``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .exprcore import Expr, OutOfClassError, Poly
from .pertseries import LinearOperator, ODEProblem, PertTerm, SolveError
from .textform import ExprSyntaxError, parse_expr

KINDS = ("ode-hidden-scale", "switchback", "perturbation-symmetry", "burgers")


class SpecError(ValueError):
    pass


@dataclass
class ProblemSpec:
    name: str
    kind: str
    path: Optional[str] = None
    raw: dict = field(default_factory=dict)       # key -> (value, line no)
    variable: str = "t"
    parameter: str = "eps"
    dependent: str = "y"
    constants: list = field(default_factory=list)
    extra_symbols: list = field(default_factory=list)
    operator: Optional[LinearOperator] = None
    perturbations: list = field(default_factory=list)
    order: int = 1
    derivatives: int = 1
    constants_policy: str = "fresh-at-zeroth-order"
    constant_style: str = "rect"
    constant_names: dict = field(default_factory=dict)
    fixed_constants: dict = field(default_factory=dict)
    most_divergent: bool = False
    params: dict = field(default_factory=dict)     # numeric parameter values
    ics: dict = field(default_factory=dict)        # deriv order -> value token
    validate: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)    # kind-specific extras

    def get(self, key, default=None):
        return self.raw.get(key, (default, 0))[0]


_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z0-9_']+)*$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_OPTERM_RE = re.compile(r"^\s*(?:(\d+(?:/\d+)?)\s*\*\s*)?D(\d+)\s*$")


def _parse_rational(tok: str, key: str, line: int) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise SpecError(f"line {line}: malformed number {tok!r} for {key}")


def _parse_float(tok: str, key: str, line: int) -> float:
    try:
        return float(Fraction(tok)) if "/" in tok else float(tok)
    except ValueError:
        raise SpecError(f"line {line}: malformed number {tok!r} for {key}")


def parse_operator(text: str, var: str, key: str = "equation.operator",
                   line: int = 0) -> LinearOperator:
    """Sum of c*Dk terms with rational c, e.g. "D2 + D1" or "D2 + 1/4*D0",
    whose characteristic roots are all Gaussian rationals."""
    text = text.replace("-", "+ -")
    coeffs: dict = {}
    for part in text.split("+"):
        part = part.strip()
        if not part:
            continue
        neg = part.startswith("-")
        if neg:
            part = part[1:].strip()
        m = _OPTERM_RE.match(part)
        if not m:
            raise SpecError(f"line {line}: bad operator term {part!r} in {key}")
        c = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        k = int(m.group(2))
        coeffs[k] = coeffs.get(k, Fraction(0)) + (-c if neg else c)
    if not any(coeffs.values()):
        raise SpecError(f"line {line}: {key} has no nonzero term")
    top = max(coeffs)
    op = LinearOperator.make([coeffs.get(m, 0) for m in range(top + 1)], var)
    if op.order == 0:
        raise SpecError(f"line {line}: {key} has order 0: there is no "
                        "integration constant to flow")
    try:
        op.char_roots()
    except SolveError as exc:
        raise SpecError(f"line {line}: {key}: {exc}")
    return op


def parse_perturbation(text: str, spec: "ProblemSpec", key: str,
                       line: int) -> list:
    """Perturbation text into PertTerm list.

    The dependent variable and its derivatives appear as the tokens
    y, Dy, D2y, ...; each must multiply a positive power of the parameter.
    """
    dep = spec.dependent
    dtoks = {dep: 0}
    for m in range(1, (spec.operator.order if spec.operator else 8) + 1):
        dtoks[f"D{m}{dep}" if m > 1 else f"D{dep}"] = m
    try:
        e = parse_expr(text, variables={spec.variable})
    except (ExprSyntaxError, OutOfClassError) as exc:
        raise SpecError(f"line {line}: cannot parse {key}: {exc}")
    allowed = ({spec.parameter, spec.variable} | set(dtoks)
               | set(spec.extra_symbols))
    bad = sorted(e.symbols() - allowed)
    if bad:
        raise SpecError(
            f"line {line}: undeclared symbol {bad[0]!r} in {key}")
    out = []
    for t in e.terms:
        for pows, q in t.coeff.monos:
            dp = []
            epspow = 0
            restp = []
            for s, kpow in pows:
                if s in dtoks:
                    if kpow < 0:
                        raise SpecError(f"line {line}: nonpolynomial "
                                        f"dependence on {s} in {key}")
                    dp.append((dtoks[s], kpow))
                elif s == spec.parameter:
                    epspow = kpow
                else:
                    restp.append((s, kpow))
            if epspow < 1:
                raise SpecError(
                    f"line {line}: every perturbation term needs a positive "
                    f"power of {spec.parameter} in {key}")
            if not dp:
                raise SpecError(f"line {line}: perturbation term without the "
                                f"dependent variable in {key}")
            coeff_term = t.with_coeff(Poly([(tuple(restp), q)]))
            out.append(PertTerm(epspow, Expr([coeff_term]),
                                tuple(sorted(dp, key=lambda mp: mp[0]))))
    return out


def _ic_order(key: str, dep: str, line: int) -> int:
    tail = key.split(".", 1)[1]
    if tail == dep:
        return 0
    m = re.match(rf"^D(\d*)({re.escape(dep)})$", tail)
    if not m:
        raise SpecError(f"line {line}: unknown initial-condition key {key!r}")
    return int(m.group(1) or 1)


def parse_spec(path) -> ProblemSpec:
    """Parse and validate a problem-spec file."""
    path = Path(path)
    if not path.exists():
        raise SpecError(f"no such spec file: {path}")
    raw: dict = {}
    for lineno, linetext in enumerate(path.read_text().splitlines(), start=1):
        stripped = linetext.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise SpecError(f"line {lineno}: expected key = value")
        key, value = [s.strip() for s in stripped.split("=", 1)]
        if not _KEY_RE.match(key):
            raise SpecError(f"line {lineno}: bad key {key!r}")
        if key in raw:
            raise SpecError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = (value, lineno)

    def need(key):
        if key not in raw:
            raise SpecError(f"missing required key {key!r} in {path.name}")
        return raw[key][0]

    name = need("name")
    kind = need("kind")
    if kind not in KINDS:
        raise SpecError(f"unknown kind {kind!r}; expected one of {KINDS}")
    spec = ProblemSpec(name=name, kind=kind, path=str(path), raw=raw)

    known_prefixes = ("symbols.", "equation.", "method.", "params.", "ics.",
                      "validate.", "options.")
    for key, (_v, lineno) in raw.items():
        if key in ("name", "kind"):
            continue
        if not key.startswith(known_prefixes):
            raise SpecError(f"line {lineno}: unknown key {key!r}")

    spec.variable = spec.get("symbols.variable", "t")
    spec.parameter = spec.get("symbols.parameter", "eps")
    spec.dependent = spec.get("symbols.dependent", "y")
    spec.constants = (spec.get("symbols.constants", "") or "").split()
    spec.extra_symbols = (spec.get("symbols.extra", "") or "").split()
    for nm in [spec.variable, spec.parameter, spec.dependent,
               *spec.constants, *spec.extra_symbols]:
        if nm and not _NAME_RE.match(nm):
            raise SpecError(f"bad symbol name {nm!r} in {path.name}")

    order, lineno = raw.get("method.order", ("1", 0))
    if not order.isdecimal() or int(order) < 1:
        raise SpecError(f"line {lineno}: method.order must be an integer "
                        f">= 1, got {order!r}")
    spec.order = int(order)
    spec.derivatives = int(spec.get("method.derivatives", "1"))
    spec.constants_policy = spec.get("method.constants_policy",
                                     "fresh-at-zeroth-order")
    spec.constant_style = spec.get("method.constant_style", "rect")
    spec.most_divergent = spec.get("method.most_divergent", "false") == "true"
    for key, (v, lineno) in raw.items():
        if key.startswith("method.constants.order"):
            j = key.rsplit("order", 1)[1]
            if not j.isdecimal():
                raise SpecError(f"line {lineno}: bad key {key!r}")
            spec.constant_names[int(j)] = v.split()
        elif key.startswith("method.fix."):
            cname = key.split(".", 2)[2]
            spec.fixed_constants[cname] = _parse_rational(v, key, lineno)
        elif key.startswith("params."):
            spec.params[key.split(".", 1)[1]] = _parse_float(v, key, lineno)
        elif key.startswith("ics."):
            spec.ics[_ic_order(key, spec.dependent, lineno)] = v
        elif key.startswith("validate."):
            spec.validate[key.split(".", 1)[1]] = v
        elif key.startswith("options."):
            spec.options[key.split(".", 1)[1]] = v

    if kind == "switchback" and spec.params.get("eps", 1) <= 0:
        raise SpecError(f"line {raw['params.eps'][1]}: params.eps is the "
                        "inner radius and must be positive for kind = "
                        f"switchback, got {raw['params.eps'][0]}")
    if kind == "ode-hidden-scale" and "scripted" not in spec.options \
            and spec.validate and spec.parameter not in spec.params:
        key = min((k for k in raw if k.startswith("validate.")),
                  key=lambda k: raw[k][1])
        raise SpecError(f"line {raw[key][1]}: {key} needs "
                        f"params.{spec.parameter}, which is missing")
    if kind in ("ode-hidden-scale", "perturbation-symmetry"):
        opline = raw.get("equation.operator", (None, 0))
        if opline[0] is None:
            raise SpecError(f"missing equation.operator in {path.name}")
        spec.operator = parse_operator(opline[0], spec.variable,
                                       line=opline[1])
        pline = raw.get("equation.perturbation", (None, 0))
        if pline[0] is None:
            raise SpecError(f"missing equation.perturbation in {path.name}")
        spec.perturbations = parse_perturbation(pline[0], spec,
                                                "equation.perturbation",
                                                pline[1])
        declared = set(spec.constants)
        n = spec.operator.order
        for key, (v, lineno) in raw.items():
            if not key.startswith("method.constants.order"):
                continue
            names = v.split()
            undeclared = [nm for nm in names if nm not in declared]
            if undeclared:
                raise SpecError(
                    f"line {lineno}: constant {undeclared[0]!r} used in "
                    f"{key} but not declared in symbols.constants")
            if len(names) != n:
                raise SpecError(
                    f"line {lineno}: {key} needs {n} constant names for "
                    f"the order-{n} operator, got {len(names)}")
    return spec


def ode_problem(spec: ProblemSpec) -> ODEProblem:
    if spec.operator is None:
        raise SpecError("spec has no equation block")
    return ODEProblem(spec.operator, spec.perturbations, spec.parameter,
                      spec.order, spec.constants_policy, spec.constant_style,
                      dict(spec.constant_names),
                      dict(spec.fixed_constants))
