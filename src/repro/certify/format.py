"""The ``repro`` cutting-planes proof format: grammar, parse, serialize.

A proof is a line-oriented text file (conventionally ``*.pbp``).  Lines
starting with ``*`` are comments; the first two non-comment lines form
the header binding the proof to an instance::

    pbp repro 1
    f <m>

where ``m`` is the number of constraints of the parsed OPB instance;
those constraints get ids ``1 .. m``.  Every subsequent *derivation*
step appends one constraint to the database and receives the next id
(``m+1``, ``m+2``, ...); the ``c`` and ``e`` steps derive nothing and
get no id.  Literals are signed integers (``-4`` is the negation of
variable 4, DIMACS style).

Step grammar (one line each; every list is ``0``-terminated)::

    a <lit>                                    assumption axiom (unit clause)
    u <lit> ... 0                              clause derived by RUP
    o <lit> ... 0                              solution: a complete model;
                                               derives the improvement axiom
                                               ``sum c_j x_j <= cost - 1``
    t <cid>                                    cardinality-derived cut (eq. 13)
                                               recomputed from input <cid> and
                                               the current certified incumbent
    b m <var> ... 0 <cid> ... 0 <lit> ... 0    bound-conflict clause certified
                                               by MIS accounting (path vars,
                                               responsible constraint ids,
                                               clause literals)
    b l {<cid> <mult>}* 0 <lit> ... 0          bound-conflict clause certified
                                               by a non-negative integer linear
                                               combination of constraints
    c                                          contradiction: the database
                                               propagates to a violation at
                                               the root
    e optimal <cost> | e satisfiable <cost>    final claim (cost includes the
      | e unsatisfiable | e unknown            objective offset)
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

#: Header magic of version 1 of the format.
HEADER = "pbp repro 1"

#: Step kind tags (mirroring the grammar keywords).
ASSUMPTION = "a"
RUP = "u"
SOLUTION = "o"
CARD_CUT = "t"
BOUND_MIS = "b m"
BOUND_LIN = "b l"
CONTRADICTION = "c"
END = "e"

#: ``e`` claims (``optimal``/``satisfiable`` carry a cost).
END_STATUSES = ("optimal", "satisfiable", "unsatisfiable", "unknown")


class ProofSyntaxError(ValueError):
    """A proof line that does not parse; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


class Step:
    """One parsed proof step (a tagged union over the grammar above)."""

    __slots__ = (
        "kind",
        "line",
        "literals",
        "variables",
        "ids",
        "multipliers",
        "status",
        "cost",
    )

    def __init__(
        self,
        kind: str,
        line: int = 0,
        literals: Sequence[int] = (),
        variables: Sequence[int] = (),
        ids: Sequence[int] = (),
        multipliers: Sequence[int] = (),
        status: str = "",
        cost: Optional[int] = None,
    ):
        self.kind = kind
        #: 1-based source line (0 for steps built programmatically).
        self.line = line
        self.literals = tuple(literals)
        self.variables = tuple(variables)
        self.ids = tuple(ids)
        self.multipliers = tuple(multipliers)
        self.status = status
        self.cost = cost

    def __repr__(self) -> str:
        return "Step(%r, line=%d)" % (self.kind, self.line)


# ----------------------------------------------------------------------
# Serialization (logger side)
# ----------------------------------------------------------------------
def format_step(step: Step) -> str:
    """Render one step back into its grammar line."""
    if step.kind == ASSUMPTION:
        return "a %d" % step.literals[0]
    if step.kind == RUP:
        return "u " + _ints(step.literals)
    if step.kind == SOLUTION:
        return "o " + _ints(step.literals)
    if step.kind == CARD_CUT:
        return "t %d" % step.ids[0]
    if step.kind == BOUND_MIS:
        return "b m %s%s%s" % (
            _ints(step.variables),
            " " + _ints(step.ids),
            " " + _ints(step.literals),
        )
    if step.kind == BOUND_LIN:
        parts = ["b", "l"]
        for cid, mult in zip(step.ids, step.multipliers):
            parts.extend((str(cid), str(mult)))
        parts.append("0")
        parts.append(_ints(step.literals))
        return " ".join(parts)
    if step.kind == CONTRADICTION:
        return "c"
    if step.kind == END:
        if step.status in ("optimal", "satisfiable"):
            return "e %s %d" % (step.status, step.cost)
        return "e %s" % step.status
    raise ValueError("unknown step kind %r" % step.kind)


def _ints(values: Sequence[int]) -> str:
    """Space-joined integers with the grammar's ``0`` terminator."""
    if not values:
        return "0"
    return " ".join(str(v) for v in values) + " 0"


# ----------------------------------------------------------------------
# Parsing (checker side)
# ----------------------------------------------------------------------
def parse_proof(text: str) -> Tuple[int, List[Step]]:
    """Parse a whole proof; returns ``(num_inputs, steps)``.

    Raises :class:`ProofSyntaxError` on any malformed line, a missing or
    wrong header, or a missing ``f`` line.
    """
    header_seen = False
    num_inputs: Optional[int] = None
    steps: List[Step] = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("*"):
            continue
        if not header_seen:
            if line != HEADER:
                raise ProofSyntaxError(
                    line_no, "expected header %r, got %r" % (HEADER, line)
                )
            header_seen = True
            continue
        if num_inputs is None:
            tokens = line.split()
            if len(tokens) != 2 or tokens[0] != "f":
                raise ProofSyntaxError(line_no, "expected 'f <m>', got %r" % line)
            num_inputs = _int(tokens[1], line_no)
            if num_inputs < 0:
                raise ProofSyntaxError(line_no, "negative constraint count")
            continue
        steps.append(parse_step(line, line_no))
    if not header_seen:
        raise ProofSyntaxError(1, "empty proof (missing %r header)" % HEADER)
    if num_inputs is None:
        raise ProofSyntaxError(1, "missing 'f <m>' instance-binding line")
    return num_inputs, steps


def parse_step(line: str, line_no: int = 0) -> Step:
    """Parse one step line into a :class:`Step`."""
    tokens = line.split()
    kind = tokens[0]
    if kind == "a":
        if len(tokens) != 2:
            raise ProofSyntaxError(line_no, "'a' takes exactly one literal")
        lit = _int(tokens[1], line_no)
        if lit == 0:
            raise ProofSyntaxError(line_no, "0 is not a literal")
        return Step(ASSUMPTION, line_no, literals=(lit,))
    if kind in ("u", "o"):
        lits, rest = _int_list(tokens[1:], line_no)
        if rest:
            raise ProofSyntaxError(line_no, "trailing tokens after literal list")
        return Step(RUP if kind == "u" else SOLUTION, line_no, literals=lits)
    if kind == "t":
        if len(tokens) != 2:
            raise ProofSyntaxError(line_no, "'t' takes exactly one constraint id")
        return Step(CARD_CUT, line_no, ids=(_int(tokens[1], line_no),))
    if kind == "b":
        if len(tokens) < 2 or tokens[1] not in ("m", "l"):
            raise ProofSyntaxError(line_no, "'b' must be 'b m' or 'b l'")
        if tokens[1] == "m":
            return _parse_bound_mis(tokens[2:], line_no)
        return _parse_bound_lin(tokens[2:], line_no)
    if kind == "c":
        if len(tokens) != 1:
            raise ProofSyntaxError(line_no, "'c' takes no arguments")
        return Step(CONTRADICTION, line_no)
    if kind == "e":
        return _parse_end(tokens, line_no)
    raise ProofSyntaxError(line_no, "unknown step kind %r" % kind)


def _parse_bound_mis(tokens: List[str], line_no: int) -> Step:
    variables, rest = _int_list(tokens, line_no)
    ids, rest = _int_list(rest, line_no)
    literals, rest = _int_list(rest, line_no)
    if rest:
        raise ProofSyntaxError(line_no, "trailing tokens after 'b m' lists")
    if any(v <= 0 for v in variables):
        raise ProofSyntaxError(line_no, "'b m' path entries must be variables")
    return Step(BOUND_MIS, line_no, variables=variables, ids=ids, literals=literals)


def _parse_bound_lin(tokens: List[str], line_no: int) -> Step:
    ids: List[int] = []
    multipliers: List[int] = []
    i = 0
    while i < len(tokens):
        if tokens[i] == "0":
            i += 1
            break
        if i + 1 >= len(tokens):
            raise ProofSyntaxError(line_no, "'b l' pairs must be <cid> <mult>")
        ids.append(_int(tokens[i], line_no))
        multipliers.append(_int(tokens[i + 1], line_no))
        i += 2
    else:
        raise ProofSyntaxError(line_no, "'b l' pair list not 0-terminated")
    literals, rest = _int_list(tokens[i:], line_no)
    if rest:
        raise ProofSyntaxError(line_no, "trailing tokens after 'b l' literals")
    return Step(BOUND_LIN, line_no, ids=ids, multipliers=multipliers, literals=literals)


def _parse_end(tokens: List[str], line_no: int) -> Step:
    if len(tokens) < 2 or tokens[1] not in END_STATUSES:
        raise ProofSyntaxError(
            line_no, "'e' status must be one of %s" % (END_STATUSES,)
        )
    status = tokens[1]
    cost: Optional[int] = None
    if status in ("optimal", "satisfiable"):
        if len(tokens) != 3:
            raise ProofSyntaxError(line_no, "'e %s' needs a cost" % status)
        cost = _int(tokens[2], line_no)
    elif len(tokens) != 2:
        raise ProofSyntaxError(line_no, "'e %s' takes no cost" % status)
    return Step(END, line_no, status=status, cost=cost)


def _int_list(tokens: List[str], line_no: int) -> Tuple[List[int], List[str]]:
    """Read integers up to (and consuming) the ``0`` terminator."""
    values: List[int] = []
    for i, token in enumerate(tokens):
        value = _int(token, line_no)
        if value == 0:
            return values, tokens[i + 1 :]
        values.append(value)
    raise ProofSyntaxError(line_no, "integer list not 0-terminated")


def _int(token: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ProofSyntaxError(line_no, "expected an integer, got %r" % token)
