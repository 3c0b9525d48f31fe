"""Typing constraints over module-language programs.

Each program node of interest gets a type variable; static checks are
encoded as clauses over an algebra of type terms. A variable reference is
typed by its variable's type variable, and every other expression by its
own. Soft clauses carry a weight and an *origin*: the node whose subtree
is replaced with a hole if the clause ends up falsified by the optimal
assignment. Hard clauses can never be falsified, and name no node; they
are the `S1:exclusive` pairs and the `S2:hole-binding` of a type hole.

Checks encoded here:
  S1  every variable is declared exactly once (duplicate declarations
      compete through per-declaration activation variables)
  S2  declared types are well-formed and bind the variable's type
  S3  expressions are consistently typed (numeric operators stay within
      one numeric type; div/mod are integer-only; no int/bitvector mixing;
      an array read is one clause, array = Array(index, read))
  S4  assignments preserve the type of the left-hand side
  S5  inputs are never written (the write or the declaration must go; a
      write costs at least what the declaration's S1:active does, and a
      tie drops the declaration, whose clause comes first)
  S6  branch/assume/assert conditions and specification bodies are boolean

An operator's shape is one `Tester` literal that names every constructor
it admits, so the only clauses with several literals are the guards of
duplicated and input declarations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .ast_core import (
    ArraySelect,
    ArrayType,
    Assert,
    Assign,
    Assume,
    BOOL,
    BVLit,
    BVType,
    Binary,
    BoolLit,
    BoolType,
    ChildProgram,
    Decl,
    DeclValue,
    EnumLit,
    EnumType,
    Expr,
    Havoc,
    HoleExpr,
    HoleStmt,
    HoleType,
    If,
    INT,
    Node,
    IntLit,
    IntType,
    Ite,
    REAL,
    RealLit,
    RealType,
    Stmt,
    SynonymType,
    TVar,
    TypeAnnot,
    TypeTerm,
    Unary,
    VarRef,
    iter_nodes,
    left_spine,
    walk_index,
)

# Type-variable keys. A key identifies what a variable stands for:
#   ("var", name)      the declared type of a state variable, and the type
#                      of every reference to it
#   ("typedef", name)  the type bound by a type synonym declaration
#   ("node", i)        the type of the expression at pre-order position i,
#                      other than a variable reference
#   ("hole", hid)      the type a type hole declares
#   ("act", i)         activation of the declaration at i (Bool = active)
TVarKey = tuple


# ---------------------------------------------------------------------------
# Atoms, literals, clauses
# ---------------------------------------------------------------------------

@dataclass(unsafe_hash=True, slots=True)
class Eq:
    """left == right over type terms."""

    left: TypeTerm
    right: TypeTerm


#: constructor names for tester atoms
CTORS = ("bool", "int", "real", "bv", "enum", "arr")

#: every non-empty tuple of constructor names in `CTORS` order
_CTOR_TUPLES = frozenset(
    tuple(c for k, c in enumerate(CTORS) if mask >> k & 1)
    for mask in range(1, 1 << len(CTORS)))


@dataclass(unsafe_hash=True, slots=True)
class Tester:
    """is-<c1>(term) or ... or is-<cn>(term): the term is built with one of
    the constructors `ctors`, a non-empty tuple of names in `CTORS` order.
    One literal states a term's whole shape, so a solver narrows the term
    to the set at once instead of branching on each constructor."""

    ctors: tuple[str, ...]
    term: TypeTerm

    def __post_init__(self) -> None:
        if type(self.ctors) is not tuple or self.ctors not in _CTOR_TUPLES:
            raise ValueError(f"constructors {self.ctors!r} are not a "
                             f"non-empty tuple in the order of {CTORS}")


@dataclass(unsafe_hash=True, slots=True)
class HasTag:
    """term is an enum type that includes the given tag."""

    tag: str
    term: TypeTerm


Atom = Union[Eq, Tester, HasTag]


@dataclass(unsafe_hash=True, slots=True)
class Lit:
    atom: Atom
    positive: bool = True


@dataclass(unsafe_hash=True, slots=True)
class Clause:
    """A disjunction of literals.

    weight is None for hard clauses and at least 1 for soft ones, as the
    solver's optimum assumes. origin names the node to hole when the
    clause is falsified: its position in the clause set's `walk`, which is
    its pre-order position in the program; hard clauses have no origin.
    """

    index: int
    lits: tuple[Lit, ...]
    weight: Optional[int]
    origin: Optional[int]
    label: str

    def __post_init__(self) -> None:
        if self.weight is not None and self.weight < 1:
            raise ValueError(f"soft weight {self.weight} is not at least 1")

    @property
    def hard(self) -> bool:
        return self.weight is None


# ---------------------------------------------------------------------------
# Clause sets
# ---------------------------------------------------------------------------

WEIGHT_MODES = ("depth", "uniform")


@dataclass
class ClauseSet:
    """Clauses and their type variables. A set made by `generate_clauses`
    also holds `walk`, the `(node, depth)` pre-order walk of the program
    it was generated from, so `walk[c.origin][0]` is the node a soft
    clause `c` names; a set built by hand has an empty walk."""

    clauses: list[Clause] = field(default_factory=list)
    tvar_table: dict[TVarKey, TVar] = field(default_factory=dict)
    _next_tid: int = 0
    walk: list[tuple[Node, int]] = field(
        default_factory=list, compare=False, repr=False)

    def tvar(self, key: TVarKey) -> TVar:
        got = self.tvar_table.get(key)
        if got is None:
            got = TVar(self._next_tid)
            self._next_tid += 1
            self.tvar_table[key] = got
        return got

    def add_soft(self, lits, weight: int, origin: int, label: str) -> Clause:
        c = Clause(len(self.clauses), tuple(lits), weight, origin, label)
        self.clauses.append(c)
        return c

    def add_hard(self, lits, label: str) -> Clause:
        c = Clause(len(self.clauses), tuple(lits), None, None, label)
        self.clauses.append(c)
        return c

    @property
    def soft(self) -> list[Clause]:
        return [c for c in self.clauses if not c.hard]

    @property
    def hard(self) -> list[Clause]:
        return [c for c in self.clauses if c.hard]


def clause_tvars(c: Clause) -> set[int]:
    out: set[int] = set()
    for lit in c.lits:
        a = lit.atom
        terms = (a.left, a.right) if isinstance(a, Eq) else (a.term,)
        for t in terms:
            if isinstance(t, TVar):
                out.add(t.tid)
            elif isinstance(t, ArrayType):
                stack = [t.index, t.elem]
                while stack:
                    cur = stack.pop()
                    if isinstance(cur, TVar):
                        out.add(cur.tid)
                    elif isinstance(cur, ArrayType):
                        stack.extend((cur.index, cur.elem))
    return out


# ---------------------------------------------------------------------------
# Ground evaluation (used by `maxsmt.verify_solution` and by test oracles)
# ---------------------------------------------------------------------------

_TESTER_CLASSES = {
    "bool": BoolType,
    "int": IntType,
    "real": RealType,
    "bv": BVType,
    "enum": EnumType,
    "arr": ArrayType,
}


def eval_atom(atom: Atom, assignment: dict[int, TypeTerm]) -> bool:
    """Evaluate an atom under a total ground assignment of type variables."""

    def resolve(t: TypeTerm) -> TypeTerm:
        if isinstance(t, TVar):
            return resolve(assignment[t.tid]) if t.tid in assignment else t
        if isinstance(t, ArrayType):
            return ArrayType(resolve(t.index), resolve(t.elem))
        return t

    if isinstance(atom, Eq):
        return resolve(atom.left) == resolve(atom.right)
    got = resolve(atom.term)
    if isinstance(atom, Tester):
        return any(isinstance(got, _TESTER_CLASSES[c]) for c in atom.ctors)
    return isinstance(got, EnumType) and atom.tag in got.tags


def eval_clause(clause: Clause, assignment: dict[int, TypeTerm]) -> bool:
    return any(
        eval_atom(l.atom, assignment) == l.positive for l in clause.lits
    )


# ---------------------------------------------------------------------------
# Clause generation
# ---------------------------------------------------------------------------

_NUMERIC = ("int", "real", "bv")
_LITERAL_TYPES = {BoolLit: BOOL, IntLit: INT, RealLit: REAL}


class _Gen:
    def __init__(self, program: ChildProgram, weight_mode: str):
        if weight_mode not in WEIGHT_MODES:
            raise ValueError(f"unknown weight mode {weight_mode!r}")
        self.p = program
        self.cs = ClauseSet(walk=iter_nodes(program))
        self.pos = walk_index(self.cs.walk)
        # the weight of a soft clause by its origin's position
        self.weights = ([1 + d for _, d in self.cs.walk]
                        if weight_mode == "depth" else [1] * len(self.cs.walk))
        self.input_decls: dict[str, Decl] = {}

    def soft(self, lits: tuple[Lit, ...], origin: Node, label: str) -> None:
        i = self.pos[id(origin)]
        self.cs.add_soft(lits, self.weights[i], i, label)

    # -- declarations -------------------------------------------------------

    def run(self) -> ClauseSet:
        p = self.p
        # (key, decl, is_input) in section order: type synonyms, then
        # locals, inputs and outputs
        decls = [(("typedef", d.name), d, False)
                 for d in p.type_defs if isinstance(d, Decl)]
        for ds, is_input in ((p.locals, False), (p.inputs, True),
                             (p.outputs, False)):
            decls += [(("var", d.name), d, is_input)
                      for d in ds if isinstance(d, Decl)]
        by_key: dict[TVarKey, list[Decl]] = {}
        for key, d, is_input in decls:
            by_key.setdefault(key, []).append(d)
            if is_input:
                self.input_decls[d.name] = d

        # S1/S2 per declaration, in section order
        for key, d, is_input in decls:
            self._decl_clauses(d, key, duplicated=len(by_key[key]) > 1,
                               is_input=is_input)

        # S1: at most one active declaration per name, variables first
        for key in sorted((k for k, ds in by_key.items() if len(ds) > 1),
                          key=lambda k: (k[0] == "typedef", k[1])):
            self._exclusion(by_key[key])

        # S3-S6 over behavior
        for stmt in self.p.init_body:
            self._stmt(stmt)
        for stmt in self.p.next_body:
            self._stmt(stmt)
        for _, expr in self.p.invariants_spec:
            self.soft((Lit(Eq(self._expr(expr), BOOL)),), expr, "S6:spec")
        return self.cs

    def _act(self, d: Decl) -> TypeTerm:
        return self.cs.tvar(("act", self.pos[id(d)]))

    def _decl_clauses(self, d: Decl, key: TVarKey, duplicated: bool,
                      is_input: bool) -> None:
        guard: tuple[Lit, ...] = ()
        if duplicated or is_input:
            act = self._act(d)
            self.soft((Lit(Eq(act, BOOL)),), d, "S1:active")
            guard = (Lit(Eq(act, BOOL), positive=False),)
        t_name = self.cs.tvar(key)
        annot = d.annot
        if isinstance(annot, TypeAnnot):
            ty = self._elaborate(annot.ty)
            self.soft(guard + (Lit(Eq(t_name, ty)),), annot, "S2:decl-type")
        elif isinstance(annot, HoleType):
            h = self.cs.tvar(("hole", annot.hid))
            self.cs.add_hard(guard + (Lit(Eq(t_name, h)),), "S2:hole-binding")
        elif isinstance(annot, DeclValue):
            t = self._expr(annot.expr)
            self.soft(guard + (Lit(Eq(t_name, t)),), annot, "S2:decl-value")

    def _exclusion(self, decls: list[Decl]) -> None:
        for i, a in enumerate(decls):
            for b in decls[i + 1 :]:
                self.cs.add_hard(
                    [
                        Lit(Eq(self._act(a), BOOL), positive=False),
                        Lit(Eq(self._act(b), BOOL), positive=False),
                    ],
                    "S1:exclusive",
                )

    def _elaborate(self, ty: TypeTerm) -> TypeTerm:
        if isinstance(ty, SynonymType):
            return self.cs.tvar(("typedef", ty.name))
        if isinstance(ty, ArrayType):
            return ArrayType(self._elaborate(ty.index), self._elaborate(ty.elem))
        return ty

    # -- statements ---------------------------------------------------------

    def _stmt(self, s: Stmt) -> None:
        cls = type(s)
        if cls is Assign:
            tl = self._expr(s.lhs)
            tr = self._expr(s.rhs)
            self.soft((Lit(Eq(tl, tr)),), s, "S4:assign")
            base = s.lhs
            while type(base) is ArraySelect:
                base = base.array
            if type(base) is VarRef:
                self._input_write(base.name, s)
        elif cls is If:
            for cond, body in s.arms:
                self.soft((Lit(Eq(self._expr(cond), BOOL)),), cond, "S6:cond")
                for sub in body:
                    self._stmt(sub)
            for sub in s.orelse:
                self._stmt(sub)
        elif cls is Havoc:
            self.cs.tvar(("var", s.name))
            self._input_write(s.name, s)
        elif cls is Assume or cls is Assert:
            self.soft((Lit(Eq(self._expr(s.cond), BOOL)),), s.cond, "S6:cond")
        elif cls is not HoleStmt:
            raise TypeError(f"unknown statement {s!r}")

    def _input_write(self, name: str, origin: Stmt) -> None:
        d = self.input_decls.get(name)
        if d is not None:
            self.soft((Lit(Eq(self._act(d), BOOL), positive=False),),
                      origin, "S5:input-write")

    # -- expressions ---------------------------------------------------------

    def _expr(self, e: Expr) -> TVar:
        """Emit the clauses of `e`'s subtree and return `e`'s type
        variable. A node's variable is made before its children's."""
        cls = type(e)
        if cls is VarRef:
            return self.cs.tvar(("var", e.name))
        tvar = self.cs.tvar
        t = tvar(("node", self.pos[id(e)]))
        if cls is Binary:
            spine = left_spine(e)
            # the spine's type variables top-down, then the leaf's
            ts = [t] + [tvar(("node", self.pos[id(n)])) for n in spine[1:]]
            tl = self._expr(spine[-1].left)
            for k in range(len(spine) - 1, -1, -1):
                n = spine[k]
                self._binary(n, ts[k], tl, self._expr(n.right))
                tl = ts[k]
        elif cls in _LITERAL_TYPES:
            self.soft((Lit(Eq(t, _LITERAL_TYPES[cls])),), e, "S3:lit")
        elif cls is ArraySelect:
            ta = self._expr(e.array)
            ti = self._expr(e.index)
            self.soft((Lit(Eq(ta, ArrayType(ti, t))),), e, "S3:select")
        elif cls is Unary:
            to = self._expr(e.operand)
            if e.op == "not":
                self.soft((Lit(Eq(t, BOOL)),), e, "S3:op")
                self.soft((Lit(Eq(to, BOOL)),), e, "S3:op")
            else:  # neg
                self.soft((Lit(Eq(t, to)),), e, "S3:op")
                self.soft((Lit(Tester(_NUMERIC, t)),), e, "S3:op")
        elif cls is Ite:
            tc = self._expr(e.cond)
            ta = self._expr(e.then)
            tb = self._expr(e.other)
            self.soft((Lit(Eq(tc, BOOL)),), e, "S3:op")
            self.soft((Lit(Eq(t, ta)),), e, "S3:op")
            self.soft((Lit(Eq(t, tb)),), e, "S3:op")
        elif cls is BVLit:
            self.soft((Lit(Eq(t, BVType(e.width))),), e, "S3:lit")
        elif cls is EnumLit:
            self.soft((Lit(HasTag(e.tag, t)),), e, "S3:lit")
        elif cls is not HoleExpr:  # a hole is free
            raise TypeError(f"unknown expression {e!r}")
        return t

    def _binary(self, n: Binary, t: TVar, tl: TVar, tr: TVar) -> None:
        op = n.op
        soft = self.soft
        if op in ("+", "-", "*"):
            soft((Lit(Eq(t, tl)),), n, "S3:op")
            soft((Lit(Eq(t, tr)),), n, "S3:op")
            soft((Lit(Tester(_NUMERIC, t)),), n, "S3:op")
        elif op in ("==", "!="):
            soft((Lit(Eq(t, BOOL)),), n, "S3:op")
            soft((Lit(Eq(tl, tr)),), n, "S3:op")
        elif op in ("<", "<=", ">", ">="):
            soft((Lit(Eq(t, BOOL)),), n, "S3:op")
            soft((Lit(Eq(tl, tr)),), n, "S3:op")
            soft((Lit(Tester(_NUMERIC, tl)),), n, "S3:op")
        elif op in ("and", "or"):
            soft((Lit(Eq(t, BOOL)),), n, "S3:op")
            soft((Lit(Eq(tl, BOOL)),), n, "S3:op")
            soft((Lit(Eq(tr, BOOL)),), n, "S3:op")
        elif op in ("div", "mod"):
            soft((Lit(Eq(t, tl)),), n, "S3:op")
            soft((Lit(Eq(t, tr)),), n, "S3:op")
            soft((Lit(Eq(t, INT)),), n, "S3:op")
        elif op == "xor":
            soft((Lit(Eq(t, tl)),), n, "S3:op")
            soft((Lit(Eq(t, tr)),), n, "S3:op")
            soft((Lit(Tester(("bool", "bv"), t)),), n, "S3:op")
        elif op in ("bvand", "bvor", "shl", "lshr"):
            soft((Lit(Eq(t, tl)),), n, "S3:op")
            soft((Lit(Eq(t, tr)),), n, "S3:op")
            soft((Lit(Tester(("bv",), t)),), n, "S3:op")
        else:
            raise ValueError(f"unknown operator {op!r}")


def generate_clauses(
    program: ChildProgram, weight_mode: str = "depth"
) -> ClauseSet:
    """Generate the full weighted clause set for a program.

    Clause indices follow generation order, which is deterministic:
    declarations by section (types, locals, inputs, outputs), then init,
    next, and the specification; expressions in pre-order.
    """
    return _Gen(program, weight_mode).run()
