"""FO[<] formulas over words: letter and order atoms plus monoid-class atoms.

Two evaluation contexts exist.  The plain context quantifies over the
positions ``1..|w|`` of the bare word; the marked context evaluates on the
endmarked tape ``^ w $`` with positions ``0..|w|+1`` and lets letter atoms
test the endmarkers.  Class atoms always measure the real letters only.

Class atoms are backed by a registry of transition monoids that were
certified aperiodic at registration; this is the star-freeness certificate
that replaces explicit class-formula synthesis.  Run atoms ask the machine of
such a monoid where its run goes.  Their truth depends only on the letters at
their variables and on the classes of the factors between them, so they are
finite Boolean combinations of class atoms and stay first-order.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import count
from operator import itemgetter
from threading import Lock
from typing import Callable, NamedTuple, Optional
from weakref import WeakValueDictionary

from .words import (
    Alphabet,
    Dfa,
    LEFT_MARK,
    RIGHT_MARK,
    SymbolNotInAlphabet,
    as_word,
    dense_dfa,
    dfa_intersect,
    dfa_inverse_image,
    dfa_is_counter_free,
    dfa_minimize,
    dfa_project_bit,
    dfa_union,
    dfa_complement,
    dfa_universal,
    explore_dfa,
    marked_alphabet,
    parse_symbol,
    show_symbol,
)
from .monoid import (
    BehaviorProfile,
    TransitionMonoid,
    accepts_from_class,
    is_aperiodic,
    run_visits,
)


class UnboundVariable(ValueError):
    pass


class PositionOutOfRange(ValueError):
    """A variable is assigned a position outside the evaluation context."""


class MalformedClassAtom(ValueError):
    pass


class NonAperiodicCompilation(RuntimeError):
    pass


class RegistryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Syntax


# Every live node, by its kind and field values.  Building a node equal to a
# live one returns that one (hash-consing), so equal formulas are one object,
# compared and hashed by identity.  The table holds its nodes weakly.
_NODES = WeakValueDictionary()
_NODES_LOCK = Lock()
_NODE_NUMBERS = count()  # never reused, unlike ``id`` of a collected node


class Formula:
    """A formula node.  Each kind states its operator in the concrete syntax
    and its ``shape``: the name and the role of each field, in order.  The
    roles: a letter of the word, written as the alphabets write it; a free
    variable, or a tuple of them (``vars``); the variable a quantifier binds;
    the names of a registered monoid and of one of its elements; a run
    atom's kind, which is its operator, and its state indices; a subformula,
    or a tuple of them (``subs``).  The printer, the parser, renaming and
    the walks read the shape; evaluation and compilation keep their own code
    per kind, as that code is the semantics.

    Nodes are immutable and interned: each carries a number that no other
    node ever gets, and, once evaluated, its evaluation plan.
    """

    operator: Optional[str] = None
    shape: tuple = ()

    def __new__(cls, *values):
        if len(values) != len(cls.shape):
            raise TypeError(f"{cls.__name__} takes {len(cls.shape)} fields, got {len(values)}")
        key = (cls, *values)
        with _NODES_LOCK:
            node = _NODES.get(key)
            if node is None:
                node = _NODES[key] = object.__new__(cls)
                node.__dict__.update(zip([name for name, _ in cls.shape], values))
                node.__dict__["_number"] = next(_NODE_NUMBERS)
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a formula node")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a formula node")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name, _ in self.shape)

    def __repr__(self):
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name, _ in self.shape)
        return f"{type(self).__name__}({values})"


class TrueF(Formula):
    operator, shape = "true", ()


class Letter(Formula):
    operator, shape = "letter", (("symbol", "letter"), ("var", "var"))


class Le(Formula):
    operator, shape = "le", (("left", "var"), ("right", "var"))


class FactorClass(Formula):
    operator = "class"
    shape = (("monoid", "monoid"), ("element", "element"), ("left", "var"), ("right", "var"))


class PrefixClass(Formula):
    operator, shape = "pclass", (("monoid", "monoid"), ("element", "element"), ("var", "var"))


class SuffixClass(Formula):
    operator, shape = "sclass", (("monoid", "monoid"), ("element", "element"), ("var", "var"))


class RunAtom(Formula):
    """A run decision of the machine of a registered monoid.

    ``accept`` (no states, no variables): the word is accepted.  ``visit``
    ``(i,)`` at ``(x,)``: the run visits state ``i`` on the cell at ``x``.
    ``reach`` ``(i, j)`` at ``(x, y)``: the run continued from state ``i`` at
    ``x`` visits state ``j`` at ``y``, whatever the order of ``x`` and ``y``.
    States are indices into the machine's state tuple.  The atom is false
    when a variable sits on an endmarker.
    """

    operator = None  # its kind is its operator
    shape = (("monoid", "monoid"), ("kind", "kind"), ("states", "states"), ("vars", "vars"))


class And(Formula):
    operator, shape = "and", (("args", "subs"),)


class Or(Formula):
    operator, shape = "or", (("args", "subs"),)


class Not(Formula):
    operator, shape = "not", (("arg", "sub"),)


class Exists(Formula):
    operator, shape = "exists", (("var", "bound"), ("body", "sub"))


class Forall(Formula):
    operator, shape = "forall", (("var", "bound"), ("body", "sub"))


_TRUE = TrueF()
FALSE = Not(_TRUE)

_RUN_ARITY = {"accept": 0, "visit": 1, "reach": 2}  # states, and as many variables
_BY_OPERATOR = {
    kind.operator: kind for kind in Formula.__subclasses__() if kind.operator
} | dict.fromkeys(_RUN_ARITY, RunAtom)


def _fields(phi: Formula) -> list:
    """``(value, role)`` for each field of the node, in order."""
    if not isinstance(phi, Formula):
        raise TypeError(f"not a formula: {phi!r}")
    return [(getattr(phi, name), role) for name, role in phi.shape]


def _nodes(phi: Formula) -> list:
    """Each node of the formula once; formulas are DAGs, and a shared
    subformula is one node."""
    stack, seen, out = [phi], set(), []
    while stack:
        f = stack.pop()
        if id(f) not in seen:
            seen.add(id(f))
            out.append(f)
            for value, role in _fields(f):
                if role == "sub":
                    stack.append(value)
                elif role == "subs":
                    stack.extend(value)
    return out


def _flat(kind, unit, zero, args) -> Formula:
    """``args`` joined by ``kind``, And or Or: ``unit`` drops out, ``zero``
    absorbs, and a nested node of ``kind`` lends its own arguments."""
    flat = []
    for a in args:
        if a is zero:
            return zero
        if a is not unit:
            flat.extend(a.args if type(a) is kind else (a,))
    if not flat:
        return unit
    return flat[0] if len(flat) == 1 else kind(tuple(flat))


def conj(args) -> Formula:
    return _flat(And, _TRUE, FALSE, args)


def disj(args) -> Formula:
    return _flat(Or, FALSE, _TRUE, args)


def neg(a: Formula) -> Formula:
    if isinstance(a, Not):
        return a.arg
    if isinstance(a, TrueF):
        return FALSE
    return Not(a)


def implies(a: Formula, b: Formula) -> Formula:
    return disj([neg(a), b])


def var_eq(x: str, y: str) -> Formula:
    return conj([Le(x, y), Le(y, x)])


def var_lt(x: str, y: str) -> Formula:
    return conj([Le(x, y), neg(Le(y, x))])


def linear_graph_sentence() -> Formula:
    """Nonempty total order: a first node, a last node, all pairs comparable."""
    return conj(
        [
            Exists("u0", Forall("v0", Le("u0", "v0"))),
            Exists("u0", Forall("v0", Le("v0", "u0"))),
            Forall("u0", Forall("v0", disj([Le("u0", "v0"), Le("v0", "u0")]))),
        ]
    )


def free_vars(phi: Formula) -> frozenset:
    return _plan(phi).free


def _all_vars(phi: Formula) -> frozenset:
    """The variables of ``phi``, free or bound."""
    out = set()
    for f in _nodes(phi):
        for value, role in _fields(f):
            if role in ("var", "bound"):
                out.add(value)
            elif role == "vars":
                out.update(value)
    return frozenset(out)


def subst_var(phi: Formula, renaming: dict) -> Formula:
    """Rename the free variables of ``phi`` all at once, each ``old`` to
    ``renaming[old]``; a binder that would capture a new name is renamed
    to a fresh variable first.  A subformula shared in the DAG is renamed
    once per renaming that reaches it."""
    return _rename(phi, renaming, {})


def _rename(f: Formula, renaming: dict, memo: dict) -> Formula:
    """:func:`subst_var` with ``memo`` mapping (id of node, renaming of its
    free variables) to the renamed node.  The memo is passed down rather
    than closed over, so a call leaves no reference cycle behind for the
    garbage collector."""
    free = free_vars(f)
    renaming = {old: new for old, new in renaming.items() if old in free and old != new}
    if not renaming:
        return f
    key = (id(f), tuple(sorted(renaming.items())))
    got = memo.get(key)
    if got is not None:
        return got
    values = []
    for value, role in _fields(f):
        if role == "bound" and value in renaming.values():
            fresh = _fresh_var(value, _all_vars(f).union(renaming, renaming.values()))
            renaming = {**renaming, value: fresh}
        if role in ("var", "bound"):
            value = renaming.get(value, value)
        elif role == "vars":
            value = tuple(renaming.get(v, v) for v in value)
        elif role == "sub":
            value = _rename(value, renaming, memo)
        elif role == "subs":
            value = tuple(_rename(a, renaming, memo) for a in value)
        values.append(value)
    got = memo[key] = type(f)(*values)
    return got


def _fresh_var(base: str, taken: frozenset) -> str:
    i = 1
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"


# ---------------------------------------------------------------------------
# Monoid registry


class MonoidRegistry:
    """Write-once registry of aperiodicity-certified monoids."""

    def __init__(self):
        self._monoids: dict = {}
        self._reports: dict = {}

    def register(self, name: str, monoid: TransitionMonoid):
        if name in self._monoids:
            if self._monoids[name] is monoid:
                return self._reports[name]
            raise RegistryError(f"monoid name {name!r} already registered")
        report = is_aperiodic(monoid)
        if not report.aperiodic:
            raise RegistryError(
                f"monoid {name!r} is not aperiodic; class atoms would not be star-free"
            )
        self._monoids[name] = monoid
        self._reports[name] = report
        return report

    def monoid(self, name: str) -> TransitionMonoid:
        if name not in self._monoids:
            raise RegistryError(f"unknown monoid {name!r}")
        return self._monoids[name]

    def element(self, name: str, elem_id: str) -> BehaviorProfile:
        by_id = self.monoid(name).by_id
        if elem_id not in by_id:
            raise RegistryError(f"monoid {name!r} has no element {elem_id!r}")
        return by_id[elem_id]

    def names(self):
        return tuple(self._monoids)


def _run_monoid(registry: Optional[MonoidRegistry], name: str, states: tuple) -> TransitionMonoid:
    """The monoid of a run atom, whose machine must have the atom's states."""
    if registry is None:
        raise RegistryError("run atom used without a monoid registry")
    m = registry.monoid(name)
    if not all(0 <= i < len(m.machine.states) for i in states):
        raise RegistryError(f"monoid {name!r} has no states numbered {states}")
    return m


def check_atoms(phi: Formula, registry: MonoidRegistry) -> None:
    """Raise :class:`RegistryError` unless every class atom of ``phi`` names
    an element, and every run atom states, of a monoid in ``registry``."""
    for f in _nodes(phi):
        for _, role in _fields(f):
            if role == "element":
                registry.element(f.monoid, f.element)
            elif role == "states":
                _run_monoid(registry, f.monoid, f.states)


def _run_truth(
    m: TransitionMonoid, kind: str, states: tuple, factors: tuple, segments: tuple
) -> bool:
    """Truth of a run atom of ``kind`` and ``states`` on a word cut at its
    variables.

    ``factors`` are the classes and cut letters of the word, left to right,
    as :func:`monoid.run_visits` reads them; the atom's variables sit on the
    cut letters numbered ``segments`` in its chain.
    """
    if kind == "accept":
        return accepts_from_class(m, factors[0])
    if kind == "visit":
        t = m.machine
        start = (0, t.states.index(t.initial))
        return states[0] in run_visits(m, factors, start, segments[0])
    return states[1] in run_visits(m, factors, (segments[0], states[0]), segments[1])


# ---------------------------------------------------------------------------
# Evaluation


class _Plan(NamedTuple):
    """How to evaluate one formula node, built once from its children's plans."""

    free: frozenset  # the node's free variables
    names: tuple  # the same, sorted
    run: Callable  # (session, sigma) -> truth under the assignment sigma


def _plan(phi: Formula) -> _Plan:
    got = getattr(phi, "_plan", None)
    if got is None:
        got = _build_plan(phi)
        object.__setattr__(phi, "_plan", got)
    return got


def _memoized(phi: Formula, free, compute) -> _Plan:
    """``compute`` behind the session memo, keyed by the node's number and
    the values of its free variables.  The cyclic collector stops tracking
    keys of numbers only (a function in a key would keep it tracked), so a
    large memo costs no collection time."""
    names = tuple(sorted(free))
    values = itemgetter(*names) if names else lambda sigma: ()
    number = phi._number

    def run(s, sigma):
        key = (number, values(sigma))
        memo = s._memo
        got = memo.get(key)
        if got is None:
            got = memo[key] = compute(s, sigma)
        return got

    return _Plan(free, names, run)


def _build_plan(phi: Formula) -> _Plan:
    kind = type(phi)
    if kind is TrueF:
        return _Plan(frozenset(), (), lambda s, sigma: True)
    if kind is Letter:
        symbol, var = phi.symbol, phi.var
        return _Plan(frozenset({var}), (var,), lambda s, sigma: s._tape[sigma[var]] == symbol)
    if kind is Le:
        left, right = phi.left, phi.right
        names = tuple(sorted({left, right}))
        return _Plan(frozenset(names), names, lambda s, sigma: sigma[left] <= sigma[right])
    if kind is Not:
        arg = _plan(phi.arg)
        inner = arg.run
        return arg._replace(run=lambda s, sigma: not inner(s, sigma))
    if kind is And or kind is Or:
        plans = [_plan(a) for a in phi.args]
        runs = tuple(p.run for p in plans)
        stop = kind is Or  # the value that decides the connective

        def compute(s, sigma):
            for r in runs:
                if r(s, sigma) == stop:
                    return stop
            return not stop

        return _memoized(phi, frozenset().union(*(p.free for p in plans)), compute)
    if kind is Exists or kind is Forall:
        body, var, want = _plan(phi.body), phi.var, kind is Exists
        inner = body.run

        def compute(s, sigma):
            sigma2 = dict(sigma)
            for i in s.positions:
                sigma2[var] = i
                if inner(s, sigma2) == want:
                    return want
            return not want

        return _memoized(phi, body.free - {var}, compute)
    if kind is FactorClass:
        name, element, left, right = phi.monoid, phi.element, phi.left, phi.right

        def compute(s, sigma):
            i, j = sigma[left], sigma[right]
            if i > j:
                raise MalformedClassAtom(f"factor bounds {i} > {j}")
            return s.factor_class(name, i, j) == s.registry.element(name, element)

        return _memoized(phi, frozenset({left, right}), compute)
    if kind is PrefixClass or kind is SuffixClass:
        name, element, var, prefix = phi.monoid, phi.element, phi.var, kind is PrefixClass

        def compute(s, sigma):
            i = sigma[var]
            e = s.prefix_class(name, i) if prefix else s.suffix_class(name, i)
            return s.registry.element(name, element) == e

        return _memoized(phi, frozenset({var}), compute)
    if kind is RunAtom:
        # the plan lives on the node, so it keeps the atom's fields, not the atom
        fields = phi.monoid, phi.kind, phi.states, phi.vars
        return _memoized(phi, frozenset(phi.vars), lambda s, sigma: s._run(*fields, sigma))
    raise TypeError(f"not a formula: {phi!r}")


class EvalSession:
    """Reusable evaluator for one word.

    Every formula node carries an evaluation plan, built once from its
    children's plans and kept on the node: its free variables and a function
    that calls the children's functions directly.  The session holds what
    depends on the word: per monoid, the classes of prefixes, suffixes and
    factors, and one memo for all formulas it evaluates.  The memo records
    the truth of each connective, quantifier, class atom and run atom under
    each assignment of its free variables; letter and order atoms and
    negations are recomputed, as that is cheaper.  Formulas that share
    subterms (as the generated transductions do) share those entries.
    """

    def __init__(self, w, registry: Optional[MonoidRegistry] = None, marked: bool = False):
        self.word = as_word(w)
        self.n = len(self.word)
        self.registry = registry
        self.marked = marked
        self.positions = range(0, self.n + 2) if marked else range(1, self.n + 1)
        self._tape = (LEFT_MARK,) + self.word + (RIGHT_MARK,)  # symbol at each position
        self._prefix: dict = {}
        self._suffix: dict = {}
        self._factor: dict = {}
        self._memo: dict = {}
        self._read_by: set = set()  # names of monoids known to read every letter

    def _mono(self, name):
        if self.registry is None:
            raise RegistryError("class atom used without a monoid registry")
        m = self.registry.monoid(name)
        if name not in self._read_by:
            if not all(a in m.morphism for a in self.word):
                raise SymbolNotInAlphabet(f"the word has a letter outside the alphabet of monoid {name!r}")
            self._read_by.add(name)
        return m

    def _run(self, name: str, kind: str, states: tuple, vars_: tuple, sigma: dict) -> bool:
        """A run atom, from the classes around its cuts and the cut letters."""
        m = _run_monoid(self.registry, name, states)
        cuts = sorted({sigma[v] for v in vars_})
        if any(self._tape[c] in (LEFT_MARK, RIGHT_MARK) for c in cuts):
            return False
        factors = [self.prefix_class(name, cuts[0] if cuts else self.n + 1)]
        for c, d in zip(cuts, cuts[1:] + [None]):
            gap = self.suffix_class(name, c) if d is None else self.factor_class(name, c + 1, d - 1)
            factors += [self._tape[c], gap]
        segments = tuple(2 + 2 * cuts.index(sigma[v]) for v in vars_)
        return _run_truth(m, kind, states, tuple(factors), segments)

    def prefix_class(self, name, i: int) -> BehaviorProfile:
        """Class of the real letters strictly before position ``i``."""
        if name not in self._prefix:
            m = self._mono(name)
            acc = [m.identity]
            for a in self.word:
                acc.append(m.product(acc[-1], m.morphism[a]))
            self._prefix[name] = acc  # acc[i] = class of word[0:i]
        return self._prefix[name][min(max(i - 1, 0), self.n)]

    def suffix_class(self, name, i: int) -> BehaviorProfile:
        """Class of the real letters strictly after position ``i``."""
        if name not in self._suffix:
            m = self._mono(name)
            acc = [m.identity]
            for a in reversed(self.word):
                acc.append(m.product(m.morphism[a], acc[-1]))
            acc.reverse()
            self._suffix[name] = acc  # acc[i] = class of word[i:]
        return self._suffix[name][min(max(i, 0), self.n)]

    def factor_class(self, name, i: int, j: int) -> BehaviorProfile:
        """Class of the real letters at positions ``i..j`` inclusive."""
        lo, hi = max(i, 1), min(j, self.n)
        if hi < lo:
            return self._mono(name).identity
        key = (name, lo, hi)
        if key not in self._factor:
            m = self._mono(name)
            e = m.identity
            for a in self.word[lo - 1 : hi]:
                e = m.product(e, m.morphism[a])
            self._factor[key] = e
        return self._factor[key]

    def eval(self, phi: Formula, assignment: Optional[dict] = None) -> bool:
        """Truth of ``phi`` when each of its free variables sits at the
        position ``assignment`` gives it."""
        plan, sigma = _plan(phi), assignment or {}
        for v in plan.names:
            if v not in sigma:
                raise UnboundVariable(f"unbound variables: {sorted(plan.free - set(sigma))}")
            if sigma[v] not in self.positions:
                lo, hi = self.positions.start, self.positions.stop - 1
                raise PositionOutOfRange(f"{v}={sigma[v]!r} is outside the positions {lo}..{hi}")
        return plan.run(self, sigma)


def eval_formula(
    phi: Formula,
    w,
    assignment: Optional[dict] = None,
    registry: Optional[MonoidRegistry] = None,
    marked: bool = False,
) -> bool:
    """Standard FO semantics; quantifiers over the context's position range."""
    return EvalSession(w, registry, marked).eval(phi, assignment)


# ---------------------------------------------------------------------------
# Compilation to DFAs over marked alphabets


class _Compiler:
    def __init__(self, base: Alphabet, registry: Optional[MonoidRegistry], marked: bool):
        self.base = base
        self.registry = registry
        self.marked = marked
        self.cache: dict = {}

    def alphabet_for(self, nvars: int) -> Alphabet:
        return marked_alphabet(self.base, nvars, with_marks=self.marked)

    def compile(self, phi: Formula, scope: tuple) -> Dfa:
        key = (phi, scope)
        if key in self.cache:
            return self.cache[key]
        d = self._compile(phi, scope)
        self.cache[key] = d
        return d

    def _compile(self, phi: Formula, scope: tuple) -> Dfa:
        alpha = self.alphabet_for(len(scope))
        if isinstance(phi, TrueF):
            return dfa_universal(alpha, True)
        if isinstance(phi, Letter):
            return self._letter(phi, scope, alpha)
        if isinstance(phi, Le):
            return self._le(phi, scope, alpha)
        if isinstance(phi, (PrefixClass, SuffixClass, FactorClass)):
            return self._class_span(phi, scope, alpha)
        if isinstance(phi, RunAtom):
            return self._run_atom(phi, scope, alpha)
        if isinstance(phi, (And, Or)):
            combine = dfa_intersect if isinstance(phi, And) else dfa_union
            return reduce(combine, (self.compile(a, scope) for a in phi.args))
        if isinstance(phi, Not):
            return dfa_complement(self.compile(phi.arg, scope))
        if isinstance(phi, Exists):
            return self._exists(phi, scope)
        if isinstance(phi, Forall):
            return self._exists(Exists(phi.var, neg(phi.body)), scope, negate=True)
        raise TypeError(f"not a formula: {phi!r}")

    def _exists(self, phi: Exists, scope: tuple, negate: bool = False) -> Dfa:
        var = phi.var
        if var in scope:
            fresh = _fresh_var(var, frozenset(scope) | _all_vars(phi.body))
            return self._exists(Exists(fresh, subst_var(phi.body, {var: fresh})), scope, negate)
        inner_scope = scope + (var,)
        body = self.compile(phi.body, inner_scope)
        body = dfa_intersect(body, self._exactly_one(len(inner_scope), len(scope)))
        projected = dfa_project_bit(body, len(scope))
        if negate:
            projected = dfa_complement(projected)
        return projected

    def _exactly_one(self, nvars: int, bit: int) -> Dfa:
        # counts the marks on ``bit``, saturating at 2
        return dense_dfa(
            self.alphabet_for(nvars), 3, 0, {1},
            lambda s: s[1][bit], lambda q, marked: min(q + marked, 2),
        )

    def _bit(self, scope, var):
        return scope.index(var)

    def _letter(self, phi: Letter, scope, alpha) -> Dfa:
        bit = self._bit(scope, phi.var)

        def step(q, key):
            marked, match = key
            if q == 0 and marked:
                return 1 if match else 2
            return q

        return dense_dfa(
            alpha, 3, 0, {1}, lambda s: (s[1][bit] == 1, s[0] == phi.symbol), step
        )

    def _le(self, phi: Le, scope, alpha) -> Dfa:
        bx, by = self._bit(scope, phi.left), self._bit(scope, phi.right)

        # 0: neither seen, 1: x first, 2: y first, 3: accept, 4: reject
        def step(q, key):
            x, y = key
            if q == 0:
                return 3 if (x and y) else 1 if x else 2 if y else 0
            if q == 1:
                return 3 if y else 1
            if q == 2:
                return 4 if x else 2
            return q

        return dense_dfa(
            alpha, 5, 0, {3}, lambda s: (s[1][bx] == 1, s[1][by] == 1), step
        )

    def _class_span(self, phi, scope, alpha) -> Dfa:
        """A class atom: the class of a span of real letters is the atom's
        element.  A prefix is open from the tape start and closes at its
        variable, whose letter it leaves out; a suffix opens at its variable,
        leaving its letter out, and runs to the tape end; a factor opens at
        its left variable and closes at its right one, both letters in."""
        if self.registry is None:
            raise RegistryError("class atom used without a monoid registry")
        m = self.registry.monoid(phi.monoid)
        target = self.registry.element(phi.monoid, phi.element)
        factor = isinstance(phi, FactorClass)
        if factor:
            opens, closes = phi.left, phi.right
        elif isinstance(phi, PrefixClass):
            opens, closes = None, phi.var
        else:
            opens, closes = phi.var, None
        bo, bc = (None if v is None else self._bit(scope, v) for v in (opens, closes))
        # 0: accept, 1: reject, 2: before the span, 3 + i: open, class m.elements[i]
        elems = m.elements
        num = {e: 3 + i for i, e in enumerate(elems)}

        def step(q, key):
            opened, closed, base = key
            if q < 2:
                return q
            if q == 2:
                if not opened:
                    return 1 if closed else 2  # a factor that closes before it opens
                e = m.identity
            else:
                e = elems[q - 3]
            if (factor or not (opened or closed)) and base not in (LEFT_MARK, RIGHT_MARK):
                e = m.product(e, m.morphism[base])
            if closed:
                return 0 if e == target else 1
            return num[e]

        d = dense_dfa(
            alpha,
            3 + len(elems),
            num[m.identity] if opens is None else 2,
            {num[target]} if closes is None else {0},
            lambda s: (bo is not None and s[1][bo] == 1, bc is not None and s[1][bc] == 1, s[0]),
            step,
        )
        return dfa_minimize(d)

    def _run_atom(self, phi: RunAtom, scope, alpha) -> Dfa:
        """The atom's own DFA, lifted into the scope: a scope symbol moves as
        the atom symbol with its letter and the bits of the atom's variables."""
        m = _run_monoid(self.registry, phi.monoid, phi.states)
        names = tuple(dict.fromkeys(phi.vars))
        own = _run_atom_dfa(m, phi, tuple(map(names.index, phi.vars)), self.base, self.marked)
        bits = [self._bit(scope, v) for v in names]
        return dfa_inverse_image(own, alpha, lambda s: (s[0], tuple([s[1][b] for b in bits])))

    def shape_dfa(self, nvars: int) -> Dfa:
        """Marked tapes: a single ^ first, a single $ last, letters between."""
        # 0: expect ^, 1: inside, 2: after $, 3: reject
        def step(q, base):
            if q == 0:
                return 1 if base == LEFT_MARK else 3
            if q == 1:
                return 2 if base == RIGHT_MARK else (1 if base != LEFT_MARK else 3)
            return 3

        return dense_dfa(self.alphabet_for(nvars), 4, 0, {2}, lambda s: s[0], step)


def _run_atom_dfa(m: TransitionMonoid, phi: RunAtom, pattern: tuple, base: Alphabet, marked: bool) -> Dfa:
    """The minimal DFA of a run atom at its own width, ``base x {0,1}^k``
    for its ``k`` distinct variables; ``pattern`` numbers each variable of
    the atom by its first use, so ``(reach M i j x x)`` has ``(0, 0)``.
    Each atom is explored once per monoid and kept on it, as products are.
    """
    key = (phi.kind, phi.states, pattern, marked, base)
    got = m._atoms.get(key)
    if got is None:
        alpha = marked_alphabet(base, len(set(pattern)), with_marks=marked)
        got = m._atoms[key] = _explore_run_atom(m, phi, alpha, pattern)
    return got


def _explore_run_atom(m: TransitionMonoid, phi: RunAtom, alpha: Alphabet, bits) -> Dfa:
    """The DFA of a run atom over a marked alphabet in which the variables
    of the atom have the bits numbered ``bits``, in order.

    It reads the cut factorization of the tape: a state holds the classes
    and cut letters so far, the class being read last, and the segment of
    each placed variable (0 before it is placed).  Final states are decided
    by :func:`_run_truth`, as in evaluation.
    """
    morphism, product = m.morphism, m.product

    def step(state, key):
        if state is None:
            return None
        base, marks = key
        factors, segments = state
        if not any(marks):
            if base in (LEFT_MARK, RIGHT_MARK):
                return state
            return factors[:-1] + (product(factors[-1], morphism[base]),), segments
        if base in (LEFT_MARK, RIGHT_MARK) or any(s and mk for s, mk in zip(segments, marks)):
            return None  # a cut on an endmarker, or a variable marked twice
        cell = len(factors) + 1
        return factors + (base, m.identity), tuple(
            cell if mk else s for s, mk in zip(segments, marks)
        )

    return explore_dfa(
        alpha,
        lambda s: (s[0], tuple([s[1][b] for b in bits])),
        ((m.identity,), (0,) * len(bits)),
        step,
        lambda state: (
            state is not None and all(state[1]) and _run_truth(m, phi.kind, phi.states, *state)
        ),
    )


def compile_to_dfa(
    phi: Formula,
    free_var_order,
    base_alphabet: Alphabet,
    registry: Optional[MonoidRegistry] = None,
    marked: bool = False,
) -> Dfa:
    """DFA over ``base x {0,1}^k`` accepting the validly-marked models of phi.

    Each variable of ``free_var_order`` contributes one bit, in declaration
    order; accepted words mark every variable exactly once and satisfy the
    formula under the induced assignment.  In marked mode the language
    consists of full tapes ``^ w $`` and variables may sit on endmarkers.
    """
    return compile_to_dfas([phi], free_var_order, base_alphabet, registry, marked)[0]


def compile_to_dfas(
    formulas,
    free_var_order,
    base_alphabet: Alphabet,
    registry: Optional[MonoidRegistry] = None,
    marked: bool = False,
) -> list:
    """:func:`compile_to_dfa` of each formula, through one compiler, so that
    a subformula the formulas share is compiled once.  Equal subformulas
    built apart are one node, so they are shared too."""
    scope = tuple(free_var_order)
    for phi in formulas:
        missing = free_vars(phi) - set(scope)
        if missing:
            raise UnboundVariable(f"unbound variables: {sorted(missing)}")
    comp = _Compiler(base_alphabet, registry, marked)
    valid = comp.shape_dfa(len(scope)) if marked else dfa_universal(comp.alphabet_for(len(scope)))
    for bit in range(len(scope)):
        valid = dfa_intersect(valid, comp._exactly_one(len(scope), bit))
    return [dfa_intersect(comp.compile(phi, scope), valid) for phi in formulas]


def mark_word(w, positions: dict, free_var_order, marked: bool = False):
    """Encode ``w`` with variable marks as a word over the product alphabet."""
    w = as_word(w)
    scope = tuple(free_var_order)
    cells = (
        [LEFT_MARK] + list(w) + [RIGHT_MARK] if marked else list(w)
    )
    offset = 0 if marked else 1
    out = []
    for idx, base in enumerate(cells):
        pos = idx + offset if not marked else idx
        bits = tuple(1 if positions.get(v) == pos else 0 for v in scope)
        out.append((base, bits))
    return tuple(out)


@dataclass(frozen=True)
class StarFreeCertificate:
    star_free: bool
    index: int


def certify_star_free(
    phi: Formula,
    free_var_order,
    base_alphabet: Alphabet,
    registry: Optional[MonoidRegistry] = None,
) -> StarFreeCertificate:
    """Compile and check counter-freeness; failure signals an internal bug
    or an uncertified class atom."""
    d = compile_to_dfa(phi, free_var_order, base_alphabet, registry)
    report = dfa_is_counter_free(d)
    if not report.aperiodic:
        raise NonAperiodicCompilation(
            "compiled automaton is not counter-free; formula is outside FO"
        )
    return StarFreeCertificate(True, report.index)


# ---------------------------------------------------------------------------
# Concrete syntax (prefix notation)


def show_formula(phi: Formula) -> str:
    items = _fields(phi)
    parts = [phi.operator or phi.kind]
    for value, role in items:
        if role in ("sub", "subs"):
            parts += map(show_formula, (value,) if role == "sub" else value)
        elif role == "letter":
            parts.append(show_symbol(value))
        elif role in ("states", "vars"):
            parts += map(str, value)
        elif role != "kind":
            parts.append(value)
    return "(" + " ".join(parts) + ")"


class FormulaSyntaxError(ValueError):
    pass


def _tokenize(text: str):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_sexpr(tokens, i):
    if tokens[i : i + 1] != ["("]:
        raise FormulaSyntaxError(f"expected '(' at token {i}")
    i += 1
    items = []
    while i < len(tokens) and tokens[i] != ")":
        if tokens[i] == "(":
            node, i = _parse_sexpr(tokens, i)
            items.append(node)
        else:
            items.append(tokens[i])
            i += 1
    if i >= len(tokens):
        raise FormulaSyntaxError("unbalanced parentheses")
    return items, i + 1


def parse_formula(text: str) -> Formula:
    tokens = _tokenize(text)
    tree, end = _parse_sexpr(tokens, 0)
    if end != len(tokens):
        raise FormulaSyntaxError("trailing tokens after formula")
    return _tree_to_formula(tree)


def _tree_to_formula(tree) -> Formula:
    if not isinstance(tree, list) or not tree or not isinstance(tree[0], str):
        raise FormulaSyntaxError(f"bad node {tree!r}")
    head, args = tree[0], tree[1:]
    kind = _BY_OPERATOR.get(head)
    if kind is None:
        raise FormulaSyntaxError(f"unknown operator {head!r}")
    # the tokens each field takes: a run atom's kind is its operator, and its
    # arity numbers its states and its variables; and/or take every argument
    k = _RUN_ARITY.get(head)
    widths = [{"kind": 0, "subs": len(args), "states": k, "vars": k}.get(role, 1) for _, role in kind.shape]
    if sum(widths) != len(args):
        raise FormulaSyntaxError(f"{head} expects {sum(widths)} arguments, got {len(args)}")
    values, i = [], 0
    for (_, role), n in zip(kind.shape, widths):
        got, i = args[i : i + n], i + n
        if role in ("sub", "subs"):
            got = [_tree_to_formula(a) for a in got]
        elif not all(isinstance(a, str) for a in got):
            raise FormulaSyntaxError(f"{head} expects a name where a formula is")
        elif role == "states":
            if not all(a.isdecimal() for a in got):
                raise FormulaSyntaxError(f"{head} takes a monoid, state indices and variables")
            got = [int(a) for a in got]
        elif role == "letter":
            got = [parse_symbol(got[0])]
        if role == "kind":
            values.append(head)
        elif role in ("states", "vars", "subs"):
            values.append(tuple(got))
        else:
            values.append(got[0])
    return {And: conj, Or: disj, Not: neg}.get(kind, kind)(*values)
