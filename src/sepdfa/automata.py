"""Three-valued acceptors over labelled samples.

Provides the prefix-tree acceptor, backward minimisation of acyclic
automata, an incremental construction that keeps the working automaton
minimal while samples stream in ascending order, and the double automaton
that places one minimal acceptor per polarity side by side, each with its
own initial state.  The three builders take a SampleSet, read its
entries() in ascending order, and return a ThreeValuedDFA.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .samples import DONT_CARE, NEGATIVE, POSITIVE, SampleSet, Word

_STATUS_CODES = {POSITIVE: "A", NEGATIVE: "R", DONT_CARE: "D"}
_CODE_STATUS = {v: k for k, v in _STATUS_CODES.items()}


class AutomatonFormatError(ValueError):
    """Malformed automaton dump text."""


@dataclass(frozen=True)
class ThreeValuedDFA:
    """Deterministic acceptor whose states accept, reject or don't care.

    The transition map may be partial; a run that hits a missing entry is
    undefined.  States are numbered 0 .. state_count - 1.  Most acceptors
    have one initial state; the double automaton has two, one per
    polarity.
    """

    alphabet_size: int
    state_count: int
    initials: tuple[int, ...]
    transitions: dict[tuple[int, int], int]
    accepting: frozenset[int]
    rejecting: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "initials", tuple(self.initials))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        object.__setattr__(self, "rejecting", frozenset(self.rejecting))
        if self.state_count < 1:
            raise ValueError("automaton needs at least one state")
        if not self.initials:
            raise ValueError("automaton needs an initial state")
        if len(set(self.initials)) != len(self.initials):
            raise ValueError("initial states repeat")
        for q in self.initials:
            if not 0 <= q < self.state_count:
                raise ValueError(f"initial state {q} out of range")
        if self.accepting & self.rejecting:
            raise ValueError("accepting and rejecting state sets overlap")
        for q in self.accepting | self.rejecting:
            if not 0 <= q < self.state_count:
                raise ValueError(f"status state {q} out of range")
        for (q, a), r in self.transitions.items():
            if not (0 <= q < self.state_count and 0 <= r < self.state_count
                    and 0 <= a < self.alphabet_size):
                raise ValueError(f"bad transition ({q}, {a}) -> {r}")

    def status(self, q: int) -> str:
        if q in self.accepting:
            return POSITIVE
        if q in self.rejecting:
            return NEGATIVE
        return DONT_CARE


@dataclass(frozen=True)
class LearnedDFA:
    """Complete DFA, the output of the mining search.  State 0 is initial."""

    alphabet_size: int
    state_count: int
    transitions: dict[tuple[int, int], int]
    accepting: frozenset[int]

    initials = (0,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        if self.state_count < 1:
            raise ValueError("automaton needs at least one state")
        for q in self.accepting:
            if not 0 <= q < self.state_count:
                raise ValueError(f"accepting state {q} out of range")
        for q in range(self.state_count):
            for a in range(self.alphabet_size):
                r = self.transitions.get((q, a))
                if r is None:
                    raise ValueError(f"missing transition for ({q}, {a})")
                if not 0 <= r < self.state_count:
                    raise ValueError(f"bad transition ({q}, {a}) -> {r}")
        if len(self.transitions) != self.state_count * self.alphabet_size:
            raise ValueError("transition map holds spurious entries")

    def accepts(self, w: Word) -> bool:
        q = 0
        for a in w:
            if not 0 <= a < self.alphabet_size:
                raise ValueError(f"letter {a} outside alphabet")
            q = self.transitions[(q, a)]
        return q in self.accepting

    def status(self, q: int) -> str:
        return POSITIVE if q in self.accepting else NEGATIVE


def run(a: ThreeValuedDFA, w: Word) -> str | None:
    """Classify w with the acceptor, trying each initial state in turn.

    The first run that ends in an accepting or rejecting state decides.
    Otherwise the result is don't-care when some run ends in a state, and
    None when every run becomes undefined.
    """
    for letter in w:
        if not 0 <= letter < a.alphabet_size:
            raise ValueError(f"letter {letter} outside alphabet")
    outcome = None
    for q in a.initials:
        for letter in w:
            q = a.transitions.get((q, letter))
            if q is None:
                break
        else:
            outcome = a.status(q)
            if outcome != DONT_CARE:
                return outcome
    return outcome


def _assemble(alphabet_size: int, children: list[dict[int, int]],
              status: list[str],
              initials: tuple[int, ...] = (0,)) -> ThreeValuedDFA:
    """Acceptor from per-state successor maps and statuses, in that order."""
    transitions = {(q, a): r for q, kids in enumerate(children)
                   for a, r in kids.items()}
    accepting = [q for q, label in enumerate(status) if label == POSITIVE]
    rejecting = [q for q, label in enumerate(status) if label == NEGATIVE]
    return ThreeValuedDFA(alphabet_size, len(children), initials, transitions,
                          frozenset(accepting), frozenset(rejecting))


def build_apta(samples: SampleSet) -> ThreeValuedDFA:
    """Prefix-tree acceptor: one state per distinct prefix of the samples."""
    children: list[dict[int, int]] = [{}]
    status: list[str] = [DONT_CARE]
    for w, label in samples.entries():
        cur = 0
        for a in w:
            nxt = children[cur].get(a)
            if nxt is None:
                nxt = len(children)
                children[cur][a] = nxt
                children.append({})
                status.append(DONT_CARE)
            cur = nxt
        status[cur] = label
    return _assemble(samples.alphabet_size, children, status)


def canonical_form(a: ThreeValuedDFA) -> ThreeValuedDFA:
    """Renumber states in breadth-first discovery order, letters ascending.

    The search starts from all initial states at once, which become
    0 .. len(initials) - 1 in their given order.  Raises if any state is
    unreachable from them; callers that tolerate junk states must prune
    them first.
    """
    order = {q: idx for idx, q in enumerate(a.initials)}
    queue = deque(a.initials)
    while queue:
        q = queue.popleft()
        for letter in range(a.alphabet_size):
            r = a.transitions.get((q, letter))
            if r is not None and r not in order:
                order[r] = len(order)
                queue.append(r)
    if len(order) != a.state_count:
        raise ValueError("automaton has unreachable states")
    transitions = {(order[q], letter): order[r]
                   for (q, letter), r in a.transitions.items()}
    accepting = frozenset(order[q] for q in a.accepting)
    rejecting = frozenset(order[q] for q in a.rejecting)
    return ThreeValuedDFA(a.alphabet_size, a.state_count,
                          tuple(range(len(a.initials))), transitions,
                          accepting, rejecting)


def isomorphic(a: ThreeValuedDFA, b: ThreeValuedDFA) -> bool:
    """Equality up to state renaming, decided via canonical renumbering."""
    if (a.alphabet_size != b.alphabet_size
            or a.state_count != b.state_count
            or len(a.accepting) != len(b.accepting)
            or len(a.rejecting) != len(b.rejecting)):
        return False
    ca = canonical_form(a)
    cb = canonical_form(b)
    return (ca.initials == cb.initials
            and ca.transitions == cb.transitions
            and ca.accepting == cb.accepting
            and ca.rejecting == cb.rejecting)


def minimize_acyclic(a: ThreeValuedDFA) -> ThreeValuedDFA:
    """Minimal three-valued automaton for the same classification function.

    States are merged when they share a status and, letter by letter,
    either both lack a successor or lead to already-merged successors.
    Processing runs backwards over a depth-first post-order, so each
    state's successors are canonical before the state itself is keyed.
    The input must be acyclic.  Initial states whose classifications
    coincide merge into one.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    mark = [WHITE] * a.state_count
    post: list[int] = []
    stack: list[tuple[int, int]] = []
    for q0 in a.initials:
        if mark[q0] == WHITE:
            stack.append((q0, 0))
            mark[q0] = GRAY
        while stack:
            q, letter = stack[-1]
            advanced = False
            while letter < a.alphabet_size:
                r = a.transitions.get((q, letter))
                letter += 1
                if r is None:
                    continue
                if mark[r] == GRAY:
                    raise ValueError("automaton contains a cycle")
                if mark[r] == WHITE:
                    stack[-1] = (q, letter)
                    stack.append((r, 0))
                    mark[r] = GRAY
                    advanced = True
                    break
            if not advanced:
                mark[q] = BLACK
                post.append(q)
                stack.pop()

    register: dict[tuple, int] = {}
    rep: dict[int, int] = {}
    rep_children: list[dict[int, int]] = []
    rep_status: list[str] = []
    for q in post:
        kids = {letter: rep[a.transitions[(q, letter)]]
                for letter in range(a.alphabet_size)
                if (q, letter) in a.transitions}
        sig = (a.status(q), tuple(kids.items()))
        known = register.get(sig)
        if known is None:
            known = len(rep_children)
            register[sig] = known
            rep_children.append(kids)
            rep_status.append(a.status(q))
        rep[q] = known
    initials = tuple(dict.fromkeys(rep[q] for q in a.initials))
    return canonical_form(
        _assemble(a.alphabet_size, rep_children, rep_status, initials))


class _IncrementalBuilder:
    """Grows a minimal acyclic automaton from ascending samples.

    At every point the automaton is minimal except for the path of the
    most recent word; a register keyed by (status, children) signatures
    holds one representative per equivalence class.  peak_live tracks the
    high-water mark of simultaneously existing states.
    """

    def __init__(self):
        self.children: list[dict[int, int] | None] = [{}]
        self.status: list[str] = [DONT_CARE]
        self.register: dict[tuple, int] = {}
        self.live = 1
        self.peak_live = 1

    def _signature(self, q: int) -> tuple:
        return (self.status[q], tuple(sorted(self.children[q].items())))

    def _replace_or_register(self, p: int) -> None:
        # The un-minimised suffix of the previous word hangs off p along
        # the chain of maximal-letter children; fold it bottom-up.
        chain = [p]
        while self.children[chain[-1]]:
            kids = self.children[chain[-1]]
            chain.append(kids[max(kids)])
        for idx in range(len(chain) - 1, 0, -1):
            state = chain[idx]
            parent_kids = self.children[chain[idx - 1]]
            sig = self._signature(state)
            known = self.register.get(sig)
            if known is None:
                self.register[sig] = state
            elif known != state:
                parent_kids[max(parent_kids)] = known
                self.children[state] = None
                self.live -= 1

    def add(self, w: Word, label: str) -> None:
        cur = 0
        depth = 0
        for a in w:
            nxt = self.children[cur].get(a)
            if nxt is None:
                break
            cur = nxt
            depth += 1
        if self.children[cur]:
            self._replace_or_register(cur)
        suffix = w[depth:]
        if not suffix:
            # Ascending order leaves only one way to land on an existing
            # state: the empty word as the very first sample.
            self.status[cur] = label
            return
        for a in suffix:
            nid = len(self.children)
            self.children.append({})
            self.status.append(DONT_CARE)
            self.children[cur][a] = nid
            cur = nid
            self.live += 1
            if self.live > self.peak_live:
                self.peak_live = self.live
        self.status[cur] = label

    def finish(self) -> tuple[list[dict[int, int]], list[str]]:
        """Fold the last word in; successor maps and statuses per state.

        States are renumbered in breadth-first order, letters ascending,
        from state 0.
        """
        if self.children[0]:
            self._replace_or_register(0)
        order = {0: 0}
        seq = [0]
        for q in seq:  # grows while it is walked: a breadth-first queue
            kids = self.children[q]
            for a in sorted(kids):
                r = kids[a]
                if r not in order:
                    order[r] = len(seq)
                    seq.append(r)
        if len(seq) != self.live:
            raise RuntimeError(
                "internal error: live state count does not match reachability")
        children = [{a: order[r] for a, r in self.children[q].items()}
                    for q in seq]
        return children, [self.status[q] for q in seq]


def build_min_3dfa_incremental(samples: SampleSet) -> ThreeValuedDFA:
    """Minimal three-valued automaton for the samples, built incrementally.

    Equivalent to minimising the prefix-tree acceptor, but the working
    automaton never grows beyond the number of distinct sample prefixes.
    """
    builder = _IncrementalBuilder()
    for w, label in samples.entries():
        builder.add(w, label)
    return _assemble(samples.alphabet_size, *builder.finish())


def build_ddfa(samples: SampleSet) -> ThreeValuedDFA:
    """Minimal per-polarity acceptors side by side, one initial state each.

    States 0 .. P - 1 are the minimal acceptor of the positive words with
    initial state 0.  The minimal acceptor of the negative words follows,
    shifted by P, with initial state P; its accepting states are the
    rejecting ones.  One pass over the entries feeds both builders.
    """
    builders = {POSITIVE: _IncrementalBuilder(),
                NEGATIVE: _IncrementalBuilder()}
    for w, label in samples.entries():
        builders[label].add(w, label)
    children, status = builders[POSITIVE].finish()
    neg_children, neg_status = builders[NEGATIVE].finish()
    off = len(children)
    children += [{a: r + off for a, r in kids.items()}
                 for kids in neg_children]
    return _assemble(samples.alphabet_size, children, status + neg_status,
                     (0, off))


def dump_automaton(a: ThreeValuedDFA | LearnedDFA) -> str:
    """Line-oriented text dump: header, status per state, transitions."""
    if len(a.initials) != 1:
        raise ValueError("the dump format holds a single initial state")
    lines = [f"states {a.state_count} initial {a.initials[0]} "
             f"alphabet {a.alphabet_size}"]
    for q in range(a.state_count):
        lines.append(f"state {q} {_STATUS_CODES[a.status(q)]}")
    for (q, letter), r in sorted(a.transitions.items()):
        lines.append(f"trans {q} {letter} {r}")
    return "\n".join(lines) + "\n"


def parse_automaton(text: str) -> ThreeValuedDFA:
    """Parse the dump format back into a three-valued automaton."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise AutomatonFormatError("empty automaton dump")
    head = lines[0].split()
    if (len(head) != 6 or head[0] != "states" or head[2] != "initial"
            or head[4] != "alphabet"):
        raise AutomatonFormatError(f"bad header line: {lines[0]!r}")
    try:
        state_count, initial, alphabet_size = int(head[1]), int(head[3]), int(head[5])
    except ValueError:
        raise AutomatonFormatError(f"bad header line: {lines[0]!r}") from None
    statuses: dict[int, str] = {}
    transitions: dict[tuple[int, int], int] = {}
    for ln in lines[1:]:
        fields = ln.split()
        try:
            if fields[0] == "state" and len(fields) == 3:
                q = int(fields[1])
                if q in statuses:
                    raise AutomatonFormatError(f"duplicate state line for {q}")
                statuses[q] = fields[2]
                continue
            if fields[0] == "trans" and len(fields) == 4:
                key = (int(fields[1]), int(fields[2]))
                if key in transitions:
                    raise AutomatonFormatError(
                        f"duplicate transition for state {key[0]} "
                        f"letter {key[1]}")
                transitions[key] = int(fields[3])
                continue
        except ValueError:
            pass
        raise AutomatonFormatError(f"bad line: {ln!r}")
    if (len(statuses) != state_count
            or sorted(statuses) != list(range(state_count))):
        raise AutomatonFormatError("state lines do not cover every state once")
    accepting = set()
    rejecting = set()
    for q, code in statuses.items():
        if code not in _CODE_STATUS:
            raise AutomatonFormatError(f"unknown status code {code!r}")
        if code == "A":
            accepting.add(q)
        elif code == "R":
            rejecting.add(q)
    try:
        return ThreeValuedDFA(alphabet_size, state_count, (initial,),
                              transitions, frozenset(accepting),
                              frozenset(rejecting))
    except ValueError as err:
        raise AutomatonFormatError(str(err)) from None


def as_learned_dfa(a: ThreeValuedDFA) -> LearnedDFA:
    """Reinterpret a total, two-valued automaton as a learned DFA."""
    if a.initials != (0,):
        raise ValueError("learned automata start at state 0 alone")
    if len(a.accepting) + len(a.rejecting) != a.state_count:
        raise ValueError("automaton has don't-care states")
    if len(a.transitions) != a.state_count * a.alphabet_size:
        raise ValueError("automaton is not complete")
    return LearnedDFA(a.alphabet_size, a.state_count, dict(a.transitions),
                      a.accepting)
