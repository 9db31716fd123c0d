#!/usr/bin/env python3
"""Whole-project contract analyzer: lock order, layering, formats, reach.

Dependency-free (stdlib only), same contract as tools/lint/lint.py: findings
print as `path:line: [rule-id] message`, exit 0 clean / 1 findings / 2 usage.
Five passes, each independently runnable with --pass (see DESIGN.md "Static
analysis & determinism contracts"):

  lock-order      parse es::Mutex / ES_GUARDED_BY / LockGuard / UniqueLock
                  sites, build the static acquired-while-held graph, fail on
                  cycles (lock-order-cycle), flag blocking operations —
                  socket/file I/O, sleeps, exec::ThreadPool submission —
                  performed under a lock (blocking-under-lock), flag condvar
                  waits holding more than one lock (condvar-double-lock), and
                  flag ES_GUARDED_BY annotations naming a mutex that is not
                  declared anywhere in scope (guarded-by-unknown).
  layering        extract the `#include "..."` graph over src/ and enforce
                  the DAG declared in tools/analyze/layering.txt: no cycles
                  (layering-cycle), every cross-module edge points to a
                  strictly lower layer (layering-upward), every module is
                  declared (layering-undeclared), every declared module still
                  exists (layering-stale), and src/ never includes
                  bench/tools/tests (layering-upward).
  format-freeze   compute canonical layout digests for every serialized
                  surface (wire::write_*/read_* call sequences, protocol.h
                  enum/struct declarations, flight-recorder JSONL keys) and
                  check them in both directions against
                  tools/lint/frozen_formats.txt (format-freeze rule), so any
                  format edit forces an explicit digest refresh — and a
                  version-constant bump when the byte layout changed — in the
                  same diff.  `--update` regenerates the frozen file.
  reachability    walk the quoted-include graph from the shipped binaries'
                  sources (src/serve/serve_main.cpp, perfbench/src, bench,
                  examples, tools/flightq), a reached header also reaching
                  its same-stem .cpp, and flag every src/ header the walk
                  never reaches (reachability).  A header waives itself
                  with `analyze-ok: reachability <reason>` anywhere in it.
  knob-reach      every data member of a `*Config`, `*Options` or
                  `*Tunables` struct in src/ is assigned (`x.a.b = v`, each
                  member of the path counting) or designated-initialised
                  (`{.b = v}`) in a file the reachability walk reaches
                  (knob-reach).  Where the type is spelled (`T{.b = v}`,
                  or `x.b = v` on a `T x` declared in the same file) the
                  set counts only for `T::b`.  A member, or the `struct`
                  line for the whole struct, waives itself with
                  `analyze-ok: knob-reach <reason>`.  Known limit: an
                  unspelled set (a brace passed to a call, a data member's
                  path) still counts for every member of that name.

The lock-order pass is intentionally an over-approximation: inter-procedural
edges flow through a name-merged call graph (methods with the same unqualified
name share a node), and mutexes that cannot be attributed to a unique class
collapse into a per-file node.  False positives are waivable; false negatives
are bounded by the single-TU scope of Clang thread-safety analysis that this
pass complements.

Waivers: a finding line (or the line directly above it) may carry
`analyze-ok: <rule-id> <justification>`; the justification is mandatory.

Usage:
  analyze.py [--root DIR] [--pass NAME] [--layers F] [--formats F] [--json]
  analyze.py --update [--root DIR] [--formats F]   regenerate frozen formats
  analyze.py --list-passes
Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "lint"))
from lint import Finding, line_of, strip_comments  # noqa: E402

WAIVER_RE = re.compile(r"analyze-ok:\s*([\w-]+)(\s+\S.*)?")


def waived(raw_lines: list[str], lineno: int, rule_id: str) -> bool:
    """True if line `lineno` (1-based) or the line above carries an
    `analyze-ok: <rule-id> <justification>` waiver with a justification."""
    for ln in (lineno, lineno - 1):
        if 1 <= ln <= len(raw_lines):
            m = WAIVER_RE.search(raw_lines[ln - 1])
            if m and m.group(1) == rule_id and m.group(2):
                return True
    return False


def src_files(root: Path) -> list[Path]:
    return sorted(p for p in (root / "src").rglob("*")
                  if p.suffix in (".h", ".cpp"))


# ==========================================================================
# Pass 1: lock-order
#
# A statement-level scope walker over comment/string-stripped code.  Braces
# are classified by their "head" (the text since the last `;`/`{`/`}`):
# class, namespace, enum, lambda, function, or plain block.  Guard objects
# (es::LockGuard / es::UniqueLock) bind to the innermost function-like scope
# and are released when their block closes (or on an explicit .unlock()).
# While at least one guard is held, the walker records acquired-while-held
# edges, blocking operations, condvar waits, and calls (for one level of
# name-based inter-procedural propagation of acquire sets).
# ==========================================================================

MUTEX_DECL_RE = re.compile(r"\bes::(?:Shared)?Mutex\s+(\w+)")
GUARD_RE = re.compile(r"\bes::(?:LockGuard|UniqueLock)\s+(\w+)\s*\(")
GUARDED_BY_RE = re.compile(r"\bES_(?:PT_)?GUARDED_BY\s*\(\s*([^)]*?)\s*\)")
UNLOCK_RE = re.compile(r"\b(\w+)\s*\.\s*unlock\s*\(\s*\)")
RELOCK_RE = re.compile(r"\b(\w+)\s*\.\s*lock\s*\(\s*\)")
CONDVAR_WAIT_RE = re.compile(r"\.\s*wait(?:_for|_until)?\s*\(")
CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
WRITE_EXPR_RE = re.compile(r"(?:^|[;({])\s*([*\w.\->]+?)\s*<<")

CALL_KEYWORDS = frozenset({
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "noexcept", "throw", "new", "delete", "static_cast",
    "const_cast", "reinterpret_cast", "dynamic_cast", "static_assert",
    "assert", "defined", "case", "do", "else", "try", "LockGuard",
    "UniqueLock", "ES_GUARDED_BY", "ES_PT_GUARDED_BY",
})

BLOCKING_PATTERNS = [
    (re.compile(r"\bwrite_frame\s*\("), "socket write (write_frame)"),
    (re.compile(r"\bread_frame\s*\("), "socket read (read_frame)"),
    (re.compile(r"::\s*(?:read|write|recv|send|accept|poll|connect)\s*\("),
     "raw fd syscall"),
    (re.compile(r"\.\s*flush\s*\(\s*\)"), "stream flush"),
    (re.compile(r"\.\s*open\s*\("), "file open"),
    (re.compile(r"\bsleep_(?:for|until)\s*\("), "sleep"),
    (re.compile(r"\b(?:usleep|nanosleep)\s*\("), "sleep"),
    (re.compile(r"\bsubmit\s*\("), "exec::ThreadPool submission"),
    (re.compile(r"\bparallel_(?:for|reduce)\s*\("), "exec parallel region"),
]

HEAD_CLASS_RE = re.compile(r"\b(?:class|struct|union)\s+([\w:]+)")
HEAD_ENUM_RE = re.compile(r"\benum\b")
HEAD_NAMESPACE_RE = re.compile(r"\bnamespace\b")
HEAD_LAMBDA_RE = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^()]*\)\s*)?(?:mutable\s*)?"
    r"(?:noexcept\s*)?(?:->\s*[\w:<>,&*\s]+)?$")
HEAD_QUALIFIER_RE = re.compile(
    r"(?:\s*(?:const|noexcept|override|final|mutable"
    r"|->\s*[\w:<>,&*\s]+|ES_\w+\s*\([^()]*\)))*\s*$")
FUNC_NAME_RE = re.compile(r"((?:\w+\s*::\s*)*~?\w+)\s*$")
BLOCK_KEYWORDS = frozenset({"if", "for", "while", "switch", "catch"})


class Scope:
    __slots__ = ("kind", "name", "held")

    def __init__(self, kind: str, name: str = ""):
        self.kind = kind      # class | namespace | enum | func | lambda | block
        self.name = name
        self.held = []        # func/lambda only: list of Guard


class Guard:
    __slots__ = ("node", "var", "line", "depth", "active")

    def __init__(self, node: str, var: str, line: int, depth: int):
        self.node, self.var, self.line, self.depth = node, var, line, depth
        self.active = True


def match_paren(text: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def split_top_commas(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, c in enumerate(text):
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def strip_init_list(head: str) -> str:
    """Drop a constructor member-initializer list: `C::C(a) : m_(a)` -> the
    part before the top-level single `:` that follows a `)`."""
    depth, seen_paren = 0, False
    i = 0
    while i < len(head):
        c = head[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            seen_paren = seen_paren or c == ")"
        elif c == ":" and depth == 0 and seen_paren:
            if head[i - 1: i] != ":" and head[i + 1: i + 2] != ":":
                return head[:i]
            i += 1  # skip the second ':' of '::'
        i += 1
    return head


def classify_head(head: str):
    """Return (kind, name) for the scope opened by a `{` with this head."""
    h = strip_init_list(head).strip()
    if HEAD_ENUM_RE.search(h):
        return "enum", ""
    m = HEAD_CLASS_RE.search(h)
    if m and "(" not in h.split(m.group(1), 1)[0]:
        # A real class head, not `foo(struct tm x)`; base clauses are fine.
        before_brace = h[m.end():]
        if "(" not in before_brace:
            return "class", m.group(1)
    if HEAD_NAMESPACE_RE.search(h) and "(" not in h:
        return "namespace", ""
    if HEAD_LAMBDA_RE.search(h):
        return "lambda", "<lambda>"
    h2 = HEAD_QUALIFIER_RE.sub("", h)
    if h2.endswith(")"):
        # Walk back over the parameter list to find the callee name.
        depth, i = 0, len(h2) - 1
        while i >= 0:
            if h2[i] == ")":
                depth += 1
            elif h2[i] == "(":
                depth -= 1
                if depth == 0:
                    break
            i -= 1
        if i > 0:
            m = FUNC_NAME_RE.search(h2[:i])
            if m:
                name = re.sub(r"\s+", "", m.group(1))
                if name.split("::")[-1] not in BLOCK_KEYWORDS:
                    return "func", name
    return "block", ""


class MutexRegistry:
    """All es::Mutex declarations in the tree, attributed to their class."""

    def __init__(self):
        self.by_class = {}      # class name -> set of mutex member names
        self.by_file = {}       # file stem -> {mutex name -> set of classes}

    def add(self, stem: str, cls: str | None, name: str):
        if cls:
            self.by_class.setdefault(cls, set()).add(name)
        self.by_file.setdefault(stem, {}).setdefault(
            name, set()).add(cls or "")

    def resolve(self, stem: str, cls: str | None, name: str) -> str:
        """Node id for a guard on `name` seen in class `cls` of file `stem`.
        Preference: enclosing class member, then unique class in the same
        file pair, then unique class project-wide, then a per-file node."""
        if cls and name in self.by_class.get(cls, ()):
            return f"{cls}::{name}"
        file_classes = {c for c in self.by_file.get(stem, {}).get(name, ())
                        if c}
        if len(file_classes) == 1:
            return f"{next(iter(file_classes))}::{name}"
        global_classes = {c for c in self.by_class
                          if name in self.by_class[c]}
        if len(global_classes) == 1:
            return f"{next(iter(global_classes))}::{name}"
        return f"{stem}::{name}"


class FileLockFacts:
    """Per-file raw facts collected by the scope walker."""

    def __init__(self, path: Path):
        self.path = path
        self.guard_sites = []     # (func, cls, var, mutex_name, line)
        self.edge_sites = []      # (held_resolver_args, new_args, line)
        self.blocking = []        # (line, what, held_names)
        self.cv_double = []       # (line, held_names)
        self.calls_under_lock = []  # (callee, held_args, line)
        self.calls = []           # (func_key, callee)
        self.guarded_by = []      # (cls, mutex_name, line)
        self.mutex_decls = []     # (cls, name, line)


def nearest(stack: list[Scope], kinds) -> Scope | None:
    for sc in reversed(stack):
        if sc.kind in kinds:
            return sc
        if sc.kind in ("class", "namespace", "enum") and "func" in kinds:
            return None  # left the function context
    return None


def enclosing_class(stack: list[Scope]) -> str | None:
    for sc in reversed(stack):
        if sc.kind == "class":
            return sc.name
    return None


def context_class(stack: list[Scope]) -> str | None:
    """Class context of the current statement: the innermost class scope, or
    the `Class::` qualifier of an out-of-line method definition.  Lambdas
    capture their enclosing object, so they inherit the outer context."""
    for sc in reversed(stack):
        if sc.kind == "class":
            return sc.name
        if sc.kind == "func" and "::" in sc.name:
            return sc.name.rsplit("::", 1)[0]
    return None


def blank_preprocessor(code: str) -> str:
    """Blank out preprocessor directives (and their `\\` continuations) so
    macro definitions never look like declarations or lock sites."""
    lines = code.split("\n")
    cont = False
    for i, ln in enumerate(lines):
        if cont or ln.lstrip().startswith("#"):
            cont = ln.rstrip().endswith("\\")
            lines[i] = " " * len(ln)
        else:
            cont = False
    return "\n".join(lines)


def walk_file(path: Path, stream_members: set) -> FileLockFacts:
    facts = FileLockFacts(path)
    code = blank_preprocessor(
        strip_comments(path.read_text(), strip_strings=True))
    stack: list[Scope] = []
    paren_stack: list[int] = []
    paren_depth = 0
    buf_start = 0
    i, n = 0, len(code)

    def func_scope() -> Scope | None:
        return nearest(stack, ("func", "lambda"))

    def func_key() -> str:
        sc = func_scope()
        return sc.name.split("::")[-1] if sc and sc.kind == "func" else ""

    def held() -> list[Guard]:
        sc = func_scope()
        return [g for g in sc.held if g.active] if sc else []

    def statement(start: int, end: int):
        text = code[start:end]
        if not text.strip():
            return
        stem = path.stem
        cls = context_class(stack)

        for m in MUTEX_DECL_RE.finditer(text):
            facts.mutex_decls.append((enclosing_class(stack), m.group(1),
                                      line_of(code, start + m.start())))
        for m in GUARDED_BY_RE.finditer(text):
            idents = re.findall(r"[A-Za-z_]\w*", m.group(1))
            if idents:
                facts.guarded_by.append((cls, idents[-1],
                                         line_of(code, start + m.start())))

        sc = func_scope()
        if sc is None:
            return
        cur = held()

        for m in GUARD_RE.finditer(text):
            close = match_paren(text, m.end() - 1)
            if close < 0:
                continue
            args = split_top_commas(text[m.end():close])
            idents = re.findall(r"[A-Za-z_]\w*", args[0])
            if not idents:
                continue
            line = line_of(code, start + m.start())
            mutex = idents[-1]
            for g in cur:
                facts.edge_sites.append((g.node, (stem, cls, mutex), line))
            g = Guard(node=(stem, cls, mutex), var=m.group(1), line=line,
                      depth=len(stack))
            sc.held.append(g)
            facts.guard_sites.append((func_key(), cls, m.group(1), mutex,
                                      line))
            cur = held()

        for m in UNLOCK_RE.finditer(text):
            for g in sc.held:
                if g.var == m.group(1):
                    g.active = False
        for m in RELOCK_RE.finditer(text):
            for g in sc.held:
                if g.var == m.group(1):
                    g.active = True
        cur = held()

        if cur:
            names = [g.node for g in cur]
            if len(cur) >= 2 and CONDVAR_WAIT_RE.search(text):
                facts.cv_double.append(
                    (line_of(code, start), list(names)))
            for pat, what in BLOCKING_PATTERNS:
                m = pat.search(text)
                if m:
                    facts.blocking.append(
                        (line_of(code, start + m.start()), what,
                         list(names)))
            m = WRITE_EXPR_RE.search(text)
            if m:
                idents = re.findall(r"[A-Za-z_]\w*", m.group(1))
                if idents and idents[-1] in stream_members:
                    facts.blocking.append(
                        (line_of(code, start + m.start(1)),
                         f"ostream write to '{idents[-1]}'", list(names)))
            for m in CALL_RE.finditer(text):
                callee = m.group(1)
                if callee not in CALL_KEYWORDS and not callee.startswith(
                        "ES_"):
                    facts.calls_under_lock.append(
                        (callee, list(names),
                         line_of(code, start + m.start())))

        if func_key():
            for m in CALL_RE.finditer(text):
                if m.group(1) not in CALL_KEYWORDS:
                    facts.calls.append((func_key(), m.group(1)))

    while i < n:
        c = code[i]
        if c == "(":
            paren_depth += 1
        elif c == ")":
            paren_depth = max(0, paren_depth - 1)
        elif c == "{":
            statement(buf_start, i)
            kind, name = classify_head(code[buf_start:i])
            stack.append(Scope(kind, name))
            paren_stack.append(paren_depth)
            paren_depth = 0
            buf_start = i + 1
        elif c == "}":
            statement(buf_start, i)
            if stack:
                popped_depth = len(stack)
                stack.pop()
                sc = func_scope()
                if sc:
                    sc.held = [g for g in sc.held if g.depth < popped_depth]
            if paren_stack:
                paren_depth = paren_stack.pop()
            buf_start = i + 1
        elif c == ";" and paren_depth == 0:
            statement(buf_start, i + 1)
            buf_start = i + 1
        i += 1
    statement(buf_start, n)
    return facts


def collect_stream_members(paths: list[Path]) -> set:
    members = set()
    for path in paths:
        code = strip_comments(path.read_text(), strip_strings=True)
        for m in re.finditer(r"\bstd::ostream\s*[*&]\s*(\w+)", code):
            members.add(m.group(1))
        for m in re.finditer(r"\bstd::ofstream\s+(\w+)\s*[;\s]", code):
            members.add(m.group(1))
    return members


def lock_order_pass(root: Path) -> list:
    files = src_files(root)
    stream_members = collect_stream_members(files)
    registry = MutexRegistry()
    all_facts = []
    for path in files:
        facts = walk_file(path, stream_members)
        for cls, name, _line in facts.mutex_decls:
            registry.add(path.stem, cls, name)
        all_facts.append(facts)

    findings = []
    raw_cache = {}

    def raw_lines(path: Path) -> list[str]:
        if path not in raw_cache:
            raw_cache[path] = path.read_text().splitlines()
        return raw_cache[path]

    # --- acquire sets + name-merged call graph for one-level propagation
    acquires = {}   # func key -> set of nodes
    calls = {}      # func key -> set of callee keys
    for facts in all_facts:
        for func, cls, _var, mutex, _line in facts.guard_sites:
            if func:
                acquires.setdefault(func, set()).add(
                    registry.resolve(facts.path.stem, cls, mutex))
        for caller, callee in facts.calls:
            calls.setdefault(caller, set()).add(callee)
    trans = {f: set(s) for f, s in acquires.items()}
    changed = True
    while changed:
        changed = False
        for f, callees in calls.items():
            acc = trans.setdefault(f, set())
            before = len(acc)
            for c in callees:
                acc |= trans.get(c, set())
            if len(acc) != before:
                changed = True

    # --- build the acquired-while-held edge set
    edges = {}  # (held_node, new_node) -> list of (path, line, how)
    for facts in all_facts:
        for held_node, new_args, line in facts.edge_sites:
            h = registry.resolve(*held_node)
            v = registry.resolve(*new_args)
            if h != v:
                edges.setdefault((h, v), []).append(
                    (facts.path, line, "direct acquisition"))
        for callee, held_nodes, line in facts.calls_under_lock:
            for target in sorted(trans.get(callee, ())):
                for hn in held_nodes:
                    h = registry.resolve(hn[0], hn[1], hn[2])
                    if h != target:
                        edges.setdefault((h, target), []).append(
                            (facts.path, line, f"via call to {callee}()"))

    # --- cycle detection (SCCs over the mutex digraph)
    graph = {}
    for (u, v) in edges:
        graph.setdefault(u, set()).add(v)
        graph.setdefault(v, set())
    for scc in strongly_connected(graph):
        if len(scc) < 2:
            u = next(iter(scc))
            if u not in graph.get(u, ()):
                continue
        member_edges = [((u, v), sites) for (u, v), sites in edges.items()
                        if u in scc and v in scc]
        waived_cycle = any(
            waived(raw_lines(p), line, "lock-order-cycle")
            for _e, sites in member_edges for p, line, _how in sites)
        if waived_cycle:
            continue
        detail = "; ".join(
            f"{u}->{v} at {p.name}:{line} ({how})"
            for (u, v), sites in sorted(member_edges,
                                        key=lambda e: str(e[0]))
            for p, line, how in sites[:1])
        p0, l0, _ = member_edges[0][1][0]
        findings.append(Finding(
            p0, l0, "lock-order-cycle",
            f"lock acquisition cycle among {{{', '.join(sorted(scc))}}}: "
            f"{detail}; impose a global order or collapse the locks"))

    # --- blocking ops + condvar double-lock + guarded-by validation
    for facts in all_facts:
        stem = facts.path.stem
        for line, what, held_nodes in facts.blocking:
            if not waived(raw_lines(facts.path), line, "blocking-under-lock"):
                names = ", ".join(sorted(
                    registry.resolve(hn[0], hn[1], hn[2])
                    for hn in held_nodes))
                findings.append(Finding(
                    facts.path, line, "blocking-under-lock",
                    f"{what} while holding {{{names}}}; move the blocking "
                    "call outside the critical section or waive with the "
                    "reason the lock must cover it"))
        for line, held_nodes in facts.cv_double:
            if not waived(raw_lines(facts.path), line, "condvar-double-lock"):
                names = ", ".join(sorted(
                    registry.resolve(hn[0], hn[1], hn[2])
                    for hn in held_nodes))
                findings.append(Finding(
                    facts.path, line, "condvar-double-lock",
                    f"condition-variable wait while holding {{{names}}}: "
                    "wait() releases only the lock it was given; the others "
                    "stay held across the sleep"))
        for cls, name, line in facts.guarded_by:
            known = (cls and name in registry.by_class.get(cls, ())) or \
                registry.by_file.get(stem, {}).get(name)
            if not known and not waived(raw_lines(facts.path), line,
                                        "guarded-by-unknown"):
                findings.append(Finding(
                    facts.path, line, "guarded-by-unknown",
                    f"ES_GUARDED_BY({name}) names a mutex not declared as "
                    "an es::Mutex in this class or file; the annotation "
                    "guards nothing"))
    return findings


def strongly_connected(graph: dict) -> list:
    """Tarjan's SCC algorithm, iterative."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    for start in sorted(graph):
        if start in index:
            continue
        work = [(start, iter(sorted(graph.get(start, ()))))]
        index[start] = low[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(graph.get(nxt, ())))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[node])
            if low[node] == index[node]:
                scc = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.add(w)
                    if w == node:
                        break
                sccs.append(scc)
    return sccs


# ==========================================================================
# Pass 2: module layering
# ==========================================================================

INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')
FOREIGN_TREES = ("bench/", "tools/", "tests/", "examples/")


def module_of(rel: str) -> str | None:
    """Module name for a src-relative path like `geo/point.h`.  The two
    annotation headers form their own bottom layer (`core.sync`) because
    every lock-using module includes them."""
    if rel in ("core/sync.h", "core/thread_annotations.h"):
        return "core.sync"
    if "/" not in rel:
        return None
    return rel.split("/", 1)[0]


def load_layers(path: Path):
    """Parse `layer <name> <module...>` lines, bottom-up.  Returns
    (ordered layer names, module -> layer index)."""
    layers, module_layer = [], {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        entry = raw.split("#", 1)[0].strip()
        if not entry:
            continue
        parts = entry.split()
        if parts[0] != "layer" or len(parts) < 3:
            raise ValueError(f"{path}:{lineno}: expected "
                             "'layer <name> <module...>'")
        layers.append(parts[1])
        for mod in parts[2:]:
            module_layer[mod] = len(layers) - 1
    return layers, module_layer


def layering_pass(root: Path, layers_path: Path) -> list:
    findings = []
    try:
        layers, module_layer = load_layers(layers_path)
    except (OSError, ValueError) as e:
        findings.append(Finding(layers_path, 0, "layering-config", str(e)))
        return findings

    module_files = {}           # module -> set of files
    edges = {}                  # (src_mod, dst_mod) -> [(path, line)]
    undeclared_seen = set()

    for path in src_files(root):
        rel = path.relative_to(root / "src").as_posix()
        mod = module_of(rel)
        if mod is None:
            continue
        module_files.setdefault(mod, set()).add(rel)
        raw = path.read_text()
        raw_lines = raw.splitlines()
        code = strip_comments(raw, strip_strings=False)
        for m in INCLUDE_RE.finditer(code):
            inc = m.group(1)
            line = line_of(code, m.start())
            if inc.startswith(FOREIGN_TREES):
                if not waived(raw_lines, line, "layering-upward"):
                    findings.append(Finding(
                        path, line, "layering-upward",
                        f'src/ must not include "{inc}": bench/tools/tests '
                        "sit above every library layer"))
                continue
            target = inc[4:] if inc.startswith("src/") else inc
            if not (root / "src" / target).exists():
                if not waived(raw_lines, line, "layering-unresolved"):
                    findings.append(Finding(
                        path, line, "layering-unresolved",
                        f'include "{inc}" does not resolve under src/; '
                        "project includes are src-relative"))
                continue
            dst = module_of(target)
            if dst is None or dst == mod:
                continue
            edges.setdefault((mod, dst), []).append((path, line))

    for (src_mod, dst_mod), sites in sorted(edges.items()):
        for mod in (src_mod, dst_mod):
            if mod not in module_layer and mod not in undeclared_seen:
                undeclared_seen.add(mod)
                findings.append(Finding(
                    layers_path, 0, "layering-undeclared",
                    f"module '{mod}' exists in src/ but is not declared in "
                    "any layer; add it to the layering file"))
        if src_mod in module_layer and dst_mod in module_layer:
            if module_layer[src_mod] <= module_layer[dst_mod]:
                for path, line in sites:
                    if not waived(path.read_text().splitlines(), line,
                                  "layering-upward"):
                        findings.append(Finding(
                            path, line, "layering-upward",
                            f"module '{src_mod}' "
                            f"(layer {layers[module_layer[src_mod]]}) may "
                            f"not include '{dst_mod}' (layer "
                            f"{layers[module_layer[dst_mod]]}): edges must "
                            "point to strictly lower layers"))

    graph = {}
    for (u, v) in edges:
        graph.setdefault(u, set()).add(v)
        graph.setdefault(v, set())
    for scc in strongly_connected(graph):
        if len(scc) < 2:
            continue
        member_sites = [(e, edges[e]) for e in edges
                        if e[0] in scc and e[1] in scc]
        if any(waived(p.read_text().splitlines(), line, "layering-cycle")
               for _e, sites in member_sites for p, line in sites):
            continue
        detail = "; ".join(
            f"{u}->{v} at {sites[0][0].name}:{sites[0][1]}"
            for (u, v), sites in sorted(member_sites))
        p0, l0 = member_sites[0][1][0]
        findings.append(Finding(
            p0, l0, "layering-cycle",
            f"include cycle among modules {{{', '.join(sorted(scc))}}}: "
            f"{detail}"))

    for mod in sorted(module_layer):
        if mod == "core.sync":
            present = (root / "src/core/sync.h").exists()
        else:
            present = (root / "src" / mod).is_dir()
        if not present:
            findings.append(Finding(
                layers_path, 0, "layering-stale",
                f"declared module '{mod}' has no files under src/; remove "
                "it from the layering file"))
    return findings


# ==========================================================================
# Pass 3: frozen serialized formats
# ==========================================================================

SURFACES = [
    {"name": "serve.protocol.wire", "file": "src/serve/protocol.cpp",
     "kind": "wire", "vfile": "src/serve/protocol.h",
     "vconst": "kProtocolVersion"},
    {"name": "serve.protocol.decls", "file": "src/serve/protocol.h",
     "kind": "decls", "vfile": "src/serve/protocol.h",
     "vconst": "kProtocolVersion"},
    {"name": "serve.flight_recorder.jsonl",
     "file": "src/serve/flight_recorder.cpp", "kind": "jsonl",
     "vfile": None, "vconst": None},
    {"name": "stream.checkpoint.wire", "file": "src/stream/checkpoint.cpp",
     "kind": "wire", "vfile": "src/stream/checkpoint.cpp",
     "vconst": "kCheckpointVersion"},
    {"name": "stream.drivers.wire", "file": "src/stream/drivers.cpp",
     "kind": "wire", "vfile": "src/stream/drivers.cpp",
     "vconst": "kDriverVersion"},
    {"name": "stream.state.wire", "file": "src/stream/stream_state.cpp",
     "kind": "wire", "vfile": None, "vconst": None},
    {"name": "core.placer.wire", "file": "src/core/deviation_placer.cpp",
     "kind": "wire", "vfile": "src/core/deviation_placer.cpp",
     "vconst": "kPlacerVersion"},
    {"name": "core.incentive.wire", "file": "src/core/incentive.cpp",
     "kind": "wire", "vfile": "src/core/incentive.cpp",
     "vconst": "kIncentiveVersion"},
    {"name": "core.reopt.wire", "file": "src/core/esharing.cpp",
     "kind": "wire", "vfile": "src/core/esharing.cpp",
     "vconst": "kReoptVersion"},
]

WIRE_CALL_RE = re.compile(r"\bwire::((?:write|read)_\w+)\s*\(")
JSONL_KEY_RE = re.compile(r'\\"(\w+)\\"\s*:?')
DECL_HEAD_RE = re.compile(r"\b(enum(?:\s+class)?|struct)\s+(\w+)[^{};]*\{")
CONST_RE = re.compile(r"\bconstexpr\s+[\w:<>\s]+?\b(k\w+)\s*=\s*([^;]+);")


def match_brace(text: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


def norm(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip()


def extract_wire(text: str) -> list[str]:
    code = strip_comments(text, strip_strings=False)
    out = []
    for m in WIRE_CALL_RE.finditer(code):
        close = match_paren(code, m.end() - 1)
        args = code[m.end():close] if close > 0 else ""
        out.append(f"{m.group(1)}({norm(args)})")
    return out


def extract_decls(text: str) -> list[str]:
    code = strip_comments(text, strip_strings=False)
    out = []
    for m in DECL_HEAD_RE.finditer(code):
        close = match_brace(code, m.end() - 1)
        if close < 0:
            continue
        body = code[m.end():close]
        if m.group(1).startswith("enum"):
            entries = [norm(e) for e in split_top_commas(body) if e.strip()]
            out.append(f"{norm(m.group(1))} {m.group(2)}{{"
                       + ",".join(entries) + "}")
        else:
            fields, depth, start = [], 0, 0
            for i, c in enumerate(body):
                if c in "({[":
                    depth += 1
                elif c in ")}]":
                    depth -= 1
                elif c == ";" and depth == 0:
                    stmt = norm(body[start:i])
                    start = i + 1
                    if stmt and "(" not in stmt and not stmt.startswith(
                            ("public", "private", "protected", "using",
                             "friend")):
                        fields.append(stmt)
            out.append(f"struct {m.group(2)}{{" + ";".join(fields) + "}")
    for m in CONST_RE.finditer(code):
        out.append(f"{m.group(1)}={norm(m.group(2))}")
    return out


def extract_jsonl(text: str) -> list[str]:
    return [m.group(1) for m in JSONL_KEY_RE.finditer(text)]


EXTRACTORS = {"wire": extract_wire, "decls": extract_decls,
              "jsonl": extract_jsonl}


def surface_digest(root: Path, surface: dict) -> str | None:
    path = root / surface["file"]
    if not path.exists():
        return None
    items = EXTRACTORS[surface["kind"]](path.read_text())
    blob = "\n".join(items).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def surface_version(root: Path, surface: dict) -> int | None:
    if not surface["vconst"] or not surface["vfile"]:
        return None
    path = root / surface["vfile"]
    if not path.exists():
        return None
    m = re.search(rf"\b{surface['vconst']}\s*=\s*(\d+)", path.read_text())
    return int(m.group(1)) if m else None


def load_frozen_formats(path: Path) -> dict:
    entries = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        entry = raw.split("#", 1)[0].strip()
        if not entry:
            continue
        parts = dict(
            kv.split("=", 1) for kv in entry.split()[1:] if "=" in kv)
        entries[entry.split()[0]] = {
            "version": parts.get("version", "-"),
            "digest": parts.get("digest", ""),
            "line": lineno,
        }
    return entries


def render_frozen_formats(root: Path) -> str:
    lines = [
        "# Frozen serialized-format digests — tools/analyze/analyze.py "
        "--pass format-freeze.",
        "# Each line: <surface> version=<constant value or -> "
        "digest=<sha256/16 of the canonical layout>.",
        "# Regenerate with `tools/analyze/analyze.py --update` and bump the "
        "surface's version",
        "# constant in the same diff whenever the byte layout changed "
        "(see README).",
    ]
    for surface in sorted(SURFACES, key=lambda s: s["name"]):
        digest = surface_digest(root, surface)
        if digest is None:
            continue
        version = surface_version(root, surface)
        lines.append(f"{surface['name']} "
                     f"version={'-' if version is None else version} "
                     f"digest={digest}")
    return "\n".join(lines) + "\n"


def format_freeze_pass(root: Path, formats_path: Path) -> list:
    findings = []
    frozen = (load_frozen_formats(formats_path)
              if formats_path.exists() else {})
    known = set()
    for surface in SURFACES:
        digest = surface_digest(root, surface)
        if digest is None:
            continue  # surface's file absent under this root (fixture tree)
        known.add(surface["name"])
        version = surface_version(root, surface)
        vtext = "-" if version is None else str(version)
        path = root / surface["file"]
        entry = frozen.get(surface["name"])
        if entry is None:
            findings.append(Finding(
                path, 1, "format-freeze",
                f"serialized surface '{surface['name']}' is not frozen in "
                f"{formats_path}; run analyze.py --update and commit the "
                "result"))
            continue
        if entry["digest"] != digest:
            if entry["version"] == vtext and version is not None:
                extra = (f" — layout changed but {surface['vconst']} is "
                         f"still {vtext}; bump it and refresh the digest "
                         "in the same diff")
            else:
                extra = " — refresh with analyze.py --update"
            findings.append(Finding(
                path, 1, "format-freeze",
                f"serialized layout of '{surface['name']}' drifted from "
                f"the frozen digest ({digest} != {entry['digest']})"
                f"{extra}"))
        elif entry["version"] != vtext:
            findings.append(Finding(
                formats_path, entry["line"], "format-freeze",
                f"'{surface['name']}' records version={entry['version']} "
                f"but {surface['vconst'] or 'the source'} now says "
                f"{vtext}; refresh with analyze.py --update"))
    for name, entry in sorted(frozen.items()):
        if name not in known:
            findings.append(Finding(
                formats_path, entry["line"], "format-freeze",
                f"frozen surface '{name}' does not exist (anymore); remove "
                "the entry or restore the surface"))
    return findings


# ==========================================================================
# Pass 4: reachability
#
# A src/ module earns its place only if a shipped binary uses it.  The walk
# starts at the binaries' own sources, follows quoted includes (resolved
# against the including file's directory, then src/, then the repo root,
# as the CMake include paths do), and treats a reached header as reaching
# its same-stem .cpp, since that is where the header's code is linked from.
# Quoted includes that resolve nowhere (third-party or test-only headers)
# are skipped.
# ==========================================================================

REACH_ENTRY_GLOBS = ("src/serve/serve_main.cpp", "perfbench/src/*.cpp",
                     "bench/*.cpp", "examples/*.cpp", "tools/flightq/*.cpp")


def resolve_include(root: Path, including: Path, inc: str) -> Path | None:
    for base in (including.parent, root / "src", root):
        candidate = (base / inc).resolve()
        if candidate.is_file():
            return candidate
    return None


def reached_files(root: Path) -> set:
    todo = [p.resolve() for pattern in REACH_ENTRY_GLOBS
            for p in sorted(root.glob(pattern)) if p.is_file()]
    seen = set(todo)
    while todo:
        path = todo.pop()
        code = strip_comments(path.read_text(), strip_strings=False)
        found = [resolve_include(root, path, m.group(1))
                 for m in INCLUDE_RE.finditer(code)]
        if path.suffix == ".h":
            found.append(path.with_suffix(".cpp"))
        for target in found:
            if target is not None and target.is_file() and target not in seen:
                seen.add(target)
                todo.append(target)
    return seen


def reachability_pass(root: Path) -> list:
    findings = []
    reached = reached_files(root)
    for path in src_files(root):
        if path.suffix != ".h" or path.resolve() in reached:
            continue
        lines = path.read_text().splitlines()
        if not any(waived(lines, n, "reachability")
                   for n in range(1, len(lines) + 1)):
            rel = path.relative_to(root).as_posix()
            findings.append(Finding(
                path, 1, "reachability",
                f"{rel} is not reached from any shipped entry point "
                "(serve_main, perfbench, bench, examples, flightq): delete "
                "it with its tests, move a test oracle to tests/reference/, "
                "or waive it with `analyze-ok: reachability <reason>`"))
    return findings


# ==========================================================================
# Pass 5: knob-reach
#
# A configuration field earns its place only if a shipped binary sets it.
# Every data member of a `*Config`, `*Options` or `*Tunables` struct in
# src/ must be assigned (`x.name = ...`) or designated-initialised
# (`{.name = ...}`) in a file of the reachability pass's reached set.  In a
# path such as `cfg.placer.state.window_length = v` every member after the
# variable counts as set.  Where the struct type is spelled, a set counts
# only for that struct's member: a designated initialiser `T{.m = v}` (or
# `T x{.m = v}`, `T x = {.m = v}`), and `x.m = v` on a variable declared
# `T x` earlier in the same file, so `offer.incentive = v` on an `Offer
# offer` sets no knob at all.  Nested paths and nested braces follow
# the declared member types (`cfg.placer.ks_period` with `cfg` an
# `ESharingConfig` sets `DeviationPlacerConfig::ks_period`).  Where the
# type is not spelled (a brace passed straight to a call, a data member,
# an `auto` local), the set counts for every member of that name: a known
# limit.  A member, or the `struct` line for all of its members, waives
# itself with `analyze-ok: knob-reach <reason>`.
# ==========================================================================

KNOB_TYPE = r"\w+(?:Config|Options|Tunables)"
KNOB_STRUCT_RE = re.compile(rf"\bstruct\s+({KNOB_TYPE})\s*\{{")
KNOB_SKIP_RE = re.compile(
    r"^(?:static|using|friend|typedef|enum|struct|class|template)\b")
ACCESS_RE = re.compile(r"^(?:public|private|protected)\s*:")
ASSIGN_PATH_RE = re.compile(
    r"\b\w+(?:\s*(?:\.|->)\s*\w+)+(?=\s*=(?!=))")
# A variable declared with a class type (`T x`, `const T& x`, `T* p`; the
# project spells class names in CamelCase), or with `auto`, whose type the
# pass then treats as unknown.
DECL_RE = re.compile(
    r"\b(?:([A-Z]\w*)\b(?:\s*const\b)?|auto)\s*[&*]*\s*(\w+)\s*"
    r"(?=[;{=(),\[]|:(?!:))")
# The text before a `{` that spells its type: `T`, `T x` or `T x =`.
TYPED_BRACE_RE = re.compile(rf"\b({KNOB_TYPE})\s*(?:[&*]*\s*\w+\s*=?\s*)?$")
# The text before a `{` that is the value of a designator `.m =`.
MEMBER_BRACE_RE = re.compile(r"\.\s*(\w+)\s*=\s*$")
BRACE_TOKEN_RE = re.compile(r"[{}]|(?<=[{,])\s*\.\s*(\w+)\s*=(?!=)")


def drop_template_args(text: str) -> str:
    prev = None
    while prev != text:
        prev, text = text, re.sub(r"<[^<>]*>", "", text)
    return text


def knob_members(code: str, body_start: int, body_end: int):
    """(name, offset, type) for each data member declared at the top level
    of a struct body `code[body_start:body_end]`, `type` being the last
    name of its declared type without template arguments or namespace:
    methods, nested types, static and using declarations are skipped."""
    members = []
    depth, start = 0, body_start
    i = body_start
    while i < body_end:
        c = code[i]
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == "{" and depth == 0:
            head = code[start:i]
            close = match_brace(code, i)
            if "(" in drop_template_args(head) or KNOB_SKIP_RE.match(
                    ACCESS_RE.sub("", head.strip()).strip()):
                # An inline method or nested type body ends the statement.
                i = close + 1
                if i < body_end and code[i] == ";":
                    i += 1
                start = i
                continue
            i = close  # a brace initializer
        elif c == ";" and depth == 0:
            decl = re.split(r"[{=]", code[start:i], maxsplit=1)[0]
            stmt = ACCESS_RE.sub("", decl.strip()).strip()
            if stmt and not KNOB_SKIP_RE.match(stmt) and \
                    "(" not in drop_template_args(stmt):
                m = re.search(r"(\w+)\s*(?:\[[^\]]*\]\s*)*$", decl)
                if m:
                    words = re.findall(r"\w+",
                                       drop_template_args(decl[:m.start(1)]))
                    members.append((m.group(1), start + m.start(1),
                                    words[-1] if words else ""))
            start = i + 1
        i += 1
    return members


def knob_structs(root: Path):
    """(path, struct name, struct line, [(member, line, type)]) for every
    `*Config`/`*Options`/`*Tunables` struct defined in src/."""
    out = []
    for path in src_files(root):
        code = strip_comments(path.read_text(), strip_strings=True)
        for m in KNOB_STRUCT_RE.finditer(code):
            close = match_brace(code, m.end() - 1)
            if close < 0:
                continue
            members = [(name, line_of(code, off), typ) for name, off, typ
                       in knob_members(code, m.end(), close)]
            out.append((path, m.group(1), line_of(code, m.start()), members))
    return out


def set_member_keys(paths, member_types: dict) -> set:
    """(struct, member) for every member the files in `paths` set; struct
    is None where the code does not spell the type.  `member_types` maps
    (struct, member) to the member's type for members that are themselves
    knob structs."""
    keys = set()

    def walk(typ, names):
        for name in names:
            keys.add((typ, name))
            typ = member_types.get((typ, name)) if typ else None

    for path in paths:
        code = strip_comments(path.read_text(), strip_strings=True)
        decls = {}  # variable -> [(offset, declared type or None)]
        for m in DECL_RE.finditer(code):
            decls.setdefault(m.group(2), []).append((m.start(), m.group(1)))
        for m in ASSIGN_PATH_RE.finditer(code):
            head, *names = re.findall(r"\w+", m.group(0))
            earlier = [t for off, t in decls.get(head, ()) if off < m.start()]
            walk(earlier[-1] if earlier else None, names)
        stack = []  # the spelled type of each open brace, or None
        for m in BRACE_TOKEN_RE.finditer(code):
            if m.group(0) == "{":
                before = code[max(0, m.start() - 160):m.start()]
                typed = TYPED_BRACE_RE.search(before)
                member = MEMBER_BRACE_RE.search(before)
                if typed:
                    stack.append(typed.group(1))
                elif member and stack and stack[-1]:
                    stack.append(member_types.get((stack[-1],
                                                   member.group(1))))
                else:
                    stack.append(None)
            elif m.group(0) == "}":
                if stack:
                    stack.pop()
            else:
                walk(stack[-1] if stack else None, [m.group(1)])
    return keys


def knob_waived(lines: list[str], lineno: int) -> bool:
    """A knob-reach waiver sits on the declaration's own line or on a
    comment-only line directly above it, so a trailing waiver on one member
    never covers the next."""
    def carries(text: str) -> bool:
        m = WAIVER_RE.search(text)
        return bool(m and m.group(1) == "knob-reach" and m.group(2))

    above = lines[lineno - 2].strip() if lineno >= 2 else ""
    return carries(lines[lineno - 1]) or (above.startswith("//")
                                          and carries(above))


def knob_reach_pass(root: Path) -> list:
    findings = []
    structs = knob_structs(root)
    member_types = {(struct, name): typ for _, struct, _, members in structs
                    for name, _, typ in members
                    if re.fullmatch(KNOB_TYPE, typ)}
    keys = set_member_keys(
        (p for p in sorted(reached_files(root))
         if p.suffix in (".h", ".cpp")), member_types)
    for path, struct, struct_line, members in structs:
        lines = path.read_text().splitlines()
        if knob_waived(lines, struct_line):
            continue
        for name, line, _ in members:
            if (struct, name) in keys or (None, name) in keys or \
                    knob_waived(lines, line):
                continue
            findings.append(Finding(
                path, line, "knob-reach",
                f"{struct}::{name} is never assigned or designated-"
                "initialised in code a shipped binary reaches (serve_main, "
                "perfbench, bench, examples, flightq): make it a named "
                "constant and delete the code behind its other values, or "
                "waive it with `analyze-ok: knob-reach <reason>`"))
    return findings


# ==========================================================================
# Driver
# ==========================================================================

PASSES = {
    "lock-order": "acquired-while-held graph: cycles, blocking ops, "
                  "condvar discipline, ES_GUARDED_BY validity",
    "layering": "module include DAG matches tools/analyze/layering.txt",
    "format-freeze": "serialized layouts match tools/lint/"
                     "frozen_formats.txt",
    "reachability": "every src/ header is included, transitively, by a "
                    "shipped binary's sources",
    "knob-reach": "every *Config/*Options/*Tunables member in src/ is set "
                  "by code a shipped binary reaches",
}


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=None,
                        help="repo root (default: two levels above this "
                        "file)")
    parser.add_argument("--pass", dest="passes", action="append",
                        choices=sorted(PASSES),
                        help="run only this pass (repeatable; default all)")
    parser.add_argument("--layers", type=Path, default=None,
                        help="override the layering declaration file")
    parser.add_argument("--formats", type=Path, default=None,
                        help="override the frozen formats file")
    parser.add_argument("--update", action="store_true",
                        help="regenerate the frozen formats file and exit")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON array")
    parser.add_argument("--list-passes", action="store_true")
    args = parser.parse_args(argv)

    if args.list_passes:
        for name, doc in sorted(PASSES.items()):
            print(f"{name:15s} {doc}")
        return 0

    root = args.root or Path(__file__).resolve().parents[2]
    if not (root / "src").is_dir():
        print(f"analyze.py: no src/ under {root}", file=sys.stderr)
        return 2
    layers_path = args.layers or (root / "tools/analyze/layering.txt")
    formats_path = args.formats or (root / "tools/lint/frozen_formats.txt")

    if args.update:
        formats_path.write_text(render_frozen_formats(root))
        print(f"analyze.py: wrote {formats_path}", file=sys.stderr)
        return 0

    passes = args.passes or sorted(PASSES)
    findings = []
    if "lock-order" in passes:
        findings.extend(lock_order_pass(root))
    if "layering" in passes:
        findings.extend(layering_pass(root, layers_path))
    if "format-freeze" in passes:
        findings.extend(format_freeze_pass(root, formats_path))
    if "reachability" in passes:
        findings.extend(reachability_pass(root))
    if "knob-reach" in passes:
        findings.extend(knob_reach_pass(root))

    if args.json:
        print(json.dumps(
            [{"path": str(f.path), "line": f.line, "rule": f.rule_id,
              "message": f.message} for f in findings], indent=2))
    else:
        for f in findings:
            print(f)
    if findings:
        print(f"analyze: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
