"""Reference answers computed by the benchmark's own code.

Nothing here imports treegamekit.  Every oracle is an independent,
iterative implementation, so answers can be checked on trees far deeper
than the interpreter's recursion limit.

Plane trees are preorder child lists: ``kids[v]`` lists the children of
vertex ``v`` left to right, the root is 0 and every child has a larger id
than its parent, so a reverse sweep over the ids visits children before
parents.  Permutations are 1-based one-line tuples, as in the program.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# A Mersenne prime: big polynomials are compared by evaluating both sides
# modulo MOD at random points, so a wrong coefficient list survives with
# probability at most degree / MOD per point.
MOD = (1 << 61) - 1


# ---------------------------------------------------------------------------
# text formats


def parse_plane(text: str) -> list[list[int]]:
    """Child lists of a parenthesis-grammar plane tree, in preorder."""
    kids: list[list[int]] = []
    stack: list[int] = []
    for ch in text:
        if ch == "(":
            v = len(kids)
            kids.append([])
            if stack:
                kids[stack[-1]].append(v)
            stack.append(v)
        elif ch == ")":
            stack.pop()
    return kids


def _format(kids, root, open_leaf: bool, label=None) -> str:
    close, sep = -1, -2
    out: list[str] = []
    stack = [root]
    while stack:
        x = stack.pop()
        if x == close:
            out.append(")")
        elif x == sep:
            out.append(" ")
        else:
            ks = kids[x]
            if label is not None:
                out.append(str(label[x]))
            if ks or open_leaf:
                out.append("(")
                stack.append(close)
                for k in range(len(ks) - 1, -1, -1):
                    stack.append(ks[k])
                    if k:
                        stack.append(sep)
    return "".join(out)


def plane_text(kids, root: int = 0) -> str:
    """Canonical parenthesis text of the subtree at ``root``."""
    return _format(kids, root, True)


def labeled_text(kids, label, root: int = 0) -> str:
    """``1(2(6) 3 4(5 7))`` text; leaves carry no parentheses."""
    return _format(kids, root, False, label)


def parse_labeled(text: str) -> tuple[list[int], list[list[int]]]:
    """Labels and child lists (preorder) of a labeled-tree text."""
    labels: list[int] = []
    kids: list[list[int]] = []
    stack: list[int] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            v = len(labels)
            labels.append(int(text[i:j]))
            kids.append([])
            if stack:
                kids[stack[-1]].append(v)
            i = j
            if i < n and text[i] == "(":
                stack.append(v)
                i += 1
            continue
        if ch == ")":
            stack.pop()
        i += 1
    return labels, kids


def perm_text(p) -> str:
    return ",".join(map(str, p))


# ---------------------------------------------------------------------------
# structure


def parents(kids) -> list[int]:
    par = [-1] * len(kids)
    for v, ks in enumerate(kids):
        for c in ks:
            par[c] = v
    return par


def depth(kids) -> int:
    d = [0] * len(kids)
    for v, ks in enumerate(kids):
        for c in ks:
            d[c] = d[v] + 1
    return max(d)


def sizes(kids) -> list[int]:
    s = [1] * len(kids)
    for v in range(len(kids) - 1, -1, -1):
        for c in kids[v]:
            s[v] += s[c]
    return s


def to_tuple(kids):
    """The program's nested-tuple form, built bottom-up."""
    built = [()] * len(kids)
    for v in range(len(kids) - 1, -1, -1):
        built[v] = tuple(built[c] for c in kids[v])
    return built[0]


def tuple_size(t) -> int:
    """Vertex count of a nested-tuple plane tree."""
    count = 0
    stack = [t]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node)
    return count


def postorder(kids, root: int = 0) -> list[int]:
    out: list[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(kids[v])
    out.reverse()
    return out


# ---------------------------------------------------------------------------
# the game polynomial phi = prod over children of (1 + q * phi_child)


def _bottom_up(kids, leaf, step):
    val = [None] * len(kids)
    for v in range(len(kids) - 1, -1, -1):
        acc = leaf
        for c in kids[v]:
            acc = step(acc, val[c])
        val[v] = acc
    return val[0]


def phi_coeffs(kids) -> list[int]:
    """Exact ascending coefficients (for small trees)."""

    def step(acc, child):
        factor = [1, *child]
        out = [0] * (len(acc) + len(factor) - 1)
        for i, a in enumerate(acc):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        return out

    return _bottom_up(kids, [1], step)


def phi_at(kids, x: int) -> int:
    """Exact value at an integer point."""
    return _bottom_up(kids, 1, lambda acc, child: acc * (1 + x * child))


def phi_mod(kids, x: int) -> int:
    return _bottom_up(kids, 1, lambda acc, child: acc * (1 + x * child) % MOD)


def phi_at_minus_half(kids) -> Fraction:
    """Exact phi(-1/2), kept integral as psi(v) = phi_v(-1/2) * 2^(size_v - 1)
    so that psi(v) = prod over children c of (2^size_c - psi(c))."""
    s = sizes(kids)
    psi = [0] * len(kids)
    for v in range(len(kids) - 1, -1, -1):
        acc = 1
        for c in kids[v]:
            acc *= (1 << s[c]) - psi[c]
        psi[v] = acc
    return Fraction(psi[0], 1 << (s[0] - 1))


def eval_mod(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % MOD
    return acc


def phi_minus_one(kids) -> list[int]:
    """phi(-1) of every subtree, each 0 or 1: 1 exactly when the player to
    move from that vertex loses."""
    val = [1] * len(kids)
    for v in range(len(kids) - 1, -1, -1):
        for c in kids[v]:
            val[v] *= 1 - val[c]
    return val


def prunings(kids) -> int:
    return phi_at(kids, 1)


# ---------------------------------------------------------------------------
# labelings and the first-inversion bijection


def eastpush_labels(kids) -> list[int]:
    """Labels handed out as vertices are pushed (root 1)."""
    labels = [0] * len(kids)
    labels[0] = 1
    counter = 2
    stack = [0]
    while stack:
        v = stack.pop()
        for c in kids[v]:
            labels[c] = counter
            counter += 1
            stack.append(c)
    return labels


def westpop_labels(kids) -> list[int]:
    """Labels handed out as vertices are popped, children pushed right to left."""
    labels = [0] * len(kids)
    counter = 1
    stack = [0]
    while stack:
        v = stack.pop()
        labels[v] = counter
        counter += 1
        stack.extend(reversed(kids[v]))
    return labels


def first_inversions(p) -> list[int]:
    """Next-smaller-to-the-right table by a monotone stack, in the
    program's layout: entry i - 2 is t(i) for i = 2..n, then n + 1."""
    n = len(p)
    t = [n + 1] * (n + 1)
    stack: list[int] = []
    for i in range(n, 0, -1):
        while stack and p[stack[-1] - 1] > p[i - 1]:
            stack.pop()
        t[i] = stack[-1] if stack else n + 1
        stack.append(i)
    return t[2:] + [n + 1]


def increasing_tree(p) -> dict[int, list[int]]:
    """Children by label of the first-inversion tree of ``p``."""
    n = len(p)
    t = first_inversions(p)
    kids: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for i in range(2, n + 1):
        ti = t[i - 2]
        kids[p[ti - 1] if ti <= n else 1].append(p[i - 1])
    for ks in kids.values():
        ks.sort()
    return kids


def gamma_text(p) -> str:
    kids = increasing_tree(p)
    return labeled_text(kids, {v: v for v in kids}, root=1)


def gamma_tuple(p):
    """The program's ``(label, children)`` form of the first-inversion tree."""
    kids = increasing_tree(p)
    built = {}
    for v in sorted(kids, reverse=True):
        built[v] = (v, tuple(built[c] for c in kids[v]))
    return built[1]


def perm_of_labeling(labels, kids) -> tuple[int, ...]:
    """Inverse bijection: children ordered by label, labels read in
    postorder, the root dropped from the end and put first as 1."""
    by_label = [sorted(ks, key=labels.__getitem__) for ks in kids]
    post = [labels[v] for v in postorder(by_label)]
    return (1, *post[:-1])


def shape_kids(increasing: dict[int, list[int]]) -> list[list[int]]:
    """Plane shape (preorder child lists) of a by-label increasing tree."""
    order: list[int] = []
    stack = [1]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(increasing[v]))
    pos = {v: k for k, v in enumerate(order)}
    return [[pos[c] for c in increasing[v]] for v in order]


def avoids(p, pattern: int) -> bool:
    for a, b, c in itertools.combinations(p, 3):
        if (b < a < c) if pattern == 213 else (b < c < a):
            return False
    return True


def fiber_size(kids) -> int:
    """Increasing labelings with siblings increasing left to right: the
    linear extensions of the left-child right-sibling binary tree, by the
    hook-length formula (hook = own subtree plus later siblings' subtrees)."""
    s = sizes(kids)
    hooks = 1
    for ks in kids:
        tail = 0
        for c in reversed(ks):
            tail += s[c]
            hooks *= tail
    return math.factorial(len(kids)) // (hooks * len(kids))


# ---------------------------------------------------------------------------
# the Tamari quotient on first-inversion tables


def fif(kids) -> tuple[int, ...]:
    """Postorder parent map: the vertex at postorder position i maps to one
    past its parent's position; the root gives the sentinel n + 1."""
    par = parents(kids)
    post = postorder(kids)
    pos = {v: k + 1 for k, v in enumerate(post)}
    n = len(post)
    return tuple(pos[par[v]] + 1 for v in post[:-1]) + (n + 1,)


def tree_of_fif(t) -> tuple:
    n = len(t)
    kids: list[list[int]] = [[] for _ in range(n + 1)]
    for p in range(1, n):
        kids[t[p - 1] - 1 if t[p - 1] <= n else n].append(p)
    built: dict[int, tuple] = {}
    for p in range(1, n + 1):
        built[p] = tuple(built[c] for c in kids[p])
    return built[n]


def fif_join(a, b) -> tuple[int, ...]:
    return tuple(min(x, y) for x, y in zip(a, b))


def _orbit(t, i: int) -> set[int]:
    n = len(t)
    out = set()
    j = i
    while j != n + 1:
        j = t[j - 2]
        out.add(j)
    return out or {n + 1}


def fif_meet(a, b) -> tuple[int, ...]:
    n = len(a)
    return tuple(min(_orbit(a, i) & _orbit(b, i)) for i in range(2, n + 1)) + (n + 1,)


def covers_above(kids, mask: int) -> list[int]:
    par = parents(kids)
    return sorted(
        mask | 1 << v
        for v in range(1, len(kids))
        if not mask >> v & 1 and mask >> par[v] & 1
    )
