"""Plane trees, labelled trees, and the first-inversion tree bijection.

A plane tree is a nested tuple of its child trees; the single vertex is
``()``.  The text grammar is ``tree := '(' tree* ')'``, with whitespace
anywhere on input and a single space between siblings on output, so
``((()) () (() ()))`` is a root with three children.

A labelled tree is a ``(label, children)`` pair with positive integer
labels, written ``1(2(6) 3 4(5 7))``; on input, whitespace may stand
anywhere but between a label and its '('.  A labelled tree is increasing
when every child label exceeds its parent's and the labels are exactly
1..n (so the root is 1).

The text is read and written by string methods, which do the work per
character in C.  A parser takes the whitespace out with ``str.split()``,
which drops exactly what ``str.isspace()`` accepts, and builds the tuples
in one loop over tokens (a leaf ``()``, a parenthesis, a label with or
without its '('); only text that fails is scanned again, character by
character, for the position of its first error.  A formatter joins the
pieces that one walk lists, and ``str.replace`` puts in the separators.

``first_inversion_tree`` sends a permutation fixing 1 to an increasing
tree: the parent of each non-initial value is the value at its first
inversion, or the root when there is none.  Reading the label-ordered
shape in postorder inverts this, and the two stack labelings
(``eastpush_labeling`` and ``westpop_labeling``) pick out the preimages
that avoid 213 and 312 respectively.

Nothing here recurses, so trees may be as deep as memory allows: nested
tuples are folded bottom up by ``_fold``, an explicit-stack traversal
(Knuth, TAOCP Vol. 1, Section 2.3.1, Algorithm T), or numbered in
preorder by ``index_tree``, whose children table over those ids is the
whole index; children tables are built by one loop over ids.  The
formatters walk preorder on a stack of vertices and pending ')'s, and
the parsers keep one list per open vertex, with no call per vertex.
The postorder readings (``fif_from_tree``, ``perm_from_increasing_tree``)
instead walk preorder with children taken right to left, which meets the
vertices in reverse postorder, and make no call per vertex.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import re
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .perm import _first_inversions, check_first_inversions, check_fixes_one

PlaneTree = tuple
LabeledTree = tuple

_label = itemgetter(0)


# ---------------------------------------------------------------------------
# the walker


def _fold(root, children: Callable[[object], Iterator], combine: Callable[[object, list], object]):
    """Fold a tree bottom up with an explicit stack; return the root's value.

    ``children(node)`` returns an iterator over the node's children; it is
    called once per node, in preorder, and a child's subtree is folded
    before the next child is taken.  ``combine(node, values)`` gets the
    children's values in order and returns the node's; it is called in
    postorder.
    """
    stack = []
    node, kids, values = root, children(root), []
    while True:
        for child in kids:
            stack.append((node, kids, values))
            node, kids, values = child, children(child), []
            break
        else:
            value = combine(node, values)
            if not stack:
                return value
            node, kids, values = stack.pop()
            values.append(value)


# ---------------------------------------------------------------------------
# text formats


def parse_plane_tree(text: str) -> PlaneTree:
    """Parse the parenthesis grammar; errors report character positions.

    >>> parse_plane_tree("(()(()))")
    ((), ((),))
    """
    chars = "".join(text.split())  # str.split() drops exactly what str.isspace() accepts
    if not chars.replace("(", "").replace(")", ""):
        # the children so far of each open vertex's parent, and of the innermost one (or the root alone)
        open_kids, kids = [], []
        with contextlib.suppress(IndexError):  # a ')' with no vertex open
            for token in chars.replace("()", "."):  # a leaf is one token
                if token == ".":
                    kids.append(())
                elif token == "(":
                    open_kids.append(kids)
                    kids = []
                else:
                    done = tuple(kids)
                    kids = open_kids.pop()
                    kids.append(done)
            if len(kids) == 1 and not open_kids:
                return kids[0]
    raise ValueError(_plane_tree_error(text))


def _plane_tree_error(text: str) -> str:
    """The message for the first character at which ``text`` leaves the
    parenthesis grammar."""
    depth = 0
    for k, match in enumerate(re.finditer(r"\S", text)):  # r"\S" matches what str.isspace() rejects
        pos, ch = match.start(), match.group()
        if k and not depth:
            return f"trailing input at position {pos} in plane-tree text"
        if ch not in "()" or ch == ")" and not depth:
            return f"expected '(' at position {pos} in plane-tree text"
        depth += 1 if ch == "(" else -1
    if depth:
        return f"unbalanced '(': input ended at position {len(text)}"
    return f"expected '(' at position {len(text)} in plane-tree text"


def format_plane_tree(t: PlaneTree) -> str:
    """Canonical text: single spaces between siblings.

    >>> format_plane_tree(((), ((),)))
    '(() (()))'
    """
    parts: list[str] = []
    stack = [t]  # the vertices still to write, and None for each ')' still to write
    while stack:
        node = stack.pop()
        if node is None:
            parts.append(")")
        elif node:
            parts.append("(")
            stack.append(None)
            stack += node[::-1]
        else:
            parts.append("()")
    return "".join(parts).replace(")(", ") (")


def parse_labeled_tree(text: str) -> LabeledTree:
    """Parse ``label`` or ``label(child child ...)``, labels being decimal
    integers; whitespace may stand around any token but between a label
    and its '('.  Errors report character positions."""
    tokens = text.replace("(", "( ").replace(")", " ) ").split()  # 'label(', 'label' and ')'
    chars = "".join(tokens)
    if "()" not in chars and chars.replace("(", "").replace(")", "").isdecimal():
        # (label, the list it goes into) per open vertex, and the innermost one's children (or the root alone)
        open_nodes, kids = [], []
        with contextlib.suppress(IndexError, ValueError):  # a ')' too many, a '(' after no label, a label too long
            for token in tokens:
                if token == ")":
                    label, parent = open_nodes.pop()
                    parent.append((label, tuple(kids)))
                    kids = parent
                elif token[-1] == "(":
                    open_nodes.append((int(token[:-1]), kids))
                    kids = []
                else:
                    kids.append((int(token), ()))
            if len(kids) == 1 and not open_nodes:
                return kids[0]
    raise ValueError(_labeled_tree_error(text))


def _labeled_tree_error(text: str) -> str:
    """The message for the first token at which ``text`` leaves the
    labelled-tree grammar.  A token is a label with the '(' that follows
    it at once, if any, or one other character."""
    depth, complete = 0, False  # the vertices open, and whether the last one read is closed
    for match in re.finditer(r"\d+\(?|\S", text):  # r"\d" matches what str.isdecimal() accepts
        token, pos = match.group(), match.start()
        if complete:
            if not depth:
                return f"trailing input at position {pos} in labelled-tree text"
            if token == ")":
                depth -= 1
                continue
        if not token[0].isdecimal():
            if token == ")" and depth:  # right after 'label('
                return f"empty child list at position {pos}; leaves omit parentheses"
            return f"expected a label at position {pos} in labelled-tree text"
        digits = token.rstrip("(")
        try:
            int(digits)
        except ValueError:  # past the interpreter's digit limit
            return f"label at position {pos} is too long ({len(digits)} digits) in labelled-tree text"
        complete = token == digits
        depth += not complete
    if depth:
        return f"unbalanced '(': input ended at position {len(text)}"
    return f"expected a label at position {len(text)} in labelled-tree text"


def format_labeled_tree(lt: LabeledTree) -> str:
    """
    >>> format_labeled_tree((1, ((2, ((6, ()),)), (3, ()), (4, ((5, ()), (7, ()))))))
    '1(2(6) 3 4(5 7))'
    """
    parts: list[str] = []  # a space and a slot before every label; the replace drops the spaces after '('
    labels = []  # what fills the slots, in preorder
    stack = [lt]  # the vertices still to write, and None for each ')' still to write
    while stack:
        node = stack.pop()
        if node is None:
            parts.append(")")
        else:
            labels.append(node[0])
            if node[1]:
                parts.append(" %s(")
                stack.append(None)
                stack += node[1][::-1]
            else:
                parts.append(" %s")
    return ("".join(parts) % tuple(labels)).replace("( ", "(")[1:]


# ---------------------------------------------------------------------------
# structure helpers


def vertex_count(t: PlaneTree) -> int:
    subtrees = [t]
    for node in subtrees:
        subtrees.extend(node)
    return len(subtrees)


def index_tree(t: PlaneTree) -> list[list[int]]:
    """The children table of ``t`` over preorder ids: root 0, and
    ``children[u]`` lists u's children left to right.

    >>> index_tree(((), ((),)))
    [[1, 2], [], [3], []]
    """
    parent: list[int] = []
    stack = [(t, -1)]
    while stack:
        node, par = stack.pop()
        v = len(parent)
        parent.append(par)
        if node:
            stack.extend(zip(reversed(node), [v] * len(node)))
    return _children_table(parent[1:])


def tree_of_index(children: Sequence[Sequence[int]], labels: Sequence[int] | None = None):
    """The tree below vertex 0 of a children table, where ``children[u]``
    lists u's children in order and every child id exceeds its parent's
    (``index_tree`` returns one), built in one pass over descending
    ids: a plane tree, or a labelled one when ``labels`` is given."""
    built: list = [None] * len(children)
    for v in range(len(children) - 1, -1, -1):
        kids = tuple([built[c] for c in children[v]])
        built[v] = kids if labels is None else (labels[v], kids)
    return built[0]


def _children_table(parents: Sequence[int]) -> list[list[int]]:
    """Children lists of vertices 0..n-1 when vertex v >= 1 has parent
    ``parents[v - 1]``."""
    kids: list[list[int]] = [[] for _ in range(len(parents) + 1)]
    for v, par in enumerate(parents, start=1):
        kids[par].append(v)
    return kids


# ---------------------------------------------------------------------------
# the bijection


def first_inversion_tree(p: Sequence[int]) -> LabeledTree:
    """The increasing tree whose parent map is the first-inversion table:
    each value hangs below the value at its first inversion, root 1.

    >>> format_labeled_tree(first_inversion_tree((1, 6, 2, 3, 5, 7, 4)))
    '1(2(6) 3 4(5 7))'
    """
    children = _first_inversion_children(p)
    return tree_of_index(children, range(1, len(children) + 1))


def _first_inversion_children(p: Sequence[int]) -> list[list[int]]:
    """The children lists of ``first_inversion_tree(p)`` by label - 1, each
    in label order.  Labels rise away from the root, so every child's id
    exceeds its parent's."""
    p = check_fixes_one(p)
    n = len(p)
    t = _first_inversions(p)
    parents = [0] * n  # by value - 1, so children lists come out in label order
    for i in range(2, n + 1):
        ti = t[i - 2]
        parents[p[i - 1] - 1] = p[ti - 1] - 1 if ti <= n else 0
    return _children_table(parents[1:])


def _increasing_postorder(lt: LabeledTree) -> list[int] | None:
    """The labels in postorder, each child list ordered by label, or None
    unless ``lt`` is increasing.  A preorder walk that takes each child
    list largest label first meets the vertices in exactly the reverse of
    that postorder."""
    post: list[int] = []
    stack = [lt]
    while stack:
        label, kids = stack.pop()
        post.append(label)
        if kids:
            kids = sorted(kids, key=_label)
            if kids[0][0] <= label:
                return None
            stack += kids
    post.reverse()
    return post if sorted(post) == list(range(1, len(post) + 1)) else None


def is_increasing(lt: LabeledTree) -> bool:
    return _increasing_postorder(lt) is not None


def perm_from_increasing_tree(lt: LabeledTree) -> tuple[int, ...]:
    """Invert ``first_inversion_tree``: order children by label and read
    the labels in postorder; the root closes the walk and the permutation
    starts with 1.

    >>> perm_from_increasing_tree((1, ((2, ((6, ()),)), (3, ()), (4, ((5, ()), (7, ()))))))
    (1, 6, 2, 3, 5, 7, 4)
    """
    post = _increasing_postorder(lt)
    if post is None:
        raise ValueError("labels must be 1..n and strictly increase away from the root")
    return (1, *post[:-1])


def plane_shape(lt: LabeledTree) -> PlaneTree:
    """Forget labels after ordering each child list by label."""

    def combine(node: LabeledTree, kids: list[tuple[int, PlaneTree]]) -> tuple[int, PlaneTree]:
        return node[0], tuple([shape for _, shape in sorted(kids, key=_label)])

    return _fold(lt, lambda node: iter(node[1]), combine)[1]


# ---------------------------------------------------------------------------
# stack labelings


def eastpush_labeling(t: PlaneTree) -> LabeledTree:
    """Label on push: pop a vertex, then push its children left to right,
    handing out labels as they are pushed (root gets 1).

    >>> format_labeled_tree(eastpush_labeling(parse_plane_tree("((()) () (()()))")))
    '1(2(7) 3 4(5 6))'
    """
    children = index_tree(t)
    labels = [0] * len(children)
    for label, v in enumerate(_push_order(children, 0), start=1):
        labels[v] = label
    return tree_of_index(children, labels)


def _push_order(children: Sequence[Sequence[int]], root: int) -> list[int]:
    """The vertices below ``root`` of a children table in east-push order:
    the root, then, as each vertex is popped, its children left to right."""
    order = [root]
    stack = [root]
    while stack:
        kids = children[stack.pop()]
        order += kids
        stack += kids
    return order


def westpop_labeling(t: PlaneTree) -> LabeledTree:
    """Label on pop: pop a vertex, give it the next label, then push its
    children right to left.  That is the preorder numbering of
    ``index_tree``.

    >>> format_labeled_tree(westpop_labeling(parse_plane_tree("((()) () (()()))")))
    '1(2(3) 4 5(6 7))'
    """
    children = index_tree(t)
    return tree_of_index(children, range(1, len(children) + 1))


# ---------------------------------------------------------------------------
# first-inversion tables as postorder parent maps


def fif_from_tree(t: PlaneTree) -> tuple[int, ...]:
    """Read a plane tree as a first-inversion table: the entry for the
    vertex at postorder position i - 1 is one past its parent's postorder
    position (the root, at position n, yields the sentinel n + 1).

    A preorder walk that takes children right to left meets the vertices
    in reverse postorder, so the j-th vertex it meets (from 0) is at
    position n - j, and its children's entries are n + 1 - j."""
    met: list[int] = []  # for each vertex met, the walk index of its parent (the root's own, 0)
    nodes, parents = [t], [0]
    while nodes:
        node = nodes.pop()
        met.append(parents.pop())
        if node:
            parents += [len(met) - 1] * len(node)
            nodes += node
    met.reverse()
    n1 = len(met) + 1
    return tuple([n1 - j for j in met])


def _fif_children(fif: Sequence[int]) -> list[list[int]]:
    """The children lists of the tree whose postorder parent map is
    ``fif``, indexed by postorder position: the root is at n, entry 0 is
    unused, and each list rises left to right."""
    n = len(fif)
    kids: list[list[int]] = [[] for _ in range(n + 1)]
    for j in range(1, n):
        kids[fif[j - 1] - 1].append(j)
    return kids


def tree_from_first_inversions(t: Sequence[int]) -> PlaneTree:
    """Rebuild the plane tree whose postorder parent map is ``t``.  Each
    child's position is below its parent's, so the subtrees are built
    bottom up over positions 1..n.

    >>> format_plane_tree(tree_from_first_inversions((3, 8, 8, 7, 7, 8, 8)))
    '((()) () (() ()))'
    """
    kids = _fif_children(check_first_inversions(t))
    built: list[PlaneTree] = [()] * len(kids)
    for v in range(1, len(kids)):
        built[v] = tuple([built[c] for c in kids[v]])
    return built[-1]


# ---------------------------------------------------------------------------
# canonical forms and enumeration


def _canonical_with_key(node: PlaneTree, pairs: list[tuple[PlaneTree, str]]) -> tuple[PlaneTree, str]:
    pairs.sort(key=lambda cs: (len(cs[1]), cs[1]))
    return tuple(p[0] for p in pairs), "(" + " ".join(p[1] for p in pairs) + ")"


def canonicalize(t: PlaneTree) -> PlaneTree:
    """Order siblings by serialized encoding (length, then text), bottom
    up, giving one representative per unordered rooted tree.

    >>> canonicalize(((((),),), ()))
    ((), (((),),))
    """
    return _fold(t, iter, _canonical_with_key)[0]


def plane_trees(n: int) -> tuple[PlaneTree, ...]:
    """All plane trees with ``n`` vertices (there are catalan(n - 1)), as the
    forests of n - 1 vertices: a first tree of k, then a forest of the rest."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    forests = [((),)]
    for m in range(1, n):
        forests.append(
            tuple((t, *rest) for k in range(1, m + 1) for t in forests[k - 1] for rest in forests[m - k])
        )
    return forests[n - 1]


def rooted_trees(n: int) -> tuple[PlaneTree, ...]:
    """Canonical representatives of unordered rooted trees on ``n`` vertices."""
    distinct = {text: canon for canon, text in (_fold(t, iter, _canonical_with_key) for t in plane_trees(n))}
    return tuple(distinct[text] for text in sorted(distinct, key=lambda text: (len(text), text)))


def increasing_labelings(t: PlaneTree) -> int:
    """The increasing trees of canonical shape ``t``, children unordered:
    n! / (prod of subtree sizes * |Aut t|), |Aut t| the product of the
    factorials of the runs of equal siblings.

    >>> [increasing_labelings(t) for t in rooted_trees(4)]
    [1, 1, 3, 1]
    """
    product = [1]

    def combine(node: PlaneTree, sizes: list[int]) -> int:
        size = 1 + sum(sizes)
        product[0] *= size * math.prod(math.factorial(len(list(run))) for _, run in itertools.groupby(node))
        return size

    return math.factorial(_fold(t, iter, combine)) // product[0]


def random_plane_tree(n: int, rng: random.Random) -> PlaneTree:
    """A plane tree from the random-attachment model: vertex i picks a
    uniform parent among 0..i-1, children kept in creation order."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return tree_of_index(_children_table([rng.randrange(v) for v in range(1, n)]))
