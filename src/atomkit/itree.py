"""Finitary labeled binary trees and their embeddings.

A tree value stores only the explicit part: internal nodes with exactly
two (unordered) children, leaves, and tail markers.  A tail marker
labeled l denotes an infinite continuation, a node chain in which every
step has one on-branch child and one leaf sibling, giving the tree one
infinite branch labeled l per tail marker.  Denoted nodes are addressed
by tuples:

    (0, node_id)                 an explicit node
    (1, tail_id, depth, side)    a node of the continuation of tail_id,
                                 depth >= 1, side 0 on the branch,
                                 side 1 the hanging leaf sibling

An embedding maps denoted nodes to denoted nodes injectively, preserving
the root, the parent relation and branch labels.  It is stored finitely:
an address per explicit source node plus, per source tail, the target
tail whose branch the continuation follows and the comb depth at which
it enters.  Every infinite computation below (pullbacks, amalgams,
witnesses) bottoms out because the two sides eventually run along pure
continuations, which are either merged into a single tail marker or
split at a bounded depth.

Every tree value is made by one pipeline.  A construction walks its
inputs into mutable scratch nodes (_N), each recording the host
position it came from: nested forms and payloads are copied, denoted
subtrees are carved with every comb as one tail marker.  _freeze then
numbers the scratch tree in preorder and is the only place a
FinitaryTree is built.  Finally the embeddings are read off the frozen
scratch tree: _placements reports where each host node and host tail
landed, _inclusion sends each node back to its recorded position.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, NamedTuple

from .core import (Cocone, PullbackSquare, RankValue, SiteError, Span, Value,
                   compose, is_int, is_iso, object_key, register_backend)

INTERNAL, LEAF, TAIL = "internal", "leaf", "tail"
AUDIT_LABELS = ("i", "j")

# Deepest tree payload accepted, in levels; the recursive tree walks stay
# well inside Python's default recursion limit below it.
MAX_TREE_LEVELS = 256


class TreeTooDeep(SiteError):
    """A tree payload deeper than MAX_TREE_LEVELS: a limit of this
    implementation, not an invalid tree."""


class FinitaryTree(Value):
    """Explicit encoding, node ids 0..n-1 with the root at 0.  The
    constructor trusts its arguments: only _freeze calls it, on scratch
    trees that validate_tree or build checked or the library assembled.

    _freeze also stores the per-tree indices on the value, as attributes
    outside the fields (equality and repr ignore them):

        parents   the parent id of each node, None at the root
        tail_ids  the ids of the tail markers, ascending
        paths     tail id -> explicit ids from the root down to the tail
        key       the object_key string

    and the hash of the fields, which __hash__ returns.  The per-node
    tables child_addrs, comb_tails and label_sets are computed on first
    use instead: most trees an audit freezes are amalgams that nothing
    queries.
    """

    _fields = ("kinds", "children", "labels")
    site = "itree"

    def __init__(self, kinds: tuple[str, ...],
                 children: tuple[tuple[int, int] | None, ...],
                 labels: tuple[str | None, ...]):
        self.__dict__.update(kinds=kinds, children=children, labels=labels)

    @property
    def n_nodes(self) -> int:
        return len(self.kinds)

    @cached_property
    def child_addrs(self) -> tuple:
        """Per explicit node, what denoted_children returns there."""
        return tuple([((0, ch[0]), (0, ch[1])) if kind == INTERNAL
                      else ((1, i, 1, 0), (1, i, 1, 1)) if kind == TAIL
                      else None
                      for i, (kind, ch) in enumerate(zip(self.kinds,
                                                         self.children))])

    @cached_property
    def comb_tails(self) -> tuple[int | None, ...]:
        """Per explicit node, what comb_view returns there."""
        return self._subtree_tables()[0]

    @cached_property
    def label_sets(self) -> tuple[frozenset[str], ...]:
        """Per explicit node, the labels of the tails below it."""
        return self._subtree_tables()[1]

    def _subtree_tables(self) -> tuple[tuple, tuple]:
        """Both subtree tables, filled bottom-up in one reverse-preorder
        loop (preorder numbers every child after its parent); the first
        of the two properties read stores the other one as well."""
        kinds, children, labels = self.kinds, self.children, self.labels
        combs: list = [None] * len(kinds)
        below: list = [frozenset()] * len(kinds)
        for i in range(len(kinds) - 1, -1, -1):
            kind = kinds[i]
            if kind == TAIL:
                combs[i], below[i] = i, frozenset((labels[i],))
            elif kind == INTERNAL:
                a, b = children[i]
                if combs[a] is not None and kinds[b] == LEAF:
                    combs[i] = combs[a]
                elif combs[b] is not None and kinds[a] == LEAF:
                    combs[i] = combs[b]
                below[i] = below[a] | below[b]
        tables = tuple(combs), tuple(below)
        self.__dict__.update(comb_tails=tables[0], label_sets=tables[1])
        return tables

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kinds, self.children, self.labels) == \
                (other.kinds, other.children, other.labels)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash


class TreeStats(NamedTuple):
    branch_count: int
    f_count: int
    rank: RankValue


# ---------------------------------------------------------------------------
# scratch trees: the one way a tree value is made

class _N:
    __slots__ = ("kind", "label", "kids", "meta")

    def __init__(self, kind, label=None, kids=None, meta=None):
        self.kind = kind
        self.label = label
        self.kids = kids if kids is not None else []
        self.meta = meta if meta is not None else {}


def _freeze(root: _N) -> tuple[FinitaryTree, list[_N]]:
    """Number a scratch tree in preorder; order[i] became node i.  One
    preorder walk and one pass back over it build every per-tree index
    the value carries."""
    order, parents = [], []
    stack = [(root, None)]
    while stack:
        n, p = stack.pop()
        if n.kind == INTERNAL:
            stack += ((n.kids[1], len(order)), (n.kids[0], len(order)))
        order.append(n)
        parents.append(p)
    kinds = tuple([n.kind for n in order])
    labels = tuple([n.label for n in order])
    children: list = [None] * len(order)
    sizes, keys = [1] * len(order), [""] * len(order)
    for i in range(len(order) - 1, -1, -1):
        kind = kinds[i]
        if kind == INTERNAL:
            a = i + 1
            b = a + sizes[a]
            children[i] = (a, b)
            sizes[i] += sizes[a] + sizes[b]
            keys[i] = "(%s %s)" % (keys[a], keys[b])
        else:
            keys[i] = "L" if kind == LEAF else "T(%s)" % labels[i]
    paths: dict[int, tuple[int, ...]] = {}
    for t, kind in enumerate(kinds):
        if kind == TAIL:
            path = [t]
            while parents[path[-1]] is not None:
                path.append(parents[path[-1]])
            paths[t] = tuple(path[::-1])
    fields = (kinds, tuple(children), labels)
    tree = FinitaryTree(*fields)
    tree.__dict__.update(parents=tuple(parents), tail_ids=tuple(paths),
                         paths=paths, key=keys[0], _hash=hash(fields))
    return tree, order


def _copy(tree: FinitaryTree, nid: int = 0) -> _N:
    return _N(tree.kinds[nid], tree.labels[nid],
              [_copy(tree, c) for c in tree.children[nid] or ()])


def _n_key(n: _N):
    if n.kind == LEAF:
        return (0,)
    if n.kind == TAIL:
        return (1, n.label)
    return (2, _n_key(n.kids[0]), _n_key(n.kids[1]))


def _canonical(n: _N) -> _N:
    """Collapse redundant comb encodings and sort unordered children,
    bottom-up; a collapsed tail keeps the recorded positions of both."""
    n.kids = [_canonical(k) for k in n.kids]
    if n.kind == INTERNAL:
        for t, l in (n.kids, n.kids[::-1]):
            if t.kind == TAIL and l.kind == LEAF:
                return _N(TAIL, t.label, meta={**t.meta, **n.meta})
        n.kids.sort(key=_n_key)
    return n


# ---------------------------------------------------------------------------
# nested build helpers

def leaf():
    return ("leaf",)


def tail(label: str):
    return ("tail", label)


def node(a, b):
    return ("node", a, b)


def build(nested) -> FinitaryTree:
    """Materialize a nested form with preorder numbering."""

    def go(n) -> _N:
        if n[0] == "node":
            return _N(INTERNAL, kids=[go(n[1]), go(n[2])])
        if n[0] != "leaf" and n[1] is None:
            raise SiteError("a tail needs a label")
        return _N(LEAF) if n[0] == "leaf" else _N(TAIL, n[1])

    return _freeze(go(nested))[0]


def canonical_form(tree: FinitaryTree) -> FinitaryTree:
    """The minimal encoding; equal canonical forms mean isomorphic trees."""
    return _freeze(_canonical(_copy(tree)))[0]


def validate_tree(data: dict) -> FinitaryTree:
    return _validate_tree_mapped(data)[0]


def _validate_tree_mapped(data: dict) -> tuple[FinitaryTree, dict[int, int]]:
    """Parse a node-table payload, renumber preorder, return the id map."""
    if not isinstance(data, dict) or "nodes" not in data or "root" not in data:
        raise SiteError("tree payload needs 'root' and 'nodes' fields")
    if not isinstance(data["nodes"], list):
        raise SiteError("tree 'nodes' must be a list")
    table = {}
    for row in data["nodes"]:
        if not isinstance(row, dict) or "id" not in row or "kind" not in row:
            raise SiteError("tree node rows need 'id' and 'kind' fields")
        if not is_int(row["id"]):
            raise SiteError("node id %r is not an integer" % (row["id"],))
        if row["id"] in table:
            raise SiteError("duplicate node id %r" % row["id"])
        table[row["id"]] = row
    root = data["root"]
    if not is_int(root) or root not in table:
        raise SiteError("root id %r is not a listed node" % (root,))
    seen = set()

    def go(old, level) -> _N:
        if old in seen:
            raise SiteError("node %r has more than one parent" % old)
        if level > MAX_TREE_LEVELS:
            raise TreeTooDeep("tree is deeper than %d levels" % MAX_TREE_LEVELS)
        seen.add(old)
        row = table[old]
        kind = row["kind"]
        if kind == "internal":
            ch = row.get("children")
            if not isinstance(ch, list) or len(ch) != 2:
                raise SiteError("internal node %r needs a 2-element 'children' list" % old)
            for c in ch:
                if not is_int(c) or c not in table:
                    raise SiteError("child id %r of node %r is not a listed node" % (c, old))
            return _N(INTERNAL, kids=[go(ch[0], level + 1), go(ch[1], level + 1)],
                      meta={"id": old})
        if kind in ("leaf", "tail"):
            if row.get("children"):
                raise SiteError("%s node %r must not have children" % (kind, old))
            label = row.get("label")
            if (label is None) == (kind == "tail"):
                raise SiteError("node %r: 'label' is required exactly on tail nodes" % old)
            if label is not None and not isinstance(label, str):
                raise SiteError("node %r: 'label' must be a string" % old)
            return _N(LEAF if kind == "leaf" else TAIL, label, meta={"id": old})
        raise SiteError("node %r has unknown kind %r" % (old, kind))

    tree, order = _freeze(go(root, 1))
    if len(seen) != len(table):
        raise SiteError("nodes %s are not reachable from the root"
                        % sorted(set(table) - seen))
    return tree, {n.meta["id"]: i for i, n in enumerate(order)}


# ---------------------------------------------------------------------------
# explicit-part combinatorics

def on_branch_set(tree: FinitaryTree) -> frozenset[int]:
    """Explicit nodes lying on a branch: a tail marker among descendants or self."""
    on: set[int] = set()

    def go(nid) -> bool:
        kind = tree.kinds[nid]
        if kind == TAIL:
            hit = True
        elif kind == LEAF:
            hit = False
        else:
            a, b = tree.children[nid]
            ha, hb = go(a), go(b)
            hit = ha or hb
        if hit:
            on.add(nid)
        return hit

    go(0)
    return frozenset(on)


def tree_stats(tree: FinitaryTree) -> TreeStats:
    """Branch count, count of nodes under an off-branch parent, and the rank."""
    branches = len(tree.tail_ids)
    on = on_branch_set(tree)
    parents = tree.parents
    f_count = 0
    for i in range(tree.n_nodes):
        p = parents[i]
        if (p is None and i not in on) or (p is not None and p not in on):
            f_count += 1
    return TreeStats(branches, f_count, RankValue((branches, f_count)))


def branch_node(tree: FinitaryTree, tail_id: int, i: int):
    """The i-th denoted node along the branch of tail_id, 0 = the root."""
    path = tree.paths[tail_id]
    if i < len(path):
        return (0, path[i])
    return (1, tail_id, i - len(path) + 1, 0)


def branch_index(tree: FinitaryTree, tail_id: int, addr) -> int | None:
    """Position of addr along the branch of tail_id, None when off it."""
    path = tree.paths[tail_id]
    if addr[0] == 0:
        return path.index(addr[1]) if addr[1] in path else None
    _, t, k, side = addr
    if side != 0 or t != tail_id:
        return None
    return len(path) - 1 + k


def denoted_children(tree: FinitaryTree, addr):
    """The unordered child pair of a denoted node, None on denoted leaves."""
    if addr[0] == 0:
        return tree.child_addrs[addr[1]]
    _, t, k, side = addr
    if side == 1:
        return None
    return ((1, t, k + 1, 0), (1, t, k + 1, 1))


def parent_addr(tree: FinitaryTree, addr):
    if addr[0] == 1:
        _, t, k, _side = addr
        return (0, t) if k == 1 else (1, t, k - 1, 0)
    nid = addr[1]
    if nid == 0:
        return None
    return (0, tree.parents[nid])


def comb_view(tree: FinitaryTree, addr) -> int | None:
    """The id of the tail marker when the denoted subtree below addr is a
    pure continuation (one branch, every off-branch child a leaf), else
    None."""
    if addr[0] == 1:
        return addr[1] if addr[3] == 0 else None
    return tree.comb_tails[addr[1]]


def comb_children(tree: FinitaryTree, addr):
    """Children of a comb-view node ordered (continuation, off leaf)."""
    a, b = denoted_children(tree, addr)
    if comb_view(tree, a) is not None:
        return a, b
    return b, a


def comb_layout(tree: FinitaryTree, nid: int) -> tuple[tuple[int, int, int], ...]:
    """Explicit nodes inside the comb-view region below nid as
    (node id, depth relative to nid, side) triples."""
    out = [(nid, 0, 0)]
    cur, rel = nid, 0
    while tree.kinds[cur] == INTERNAL:
        cont, off = comb_children(tree, (0, cur))
        rel += 1
        out.append((cont[1], rel, 0))
        out.append((off[1], rel, 1))
        cur = cont[1]
    return tuple(out)


def labels_below(tree: FinitaryTree, addr) -> frozenset[str]:
    if addr[0] == 1:
        return frozenset((tree.labels[addr[1]],)) if addr[3] == 0 else frozenset()
    return tree.label_sets[addr[1]]


def walk_branch(tree: FinitaryTree, tail_id: int, base, k: int, side: int):
    """The node k steps below base along the branch of tail_id (side 0),
    or the sibling hanging off that step (side 1)."""
    i0 = branch_index(tree, tail_id, base)
    if i0 is None:
        raise SiteError("address %r does not lie on the branch of tail %d"
                        % (base, tail_id))
    path, i = tree.paths[tail_id], i0 + k
    if i >= len(path):
        return (1, tail_id, i - len(path) + 1, side)
    if side == 0:
        return (0, path[i])
    a, b = tree.children[path[i - 1]]
    return (0, b if a == path[i] else a)


# ---------------------------------------------------------------------------
# embeddings

class TreeEmbedding(Value):
    """explicit_images holds an address per explicit source node,
    tail_routes a (source tail, target tail, entry) row per source tail."""

    _fields = ("dom", "cod", "explicit_images", "tail_routes")
    site = "itree"

    def __init__(self, dom: FinitaryTree, cod: FinitaryTree,
                 explicit_images: tuple,
                 tail_routes: tuple[tuple[int, int, int], ...]):
        self.__dict__.update(dom=dom, cod=cod, explicit_images=explicit_images,
                             tail_routes=tail_routes)

    @cached_property
    def key(self) -> str:
        """The morphism_key string."""
        imgs = ";".join("%d:%s" % (i, ",".join(map(str, a)))
                        for i, a in enumerate(self.explicit_images))
        routes = ";".join("%d>%d" % (t, s) for t, s, _e in self.tail_routes)
        return "%s>%s:%s|%s" % (self.dom.key, self.cod.key, imgs, routes)

    @cached_property
    def _hash(self) -> int:
        """The hash of the field tuple, computed once: audits look
        embeddings up in their memo again and again."""
        return hash((self.dom, self.cod, self.explicit_images,
                     self.tail_routes))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.dom, self.cod, self.explicit_images,
                    self.tail_routes) == (other.dom, other.cod,
                                          other.explicit_images,
                                          other.tail_routes)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def route(self, t: int) -> int:
        """The target tail whose branch the continuation of tail t follows.
        A scan of the few routes costs less than building a table on each
        new embedding."""
        for source, target, _e in self.tail_routes:
            if source == t:
                return target
        raise SiteError("source node %d is not a routed tail" % t)

    def image(self, addr):
        if addr[0] == 0:
            return self.explicit_images[addr[1]]
        _, t, k, side = addr
        return walk_branch(self.cod, self.route(t), self.explicit_images[t],
                           k, side)

    def then(self, other: "TreeEmbedding") -> "TreeEmbedding":
        """The composite, self then other.  Explicit images are read
        straight from other's table; the routes keep the source-tail order
        of self.tail_routes, with the entry offsets of the new images."""
        table = other.explicit_images
        imgs = tuple([table[a[1]] if a[0] == 0 else other.image(a)
                      for a in self.explicit_images])
        routes = tuple([(t, other.route(s), imgs[t][2] if imgs[t][0] == 1 else 0)
                        for t, s, _e in self.tail_routes])
        return TreeEmbedding(self.dom, other.cod, imgs, routes)

    def sort_key(self):
        return (self.explicit_images, self.tail_routes)


def make_embedding(dom: FinitaryTree, cod: FinitaryTree, images,
                   route_targets: dict[int, int]) -> TreeEmbedding:
    """Build an embedding; entry offsets are derived from the images.
    The routes follow dom.tail_ids, which is ascending."""
    routes = []
    for t in dom.tail_ids:
        img = images[t]
        routes.append((t, route_targets[t], img[2] if img[0] == 1 else 0))
    return TreeEmbedding(dom, cod, tuple(images), tuple(routes))


def identity_embedding(tree: FinitaryTree) -> TreeEmbedding:
    return make_embedding(tree, tree, tuple((0, i) for i in range(tree.n_nodes)),
                          {t: t for t in tree.tail_ids})


def _valid_addr(tree: FinitaryTree, addr) -> bool:
    if not isinstance(addr, tuple):
        return False
    if addr[0] == 0:
        return len(addr) == 2 and 0 <= addr[1] < tree.n_nodes
    if addr[0] == 1:
        return (len(addr) == 4 and addr[1] in tree.tail_ids
                and addr[2] >= 1 and addr[3] in (0, 1))
    return False


def check_embedding(emb: TreeEmbedding) -> None:
    """Full structural validation, raising SiteError on the first defect."""
    X, Y = emb.dom, emb.cod
    if len(emb.explicit_images) != X.n_nodes:
        raise SiteError("embedding image table length differs from node count")
    for a in emb.explicit_images:
        if not _valid_addr(Y, a):
            raise SiteError("invalid target address %r" % (a,))
    if emb.explicit_images[0] != (0, 0):
        raise SiteError("embedding must send the root to the root")
    if len(set(emb.explicit_images)) != X.n_nodes:
        raise SiteError("embedding repeats a target address")
    routed = tuple(sorted(t for t, _s, _e in emb.tail_routes))
    if routed != X.tail_ids:
        raise SiteError("tail routes must cover the source tails exactly")
    for t, s, e in emb.tail_routes:
        if s not in Y.tail_ids:
            raise SiteError("route target %d is not a tail" % s)
        if X.labels[t] != Y.labels[s]:
            raise SiteError("tail %d routed across labels %r -> %r"
                            % (t, X.labels[t], Y.labels[s]))
        img = emb.explicit_images[t]
        if branch_index(Y, s, img) is None:
            raise SiteError("image of tail %d is off the branch of its target" % t)
        if e != (img[2] if img[0] == 1 else 0):
            raise SiteError("entry offset of tail %d disagrees with its image" % t)
    for x in range(X.n_nodes):
        ch = denoted_children(X, (0, x))
        if ch is None:
            continue
        got = {emb.image(ch[0]), emb.image(ch[1])}
        want = denoted_children(Y, emb.explicit_images[x])
        if want is None or got != set(want):
            raise SiteError("children of node %d do not map onto the "
                            "children of its image" % x)


def enumerate_embeddings(X: FinitaryTree, Y: FinitaryTree) -> list[TreeEmbedding]:
    """All embeddings X -> Y in canonical order.

    Depth-first over explicit source nodes: leaves are free, internal
    nodes branch over the two pairings with the target children, and a
    tail picks any equal-labeled target tail whose branch passes through
    the current address (the continuation is then forced).
    """
    out: list[TreeEmbedding] = []
    ytails = Y.tail_ids

    def go(pending, imgs, routes):
        if not pending:
            out.append(TreeEmbedding(X, Y, tuple(imgs), tuple(sorted(routes))))
            return
        (x, ya), rest = pending[0], pending[1:]
        kind = X.kinds[x]
        imgs2 = list(imgs)
        imgs2[x] = ya
        if kind == LEAF:
            go(rest, imgs2, routes)
        elif kind == TAIL:
            for s in ytails:
                if Y.labels[s] != X.labels[x]:
                    continue
                if branch_index(Y, s, ya) is None:
                    continue
                entry = ya[2] if ya[0] == 1 else 0
                go(rest, imgs2, routes + [(x, s, entry)])
        else:
            yc = denoted_children(Y, ya)
            if yc is None:
                return
            c1, c2 = X.children[x]
            go([(c1, yc[0]), (c2, yc[1])] + rest, imgs2, routes)
            go([(c1, yc[1]), (c2, yc[0])] + rest, imgs2, routes)

    go([(0, (0, 0))], [None] * X.n_nodes, [])
    return sorted(out, key=lambda e: e.sort_key())


def preimage_fn(emb: TreeEmbedding) -> Callable:
    """Membership test for the image: target address -> source address or None."""
    X, Y = emb.dom, emb.cod
    rev = {a: (0, i) for i, a in enumerate(emb.explicit_images)}

    def pre(za):
        if za in rev:
            return rev[za]
        for t, s, _e in emb.tail_routes:
            i0 = branch_index(Y, s, emb.explicit_images[t])
            iz = branch_index(Y, s, za)
            if iz is not None and iz > i0:
                return (1, t, iz - i0, 0)
            pa = parent_addr(Y, za)
            if pa is None:
                continue
            ip = branch_index(Y, s, pa)
            if ip is not None and ip >= i0 and branch_node(Y, s, ip + 1) != za:
                return (1, t, ip + 1 - i0, 1)
        return None

    return pre


# ---------------------------------------------------------------------------
# carving denoted subtrees and reading frozen scratch trees back

def _carve(host: FinitaryTree, pos, side: str) -> _N:
    """The denoted subtree of host below pos, every comb as one tail
    marker, each node recording its host position under side."""
    ch = denoted_children(host, pos)
    if ch is None:
        return _N(LEAF, meta={side: pos})
    t = comb_view(host, pos)
    if t is not None:
        return _N(TAIL, host.labels[t], meta={side: pos})
    return _N(INTERNAL, meta={side: pos},
              kids=[_carve(host, ch[0], side), _carve(host, ch[1], side)])


def _placements(order: list[_N], host: FinitaryTree, side: str):
    """Where the host positions recorded under side landed in a frozen
    scratch tree: an address per explicit host node (None where nothing
    landed) and the frozen tail each host tail now follows.  A scratch
    tail recorded at a host comb stands for the whole comb: the comb's
    explicit nodes land along the tail's continuation."""
    imgs: list = [None] * host.n_nodes
    tails: dict[int, int] = {}
    for fid, n in enumerate(order):
        pos = n.meta.get(side)
        if pos is None:
            continue
        t = comb_view(host, pos) if n.kind == TAIL else None
        if t is not None:
            tails[t] = fid
            if pos[0] == 0:
                for nid, rel, sd in comb_layout(host, pos[1]):
                    imgs[nid] = (0, fid) if rel == 0 else (1, fid, rel, sd)
        elif pos[0] == 0:
            imgs[pos[1]] = (0, fid)
    return imgs, tails


def _inclusion(obj: FinitaryTree, order: list[_N], host: FinitaryTree,
               side: str) -> TreeEmbedding:
    """The embedding of a frozen scratch tree into host that sends each
    node to the position recorded under side and each tail along the host
    tail recorded under side + "t"."""
    return make_embedding(obj, host, tuple(n.meta[side] for n in order),
                          {fid: n.meta[side + "t"]
                           for fid, n in enumerate(order) if n.kind == TAIL})


# ---------------------------------------------------------------------------
# pullback

def tree_pullback(f: TreeEmbedding, g: TreeEmbedding) -> PullbackSquare:
    """Intersection of the two images, re-encoded canonically.

    Walks the common target one denoted level at a time.  Once both
    preimage positions sit on pure continuations following the same
    target branch the rest of the intersection is that whole branch (a
    tail marker); continuations on different target branches split at
    the finite depth where those branches diverge.
    """
    X, Y, Z = f.dom, g.dom, f.cod

    def walk(xa, ya, za) -> _N:
        xc, yc = denoted_children(X, xa), denoted_children(Y, ya)
        if xc is None or yc is None:
            return _N(LEAF, meta={"x": xa, "y": ya})
        tx, ty = comb_view(X, xa), comb_view(Y, ya)
        if tx is not None and ty is not None and f.route(tx) == g.route(ty):
            return _N(TAIL, X.labels[tx],
                      meta={"x": xa, "y": ya, "xt": tx, "yt": ty})
        by_x = {f.image(c): c for c in xc}
        by_y = {g.image(c): c for c in yc}
        kids = [walk(by_x[z], by_y[z], z) for z in denoted_children(Z, za)]
        return _N(INTERNAL, kids=kids, meta={"x": xa, "y": ya})

    apex, order = _freeze(_canonical(walk((0, 0), (0, 0), (0, 0))))
    return PullbackSquare(f, g, apex, _inclusion(apex, order, X, "x"),
                          _inclusion(apex, order, Y, "y"))


# ---------------------------------------------------------------------------
# amalgamation

def tree_amalgamate(span: Span) -> Cocone:
    """A small deterministic cocone over the span.

    The two trees are overlaid: inside the span apex the pairing of
    children is the one forced by the legs, outside it children are
    paired greedily so that equal-labeled continuations merge into one
    tail marker; continuations with clashing labels split at the first
    node where they meet, each keeping its own branch and absorbing the
    other side's hanging leaf.
    """
    f, g = span.left, span.right
    X, A, B = span.apex, f.cod, g.cod

    def merge(x, a, b) -> _N:
        da, db = denoted_children(A, a), denoted_children(B, b)
        if da is None and db is None:
            return _N(LEAF, meta={"a": a, "b": b})
        if da is None or db is None:
            # a leaf on one side lies over the other side's whole subtree
            n = _carve(B, b, "b") if da is None else _carve(A, a, "a")
            n.meta.update(a=a, b=b)
            return n
        ta, tb = comb_view(A, a), comb_view(B, b)
        combs = ta is not None and tb is not None
        dx = None if x is None else denoted_children(X, x)
        if dx is not None:
            # inside the apex image the legs force the pairing of children;
            # a comb merge is only allowed where the apex itself continues
            # as a comb, so that both routes follow one identified branch
            if combs and comb_view(X, x) is not None:
                return _N(TAIL, A.labels[ta], meta={"a": a, "b": b})
            x1, x2 = dx
            kids = [merge(x1, f.image(x1), g.image(x1)),
                    merge(x2, f.image(x2), g.image(x2))]
        elif combs:
            if A.labels[ta] == B.labels[tb]:
                return _N(TAIL, A.labels[ta], meta={"a": a, "b": b})
            ac, ao = comb_children(A, a)
            bc, bo = comb_children(B, b)
            kids = [merge(None, ac, bo), merge(None, ao, bc)]
        else:
            (a1, a2), (b1, b2) = da, db
            la1, la2 = labels_below(A, a1), labels_below(A, a2)
            lb1, lb2 = labels_below(B, b1), labels_below(B, b2)
            if (len(la1 & lb2) + len(la2 & lb1)
                    > len(la1 & lb1) + len(la2 & lb2)):
                b1, b2 = b2, b1
            kids = [merge(None, a1, b1), merge(None, a2, b2)]
        return _N(INTERNAL, kids=kids, meta={"a": a, "b": b})

    obj, order = _freeze(merge((0, 0), (0, 0), (0, 0)))
    legs = []
    for host, side in ((A, "a"), (B, "b")):
        imgs, tails = _placements(order, host, side)
        if None in imgs:
            raise SiteError("amalgam failed to place every node")
        legs.append(make_embedding(host, obj, imgs, tails))
    return Cocone(obj, *legs)


# ---------------------------------------------------------------------------
# subtrees of the denoted tree

class SubtreeView(NamedTuple):
    tree: FinitaryTree
    from_host: dict    # host explicit id -> subtree address
    tail_map: dict     # host tail id -> subtree tail id


def subtree_at(host: FinitaryTree, addr) -> SubtreeView:
    """Materialize the denoted subtree below addr as an object."""
    sub, order = _freeze(_carve(host, addr, "p"))
    imgs, tails = _placements(order, host, "p")
    return SubtreeView(sub, {i: a for i, a in enumerate(imgs) if a is not None},
                       tails)


# ---------------------------------------------------------------------------
# regular-mono witness and equalizers

def regular_mono_witness(emb: TreeEmbedding):
    """A parallel pair out of the target whose equalizer is the source.

    Every target node outside the image hangs below some image of a
    source denoted leaf.  At each such leaf image p the subtree below p
    is replaced by a node over two copies of an amalgam containing both
    child subtrees; the two embeddings send the children straight and
    swapped, so they agree exactly on the image of the source.
    """
    X, Y = emb.dom, emb.cod
    pre = preimage_fn(emb)
    point = build(leaf())

    def replacement(p, ch) -> _N:
        s1, s2 = subtree_at(Y, ch[0]), subtree_at(Y, ch[1])
        cone = tree_amalgamate(Span(
            make_embedding(point, s1.tree, ((0, 0),), {}),
            make_embedding(point, s2.tree, ((0, 0),), {})))
        return _N(INTERNAL, kids=[_copy(cone.obj), _copy(cone.obj)],
                  meta={"y": p, "repl": ((s1, cone.from_left),
                                         (s2, cone.from_right))})

    def walk(p) -> _N:
        xp = pre(p)
        if xp is None:
            raise SiteError("walk escaped the embedding image")
        ch = denoted_children(Y, p)
        if denoted_children(X, xp) is None:
            return _N(LEAF, meta={"y": p}) if ch is None else replacement(p, ch)
        t = comb_view(Y, p)
        # swallow a comb only where the source covers it cofinally, i.e.
        # keeps routing a tail along this branch
        if t is not None and comb_view(X, xp) is not None:
            return _N(TAIL, Y.labels[t], meta={"y": p})
        return _N(INTERNAL, kids=[walk(ch[0]), walk(ch[1])], meta={"y": p})

    doubled, order = _freeze(walk((0, 0)))
    imgs, routes = _placements(order, Y, "y")
    maps = ((imgs, routes), (list(imgs), dict(routes)))
    for fid, n in enumerate(order):
        if "repl" not in n.meta:
            continue
        # the two amalgam copies follow n in preorder, and the amalgam is
        # numbered in preorder too, so its node i sits at base + i of a
        # copy; e1 sends the child subtrees straight, e2 swapped
        (s1, c1), (s2, c2) = n.meta["repl"]
        b1 = fid + 1
        b2 = b1 + c1.cod.n_nodes
        for view, into, bases in ((s1, c1, (b1, b2)), (s2, c2, (b2, b1))):
            for (im, ro), base in zip(maps, bases):
                for yid, sa in view.from_host.items():
                    ca = into.image(sa)
                    im[yid] = (ca[0], base + ca[1]) + ca[2:]
                for yt, st in view.tail_map.items():
                    ro[yt] = base + into.route(st)
    if None in imgs:
        raise SiteError("doubled tree failed to place every node")
    e1, e2 = (make_embedding(Y, doubled, im, ro) for im, ro in maps)
    return doubled, e1, e2


def equalizer_of(e1: TreeEmbedding, e2: TreeEmbedding):
    """The subtree of the common domain where two parallel embeddings agree,
    with its inclusion."""
    if e1.dom != e2.dom or e1.cod != e2.cod:
        raise SiteError("equalizer needs a parallel pair")
    Y = e1.dom

    def walk(p) -> _N:
        ch = denoted_children(Y, p)
        if ch is None:
            return _N(LEAF, meta={"y": p})
        t = comb_view(Y, p)
        if t is not None and e1.route(t) == e2.route(t) \
                and e1.image(p) == e2.image(p):
            return _N(TAIL, Y.labels[t], meta={"y": p, "yt": t})
        if e1.image(ch[0]) != e2.image(ch[0]):
            return _N(LEAF, meta={"y": p})
        return _N(INTERNAL, kids=[walk(ch[0]), walk(ch[1])], meta={"y": p})

    eq, order = _freeze(walk((0, 0)))
    return eq, _inclusion(eq, order, Y, "y")


def same_subtree(m1: TreeEmbedding, m2: TreeEmbedding) -> bool:
    """Whether two embeddings into the same tree have equal images."""
    square = tree_pullback(m1, m2)
    return is_iso(square.to_left) and is_iso(square.to_right)


# ---------------------------------------------------------------------------
# zig-zag witness over a pullback of subtrees

def c2prime_witness(square: PullbackSquare, u: TreeEmbedding,
                    v: TreeEmbedding) -> TreeEmbedding:
    """Given subtrees X, Y of Z and a parallel pair u, v out of Z that
    agrees on the pullback of the two inclusions, produce w out of Z
    that restricts to u on X and to v on Y.

    w follows v below the set L of common nodes that are leaves inside
    the X image, and u everywhere else; every node of Y outside X sits
    below some member of L, and u and v agree on L itself.
    """
    ix, iy = square.left, square.right
    X, Y, Z = ix.dom, iy.dom, ix.cod
    if u.dom != Z or v.dom != Z or u.cod != v.cod:
        raise SiteError("the pair must be parallel out of the square's target")
    apex_in = compose(square.to_left, ix)
    if compose(apex_in, u) != compose(apex_in, v):
        raise SiteError("the pair does not agree on the intersection")

    pre_x, pre_y = preimage_fn(ix), preimage_fn(iy)

    def in_l(za) -> bool:
        xp = pre_x(za)
        if xp is None or denoted_children(X, xp) is not None:
            return False
        return pre_y(za) is not None

    parents = Z.parents

    def explicit_has_l(z: int) -> bool:
        cur: int | None = z
        while cur is not None:
            if in_l((0, cur)):
                return True
            cur = parents[cur]
        return False

    images = tuple(v.explicit_images[z] if explicit_has_l(z)
                   else u.explicit_images[z] for z in range(Z.n_nodes))
    targets: dict[int, int] = {}
    for t in Z.tail_ids:
        if explicit_has_l(t):
            targets[t] = v.route(t)
            continue
        # an explicit leaf of X mapped onto the continuation switches the
        # route to v from that depth on
        depths = sorted(img[2] for xid, img in enumerate(ix.explicit_images)
                        if X.kinds[xid] == LEAF and img[0] == 1 and img[1] == t)
        switched = any(in_l((1, t, j, 0)) for j in depths)
        targets[t] = v.route(t) if switched else u.route(t)
    w = make_embedding(Z, u.cod, images, targets)
    check_embedding(w)
    return w


# ---------------------------------------------------------------------------
# bounded enumeration and the backend

def enumerate_trees(max_tails: int, max_explicit: int,
                    labels: tuple[str, ...]) -> list[FinitaryTree]:
    """All canonical trees within the bounds, over the given label set."""
    alphabet = tuple(sorted(set(labels)))
    by_size: dict[int, list] = {}

    def gen(size: int) -> list:
        if size in by_size:
            return by_size[size]
        out: dict = {}
        if size == 1:
            out[(0,)] = (("leaf",), 0)
            if max_tails >= 1:
                for lab in alphabet:
                    out[(1, lab)] = (("tail", lab), 1)
        else:
            for na in range(1, size - 1, 2):
                for ka, (a, ta) in gen(na):
                    for kb, (b, tb) in gen(size - 1 - na):
                        if ka > kb or ta + tb > max_tails:
                            continue
                        if {a[0], b[0]} == {"tail", "leaf"}:
                            continue
                        out[(2, ka, kb)] = (("node", a, b), ta + tb)
        by_size[size] = sorted(out.items())
        return by_size[size]

    found = []
    for size in range(1, max_explicit + 1, 2):
        found.extend(build(nested) for _k, (nested, _t) in gen(size))
    return found


def _labels(trees) -> tuple[str, ...]:
    return tuple(sorted({lab for t in trees for lab in t.labels
                         if lab is not None}))


class ITreeBackend:
    tag = "itree"
    object_marker = "nodes"
    morphism_marker = "explicit_images"

    def identity(self, obj: FinitaryTree) -> TreeEmbedding:
        return identity_embedding(obj)

    def hom_set(self, a: FinitaryTree, b: FinitaryTree) -> list[TreeEmbedding]:
        return enumerate_embeddings(a, b)

    def rank(self, obj: FinitaryTree) -> RankValue:
        return tree_stats(obj).rank

    def pullback(self, f: TreeEmbedding, g: TreeEmbedding) -> PullbackSquare:
        return tree_pullback(f, g)

    def amalgamate(self, span: Span) -> Cocone:
        return tree_amalgamate(span)

    def objects_up_to(self, bound: int) -> list[FinitaryTree]:
        """Trees with at most bound tails and 2*bound+1 explicit nodes,
        over AUDIT_LABELS."""
        return enumerate_trees(bound, 2 * bound + 1, AUDIT_LABELS)

    def chain_domains(self, base: FinitaryTree) -> list[FinitaryTree]:
        return enumerate_trees(len(base.tail_ids), base.n_nodes + 2,
                               _labels((base,)))

    def checker_objects(self, depth: int, seeds) -> list[FinitaryTree]:
        """At most depth tails and 2*depth+3 explicit nodes, over the
        branch labels occurring in the seeds."""
        return enumerate_trees(depth, 2 * depth + 3, _labels(seeds))

    def pairs_covered(self, depth: int, seeds, tgt: FinitaryTree,
                      shared: FinitaryTree) -> bool:
        """Whether every parallel pair out of tgt agreeing on the image of
        shared factors through a checker object: such a pair restricts
        to a tree with twice the tails of tgt and 2e-1 explicit nodes plus
        one divergence point per tail."""
        tails = len(tgt.tail_ids)
        return (2 * tails <= depth
                and 2 * tgt.n_nodes - 1 + tails <= 2 * depth + 3)

    def regular_mono(self, m: TreeEmbedding) -> tuple[bool, dict]:
        """The witness pair must have exactly the image of m as equalizer."""
        _doubled, e1, e2 = regular_mono_witness(m)
        if compose(m, e1) != compose(m, e2):
            return False, {"reason": "pair disagrees on image"}
        _eq, incl = equalizer_of(e1, e2)
        if not same_subtree(incl, m):
            return False, {"reason": "equalizer is not the source subtree"}
        return True, {"doubled": object_key(e1.cod)}

    def zigzag(self, square: PullbackSquare, u: TreeEmbedding,
               v: TreeEmbedding) -> tuple:
        """The explicit patch function gives a chain of length three
        without enlarging the target."""
        w = c2prime_witness(square, u, v)
        return identity_embedding(u.cod), (u, w, v)

    def full_group_name(self, obj: FinitaryTree) -> str:
        return "Aut"

    # -- serialization ------------------------------------------------------

    def encode_object(self, obj: FinitaryTree) -> dict:
        nodes = []
        for i, kind in enumerate(obj.kinds):
            row: dict = {"id": i, "kind": kind}
            if kind == INTERNAL:
                row["children"] = list(obj.children[i])
            if kind == TAIL:
                row["label"] = obj.labels[i]
            nodes.append(row)
        return {"site": "itree", "root": 0, "nodes": nodes}

    def decode_object(self, data: dict) -> FinitaryTree:
        return validate_tree(data)

    def encode_morphism(self, f: TreeEmbedding) -> dict:
        def addr(a):
            return ["n", a[1]] if a[0] == 0 else \
                ["t", a[1], a[2], "b" if a[3] == 0 else "l"]

        return {"site": "itree",
                "source": self.encode_object(f.dom),
                "target": self.encode_object(f.cod),
                "explicit_images": {str(i): addr(a)
                                    for i, a in enumerate(f.explicit_images)},
                "tail_routes": {str(t): {"tail": s, "entry": e}
                                for t, s, e in f.tail_routes}}

    def decode_morphism(self, data: dict) -> TreeEmbedding:
        for key in ("source", "target", "explicit_images", "tail_routes"):
            if key not in data:
                raise SiteError("embedding payload needs a %r field" % key)
        src, smap = _validate_tree_mapped(data["source"])
        tgt, tmap = _validate_tree_mapped(data["target"])

        def source(key: str, what: str) -> int:
            try:
                old = int(key)
            except ValueError:
                raise SiteError("%s key %r is not a node id" % (what, key)) from None
            if old not in smap:
                raise SiteError("%s listed for unknown source node %r" % (what, old))
            return smap[old]

        def addr(a):
            if isinstance(a, list) and len(a) >= 2 and is_int(a[1]):
                if a[0] == "n" and len(a) == 2:
                    return (0, tmap.get(a[1], -1))
                if (a[0] == "t" and len(a) == 4 and is_int(a[2])
                        and a[3] in ("b", "l")):
                    return (1, tmap.get(a[1], -1), a[2], 0 if a[3] == "b" else 1)
            raise SiteError("malformed address %r" % (a,))

        for key in ("explicit_images", "tail_routes"):
            if not isinstance(data[key], dict):
                raise SiteError("embedding %r must be an object" % key)
        images: list = [None] * src.n_nodes
        for key, val in data["explicit_images"].items():
            images[source(key, "image")] = addr(val)
        if any(i is None for i in images):
            raise SiteError("explicit_images must cover every source node")
        targets: dict[int, int] = {}
        for key, val in data["tail_routes"].items():
            if not isinstance(val, dict) or not is_int(val.get("tail")):
                raise SiteError("tail route rows need an integer 'tail' field")
            targets[source(key, "route")] = tmap.get(val["tail"], -1)
        emb = make_embedding(src, tgt, tuple(images), targets)
        check_embedding(emb)
        return emb

    def object_key(self, obj: FinitaryTree) -> str:
        return obj.key

    def morphism_key(self, f: TreeEmbedding) -> str:
        return f.key


register_backend(ITreeBackend())
