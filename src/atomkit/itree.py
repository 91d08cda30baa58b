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
inputs and emits the new tree node by node, in preorder, into one
builder, each node with its parent and the host positions it came from,
so the embeddings out of and into the hosts are complete when the walk
returns.  Pullbacks and canonical forms sort children before numbering
them, so they nest first and replay.  The builder's finish step is the
only place a FinitaryTree is built.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, NamedTuple

from .core import (Cocone, PullbackSquare, RankValue, SiteError, Span, Value,
                   commutes, compose, factor, is_int, object_key,
                   register_backend)

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
    constructor trusts its arguments: only _Builder.finish calls it, on
    trees that validate_tree or build checked or the library assembled.

    finish also stores the per-tree indices on the value, as attributes
    outside the fields (equality and repr ignore them):

        parents   the parent id of each node, None at the root
        tail_ids  the ids of the tail markers, ascending
        paths     tail id -> explicit ids from the root down to the tail
        key       the object_key string

    and the hash of the fields, which __hash__ returns.  The per-node
    tables child_addrs, comb_tails and label_sets, and canonical_key, are
    computed on first use instead: most trees an audit builds are
    amalgams that nothing queries.
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

    @cached_property
    def canonical_key(self) -> str:
        """The key of canonical_form(self), equal on isomorphic trees."""
        return canonical_form(self).key

    def __eq__(self, other):
        if other is self:
            return True
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
# the preorder builder: the one way a tree value is made

class _Builder:
    """A tree emitted one node at a time in preorder, parent and then left
    child first, so a node's id is the count of nodes before it.  add
    takes its kind, label and parent id, its position in each host (None
    where it has none) and, on a tail, the host tail each inclusion
    routes it along.  Meanwhile images[k] and tails[k] record where the
    explicit nodes and tails of hosts[k] land (a tail emitted at a host
    comb stands for the whole comb), so the legs out of the hosts and the
    inclusions into them are complete when the walk returns.  finish is
    the only place a FinitaryTree is built."""

    def __init__(self, *hosts: FinitaryTree):
        self.nodes, self.at, self.routes, self.hosts = [], [], {}, hosts
        self.images = [[None] * len(h.kinds) for h in hosts]
        self.tails: list[dict[int, int]] = [{} for _h in hosts]

    def add(self, kind: str, label, parent, *at, routes=None) -> int:
        fid = len(self.nodes)
        self.nodes.append((kind, label, parent))
        self.at.append(at)
        if routes is not None:
            self.routes[fid] = routes
        for host, imgs, tails, pos in zip(self.hosts, self.images,
                                          self.tails, at):
            t = None if pos is None or kind != TAIL else comb_view(host, pos)
            if t is not None:
                tails[t] = fid
                if pos[0] == 0:
                    for nid, rel, side in comb_layout(host, pos[1]):
                        imgs[nid] = (0, fid) if rel == 0 else (1, fid, rel, side)
            elif pos is not None and pos[0] == 0:
                imgs[pos[1]] = (0, fid)
        return fid

    def finish(self) -> FinitaryTree:
        """The tree and its indices: one pass back over the nodes pairs
        the children, builds the keys and lists the tails."""
        kinds, labels, parents = zip(*self.nodes)
        children: list = [None] * len(kinds)
        keys = children[:]
        tails = []
        for i in range(len(kinds) - 1, -1, -1):
            kind, p = kinds[i], parents[i]
            if kind == INTERNAL:
                a, b = children[i]
                keys[i] = "(%s %s)" % (keys[a], keys[b])
            elif kind == LEAF:
                keys[i] = "L"
            else:
                keys[i] = "T(%s)" % labels[i]
                tails.append(i)
            if p is not None and p != i - 1:  # a left child follows its parent
                children[p] = (p + 1, i)
        paths = {}
        for t in reversed(tails):
            path = [t]
            while parents[path[-1]] is not None:
                path.append(parents[path[-1]])
            paths[t] = tuple(path[::-1])
        fields = (kinds, tuple(children), labels)
        tree = FinitaryTree(*fields)
        tree.__dict__.update(parents=parents, tail_ids=tuple(paths),
                             paths=paths, key=keys[0], _hash=hash(fields))
        return tree

    def legs(self, tree: FinitaryTree, what: str) -> list[TreeEmbedding]:
        """The embedding of each host into the finished tree."""
        if any([None in imgs for imgs in self.images]):
            raise SiteError("%s failed to place every node" % what)
        return [make_embedding(host, tree, imgs, tails) for host, imgs, tails
                in zip(self.hosts, self.images, self.tails)]

    def inclusion(self, tree, host, k: int) -> TreeEmbedding:
        """The finished tree into host: k-th positions and routes."""
        return make_embedding(tree, host, tuple([at[k] for at in self.at]),
                              {t: r[k] for t, r in self.routes.items()})


def _nest(kind: str, label, kids=(), at=(), routes=None) -> tuple:
    """A node (sort key, kind, label, children, at, routes) of a nested
    tree in canonical form: a node over a tail and a leaf collapses into
    the tail (with the node's positions), and children sort by key."""
    if kind == INTERNAL:
        a, b = kids
        for t, other in ((a, b), (b, a)):
            if t[1] == TAIL and other[1] == LEAF:
                return (t[0], TAIL, t[2], (), at, t[5])
        if b[0] < a[0]:
            a, b = b, a
        return ((2, a[0], b[0]), INTERNAL, None, (a, b), at, None)
    return ((0,) if kind == LEAF else (1, label), kind, label, (), at, routes)


def _replay(out: _Builder, nested: tuple, parent=None) -> None:
    _key, kind, label, kids, at, routes = nested
    fid = out.add(kind, label, parent, *at, routes=routes)
    for kid in kids:
        _replay(out, kid, fid)


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
    out = _Builder()

    def go(n, parent):
        if n[0] == "node":
            fid = out.add(INTERNAL, None, parent)
            go(n[1], fid)
            return go(n[2], fid)
        if n[0] == "leaf":
            return out.add(LEAF, None, parent)
        if n[1] is None:
            raise SiteError("a tail needs a label")
        return out.add(TAIL, n[1], parent)

    go(nested, None)
    return out.finish()


def canonical_form(tree: FinitaryTree) -> FinitaryTree:
    """The minimal encoding; equal canonical forms mean isomorphic trees."""

    def nest(i) -> tuple:
        return _nest(tree.kinds[i], tree.labels[i],
                     tuple([nest(c) for c in tree.children[i] or ()]))

    out = _Builder()
    _replay(out, nest(0))
    return out.finish()


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
    out = _Builder()

    def go(old, level, parent):
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
            fid = out.add(INTERNAL, None, parent, old)
            go(ch[0], level + 1, fid)
            return go(ch[1], level + 1, fid)
        if kind in ("leaf", "tail"):
            if row.get("children"):
                raise SiteError("%s node %r must not have children" % (kind, old))
            label = row.get("label")
            if (label is None) == (kind == "tail"):
                raise SiteError("node %r: 'label' is required exactly on tail nodes" % old)
            if label is not None and not isinstance(label, str):
                raise SiteError("node %r: 'label' must be a string" % old)
            return out.add(LEAF if kind == "leaf" else TAIL, label, parent, old)
        raise SiteError("node %r has unknown kind %r" % (old, kind))

    go(root, 1, None)
    if len(seen) != len(table):
        raise SiteError("nodes %s are not reachable from the root"
                        % sorted(set(table) - seen))
    return out.finish(), {at[0]: i for i, at in enumerate(out.at)}


# ---------------------------------------------------------------------------
# explicit-part combinatorics

def tree_stats(tree: FinitaryTree) -> TreeStats:
    """Branch count, count of nodes under an off-branch parent, and the rank."""
    branches = len(tree.tail_ids)
    below = tree.label_sets  # a node lies on a branch when a tail is below
    f_count = 0
    for i, p in enumerate(tree.parents):
        if not below[i if p is None else p]:
            f_count += 1
    return TreeStats(branches, f_count, RankValue((branches, f_count)))


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

    def then_equals(self, g: "TreeEmbedding", h: "TreeEmbedding",
                    k: "TreeEmbedding") -> bool:
        """Whether self;g == h;k, given equal ends: the explicit images and
        route targets of the composites, without building either one."""
        gi, ki = g.explicit_images, k.explicit_images
        return ([gi[a[1]] if a[0] == 0 else g.image(a)
                 for a in self.explicit_images]
                == [ki[b[1]] if b[0] == 0 else k.image(b)
                    for b in h.explicit_images]
                and [(t, g.route(s)) for t, s, _e in self.tail_routes]
                == [(t, k.route(s)) for t, s, _e in h.tail_routes])

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
    """Membership test for the image: target address -> source address or
    None.  A node's preimage is the child of its parent's preimage that
    emb sends onto it; pre climbs to the nearest explicit image (the root
    at the latest) and walks back down in a loop, not by recursion."""
    X, Y = emb.dom, emb.cod
    rev = {a: (0, i) for i, a in enumerate(emb.explicit_images)}

    def pre(za):
        climbed = []
        while za not in rev:
            climbed.append(za)
            za = parent_addr(Y, za)
        xa = rev[za]
        for za in reversed(climbed):
            xa = next((c for c in denoted_children(X, xa) or ()
                       if emb.image(c) == za), None)
            if xa is None:
                return None
        return xa

    return pre


# ---------------------------------------------------------------------------
# pullback

def tree_pullback(f: TreeEmbedding, g: TreeEmbedding) -> PullbackSquare:
    """Intersection of the two images, re-encoded canonically.

    Walks the common target one denoted level at a time.  Once both
    preimage positions sit on pure continuations following the same
    target branch the rest of the intersection is that whole branch (a
    tail marker); continuations on different target branches split at
    the finite depth where those branches diverge.  Canonical form
    sorts children before numbering, so the walk nests and then replays.
    """
    X, Y, Z = f.dom, g.dom, f.cod

    def walk(xa, ya, za) -> tuple:
        xc, yc = denoted_children(X, xa), denoted_children(Y, ya)
        if xc is None or yc is None:
            return _nest(LEAF, None, (), (xa, ya))
        tx, ty = comb_view(X, xa), comb_view(Y, ya)
        if tx is not None and ty is not None and f.route(tx) == g.route(ty):
            return _nest(TAIL, X.labels[tx], (), (xa, ya), (tx, ty))
        by_x = {f.image(c): c for c in xc}
        by_y = {g.image(c): c for c in yc}
        kids = [walk(by_x[z], by_y[z], z) for z in denoted_children(Z, za)]
        return _nest(INTERNAL, None, kids, (xa, ya))

    out = _Builder()
    _replay(out, walk((0, 0), (0, 0), (0, 0)))
    apex = out.finish()
    return PullbackSquare(f, g, apex, out.inclusion(apex, X, 0),
                          out.inclusion(apex, Y, 1))


# ---------------------------------------------------------------------------
# amalgamation

def _overlay(out: _Builder, f, g, x, a, b, parent) -> None:
    """Emit into out the overlay of the subtrees below a in out.hosts[0]
    and b in out.hosts[1], x being their preimage in the apex of the legs
    f and g, or None outside the apex image.

    Inside the apex image the legs force the pairing of children; outside
    it children pair greedily so that equal-labeled continuations merge
    into one tail marker, and continuations with clashing labels split
    where they meet, each absorbing the other side's hanging leaf.  A
    leaf on one side lies over the other side's whole subtree, carved
    with every comb as one tail marker; below the leaf the position on
    its side is None.  The walk keeps its own stack, left child on top,
    and emits leaves and internal nodes inline: the hot path of add.
    """
    A, B = out.hosts
    X = None if f is None else f.dom
    nodes, ats, (ia, ib) = out.nodes, out.at, out.images
    # denoted_children, comb_view and image at explicit addresses, inline
    cha, chb, cta, ctb = A.child_addrs, B.child_addrs, A.comb_tails, B.comb_tails
    fi, gi = (None, None) if f is None else (f.explicit_images, g.explicit_images)
    todo = [(x, a, b, parent)]
    while todo:
        x, a, b, parent = todo.pop()
        fid = len(nodes)
        da = None if a is None else cha[a[1]] if a[0] == 0 \
            else denoted_children(A, a)
        db = None if b is None else chb[b[1]] if b[0] == 0 \
            else denoted_children(B, b)
        if da is None or db is None:
            kind = LEAF
            if da is not None or db is not None:  # carve the other side
                host, pos, (c1, c2) = (A, a, da) if db is None else (B, b, db)
                t = comb_view(host, pos)
                if t is not None:
                    out.add(TAIL, host.labels[t], parent, a, b)
                    continue
                kind = INTERNAL
                todo += (((None, c2, None, fid), (None, c1, None, fid))
                         if db is None else
                         ((None, None, c2, fid), (None, None, c1, fid)))
        else:
            ta = cta[a[1]] if a[0] == 0 else comb_view(A, a)
            tb = ctb[b[1]] if b[0] == 0 else comb_view(B, b)
            combs = ta is not None and tb is not None
            dx = None if x is None else denoted_children(X, x)
            if dx is not None:
                # merge combs only where the apex continues as a comb too,
                # so that both routes follow one identified branch
                if combs and comb_view(X, x) is not None:
                    out.add(TAIL, A.labels[ta], parent, a, b)
                    continue
                for x1 in dx[::-1]:
                    todo.append((x1, fi[x1[1]], gi[x1[1]], fid) if x1[0] == 0
                                else (x1, f.image(x1), g.image(x1), fid))
            elif combs:
                if A.labels[ta] == B.labels[tb]:
                    out.add(TAIL, A.labels[ta], parent, a, b)
                    continue
                (ac, ao), (bc, bo) = comb_children(A, a), comb_children(B, b)
                todo += ((None, ao, bc, fid), (None, ac, bo, fid))
            else:
                (a1, a2), (b1, b2) = da, db
                la1, la2 = labels_below(A, a1), labels_below(A, a2)
                lb1, lb2 = labels_below(B, b1), labels_below(B, b2)
                if (len(la1 & lb2) + len(la2 & lb1)
                        > len(la1 & lb1) + len(la2 & lb2)):
                    b1, b2 = b2, b1
                todo += ((None, a2, b2, fid), (None, a1, b1, fid))
            kind = INTERNAL
        nodes.append((kind, None, parent))
        ats.append((a, b))
        if a is not None and a[0] == 0:
            ia[a[1]] = (0, fid)
        if b is not None and b[0] == 0:
            ib[b[1]] = (0, fid)


def tree_amalgamate(span: Span) -> Cocone:
    """A small deterministic cocone over the span (see _overlay)."""
    f, g = span.left, span.right
    out = _Builder(f.cod, g.cod)
    _overlay(out, f, g, (0, 0), (0, 0), (0, 0), None)
    obj = out.finish()
    return Cocone(obj, *out.legs(obj, "amalgam"))


# ---------------------------------------------------------------------------
# regular-mono witness and equalizers

def regular_mono_witness(emb: TreeEmbedding):
    """A parallel pair out of the target whose equalizer is the source.

    Every target node outside the image hangs below some image of a
    source denoted leaf.  At each such leaf image p the subtree below p
    is replaced by a node over two copies of the overlay of its two
    child subtrees (their amalgam over a point); the two embeddings send
    the children straight and swapped, so they agree exactly on the
    image of the source.
    """
    X, Y = emb.dom, emb.cod
    pre = preimage_fn(emb)
    out = _Builder(Y, Y)  # where e1 and e2 send the nodes of Y

    def walk(p, parent):
        xp = pre(p)
        if xp is None:
            raise SiteError("walk escaped the embedding image")
        ch = denoted_children(Y, p)
        if ch is None:
            return out.add(LEAF, None, parent, p, p)
        t = comb_view(Y, p)
        if denoted_children(X, xp) is not None:
            # swallow a comb only where the source covers it cofinally,
            # i.e. keeps routing a tail along this branch
            if t is not None and comb_view(X, xp) is not None:
                return out.add(TAIL, Y.labels[t], parent, p, p)
            fid = out.add(INTERNAL, None, parent, p, p)
            walk(ch[0], fid)
            return walk(ch[1], fid)
        # two copies of the overlay of the child subtrees: e1 sends them
        # into the copies straight, e2 swapped
        fid = out.add(INTERNAL, None, parent, p, p)
        first = len(out.nodes)
        _overlay(out, None, None, None, ch[0], ch[1], fid)
        shift = len(out.nodes) - first
        for (kind, label, up), at in zip(out.nodes[first:], out.at[first:]):
            out.add(kind, label, fid if up == fid else up + shift, *at[::-1])

    walk((0, 0), None)
    doubled = out.finish()
    return (doubled, *out.legs(doubled, "doubled tree"))


def equalizer_of(e1: TreeEmbedding, e2: TreeEmbedding):
    """The subtree of the common domain where two parallel embeddings agree,
    with its inclusion."""
    if e1.dom != e2.dom or e1.cod != e2.cod:
        raise SiteError("equalizer needs a parallel pair")
    Y, out = e1.dom, _Builder()

    def walk(p, parent):
        ch = denoted_children(Y, p)
        t = None if ch is None else comb_view(Y, p)
        if t is not None and e1.route(t) == e2.route(t) \
                and e1.image(p) == e2.image(p):
            out.add(TAIL, Y.labels[t], parent, p, routes=(t,))
        elif ch is None or e1.image(ch[0]) != e2.image(ch[0]):
            out.add(LEAF, None, parent, p)
        else:
            fid = out.add(INTERNAL, None, parent, p)
            walk(ch[0], fid)
            walk(ch[1], fid)

    walk((0, 0), None)
    eq = out.finish()
    return eq, out.inclusion(eq, Y, 0)


def same_subtree(m1: TreeEmbedding, m2: TreeEmbedding) -> bool:
    """Whether two embeddings into the same tree have equal images: each
    factors through the other.  If m1 = w;m2 and m2 = w';m1, then
    m1 = w;w';m1, so w;w' = id as m1 is mono, and likewise w';w = id:
    w is an iso, and m1 = w;m2 has the image of m2.  Conversely, equal
    images of monos give each a factorisation through the other."""
    return factor(m1, m2) is not None and factor(m2, m1) is not None


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
    if not commutes(apex_in, u, apex_in, v):
        raise SiteError("the pair does not agree on the intersection")

    pre_x, pre_y = preimage_fn(ix), preimage_fn(iy)

    def in_l(za) -> bool:
        xp = pre_x(za)
        if xp is None or denoted_children(X, xp) is not None:
            return False
        return pre_y(za) is not None

    has_l: list[bool] = []  # whether an explicit node or its ancestor is in L
    for z, p in enumerate(Z.parents):
        has_l.append(in_l((0, z)) or (p is not None and has_l[p]))
    images = tuple(v.explicit_images[z] if has_l[z]
                   else u.explicit_images[z] for z in range(Z.n_nodes))
    targets: dict[int, int] = {}
    for t in Z.tail_ids:
        if has_l[t]:
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

    def factor(self, h: TreeEmbedding, m: TreeEmbedding):
        """w, read off the preimage of m: it exists exactly when the
        image of h lies in that of m and m routes a tail r onto every
        tail s that h routes a tail t to; w(x) = pre(h(x)) and w routes t
        to r.  w is an embedding: m sends the children of an internal
        node onto those of its image, no child of the image of a denoted
        leaf lies in the image of m, and m sends the branch of r, a path
        from the root, onto that of s, so w(t) lies on it."""
        pre = preimage_fn(m)
        images = [pre(a) for a in h.explicit_images]
        onto = {s: r for r, s, _e in m.tail_routes}
        targets = {t: onto.get(s) for t, s, _e in h.tail_routes}
        if None in images or None in targets.values():
            return None
        return make_embedding(h.dom, m.dom, images, targets)

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
        shared factors through a checker object.  A mono m: shared -> tgt
        is injective, so it routes distinct tails of shared to distinct
        tails of tgt; it leaves a tail of tgt free exactly when tgt has
        more tails.  Pairs m equalizes can follow a free tail's branch to
        any depth before they split, so then no finite pool covers them.
        Otherwise such a pair restricts to a tree with twice the tails of
        tgt and 2e-1 explicit nodes plus one divergence point per tail."""
        tails = len(tgt.tail_ids)
        return (len(shared.tail_ids) == tails and 2 * tails <= depth
                and 2 * tgt.n_nodes - 1 + tails <= 2 * depth + 3)

    def regular_mono(self, m: TreeEmbedding) -> tuple[bool, dict]:
        """The witness pair must have exactly the image of m as equalizer."""
        _doubled, e1, e2 = regular_mono_witness(m)
        if not commutes(m, e1, m, e2):
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
