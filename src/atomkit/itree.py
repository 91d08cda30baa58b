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

from typing import Callable, NamedTuple

from .core import (Cocone, PullbackSquare, SiteError, Value, commutes,
                   compose, factor, inline_cached_property, is_int,
                   object_key, register_backend)

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

    Equality compares kinds, children and labels only; finish also passes
    the per-tree indices, fields that equality ignores:

        parents   the parent id of each node, None at the root
        tail_ids  the ids of the tail markers, ascending
        key       the object_key string

    The tables paths, child_addrs, comb_tails, label_sets and
    comb_layouts are computed on first use instead: most trees an audit
    builds are amalgams, which at most the commutation check queries.
    """

    _fields = ("kinds", "children", "labels", "parents", "tail_ids", "key")
    _compare = ("kinds", "children", "labels")
    site = "itree"

    @property
    def n_nodes(self) -> int:
        return len(self.kinds)

    @inline_cached_property
    def paths(self) -> dict[int, tuple[int, ...]]:
        """Tail id -> explicit ids from the root down to the tail."""
        parents, paths = self.parents, {}
        for t in self.tail_ids:
            path, p = [t], parents[t]
            while p is not None:
                path.append(p)
                p = parents[p]
            paths[t] = tuple(path[::-1])
        return paths

    @inline_cached_property
    def child_addrs(self) -> tuple:
        """Per explicit node, what denoted_children returns there."""
        return tuple([((0, ch[0]), (0, ch[1])) if kind == INTERNAL
                      else ((1, i, 1, 0), (1, i, 1, 1)) if kind == TAIL
                      else None
                      for i, (kind, ch) in enumerate(zip(self.kinds,
                                                         self.children))])

    @inline_cached_property
    def comb_tails(self) -> tuple[int | None, ...]:
        """Per explicit node, what comb_view returns there."""
        return self._subtree_tables()[0]

    @inline_cached_property
    def label_sets(self) -> tuple[frozenset[str], ...]:
        """Per explicit node, the labels of the tails below it."""
        return self._subtree_tables()[1]

    @inline_cached_property
    def comb_layouts(self) -> tuple:
        """Per explicit node that comb_view names a tail at, the explicit
        nodes of that comb as (node id, depth below it, side) triples,
        side 0 on the branch; None at every other node."""
        kinds, children, combs = self.kinds, self.children, self.comb_tails
        layouts: list = [None] * len(kinds)
        for nid in range(len(kinds)):
            if combs[nid] is None:
                continue
            out, cur, rel = [(nid, 0, 0)], nid, 0
            while kinds[cur] == INTERNAL:
                cont, off = children[cur]
                if combs[cont] is None:
                    cont, off = off, cont
                rel += 1
                out += ((cont, rel, 0), (off, rel, 1))
                cur = cont
            layouts[nid] = tuple(out)
        return tuple(layouts)

    def _subtree_tables(self) -> tuple[tuple, tuple]:
        """Both subtree tables, filled bottom-up in one reverse-preorder
        loop (preorder numbers every child after its parent); the first
        of the two properties read stores both, as inline_cached_property
        stores."""
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
        object.__setattr__(self, "comb_tails", tables[0])
        object.__setattr__(self, "label_sets", tables[1])
        return tables


class TreeStats(NamedTuple):
    branch_count: int
    f_count: int


# ---------------------------------------------------------------------------
# the preorder builder: the one way a tree value is made

class _Builder:
    """A tree emitted one node at a time in preorder, parent and then left
    child first, so a node's id is the count of nodes before it.  add
    takes its kind, label and parent id, its position in each host (None
    where it has none) and, on a tail, the host tail each inclusion
    routes it along; kinds, labels, parents and at hold them, one list
    per column.  Meanwhile images[k] and tails[k] record where the
    explicit nodes and tails of hosts[k] land, written by add and by
    _overlay as they emit (see _overlay for why not by legs).  A tail
    emitted at a host comb stands for the whole comb: its nodes come from
    the host's comb_layouts table.  So the legs out of the hosts and the
    inclusions into them are complete when the walk returns.  finish,
    which reads the columns, is the only place a FinitaryTree is built."""

    def __init__(self, *hosts: FinitaryTree):
        self.kinds, self.labels, self.parents, self.at = [], [], [], []
        self.routes, self.hosts = {}, hosts
        self.images = [[None] * len(h.kinds) for h in hosts]
        self.tails: list[dict[int, int]] = [{} for _h in hosts]

    def add(self, kind: str, label, parent, *at, routes=None) -> int:
        fid = len(self.kinds)
        self.kinds.append(kind)
        self.labels.append(label)
        self.parents.append(parent)
        self.at.append(at)
        if routes is not None:
            self.routes[fid] = routes
        for host, imgs, tails, pos in zip(self.hosts, self.images,
                                          self.tails, at):
            t = None if pos is None or kind != TAIL else comb_view(host, pos)
            if t is not None:
                tails[t] = fid
                if pos[0] == 0:
                    for nid, rel, side in host.comb_layouts[pos[1]]:
                        imgs[nid] = (1, fid, rel, side) if rel else (0, fid)
            elif pos is not None and pos[0] == 0:
                imgs[pos[1]] = (0, fid)
        return fid

    def finish(self) -> FinitaryTree:
        """The tree and its indices: one pass back over the columns pairs
        the children, builds the keys and lists the tails."""
        kinds, labels, parents = self.kinds, self.labels, self.parents
        children: list = [None] * len(kinds)
        keys = children[:]
        tails = []
        for i in range(len(kinds) - 1, -1, -1):
            kind, p = kinds[i], parents[i]
            if kind == INTERNAL:
                a, b = children[i]
                keys[i] = f"({keys[a]} {keys[b]})"
            elif kind == LEAF:
                keys[i] = "L"
            else:
                keys[i] = f"T({labels[i]})"
                tails.append(i)
            if p is not None and p != i - 1:  # a left child follows its parent
                children[p] = (p + 1, i)
        return FinitaryTree(tuple(kinds), tuple(children), tuple(labels),
                            tuple(parents), tuple(tails[::-1]), keys[0])

    def legs(self, tree: FinitaryTree, what: str) -> list[TreeEmbedding]:
        """The embedding of each host into the finished tree, read off
        images and tails."""
        legs = []
        for host, imgs, tails in zip(self.hosts, self.images, self.tails):
            if None in imgs:
                raise SiteError("%s failed to place every node" % what)
            legs.append(make_embedding(host, tree, imgs, tails))
        return legs

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
    """Branch count and count of nodes under an off-branch parent: the rank."""
    branches = len(tree.tail_ids)
    below = tree.label_sets  # a node lies on a branch when a tail is below
    f_count = 0
    for i, p in enumerate(tree.parents):
        if not below[i if p is None else p]:
            f_count += 1
    return TreeStats(branches, f_count)


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

    @inline_cached_property
    def key(self) -> str:
        """The morphism_key string."""
        imgs = ";".join("%d:%s" % (i, ",".join(map(str, a)))
                        for i, a in enumerate(self.explicit_images))
        routes = ";".join("%d>%d" % (t, s) for t, s, _e in self.tail_routes)
        return "%s>%s:%s|%s" % (self.dom.key, self.cod.key, imgs, routes)

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
    return TreeEmbedding(dom, cod, tuple(images), tuple([
        (t, route_targets[t], img[2] if (img := images[t])[0] == 1 else 0)
        for t in dom.tail_ids]))


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
    and emits every node inline, the hot path of add, recording where the
    hosts land from the comb tails ta and tb it already holds; recording
    it in one pass over the columns in legs instead, with add's copy
    gone, made audit_c1("itree", 2) 5-12% slower on CPython 3.11.7 (best
    of 15 calls, 2 cores).  It reads the child_addrs and comb_tails
    tables of the hosts and the apex, the hosts' comb_layouts and the
    legs' explicit images; only at a continuation address does it call
    denoted_children or image.
    """
    A, B = out.hosts
    X = None if f is None else f.dom
    kinds, labels, parents, ats = out.kinds, out.labels, out.parents, out.at
    (ia, ib), (sa, sb) = out.images, out.tails
    cha, chb, cta, ctb = A.child_addrs, B.child_addrs, A.comb_tails, B.comb_tails
    chx, ctx, fi, gi = (None,) * 4 if f is None else (
        X.child_addrs, X.comb_tails, f.explicit_images, g.explicit_images)
    todo = [(x, a, b, parent)]
    while todo:
        x, a, b, parent = todo.pop()
        fid, label = len(kinds), None
        # denoted_children and comb_view at a and b; a continuation
        # address with children lies on its tail's branch
        da = None if a is None else cha[a[1]] if a[0] == 0 \
            else denoted_children(A, a)
        db = None if b is None else chb[b[1]] if b[0] == 0 \
            else denoted_children(B, b)
        ta = None if da is None else cta[a[1]] if a[0] == 0 else a[1]
        tb = None if db is None else ctb[b[1]] if b[0] == 0 else b[1]
        if da is None or db is None:
            kind = LEAF
            if da is not None or db is not None:  # carve the other side
                t, host = (ta, A) if db is None else (tb, B)
                if t is not None:
                    kind, label = TAIL, host.labels[t]
                else:
                    kind, (c1, c2) = INTERNAL, da or db
                    todo += (((None, c2, None, fid), (None, c1, None, fid))
                             if db is None else
                             ((None, None, c2, fid), (None, None, c1, fid)))
        else:
            combs = ta is not None and tb is not None
            dx = None if x is None else chx[x[1]] if x[0] == 0 \
                else denoted_children(X, x)
            kind = INTERNAL
            if dx is not None:
                # merge combs only where the apex continues as a comb too,
                # so that both routes follow one identified branch
                if combs and (x[0] == 1 or ctx[x[1]] is not None):
                    kind, label = TAIL, A.labels[ta]
                else:
                    x1, x2 = dx
                    todo += (((x2, fi[x2[1]], gi[x2[1]], fid),
                              (x1, fi[x1[1]], gi[x1[1]], fid)) if x1[0] == 0 else
                             ((x2, f.image(x2), g.image(x2), fid),
                              (x1, f.image(x1), g.image(x1), fid)))
            elif combs:
                if A.labels[ta] == B.labels[tb]:
                    kind, label = TAIL, A.labels[ta]
                else:
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
        kinds.append(kind)
        labels.append(label)
        parents.append(parent)
        ats.append((a, b))
        # where the hosts land: a tail at a comb stands for the whole comb
        if kind == TAIL and ta is not None:
            sa[ta] = fid
            if a[0] == 0:
                for nid, rel, side in A.comb_layouts[a[1]]:
                    ia[nid] = (1, fid, rel, side) if rel else (0, fid)
        elif a is not None and a[0] == 0:
            ia[a[1]] = (0, fid)
        if kind == TAIL and tb is not None:
            sb[tb] = fid
            if b[0] == 0:
                for nid, rel, side in B.comb_layouts[b[1]]:
                    ib[nid] = (1, fid, rel, side) if rel else (0, fid)
        elif b is not None and b[0] == 0:
            ib[b[1]] = (0, fid)


def tree_amalgamate(f: TreeEmbedding, g: TreeEmbedding) -> Cocone:
    """A small deterministic cocone over the span (f, g); see _overlay."""
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
    out = _Builder(Y, Y)  # where e1 and e2 send the nodes of Y

    def walk(xp, p, parent):
        """Emit the nodes below p, whose preimage is xp: emb sends the
        children of xp onto those of p, one of the two pairings."""
        ch = denoted_children(Y, p)
        if ch is None:
            return out.add(LEAF, None, parent, p, p)
        xc = denoted_children(X, xp)
        if xc is not None:
            # swallow a comb only where the source covers it cofinally,
            # i.e. keeps routing a tail along this branch
            t = comb_view(Y, p)
            if t is not None and comb_view(X, xp) is not None:
                return out.add(TAIL, Y.labels[t], parent, p, p)
            fid = out.add(INTERNAL, None, parent, p, p)
            if emb.image(xc[0]) != ch[0]:
                xc = xc[::-1]
            walk(xc[0], ch[0], fid)
            return walk(xc[1], ch[1], fid)
        # two copies of the overlay of the child subtrees: e1 sends them
        # into the copies straight, e2 swapped
        fid = out.add(INTERNAL, None, parent, p, p)
        first = len(out.kinds)
        _overlay(out, None, None, None, ch[0], ch[1], fid)
        end = len(out.kinds)
        for i in range(first, end):
            up = out.parents[i]
            out.add(out.kinds[i], out.labels[i],
                    fid if up == fid else up + end - first, *out.at[i][::-1])

    walk((0, 0), (0, 0), None)
    doubled = out.finish()
    return (doubled, *out.legs(doubled, "doubled tree"))


def equalizer_of(e1: TreeEmbedding, e2: TreeEmbedding):
    """The subtree of the common domain where two parallel embeddings agree,
    with its inclusion.  The walk descends only below nodes where the pair
    agrees: both send the root to the root, and where they agree on a node
    and on one of its children they agree on the other, as each sends the
    two onto the children of the common image."""
    if e1.dom != e2.dom or e1.cod != e2.cod:
        raise SiteError("equalizer needs a parallel pair")
    Y, out = e1.dom, _Builder()

    def walk(p, parent):
        ch = denoted_children(Y, p)
        t = None if ch is None else comb_view(Y, p)
        if t is not None and e1.route(t) == e2.route(t):
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
    """All canonical trees within the bounds, over the given label set, by
    size and then by canonical key: above size 1, each node over two
    smaller ones that _nest keeps internal, once per key."""
    alphabet = tuple(sorted(set(labels)))
    by_size: dict[int, list] = {}  # size -> [(nested tree, its tails)]
    trees = []
    for size in range(1, max_explicit + 1, 2):
        if size == 1:
            made = [(_nest(LEAF, None), 0)] + [(_nest(TAIL, lab), 1)
                                              for lab in alphabet]
        else:
            made = [(_nest(INTERNAL, None, (a, b)), ta + tb)
                    for na in range(1, size - 1, 2) for a, ta in by_size[na]
                    for b, tb in by_size[size - 1 - na]]
        kept = {nested[0]: (nested, tails) for nested, tails in made
                if tails <= max_tails and (size == 1 or nested[1] == INTERNAL)}
        by_size[size] = [kept[key] for key in sorted(kept)]
        for nested, _tails in by_size[size]:
            builder = _Builder()
            _replay(builder, nested)
            trees.append(builder.finish())
    return trees


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

    def rank(self, obj: FinitaryTree) -> tuple:
        return tuple(tree_stats(obj))

    def pullback(self, f: TreeEmbedding, g: TreeEmbedding) -> PullbackSquare:
        return tree_pullback(f, g)

    def amalgamate(self, f: TreeEmbedding, g: TreeEmbedding) -> Cocone:
        return tree_amalgamate(f, g)

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
