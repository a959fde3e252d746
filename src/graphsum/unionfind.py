"""Disjoint-set forest with path compression and union by size."""

from __future__ import annotations


class UnionFind:
    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        # path compression
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b. Returns False if they were already together."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True

    def __len__(self) -> int:
        return len(self.parent)

    def labels(self) -> list[int]:
        """Dense set labels, numbered by first appearance over nodes 0..n-1."""
        out = []
        relabel: dict[int, int] = {}
        for x in range(len(self.parent)):
            r = self.find(x)
            if r not in relabel:
                relabel[r] = len(relabel)
            out.append(relabel[r])
        return out
