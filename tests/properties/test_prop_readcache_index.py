"""Property test: the ReadCache invalidation index against a reference scan.

The cache finds the entries a mutation invalidates through a trie of path
components and an inode map.  This test drives it with random fills, LRU
evictions, mutations (failing ones included), descriptor writes, flushes
and epoch changes, while a model replays every step with a linear scan
over the live keys using the reference relation ``_paths_related``.  After
each step the cache must hold exactly the model's keys in the model's LRU
order, must have counted the same invalidations, and its index must hold
exactly the live keys with no orphan nodes.
"""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.core.ops import PathArg
from repro.core.pipeline import BoundPath, Operation, ReadCache, _paths_related
from repro.kernel.errno import Errno, KernelError
from tests.helpers import assert_cache_index_consistent

CAPACITY = 6

# components joined on "/": "" components give the absolute, root,
# doubled-slash and trailing-slash shapes; "b" and "bb" are sibling
# prefixes of each other as strings
paths = st.one_of(
    st.lists(st.sampled_from(["", "a", "b", "bb"]), max_size=4).map("/".join),
    st.sampled_from(["/", "", "/a/", "//", "/a/b", "/a/bb"]),
)
inodes = st.one_of(st.none(), st.integers(0, 3))

fill = st.tuples(
    st.just("fill"),
    st.sampled_from(["fred", "wilma"]),
    st.sampled_from(["stat", "getacl", "pair"]),  # "pair" keys carry two paths
    st.lists(paths, min_size=2, max_size=2),
    inodes,
)
mutate = st.tuples(
    st.just("mutate"),
    st.sampled_from(["unlink", "rename", "setacl"]),
    st.lists(paths, min_size=1, max_size=2),
    paths,  # the governing directory a setacl resolved
    st.booleans(),  # the handler fails after partially applying
)
fdwrite = st.tuples(st.just("fdwrite"), st.one_of(st.none(), paths), inodes)
steps = st.lists(
    st.one_of(fill, mutate, fdwrite, st.just(("flush",)), st.just(("epoch",))),
    max_size=40,
)


def bind(name, subs, identity="fred"):
    op = Operation(name=name, surface="test", identity=identity)
    for i, sub in enumerate(subs):
        field = f"p{i}"
        op.args[field] = sub
        op.paths.append(BoundPath(spec=PathArg(field), raw=sub, full=sub, sub=sub))
    return op


class Model:
    """The cache's contents, invalidated by scanning every live key."""

    def __init__(self):
        self.live: "OrderedDict[tuple, int | None]" = OrderedDict()
        self.invalidations = 0

    def fill(self, key, ino):
        if key in self.live:
            self.live.move_to_end(key)
            return
        self.live[key] = ino
        while len(self.live) > CAPACITY:
            self.live.popitem(last=False)

    def invalidate(self, mutated, hinted_ino):
        doomed = {
            key
            for key in self.live
            if any(_paths_related(c, m) for c in key[2] for m in mutated)
        }
        carried = {self.live[key] for key in doomed} | {hinted_ino}
        doomed |= {key for key, ino in self.live.items() if ino is not None and ino in carried}
        for key in doomed:
            del self.live[key]
        self.invalidations += len(doomed)

    def flush(self):
        self.invalidations += len(self.live)
        self.live.clear()


@settings(max_examples=300, deadline=None)
@given(steps)
def test_index_drops_exactly_what_the_reference_scan_drops(script):
    epoch = [0]
    cache = ReadCache(
        frozenset({"stat", "getacl", "pair"}),
        capacity=CAPACITY,
        epoch_source=lambda: epoch[0],
    )
    model = Model()
    for step in script:
        kind = step[0]
        if kind == "fill":
            _, identity, name, subs, ino = step
            op = bind(name, subs if name == "pair" else subs[:1], identity)
            if ino is not None:
                op.scratch["fastlane_ino"] = ino
            cache(op, None, lambda: {"v": 1})
            model.fill((identity, name, tuple(b.sub for b in op.paths), ()), ino)
        elif kind == "mutate":
            _, name, subs, acl_dir, fails = step
            op = bind(name, subs)
            mutated = list(subs)
            if name == "setacl":
                op.scratch["acl_dir"] = acl_dir
                mutated.append(acl_dir)

            def handler():
                if fails:
                    raise KernelError(Errno.EIO, "applied in part")
                return {}

            try:
                cache(op, None, handler)
            except KernelError:
                assert fails
            model.invalidate(mutated, None)
        elif kind == "fdwrite":
            _, hint, ino = step
            op = Operation(name="pwrite", surface="test", identity="fred", args={"fd": 3})
            op.scratch.update(fastlane_paths=[hint], fastlane_ino=ino)
            cache(op, None, lambda: {"count": 1})
            if hint is None:  # the surface lost the descriptor's path
                model.flush()
            else:
                model.invalidate([hint], ino)
        elif kind == "flush":  # what repair_shard does below the pipeline
            cache.invalidate_all()
            model.flush()
        else:  # a world restore: the next op through the cache flushes
            epoch[0] += 1
            cache(Operation(name="whoami", surface="test", identity="fred"), None, dict)
            model.flush()
        assert list(cache._entries) == list(model.live)
        assert cache.invalidations == model.invalidations
        assert_cache_index_consistent(cache)
