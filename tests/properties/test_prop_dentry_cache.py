"""Property test: the dentry cache in ``VFS.resolve`` against an uncached walk.

Random scripts mutate a small tree under ``/w`` as root: mkdir, create,
relative and absolute symlinks (loops included), hard links, unlink,
rmdir, rename, chmod and chown of intermediate directories, plus world
snapshots, restores and forks.  Between mutations the script resolves
paths under several credentials, ``follow`` values and cwds, twice each
so both the miss and the hit path run; after every later step it
resolves each of them again, along with a few standing probes.  Every
resolve must agree with a fresh ``VFS._walk``: the same inode and
parent (numbers and live objects), name, ``dir_path`` and
``WalkStats``, or the same errno.  After every step, each entry left in
the cache (the syscalls' own resolves fill it too) must also equal a
fresh walk of its key, so an entry a step should have dropped is caught
even when no probe asks for it.
"""

from hypothesis import given, settings, strategies as st

from repro.kernel.errno import KernelError
from repro.kernel.fdtable import OpenFlags
from repro.kernel.machine import Machine
from repro.kernel.users import Credentials
from repro.kernel.vfs import WalkStats, join

# a small path space, so scripts keep revisiting the same entries: the
# names of the boot tree, "c" for names it lacks, and "." and ".."
components = st.sampled_from(["a", "b", "a", "b", "c", ".", ".."])
rel_paths = st.lists(components, min_size=1, max_size=3).map("/".join)
# two thirds of the absolute paths name a boot entry or a free slot
# beside one, where most mutations succeed
known = st.sampled_from(
    ["/w/a", "/w/b", "/w/c", "/w/a/a", "/w/a/b", "/w/a/c", "/w/a/a/b", "/w/a/a/c", "/w/c/a"]
)
abs_paths = st.one_of(known, known, rel_paths.map(lambda rel: "/w/" + rel))
any_paths = st.one_of(abs_paths, rel_paths, st.sampled_from(["/", "/w", "/w/"]))
targets = st.one_of(abs_paths, rel_paths)

# the boot tree's non-directories, and the directories a walk crosses
files = st.sampled_from(["/w/b", "/w/a/b", "/w/a/a/b"])
dirs = st.sampled_from(["/w", "/w/a", "/w/a/a", "/w/c"])

mkdir = st.tuples(st.just("mkdir"), st.one_of(dirs, abs_paths))
create = st.tuples(st.just("create"), abs_paths)
symlink = st.tuples(st.just("symlink"), targets, abs_paths)
link = st.tuples(st.just("link"), st.one_of(files, abs_paths), abs_paths)
rename = st.tuples(st.just("rename"), abs_paths, abs_paths)
unlink = st.tuples(st.just("unlink"), st.one_of(files, abs_paths))
rmdir = st.tuples(st.just("rmdir"), st.one_of(dirs, abs_paths))
chmod = st.tuples(st.just("chmod"), dirs, st.sampled_from([0o000, 0o700, 0o711, 0o755]))
chown = st.tuples(st.just("chown"), dirs, st.sampled_from(["root", "alice", "bob"]))
world = st.tuples(st.sampled_from(["snapshot", "restore", "fork"]))
resolve = st.tuples(
    st.just("resolve"),
    any_paths,
    st.sampled_from([None, "root", "alice", "bob"]),
    st.booleans(),  # follow
    st.booleans(),  # check_traverse
    st.sampled_from(["/", "/w", "/w/a", "/w/a/b"]),
)
steps = st.lists(
    st.one_of(
        mkdir, create, symlink, link, rename, unlink, rmdir, chmod, chown, world, resolve
    ),
    min_size=10,
    max_size=40,
)


#: resolved after every step whatever the script asks, so the cache
#: always holds traversals by each user through the boot tree and
#: through the free slot ``/w/c``
STANDING_PROBES = [
    ("/w/a/a/b", "alice", True, True, "/"),
    ("a/b", "bob", False, True, "/w/a"),
    ("/w/c/a", "alice", False, True, "/"),
    ("../c", None, True, True, "/w/a"),
]


def outcome(resolve_fn):
    """A comparable summary of one resolution (or its errno), and the
    inode objects it returned."""
    try:
        node, parent, name, dir_path, stats = resolve_fn()
    except KernelError as exc:
        return ("error", exc.errno), None
    summary = (None if node is None else node.ino, parent.ino, name, dir_path, stats)
    return summary, (node, parent)


def check_resolve(machine, path, who, follow, check_traverse, cwd):
    vfs = machine.vfs
    cred = None if who is None else machine.users.credentials_for(who)

    def cached():
        res = vfs.resolve(path, cred, cwd=cwd, follow=follow, check_traverse=check_traverse)
        return res.inode, res.parent, res.name, res.dir_path, res.stats

    def walked():
        stats = WalkStats()
        full = path if path.startswith("/") else join(cwd, path)
        found = vfs._walk(full, cred, follow, check_traverse, stats, 0)
        return (*found, stats)

    expected, expected_nodes = outcome(walked)
    for _ in range(2):  # a miss that fills the cache, then a hit
        got, nodes = outcome(cached)
        assert got == expected, (path, who, follow, check_traverse, cwd)
        if nodes is not None:
            # the live inode objects, not stale pre-CoW copies
            assert nodes[0] is expected_nodes[0] and nodes[1] is expected_nodes[1]


def check_cache(machine):
    """Every cached entry equals a fresh walk of its key."""
    vfs = machine.vfs
    for (full, follow, ids), cached in list(machine.fs.dentries.items()):
        cred = None if ids is None else Credentials(ids[0], ids[1], "probe")
        stats = WalkStats()
        node, parent, name, dir_path = vfs._walk(full, cred, follow, True, stats, 0)
        walked = (
            None if node is None else node.ino,
            parent.ino,
            name,
            dir_path,
            stats.components,
            stats.symlinks,
        )
        assert cached == walked, (full, follow, ids)


def boot():
    """A world whose ``/w`` already holds directories, files and a
    symlink, so most scripted mutations land on something."""
    machine = Machine()
    for name in ("alice", "bob"):
        machine.add_user(name)
    root = machine.host_task(machine.users.credentials_for("root"))
    for path in ("/w", "/w/a", "/w/a/a"):
        machine.kcall_x(root, "mkdir", path, 0o755)
    for path in ("/w/b", "/w/a/b"):
        machine.write_file(root, path, b"x")
    machine.kcall_x(root, "symlink", "../b", "/w/a/a/b")
    # only alice may cross /w/a, until a chown or chmod says otherwise
    alice = machine.users.credentials_for("alice")
    machine.kcall_x(root, "chown", "/w/a", alice.uid, alice.gid)
    machine.kcall_x(root, "chmod", "/w/a", 0o700)
    return machine


@settings(max_examples=100, deadline=None)
@given(steps)
def test_cached_resolve_matches_an_uncached_walk(script):
    machine = boot()
    snaps = []
    probes = []  # every resolve so far, re-checked after each later step
    for step in script:
        kind = step[0]
        # a fresh task per step: restores invalidate older descriptor tables
        root = machine.host_task(machine.users.credentials_for("root"))
        if kind == "resolve":
            if step[1:] not in probes:
                probes.append(step[1:])
            check_resolve(machine, *step[1:])
            continue
        if kind == "create":
            fd = machine.kcall(root, "open", step[1], OpenFlags.O_WRONLY | OpenFlags.O_CREAT)
            if fd >= 0:
                machine.kcall_x(root, "close", fd)
        elif kind == "mkdir":
            machine.kcall(root, "mkdir", step[1], 0o755)
        elif kind == "symlink":
            machine.kcall(root, "symlink", step[1], step[2])
        elif kind in ("link", "rename"):
            machine.kcall(root, kind, step[1], step[2])
        elif kind in ("unlink", "rmdir"):
            machine.kcall(root, kind, step[1])
        elif kind == "chmod":
            machine.kcall(root, "chmod", step[1], step[2])
        elif kind == "chown":
            cred = machine.users.credentials_for(step[2])
            machine.kcall(root, "chown", step[1], cred.uid, cred.gid)
        elif kind == "snapshot":
            snaps.append(machine.snapshot())
        elif kind == "restore" and snaps:
            machine.restore(snaps[-1])
        elif kind == "fork":
            machine = machine.fork(snaps[-1] if snaps else None)
        check_cache(machine)
        for probe in probes + STANDING_PROBES:
            check_resolve(machine, *probe)
    machine.fs.check_invariants()
