"""Path resolution: walking, symlinks, traversal permission, helpers."""

import pytest

from repro.kernel.errno import Errno, KernelError
from repro.kernel.localfs import LocalFS
from repro.kernel.users import Credentials
from repro.kernel.vfs import (
    DENTRY_CACHE_LIMIT,
    VFS,
    basename,
    dirname,
    join,
    normalize,
    split_path,
)


@pytest.fixture
def fs():
    return LocalFS()


@pytest.fixture
def vfs(fs):
    v = VFS(fs)
    a = fs.mkdir(fs.root, "a", 1, 1)
    b = fs.mkdir(a, "b", 1, 1)
    fs.create_file(b, "f.txt", 1, 1)
    return v


# -- pure path helpers ------------------------------------------------------ #


def test_split_path_collapses_slashes():
    assert split_path("//a///b/") == ["a", "b"]
    assert split_path("/") == []


def test_normalize_dots():
    assert normalize("/a/./b/../c") == "/a/c"
    assert normalize("/../..") == "/"
    assert normalize("/a/b/c/../../..") == "/"


def test_join_absolute_resets():
    assert join("/a", "b") == "/a/b"
    assert join("/a", "/b") == "/b"
    assert join("/", "x") == "/x"


def test_dirname_basename():
    assert dirname("/a/b/c") == "/a/b"
    assert basename("/a/b/c") == "c"
    assert dirname("/x") == "/"
    assert basename("/") == ""


# -- resolution ------------------------------------------------------------ #


def test_resolve_existing_file(vfs):
    res = vfs.resolve("/a/b/f.txt")
    assert res.exists
    assert res.name == "f.txt"
    assert res.dir_path == "/a/b"
    assert res.require().is_file


def test_resolve_missing_final_component(vfs):
    res = vfs.resolve("/a/b/new.txt")
    assert not res.exists
    assert res.parent.is_dir
    assert res.name == "new.txt"
    with pytest.raises(KernelError) as info:
        res.require()
    assert info.value.errno is Errno.ENOENT


def test_resolve_missing_intermediate_raises(vfs):
    with pytest.raises(KernelError) as info:
        vfs.resolve("/a/ghost/f.txt")
    assert info.value.errno is Errno.ENOENT


def test_resolve_relative_to_cwd(vfs):
    res = vfs.resolve("b/f.txt", cwd="/a")
    assert res.exists
    assert res.dir_path == "/a/b"


def test_resolve_dotdot(vfs):
    res = vfs.resolve("/a/b/../b/f.txt")
    assert res.exists


def test_resolve_file_as_intermediate_is_enotdir(vfs):
    with pytest.raises(KernelError) as info:
        vfs.resolve("/a/b/f.txt/deeper")
    assert info.value.errno is Errno.ENOTDIR


def test_resolve_root(vfs):
    res = vfs.resolve("/")
    assert res.exists
    assert res.require().ino == 1


def test_walk_stats_count_components(vfs):
    res = vfs.resolve("/a/b/f.txt")
    assert res.stats.components == 3


# -- symlinks ------------------------------------------------------------ #


def test_follow_relative_symlink(vfs, fs):
    a = fs.lookup(fs.root, "a")
    fs.symlink(a, "link", "b/f.txt", 1, 1)
    res = vfs.resolve("/a/link")
    assert res.exists
    assert res.require().is_file
    assert res.dir_path == "/a/b"  # the *target's* directory


def test_follow_absolute_symlink(vfs, fs):
    a = fs.lookup(fs.root, "a")
    fs.symlink(a, "abs", "/a/b/f.txt", 1, 1)
    res = vfs.resolve("/a/abs")
    assert res.exists
    assert res.dir_path == "/a/b"


def test_nofollow_stops_at_link(vfs, fs):
    a = fs.lookup(fs.root, "a")
    fs.symlink(a, "link", "b/f.txt", 1, 1)
    res = vfs.resolve("/a/link", follow=False)
    assert res.require().is_symlink


def test_intermediate_symlink_always_followed(vfs, fs):
    fs.symlink(fs.root, "toa", "a", 1, 1)
    res = vfs.resolve("/toa/b/f.txt", follow=False)
    assert res.require().is_file


def test_symlink_loop_is_eloop(vfs, fs):
    fs.symlink(fs.root, "s1", "s2", 1, 1)
    fs.symlink(fs.root, "s2", "s1", 1, 1)
    with pytest.raises(KernelError) as info:
        vfs.resolve("/s1")
    assert info.value.errno is Errno.ELOOP


def test_dangling_symlink_resolves_to_missing(vfs, fs):
    fs.symlink(fs.root, "dead", "nowhere", 1, 1)
    res = vfs.resolve("/dead")
    assert not res.exists


def test_symlink_count_in_stats(vfs, fs):
    a = fs.lookup(fs.root, "a")
    fs.symlink(a, "link", "b/f.txt", 1, 1)
    res = vfs.resolve("/a/link")
    assert res.stats.symlinks == 1


# -- traversal permissions ---------------------------------------------------- #


def test_traverse_requires_execute(vfs, fs):
    a = fs.lookup(fs.root, "a")
    a.mode = 0o600  # no execute bit
    cred = Credentials(uid=1, gid=1, username="u")
    with pytest.raises(KernelError) as info:
        vfs.resolve("/a/b/f.txt", cred)
    assert info.value.errno is Errno.EACCES


def test_traverse_allowed_with_execute(vfs, fs):
    cred = Credentials(uid=1, gid=1, username="u")
    assert vfs.resolve("/a/b/f.txt", cred).exists


def test_traverse_check_skippable(vfs, fs):
    a = fs.lookup(fs.root, "a")
    a.mode = 0o000
    cred = Credentials(uid=1, gid=1, username="u")
    res = vfs.resolve("/a/b/f.txt", cred, check_traverse=False)
    assert res.exists


def test_realpath(vfs, fs):
    fs.symlink(fs.root, "toa", "a", 1, 1)
    assert vfs.realpath("/toa/b/f.txt") == "/a/b/f.txt"
    assert vfs.realpath("/") == "/"


def test_empty_path_is_enoent(vfs):
    with pytest.raises(KernelError) as info:
        vfs.resolve("")
    assert info.value.errno is Errno.ENOENT


# -- the dentry cache --------------------------------------------------------- #


def test_a_hit_returns_the_walks_result_with_its_own_stats(vfs, fs):
    first = vfs.resolve("/a/b/f.txt")
    assert len(fs.dentries) == 1
    again = vfs.resolve("/a/b/f.txt")
    assert (again.inode, again.parent, again.name, again.dir_path) == (
        first.inode,
        first.parent,
        first.name,
        first.dir_path,
    )
    assert again.stats == first.stats
    assert again.stats is not first.stats  # every caller charges its own walk


def test_chmod_of_a_parent_turns_a_cached_traverse_into_eacces(vfs, fs):
    cred = Credentials(uid=1, gid=1, username="u")
    assert vfs.resolve("/a/b/f.txt", cred).exists
    fs.set_mode(fs.lookup(fs.root, "a"), 0o000)
    with pytest.raises(KernelError) as info:
        vfs.resolve("/a/b/f.txt", cred)
    assert info.value.errno is Errno.EACCES
    # the error was not cached: granting execute again lets the walk through
    fs.set_mode(fs.lookup(fs.root, "a"), 0o711)
    assert vfs.resolve("/a/b/f.txt", cred).exists


def test_errors_are_never_cached(vfs, fs):
    with pytest.raises(KernelError):
        vfs.resolve("/a/x/y")
    assert not fs.dentries
    fs.mkdir(fs.lookup(fs.root, "a"), "x", 1, 1)
    assert not vfs.resolve("/a/x/y").exists


def test_a_hit_returns_the_live_inode_after_copy_on_write(machine, root_task):
    before = machine.vfs.resolve("/etc/passwd").inode
    machine.snapshot()
    machine.write_file(root_task, "/etc/passwd", b"x")  # clones the inode
    after = machine.vfs.resolve("/etc/passwd").inode
    assert after is not before
    assert after is machine.fs.current(before)
    assert after.size == 1


def test_restore_and_fork_start_with_an_empty_dentry_cache(machine):
    snap = machine.snapshot()
    machine.vfs.resolve("/etc/passwd")
    assert machine.fs.dentries
    assert not machine.fork(snap).fs.dentries
    machine.restore(snap)
    assert not machine.fs.dentries


def test_a_full_cache_is_cleared_and_refilled(vfs, fs):
    for i in range(DENTRY_CACHE_LIMIT):
        vfs.resolve(f"/a/n{i}")
    assert len(fs.dentries) == DENTRY_CACHE_LIMIT
    res = vfs.resolve("/a/b/f.txt")
    assert len(fs.dentries) == 1
    assert vfs.resolve("/a/b/f.txt").inode is res.inode
