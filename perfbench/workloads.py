"""The benchmark's four workloads: seeded plans, worlds, timed loops, oracles.

Every workload is a closed loop on one thread.  A *job* is the unit the
loop runs and times:

* ``box_make`` / ``box_science``: one boxed program run on a fork of a
  prepared world; its ops are the syscalls the supervisor traps.
* ``chirp_read``: one turn of one principal, :data:`TURN_OPS` client calls
  in a row; the two principals alternate.
* ``fed_write``: the lifecycle of one job directory, mkdir to rmdir.

Plans are generated from the seed alone, together with the generator's
own model of what each op must return; the program only ever sees the
generated inputs, and the oracle compares its answers with the model.
"""

from __future__ import annotations

import hashlib
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, count, islice
from random import Random
from typing import Any, Callable, Iterator

from repro.chirp import (
    ChirpClient,
    ChirpError,
    ChirpServer,
    FederatedClient,
    GlobusAuthenticator,
    ServerAuth,
    deploy_federation,
)
from repro.core import Acl, ReadCache, Rights
from repro.core.box import IdentityBox
from repro.gsi import CertificateAuthority, CredentialStore, provision_user
from repro.kernel.errno import Errno
from repro.kernel.machine import Machine
from repro.kernel.process import RequestKind
from repro.kernel.vfs import join
from repro.net import Cluster
from repro.workloads import (
    BLOCK,
    BOX_IDENTITY,
    INPUT_FILE,
    MAKE,
    META_FILES,
    META_PREFIX,
    OUTPUT_FILE,
    SCIENCE_APPS,
    TINY,
    AppProfile,
    app_body,
    child_body,
)

from cdf import table

perf_ns = time.perf_counter_ns

#: The ``Clock.snapshot()`` categories reported per op.
SIM_CATEGORIES = ("trap", "switch", "trace", "vfs", "fd", "io", "net", "proc")


# --------------------------------------------------------------------- #
# what one pass measured
# --------------------------------------------------------------------- #


@dataclass
class Pass:
    """Everything one pass over a workload's plan measured."""

    jobs: int = 0
    ops: int = 0
    failed: int = 0
    #: failed ops the oracle attributes to a documented program defect
    known_defects: int = 0
    unexpected: list[str] = field(default_factory=list)
    op_ns: list[int] = field(default_factory=list)
    job_ns: list[int] = field(default_factory=list)
    #: time spent inside the program (the jobs' timed regions)
    busy_ns: int = 0
    #: the traced window: busy time plus untimed scaffolding such as
    #: forking a world, but never oracle checks
    window_ns: int = 0
    #: syscalls the profiles predict for spawned children
    child_ops: int = 0
    sim_ns: int = 0
    sim_charges: dict[str, int] = field(default_factory=dict)
    #: deltas of the program's public counters over the pass
    counters: dict[str, float] = field(default_factory=dict)

    def fail(self, n: int, message: str, *, known: bool = False) -> None:
        self.failed += n
        if known:
            self.known_defects += n
        elif len(self.unexpected) < 20:
            self.unexpected.append(message)

    def add_sim(self, start_ns: int, start_charges: dict, clock) -> None:
        self.sim_ns += clock.now_ns - start_ns
        for category, ns in clock.charges.items():
            delta = ns - start_charges.get(category, 0)
            if delta:
                self.sim_charges[category] = self.sim_charges.get(category, 0) + delta


# --------------------------------------------------------------------- #
# boxed jobs
# --------------------------------------------------------------------- #

WORKDIR = "/home/grid/work"
CHILD_EXE = "cc.exe"
CHILD_PROGRAM = "child_make"
#: make's per-job scale, drawn by seed: 357 to 525 syscalls a job, of
#: which 304 are the compiler child's.  The child runs the profile's own
#: per-unit recipe, so the syscall mix is make's; what the small scale
#: does change is the weight of each job's box set-up and process
#: start, which a timed run measures and prints (README.md, "box_make
#: at small scale").  Jobs are small so that a run holds many rounds.
MAKE_SCALES = (0.00002, 0.00005, 0.0001)
#: a science job's syscall count, drawn by seed; the profile's scale is
#: set so its job makes about that many syscalls
SCIENCE_SYSCALLS = (200, 300, 400)
#: syscalls a boxed process makes without a trace stop
UNTRAPPED = frozenset({"exit", "waitpid"})


@dataclass(frozen=True)
class JobSpec:
    profile: AppProfile
    scale: float

    def predicted_syscalls(self) -> int:
        """Trapped syscalls the profile's recipe makes: two opens and two
        closes around the work units, plus each spawn and its child."""
        p = self.profile
        parent = 4 + p.scaled_iters(self.scale) * p.syscalls_per_iter()
        return parent + p.scaled_spawns(self.scale) + self.child_syscalls()

    def child_syscalls(self) -> int:
        """Trapped syscalls the spawned children make, all told."""
        p = self.profile
        return p.scaled_spawns(self.scale) * (4 + p.child_units * p.syscalls_per_iter())


MAKE_SPECS = tuple(JobSpec(MAKE, scale) for scale in MAKE_SCALES)
SCIENCE_SPECS = tuple(
    JobSpec(profile, target / (profile.iters * profile.syscalls_per_iter()))
    for profile in SCIENCE_APPS
    for target in SCIENCE_SYSCALLS
)


def shuffled_blocks(choices: tuple, rng: Random) -> Iterator:
    """Blocks holding every choice once, each block in a seeded order: the
    seed decides the sequence, while every round of jobs keeps the same
    mix."""
    while True:
        yield from rng.sample(choices, len(choices))


def make_jobs(seed: int) -> Iterator[JobSpec]:
    return shuffled_blocks(MAKE_SPECS, Random(seed))


def science_jobs(seed: int) -> Iterator[JobSpec]:
    return shuffled_blocks(SCIENCE_SPECS, Random(seed))


def expected_files(spec: JobSpec) -> dict[str, bytes]:
    """What a finished job leaves in its output files, from a bytearray
    model of the profile's recipe (see ``repro.workloads.base``)."""
    block = bytes(range(256)) * (BLOCK // 256)
    data_in = block * 64

    def run_units(units: int, out: bytearray) -> None:
        p = spec.profile
        buf = bytearray(BLOCK)
        for unit in range(units):
            for i in range(p.reads_8k):
                off = ((unit + i) * BLOCK) % (64 * BLOCK)
                buf[:] = data_in[off:off + BLOCK]
            for i in range(p.writes_8k):
                off = ((unit + i) * BLOCK) % (64 * BLOCK)
                out.extend(bytes(max(0, off + BLOCK - len(out))))
                out[off:off + BLOCK] = buf
            for _ in range(p.small_reads):
                buf[:TINY] = data_in[:TINY]
            for _ in range(p.small_writes):
                out.extend(bytes(max(0, TINY - len(out))))
                out[:TINY] = buf[:TINY]

    files = {OUTPUT_FILE: bytearray()}
    run_units(spec.profile.scaled_iters(spec.scale), files[OUTPUT_FILE])
    if spec.profile.scaled_spawns(spec.scale):
        files[OUTPUT_FILE + ".o"] = bytearray()
        run_units(spec.profile.child_units, files[OUTPUT_FILE + ".o"])
    return {name: bytes(data) for name, data in files.items()}


class SyscallRecorder:
    """Wraps a boxed program body to time each trapped syscall as the
    program sees it: from the yield that issues it to the resume."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self.tracer = None

    def observe(self, factory: Callable) -> Callable:
        recorder = self

        def body(proc, args):
            inner = factory(proc, args)
            value = None
            while True:
                try:
                    request = inner.send(value)
                except StopIteration as stop:
                    return stop.value
                if request.kind is not RequestKind.SYSCALL or request.name in UNTRAPPED:
                    value = yield request
                    continue
                if recorder.tracer is not None:
                    recorder.tracer.op_id += 1
                start = perf_ns()
                value = yield request
                recorder.samples.append(perf_ns() - start)

        body.__name__ = factory.__name__
        return body


class BoxWorld:
    """The prepared world every job of one box workload forks from."""

    def __init__(self, specs: tuple[JobSpec, ...]) -> None:
        self.recorder = SyscallRecorder()
        machine = Machine()
        cred = machine.add_user("grid")
        task = machine.host_task(cred, cwd=WORKDIR)
        machine.kcall_x(task, "mkdir", WORKDIR, 0o755)
        block = bytes(range(256)) * (BLOCK // 256)
        machine.write_file(task, join(WORKDIR, INPUT_FILE), block * 64)
        machine.write_file(task, join(WORKDIR, OUTPUT_FILE), b"")
        for i in range(META_FILES):
            machine.write_file(task, join(WORKDIR, f"{META_PREFIX}{i}"), b"meta")
        if any(spec.profile.spawns for spec in specs):
            machine.register_program(CHILD_PROGRAM, self.recorder.observe(child_body(MAKE)))
            machine.install_program(task, join(WORKDIR, CHILD_EXE), CHILD_PROGRAM)
        self.template = machine
        self.snapshot = machine.snapshot()
        self.bodies = {
            spec: self.recorder.observe(app_body(spec.profile, spec.scale, CHILD_EXE))
            for spec in specs
        }
        self.expected = {spec: expected_files(spec) for spec in specs}


class BoxWorkload:
    """Boxed jobs, one at a time, each on a fork of the prepared world."""

    def __init__(
        self,
        plan: Callable[[int], Iterator[JobSpec]],
        specs: tuple[JobSpec, ...],
        seed: int,
    ) -> None:
        self.plan = plan
        self.specs = specs
        self.seed = seed

    def op_sequence(self, jobs: int) -> list:
        return [(s.profile.name, s.scale) for s in islice(self.plan(self.seed), jobs)]

    def setup(self) -> BoxWorld:
        return BoxWorld(self.specs)

    def run(self, world: BoxWorld, jobs: int, tracer=None) -> Pass:
        """The first ``jobs`` jobs of the seed's plan."""
        result = Pass()
        recorder = world.recorder
        recorder.samples = result.op_ns
        recorder.tracer = tracer
        for spec in islice(self.plan(self.seed), jobs):
            if tracer is not None:
                tracer.open_window()
            window = perf_ns()
            machine = world.template.fork(world.snapshot)
            cred = machine.users.credentials_for("grid")
            clock = machine.clock
            sim_start = (clock.now_ns, clock.snapshot())
            start = perf_ns()
            box = IdentityBox(machine, cred, BOX_IDENTITY, make_home=False)
            box.policy.write_acl(WORKDIR, Acl.for_owner(BOX_IDENTITY))
            proc = box.spawn(world.bodies[spec], cwd=WORKDIR, comm=spec.profile.name)
            machine.run_to_completion()
            end = perf_ns()
            if tracer is not None:
                tracer.close_window()
            ops = box.supervisor.syscalls_handled
            result.job_ns.append(end - start)
            result.busy_ns += end - start
            result.window_ns += end - window
            result.add_sim(*sim_start, clock)
            result.jobs += 1
            result.ops += ops
            result.child_ops += spec.child_syscalls()
            self._check(machine, cred, spec, proc, ops, world, result)
        recorder.samples = []
        recorder.tracer = None
        return result

    def _check(self, machine, cred, spec, proc, ops, world, result: Pass) -> None:
        """A job's ops all count as failed if it did not exit 0, left other
        bytes than its profile wrote, or trapped another syscall count."""
        problems = []
        if proc.exit_status != 0:
            problems.append(f"exit status {proc.exit_status}")
        if ops != spec.predicted_syscalls():
            problems.append(f"{ops} syscalls trapped, {spec.predicted_syscalls()} predicted")
        task = machine.host_task(cred, cwd=WORKDIR)
        for name, data in world.expected[spec].items():
            if machine.read_file(task, join(WORKDIR, name)) != data:
                problems.append(f"{name} differs from the profile's writes")
        if problems:
            result.fail(ops, f"{spec.profile.name}@{spec.scale:g}: " + "; ".join(problems))


# --------------------------------------------------------------------- #
# Chirp: shared pieces
# --------------------------------------------------------------------- #

CLIENT_HOST = "laptop.cs.nowhere.edu"
PRINCIPALS = ("/O=UnivNowhere/CN=Alice", "/O=UnivNowhere/CN=Bob")
SUBJECTS = tuple(f"globus:{dn}" for dn in PRINCIPALS)
ROOT_ACL = "globus:/O=UnivNowhere/*"
#: check kinds for an op's expected result
BYTES, SIZE, COUNT, NAMES, TRUE, OWN_ACL, NONE, EACCES = (
    "bytes", "size", "count", "names", "true", "own_acl", "none", "eacces",
)


@dataclass(frozen=True)
class Op:
    """One client call and what the generator's model says it returns."""

    who: int
    kind: str
    args: tuple
    check: str
    expect: Any = None
    #: a stat through a name whose cached size may be stale, because a
    #: write went to its inode through another hard link since the name
    #: was last stat'd (the read cache's stale hard-link size, ROADMAP
    #: item 1)
    link_stale: bool = False

    def digest_key(self) -> tuple:
        args = tuple(
            hashlib.blake2b(a, digest_size=8).hexdigest() if isinstance(a, bytes) else a
            for a in self.args
        )
        return (self.who, self.kind, args)


def grid_credentials():
    """A CA, a trust store and the two principals' wallets."""
    ca = CertificateAuthority("UnivNowhere CA")
    trust = CredentialStore()
    trust.trust(ca)
    wallets = [provision_user(ca, trust, dn) for dn in PRINCIPALS]
    return trust, wallets


def judge(op: Op, value: Any, error: ChirpError | None) -> str | None:
    """None when the call did what the model says, else what went wrong."""
    if op.check == EACCES:
        if error is not None and error.errno is Errno.EACCES:
            return None
        return f"probe {op.kind} {op.args[0]} was not refused: {error or value!r}"
    if error is not None:
        return f"{op.kind} {op.args[:1]} raised {error}"
    if op.check == BYTES:
        ok = value == op.expect
    elif op.check == SIZE:
        ok = value.size == op.expect
    elif op.check == COUNT:
        ok = value == op.expect
    elif op.check == NAMES:
        ok = sorted(value) == op.expect
    elif op.check == TRUE:
        ok = value is True
    elif op.check == OWN_ACL:
        entries = [line.split() for line in value.splitlines() if line.strip()]
        ok = len(entries) == 1 and entries[0][0] == SUBJECTS[op.who] and set(entries[0][1]) == set("rwlax")
    else:
        ok = True
    if ok:
        return None
    shown = value.size if op.check == SIZE else (len(value) if isinstance(value, bytes) else value)
    expect = len(op.expect) if isinstance(op.expect, bytes) else op.expect
    return f"{op.kind} {op.args[-1] if op.kind == 'put' else op.args[0]}: got {shown!r}, model says {expect!r}"


def call_ops(ops: list[Op], clients, clock, result: Pass, tracer, user_bytes: list[int]) -> int:
    """Run ops back to back, timing each call; returns their wall ns."""
    total = 0
    for op in ops:
        fn = getattr(clients[op.who], op.kind)
        error = value = None
        if tracer is not None:
            tracer.open_window()
        start = perf_ns()
        try:
            value = fn(*op.args)
        except ChirpError as exc:
            error = exc
        elapsed = perf_ns() - start
        if tracer is not None:
            tracer.close_window()
        total += elapsed
        result.op_ns.append(elapsed)
        result.ops += 1
        if op.kind == "put":
            user_bytes[0] += len(op.args[0])
        elif op.kind == "get" and isinstance(value, bytes):
            user_bytes[0] += len(value)
        problem = judge(op, value, error)
        if problem is not None:
            result.fail(1, problem, known=op.link_stale and op.check == SIZE and error is None)
    return total


def op_sequence(plan: Iterator[list[list[Op]]], jobs: int) -> list[tuple]:
    """The plan's first ``jobs`` jobs as comparable tuples."""
    return [op.digest_key() for phases in islice(plan, jobs) for ops in phases for op in ops]


def wire_bytes(network, hosts) -> int:
    return sum(
        conn.bytes_sent + conn.bytes_received
        for host in hosts
        for conn in network.live_connections(host)
    )


def connections(network, hosts) -> int:
    """Live connections to ``hosts``; a session opened in a timed phase
    would change it."""
    return sum(len(network.live_connections(host)) for host in hosts)


def run_chirp(plan: Iterator[list[list[Op]]], world, jobs: int, tracer) -> Pass:
    """Run the plan's first ``jobs`` jobs, each a list of phases of ops;
    the world checks its replicas between phases, outside the timed and
    simulated time."""
    result = Pass()
    clock = world.cluster.clock
    user_bytes = [0]
    before = world.counters()
    for phases in islice(plan, jobs):
        elapsed = 0
        for index, ops in enumerate(phases):
            sim_start = (clock.now_ns, clock.snapshot())
            elapsed += call_ops(ops, world.clients, clock, result, tracer, user_bytes)
            result.add_sim(*sim_start, clock)
            world.after_phase(index, ops, result)
        result.jobs += 1
        result.job_ns.append(elapsed)
        result.busy_ns += elapsed
    result.window_ns = result.busy_ns
    after = world.counters()
    result.counters = {key: after[key] - before[key] for key in after}
    result.counters["user_bytes"] = user_bytes[0]
    return result


# --------------------------------------------------------------------- #
# chirp_read: two principals on one server with a read cache
# --------------------------------------------------------------------- #

SERVER_HOST = "server1.nowhere.edu"
HOMES = ("/alice", "/bob")
DIRS = 32
FILES_PER_DIR = 32
#: client calls in one principal's turn; long enough that every turn
#: holds several writes, so turn times do not split into populations by
#: their number of writes
TURN_OPS = 32
ZIPF_S = 1.0
FILE_NAMES = [f"f{i:02d}" for i in range(FILES_PER_DIR)]
#: job-directory names the generator keeps alive, at most
JOB_POOL_CAP = 128
#: share of reads and overwrites aimed at the job directory's files
JOB_FILE_SHARE = 0.1


def spread_draws(cdf, u: float) -> Iterator[Any]:
    """Draws from ``cdf`` at the quantiles of a golden-ratio sequence
    starting at ``u``.  Any run of draws then holds each outcome at close
    to its table share, so a seed cannot draw an unusual number of the
    writes or large files that dominate a round's time."""
    while True:
        yield cdf.quantile(u)
        u = (u + 0.6180339887498949) % 1.0


class Zipf:
    """Seeded Zipf draws over ``n`` items in a seeded popularity order."""

    def __init__(self, rng: Random, items: list) -> None:
        self.items = rng.sample(items, len(items))
        self.cum = list(accumulate(1.0 / (k ** ZIPF_S) for k in range(1, len(items) + 1)))

    def draw(self, rng: Random):
        return self.items[min(bisect_right(self.cum, rng.random() * self.cum[-1]), len(self.items) - 1)]


class ReadPlan:
    """The chirp_read generator and its model of both namespaces.

    Reads (stat, access, getacl, get) hit each home's 1,024 files with
    Zipf-skewed popularity; with two access letter sets that is four cache
    keys per file, 8,192 in all, twice ReadCache's 4,096 entries.
    """

    def __init__(self, seed: int) -> None:
        rng = self.rng = Random(seed)
        sizes = self.size_table = table("file_sizes")
        self._kinds = spread_draws(table("chirp_read_ops"), rng.random())
        self._sizes = spread_draws(sizes, rng.random())
        self.inodes: dict[int, bytes] = {}
        self.first_size: dict[int, int] = {}
        self.names: dict[str, int] = {}
        #: every name of each inode
        self.aliases: dict[int, set[str]] = {}
        #: names stat'd since their last mutation, so the read cache may
        #: hold their size
        self.stat_cached: set[str] = set()
        #: names whose cached size a write through another name of the
        #: same inode may have made stale
        self.link_stale: set[str] = set()
        self.dirs: list[list[str]] = []
        self.files: list[list[str]] = []
        self.jobs: list[list[str]] = [[], []]
        self.file_zipf: list[Zipf] = []
        self.dir_zipf: list[Zipf] = []
        self._ino = count()
        self._job_seq = count()
        for home in HOMES:
            dirs = [f"{home}/d{d:02d}" for d in range(DIRS)]
            files = [f"{d}/{name}" for d in dirs for name in FILE_NAMES]
            zipf = Zipf(rng, files)
            # the n-th most popular file has the same size under every
            # seed: which files are hot is the seed's, how big they are
            # is not, so a seed cannot make the hottest file a large one
            for path, size in zip(zipf.items, spread_draws(sizes, 0.5)):
                self._create(path, rng.randbytes(size))
            self.dirs.append([home, *dirs, f"{home}/jobs"])
            self.files.append(files)
            self.file_zipf.append(zipf)
            self.dir_zipf.append(Zipf(rng, dirs))

    def _content(self) -> bytes:
        return self.rng.randbytes(next(self._sizes))

    def _create(self, path: str, data: bytes) -> None:
        ino = next(self._ino)
        self.inodes[ino] = data
        self.first_size[ino] = len(data)
        self.names[path] = ino
        self.aliases[ino] = {path}

    def _rewrite(self, ino: int) -> bytes:
        """New content for an overwrite.  It alternates between the
        inode's first size and the next smaller size in the table (the
        smallest goes up one), so every overwrite changes the size, and a
        hot file's sizes are the same under every seed."""
        first = self.first_size[ino]
        if len(self.inodes[ino]) != first:
            size = first
        else:
            values = self.size_table.values
            i = values.index(first)
            size = values[i - 1] if i else values[1]
        data = self.inodes[ino] = self.rng.randbytes(size)
        return data

    def _mutated(self, path: str) -> None:
        """A mutation through ``path`` invalidates the read cache's
        entries for it (and only for it, among an inode's names)."""
        self.stat_cached.discard(path)
        self.link_stale.discard(path)

    def _stat(self, who: int, path: str) -> Op:
        self.stat_cached.add(path)
        size = len(self.inodes[self.names[path]])
        return Op(who, "stat", (path,), SIZE, size, link_stale=path in self.link_stale)

    def staging(self, who: int) -> tuple[list[str], list[tuple[str, bytes]]]:
        return self.dirs[who], [(p, self.inodes[self.names[p]]) for p in self.files[who]]

    def warmup(self, who: int) -> list[Op]:
        """Cacheable reads of the principal's most popular files, least
        popular first, filling its half of the read cache with the hot
        set the timed phase will find there."""
        hot = self.file_zipf[who].items[: len(self.files[who]) // 2]
        ops = []
        for path in reversed(hot):
            ops += [
                self._stat(who, path),
                Op(who, "access", (path, "r"), TRUE),
                Op(who, "access", (path, "w"), TRUE),
                Op(who, "getacl", (path,), OWN_ACL),
            ]
        return ops

    def _target(self, who: int) -> str:
        rng = self.rng
        if self.jobs[who] and rng.random() < JOB_FILE_SHARE:
            return rng.choice(self.jobs[who])
        return self.file_zipf[who].draw(rng)

    def _job_name(self, who: int, tag: str) -> str:
        return f"{HOMES[who]}/jobs/{tag}{next(self._job_seq):06d}"

    def next_op(self, who: int) -> Op:
        rng = self.rng
        kind = next(self._kinds)
        pool = self.jobs[who]
        if kind in ("put_new", "link") and len(pool) >= JOB_POOL_CAP:
            kind = "unlink"
        if kind in ("unlink", "rename") and not pool:
            kind = "put_new"
        if kind == "probe":
            other = 1 - who
            path = self.file_zipf[other].draw(rng)
            probe = rng.choice(("stat", "get", "getacl", "readdir"))
            if probe == "readdir":
                path = path.rsplit("/", 1)[0]
            return Op(who, probe, (path,), EACCES)
        if kind == "readdir":
            if rng.random() < JOB_FILE_SHARE:
                names = sorted(path.rsplit("/", 1)[1] for path in pool)
                return Op(who, "readdir", (f"{HOMES[who]}/jobs",), NAMES, names)
            return Op(who, "readdir", (self.dir_zipf[who].draw(rng),), NAMES, FILE_NAMES)
        if kind in ("stat", "access", "getacl", "get"):
            path = self._target(who)
            ino = self.names[path]
            if kind == "stat":
                return self._stat(who, path)
            if kind == "access":
                return Op(who, "access", (path, rng.choice(("r", "w"))), TRUE)
            if kind == "getacl":
                return Op(who, "getacl", (path,), OWN_ACL)
            return Op(who, "get", (path,), BYTES, self.inodes[ino])
        if kind == "put_over":
            path = self._target(who)
            ino = self.names[path]
            data = self._rewrite(ino)
            self._mutated(path)
            self.link_stale.update(self.aliases[ino] & self.stat_cached)
            return Op(who, "put", (data, path), COUNT, len(data))
        if kind == "put_new":
            path = self._job_name(who, "n")
            data = self._content()
            self._create(path, data)
            pool.append(path)
            return Op(who, "put", (data, path), COUNT, len(data))
        if kind == "link":
            # a shared input is a popular file
            source = self.file_zipf[who].draw(rng)
            path = self._job_name(who, "l")
            self.names[path] = self.names[source]
            self.aliases[self.names[source]].add(path)
            pool.append(path)
            return Op(who, "link", (source, path), NONE)
        if kind == "unlink":
            path = pool.pop(0)
            self._mutated(path)
            self.aliases[self.names.pop(path)].discard(path)
            return Op(who, "unlink", (path,), NONE)
        # rename a job file to a fresh name
        old = pool.pop(rng.randrange(len(pool)))
        new = self._job_name(who, "r")
        self._mutated(old)
        ino = self.names[new] = self.names.pop(old)
        self.aliases[ino] ^= {old, new}
        pool.append(new)
        return Op(who, "rename", (old, new), NONE)

    def turns(self) -> Iterator[list[list[Op]]]:
        for turn in count():
            who = turn % 2
            yield [[self.next_op(who) for _ in range(TURN_OPS)]]


class ReadWorld:
    """One ChirpServer with a ReadCache, two authenticated sessions, both
    homes staged from the plan's initial model, and a warm cache.

    Each principal creates its home tree through its session, so the
    directories carry the ACLs the server grants; the files are then
    copied into the export by the server's owner, as an operator stages
    a data set, which leaves more of each round's time for the timed
    phase."""

    def __init__(self, plan: ReadPlan) -> None:
        self.cluster = cluster = Cluster()
        cluster.add_machine(SERVER_HOST)
        cluster.add_machine(CLIENT_HOST)
        trust, wallets = grid_credentials()
        machine = cluster.machine(SERVER_HOST)
        self.server = server = ChirpServer(
            machine,
            machine.add_user("keeper"),
            network=cluster.network,
            auth=ServerAuth(credential_store=trust),
            read_cache=ReadCache(),
        )
        acl = Acl()
        acl.set_entry(ROOT_ACL, Rights.parse("lv(rwlax)"))
        server.set_root_acl(acl)
        server.serve()
        self.clients = []
        for who, wallet in enumerate(wallets):
            client = ChirpClient.connect(cluster.network, CLIENT_HOST, SERVER_HOST)
            client.authenticate([GlobusAuthenticator(wallet)])
            dirs, files = plan.staging(who)
            for directory in dirs:
                client.mkdir(directory)
            for path, data in files:
                machine.write_file(server.owner_task, server.real_path(path), data)
            self.clients.append(client)
        for who, client in enumerate(self.clients):
            for op in plan.warmup(who):
                try:
                    problem = judge(op, getattr(client, op.kind)(*op.args), None)
                except ChirpError as exc:
                    problem = judge(op, None, exc)
                if problem is not None:
                    raise RuntimeError(f"cache warm-up failed: {problem}")

    def counters(self) -> dict[str, float]:
        cache = self.server.read_cache.snapshot()
        return {
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
            "cache_invalidations": cache["invalidations"],
            "server_ops": self.server.stats.ops,
            "wire_bytes": wire_bytes(self.cluster.network, [SERVER_HOST]),
            "connections": connections(self.cluster.network, [SERVER_HOST]),
            "retries": sum(c.stats.retries for c in self.clients),
            "quorum_writes": 0,
            "failover_reads": 0,
        }

    def after_phase(self, index: int, ops: list[Op], result: Pass) -> None:
        pass


def read_jobs(seed: int) -> Iterator[list[list[Op]]]:
    return ReadPlan(seed).turns()


def read_setup(seed: int) -> tuple[ReadWorld, Iterator[list[list[Op]]]]:
    """The world is staged from the plan's model, and the plan's jobs
    then continue from that model."""
    plan = ReadPlan(seed)
    return ReadWorld(plan), plan.turns()


# --------------------------------------------------------------------- #
# fed_write: job-directory lifecycles on a replicated federation
# --------------------------------------------------------------------- #

FEDERATION = "grid"
SHARDS = 4
REPLICAS = 3
#: inputs staged per job directory, in seeded blocks
INPUTS_PER_JOB = (2, 3, 4)


def fed_jobs(seed: int) -> Iterator[list[list[Op]]]:
    """mkdir, put inputs, rename, share with the other principal; then
    the other principal gets them, and the owner stats, unlinks and
    rmdirs.  About 70% of the ops mutate."""
    rng = Random(seed)
    sizes = spread_draws(table("file_sizes"), rng.random())
    inputs = shuffled_blocks(INPUTS_PER_JOB, rng)
    for n in count():
        owner, other = n % 2, 1 - n % 2
        d = f"/job{n:06d}"
        data = [rng.randbytes(next(sizes)) for _ in range(next(inputs))]
        names = ["staged"] + [f"in{i}" for i in range(1, len(data))]
        stage = [Op(owner, "mkdir", (d,), NONE)]
        stage += [Op(owner, "put", (blob, f"{d}/in{i}"), COUNT, len(blob)) for i, blob in enumerate(data)]
        stage.append(Op(owner, "rename", (f"{d}/in0", f"{d}/staged"), NONE))
        stage.append(Op(owner, "setacl", (d, SUBJECTS[other], "rl"), NONE))
        drain = [Op(other, "get", (f"{d}/{name}",), BYTES, blob) for name, blob in zip(names, data)]
        drain.append(Op(owner, "stat", (f"{d}/staged",), SIZE, len(data[0])))
        drain += [Op(owner, "unlink", (f"{d}/{name}",), NONE) for name in names]
        drain.append(Op(owner, "rmdir", (d,), NONE))
        yield [stage, drain]


class FedWorld:
    """A 4-shard, 3-replica federation with one routed client per principal."""

    def __init__(self) -> None:
        self.cluster = cluster = Cluster()
        cluster.add_machine(CLIENT_HOST)
        trust, wallets = grid_credentials()
        acl = Acl()
        acl.set_entry(ROOT_ACL, Rights.parse("lv(rwlax)"))
        self.federation = deploy_federation(
            cluster,
            FEDERATION,
            SHARDS,
            make_auth=lambda: ServerAuth(credential_store=trust),
            root_acl=acl,
            replicas=REPLICAS,
        )
        self.clients = [
            FederatedClient.connect(
                cluster.network,
                CLIENT_HOST,
                FEDERATION,
                self.federation.catalog_host,
                [GlobusAuthenticator(wallet)],
                replicas=REPLICAS,
            )
            for wallet in wallets
        ]
        self.hosts = [d.server.hostname for d in self.federation.shards.values()]
        # every session is opened and authenticated here, in set-up, so
        # the timed phase opens none and ``counters`` only reads
        self.sessions = self.shard_sessions()

    def counters(self) -> dict[str, float]:
        return {
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_invalidations": 0,
            "server_ops": sum(s.stats.ops for s in self.federation.servers()),
            "wire_bytes": wire_bytes(self.cluster.network, self.hosts),
            "connections": connections(self.cluster.network, self.hosts),
            "retries": sum(c.stats.retries for c in self.sessions),
            "quorum_writes": sum(c.stats.quorum_writes for c in self.clients),
            "failover_reads": sum(c.stats.failover_reads for c in self.clients),
        }

    def _manifests(self, prefix: str) -> list[dict]:
        """Each replica's export manifest, cut down to ``prefix``."""
        return [
            {
                path: entry
                for path, entry in self.federation.shards[name].server.export_manifest().items()
                if path == prefix or path.startswith(prefix + "/")
            }
            for name in self.clients[0].replica_names(prefix)
        ]

    def after_phase(self, index: int, ops: list[Op], result: Pass) -> None:
        """All three replicas of the job's prefix must show the same
        manifest: once staged, holding the staged files at their sizes,
        and once drained, holding nothing."""
        prefix = f"/{ops[0].args[0].split('/')[1]}"
        files: dict[str, int] = {}
        for op in ops if index == 0 else ():
            if op.kind == "put":
                files[op.args[1]] = len(op.args[0])
            elif op.kind == "rename":
                files[op.args[1]] = files.pop(op.args[0])
        manifests = self._manifests(prefix)
        first = manifests[0]
        agree = len(manifests) == REPLICAS and all(m == first for m in manifests)
        if index == 0:
            held = all(first.get(p, ("",))[0] == "file" and first[p][2] == n for p, n in files.items())
        else:
            held = not first
        if not (agree and held):
            result.fail(1, f"replicas of {prefix} after phase {index}: {manifests}")

    def shard_sessions(self) -> list[ChirpClient]:
        """Each federated client's per-shard session, found by routing
        job prefixes until every shard has answered as a primary."""
        sessions = []
        shards = len(self.federation.shards)
        for fed in self.clients:
            seen: dict[str, ChirpClient] = {}
            for n in range(100 * shards):
                client, name = fed.client_for(f"/job{n:06d}")
                seen[name] = client
                if len(seen) == shards:
                    break
            sessions += seen.values()
        return sessions


def fed_setup(seed: int) -> tuple[FedWorld, Iterator[list[list[Op]]]]:
    return FedWorld(), fed_jobs(seed)


@dataclass
class ChirpWorkload:
    """A Chirp workload: its seeded plan of jobs, and a set-up that builds
    a world together with the plan to run on it."""

    plan: Callable[[int], Iterator[list[list[Op]]]]
    make_world: Callable[[int], tuple[Any, Iterator[list[list[Op]]]]]
    seed: int

    def op_sequence(self, jobs: int) -> list:
        return op_sequence(self.plan(self.seed), jobs)

    def setup(self):
        return self.make_world(self.seed)

    def run(self, world, jobs: int, tracer=None) -> Pass:
        world, plan = world
        return run_chirp(plan, world, jobs, tracer)


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #


def workload(name: str, seed: int):
    if name == "box_make":
        return BoxWorkload(make_jobs, MAKE_SPECS, seed)
    if name == "box_science":
        return BoxWorkload(science_jobs, SCIENCE_SPECS, seed)
    if name == "chirp_read":
        return ChirpWorkload(read_jobs, read_setup, seed)
    if name == "fed_write":
        return ChirpWorkload(fed_jobs, fed_setup, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("box_make", "box_science", "chirp_read", "fed_write")
