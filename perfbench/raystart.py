"""Start and stop a Ray session that keeps to the run's own directory.

- The object store gets an explicit size (``OBJECT_STORE_BYTES``)
  instead of Ray's default of 30% of host RAM.
- Every Ray file and socket lives under ``.perfbench/ray-<pid>`` in the
  checkout, removed when the session stops.  Unix socket
  paths are limited to 107 bytes, so when the checkout path is long Ray
  is handed that directory as ``/proc/<pid>/cwd/<path relative to the
  checkout>``: the benchmark process's working directory is the checkout
  root, and the path stays short however deep the checkout is.
- Workers get ``PYTHONPATH`` through ``runtime_env``, so Ray Data stages
  can import ``raystorm`` (and the benchmark's worker hook).
- If ``ray.init`` fails, the tails of the session's raylet and GCS logs,
  the ``/dev/shm`` size and the cgroup memory limit go to stderr.
- ``stop`` shuts Ray down and waits until every process the session
  started has exited, killing stragglers.

``adopt_orphans`` and ``reap_descendants`` do the same for everything a
run starts: a process whose parent exits before it does (a Ray worker
after its raylet) is re-parented to the run instead of to init, so the
run still finds it and can stop it before it exits itself.
"""

from __future__ import annotations

import ctypes
import glob
import os
import shutil
import signal
import sys
import time

OBJECT_STORE_BYTES = 500 * 1024 * 1024
SOCKET_PATH_MAX = 107
PR_SET_CHILD_SUBREAPER = 36


#: bytes Ray appends to its temp dir for the longest socket path:
#: /session_<date>_<usec>_<pid>/sockets/plasma_store
SOCKET_SUFFIX = 64


def short_path(path: str) -> str:
    """``path`` itself if Ray's socket paths under it stay short enough,
    else ``path`` (inside the working directory) as seen through
    ``/proc/<pid>/cwd``, which every process of this user can resolve."""
    path = os.path.abspath(path)
    if len(path.encode()) + SOCKET_SUFFIX <= SOCKET_PATH_MAX:
        return path
    rel = os.path.relpath(path, os.getcwd())
    if rel.startswith(".."):
        raise ValueError(f"{path} is outside the working directory")
    return f"/proc/{os.getpid()}/cwd/{rel}"


def _descendants(pid: int) -> set[int]:
    children: dict[int, list[int]] = {}
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(stat.split("/")[2]))
    out, todo = set(), [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            if c not in out:
                out.add(c)
                todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def adopt_orphans() -> None:
    """Make this process the subreaper of every process it starts, so
    that orphaned descendants stay its descendants (Linux only)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap(pids: set[int], grace_s: float) -> None:
    """Wait up to ``grace_s`` for ``pids`` to exit, SIGKILL the rest,
    collect the exit status of those that are this process's children
    and wait until none is left."""
    deadline = time.monotonic() + grace_s
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    for p in pids:
        if _alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
    deadline = time.monotonic() + 10
    while True:
        for p in pids:
            try:
                os.waitpid(p, os.WNOHANG)
            except ChildProcessError:
                pass
        if not any(_alive(p) for p in pids) or time.monotonic() >= deadline:
            return
        time.sleep(0.05)


def reap_descendants(grace_s: float = 5.0) -> None:
    """SIGTERM every process this one started (and every orphan it
    adopted), then ``reap`` them."""
    pids = _descendants(os.getpid())
    for p in pids:
        try:
            os.kill(p, signal.SIGTERM)
        except ProcessLookupError:
            pass
    reap(pids, grace_s)


def _tail(path: str, n: int = 30) -> str:
    try:
        with open(path, errors="replace") as fh:
            return "".join(fh.readlines()[-n:])
    except OSError as e:
        return f"<{e}>"


def diagnose(ray_dir: str) -> None:
    """Print what is needed to tell why Ray did not start."""
    err = sys.stderr
    print(f"ray.init failed; ray dir {ray_dir}", file=err)
    for name in ("raylet.out", "raylet.err", "gcs_server.out", "gcs_server.err"):
        for path in sorted(glob.glob(os.path.join(ray_dir, "session_*", "logs", name))):
            print(f"--- tail {path}\n{_tail(path)}", file=err)
    st = os.statvfs("/dev/shm") if os.path.isdir("/dev/shm") else None
    if st:
        print(
            f"/dev/shm size {st.f_blocks * st.f_frsize} free {st.f_bavail * st.f_frsize}",
            file=err,
        )
    for path in ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes"):
        if os.path.exists(path):
            print(f"{path}: {_tail(path, 1).strip()}", file=err)
    print(f"nproc {os.cpu_count()} cwd {os.getcwd()}", file=err)


class RaySession:
    """One Ray session rooted in ``<root>/.perfbench/ray-<pid>``; use as a
    context manager.  ``env`` adds environment variables for workers and
    ``setup_hook`` names a ``worker_process_setup_hook``."""

    def __init__(self, root: str, env: dict | None = None, setup_hook: str | None = None):
        self.ray_dir = os.path.join(root, ".perfbench", f"ray-{os.getpid()}")
        self.root = root
        self.env = env or {}
        self.setup_hook = setup_hook
        self._pids: set[int] = set()

    def __enter__(self) -> "RaySession":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> None:
        os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
        import ray

        os.makedirs(self.ray_dir, exist_ok=True)
        temp_dir = short_path(self.ray_dir)
        longest = len(temp_dir.encode()) + SOCKET_SUFFIX
        if longest > SOCKET_PATH_MAX:
            raise OSError(f"Ray socket path would be {longest} bytes: {temp_dir}")
        runtime_env: dict = {"env_vars": {"PYTHONPATH": self.root, **self.env}}
        if self.setup_hook:
            runtime_env["worker_process_setup_hook"] = self.setup_hook
        try:
            ray.init(
                address="local",
                num_cpus=os.cpu_count() or 1,
                object_store_memory=OBJECT_STORE_BYTES,
                include_dashboard=False,
                logging_level="ERROR",
                log_to_driver=False,
                runtime_env=runtime_env,
                _temp_dir=temp_dir,
            )
        except Exception:
            diagnose(self.ray_dir)
            self.stop()
            raise
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def stop(self) -> None:
        import ray

        self._pids |= _descendants(os.getpid())
        if ray.is_initialized():
            ray.shutdown()
        self._pids |= _descendants(os.getpid())
        reap(self._pids, 20)
        self._pids.clear()
        shutil.rmtree(self.ray_dir, ignore_errors=True)
