import os
import subprocess
import sys

from perfbench import raystart


def test_diagnose_prints_log_tails_and_host_limits(tmp_path, capsys):
    logs = tmp_path / "session_x" / "logs"
    logs.mkdir(parents=True)
    (logs / "raylet.out").write_text("".join(f"line {i}\n" for i in range(100)))
    (logs / "gcs_server.out").write_text("gcs says hello\n")
    raystart.diagnose(str(tmp_path))
    err = capsys.readouterr().err
    assert "line 99" in err and "line 10\n" not in err
    assert "gcs says hello" in err
    assert "/dev/shm size" in err


def test_short_path_keeps_socket_paths_short(tmp_path, monkeypatch):
    deep = tmp_path / ("d" * 120)
    deep.mkdir()
    monkeypatch.chdir(deep)
    p = raystart.short_path(str(deep / ".perfbench" / "ray-1"))
    assert p.startswith(f"/proc/{os.getpid()}/cwd/")
    assert len(p) + raystart.SOCKET_SUFFIX <= raystart.SOCKET_PATH_MAX
    assert os.path.realpath(os.path.dirname(p)) == os.path.realpath(deep / ".perfbench")
    monkeypatch.chdir("/")
    assert raystart.short_path("/tmp/x") == "/tmp/x"


def test_reap_descendants_stops_orphans_too():
    # the shell exits at once, so its `sleep` is an orphan; adopted, it
    # is still found and stopped
    script = (
        "import subprocess, sys\n"
        "from perfbench import raystart\n"
        "raystart.adopt_orphans()\n"
        "pid = int(subprocess.run(['sh', '-c', 'sleep 60 >/dev/null 2>&1 & echo $!'],\n"
        "                         capture_output=True, text=True).stdout)\n"
        "assert raystart._alive(pid)\n"
        "raystart.reap_descendants()\n"
        "print(pid, raystart._alive(pid))\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    out = subprocess.run([sys.executable, "-c", script], cwd=root, capture_output=True,
                         text=True, timeout=60, check=True).stdout.split()
    assert out[1] == "False"
    assert not raystart._alive(int(out[0]))
