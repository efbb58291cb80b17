"""Fixtures shared by the test modules: the check that no test leaves a
child process behind, the switch between the inline paths and the forked
helpers (the solution export's and a sweep's), and a log that a forked
helper's writes reach too."""

import os
from types import SimpleNamespace

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """No test leaves a child process behind."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=[(1, True), (2, True), (2, False)],
                ids=["one-cpu", "two-cpus", "two-cpus-no-fork"])
def forks(request, monkeypatch):
    """The pids forked (``.pids``) and whether a helper should run
    (``.expected``), with the CPUs this process may use and the presence of
    ``os.fork`` set by the parameter."""
    cpus, has_fork = request.param
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    if has_fork:
        monkeypatch.setattr(os, "fork", fork)
    else:
        monkeypatch.delattr(os, "fork")
    return SimpleNamespace(pids=pids, expected=cpus > 1 and has_fork)


@pytest.fixture
def shared_lines(tmp_path):
    """``.append(text)`` adds one line to a file, from this process or from
    a helper it forks; ``.read()`` returns the lines. Every write goes
    through one ``O_APPEND`` descriptor opened before any fork, one line per
    ``write``, so lines from both processes never tear."""
    path = tmp_path / "shared_lines.txt"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        yield SimpleNamespace(
            append=lambda text: os.write(fd, f"{text}\n".encode()),
            read=lambda: path.read_text().splitlines())
    finally:
        os.close(fd)
