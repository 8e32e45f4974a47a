"""core._forked_map: index order, inherited tasks, errors, no process left
and no process machinery loaded for one worker.
"""

import os
import subprocess
import sys
import threading
import time

import pytest

from imfkit.core import _forked_map


class TaskFailed(Exception):
    pass


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 5])
def test_results_come_back_in_index_order(count, workers):
    def task(i):
        time.sleep(0.01 * (count - i))  # later indices finish first
        return i * i

    assert list(_forked_map(task, count, workers)) == [i * i for i in range(count)]


def test_task_closing_over_unpicklable_objects_runs_on_two_workers():
    lock = threading.Lock()
    scale = lambda v: 10 * v  # noqa: E731

    def task(i):
        with lock:
            return scale(i), os.getpid()

    results = list(_forked_map(task, 4, 2))
    assert [v for v, _ in results] == [0, 10, 20, 30]
    assert os.getpid() not in {pid for _, pid in results}


@pytest.mark.parametrize("workers", [1, 2])
def test_task_exception_is_raised_with_its_type_and_no_child_is_left(workers):
    def task(i):
        if i == 2:
            raise TaskFailed(f"task {i} failed")
        return i

    with pytest.raises(TaskFailed, match="^task 2 failed$"):
        list(_forked_map(task, 4, workers))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_worker_loads_no_process_machinery():
    code = (
        "import sys\n"
        "from imfkit.core import _forked_map\n"
        "print(list(_forked_map(lambda i: i + 1, 3, 1)), list(_forked_map(abs, 1, 4)),\n"
        "      [m for m in ('multiprocessing', 'concurrent.futures.process')\n"
        "       if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[1, 2, 3] [0] []"
