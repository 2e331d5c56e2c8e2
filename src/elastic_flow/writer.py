"""`simulate`'s snapshot writer: one forked process (POSIX only) that
writes the snapshot files of the blocks handed to it through a pipe while
the run steps on. `iotools` decides the packed layout and the file bytes;
this module moves blocks and reports the writer's error.
"""

from __future__ import annotations

import os

import numpy as np

from . import iotools
from .errors import IoError
from .flow import FlowState


class SnapshotWriter:
    """`flow.run`'s sink that writes out_dir/snapshot_<step>.txt for each
    state, as a context manager; `count` is the number of states handed
    over.

    The first batch, the initial state, is written in process, creating
    out_dir, so an unwritable directory fails before the first step. Then
    one forked process writes the later batches, which arrive packed
    through a pipe. A write that fails there ends that process, closing
    its end of the pipe, and its `IoError` text is raised at the next
    batch or when the writer closes. Closing waits for every file and
    reaps the process; leaving the context on an exception closes it too,
    without raising the writer's error over that exception.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.count = 0
        self._child = None  # (pid, the pipe's write end, the error pipe's read end)

    def __enter__(self) -> "SnapshotWriter":
        return self

    def __exit__(self, kind, *_) -> None:
        if self._child is not None:
            error = self._reap()
            if error and kind is None:
                raise IoError(error)

    def __call__(self, _, states: list[FlowState]) -> None:
        if not states:
            return
        block = iotools._pack(states)
        if not self.count:
            iotools.make_dir(self.out_dir)
            iotools._write_rows(self.out_dir, block)
            self._fork(block.shape[1])
        else:
            try:
                _send(self._child[1], len(block).to_bytes(8, "little"))
                _send(self._child[1], block)
            except BrokenPipeError:  # the writer has stopped
                raise IoError(self._reap()) from None
        self.count += len(states)

    def _fork(self, width: int) -> None:
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError as exc:
            for fd in fds:
                os.close(fd)
            raise IoError(f"cannot start the snapshot writer: {exc}") from exc
        data_r, data_w, errors_r, errors_w = fds
        if pid == 0:
            # the writer process ends here on every path, an interrupt
            # included: nothing may unwind into the run's stack it copied
            status = 1
            try:
                os.close(data_w)
                os.close(errors_r)
                _write_blocks(self.out_dir, data_r, width)
                status = 0
            except BaseException as exc:
                text = str(exc) if isinstance(exc, IoError) else f"snapshot writer failed: {exc!r}"
                os.write(errors_w, text.encode())
            finally:
                os._exit(status)
        os.close(data_r)
        os.close(errors_w)
        self._child = (pid, data_w, errors_r)

    def _reap(self) -> str:
        """Close the pipe, wait for the writer process to finish and return
        its error text, empty when it wrote every file."""
        pid, data, errors = self._child
        self._child = None
        try:
            os.close(data)
            with open(errors, "rb") as fh:
                text = fh.read().decode(errors="replace")
        finally:
            status = os.waitpid(pid, 0)[1]
        if status and not text:
            text = f"snapshot writer ended with wait status {status}"
        return text


def _send(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _write_blocks(out_dir: str, fd: int, width: int) -> None:
    """Write the files of each block read from `fd`, its row count (8
    bytes) and then its rows of `width` floats, until the pipe closes."""
    with open(fd, "rb") as pipe:
        while head := pipe.read(8):
            rows = int.from_bytes(head, "little")
            iotools._write_rows(out_dir, np.frombuffer(pipe.read(rows * width * 8)).reshape(rows, width))
