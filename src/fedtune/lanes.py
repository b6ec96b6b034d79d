"""Work run in lanes: this process and forked children.

The one way fedtune forks. runner.run_experiment runs the seeds of a
multi-seed run in run_jobs lanes, and runner._run_ahead every evaluation
of a one-seed random search. A one-seed adaptive or halving search
trains half of every cohort pass in a Helper, a child pinned to a CPU of
its own. Only a run that forks imports this module, so no other run pays
for loading it.
"""

import os
import pickle
import select
import signal
import struct
import time

from .common import FedTuneError

_LENGTH = struct.Struct("<Q")  # the byte count that precedes each Helper message
# Longer than 98% of a helper's waits for its next request on adaptive-sync.
_SPIN_S = 0.002


def split(keys, cost, lanes: int) -> list[list]:
    """keys split into min(lanes, len(keys)) shares by cost(key): largest
    first, ties by key, each to the share with the least cost so far."""
    loads = [0] * min(lanes, len(keys))
    shares = [[] for _ in loads]
    for key in sorted(keys, key=lambda k: (-cost(k), k)):
        lane = loads.index(min(loads))
        loads[lane] += cost(key)
        shares[lane].append(key)
    return shares


def run_jobs(jobs: dict, cost, run, lanes: int) -> dict:
    """run(key) for every key of jobs, in min(lanes, len(jobs)) lanes; a key
    is a seed or an evaluation index.

    Keys are split across the lanes by cost(key) (split); this process is
    lane 0 and every other lane is a forked child. A lane runs its keys in
    ascending order and stops at the first exception, which it keeps in
    place of a result. A child sends what it has over a pipe and exits;
    every child is reaped before this returns, and one that dies raises
    FedTuneError. A kept exception that does not pickle is left out, and so
    is the whole share of a child whose exception does not unpickle: the
    caller runs those keys again, and so raises it. jobs must not be empty.
    Returns key -> result or exception.
    """
    shares = split(jobs, cost, lanes)

    def run_share(share) -> list:
        done = []
        for key in sorted(share):
            try:
                done.append((key, run(key)))
            except Exception as err:  # raised again where the caller reaches key
                done.append((key, err))
                break
        return done

    children = []  # (pid, pipe reader) of every child not yet reaped
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # the keys left are not run here
                os.close(r)
                os.close(w)
                break
            if pid == 0:  # the child: send its share's results, then exit
                status = 1
                try:
                    os.close(r)
                    done = run_share(share)
                    try:
                        payload = pickle.dumps(done)
                    except Exception:  # the exception that stopped the lane
                        payload = pickle.dumps(done[:-1])
                    with os.fdopen(w, "wb") as fh:
                        fh.write(payload)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        done = run_share(shares[0])
        while children:
            pid, reader = children[0]
            payload = reader.read()
            reader.close()
            children.pop(0)
            if os.waitpid(pid, 0)[1] != 0:
                raise FedTuneError("a worker process died")
            try:
                done += pickle.loads(payload)
            except Exception:  # an exception that does not unpickle
                pass
    finally:
        for pid, reader in children:
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return dict(done)


def _write(fd: int, payload: bytes):
    """Send one message: its length, then payload."""
    view = memoryview(_LENGTH.pack(len(payload)) + payload)
    while view:
        view = view[os.write(fd, view):]


def _read(reader) -> bytes | None:
    """The next message, or None if the pipe ended before it was whole.

    Polls for up to _SPIN_S before the read blocks: a sleeping process
    lets its CPU idle, and an idle virtual CPU can take a millisecond or
    more to wake.
    """
    poller, end = select.poll(), time.perf_counter() + _SPIN_S
    poller.register(reader, select.POLLIN)
    while not poller.poll(0) and time.perf_counter() < end:
        pass
    head = reader.read(_LENGTH.size)
    if len(head) < _LENGTH.size:
        return None
    size = _LENGTH.unpack(head)[0]
    payload = reader.read(size)
    return payload if len(payload) == size else None


class Helper:
    """A forked child that answers requests one at a time, pinned to a CPU
    of its own while this process keeps another.

    The child runs serve(*request) on its copy of this process's memory
    as it was at the fork, and sends back the result or the exception it
    raised; serve must not return None. Messages are pickles, each after
    its length. Start one with Helper.start; close stops it.
    """

    def __init__(self, pid: int, requests: int, replies, affinity: set):
        self.pid, self.requests, self.replies, self.affinity = pid, requests, replies, affinity

    @classmethod
    def start(cls, serve) -> "Helper | None":
        """A Helper for serve, with this process pinned to the lowest CPU
        of its affinity and the child to the next. None, and this process
        unchanged, when there are fewer than two CPUs, no os.fork, a failed
        fork or a failed sched_setaffinity: two halves on one CPU would
        only take turns."""
        if not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")):
            return None
        affinity = os.sched_getaffinity(0)
        cpus = sorted(affinity)
        if len(cpus) < 2:
            return None
        try:
            os.sched_setaffinity(0, {cpus[0]})
        except OSError:
            return None
        (request_r, request_w), (reply_r, reply_w) = os.pipe(), os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (request_r, request_w, reply_r, reply_w):
                os.close(fd)
            os.sched_setaffinity(0, affinity)
            return None
        if pid == 0:  # the child: answer until the requests pipe ends
            status = 1
            try:
                os.close(request_w)
                os.close(reply_r)
                with os.fdopen(request_r, "rb") as requests:
                    while (request := _read(requests)) is not None:
                        try:
                            reply = serve(*pickle.loads(request))
                        except Exception as err:  # raised again in the parent
                            reply = err
                        try:
                            payload = pickle.dumps(reply)
                        except Exception:  # an exception that does not pickle
                            payload = pickle.dumps(None)
                        _write(reply_w, payload)
                status = 0
            finally:
                os._exit(status)
        os.close(request_r)
        os.close(reply_w)
        helper = cls(pid, request_w, os.fdopen(reply_r, "rb"), affinity)
        try:
            os.sched_setaffinity(pid, {cpus[1]})
        except OSError:
            helper.close()
            return None
        return helper

    def send(self, *request):
        """Ask the child for serve(*request); receive takes the answer."""
        try:
            _write(self.requests, pickle.dumps(request))
        except BrokenPipeError:
            raise FedTuneError("a worker process died") from None

    def receive(self):
        """The answer to the oldest request not yet received: serve's
        result or exception, or None for an exception that did not pickle
        or unpickle, which the caller raises by running the request itself.
        A child that died raises FedTuneError."""
        payload = _read(self.replies)
        if payload is None:
            raise FedTuneError("a worker process died")
        try:
            return pickle.loads(payload)
        except Exception:  # an exception that does not unpickle
            return None

    def close(self):
        """Stop and reap the child, and restore this process's CPU affinity."""
        os.close(self.requests)
        self.replies.close()
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        os.sched_setaffinity(0, self.affinity)
