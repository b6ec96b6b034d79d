"""Work run in lanes: this process and pinned helper processes.

The one place fedtune forks. helpers starts the helpers, each bound to
its copy of one object; run_jobs is the one place work is split across
them, and Helper.receive reads every reply (README "Lanes").
"""

import contextlib
import os
import pickle
import select
import signal
import struct
import time

from .common import FedTuneError

_LENGTH = struct.Struct("<Q")  # the byte count that precedes each message
# How long a helper polls before its read blocks. A probe request now comes
# once per cycle, several passes apart: on adaptive-sync (2-vCPU VM, world
# seeds 71-75) a helper waited 7-15 ms for each (median 7.5-10.6 ms), so
# every wait outlasts the poll and blocks, and the helper woke a median
# 0.37-0.40 ms (p90 0.5-0.6 ms) after the request was sent.
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


def run_each(run, keys) -> list:
    """[(key, run(key))] for keys in ascending order, up to the first key
    whose run raised, with its exception in place of a result."""
    done = []
    for key in sorted(keys):
        try:
            done.append((key, run(key)))
        except Exception as err:  # raised again where the caller reaches key
            done.append((key, err))
            break
    return done


def run_jobs(started, bound, jobs: dict, cost, fn, *args) -> dict:
    """The keys of jobs split by cost(key) (split) across this process and
    the helpers started (lanes.helpers over bound), each lane's share
    {key: jobs[key]} run by one call, fn(bound, *args, share) -> [(key,
    result or exception)]; a helper gets it as the request (fn, *args,
    share), and its reply is read by Helper.receive (README "Lanes").
    Returns key -> result or exception for every key.
    """
    shares = [{key: jobs[key] for key in keys} for keys in split(jobs, cost, len(started) + 1)]
    for helper, share in zip(started, shares[1:]):
        helper.send(fn, *args, share)
    done = fn(bound, *args, shares[0])
    for helper in started[:len(shares) - 1]:
        done += helper.receive()
    return dict(done)


@contextlib.contextmanager
def helpers(bound, lanes: int):
    """A list of up to lanes - 1 started Helpers, each serving a request
    (fn, *args) as fn(bound, *args) on its copy of bound, pinned as README
    "Lanes" says. Fewer start, down to none, when CPUs, fork or
    sched_setaffinity are lacking or a fork or pin fails. On exit, however
    the body ended, every helper is closed, the list emptied and this
    process's affinity restored."""
    pinnable = hasattr(os, "fork") and hasattr(os, "sched_setaffinity")
    affinity = os.sched_getaffinity(0) if pinnable else set()
    cpus, started, pinned = sorted(affinity)[:lanes], [], False
    try:
        if len(cpus) > 1:
            try:
                os.sched_setaffinity(0, cpus[:1])
                pinned = True
                for cpu in cpus[1:]:
                    started.append(Helper(lambda fn, *args: fn(bound, *args), cpu))
            except OSError:  # a failed fork or pin: the helpers started so far
                pass
        yield started
    finally:
        for helper in started:
            helper.close()
        started.clear()
        if pinned:
            os.sched_setaffinity(0, affinity)


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
    """A forked child pinned to cpu that answers requests one at a time
    with serve(*request), run on its copy of this process's memory as it
    was at the fork, or with the exception it raised; serve returns neither
    None nor an exception. Messages are pickles, each after its length. The
    helper is busy from send until receive ends. A failed fork or pin
    raises OSError and leaves no child. Start helpers with lanes.helpers,
    which closes them."""

    def __init__(self, serve, cpu: int):
        self.serve, self.request = serve, None  # the request sent and not yet received
        (request_r, self.requests), (reply_r, reply_w) = os.pipe(), os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (request_r, self.requests, reply_r, reply_w):
                os.close(fd)
            raise
        if self.pid == 0:  # the child: answer until the requests pipe ends
            status = 1
            try:
                os.close(self.requests)
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
        self.replies = os.fdopen(reply_r, "rb")
        try:
            os.sched_setaffinity(self.pid, {cpu})
        except OSError:
            self.close()
            raise

    @property
    def busy(self) -> bool:
        return self.request is not None

    def send(self, *request):
        """Ask the child for serve(*request); receive takes the answer. A busy
        helper, whose next reply answers another request, raises FedTuneError."""
        if self.busy:
            raise FedTuneError("a request was sent to a busy worker process")
        self.request = request
        try:
            _write(self.requests, pickle.dumps(request))
        except BrokenPipeError:
            raise FedTuneError("a worker process died") from None

    def receive(self):
        """serve(*request) for the request sent (README "Lanes"): the
        child's result, or its exception raised here. A reply that did not
        pickle or unpickle is computed here, with the helper still busy. A
        child that died, or an idle helper, which never replies, raises FedTuneError."""
        if not self.busy:
            raise FedTuneError("a reply was awaited from an idle worker process")
        payload = _read(self.replies)
        if payload is None:
            raise FedTuneError("a worker process died")
        try:
            reply = pickle.loads(payload)
        except Exception:  # an exception that does not unpickle
            reply = None
        try:
            reply = self.serve(*self.request) if reply is None else reply
        finally:
            self.request = None
        if isinstance(reply, Exception):
            raise reply
        return reply

    def close(self):
        """Stop and reap the child; drop serve, which may hold what holds this."""
        self.serve = None
        os.close(self.requests)
        self.replies.close()
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
