"""Work run in lanes: this process and pinned children forked for it.

The one place fedtune forks. run_jobs splits work by cost, runs the first
share here and each other share in a child forked for that share alone,
and reads each child's one reply (README "Lanes").
"""

import os
import pickle
import signal
import struct

from .common import FedTuneError

_LENGTH = struct.Struct("<Q")  # the byte count that precedes a reply


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


def run_jobs(bound, lanes: int, jobs: dict, cost, fn, *args) -> dict:
    """The keys of jobs split by cost(key) (split) into up to lanes shares,
    no more than this process has CPUs, each share {key: jobs[key]} run by
    one call fn(bound, *args, share) -> [(key, result or exception)].

    The first share runs here, pinned to the lowest CPU of this process's
    affinity; each other share runs in a child forked for it alone (_fork),
    pinned to the next CPU, whose one reply _receive reads. Where this
    process's pin or a fork fails, that share and every later one run here;
    where a child's pin fails, _receive computes its share here; everything
    runs here without fork or sched_setaffinity. Returns key -> result or
    exception for every key. However the call ends, every child is killed
    and reaped and this process's affinity restored first (README "Lanes").
    """
    pinnable = hasattr(os, "fork") and hasattr(os, "sched_setaffinity")
    affinity = os.sched_getaffinity(0) if pinnable else set()
    cpus = sorted(affinity)
    shares = [{key: jobs[key] for key in keys}
              for keys in split(jobs, cost, max(1, min(lanes, len(cpus))))]
    children, pinned = [], False  # (pid, reply pipe) of shares 1, 2, ...
    try:
        if len(shares) > 1:
            try:
                os.sched_setaffinity(0, cpus[:1])
                pinned = True
                for cpu, share in zip(cpus[1:], shares[1:]):
                    children.append(_fork(cpu, fn, bound, *args, share))
            except OSError:  # a failed pin or fork: this share and the rest run here
                pass
        done = []
        for share in shares[:1] + shares[len(children) + 1:]:
            done += fn(bound, *args, share)
        for (_, replies), share in zip(children, shares[1:]):
            done += _receive(replies, fn, bound, *args, share)
        return dict(done)
    finally:
        for pid, replies in children:
            replies.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if pinned:
            os.sched_setaffinity(0, affinity)


def _fork(cpu: int, fn, *request):
    """(pid, reply pipe) of a child forked to pin itself to cpu, answer
    fn(*request) once on its copy of this process's memory, and exit. Its
    reply is its result or the exception it raised, pickled after its
    length; None where that does not pickle or the pin failed. A failed
    fork raises OSError and leaves no child."""
    reader, writer = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(reader)
        os.close(writer)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(reader)
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:  # a failed pin: the parent computes the share
                reply = None
            else:
                try:
                    reply = fn(*request)
                except Exception as err:  # raised again in the parent
                    reply = err
            try:
                payload = pickle.dumps(reply)
            except Exception:  # an exception that does not pickle
                payload = pickle.dumps(None)
            with os.fdopen(writer, "wb") as out:
                out.write(_LENGTH.pack(len(payload)) + payload)
            status = 0
        finally:
            os._exit(status)
    os.close(writer)
    return pid, os.fdopen(reader, "rb")


def _receive(replies, fn, *request):
    """fn(*request) as the child forked for it answered on replies: its
    result, or its exception raised here. A reply that is None or does not
    unpickle is computed here. A child that died before its whole reply was
    written raises FedTuneError."""
    data = replies.read()
    if len(data) < _LENGTH.size or _LENGTH.unpack_from(data)[0] != len(data) - _LENGTH.size:
        raise FedTuneError("a worker process died")
    try:
        reply = pickle.loads(memoryview(data)[_LENGTH.size:])
    except Exception:  # an exception that does not unpickle
        reply = None
    reply = fn(*request) if reply is None else reply
    if isinstance(reply, Exception):
        raise reply
    return reply
