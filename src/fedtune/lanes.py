"""Independent jobs run in lanes: this process and forked children.

The one way fedtune forks. runner.run_experiment runs the seeds of a
multi-seed run here, and runner._run_ahead every evaluation of a
one-seed random search. Only a run that forks lanes imports this module,
so no other run pays for loading it.
"""

import os
import pickle
import signal

from .common import FedTuneError


def run_jobs(jobs: dict, cost, run, lanes: int) -> dict:
    """run(key) for every key of jobs, in min(lanes, len(jobs)) lanes; a key
    is a seed or an evaluation index.

    Keys are split across the lanes by cost(key), largest first, each to
    the lane with the least cost so far; this process is lane 0 and every
    other lane is a forked child. A lane runs its keys in ascending order
    and stops at the first exception, which it keeps in place of a result.
    A child sends what it has over a pipe and exits; every child is reaped
    before this returns, and one that dies raises FedTuneError. A kept
    exception that does not pickle is left out, and so is the whole share
    of a child whose exception does not unpickle: the caller runs those
    keys again, and so raises it. jobs must not be empty. Returns key ->
    result or exception.
    """
    loads = [0] * min(lanes, len(jobs))
    shares = [[] for _ in loads]
    for key in sorted(jobs, key=lambda k: (-cost(k), k)):
        lane = loads.index(min(loads))
        loads[lane] += cost(key)
        shares[lane].append(key)

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
