"""Run independent sweep points in worker processes, or serially.

Both parallel sweeps — :func:`repro.runtime.harness.run_points` and
:func:`repro.faults.fuzz.fuzz_sweep` — go through :func:`parallel_map`.
``concurrent.futures`` (and with it ``multiprocessing``) and ``pickle`` are
imported inside the function, only when a sweep asks for more than one
worker, so a serial run never loads them.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence


def parallel_map(
    fn: Callable[..., Any], arglists: Sequence[tuple], workers: int
) -> List[Any]:
    """Return ``[fn(*args) for args in arglists]``, using up to ``workers`` processes.

    ``fn`` must be a module-level function and each point a pure function
    of its arguments; results then come back in input order and equal to
    the serial ones. Runs serially when ``workers <= 1``, when there is at
    most one point, when the arguments do not pickle (a closure-bound
    workload, say) or when the platform cannot spawn a pool (sandboxes
    without process primitives).
    """
    arglists = list(arglists)
    if workers > 1 and len(arglists) > 1:
        import pickle

        try:
            pickle.dumps((fn, arglists))
        except Exception:
            workers = 1
    if workers <= 1 or len(arglists) <= 1:
        return [fn(*args) for args in arglists]

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(arglists))) as pool:
            futures = [pool.submit(fn, *args) for args in arglists]
            return [future.result() for future in futures]
    except (OSError, PermissionError, BrokenProcessPool):
        return [fn(*args) for args in arglists]
