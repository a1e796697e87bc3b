import resource
import time

import pytest

from minuscule import orbits, poset


@pytest.fixture(scope="session")
def cm_poset():
    return poset.cayley_moufang()


@pytest.fixture(scope="session")
def pf_poset():
    return poset.freudenthal()


@pytest.fixture(scope="session")
def cm_table(cm_poset):
    # Built fresh, never from the shipped cache: reproduction is the point.
    return orbits.build_gapless_table(cm_poset)


def _pool_cpu() -> float:
    # User plus system seconds of the reaped child processes (the pool workers).
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@pytest.fixture(scope="session")
def freudenthal_builds(pf_poset):
    """One single-worker and one two-worker fresh build, each timed by the wall
    clock and by the CPU seconds of the parent and of the pool."""
    t0, c0 = time.monotonic(), time.process_time()
    single = orbits.build_gapless_table(pf_poset, workers=1)
    t1, c1, p1 = time.monotonic(), time.process_time(), _pool_cpu()
    dual = orbits.build_gapless_table(pf_poset, workers=2)
    t2, c2, p2 = time.monotonic(), time.process_time(), _pool_cpu()
    return {
        "single": single,
        "single_time": t1 - t0,
        "single_cpu": c1 - c0,
        "dual": dual,
        "dual_time": t2 - t1,
        "dual_cpu": c2 - c1,
        "dual_pool_cpu": p2 - p1,
    }


@pytest.fixture(scope="session")
def pf_table(freudenthal_builds):
    return freudenthal_builds["single"]
