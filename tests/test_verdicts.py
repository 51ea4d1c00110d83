import pytest

from cyclica import verdicts
from cyclica.cli import NONCYCLIC_STATUSES, RunConfig, _verdict_exit
from cyclica.core import Tolerances
from cyclica.verdicts import STATUS_CLASSES, Verdict

STATUSES = [getattr(verdicts, name) for name in verdicts.__all__
            if isinstance(getattr(verdicts, name), str)]


def test_status_classes_partition_the_statuses():
    assert len(STATUSES) == 9
    assert set(STATUS_CLASSES) == {"positive", "negative", "inconclusive"}
    listed = [s for members in STATUS_CLASSES.values() for s in members]
    assert sorted(listed) == sorted(STATUSES)


@pytest.mark.parametrize("status", STATUSES)
def test_truthiness_and_strict_exit_follow_the_table(status):
    assert bool(Verdict(status)) == (status in STATUS_CLASSES["positive"])
    assert (status in NONCYCLIC_STATUSES) == (status in STATUS_CLASSES["negative"])
    # the --strict exit codes as spelled out before the table existed
    strict = RunConfig(Tolerances(), seed=0, horizon=64, strict=True)
    lenient = RunConfig(Tolerances(), seed=0, horizon=64)
    expected = 1 if status in ("NonCyclic", "NotCyclic", "No-witness") else 0
    assert _verdict_exit(Verdict(status), strict) == expected
    assert _verdict_exit(Verdict(status), lenient) == 0
