"""The exception types: every one survives pickling."""

import pickle

from matchforge import errors

# constructor arguments of the types that carry fields; every other
# type takes a message
FIELDS = {
    errors.NotCubic: (3, 2),
    errors.BudgetExceeded: ("maximal_count", 30, 66),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_survives_pickling():
    # as a process pool sends a worker's exception back
    seen = set()
    for cls in _subclasses(errors.MatchforgeError):
        exc = cls(*FIELDS.get(cls, ("a message",)))
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)
        seen.add(cls)
    assert set(FIELDS) <= seen and len(seen) >= 17, seen
    assert str(errors.NotCubic(3, 2)) == "vertex 3 has degree 2, expected 3"
    assert vars(errors.NotCubic(3, 2)) == {"vertex": 3, "degree": 2}
