from contextvars import ContextVar
from math import log2


class GaloisKitError(Exception):
    """Base class for toolkit errors."""


class NotSeparableError(GaloisKitError):
    """g lies in the closed class, so no separating object exists."""


DEFAULT_BUDGET = 2_000_000


class BudgetExceededError(GaloisKitError):
    """Raised, instead of a possibly wrong answer, as soon as ``done``, the
    steps of ``phase`` in the outermost metered call, passes ``budget``.
    An up-front charge too large to build is given as the text ``"k^m"``."""

    def __init__(self, phase, done, budget):
        self.phase, self.done, self.budget = phase, done, budget
        super().__init__(f"refusing {phase}: {done} steps exceed budget {budget}")


_OPEN = ContextVar("galois_kit_meter", default=None)


class _Meter:
    """Steps per phase of the outermost metered call: ``with _Meter(budget)
    as meter`` gives the open meter, or opens this one for the block."""

    def __init__(self, budget=DEFAULT_BUDGET):
        self.budget, self.done = budget, {}

    def __enter__(self):
        self.token = None if _OPEN.get() else _OPEN.set(self)
        return _OPEN.get()

    def __exit__(self, *exc):
        if self.token:
            _OPEN.reset(self.token)

    def left(self, phase):
        return self.budget - self.done.get(phase, 0)

    def charge(self, phase, steps=1):
        done = self.done[phase] = self.done.get(phase, 0) + steps
        if done > self.budget:
            raise BudgetExceededError(phase, done, self.budget)

    def charge_power(self, phase, base, exp):
        """Charge base ** exp steps up front.  A power over 2^64 times the
        budget is refused without being built, and named as ``base^exp``."""
        if exp * log2(base) > log2(self.budget + 1) + 64:
            done = self.done.get(phase, 0)
            power = f"{base}^{exp}"
            raise BudgetExceededError(phase, f"{done} + {power}" if done else power,
                                      self.budget)
        self.charge(phase, base ** exp)

    def counted(self, phase, items):
        for item in items:
            self.charge(phase)
            yield item


def _current_meter():
    """The open meter, or a new one at the default budget."""
    return _OPEN.get() or _Meter()
