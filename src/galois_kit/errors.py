from contextvars import ContextVar
from functools import lru_cache, wraps
from math import inf, log2

__all__ = [
    "BudgetExceededError", "DEFAULT_BUDGET", "GaloisKitError", "Meter", "NotSeparableError",
]


class GaloisKitError(Exception):
    """Base class for toolkit errors."""


class NotSeparableError(GaloisKitError):
    """g lies in the closed class, so no separating object exists."""


DEFAULT_BUDGET = 2_000_000


class BudgetExceededError(GaloisKitError):
    """Raised, instead of a possibly wrong answer, as soon as ``done``, the
    steps of ``phase`` in the outermost metered call, passes ``budget``.
    An up-front charge too large to build is given as text, such as ``"k^m"``."""

    def __init__(self, phase, done, budget):
        self.phase, self.done, self.budget = phase, done, budget
        super().__init__(f"refusing {phase}: {done} steps exceed budget {budget}")


_OPEN = ContextVar("galois_kit_meter", default=None)


class Meter:
    """The work budget and the steps per phase of everything run inside
    ``with Meter(budget) as meter:``; ``meter.done`` maps each phase to
    its steps.  Opened inside an open meter, the block joins that one.
    Every library call joins the open meter, or opens one at
    ``DEFAULT_BUDGET`` for itself."""

    def __init__(self, budget=DEFAULT_BUDGET):
        if budget != inf and (not isinstance(budget, int) or isinstance(budget, bool)
                              or budget < 0):
            raise GaloisKitError(f"budget must be a nonnegative int or inf, not {budget!r}")
        self.budget, self.done, self.tokens = budget, {}, []

    def __enter__(self):
        self.tokens.append(None if _OPEN.get() else _OPEN.set(self))
        return _OPEN.get()

    def __exit__(self, *exc):
        token = self.tokens.pop()
        if token:
            _OPEN.reset(token)

    def charge(self, phase, steps=1):
        done = self.done[phase] = self.done.get(phase, 0) + steps
        if done > self.budget:
            raise BudgetExceededError(phase, done, self.budget)

    def charge_power(self, phase, base, exp, times=1):
        """Charge times * base ** exp steps up front.  A charge over 2^64
        times the budget is refused without being built, and named as
        ``base^exp``, or ``times * base^exp``."""
        limit = log2(self.budget + 1) + 64
        if base > 1 and (exp > limit or exp * log2(base) + log2(times) > limit):
            done = self.done.get(phase, 0)
            power = f"{base}^{exp}" if times == 1 else f"{times} * {base}^{exp}"
            raise BudgetExceededError(phase, f"{done} + {power}" if done else power,
                                      self.budget)
        self.charge(phase, times * base ** exp)

    def charge_kept(self, steps):
        """Charge a kept result's steps, ``{phase: steps}``, and say so, if
        every phase fits the budget; else charge nothing, so the caller
        runs the cold path, which refuses in the same phase at the same
        count.  A phase of 0 steps stays out of ``done``, as in a cold run."""
        done, budget = self.done, self.budget
        for phase, count in steps.items():
            if done.get(phase, 0) + count > budget:
                return False
        for phase, count in steps.items():
            if count:
                done[phase] = done.get(phase, 0) + count
        return True

    def room(self, phase):
        """How many more ``phase`` steps fit in the budget: a whole number
        of at least 0, or inf.  A stream of ``phase`` steps takes at most
        this many, refuses the next with ``refuse``, and charges what it
        took once, when it ends."""
        return max(0, self.budget - self.done.get(phase, 0))

    def refuse(self, phase, room):
        """Refuse the step past ``room``, the phase's ``room`` when its
        stream began, by charging all of them."""
        self.charge(phase, room + 1)

    def counted(self, phase, items):
        """The items, one ``phase`` step each: refused as soon as the phase
        passes the budget, and the steps taken charged once, when the
        stream ends or is dropped.  Streams of one phase run one after
        another, never interleaved."""
        room, taken = self.room(phase), 0
        try:
            for item in items:
                if taken == room:  # refuse, leaving nothing to charge again
                    taken = 0
                    self.refuse(phase, room)
                taken += 1
                yield item
        finally:
            if taken:
                self.charge(phase, taken)


def _kept(maxsize, small):
    """The keep rule of the kernels' memos, as a decorator of ``build``:
    a call where ``small(*args)`` holds returns ``tuple(build(*args))``,
    kept for the ``maxsize`` most recent such calls; any other call
    returns what ``build`` returns, so a stream stays a stream.  The
    read has ``build``'s name and module, and the memo's ``cache_info``
    and ``cache_clear``."""
    def keeping(build):
        memo = lru_cache(maxsize=maxsize)(lambda *args: tuple(build(*args)))

        @wraps(build)
        def read(*args):
            return memo(*args) if small(*args) else build(*args)

        read.cache_info, read.cache_clear = memo.cache_info, memo.cache_clear
        return read
    return keeping


def _check_int(name, value, positive=False):
    """Refuse, naming it, a size that is not an int (a bool is not one),
    or, when ``positive``, one below 1."""
    if not isinstance(value, int) or isinstance(value, bool) or positive and value < 1:
        raise GaloisKitError(f"{name} must be positive: an int, not {value!r}")


def _check_entries(what, tuples):
    """Refuse, naming it, the first of the tuples that is not a sequence or
    has an entry that is not an int.  A bool is one: tables built from
    comparisons hold bools."""
    try:
        for t in tuples:
            for x in t:
                if not isinstance(x, int):
                    raise GaloisKitError(f"{what} {tuple(t)!r}: entry {x!r} is not an int")
    except TypeError:
        _refuse_non_sequence(what, tuples)
        raise


def _iterate(what, items):
    """An iterator over a collection argument, or its refusal naming it."""
    try:
        return iter(items)
    except TypeError:
        raise GaloisKitError(f"{what} {items!r} is not a collection") from None


def _refuse_non_sequence(what, items):
    """Refuse, naming it, the first of the items that cannot be iterated:
    the failure path of a read of each item as a sequence, which raised a
    ``TypeError``."""
    for t in items:
        try:
            iter(t)
        except TypeError:
            raise GaloisKitError(f"{what} {t!r} is not a sequence") from None


def _current_meter():
    """The open meter, or a new one at the default budget."""
    return _OPEN.get() or Meter()
