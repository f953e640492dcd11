"""The one memo helper behind the module-level caches.

Each cache is a plain dict that stays bound to a module attribute, so it can
be read and measured from outside; ``clear_caches`` empties all of them.
"""

import functools

_CACHES = []
_MISSING = object()


def memoized(cache):
    """Keep the decorated function's results in ``cache``, keyed by the
    tuple of its positional arguments."""
    _CACHES.append(cache)

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            got = cache.get(args, _MISSING)
            if got is _MISSING:
                got = cache[args] = fn(*args)
            return got

        return wrapper

    return decorate


def clear_caches():
    """Empty every cache registered with ``memoized``."""
    for cache in _CACHES:
        cache.clear()
