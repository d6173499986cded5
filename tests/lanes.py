"""Arrays that keep the array kernels of the cylinder functions under test.

A regime that holds at most specfun._FEW_LANES arguments of an array runs
the float kernels, one argument at a time.  A test that compares the array
path with the float path on a few arguments therefore repeats each argument
past that count, so that every regime it touches runs its array kernel.
"""

import numpy as np

from anticentrifugal.specfun import _FEW_LANES


def on_array_kernels(fn, first, x):
    """fn(first, v) for each v in x, each v repeated _FEW_LANES + 1 times in
    one array, so that no regime holds few enough lanes for a float kernel."""
    reps = _FEW_LANES + 1
    return fn(first, np.repeat(np.asarray(x), reps))[..., ::reps]
