"""Numerical laboratory for rotational surfaces with kappa1 = a*kappa2 + b."""

# The package re-exports nothing: callers import its modules.  variational is
# loaded with it because perfbench's tracer looks up each module it traces in
# sys.modules, and no benchmark workload imports variational itself.
from . import variational  # noqa: F401
