# scipy is loaded once for the whole run: a process that holds it runs
# Qhull in process, so the CLI calls the tests make in this process fork
# no Qhull worker, which would import scipy again on every call.  The
# worker is tested in fresh interpreters (tests/test_cli.py).
import scipy.spatial  # noqa: F401
