"""Session setup shared by every test module."""

import warnings

# When a Hypothesis property fails, the plugin's report imports libcst if it is
# installed, and libcst's import warns (mypy_extensions.TypedDict is deprecated).
# Under `pytest -W error` that warning aborted the session with INTERNALERROR
# instead of printing the counterexample.  Importing libcst here, once, with that
# warning ignored, leaves the report's own import nothing to warn about.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass
