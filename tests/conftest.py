"""Keep a failing hypothesis test a plain failure under `pytest -W error`.

On a falsifying example hypothesis's pytest plugin imports its patch writer,
hypothesis.extra._patching, inside pytest's report hook. That import pulls in
libcst, which raises "mypy_extensions.TypedDict is deprecated"; under -W error,
as CI runs the suite, the warning becomes an INTERNALERROR that hides the
example. Importing the patch writer here first, with that one warning ignored,
leaves the hook a module that is already loaded.
"""
import warnings

with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no hypothesis, or no libcst: the plugin writes no patch then
        pass
