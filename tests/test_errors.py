"""Exception hierarchy tests."""

from repro.errors import (
    ERROR_CODES,
    DeviceOOMError,
    DeviceStateError,
    GraphFormatError,
    ReproError,
    ServerError,
    SolveTimeoutError,
    SolverConfigError,
)


class TestHierarchy:
    def test_all_inherit_repro_error(self):
        for exc in (
            DeviceOOMError(1, 2, 3),
            DeviceStateError("x"),
            GraphFormatError("x"),
            SolverConfigError("x"),
            SolveTimeoutError("x"),
        ):
            assert isinstance(exc, ReproError)

    def test_stdlib_compatibility(self):
        # catchable by the stdlib exception types users expect
        assert isinstance(DeviceOOMError(1, 2, 3), MemoryError)
        assert isinstance(GraphFormatError("x"), ValueError)
        assert isinstance(SolverConfigError("x"), ValueError)
        assert isinstance(SolveTimeoutError("x"), TimeoutError)
        assert isinstance(DeviceStateError("x"), RuntimeError)


class TestDeviceOOMError:
    def test_carries_accounting(self):
        exc = DeviceOOMError(requested=100, in_use=50, budget=120)
        assert exc.requested == 100
        assert exc.in_use == 50
        assert exc.budget == 120
        msg = str(exc)
        assert "100" in msg and "50" in msg and "120" in msg


class TestServerError:
    def test_semantics_come_from_the_code_table(self):
        for code, (retriable, exit_code) in ERROR_CODES.items():
            exc = ServerError("x", code=code)
            assert (exc.retriable, exc.exit_code) == (retriable, exit_code)
            assert exc.retry_after_s is None

    def test_an_unlisted_code_gets_internal_semantics(self):
        exc = ServerError("x", code="unreachable")
        assert (exc.retriable, exc.exit_code) == ERROR_CODES["internal"]

    def test_given_fields_override_the_table(self):
        exc = ServerError("x", code="draining", retriable=False, exit_code=7,
                          retry_after_s=0.5)
        assert (exc.retriable, exc.exit_code, exc.retry_after_s) == (False, 7, 0.5)
