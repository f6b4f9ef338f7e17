"""Exception hierarchy tests."""

from repro.errors import (
    DeviceOOMError,
    DeviceStateError,
    GraphFormatError,
    ReproError,
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
