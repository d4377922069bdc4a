"""A simulated host whose speed the tests control."""

from perf.calib import KERNELS, Calibrator

REFERENCE = {"interp": 4.0, "numeric": 5.0, "bandwidth": 6.0}
EQUAL = {kernel: 1.0 / len(KERNELS) for kernel in KERNELS}


class FakeHost:
    """A clock that advances only when simulated work runs on it."""

    def __init__(self) -> None:
        self.now = 0.0
        self.speed = 1.0  # 1.0 = the reference machine

    def clock(self) -> float:
        return self.now

    def work(self, reference_seconds: float) -> None:
        self.now += reference_seconds / self.speed


class FakeKernels:
    """Kernels that cost exactly their reference time at speed 1."""

    def __init__(self, host: FakeHost) -> None:
        for kernel in KERNELS:
            setattr(
                self,
                kernel,
                lambda kernel=kernel: host.work(REFERENCE[kernel] / 1e3),
            )


def calibrator(host: FakeHost) -> Calibrator:
    return Calibrator(REFERENCE, clock=host.clock, kernels=FakeKernels(host))
