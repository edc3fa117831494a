"""In-memory span tracer that wraps sparsenlms functions from outside.

A module that does ``from .channel import apply_channel`` holds its own
binding of the function, so patching ``channel.apply_channel`` alone
would measure nothing.  :meth:`Tracer.installed` therefore replaces
every binding of the original function object found in any loaded
``sparsenlms`` module, and restores them all afterwards.

Spans are aggregated as they close rather than kept one by one: a run
of 100k filter updates would otherwise hold half a million span
records.  Each open span accumulates the time of its children, so a
function's self time is its span time minus the time of the spans it
caused.
"""

from __future__ import annotations

import contextlib
import sys
import time

BER_SWEEP = "harness.run_ber_sweep"
CHANNEL_ERROR = "harness.channel_error"


def bits_per_frame(config, order):
    """Payload bits of one OFDM frame: every subcarrier of every transmitter."""
    return config.subcarrier_count * config.n_t * (int(order).bit_length() - 1)


class Tracer:
    """Call counts, self times and exact counters for named functions."""

    def __init__(self, names):
        self.names = list(names)
        self.stats = {name: [0, 0.0] for name in self.names}
        self.counters = {
            "harness.run_estimation_trial.iterations_run": 0,
            "harness.channel_error.useful": 0,
            "harness.run_ber_sweep.frames": 0,
            "harness.run_ber_sweep.points_max_frames": 0,
            "harness.run_ber_sweep.points_thresholds": 0,
        }
        self.missing = []
        # Open spans, innermost last: [time of closed children, name].
        self._stack = []
        self._hooks = {
            "harness.run_estimation_trial": self._count_iterations,
            CHANNEL_ERROR: self._count_useful_error,
            BER_SWEEP: self._count_frames,
        }

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        hook = self._hooks.get(name)

        def wrapper(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every traced function while active."""
        modules = [
            module
            for key, module in sorted(sys.modules.items())
            if module is not None and (key == "sparsenlms" or key.startswith("sparsenlms."))
        ]
        patched = []
        self.missing = []
        try:
            for name in self.names:
                module_name, _, attr = name.rpartition(".")
                home = sys.modules.get("sparsenlms." + module_name)
                original = getattr(home, attr, None)
                if not callable(original):
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            patched.append((module, key, original))
            yield self
        finally:
            for module, key, original in reversed(patched):
                setattr(module, key, original)

    # -- counters fed from arguments and results ---------------------------

    def _inside(self, name):
        return any(frame[1] == name for frame in self._stack)

    def _count_iterations(self, args, result):
        self.counters["harness.run_estimation_trial.iterations_run"] += int(
            result.iterations_run
        )

    def _count_useful_error(self, args, result):
        # BER training keeps only the final estimate; its error curve,
        # and so every channel_error call inside the sweep, is discarded.
        if not self._inside(BER_SWEEP):
            self.counters["harness.channel_error.useful"] += 1

    def _count_frames(self, args, result):
        config = args[0]
        by_order = {}
        for curve in result:
            by_order.setdefault(int(curve.qam_order), []).append(curve)
        for order, curves in by_order.items():
            per_frame = bits_per_frame(config, order)
            for point, bits in enumerate(curves[0].bits_total):
                frames = int(bits) // per_frame
                self.counters["harness.run_ber_sweep.frames"] += frames
                met = int(bits) >= config.ber_min_bits and all(
                    int(c.bit_errors[point]) >= config.ber_min_errors for c in curves
                )
                if frames >= config.ber_max_frames and not met:
                    self.counters["harness.run_ber_sweep.points_max_frames"] += 1
                else:
                    self.counters["harness.run_ber_sweep.points_thresholds"] += 1
