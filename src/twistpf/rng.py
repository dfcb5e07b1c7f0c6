"""Counter-based random streams.

Each generator is a pure function of ``(root_seed, replicate, step, purpose)``:
the coordinates form the Philox key/counter, so no generator state is shared
across replicates or steps. Replicates can run in any order, or in parallel
across any number of workers, and reproduce bit-identical results.

Purpose codes, in the order a filter step consumes them:

* ``INIT``      initial particle positions (step 0)
* ``RESAMPLE``  ancestor indices, one uniform per particle in particle order
* ``MUTATE``    mutation draws in particle order
* ``TWIST``     distinguished-coordinate draws: slot index, then ancestor
                index, then the twisted mutation draw
* ``SIMULATE``  model path simulation
"""

from __future__ import annotations

import numpy as np

__all__ = ["RngStream", "INIT", "RESAMPLE", "MUTATE", "TWIST", "SIMULATE"]

INIT, RESAMPLE, MUTATE, TWIST, SIMULATE = range(5)

_MASK64 = (1 << 64) - 1


class RngStream:
    """Factory for deterministic per-(replicate, step, purpose) generators."""

    __slots__ = ("root_seed", "replicate")

    def __init__(self, root_seed: int, replicate: int = 0):
        self.root_seed = int(root_seed) & _MASK64
        self.replicate = int(replicate) & _MASK64

    def generator(self, step: int, purpose: int) -> np.random.Generator:
        key = np.array([self.root_seed, self.replicate], dtype=np.uint64)
        counter = np.array([0, 0, int(step) & _MASK64, int(purpose)], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key, counter=counter))

    def session(self) -> "_SessionStream":
        """Reusable-generator view for strictly sequential consumption.

        Draw-for-draw identical to :meth:`generator`, but resets a single
        generator's counter in place instead of constructing a new one. Only
        one generator from a session is valid at a time: requesting the next
        (step, purpose) invalidates the previous object.
        """
        return _SessionStream(self.root_seed, self.replicate)

    def __repr__(self):
        return f"RngStream(root_seed={self.root_seed}, replicate={self.replicate})"


class _SessionStream:
    __slots__ = ("root_seed", "replicate", "_gen", "_bit", "_state")

    def __init__(self, root_seed: int, replicate: int):
        self.root_seed = int(root_seed) & _MASK64
        self.replicate = int(replicate) & _MASK64
        self._bit = np.random.Philox(
            key=np.array([self.root_seed, self.replicate], dtype=np.uint64)
        )
        self._gen = np.random.Generator(self._bit)
        # template state: fresh counter and empty buffer, matching a newly
        # constructed bit generator exactly; Python ints make the state setter
        # cheaper than numpy arrays and give the same bits
        self._state = {
            "bit_generator": "Philox",
            "state": {
                "counter": [0, 0, 0, 0],
                "key": [self.root_seed, self.replicate],
            },
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def generator(self, step: int, purpose: int) -> np.random.Generator:
        counter = self._state["state"]["counter"]
        counter[2] = int(step) & _MASK64
        counter[3] = int(purpose)
        self._bit.state = self._state
        return self._gen
